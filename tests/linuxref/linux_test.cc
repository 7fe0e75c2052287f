/**
 * @file
 * Tests for the Linux reference model: syscall costs, scheduling,
 * tmpfs data integrity and timing shape (writes slower than reads,
 * icache pollution), UDP sockets, and rusage accounting.
 */

#include <gtest/gtest.h>

#include <string>

#include "linuxref/kernel.h"

namespace m3v::linuxref {
namespace {

Bytes
bytes(const std::string &s)
{
    return Bytes(s.begin(), s.end());
}

class LinuxTest : public ::testing::Test
{
  protected:
    LinuxTest()
        : core(eq, "linux.core", tile::CoreModel::boom(), 0),
          kernel(eq, "linux", core)
    {
    }

    sim::EventQueue eq;
    tile::Core core;
    LinuxKernel kernel;
};

TEST_F(LinuxTest, NoopSyscallCostsAboutAThousandCycles)
{
    auto *p = kernel.createProcess("app");
    sim::Tick t0 = 0, t1 = 0;
    int n = 0;
    kernel.start(p, sim::invoke([&]() -> sim::Task {
        // Warm up, then measure 100 calls.
        for (int i = 0; i < 10; i++)
            co_await kernel.sysNoop(*p);
        t0 = eq.now();
        for (int i = 0; i < 100; i++) {
            co_await kernel.sysNoop(*p);
            n++;
        }
        t1 = eq.now();
        co_await kernel.sysExit(*p);
    }));
    eq.run();
    ASSERT_EQ(n, 100);
    double cycles_per_call = static_cast<double>(t1 - t0) / 100 /
                             12'500; // BOOM: 12.5 ns/cycle
    // Warm no-op syscall: several hundred cycles up to ~2k.
    EXPECT_GT(cycles_per_call, 300);
    EXPECT_LT(cycles_per_call, 2500);
}

TEST_F(LinuxTest, YieldPingPongAlternates)
{
    auto *a = kernel.createProcess("a");
    auto *b = kernel.createProcess("b");
    std::vector<int> order;
    auto body = [&](LinuxProcess *p, int tag) -> sim::Task {
        for (int i = 0; i < 3; i++) {
            order.push_back(tag);
            co_await kernel.sysYield(*p);
        }
        co_await kernel.sysExit(*p);
    };
    kernel.start(a, body(a, 1));
    kernel.start(b, body(b, 2));
    eq.run();
    ASSERT_EQ(order.size(), 6u);
    for (std::size_t i = 0; i < order.size(); i++)
        EXPECT_EQ(order[i], i % 2 == 0 ? 1 : 2);
    EXPECT_GE(kernel.ctxSwitches(), 5u);
}

TEST_F(LinuxTest, TmpfsDataRoundTrip)
{
    auto *p = kernel.createProcess("app");
    bool ok = false;
    kernel.start(p, sim::invoke([&]() -> sim::Task {
        int fd = -1;
        co_await kernel.sysOpen(*p, "/f", kOWrite | kOCreate, &fd);
        EXPECT_GE(fd, 0);
        std::size_t w = 0;
        co_await kernel.sysWrite(*p, fd, bytes("linux tmpfs data"),
                                 &w);
        EXPECT_EQ(w, 16u);
        co_await kernel.sysClose(*p, fd);

        co_await kernel.sysOpen(*p, "/f", kORead, &fd);
        Bytes back;
        co_await kernel.sysRead(*p, fd, 100, &back);
        EXPECT_EQ(std::string(back.begin(), back.end()),
                  "linux tmpfs data");
        co_await kernel.sysRead(*p, fd, 100, &back);
        EXPECT_TRUE(back.empty());
        co_await kernel.sysClose(*p, fd);
        ok = true;
        co_await kernel.sysExit(*p);
    }));
    eq.run();
    EXPECT_TRUE(ok);
}

TEST_F(LinuxTest, WritesSlowerThanReads)
{
    auto *p = kernel.createProcess("app");
    sim::Tick wtime = 0, rtime = 0;
    kernel.start(p, sim::invoke([&]() -> sim::Task {
        constexpr int kBlocks = 64;
        Bytes buf(4096, 0xab);
        int fd = -1;
        co_await kernel.sysOpen(*p, "/f", kOWrite | kOCreate, &fd);
        sim::Tick t0 = eq.now();
        for (int i = 0; i < kBlocks; i++) {
            std::size_t w;
            co_await kernel.sysWrite(*p, fd, buf, &w);
        }
        wtime = eq.now() - t0;
        co_await kernel.sysClose(*p, fd);

        co_await kernel.sysOpen(*p, "/f", kORead, &fd);
        t0 = eq.now();
        for (int i = 0; i < kBlocks; i++) {
            Bytes b;
            co_await kernel.sysRead(*p, fd, 4096, &b);
        }
        rtime = eq.now() - t0;
        co_await kernel.sysClose(*p, fd);
        co_await kernel.sysExit(*p);
    }));
    eq.run();
    // Fresh pages must be allocated and cleared on the write path.
    EXPECT_GT(wtime, rtime);
    EXPECT_LT(wtime, rtime * 5);
}

TEST_F(LinuxTest, BigAppThrashesOnSyscalls)
{
    // An app whose footprint plus the kernel file path exceed L1I
    // pays refills on every call; a tiny app does not.
    auto measure = [](std::size_t footprint) {
        sim::EventQueue eq;
        tile::Core core(eq, "c", tile::CoreModel::boom(), 0);
        LinuxKernel kernel(eq, "k", core);
        auto *p = kernel.createProcess("app", footprint);
        sim::Tick t0 = 0, t1 = 0;
        kernel.start(p, sim::invoke([&kernel, p, &t0, &t1,
                                     &eq]() -> sim::Task {
            int fd = -1;
            co_await kernel.sysOpen(*p, "/f",
                                    kOWrite | kOCreate, &fd);
            std::size_t w;
            co_await kernel.sysWrite(*p, fd, Bytes(4096, 1), &w);
            co_await kernel.sysLseek(*p, fd, 0);
            // Warm up.
            for (int i = 0; i < 4; i++) {
                Bytes b;
                co_await kernel.sysLseek(*p, fd, 0);
                co_await kernel.sysRead(*p, fd, 4096, &b);
                // App "works" on its footprint between calls: the
                // cache model sees this as touching its region.
                co_await p->thread().compute(1000);
            }
            t0 = eq.now();
            for (int i = 0; i < 50; i++) {
                Bytes b;
                co_await kernel.sysLseek(*p, fd, 0);
                co_await kernel.sysRead(*p, fd, 4096, &b);
            }
            t1 = eq.now();
            co_await kernel.sysExit(*p);
        }));
        eq.run();
        return t1 - t0;
    };
    sim::Tick small = measure(2 * 1024);
    sim::Tick big = measure(14 * 1024);
    EXPECT_GT(big, small + small / 10);
}

TEST_F(LinuxTest, RusageSplitsUserAndSystem)
{
    auto *p = kernel.createProcess("app");
    kernel.start(p, sim::invoke([&]() -> sim::Task {
        co_await p->thread().compute(100'000);
        for (int i = 0; i < 50; i++)
            co_await kernel.sysNoop(*p);
        co_await kernel.sysExit(*p);
    }));
    eq.run();
    EXPECT_GE(p->userTicks(), 100'000u * 12'500);
    EXPECT_GT(p->systemTicks(), 0u);
    EXPECT_GT(kernel.syscalls(), 50u);
}

TEST(LinuxNetTest, UdpEchoThroughNic)
{
    sim::EventQueue eq;
    tile::Core core(eq, "c", tile::CoreModel::boom(), 0);
    services::Nic nic(eq, "nic");
    services::ExtHost host(eq, "host", services::ExtHost::Mode::Echo);
    nic.connect(&host);
    host.connect(&nic);
    LinuxKernel kernel(eq, "k", core, &nic);

    auto *p = kernel.createProcess("app");
    bool ok = false;
    sim::Tick t0 = 0, t1 = 0;
    kernel.start(p, sim::invoke([&]() -> sim::Task {
        int s = -1;
        co_await kernel.sysSocket(*p, 7000, &s);
        EXPECT_GE(s, 0);
        t0 = eq.now();
        co_await kernel.sysSendTo(*p, s, 0x0a000001, 9, bytes("x"));
        Bytes back;
        co_await kernel.sysRecvFrom(*p, s, &back);
        t1 = eq.now();
        EXPECT_EQ(back.size(), 1u);
        ok = true;
        co_await kernel.sysExit(*p);
    }));
    eq.run();
    EXPECT_TRUE(ok);
    // Dominated by wire + host turnaround.
    EXPECT_GT(t1 - t0, 100 * sim::kTicksPerUs);
    EXPECT_LT(t1 - t0, 1500 * sim::kTicksPerUs);
}

TEST(LinuxNetTest, BlockingRecvYieldsCoreToOtherProcess)
{
    sim::EventQueue eq;
    tile::Core core(eq, "c", tile::CoreModel::boom(), 0);
    services::Nic nic(eq, "nic");
    services::ExtHost host(eq, "host", services::ExtHost::Mode::Echo);
    nic.connect(&host);
    host.connect(&nic);
    LinuxKernel kernel(eq, "k", core, &nic);

    auto *rx = kernel.createProcess("rx");
    auto *worker = kernel.createProcess("worker");
    int work = 0;
    bool got = false;
    kernel.start(rx, sim::invoke([&]() -> sim::Task {
        int s = -1;
        co_await kernel.sysSocket(*rx, 7000, &s);
        co_await kernel.sysSendTo(*rx, s, 0x0a000001, 9, bytes("x"));
        Bytes back;
        co_await kernel.sysRecvFrom(*rx, s, &back); // blocks ~300us
        got = true;
        co_await kernel.sysExit(*rx);
    }));
    kernel.start(worker, sim::invoke([&]() -> sim::Task {
        for (int i = 0; i < 20; i++) {
            co_await worker->thread().compute(1000);
            work++;
        }
        co_await kernel.sysExit(*worker);
    }));
    eq.run();
    EXPECT_TRUE(got);
    EXPECT_EQ(work, 20); // worker ran while rx blocked
}

} // namespace
} // namespace m3v::linuxref
