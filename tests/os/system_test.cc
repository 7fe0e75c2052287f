/**
 * @file
 * Full-system integration tests: apps on the assembled M3v platform
 * exchanging messages, calling the controller (system calls), using
 * memory gates against DRAM tiles, and the FS-style capability flow
 * (derive + activate-for + revoke).
 */

#include <gtest/gtest.h>

#include <string>

#include "os/system.h"

namespace m3v::os {
namespace {

using dtu::Error;

Bytes
bytes(const std::string &s)
{
    return Bytes(s.begin(), s.end());
}

std::string
str(const Bytes &b)
{
    return std::string(b.begin(), b.end());
}

class SystemTest : public ::testing::Test
{
  protected:
    SystemTest() : sys(eq) {}

    sim::EventQueue eq;
    System sys;
};

TEST_F(SystemTest, BuildsPlatform)
{
    EXPECT_EQ(sys.ctrlTile(), 8u);
    EXPECT_EQ(sys.memTileId(0), 9u);
    EXPECT_EQ(sys.memTileId(1), 10u);
    eq.run(); // controller parks waiting for syscalls
}

TEST(SystemMeshTest, DefaultPlatformKeepsPaperMesh)
{
    // The paper-sized config fits the 2x2 star-mesh; mesh growth
    // must leave it untouched.
    sim::EventQueue eq;
    System sys(eq);
    EXPECT_EQ(sys.params().noc.meshCols, 2u);
    EXPECT_EQ(sys.params().noc.meshRows, 2u);
}

TEST(SystemMeshTest, AutoMeshGrowsForLargePlatforms)
{
    // 80 user tiles + controller + 2 memory tiles = 83 > the 2x2
    // capacity: the fabric must grow to forTiles(83) = 5x5 while every
    // other fabric parameter stays put, and boot must still succeed
    // with every tile routed.
    noc::NocParams tuned;
    tuned.portQueuePackets = 8;
    tuned.pipelineCycles = 5;
    tuned.headerBytes = 24;
    tuned.linkBytesPerCycle = 32;
    for (const noc::NocParams &given : {noc::NocParams{}, tuned}) {
        sim::EventQueue eq;
        SystemParams p;
        p.userTiles = 80;
        // Small PMP windows: 80 tiles must fit the default DRAM.
        p.perTilePmp = 64 << 10;
        p.noc = given;
        System sys(eq, p);
        const noc::NocParams &got = sys.params().noc;
        EXPECT_EQ(got.meshCols, 5u);
        EXPECT_EQ(got.meshRows, 5u);
        EXPECT_EQ(got.freqHz, given.freqHz);
        EXPECT_EQ(got.portQueuePackets, given.portQueuePackets);
        EXPECT_EQ(got.pipelineCycles, given.pipelineCycles);
        EXPECT_EQ(got.headerBytes, given.headerBytes);
        EXPECT_EQ(got.linkBytesPerCycle, given.linkBytesPerCycle);
        EXPECT_EQ(got.maxTilesPerRouter, given.maxTilesPerRouter);
        EXPECT_EQ(sys.fabric().validate(), noc::NocConfigError::None);
        // Opposite corners of the grown mesh are several hops apart.
        EXPECT_GT(sys.fabric().hopCount(sys.userTile(0),
                                        sys.memTileId(1)),
                  0u);
        eq.run();
    }
}

TEST_F(SystemTest, EchoRpcBetweenApps)
{
    auto *client = sys.createApp(0, "client");
    auto *server = sys.createApp(1, "server");

    auto srv_rep = sys.makeRgate(server);
    auto cli_sg = sys.makeSgate(client, server, srv_rep.ep, 0x42, 4);
    auto cli_rep = sys.makeRgate(client);

    int served = 0;
    sys.start(server, [&, srv_rep](MuxEnv &env) -> sim::Task {
        for (;;) {
            int slot = -1;
            co_await env.recvOn(srv_rep.ep, &slot);
            Bytes req = env.msgAt(srv_rep.ep, slot).payload;
            served++;
            Error err = Error::Aborted;
            co_await env.reply(srv_rep.ep, slot,
                               bytes("re:" + str(req)), &err);
            EXPECT_EQ(err, Error::None);
        }
    });

    std::string got;
    sys.start(client, [&, cli_sg, cli_rep](MuxEnv &env) -> sim::Task {
        Bytes resp;
        Error err = Error::Aborted;
        co_await env.call(cli_sg.ep, cli_rep.ep, bytes("hello"),
                          &resp, &err);
        EXPECT_EQ(err, Error::None);
        got = str(resp);
    });

    eq.run();
    EXPECT_EQ(got, "re:hello");
    EXPECT_EQ(served, 1);
}

TEST_F(SystemTest, NoopSyscallRoundTrip)
{
    auto *app = sys.createApp(0, "app");
    bool done = false;
    sim::Tick t0 = 0, t1 = 0;
    sys.start(app, [&](MuxEnv &env) -> sim::Task {
        t0 = eq.now();
        SyscallResp resp;
        co_await env.syscall(SyscallReq{}, &resp);
        EXPECT_EQ(resp.err, Error::None);
        t1 = eq.now();
        done = true;
    });
    eq.run();
    ASSERT_TRUE(done);
    EXPECT_EQ(sys.syscalls(), 1u);
    // A syscall is a cross-tile RPC: a handful of microseconds on the
    // FPGA-like platform.
    EXPECT_GT(t1 - t0, sim::kTicksPerUs);
    EXPECT_LT(t1 - t0, 100 * sim::kTicksPerUs);
}

TEST_F(SystemTest, MemGateReadWriteThroughDram)
{
    auto *app = sys.createApp(0, "app");
    auto mg = sys.makeMgate(app, 64 * 1024, dtu::kPermRW);
    bool done = false;
    sys.start(app, [&, mg](MuxEnv &env) -> sim::Task {
        Error err = Error::Aborted;
        co_await env.writeMem(mg.ep, 512, bytes("file contents"),
                              &err);
        EXPECT_EQ(err, Error::None);
        Bytes back;
        co_await env.readMem(mg.ep, 512, 13, &back, &err);
        EXPECT_EQ(err, Error::None);
        EXPECT_EQ(str(back), "file contents");
        done = true;
    });
    eq.run();
    EXPECT_TRUE(done);
}

TEST_F(SystemTest, DeriveActivateRevokeFlow)
{
    // The m3fs extent flow: a server owns storage memory, derives a
    // sub-range capability, activates it into the client's EP; the
    // client accesses the extent directly; the server later revokes.
    auto *server = sys.createApp(0, "fs");
    auto *client = sys.createApp(1, "app");
    auto storage = sys.makeMgate(server, 1 << 20, dtu::kPermRW);
    CapSel client_act_cap = sys.grantActCap(server, client);
    dtu::EpId client_mep = sys.allocEp(1);

    // Client-side notification channel so the test can sequence.
    auto cli_rep = sys.makeRgate(client);
    auto srv_sg = sys.makeSgate(server, client, cli_rep.ep, 1, 2);

    bool server_done = false, client_done = false;
    sys.start(server, [&, storage](MuxEnv &env) -> sim::Task {
        // Derive a 4 KiB extent at offset 64 KiB, read-write.
        SyscallResp resp;
        SyscallReq req;
        req.op = SyscallReq::Op::DeriveMem;
        req.arg0 = storage.sel;
        req.arg1 = 64 * 1024;
        req.arg2 = 4096;
        req.arg3 = dtu::kPermRW;
        co_await env.syscall(req, &resp);
        EXPECT_EQ(resp.err, Error::None);
        CapSel extent = static_cast<CapSel>(resp.val);

        // Activate it into the client's endpoint.
        req = SyscallReq{};
        req.op = SyscallReq::Op::ActivateFor;
        req.arg0 = client_act_cap;
        req.arg1 = client_mep;
        req.arg2 = extent;
        co_await env.syscall(req, &resp);
        EXPECT_EQ(resp.err, Error::None);

        // Tell the client the extent is ready; wait for its answer.
        Error err = Error::Aborted;
        co_await env.send(srv_sg.ep, bytes("go"), dtu::kInvalidEp,
                          &err);
        EXPECT_EQ(err, Error::None);

        // Give the client time to use the extent, then revoke it.
        co_await env.thread().compute(400'000);
        req = SyscallReq{};
        req.op = SyscallReq::Op::Revoke;
        req.arg0 = extent;
        co_await env.syscall(req, &resp);
        EXPECT_EQ(resp.err, Error::None);
        EXPECT_EQ(resp.val, 1u);
        server_done = true;
    });

    sys.start(client, [&, cli_rep](MuxEnv &env) -> sim::Task {
        int slot = -1;
        co_await env.recvOn(cli_rep.ep, &slot);
        co_await env.ackMsg(cli_rep.ep, slot);

        // Direct access to the granted extent (no server involved).
        Error err = Error::Aborted;
        co_await env.writeMem(client_mep, 0, bytes("extent data"),
                              &err);
        EXPECT_EQ(err, Error::None);
        Bytes back;
        co_await env.readMem(client_mep, 0, 11, &back, &err);
        EXPECT_EQ(err, Error::None);
        EXPECT_EQ(str(back), "extent data");

        // After revocation the endpoint is invalid.
        co_await env.thread().compute(800'000);
        co_await env.readMem(client_mep, 0, 11, &back, &err);
        EXPECT_EQ(err, Error::InvalidEp);
        client_done = true;
    });

    eq.run();
    EXPECT_TRUE(server_done);
    EXPECT_TRUE(client_done);
}

TEST_F(SystemTest, SharedTileAppsMultiplex)
{
    // Two compute-heavy apps on one tile finish in about twice the
    // time one alone takes.
    auto *a = sys.createApp(0, "a");
    auto *b = sys.createApp(0, "b");
    sim::Tick end_a = 0, end_b = 0;
    auto body = [&](sim::Tick *end) {
        return [end, this](MuxEnv &env) -> sim::Task {
            co_await env.thread().compute(2'000'000);
            *end = eq.now();
        };
    };
    sys.start(a, body(&end_a));
    sys.start(b, body(&end_b));
    eq.run();
    // 2M cycles @ 80 MHz = 25 ms each; sharing means both finish
    // around 50 ms.
    sim::Tick last = std::max(end_a, end_b);
    EXPECT_GT(last, 48 * sim::kTicksPerMs);
    EXPECT_LT(last, 56 * sim::kTicksPerMs);
}

TEST_F(SystemTest, ManyAppsManyTilesAllComplete)
{
    int done = 0;
    for (unsigned t = 0; t < 8; t++) {
        for (int k = 0; k < 3; k++) {
            auto *app = sys.createApp(
                t, "app" + std::to_string(t) + "_" +
                       std::to_string(k));
            sys.start(app, [&](MuxEnv &env) -> sim::Task {
                co_await env.thread().compute(50'000);
                co_await env.yield();
                co_await env.thread().compute(50'000);
                done++;
            });
        }
    }
    eq.run();
    EXPECT_EQ(done, 24);
}

} // namespace
} // namespace m3v::os
