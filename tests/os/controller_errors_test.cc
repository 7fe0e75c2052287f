/**
 * @file
 * Error-path tests for the controller's system calls and some
 * remaining simulator primitives (UniqueFunction, deviceMessage).
 */

#include <gtest/gtest.h>

#include <memory>

#include "os/system.h"
#include "sim/unique_function.h"

namespace m3v {
namespace {

using dtu::Error;
using os::Bytes;
using os::SyscallReq;
using os::SyscallResp;

TEST(UniqueFunction, MoveOnlyCaptureAndCall)
{
    auto payload = std::make_unique<int>(41);
    sim::UniqueFunction<int()> fn =
        [p = std::move(payload)]() { return *p + 1; };
    EXPECT_TRUE(static_cast<bool>(fn));
    EXPECT_EQ(fn(), 42);

    sim::UniqueFunction<int()> moved = std::move(fn);
    EXPECT_EQ(moved(), 42);

    sim::UniqueFunction<int()> empty;
    EXPECT_FALSE(static_cast<bool>(empty));
}

TEST(DeviceMessage, StoresAndDropsOnFullRing)
{
    sim::EventQueue eq;
    noc::Noc noc(eq, noc::NocParams{});
    dtu::Dtu d(eq, "d", noc, 0, 100'000'000);
    noc.finalize();
    d.configEp(6, dtu::Endpoint::makeRecv(1, 64, 2));

    EXPECT_TRUE(d.deviceMessage(6, Bytes(8, 1)));
    EXPECT_TRUE(d.deviceMessage(6, Bytes(8, 2)));
    // Ring full: the device drops the frame.
    EXPECT_FALSE(d.deviceMessage(6, Bytes(8, 3)));
    EXPECT_EQ(d.unread(1, 6), 2u);
    // Oversized frames are also rejected.
    EXPECT_FALSE(d.deviceMessage(6, Bytes(100, 4)));

    int slot = d.fetch(1, 6);
    ASSERT_GE(slot, 0);
    d.ack(1, 6, slot);
    eq.run();
    EXPECT_TRUE(d.deviceMessage(6, Bytes(8, 5)));
}

class SyscallErrorTest : public ::testing::Test
{
  protected:
    SyscallErrorTest() : sys(eq)
    {
        app = sys.createApp(0, "app");
    }

    void
    run(std::function<sim::Task(os::MuxEnv &)> body)
    {
        sys.start(app, std::move(body));
        eq.run();
    }

    sim::EventQueue eq;
    os::System sys;
    os::System::App *app = nullptr;
};

TEST_F(SyscallErrorTest, DeriveFromBogusSelectorFails)
{
    bool done = false;
    run([&](os::MuxEnv &env) -> sim::Task {
        SyscallReq req;
        SyscallResp resp;
        req.op = SyscallReq::Op::DeriveMem;
        req.arg0 = 12345; // no such capability
        req.arg1 = 0;
        req.arg2 = 4096;
        req.arg3 = dtu::kPermR;
        co_await env.syscall(req, &resp);
        EXPECT_NE(resp.err, Error::None);
        done = true;
    });
    EXPECT_TRUE(done);
}

TEST_F(SyscallErrorTest, DeriveBeyondParentBoundsFails)
{
    auto mg = sys.makeMgate(app, 8192, dtu::kPermR);
    bool done = false;
    run([&, mg](os::MuxEnv &env) -> sim::Task {
        SyscallReq req;
        SyscallResp resp;
        req.op = SyscallReq::Op::DeriveMem;
        req.arg0 = mg.sel;
        req.arg1 = 4096;
        req.arg2 = 8192; // off + size > parent
        req.arg3 = dtu::kPermR;
        co_await env.syscall(req, &resp);
        EXPECT_EQ(resp.err, Error::OutOfBounds);

        // Widening permissions is also refused (parent is R-only).
        req.arg1 = 0;
        req.arg2 = 4096;
        req.arg3 = dtu::kPermRW;
        co_await env.syscall(req, &resp);
        EXPECT_EQ(resp.err, Error::OutOfBounds);
        done = true;
    });
    EXPECT_TRUE(done);
}

TEST_F(SyscallErrorTest, DeriveWrappedOffsetFails)
{
    // off + size wraps to 0: the child would start one page below the
    // parent gate.
    auto mg = sys.makeMgate(app, 8192, dtu::kPermRW);
    bool done = false;
    run([&, mg](os::MuxEnv &env) -> sim::Task {
        SyscallReq req;
        SyscallResp resp;
        req.op = SyscallReq::Op::DeriveMem;
        req.arg0 = mg.sel;
        req.arg1 = ~std::uint64_t{0} - 4095; // 2^64 - 4096
        req.arg2 = 4096;
        req.arg3 = dtu::kPermR;
        co_await env.syscall(req, &resp);
        EXPECT_EQ(resp.err, Error::OutOfBounds);
        done = true;
    });
    EXPECT_TRUE(done);
}

TEST_F(SyscallErrorTest, ActivateForWithoutActivityCapFails)
{
    auto mg = sys.makeMgate(app, 4096, dtu::kPermR);
    bool done = false;
    run([&, mg](os::MuxEnv &env) -> sim::Task {
        SyscallReq req;
        SyscallResp resp;
        req.op = SyscallReq::Op::ActivateFor;
        req.arg0 = 999; // not an activity capability
        req.arg1 = 30;
        req.arg2 = mg.sel;
        co_await env.syscall(req, &resp);
        EXPECT_NE(resp.err, Error::None);
        done = true;
    });
    EXPECT_TRUE(done);
}

TEST_F(SyscallErrorTest, RevokeOfUnknownSelectorRemovesNothing)
{
    bool done = false;
    run([&](os::MuxEnv &env) -> sim::Task {
        SyscallReq req;
        SyscallResp resp;
        req.op = SyscallReq::Op::Revoke;
        req.arg0 = 777;
        co_await env.syscall(req, &resp);
        EXPECT_EQ(resp.err, Error::None);
        EXPECT_EQ(resp.val, 0u); // nothing revoked
        done = true;
    });
    EXPECT_TRUE(done);
}

TEST_F(SyscallErrorTest, RevokedEndpointFailsClosedOnUse)
{
    auto mg = sys.makeMgate(app, 8192, dtu::kPermRW);
    bool done = false;
    run([&, mg](os::MuxEnv &env) -> sim::Task {
        // Use it once, revoke the subtree root, then use it again.
        dtu::Error err = Error::None;
        co_await env.writeMem(mg.ep, 0, Bytes(64, 1), &err);
        EXPECT_EQ(err, Error::None);

        SyscallReq req;
        SyscallResp resp;
        req.op = SyscallReq::Op::Revoke;
        req.arg0 = mg.sel;
        co_await env.syscall(req, &resp);
        EXPECT_EQ(resp.err, Error::None);

        co_await env.writeMem(mg.ep, 0, Bytes(64, 2), &err);
        EXPECT_EQ(err, Error::InvalidEp);
        done = true;
    });
    EXPECT_TRUE(done);
}

} // namespace
} // namespace m3v
