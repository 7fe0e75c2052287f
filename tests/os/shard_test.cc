/**
 * @file
 * Sharded-controller tests (DESIGN.md section 4i): per-quadrant
 * controllers with partitioned capability tables, the cross-shard
 * delegate/obtain/revoke protocol, two-phase revocation racing
 * in-flight operations, crash reaping across shards, and the
 * conservation laws of registerControllerInvariants().
 */

#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "os/system.h"

namespace m3v::os {
namespace {

using dtu::Error;

/** 8 user tiles / 4 shards: quadrants of two tiles each. */
SystemParams
shardedParams(unsigned shards = 4)
{
    SystemParams p;
    p.ctrlShards = shards;
    return p;
}

std::uint64_t
u64At(const Bytes &b)
{
    std::uint64_t v = 0;
    std::memcpy(&v, b.data(), std::min<std::size_t>(8, b.size()));
    return v;
}

TEST(ShardMapTest, AutoShardCount)
{
    EXPECT_EQ(autoCtrlShards(8), 1u);
    EXPECT_EQ(autoCtrlShards(63), 1u);
    EXPECT_EQ(autoCtrlShards(64), 4u);
    EXPECT_EQ(autoCtrlShards(256), 8u);
    EXPECT_EQ(autoCtrlShards(1024), 16u);
}

TEST(ShardMapTest, QuadrantPartition)
{
    ShardMap m{4, 8};
    EXPECT_EQ(m.shardOfTile(0), 0u);
    EXPECT_EQ(m.shardOfTile(1), 0u);
    EXPECT_EQ(m.shardOfTile(2), 1u);
    EXPECT_EQ(m.shardOfTile(6), 3u);
    EXPECT_EQ(m.shardOfTile(7), 3u);
    EXPECT_EQ(m.quadrantBegin(0), 0u);
    EXPECT_EQ(m.quadrantEnd(0), 2u);
    EXPECT_EQ(m.quadrantBegin(3), 6u);
    EXPECT_EQ(m.quadrantEnd(3), 8u);
    // Non-user tiles (controller, memory) belong to shard 0.
    EXPECT_EQ(m.shardOfTile(9), 0u);
}

TEST(ShardMapTest, PaperConfigKeepsSingleController)
{
    sim::EventQueue eq;
    System sys(eq);
    EXPECT_EQ(sys.ctrlShards(), 1u);
    eq.run();
}

TEST(ShardMapTest, ShardedTopology)
{
    sim::EventQueue eq;
    System sys(eq, shardedParams(4));
    EXPECT_EQ(sys.ctrlShards(), 4u);
    // Extra controller tiles follow the memory tiles, so the other
    // tile ids do not depend on the shard count.
    EXPECT_EQ(sys.ctrlTileOf(0), sys.ctrlTile());
    EXPECT_EQ(sys.memTileId(0), 9u);
    EXPECT_EQ(sys.memTileId(1), 10u);
    EXPECT_EQ(sys.ctrlTileOf(1), 11u);
    EXPECT_EQ(sys.ctrlTileOf(3), 13u);
    EXPECT_EQ(&sys.controllerOf(0), &sys.controller());
    EXPECT_EQ(sys.controllerOf(3).shard(), 3u);
    EXPECT_EQ(sys.capsOf(2).shard(), 2u);
    eq.run();
}

class ShardSystemTest : public ::testing::Test
{
  protected:
    ShardSystemTest() : sys(eq, shardedParams(4))
    {
        registerControllerInvariants(inv, sys);
    }

    /** Drain the queue, then assert the conservation laws. */
    void
    runAndCheck()
    {
        eq.run();
        inv.runAll(true);
        EXPECT_TRUE(inv.ok()) << inv.report();
    }

    sim::EventQueue eq;
    System sys;
    sim::Invariants inv;
};

TEST_F(ShardSystemTest, CrossShardDelegateAndUse)
{
    // A (tile 0, shard 0) owns DRAM storage and delegates a cap to B
    // (tile 7, shard 3). The copy lands in B's shard-3 table; B
    // activates it locally and accesses the memory directly.
    auto *a = sys.createApp(0, "a");
    auto *b = sys.createApp(7, "b");
    auto storage = sys.makeMgate(a, 1 << 20, dtu::kPermRW);
    CapSel b_act = sys.grantActCap(a, b);
    auto b_rep = sys.makeRgate(b);
    auto a_sg = sys.makeSgate(a, b, b_rep.ep, 1, 2);
    dtu::EpId b_mep = sys.allocEp(7);

    bool a_done = false, b_done = false;
    sys.start(a, [&, storage, b_act, a_sg](MuxEnv &env) -> sim::Task {
        SyscallReq req;
        req.op = SyscallReq::Op::Delegate;
        req.arg0 = b_act;
        req.arg1 = storage.sel;
        SyscallResp resp;
        co_await env.syscall(req, &resp);
        EXPECT_EQ(resp.err, Error::None);
        // The new selector was minted by shard 3.
        EXPECT_EQ(selShard(static_cast<CapSel>(resp.val)), 3u);
        Error err = Error::Aborted;
        co_await env.send(a_sg.ep, podBytes(resp.val),
                          dtu::kInvalidEp, &err);
        EXPECT_EQ(err, Error::None);
        a_done = true;
    });
    sys.start(b, [&, b_rep, b_mep](MuxEnv &env) -> sim::Task {
        int slot = -1;
        co_await env.recvOn(b_rep.ep, &slot);
        auto sel =
            static_cast<CapSel>(u64At(env.msgAt(b_rep.ep, slot)
                                          .payload));
        co_await env.ackMsg(b_rep.ep, slot);

        SyscallReq req;
        req.op = SyscallReq::Op::Activate;
        req.arg0 = sel;
        req.arg1 = b_mep;
        SyscallResp resp;
        co_await env.syscall(req, &resp);
        EXPECT_EQ(resp.err, Error::None);

        Error err = Error::Aborted;
        Bytes data{'x', 'y', 'z'};
        co_await env.writeMem(b_mep, 64, data, &err);
        EXPECT_EQ(err, Error::None);
        Bytes back;
        co_await env.readMem(b_mep, 64, 3, &back, &err);
        EXPECT_EQ(err, Error::None);
        EXPECT_EQ(back, data);
        b_done = true;
    });

    runAndCheck();
    EXPECT_TRUE(a_done);
    EXPECT_TRUE(b_done);
    EXPECT_GE(sys.controllerOf(0).xshardSent(), 1u);
    EXPECT_GE(sys.controllerOf(0).xshardAcked(), 1u);
    EXPECT_GE(sys.controllerOf(3).xshardHandled(), 1u);
    EXPECT_EQ(sys.controllerOf(0).xshardTimeouts(), 0u);
}

TEST_F(ShardSystemTest, CrossShardObtain)
{
    // B (shard 3) pulls a copy of A's cap out of A's shard-0 table.
    auto *a = sys.createApp(0, "a");
    auto *b = sys.createApp(7, "b");
    auto storage = sys.makeMgate(a, 64 << 10, dtu::kPermRW);
    CapSel a_act = sys.grantActCap(b, a);
    dtu::EpId b_mep = sys.allocEp(7);

    bool b_done = false;
    sys.start(b, [&, a_act, storage, b_mep](MuxEnv &env)
                  -> sim::Task {
        SyscallReq req;
        req.op = SyscallReq::Op::Obtain;
        req.arg0 = a_act;
        req.arg1 = storage.sel;
        SyscallResp resp;
        co_await env.syscall(req, &resp);
        EXPECT_EQ(resp.err, Error::None);
        auto sel = static_cast<CapSel>(resp.val);
        EXPECT_EQ(selShard(sel), 3u);

        req = SyscallReq{};
        req.op = SyscallReq::Op::Activate;
        req.arg0 = sel;
        req.arg1 = b_mep;
        co_await env.syscall(req, &resp);
        EXPECT_EQ(resp.err, Error::None);

        Error err = Error::Aborted;
        Bytes data{'o', 'b', 't'};
        co_await env.writeMem(b_mep, 0, data, &err);
        EXPECT_EQ(err, Error::None);
        b_done = true;
    });

    runAndCheck();
    EXPECT_TRUE(b_done);
    // Obtaining a nonexistent selector fails typed, not fatally: run
    // a second system call from a fresh app to check.
}

TEST_F(ShardSystemTest, CrossShardRevokeInvalidatesRemoteUse)
{
    // A delegates to B, B activates, A revokes: the revoke crosses
    // shards, reaps B's copy, and invalidates B's endpoint.
    auto *a = sys.createApp(0, "a");
    auto *b = sys.createApp(7, "b");
    auto storage = sys.makeMgate(a, 64 << 10, dtu::kPermRW);
    CapSel b_act = sys.grantActCap(a, b);
    auto b_rep = sys.makeRgate(b);
    auto a_sg = sys.makeSgate(a, b, b_rep.ep, 1, 2);
    dtu::EpId b_mep = sys.allocEp(7);

    bool a_done = false, b_done = false;
    sys.start(a, [&, storage, b_act, a_sg](MuxEnv &env) -> sim::Task {
        SyscallReq req;
        req.op = SyscallReq::Op::Delegate;
        req.arg0 = b_act;
        req.arg1 = storage.sel;
        SyscallResp resp;
        co_await env.syscall(req, &resp);
        EXPECT_EQ(resp.err, Error::None);
        Error err = Error::Aborted;
        co_await env.send(a_sg.ep, podBytes(resp.val),
                          dtu::kInvalidEp, &err);
        EXPECT_EQ(err, Error::None);

        // Give B time to activate and use the cap, then revoke the
        // whole subtree (A's cap + B's remote copy).
        co_await env.thread().compute(2'000'000);
        req = SyscallReq{};
        req.op = SyscallReq::Op::Revoke;
        req.arg0 = storage.sel;
        co_await env.syscall(req, &resp);
        EXPECT_EQ(resp.err, Error::None);
        EXPECT_EQ(resp.val, 2u);
        a_done = true;
    });
    sys.start(b, [&, b_rep, b_mep](MuxEnv &env) -> sim::Task {
        int slot = -1;
        co_await env.recvOn(b_rep.ep, &slot);
        auto sel =
            static_cast<CapSel>(u64At(env.msgAt(b_rep.ep, slot)
                                          .payload));
        co_await env.ackMsg(b_rep.ep, slot);

        SyscallReq req;
        req.op = SyscallReq::Op::Activate;
        req.arg0 = sel;
        req.arg1 = b_mep;
        SyscallResp resp;
        co_await env.syscall(req, &resp);
        EXPECT_EQ(resp.err, Error::None);
        Error err = Error::Aborted;
        Bytes data{'h', 'i'};
        co_await env.writeMem(b_mep, 0, data, &err);
        EXPECT_EQ(err, Error::None);

        // After A's revoke lands, the endpoint is dead.
        co_await env.thread().compute(12'000'000);
        Bytes back;
        co_await env.readMem(b_mep, 0, 2, &back, &err);
        EXPECT_EQ(err, Error::InvalidEp);
        b_done = true;
    });

    runAndCheck();
    EXPECT_TRUE(a_done);
    EXPECT_TRUE(b_done);
}

TEST_F(ShardSystemTest, DoubleRevokeIdempotent)
{
    // Revoking an already-revoked subtree is a typed no-op on both
    // shards (retransmissions of revoke requests must not double-free).
    auto *a = sys.createApp(0, "a");
    auto *b = sys.createApp(7, "b");
    auto storage = sys.makeMgate(a, 64 << 10, dtu::kPermRW);
    CapSel b_act = sys.grantActCap(a, b);

    bool a_done = false;
    sys.start(a, [&, storage, b_act](MuxEnv &env) -> sim::Task {
        SyscallReq req;
        req.op = SyscallReq::Op::Delegate;
        req.arg0 = b_act;
        req.arg1 = storage.sel;
        SyscallResp resp;
        co_await env.syscall(req, &resp);
        EXPECT_EQ(resp.err, Error::None);

        req = SyscallReq{};
        req.op = SyscallReq::Op::Revoke;
        req.arg0 = storage.sel;
        co_await env.syscall(req, &resp);
        EXPECT_EQ(resp.err, Error::None);
        EXPECT_EQ(resp.val, 2u);

        co_await env.syscall(req, &resp);
        EXPECT_EQ(resp.err, Error::None);
        EXPECT_EQ(resp.val, 0u);
        a_done = true;
    });
    sys.start(b, [&](MuxEnv &env) -> sim::Task {
        co_await env.thread().compute(1);
    });

    runAndCheck();
    EXPECT_TRUE(a_done);
}

TEST_F(ShardSystemTest, CrashedHolderReapDropsShareRecords)
{
    // A delegates to B, then B's tile watchdog declares B crashed.
    // B's quadrant controller reaps its table; the DropShare one-way
    // must clear the share record on A's side of the edge.
    auto *a = sys.createApp(0, "a");
    auto *b = sys.createApp(7, "b");
    auto storage = sys.makeMgate(a, 64 << 10, dtu::kPermRW);
    CapSel b_act = sys.grantActCap(a, b);
    dtu::ActId b_id = b->act->id();

    sys.start(a, [&, storage, b_act](MuxEnv &env) -> sim::Task {
        SyscallReq req;
        req.op = SyscallReq::Op::Delegate;
        req.arg0 = b_act;
        req.arg1 = storage.sel;
        SyscallResp resp;
        co_await env.syscall(req, &resp);
        EXPECT_EQ(resp.err, Error::None);
    });
    sys.start(b, [&](MuxEnv &env) -> sim::Task {
        co_await env.thread().compute(100'000'000);
    });
    // Crash B well after the delegation completed.
    eq.schedule(5 * sim::kTicksPerMs,
                [&] { sys.mux(7).crashActivity(b_id); });

    runAndCheck();
    EXPECT_EQ(sys.controllerOf(3).activitiesReaped(), 1u);
    // A's source cap survives with no dangling share record.
    Capability *src =
        sys.capsOf(0).tableOf(a->act->id()).get(storage.sel);
    ASSERT_NE(src, nullptr);
    EXPECT_TRUE(src->remoteChildren.empty());
    // B's table is gone on shard 3.
    EXPECT_FALSE(sys.capsOf(3).hasTable(b_id));
}

TEST(ShardRaceTest, RevokeRacesInFlightDelegation)
{
    // Crash the delegating activity at staggered points around its
    // cross-shard delegation: before the syscall, mid-flight (the
    // compensating revoke path), and after completion (the reap's
    // one-way revoke path). In every interleaving the peer shard must
    // end with no trace of the delegated cap and the conservation
    // laws must hold.
    for (sim::Tick us : {2u, 6u, 12u, 25u, 50u, 400u}) {
        sim::EventQueue eq;
        System sys(eq, shardedParams(4));
        sim::Invariants inv;
        registerControllerInvariants(inv, sys);

        auto *a = sys.createApp(0, "a");
        auto *b = sys.createApp(7, "b");
        auto storage = sys.makeMgate(a, 64 << 10, dtu::kPermRW);
        CapSel b_act = sys.grantActCap(a, b);
        dtu::ActId a_id = a->act->id();
        dtu::ActId b_id = b->act->id();

        sys.start(a, [&, storage, b_act](MuxEnv &env) -> sim::Task {
            SyscallReq req;
            req.op = SyscallReq::Op::Delegate;
            req.arg0 = b_act;
            req.arg1 = storage.sel;
            SyscallResp resp;
            // The crash may reset A's endpoints mid-call; a transport
            // error is an acceptable way for this coroutine to die.
            Error err = Error::None;
            co_await env.trySyscall(req, &resp, &err);
            // Linger so late crash points still find A alive (body
            // completion marks the activity dead and a dead activity
            // cannot crash).
            co_await env.thread().compute(5'000'000'000);
        });
        sys.start(b, [&](MuxEnv &env) -> sim::Task {
            co_await env.thread().compute(1'000'000);
        });
        eq.schedule(us * sim::kTicksPerUs,
                    [&] { sys.mux(0).crashActivity(a_id); });

        eq.run();
        inv.runAll(true);
        EXPECT_TRUE(inv.ok())
            << "crash at " << us << "us:\n" << inv.report();

        // The delegated copy must not survive its source's death.
        if (CapTable *bt = sys.capsOf(3).tableIfExists(b_id)) {
            bt->forEachCap([&](Capability &c) {
                EXPECT_FALSE(c.hasRemoteParent)
                    << "crash at " << us
                    << "us left an orphaned delegated cap";
            });
        }
        EXPECT_EQ(sys.controllerOf(0).activitiesReaped(), 1u)
            << "crash at " << us << "us";
    }
}

TEST_F(ShardSystemTest, CreateAndDestroyActivityAcrossShards)
{
    // The control-plane storm primitive: create a controller-side
    // activity record on a remote quadrant, delegate a cap to it,
    // then destroy it — the destroy must reap the remote table.
    auto *a = sys.createApp(0, "a");
    auto storage = sys.makeMgate(a, 64 << 10, dtu::kPermRW);

    bool done = false;
    sys.start(a, [&, storage](MuxEnv &env) -> sim::Task {
        // Create on tile 6 (shard 3).
        SyscallReq req;
        req.op = SyscallReq::Op::CreateAct;
        req.arg0 = 6;
        SyscallResp resp;
        co_await env.syscall(req, &resp);
        EXPECT_EQ(resp.err, Error::None);
        auto act_sel = static_cast<CapSel>(resp.val >> 32);
        auto id = static_cast<dtu::ActId>(resp.val & 0xffff);
        EXPECT_GE(id, kStormActBase);

        req = SyscallReq{};
        req.op = SyscallReq::Op::Delegate;
        req.arg0 = act_sel;
        req.arg1 = storage.sel;
        co_await env.syscall(req, &resp);
        EXPECT_EQ(resp.err, Error::None);
        EXPECT_EQ(selShard(static_cast<CapSel>(resp.val)), 3u);

        req = SyscallReq{};
        req.op = SyscallReq::Op::DestroyAct;
        req.arg0 = act_sel;
        co_await env.syscall(req, &resp);
        EXPECT_EQ(resp.err, Error::None);
        done = true;
    });

    runAndCheck();
    EXPECT_TRUE(done);
    EXPECT_GE(sys.controllerOf(3).activitiesReaped(), 1u);
}

} // namespace
} // namespace m3v::os
