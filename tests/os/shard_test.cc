/**
 * @file
 * Sharded-controller tests (DESIGN.md section 4i): per-quadrant
 * controllers with partitioned capability tables, the cross-shard
 * delegate/revoke protocol, two-phase revocation racing
 * in-flight operations, crash reaping across shards, and the
 * conservation laws of registerControllerInvariants().
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

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
}

TEST_F(ShardSystemTest, DelegatedSendGateKeepsMaxMessageSize)
{
    // A (tile 0, shard 0) holds a send gate to S's receive gate built
    // with a 1500-byte message limit, as the network service builds
    // its gates. A delegates it to B (tile 7, shard 3); B activates
    // its copy and sends 1000 bytes, over the default 512-byte limit.
    auto *a = sys.createApp(0, "a");
    auto *b = sys.createApp(7, "b");
    auto *srv = sys.createApp(1, "srv");
    auto s_rep = sys.makeRgate(srv, 2048, 4);
    auto a_to_s = sys.makeSgate(a, srv, s_rep.ep, 42, 1, 1500);
    CapSel b_act = sys.grantActCap(a, b);
    auto b_rep = sys.makeRgate(b);
    auto a_sg = sys.makeSgate(a, b, b_rep.ep, 1, 2);
    dtu::EpId b_sep = sys.allocEp(7);

    bool a_done = false, b_done = false, s_done = false;
    sys.start(a, [&, a_to_s, b_act, a_sg](MuxEnv &env) -> sim::Task {
        SyscallReq req;
        req.op = SyscallReq::Op::Delegate;
        req.arg0 = b_act;
        req.arg1 = a_to_s.sel;
        SyscallResp resp;
        co_await env.syscall(req, &resp);
        EXPECT_EQ(resp.err, Error::None);
        EXPECT_EQ(selShard(static_cast<CapSel>(resp.val)), 3u);
        Error err = Error::Aborted;
        co_await env.send(a_sg.ep, podBytes(resp.val),
                          dtu::kInvalidEp, &err);
        EXPECT_EQ(err, Error::None);
        a_done = true;
    });
    sys.start(b, [&, b_rep, b_sep](MuxEnv &env) -> sim::Task {
        int slot = -1;
        co_await env.recvOn(b_rep.ep, &slot);
        auto sel =
            static_cast<CapSel>(u64At(env.msgAt(b_rep.ep, slot)
                                          .payload));
        co_await env.ackMsg(b_rep.ep, slot);

        SyscallReq req;
        req.op = SyscallReq::Op::Activate;
        req.arg0 = sel;
        req.arg1 = b_sep;
        SyscallResp resp;
        co_await env.syscall(req, &resp);
        EXPECT_EQ(resp.err, Error::None);

        Error err = Error::Aborted;
        co_await env.send(b_sep, Bytes(1000, 7), dtu::kInvalidEp,
                          &err);
        EXPECT_EQ(err, Error::None);
        b_done = true;
    });
    sys.start(srv, [&, s_rep](MuxEnv &env) -> sim::Task {
        int slot = -1;
        co_await env.recvOn(s_rep.ep, &slot);
        const dtu::Message &msg = env.msgAt(s_rep.ep, slot);
        EXPECT_EQ(msg.label, 42u);
        EXPECT_EQ(msg.payload, Bytes(1000, 7));
        co_await env.ackMsg(s_rep.ep, slot);
        s_done = true;
    });

    runAndCheck();
    EXPECT_TRUE(a_done);
    EXPECT_TRUE(b_done);
    EXPECT_TRUE(s_done);
    EXPECT_GE(sys.controllerOf(3).xshardHandled(), 1u);
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
    // shards: a second revoke of the same subtree (say, one racing a
    // crash reap's one-way revoke) must not double-free.
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
        sys.capsOf(0).tableIfExists(a->act->id())->get(storage.sel);
    ASSERT_NE(src, nullptr);
    EXPECT_TRUE(src->remoteChildren.empty());
    // B's table is gone on shard 3.
    EXPECT_FALSE(sys.capsOf(3).hasTable(b_id));
}

TEST(ShardCrashTest, DelegateToReapedActivityFails)
{
    // B crashes and its home shard reaps its table. A Delegate to B
    // afterwards must fail and must not bring the table back: at one
    // shard through the controller's local branch, at four through
    // the peer side of the cross-shard protocol.
    for (unsigned shards : {1u, 4u}) {
        SCOPED_TRACE("shards=" + std::to_string(shards));
        sim::EventQueue eq;
        System sys(eq, shardedParams(shards));
        sim::Invariants inv;
        registerControllerInvariants(inv, sys);

        auto *a = sys.createApp(0, "a");
        auto *b = sys.createApp(7, "b");
        auto storage = sys.makeMgate(a, 64 << 10, dtu::kPermRW);
        CapSel b_act = sys.grantActCap(a, b);
        dtu::ActId b_id = b->act->id();
        unsigned home = sys.shardMap().shardOfTile(sys.userTile(7));

        bool a_done = false;
        Error err = Error::None;
        sys.start(a, [&, storage, b_act](MuxEnv &env) -> sim::Task {
            // Delegate well after B's crash has been reaped.
            co_await env.thread().compute(20'000'000);
            SyscallReq req;
            req.op = SyscallReq::Op::Delegate;
            req.arg0 = b_act;
            req.arg1 = storage.sel;
            SyscallResp resp;
            co_await env.syscall(req, &resp);
            err = resp.err;
            a_done = true;
        });
        sys.start(b, [&](MuxEnv &env) -> sim::Task {
            co_await env.thread().compute(100'000'000);
        });
        eq.schedule(sim::kTicksPerMs,
                    [&] { sys.mux(7).crashActivity(b_id); });

        eq.run();
        inv.runAll(true);
        EXPECT_TRUE(inv.ok()) << inv.report();
        EXPECT_EQ(sys.controllerOf(home).activitiesReaped(), 1u);
        EXPECT_TRUE(a_done);
        EXPECT_EQ(err, Error::InvalidEp);
        EXPECT_FALSE(sys.capsOf(home).hasTable(b_id));
    }
}

TEST(ShardRaceTest, RevokeRacesInFlightDelegation)
{
    // A (tile 0, shard 0) delegates a cap to B (tile 7, shard 3).
    // Crash A before the syscall, at every eighth of its measured
    // service span, and after it completes. A crash while the
    // delegation is in flight to shard 3 takes the compensating path:
    // the reap finds no cross-shard edge to cut yet, and when the
    // peer's reply finds the source cap gone, the controller revokes
    // the child the peer just made. A crash after completion cuts the
    // edge in the reap itself. In every interleaving the peer shard
    // must end with no trace of the delegated cap and the
    // conservation laws must hold.
    struct Outcome
    {
        /** Shard 0 had a peer call outstanding at the crash. */
        bool inFlight = false;
        /** One-way peer messages shard 0 sent. */
        std::uint64_t oneways = 0;
        /** One-way peer messages shard 3 handled. */
        std::uint64_t peerOneways = 0;
    };
    auto scenario = [](sim::Tick crash_at, sim::Tick *first,
                       sim::Tick *last) {
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
            if (first)
                *first = eq.now();
            // The crash may reset A's endpoints mid-call; a transport
            // error is an acceptable way for this coroutine to die.
            Error err = Error::None;
            co_await env.trySyscall(req, &resp, &err);
            if (last)
                *last = eq.now();
            // Linger so late crash points still find A alive (body
            // completion marks the activity dead and a dead activity
            // cannot crash).
            co_await env.thread().compute(5'000'000'000);
        });
        sys.start(b, [&](MuxEnv &env) -> sim::Task {
            co_await env.thread().compute(1'000'000);
        });
        Outcome out;
        eq.schedule(crash_at, [&] {
            const Controller &c0 = sys.controllerOf(0);
            out.inFlight = c0.xshardSent() > c0.xshardAcked();
            sys.mux(0).crashActivity(a_id);
        });

        eq.run();
        inv.runAll(true);
        EXPECT_TRUE(inv.ok())
            << "crash at " << crash_at << " ticks:\n" << inv.report();

        // The delegated copy must not survive its source's death.
        if (CapTable *bt = sys.capsOf(3).tableIfExists(b_id)) {
            bt->forEachCap([&](Capability &c) {
                EXPECT_FALSE(c.hasRemoteParent)
                    << "crash at " << crash_at
                    << " ticks left an orphaned delegated cap";
            });
        }
        EXPECT_EQ(sys.controllerOf(0).activitiesReaped(), 1u)
            << "crash at " << crash_at << " ticks";
        out.oneways = sys.controllerOf(0).onewaySent();
        out.peerOneways = sys.controllerOf(3).onewayHandled();
        return out;
    };

    // A crash long after the syscall finds its service span.
    sim::Tick first = 0, last = 0;
    scenario(sim::kTicksPerMs, &first, &last);
    ASSERT_LT(first, last);
    ASSERT_LT(last, sim::kTicksPerMs);

    std::vector<sim::Tick> points{first / 2};
    for (sim::Tick k = 1; k < 8; k++)
        points.push_back(first + (last - first) * k / 8);
    points.push_back(last + 50 * sim::kTicksPerUs);

    unsigned in_span = 0;
    unsigned compensated = 0;
    for (sim::Tick t : points) {
        Outcome o = scenario(t, nullptr, nullptr);
        if (t > first && t < last)
            in_span++;
        if (!o.inFlight)
            continue;
        // The reap cut nothing, so the one one-way message shard 0
        // sent is the compensating revoke, and shard 3 handled it.
        EXPECT_EQ(o.oneways, 1u) << "crash at " << t << " ticks";
        EXPECT_EQ(o.peerOneways, 1u) << "crash at " << t << " ticks";
        compensated++;
    }
    EXPECT_GT(in_span, 0u);
    EXPECT_GT(compensated, 0u)
        << "no crash point hit the in-flight delegation ("
        << first << ".." << last << " ticks)";
}

TEST(ShardRaceTest, CrashDuringSyscallService)
{
    // A (tile 0) delegates a cap to B (tile 7, shard 3), revokes the
    // delegated copy keeping its own root, then activates the root.
    // Crash A at every 200 ns of that service window: the reap drops
    // A's table while a syscall body is suspended in a cap-table
    // step, a peer call or an endpoint write. The body must not touch
    // what the reap freed (ASan checks this test), and the
    // conservation laws must hold.
    auto scenario = [](sim::Tick crash_at, sim::Tick *first,
                       sim::Tick *last) {
        sim::EventQueue eq;
        System sys(eq, shardedParams(4));
        sim::Invariants inv;
        registerControllerInvariants(inv, sys);
        auto *a = sys.createApp(0, "a");
        auto *b = sys.createApp(7, "b");
        auto storage = sys.makeMgate(a, 64 << 10, dtu::kPermRW);
        CapSel b_act = sys.grantActCap(a, b);
        dtu::EpId mep = sys.allocEp(0);
        dtu::ActId a_id = a->act->id();

        sys.start(a, [&, storage, b_act, mep](MuxEnv &env)
                      -> sim::Task {
            const SyscallReq reqs[] = {
                {SyscallReq::Op::Delegate, b_act, storage.sel},
                {SyscallReq::Op::Revoke, storage.sel, 1},
                {SyscallReq::Op::Activate, storage.sel, mep},
            };
            if (first)
                *first = eq.now();
            for (const SyscallReq &req : reqs) {
                SyscallResp resp;
                Error err = Error::None;
                co_await env.trySyscall(req, &resp, &err);
            }
            if (last)
                *last = eq.now();
            // Linger so late crash points still find A alive.
            co_await env.thread().compute(5'000'000'000);
        });
        sys.start(b, [&](MuxEnv &env) -> sim::Task {
            co_await env.thread().compute(1);
        });
        eq.schedule(crash_at, [&] { sys.mux(0).crashActivity(a_id); });
        eq.run();
        inv.runAll(true);
        EXPECT_TRUE(inv.ok())
            << "crash at " << crash_at << " ticks:\n" << inv.report();
        EXPECT_EQ(sys.controllerOf(0).activitiesReaped(), 1u)
            << "crash at " << crash_at << " ticks";
        // A syscall the reaped A still had queued must not re-create
        // its capability table.
        EXPECT_FALSE(sys.capsOf(0).hasTable(a_id))
            << "crash at " << crash_at << " ticks";
    };

    // A crash after the window finds the service span.
    sim::Tick first = 0, last = 0;
    scenario(sim::kTicksPerMs, &first, &last);
    ASSERT_LT(first, last);
    ASSERT_LT(last, sim::kTicksPerMs);
    for (sim::Tick t = first; t <= last; t += 200 * sim::kTicksPerNs)
        scenario(t, nullptr, nullptr);
}

TEST(ShardRaceTest, NestedCallStashesOuterReply)
{
    // P (tile 0, shard 0) delegates an mgate root to Q (tile 2,
    // shard 1), and Q delegates its copy on to R (tile 4, shard 2).
    // At a base tick Q creates an activity on tile 6 (shard 3); P
    // revokes the root's subtree, keeping the root, at base + offset
    // for every 50 ns offset in 0-12 us. Shard 1 serves P's revoke
    // while its CreateAct call waits, and the nested revoke of R's
    // copy may fetch the CreateAct reply first: it must stash that
    // reply for the outer call. Every run must end with both calls
    // ok, the two copies removed and the conservation laws holding.
    constexpr sim::Tick kBase = sim::kTicksPerMs;
    auto scenario = [](sim::Tick offset) {
        sim::EventQueue eq;
        System sys(eq, shardedParams(4));
        sim::Invariants inv;
        registerControllerInvariants(inv, sys);
        auto *p = sys.createApp(0, "p");
        auto *q = sys.createApp(2, "q");
        auto *r = sys.createApp(4, "r");
        auto storage = sys.makeMgate(p, 64 << 10, dtu::kPermRW);
        CapSel q_act = sys.grantActCap(p, q);
        CapSel r_act = sys.grantActCap(q, r);

        // Sleep on the core until tick @p at.
        auto until = [&eq](MuxEnv &env, sim::Tick at) {
            return env.thread().compute(
                env.thread().core().clock().ticksToCycles(at -
                                                          eq.now()));
        };
        CapSel q_sel = kInvalidSel;
        SyscallResp revoke{Error::Aborted}, create{Error::Aborted};
        sys.start(p, [&, storage, q_act, offset](MuxEnv &env)
                      -> sim::Task {
            SyscallReq req{SyscallReq::Op::Delegate, q_act, storage.sel};
            SyscallResp resp;
            co_await env.syscall(req, &resp);
            EXPECT_EQ(resp.err, Error::None);
            q_sel = static_cast<CapSel>(resp.val);
            co_await until(env, kBase + offset);
            req = SyscallReq{SyscallReq::Op::Revoke, storage.sel, 1};
            co_await env.syscall(req, &revoke);
        });
        sys.start(q, [&, r_act](MuxEnv &env) -> sim::Task {
            co_await until(env, kBase / 2);
            SyscallReq req{SyscallReq::Op::Delegate, r_act, q_sel};
            SyscallResp resp;
            co_await env.syscall(req, &resp);
            EXPECT_EQ(resp.err, Error::None);
            co_await until(env, kBase);
            req = SyscallReq{SyscallReq::Op::CreateAct, 6};
            co_await env.syscall(req, &create);
        });
        sys.start(r, [&](MuxEnv &env) -> sim::Task {
            co_await env.thread().compute(1);
        });

        eq.run();
        inv.runAll(true);
        EXPECT_TRUE(inv.ok()) << "offset " << offset << ":\n"
                              << inv.report();
        EXPECT_EQ(create.err, Error::None) << "offset " << offset;
        EXPECT_EQ(revoke.err, Error::None) << "offset " << offset;
        EXPECT_EQ(revoke.val, 2u) << "offset " << offset;
        return eq.metrics()
            .findCounter(sys.controllerOf(1).env().name() +
                         ".kernel.xshard_stashed")
            ->value();
    };

    std::uint64_t stashed = 0;
    for (sim::Tick t = 0; t < 12 * sim::kTicksPerUs;
         t += 50 * sim::kTicksPerNs)
        stashed += scenario(t);
    EXPECT_GT(stashed, 0u);
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

TEST_F(ShardSystemTest, CrossShardMapForReachesHomeTileMux)
{
    // A (tile 0, shard 0) maps a page for B (tile 7, shard 3). The
    // sidecall channel to tile 7's TileMux belongs to shard 3, so
    // shard 0 forwards the MapFor and shard 3 issues the sidecall.
    auto *a = sys.createApp(0, "a");
    auto *b = sys.createApp(7, "b");
    CapSel b_act = sys.grantActCap(a, b);
    const dtu::VirtAddr va = 0x4000'0000;
    const dtu::PhysAddr pa = sys.allocTilePhys(7, 1);

    bool done = false;
    sys.start(a, [&, b_act](MuxEnv &env) -> sim::Task {
        SyscallReq req;
        req.op = SyscallReq::Op::MapFor;
        req.arg0 = b_act;
        req.arg1 = va;
        req.arg2 = pa;
        req.arg3 = dtu::kPermRW;
        SyscallResp resp;
        co_await env.syscall(req, &resp);
        EXPECT_EQ(resp.err, Error::None);
        done = true;
    });
    sys.start(b, [&](MuxEnv &env) -> sim::Task {
        co_await env.thread().compute(1);
    });

    runAndCheck();
    EXPECT_TRUE(done);
    const core::PageMapping *pm = b->act->addrSpace().lookup(va);
    ASSERT_NE(pm, nullptr);
    EXPECT_EQ(pm->phys, pa);
    EXPECT_EQ(pm->perms, dtu::kPermRW);
    EXPECT_EQ(sys.controllerOf(0).xshardSent(), 1u);
    EXPECT_EQ(sys.controllerOf(0).xshardAcked(), 1u);
    EXPECT_EQ(sys.controllerOf(3).xshardHandled(), 1u);
    // Pinned simulated timing of the forward + sidecall round trip.
    EXPECT_EQ(eq.now(), 98'877'500u);
    EXPECT_EQ(eq.executed(), 181u);
}

} // namespace
} // namespace m3v::os
