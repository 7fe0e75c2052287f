/**
 * @file
 * Integration tests for TileMux + vDTU on a simulated core: tile-local
 * RPC between two activities (the "M3v local" path of Figure 6),
 * scheduling, time slices, TLB-miss retries, polling on dedicated
 * tiles, and exits.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/tilemux.h"
#include "core/vdtu.h"
#include "dtu/memory_tile.h"

namespace m3v::core {
namespace {

using dtu::ActId;
using dtu::Endpoint;
using dtu::EpId;
using dtu::Error;
using dtu::kInvalidEp;
using dtu::kPermRW;

std::vector<std::uint8_t>
bytes(const std::string &s)
{
    return std::vector<std::uint8_t>(s.begin(), s.end());
}

/**
 * Minimal message-send helper with TLB-miss retry: the precursor of
 * the full libm3 SendGate in src/os.
 */
sim::Task
sendMsg(Activity &act, VDtu &vdtu, EpId ep, dtu::VirtAddr buf,
        std::vector<std::uint8_t> payload, EpId reply_ep, Error *out)
{
    auto &t = act.thread();
    for (;;) {
        co_await t.compute(40); // MMIO command setup
        Error err = Error::Aborted;
        bool done = false;
        vdtu.cmdSend(act.id(), ep, buf, payload, reply_ep,
                     [&](Error e) {
                         err = e;
                         done = true;
                         t.wake();
                     });
        while (!done)
            co_await t.externalWait();
        if (err == Error::TlbMiss) {
            co_await act.mux().translCall(act, buf);
            continue;
        }
        if (out)
            *out = err;
        co_return;
    }
}

/** Wait for and fetch one message; returns the payload via out. */
sim::Task
recvMsg(Activity &act, VDtu &vdtu, EpId rep, int *slot_out)
{
    auto &t = act.thread();
    for (;;) {
        co_await act.mux().waitForMsg(act);
        co_await t.compute(14); // MMIO fetch
        int slot = vdtu.fetch(act.id(), rep);
        if (slot >= 0) {
            *slot_out = slot;
            co_return;
        }
        // Spurious wake-up (e.g. another EP of ours): wait again.
    }
}

/** A two-tile platform rig (tile 0, tile 1, one memory tile). */
struct Rig
{
    static constexpr noc::TileId kTile0 = 0;
    static constexpr noc::TileId kTile1 = 1;
    static constexpr noc::TileId kMemTile = 2;

    Rig()
        : noc(eq, noc::NocParams{}),
          core0(eq, "core0", tile::CoreModel::boom(), kTile0),
          core1(eq, "core1", tile::CoreModel::boom(), kTile1),
          vdtu0(eq, "vdtu0", noc, kTile0, 80'000'000),
          vdtu1(eq, "vdtu1", noc, kTile1, 80'000'000),
          mem(eq, "mem", noc, kMemTile),
          mux0(eq, "mux0", core0, vdtu0),
          mux1(eq, "mux1", core1, vdtu1)
    {
        noc.finalize();
        for (auto *v : {&vdtu0, &vdtu1}) {
            v->configEp(0, Endpoint::makeMem(dtu::kTileMuxAct,
                                             kMemTile, 0, 1 << 20,
                                             kPermRW));
        }
    }

    /** Create an activity with a mapped scratch page at 0x10000. */
    Activity *
    makeAct(TileMux &mux, ActId id, const std::string &name)
    {
        Activity *a = mux.createActivity(id, name);
        mux.mapPage(id, 0x10000, 0x1000u * id, kPermRW);
        return a;
    }

    sim::EventQueue eq;
    noc::Noc noc;
    tile::Core core0;
    tile::Core core1;
    VDtu vdtu0;
    VDtu vdtu1;
    dtu::MemoryTile mem;
    TileMux mux0;
    TileMux mux1;
};

class TileMuxTest : public ::testing::Test, public Rig
{
};

sim::Task
pingBody(Activity &act, VDtu &vdtu, EpId sep, EpId rep, int rounds,
         int *completed)
{
    for (int i = 0; i < rounds; i++) {
        Error err = Error::Aborted;
        co_await sendMsg(act, vdtu, sep, 0x10000, bytes("ping"),
                         rep, &err);
        EXPECT_EQ(err, Error::None);
        int slot = -1;
        co_await recvMsg(act, vdtu, rep, &slot);
        EXPECT_EQ(std::string(
                      vdtu.slotMsg(rep, slot).payload.begin(),
                      vdtu.slotMsg(rep, slot).payload.end()),
                  "pong");
        co_await act.thread().compute(14); // MMIO ack
        vdtu.ack(act.id(), rep, slot);
        (*completed)++;
    }
    co_await act.mux().exitCall(act);
}

sim::Task
pongBody(Activity &act, VDtu &vdtu, EpId rep)
{
    for (;;) {
        int slot = -1;
        co_await recvMsg(act, vdtu, rep, &slot);
        Error err = Error::Aborted;
        bool done = false;
        co_await act.thread().compute(40);
        vdtu.cmdReply(act.id(), rep, slot, 0x10000, bytes("pong"),
                      [&](Error e) {
                          err = e;
                          done = true;
                          act.thread().wake();
                      });
        while (!done)
            co_await act.thread().externalWait();
        if (err == Error::TlbMiss) {
            // Refill and retry once (reply buffers are page-local).
            co_await act.mux().translCall(act, 0x10000);
            // The one-shot reply permission was not consumed on a
            // failed command; retry.
            done = false;
            co_await act.thread().compute(40);
            vdtu.cmdReply(act.id(), rep, slot, 0x10000,
                          bytes("pong"), [&](Error e) {
                              err = e;
                              done = true;
                              act.thread().wake();
                          });
            while (!done)
                co_await act.thread().externalWait();
        }
        EXPECT_EQ(err, Error::None);
    }
}

TEST_F(TileMuxTest, TileLocalRpcBetweenTwoActivities)
{
    // Client (act 1) and server (act 2) share tile 0: every message
    // goes to a non-running activity -> core request + switch.
    Activity *client = makeAct(mux0, 1, "client");
    Activity *server = makeAct(mux0, 2, "server");

    vdtu0.configEp(8, Endpoint::makeRecv(2, 256, 8));  // server req
    vdtu0.configEp(9, Endpoint::makeSend(1, kTile0, 8, 0x77, 8));
    vdtu0.configEp(10, Endpoint::makeRecv(1, 256, 8)); // client reply

    int completed = 0;
    mux0.startActivity(server, pongBody(*server, vdtu0, 8));
    mux0.startActivity(client,
                       pingBody(*client, vdtu0, 9, 10, 5, &completed));
    eq.run();

    EXPECT_EQ(completed, 5);
    EXPECT_EQ(client->state(), Activity::State::Dead);
    // Each round needs two core-request interrupts (one per message
    // to a non-running activity) and context switches.
    EXPECT_GE(mux0.coreReqIrqs(), 10u);
    EXPECT_GE(mux0.ctxSwitches(), 10u);
}

TEST_F(TileMuxTest, CrossTileRpcUsesPollingNotKernel)
{
    // Client alone on tile 0, server alone on tile 1: both poll; no
    // TileMux involvement after startup (the fast path of Figure 6).
    Activity *client = makeAct(mux0, 1, "client");
    Activity *server = makeAct(mux1, 2, "server");

    vdtu1.configEp(8, Endpoint::makeRecv(2, 256, 8));
    vdtu0.configEp(9, Endpoint::makeSend(1, kTile1, 8, 0x77, 8));
    vdtu0.configEp(10, Endpoint::makeRecv(1, 256, 8));

    int completed = 0;
    mux1.startActivity(server, pongBody(*server, vdtu1, 8));
    mux0.startActivity(client,
                       pingBody(*client, vdtu0, 9, 10, 5, &completed));
    eq.run();

    EXPECT_EQ(completed, 5);
    // No message-triggered interrupts: recipients were always current.
    EXPECT_EQ(mux0.coreReqIrqs(), 0u);
    EXPECT_EQ(mux1.coreReqIrqs(), 0u);
}

TEST_F(TileMuxTest, LocalRpcIsSlowerThanRemote)
{
    // The headline microbenchmark shape: tile-local RPC costs context
    // switches; cross-tile RPC does not (Figure 6).
    Activity *client_l = makeAct(mux0, 1, "client-l");
    Activity *server_l = makeAct(mux0, 2, "server-l");
    vdtu0.configEp(8, Endpoint::makeRecv(2, 256, 8));
    vdtu0.configEp(9, Endpoint::makeSend(1, kTile0, 8, 0, 8));
    vdtu0.configEp(10, Endpoint::makeRecv(1, 256, 8));

    int done_l = 0;
    mux0.startActivity(server_l, pongBody(*server_l, vdtu0, 8));
    mux0.startActivity(client_l,
                       pingBody(*client_l, vdtu0, 9, 10, 20, &done_l));
    eq.run();
    sim::Tick local_time = eq.now();
    ASSERT_EQ(done_l, 20);

    // Fresh rig for the remote pair.
    Rig remote;
    Activity *client_r = remote.makeAct(remote.mux0, 1, "client-r");
    Activity *server_r = remote.makeAct(remote.mux1, 2, "server-r");
    remote.vdtu1.configEp(8, Endpoint::makeRecv(2, 256, 8));
    remote.vdtu0.configEp(9, Endpoint::makeSend(1, kTile1, 8, 0, 8));
    remote.vdtu0.configEp(10, Endpoint::makeRecv(1, 256, 8));
    int done_r = 0;
    remote.mux1.startActivity(server_r,
                              pongBody(*server_r, remote.vdtu1, 8));
    remote.mux0.startActivity(
        client_r,
        pingBody(*client_r, remote.vdtu0, 9, 10, 20, &done_r));
    remote.eq.run();
    ASSERT_EQ(done_r, 20);
    EXPECT_GT(local_time, remote.eq.now());
}

sim::Task
spinBody(Activity &act, sim::Cycles chunk, int iters, int *progress)
{
    for (int i = 0; i < iters; i++) {
        co_await act.thread().compute(chunk);
        (*progress)++;
    }
    co_await act.mux().exitCall(act);
}

TEST_F(TileMuxTest, TimeSliceRoundRobinInterleaves)
{
    Activity *a = makeAct(mux0, 1, "spin-a");
    Activity *b = makeAct(mux0, 2, "spin-b");
    int pa = 0, pb = 0;
    // Each chunk is 20k cycles = 0.25 ms; slice is 1 ms.
    mux0.startActivity(a, spinBody(*a, 20'000, 40, &pa));
    mux0.startActivity(b, spinBody(*b, 20'000, 40, &pb));

    // After 6 ms, both have made progress (interleaved execution).
    eq.runUntil(6 * sim::kTicksPerMs);
    EXPECT_GT(pa, 4);
    EXPECT_GT(pb, 4);
    EXPECT_LT(pa, 40);
    EXPECT_LT(pb, 40);
    eq.run();
    EXPECT_EQ(pa, 40);
    EXPECT_EQ(pb, 40);
    EXPECT_GE(mux0.timerIrqs(), 5u);
}

/** Forever: wait for a message on rep, fetch it, ack it. */
sim::Task
sinkBody(Activity &act, VDtu &vdtu, EpId rep, int *received)
{
    for (;;) {
        int slot = -1;
        co_await recvMsg(act, vdtu, rep, &slot);
        co_await act.thread().compute(14); // MMIO ack
        vdtu.ack(act.id(), rep, slot);
        (*received)++;
    }
}

/** Send @p count one-way messages, one every @p gap cycles. */
sim::Task
tickerBody(Activity &act, VDtu &vdtu, EpId sep, int count)
{
    for (int i = 0; i < count; i++) {
        co_await act.thread().compute(8'000); // 0.1 ms at 80 MHz
        Error err = Error::Aborted;
        co_await sendMsg(act, vdtu, sep, 0x10000, bytes("tick"),
                         kInvalidEp, &err);
        EXPECT_EQ(err, Error::None);
    }
    co_await act.mux().exitCall(act);
}

TEST_F(TileMuxTest, CoreRequestIrqDoesNotResetTimeSlice)
{
    // Regression: a core-request interrupt used to re-dispatch the
    // preempted activity with a *fresh* time slice. Under steady
    // message traffic with a period shorter than the slice (here
    // 0.1 ms vs 1 ms), the slice timer was re-armed on every message
    // and never fired, so a compute-bound activity starved every
    // other runnable activity on its tile. The remnant of the slice
    // must be banked across the interrupt instead.
    Activity *hog = makeAct(mux0, 1, "hog");
    Activity *peer = makeAct(mux0, 2, "peer");
    Activity *sink = makeAct(mux0, 3, "sink");
    Activity *ticker = makeAct(mux1, 4, "ticker");

    vdtu0.configEp(8, Endpoint::makeRecv(3, 256, 8)); // sink's ring
    vdtu1.configEp(9, Endpoint::makeSend(4, kTile0, 8, 0x42, 8));

    int hog_progress = 0, peer_progress = 0, received = 0;
    mux0.startActivity(hog, spinBody(*hog, 20'000, 400,
                                     &hog_progress));
    mux0.startActivity(peer, spinBody(*peer, 20'000, 40,
                                      &peer_progress));
    mux0.startActivity(sink, sinkBody(*sink, vdtu0, 8, &received));
    mux1.startActivity(ticker, tickerBody(*ticker, vdtu1, 9, 60));

    eq.runUntil(8 * sim::kTicksPerMs);

    // The traffic must actually have exercised the interrupt path.
    EXPECT_GT(received, 20);
    EXPECT_GE(mux0.coreReqIrqs(), 20u);
    // The law under test: slices still expire under traffic, and the
    // peer gets its share of the core.
    EXPECT_GE(mux0.timerIrqs(), 2u);
    EXPECT_GT(peer_progress, 0);
}

sim::Task
yieldingBody(Activity &act, std::vector<int> *order, int tag)
{
    for (int i = 0; i < 3; i++) {
        co_await act.thread().compute(1000);
        order->push_back(tag);
        co_await act.mux().yieldCall(act);
    }
    co_await act.mux().exitCall(act);
}

TEST_F(TileMuxTest, YieldAlternates)
{
    Activity *a = makeAct(mux0, 1, "y-a");
    Activity *b = makeAct(mux0, 2, "y-b");
    std::vector<int> order;
    mux0.startActivity(a, yieldingBody(*a, &order, 1));
    mux0.startActivity(b, yieldingBody(*b, &order, 2));
    eq.run();
    ASSERT_EQ(order.size(), 6u);
    // Strict alternation 1,2,1,2,1,2.
    for (std::size_t i = 0; i < order.size(); i++)
        EXPECT_EQ(order[i], i % 2 == 0 ? 1 : 2);
}

TEST_F(TileMuxTest, RestartAfterYieldIsIgnored)
{
    Activity *a = makeAct(mux0, 1, "restarted");
    Activity *b = makeAct(mux0, 2, "peer");
    std::vector<int> order;
    mux0.startActivity(a, yieldingBody(*a, &order, 1));
    mux0.startActivity(b, yieldingBody(*b, &order, 2));

    // Let activity 1 reach its first yield (it sits queued on ready_),
    // then try to start it again: the duplicate must be ignored, or
    // the body would be enqueued twice and run interleaved with
    // itself.
    eq.runUntil(sim::kTicksPerMs);
    EXPECT_NE(a->state(), Activity::State::Init);
    mux0.startActivity(a, yieldingBody(*a, &order, 99));
    eq.run();

    ASSERT_EQ(order.size(), 6u);
    for (std::size_t i = 0; i < order.size(); i++) {
        EXPECT_NE(order[i], 99);
        EXPECT_EQ(order[i], i % 2 == 0 ? 1 : 2);
    }
    EXPECT_EQ(a->state(), Activity::State::Dead);
    EXPECT_EQ(b->state(), Activity::State::Dead);
}

TEST_F(TileMuxTest, RestartDeadActivityIsIgnored)
{
    Activity *a = makeAct(mux0, 1, "once");
    int progress = 0;
    mux0.startActivity(a, spinBody(*a, 1000, 2, &progress));
    eq.run();
    EXPECT_EQ(progress, 2);
    EXPECT_EQ(a->state(), Activity::State::Dead);

    // A second start on the dead record must not resurrect it.
    mux0.startActivity(a, spinBody(*a, 1000, 2, &progress));
    eq.run();
    EXPECT_EQ(progress, 2);
    EXPECT_EQ(a->state(), Activity::State::Dead);
}

TEST_F(TileMuxTest, ExitRunsHookAndFreesCore)
{
    Activity *a = makeAct(mux0, 1, "exiter");
    bool hook = false;
    a->onExit = [&]() { hook = true; };
    int progress = 0;
    mux0.startActivity(a, spinBody(*a, 1000, 2, &progress));
    eq.run();
    EXPECT_TRUE(hook);
    EXPECT_EQ(progress, 2);
    EXPECT_EQ(a->state(), Activity::State::Dead);
    EXPECT_EQ(core0.current(), nullptr);
}

TEST_F(TileMuxTest, TranslTmcallRefillsTlbViaPageTable)
{
    Activity *client = makeAct(mux0, 1, "client");
    Activity *server = makeAct(mux1, 2, "server");
    vdtu1.configEp(8, Endpoint::makeRecv(2, 256, 8));
    vdtu0.configEp(9, Endpoint::makeSend(1, kTile1, 8, 0, 8));
    vdtu0.configEp(10, Endpoint::makeRecv(1, 256, 8));

    int completed = 0;
    mux1.startActivity(server, pongBody(*server, vdtu1, 8));
    mux0.startActivity(client,
                       pingBody(*client, vdtu0, 9, 10, 3, &completed));
    eq.run();
    EXPECT_EQ(completed, 3);
    // First send misses the TLB; the transl TMCall fills it from the
    // page table installed by mapPage.
    EXPECT_GE(vdtu0.tlbMisses(), 1u);
    EXPECT_GE(vdtu0.tlbHits(), 2u);
    EXPECT_GE(mux0.tmCalls(), 1u);
}

//
// Watchdog and crash injection.
//

/** A one-tile rig with a configurable TileMux. */
struct WatchdogRig
{
    explicit WatchdogRig(TileMuxParams params)
        : noc(eq, noc::NocParams{}),
          core(eq, "core", tile::CoreModel::boom(), 0),
          vdtu(eq, "vdtu", noc, 0, 80'000'000),
          mux(eq, "mux", core, vdtu, params)
    {
        noc.finalize();
    }

    sim::EventQueue eq;
    noc::Noc noc;
    tile::Core core;
    VDtu vdtu;
    TileMux mux;
};

sim::Task
hogBody(Activity &act, bool *finished)
{
    co_await act.thread().compute(2'000'000'000);
    *finished = true;
    co_await act.mux().exitCall(act);
}

sim::Task
politeBody(Activity &act, int rounds, bool *finished)
{
    for (int i = 0; i < rounds; i++) {
        co_await act.thread().compute(10'000);
        co_await act.mux().yieldCall(act);
    }
    *finished = true;
    co_await act.mux().exitCall(act);
}

TEST(TileMuxWatchdog, KillsLoneHogAndUpcalls)
{
    // A hog on an otherwise-idle tile must still be caught: the
    // watchdog keeps the slice timer armed even when nobody else is
    // ready.
    TileMuxParams params;
    params.watchdogSlices = 2;
    WatchdogRig rig(params);
    Activity *hog = rig.mux.createActivity(7, "hog");
    std::vector<ActId> crashed;
    rig.mux.setCrashHandler([&](ActId id) { crashed.push_back(id); });
    bool finished = false;
    rig.mux.startActivity(hog, hogBody(*hog, &finished));
    rig.eq.run();
    EXPECT_FALSE(finished);
    EXPECT_EQ(hog->state(), Activity::State::Dead);
    EXPECT_EQ(rig.mux.watchdogKills(), 1u);
    ASSERT_EQ(crashed.size(), 1u);
    EXPECT_EQ(crashed[0], 7u);
}

TEST(TileMuxWatchdog, TmCallsResetTheCounter)
{
    // An activity that keeps making TMCalls outlives any number of
    // time slices.
    TileMuxParams params;
    params.watchdogSlices = 2;
    WatchdogRig rig(params);
    Activity *act = rig.mux.createActivity(3, "polite");
    bool finished = false;
    rig.mux.startActivity(act, politeBody(*act, 50, &finished));
    rig.eq.run();
    EXPECT_TRUE(finished);
    EXPECT_EQ(rig.mux.watchdogKills(), 0u);
}

TEST(TileMuxWatchdog, DisabledByDefault)
{
    WatchdogRig rig(TileMuxParams{});
    Activity *hog = rig.mux.createActivity(7, "hog");
    bool finished = false;
    rig.mux.startActivity(hog, hogBody(*hog, &finished));
    rig.eq.run();
    EXPECT_TRUE(finished);
    EXPECT_EQ(rig.mux.watchdogKills(), 0u);
}

TEST(TileMuxWatchdog, CrashInjectionStopsARunningActivity)
{
    WatchdogRig rig(TileMuxParams{});
    Activity *victim = rig.mux.createActivity(5, "victim");
    std::vector<ActId> crashed;
    rig.mux.setCrashHandler([&](ActId id) { crashed.push_back(id); });
    bool finished = false;
    rig.mux.startActivity(victim, hogBody(*victim, &finished));
    rig.eq.schedule(sim::kTicksPerMs, [&]() {
        rig.mux.crashActivity(victim->id());
    });
    rig.eq.run();
    EXPECT_FALSE(finished);
    EXPECT_EQ(victim->state(), Activity::State::Dead);
    EXPECT_EQ(rig.mux.crashes(), 1u);
    ASSERT_EQ(crashed.size(), 1u);
    EXPECT_EQ(crashed[0], 5u);
    // A second crash of the same activity is a no-op.
    rig.mux.crashActivity(victim->id());
    EXPECT_EQ(rig.mux.crashes(), 1u);
}

sim::Task
countingBody(Activity &act, int rounds, int *progress)
{
    for (int i = 0; i < rounds; i++) {
        co_await act.thread().compute(2'000);
        (*progress)++;
        co_await act.mux().yieldCall(act);
    }
    co_await act.mux().exitCall(act);
}

TEST(TileMuxWatchdog, CrashDuringKernelWorkIsFinal)
{
    // Two activities yield to each other. A crash may land while the
    // kernel works for the victim (its yield or exit TMCall, or the
    // switch to it); finishing that work must not revive it. Sweep
    // the crash over the whole run so every kernel window is hit.
    sim::Tick span = 0;
    {
        WatchdogRig rig(TileMuxParams{});
        Activity *a = rig.mux.createActivity(5, "victim");
        Activity *b = rig.mux.createActivity(6, "peer");
        int pa = 0, pb = 0;
        rig.mux.startActivity(a, countingBody(*a, 4, &pa));
        rig.mux.startActivity(b, countingBody(*b, 4, &pb));
        rig.eq.run();
        ASSERT_EQ(pa, 4);
        span = rig.eq.now();
    }
    for (sim::Tick at = 0; at <= span; at += span / 500) {
        WatchdogRig rig(TileMuxParams{});
        Activity *a = rig.mux.createActivity(5, "victim");
        Activity *b = rig.mux.createActivity(6, "peer");
        int pa = 0, pb = 0, atCrash = -1;
        rig.mux.startActivity(a, countingBody(*a, 4, &pa));
        rig.mux.startActivity(b, countingBody(*b, 4, &pb));
        rig.eq.schedule(at, [&]() {
            atCrash = pa;
            rig.mux.crashActivity(a->id());
        });
        rig.eq.run();
        EXPECT_EQ(a->state(), Activity::State::Dead) << "crash at " << at;
        EXPECT_EQ(pa, atCrash) << "victim ran on after a crash at "
                               << at;
        EXPECT_EQ(pb, 4) << "crash at " << at;
    }
}

} // namespace
} // namespace m3v::core
