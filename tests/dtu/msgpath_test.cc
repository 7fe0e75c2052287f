/**
 * @file
 * Lifetime and steady-state tests for the zero-copy slab message
 * path (sim/slab_pool.h + the DTU payload hand-off):
 *
 *  - a warmed-up send/fetch/ack loop performs zero heap allocations
 *    and zero payload byte-copies per message, in both unreliable
 *    and reliable (retx-armed) wire modes;
 *  - a retransmission-held extent survives the receiver reaping the
 *    slot mid-flight (VDtu::resetAct), with the pool conservation
 *    law intact and no stale release;
 *  - fault-injected corruption mutates a copy-on-write clone, so the
 *    retx-held original redelivers the clean bytes;
 *  - releasing a stale {slot, generation} handle is detected and
 *    counted instead of corrupting the freelist;
 *  - every stored message rings the notification hook inline, even
 *    several in one tick for one (ep, act), and schedules no event.
 *
 * This binary overrides global operator new/delete to count heap
 * allocations, in the style of tests/sim/event_core_test.cc.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "core/vdtu.h"
#include "dtu/dtu.h"
#include "sim/fault.h"
#include "sim/invariants.h"
#include "sim/slab_pool.h"

// The replacement operator new below forwards to malloc, so pairing
// its allocations with the matching free-based delete is correct;
// GCC's heuristic cannot see that and warns.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

namespace {
std::atomic<std::uint64_t> gAllocCount{0};
}

void *
operator new(std::size_t size)
{
    gAllocCount.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t size)
{
    return ::operator new(size);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace m3v::dtu {
namespace {

constexpr noc::TileId kTileA = 0;
constexpr noc::TileId kTileB = 1;
constexpr std::uint64_t kFreq = 100'000'000;
constexpr EpId kSep = 4;
constexpr EpId kRep = 4;

std::vector<std::uint8_t>
bytes(const std::string &s)
{
    return std::vector<std::uint8_t>(s.begin(), s.end());
}

/**
 * Two plain DTUs over a (possibly faulty) NoC with a pump that keeps
 * a configurable number of sends going from a single long-lived
 * extent — the steady-state fixture.
 */
class MsgPathTest : public ::testing::Test
{
  protected:
    void
    build(sim::FaultPlan *plan)
    {
        noc::NocParams params;
        params.faults = plan;
        noc = std::make_unique<noc::Noc>(eq, params);
        dtuA = std::make_unique<Dtu>(eq, "dtuA", *noc, kTileA, kFreq);
        dtuB = std::make_unique<Dtu>(eq, "dtuB", *noc, kTileB, kFreq);
        noc->finalize();
        dtuB->configEp(kRep, Endpoint::makeRecv(0, 256, 8));
        dtuA->configEp(kSep,
                       Endpoint::makeSend(0, kTileB, kRep, 0x77, 4));
        dtuB->setMsgNotify([this](EpId ep, ActId) {
            int slot;
            while ((slot = dtuB->fetch(0, ep)) >= 0) {
                const Message &m = dtuB->slotMsg(ep, slot);
                const std::vector<std::uint8_t> &p = m.payload;
                if (!p.empty())
                    consumedBytes += p[0];
                received++;
                dtuB->ack(0, ep, slot);
            }
        });
        extent = noc->payloadPool().make(64);
        auto &b = extent.mutableBytes();
        for (std::size_t i = 0; i < b.size(); i++)
            b[i] = static_cast<std::uint8_t>(i + 1);
    }

    /** Send `remaining` messages back-to-back, backing off on
     *  NoCredits; every closure captures only `this` so the pump
     *  itself stays allocation-free. */
    void
    pump()
    {
        if (remaining == 0)
            return;
        dtuA->cmdSendRef(0, kSep, 0x1000, extent, kInvalidEp,
                         [this](Error e) {
                             if (e == Error::None) {
                                 remaining--;
                                 pump();
                             } else if (e == Error::NoCredits) {
                                 eq.schedule(2000,
                                             [this]() { pump(); });
                             } else {
                                 FAIL() << "send failed: "
                                        << errorName(e);
                             }
                         });
    }

    void
    runBatch(std::uint64_t n)
    {
        remaining = n;
        pump();
        eq.run();
        ASSERT_EQ(remaining, 0u);
    }

    sim::EventQueue eq;
    std::unique_ptr<noc::Noc> noc;
    std::unique_ptr<Dtu> dtuA;
    std::unique_ptr<Dtu> dtuB;
    sim::PayloadRef extent;
    std::uint64_t remaining = 0;
    std::uint64_t received = 0;
    std::uint64_t consumedBytes = 0;
};

/**
 * Tentpole acceptance check: after warm-up, a send/fetch/ack round
 * trip performs zero heap allocations and zero payload byte-copies.
 * Every structure on the path — command state, wire headers, NoC
 * queues, recv slots, event records — must be pooled or in
 * recycled capacity.
 */
TEST_F(MsgPathTest, SteadyStateIsAllocAndCopyFree)
{
    build(nullptr);
    // Warm every pool, ring and freelist, and grow the event
    // queue's heap vectors to their steady-state depth.
    runBatch(8192);

    sim::SlabPool::Stats s0 = noc->payloadPool().stats();
    std::uint64_t a0 = gAllocCount.load();
    runBatch(1024);
    std::uint64_t a1 = gAllocCount.load();
    sim::SlabPool::Stats s1 = noc->payloadPool().stats();

    EXPECT_EQ(a1 - a0, 0u) << "heap allocations in steady state";
    EXPECT_EQ(s1.byteCopies - s0.byteCopies, 0u)
        << "payload byte-copies in steady state";
    EXPECT_EQ(received, 8192u + 1024u);
    // Conservation: every extent ever created is live or free.
    EXPECT_EQ(s1.allocated, s1.live + s1.free);
    EXPECT_EQ(s1.staleReleases, 0u);
}

/**
 * The same law with the reliable wire protocol armed (an empty fault
 * plan switches the DTUs to sequence numbers, retx timers, delivery
 * acks and credit-return acks): the retx engine keeps messages alive
 * by refcount, its save path must not heap-allocate per packet, and
 * the dedup windows must run in recycled ring capacity.
 */
TEST_F(MsgPathTest, ReliableModeSteadyStateIsAllocAndCopyFree)
{
    sim::FaultPlan plan(7); // no windows: reliable mode, no faults
    build(&plan);
    ASSERT_TRUE(dtuA->reliable());
    // Warm the retx vector, dedup windows, timer pool and the event
    // queue's heaps (as above).
    runBatch(8192);

    sim::SlabPool::Stats s0 = noc->payloadPool().stats();
    std::uint64_t a0 = gAllocCount.load();
    runBatch(1024);
    std::uint64_t a1 = gAllocCount.load();
    sim::SlabPool::Stats s1 = noc->payloadPool().stats();

    EXPECT_EQ(a1 - a0, 0u)
        << "heap allocations on the reliable retx save path";
    EXPECT_EQ(s1.byteCopies - s0.byteCopies, 0u);
    EXPECT_EQ(dtuA->retransmits(), 0u);
    EXPECT_EQ(s1.allocated, s1.live + s1.free);
    EXPECT_EQ(s1.staleReleases, 0u);
}

/**
 * Extent lifetime under fault injection: the receiver reaps the
 * recv slot (VDtu::resetAct, the controller killing an activity)
 * while the sender's retransmission engine still holds a reference
 * to the same extent. The reap releases the slot's reference; the
 * retx reference must keep the extent valid until the delivery ack
 * finally arrives, and the generation check must see no stale
 * release.
 */
TEST(MsgPathLifetimeTest, RetxHeldExtentSurvivesReceiverReap)
{
    sim::EventQueue eq;
    sim::FaultPlan plan(3);
    // Kill everything leaving tile B (the delivery acks) for 30us:
    // A retransmits into the void while B holds the message.
    plan.addDrop("noc.tile1.inj", 1.0, 0, 30 * sim::kTicksPerUs);
    noc::NocParams params;
    params.faults = &plan;
    noc::Noc noc(eq, params);
    Dtu dtuA(eq, "dtuA", noc, kTileA, kFreq);
    core::VDtu dtuB(eq, "vdtuB", noc, kTileB, kFreq);
    noc.finalize();
    constexpr ActId kVictim = 5;
    dtuB.configEp(kRep, Endpoint::makeRecv(kVictim, 256, 8));
    dtuA.configEp(kSep,
                  Endpoint::makeSend(0, kTileB, kRep, 0x77, 4));

    Error err = Error::Aborted;
    dtuA.cmdSend(0, kSep, 0x1000, bytes("reaped-under-retx"),
                 kInvalidEp, [&](Error e) { err = e; });
    // Mid-drop-window, the controller reaps the victim activity: the
    // recv slot (and its payload reference) is released while A's
    // retx entry still shares the extent.
    eq.schedule(10 * sim::kTicksPerUs, [&]() {
        EXPECT_EQ(dtuB.unread(kVictim, kRep), 1u);
        dtuB.resetAct(kVictim);
        EXPECT_EQ(dtuB.unread(kVictim, kRep), 0u);
    });
    eq.run();

    // B remembered the outcome before the reap, so the post-window
    // retransmit dedups and re-acks: the send completes cleanly.
    EXPECT_EQ(err, Error::None);
    EXPECT_GT(dtuA.retransmits(), 0u);
    sim::SlabPool::Stats s = noc.payloadPool().stats();
    EXPECT_EQ(s.staleReleases, 0u);
    EXPECT_EQ(s.allocated, s.live + s.free);
    EXPECT_EQ(s.live, 0u) << "extent leaked after reap + ack";
    EXPECT_TRUE(dtuA.engineQuiescent());
}

/**
 * Corruption under COW: the fault site mutates the in-flight wire
 * copy, which shares its extent with the retx save. The mutation
 * must clone (copy-on-write), the corrupt clone is discarded at the
 * receiver, and the retransmission delivers the untouched original.
 */
TEST(MsgPathLifetimeTest, CorruptionMutatesCowCloneNotRetxOriginal)
{
    sim::EventQueue eq;
    sim::FaultPlan plan(4);
    // Corrupt everything leaving tile A for 30us: the initial xfer
    // (t=0) and the first retransmission (t=20us) are mangled and
    // discarded; the second retransmission (t=60us) is clean.
    plan.addCorrupt("noc.tile0.inj", 1.0, 0, 30 * sim::kTicksPerUs);
    noc::NocParams params;
    params.faults = &plan;
    noc::Noc noc(eq, params);
    Dtu dtuA(eq, "dtuA", noc, kTileA, kFreq);
    Dtu dtuB(eq, "dtuB", noc, kTileB, kFreq);
    noc.finalize();
    dtuB.configEp(kRep, Endpoint::makeRecv(0, 256, 8));
    dtuA.configEp(kSep,
                  Endpoint::makeSend(0, kTileB, kRep, 0x77, 4));

    std::vector<std::uint8_t> original =
        bytes("payload-that-must-arrive-unmangled");
    Error err = Error::Aborted;
    dtuA.cmdSend(0, kSep, 0x1000, original, kInvalidEp,
                 [&](Error e) { err = e; });
    eq.run();

    EXPECT_EQ(err, Error::None);
    EXPECT_GT(dtuB.corruptDropped(), 0u);
    int slot = dtuB.fetch(0, kRep);
    ASSERT_GE(slot, 0);
    const std::vector<std::uint8_t> &got =
        dtuB.slotMsg(kRep, slot).payload;
    EXPECT_EQ(got, original);
    sim::SlabPool::Stats s = noc.payloadPool().stats();
    EXPECT_GE(s.cowClones, 1u) << "corruption wrote through a "
                                  "shared extent instead of cloning";
    EXPECT_EQ(s.staleReleases, 0u);
    EXPECT_EQ(s.allocated, s.live + s.free);
}

/** A rogue release of an already-recycled {slot, generation} handle
 *  is rejected by the generation check and counted, and the later
 *  legitimate release of the recycled slot still balances. */
TEST(MsgPathLifetimeTest, DoubleReleaseCaughtByGenerationCheck)
{
    sim::SlabPool pool;
    sim::PayloadRef r = pool.make(64);
    std::uint32_t slot = r.debugSlot();
    std::uint32_t gen = r.debugGen();

    // First (rogue) release recycles the slot under the live ref.
    EXPECT_TRUE(pool.releaseHandle(slot, gen));
    EXPECT_EQ(pool.stats().staleReleases, 0u);
    EXPECT_EQ(pool.stats().live, 0u);

    // The ref's own destructor-release now carries a stale
    // generation: detected, counted, freelist untouched.
    r.reset();
    sim::SlabPool::Stats s = pool.stats();
    EXPECT_EQ(s.staleReleases, 1u);
    EXPECT_EQ(s.live, 0u);
    EXPECT_EQ(s.allocated, s.free);

    // The recycled slot still works (a second release of the same
    // stale handle is likewise rejected).
    EXPECT_FALSE(pool.releaseHandle(slot, gen));
    EXPECT_EQ(pool.stats().staleReleases, 2u);
    sim::PayloadRef r2 = pool.make(16);
    EXPECT_EQ(pool.stats().live, 1u);
    r2.reset();
    EXPECT_EQ(pool.stats().live, 0u);
}

/**
 * Notification is unbatched: each same-tick store for one (ep, act)
 * rings the hook inline, and none leaves an event behind.
 */
TEST(MsgPathDoorbellTest, SameTickStoresEachRingInline)
{
    sim::EventQueue eq;
    noc::NocParams params;
    noc::Noc noc(eq, params);
    Dtu dtu(eq, "dtu", noc, kTileA, kFreq);
    noc.finalize();
    dtu.configEp(kRep, Endpoint::makeRecv(0, 64, 8));

    std::vector<EpId> rung;
    dtu.setMsgNotify([&](EpId ep, ActId act) {
        EXPECT_EQ(act, 0u);
        rung.push_back(ep);
    });

    ASSERT_TRUE(dtu.deviceMessage(kRep, bytes("a")));
    EXPECT_EQ(rung.size(), 1u);
    ASSERT_TRUE(dtu.deviceMessage(kRep, bytes("b")));
    EXPECT_EQ(rung.size(), 2u);
    ASSERT_TRUE(dtu.deviceMessage(kRep, bytes("c")));
    EXPECT_EQ(rung, (std::vector<EpId>{kRep, kRep, kRep}));
    EXPECT_EQ(eq.pending(), 0u);
}

/** The registered invariant set (slab conservation, credit
 *  conservation, engine drain) holds at every event boundary of a
 *  faulty retx-heavy run and at quiescence. */
TEST(MsgPathInvariantTest, SlabAndDoorbellLawsHoldUnderFaults)
{
    sim::EventQueue eq;
    sim::FaultPlan plan(11);
    plan.addDrop("noc.tile0.inj", 0.3, 0, 100 * sim::kTicksPerUs);
    plan.addDrop("noc.tile1.inj", 0.3, 0, 100 * sim::kTicksPerUs);
    plan.addCorrupt("noc.tile0.inj", 0.2, 0, 50 * sim::kTicksPerUs);
    noc::NocParams params;
    params.faults = &plan;
    noc::Noc noc(eq, params);
    Dtu dtuA(eq, "dtuA", noc, kTileA, kFreq);
    Dtu dtuB(eq, "dtuB", noc, kTileB, kFreq);
    noc.finalize();
    dtuB.configEp(kRep, Endpoint::makeRecv(0, 256, 8));
    dtuA.configEp(kSep,
                  Endpoint::makeSend(0, kTileB, kRep, 0x77, 4));
    dtuB.setMsgNotify([&](EpId ep, ActId) {
        int slot;
        while ((slot = dtuB.fetch(0, ep)) >= 0)
            dtuB.ack(0, ep, slot);
    });

    sim::Invariants inv;
    registerDtuInvariants(inv, {&dtuA, &dtuB});
    inv.attach(eq);

    std::uint64_t remaining = 64;
    std::uint64_t done = 0;
    std::function<void()> pumpFn;
    pumpFn = [&]() {
        if (remaining == 0)
            return;
        dtuA.cmdSend(0, kSep, 0x1000, bytes("fault-soak"),
                     kInvalidEp, [&](Error e) {
                         done++;
                         if (e == Error::None ||
                             e == Error::Timeout) {
                             remaining--;
                             pumpFn();
                         } else if (e == Error::NoCredits) {
                             eq.schedule(5000, [&]() { pumpFn(); });
                         }
                     });
    };
    pumpFn();
    eq.run();

    inv.runAll(true);
    EXPECT_TRUE(inv.ok()) << inv.report();
    EXPECT_GE(done, 64u);
    sim::SlabPool::Stats s = noc.payloadPool().stats();
    EXPECT_EQ(s.allocated, s.live + s.free);
    EXPECT_EQ(s.staleReleases, 0u);
}

} // namespace
} // namespace m3v::dtu
