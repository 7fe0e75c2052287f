/**
 * @file
 * Ownership and steady-state tests for the DTU message path, where a
 * payload has one owner at a time (DESIGN.md section 4g):
 *
 *  - after warm-up, a send/fetch/ack loop allocates only the payload
 *    buffer the sender hands in, plus, in reliable (retx-armed) wire
 *    mode, the retransmission save's copy of it;
 *  - after the receiver reaps the message's slot (VDtu::resetAct),
 *    the retransmissions still carry the original bytes and every
 *    engine drains;
 *  - a corrupted transmission is dropped at the receiver, and the
 *    retransmission delivers the original bytes;
 *  - every stored message rings the notification hook inline, even
 *    several in one tick for one (ep, act), and schedules no event.
 *
 * This binary counts heap allocations through tests/alloc_count.h.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "alloc_count.h"
#include "core/vdtu.h"
#include "dtu/dtu.h"
#include "sim/fault.h"
#include "sim/invariants.h"

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
 * Two plain DTUs over a (possibly faulty) NoC with a pump that sends
 * messages back to back, each in a fresh payload buffer — the
 * steady-state fixture.
 */
class MsgPathTest : public ::testing::Test
{
  protected:
    static constexpr std::size_t kPayloadBytes = 64;

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
                if (m.payload == templ)
                    intact++;
                received++;
                dtuB->ack(0, ep, slot);
            }
        });
        templ.resize(kPayloadBytes);
        for (std::size_t i = 0; i < templ.size(); i++)
            templ[i] = static_cast<std::uint8_t>(i + 1);
    }

    /** Send `remaining` messages one after another, each in a fresh
     *  copy of the template (one allocation); every closure captures
     *  only `this`, so the pump itself allocates nothing more. */
    void
    pump()
    {
        if (remaining == 0)
            return;
        dtuA->cmdSend(0, kSep, 0x1000, templ, kInvalidEp,
                      [this](Error e) {
                          ASSERT_EQ(e, Error::None)
                              << "send failed: " << errorName(e);
                          remaining--;
                          pump();
                      });
    }

    /** Heap allocations made while sending @p n messages. */
    std::uint64_t
    runBatch(std::uint64_t n)
    {
        std::uint64_t a0 = test::allocCount.load();
        remaining = n;
        pump();
        eq.run();
        std::uint64_t a1 = test::allocCount.load();
        EXPECT_EQ(remaining, 0u);
        return a1 - a0;
    }

    sim::EventQueue eq;
    std::unique_ptr<noc::Noc> noc;
    std::unique_ptr<Dtu> dtuA;
    std::unique_ptr<Dtu> dtuB;
    std::vector<std::uint8_t> templ;
    std::uint64_t remaining = 0;
    std::uint64_t received = 0;
    std::uint64_t intact = 0;
};

/**
 * After warm-up, the DTUs and the NoC add no heap allocation to a
 * send/fetch/ack round trip: the one allocation per message is the
 * payload buffer the sender hands in, which moves from the command
 * to the wire packet to the receive slot without a copy. Every other
 * structure on the path — command state, wire headers, NoC queues,
 * recv slots, event records — is pooled or in recycled capacity.
 */
TEST_F(MsgPathTest, SteadyStateIsAllocAndCopyFree)
{
    build(nullptr);
    // Warm every pool, ring and freelist, and grow the event
    // queue's heap vectors to their steady-state depth.
    runBatch(8192);

    EXPECT_EQ(runBatch(1024), 1024u)
        << "heap allocations beyond the payload buffer";
    EXPECT_EQ(received, 8192u + 1024u);
    EXPECT_EQ(intact, received);
}

/**
 * The same loop with the reliable wire protocol armed (an empty fault
 * plan switches the DTUs to sequence numbers, retx timers, delivery
 * acks and credit-return acks). The retransmission save keeps its own
 * copy of each packet: one more allocation per message, and nothing
 * else — the dedup windows and the retx vector run in recycled
 * capacity.
 */
TEST_F(MsgPathTest, ReliableModeSteadyStateCopiesOnlyForRetx)
{
    sim::FaultPlan plan(7); // no windows: reliable mode, no faults
    build(&plan);
    ASSERT_TRUE(dtuA->reliable());
    // Warm the retx vector, dedup windows, timer pool and the event
    // queue's heaps (as above).
    runBatch(8192);

    EXPECT_EQ(runBatch(1024), 2u * 1024u)
        << "heap allocations beyond the payload and its retx copy";
    EXPECT_EQ(dtuA->retransmits(), 0u);
    EXPECT_EQ(intact, received);
}

/** A VDtu that records the payload of every message packet that
 *  reaches it, with the arrival tick, before processing it. */
class RecordingVDtu : public core::VDtu
{
  public:
    using core::VDtu::VDtu;

    bool
    acceptPacket(noc::Packet &pkt,
                 sim::UniqueFunction<void()> on_space) override
    {
        auto *wd = dynamic_cast<WireData *>(pkt.data.get());
        if (wd && wd->kind == WireKind::MsgXfer)
            arrivals.emplace_back(eventQueue().now(), wd->msg.payload);
        return core::VDtu::acceptPacket(pkt, std::move(on_space));
    }

    std::vector<std::pair<sim::Tick, std::vector<std::uint8_t>>>
        arrivals;
};

/**
 * Ownership under fault injection: the receiver reaps the message's
 * slot (VDtu::resetAct, the controller killing an activity) while the
 * sender still waits for the delivery ack. The reap frees the slot's
 * payload; the sender's retransmission save owns a separate copy, so
 * every retransmission after the reap still carries the original
 * bytes, the send completes and every engine drains.
 */
TEST(MsgPathLifetimeTest, RetxDeliversOriginalAfterReceiverReap)
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
    RecordingVDtu dtuB(eq, "vdtuB", noc, kTileB, kFreq);
    noc.finalize();
    constexpr ActId kVictim = 5;
    dtuB.configEp(kRep, Endpoint::makeRecv(kVictim, 256, 8));
    dtuA.configEp(kSep,
                  Endpoint::makeSend(0, kTileB, kRep, 0x77, 4));

    const std::vector<std::uint8_t> original = bytes("reaped-under-retx");
    constexpr sim::Tick kReapAt = 10 * sim::kTicksPerUs;
    Error err = Error::Aborted;
    dtuA.cmdSend(0, kSep, 0x1000, original, kInvalidEp,
                 [&](Error e) { err = e; });
    // Mid-drop-window, the controller reaps the victim activity: the
    // recv slot and its payload are freed while A's retx save still
    // holds its copy.
    eq.schedule(kReapAt, [&]() {
        ASSERT_EQ(dtuB.unread(kVictim, kRep), 1u);
        int slot = dtuB.fetch(kVictim, kRep);
        ASSERT_GE(slot, 0);
        EXPECT_EQ(dtuB.slotMsg(kRep, slot).payload, original);
        dtuB.resetAct(kVictim);
        EXPECT_EQ(dtuB.unread(kVictim, kRep), 0u);
    });
    eq.run();

    // B remembered the outcome before the reap, so the post-window
    // retransmit dedups and re-acks: the send completes cleanly.
    EXPECT_EQ(err, Error::None);
    EXPECT_GT(dtuA.retransmits(), 0u);
    std::size_t after_reap = 0;
    for (const auto &[tick, payload] : dtuB.arrivals) {
        EXPECT_EQ(payload, original) << "arrival at tick " << tick;
        if (tick > kReapAt)
            after_reap++;
    }
    EXPECT_GT(after_reap, 0u) << "no retransmission reached B after "
                                 "the reap";
    EXPECT_TRUE(dtuA.engineQuiescent());
    EXPECT_TRUE(dtuB.engineQuiescent());
}

/**
 * Corruption in flight: the fault site damages the transmitted
 * packet's own bytes. The receiver drops the corrupt packet, and the
 * retransmission, sent from the sender's clean save, delivers the
 * original bytes.
 */
TEST(MsgPathLifetimeTest, CorruptedTransmissionDroppedRetxDeliversOriginal)
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

    const std::vector<std::uint8_t> original =
        bytes("payload-that-must-arrive-unmangled");
    Error err = Error::Aborted;
    dtuA.cmdSend(0, kSep, 0x1000, original, kInvalidEp,
                 [&](Error e) { err = e; });
    eq.run();

    EXPECT_EQ(err, Error::None);
    EXPECT_GT(dtuB.corruptDropped(), 0u);
    EXPECT_GT(dtuA.retransmits(), 0u);
    EXPECT_EQ(dtuB.msgsReceived(), 1u);
    int slot = dtuB.fetch(0, kRep);
    ASSERT_GE(slot, 0);
    EXPECT_EQ(dtuB.slotMsg(kRep, slot).payload, original);
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

/** The registered invariant set (credit conservation, engine drain,
 *  the local endpoint laws) holds at every event boundary of a faulty
 *  retx-heavy run and at quiescence. */
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
}

} // namespace
} // namespace m3v::dtu
