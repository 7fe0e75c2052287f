/**
 * @file
 * Unit tests for the vDTU: activity-tagged endpoint protection,
 * CUR_ACT exchange, the software-loaded TLB, PMP, core requests, and
 * the always-deliverable fast path for non-running activities.
 */

#include <gtest/gtest.h>

#include <vector>

#include "core/vdtu.h"
#include "dtu/memory_tile.h"

namespace m3v::core {
namespace {

using dtu::ActId;
using dtu::Endpoint;
using dtu::EpId;
using dtu::Error;
using dtu::kInvalidEp;
using dtu::kPageSize;
using dtu::kPermR;
using dtu::kPermRW;
using dtu::kPermW;

std::vector<std::uint8_t>
bytes(const std::string &s)
{
    return std::vector<std::uint8_t>(s.begin(), s.end());
}

class VDtuTest : public ::testing::Test
{
  protected:
    static constexpr noc::TileId kTileA = 0;
    static constexpr noc::TileId kTileB = 1;
    static constexpr noc::TileId kMemTile = 2;

    VDtuTest()
        : noc(eq, noc::NocParams{}),
          vdtuA(eq, "vdtuA", noc, kTileA, 80'000'000),
          vdtuB(eq, "vdtuB", noc, kTileB, 80'000'000),
          mem(eq, "mem", noc, kMemTile)
    {
        noc.finalize();
        // PMP endpoint 0 on both tiles: 1 MiB of DRAM, RW.
        vdtuA.configEp(0, Endpoint::makeMem(dtu::kTileMuxAct, kMemTile,
                                            0, 1 << 20, kPermRW));
        vdtuB.configEp(0, Endpoint::makeMem(dtu::kTileMuxAct, kMemTile,
                                            0, 1 << 20, kPermRW));
    }

    /** Map a VA identity-style into PMP region 0 and return it. */
    dtu::VirtAddr
    mapped(VDtu &v, ActId act, dtu::VirtAddr va, std::uint8_t perms)
    {
        v.tlbInsert(act, va, va & 0xffff'f000, perms);
        return va;
    }

    sim::EventQueue eq;
    noc::Noc noc;
    VDtu vdtuA;
    VDtu vdtuB;
    dtu::MemoryTile mem;
};

TEST_F(VDtuTest, XchgActIsAtomicAndReportsUnread)
{
    EXPECT_EQ(vdtuA.curAct().act, dtu::kInvalidAct);
    CurAct old = vdtuA.xchgAct(7);
    EXPECT_EQ(old.act, dtu::kInvalidAct);
    EXPECT_EQ(vdtuA.curAct().act, 7);
    EXPECT_EQ(vdtuA.curAct().msgCount, 0);
}

TEST_F(VDtuTest, ForeignEndpointLooksUnknown)
{
    vdtuB.configEp(8, Endpoint::makeRecv(2, 256, 4));
    vdtuA.configEp(8, Endpoint::makeSend(1, kTileB, 8, 0, 4));
    vdtuA.xchgAct(3); // some other activity is running

    Error err = Error::None;
    dtu::VirtAddr buf = mapped(vdtuA, 3, 0x10000, kPermRW);
    // Activity 3 tries to use activity 1's send endpoint.
    vdtuA.cmdSend(3, 8, buf, bytes("x"), kInvalidEp,
                  [&](Error e) { err = e; });
    eq.run();
    EXPECT_EQ(err, Error::ForeignEp);
    EXPECT_EQ(vdtuA.foreignEpDenials(), 1u);
}

TEST_F(VDtuTest, OwnerCanUseItsEndpoints)
{
    vdtuB.configEp(8, Endpoint::makeRecv(2, 256, 4));
    vdtuA.configEp(8, Endpoint::makeSend(1, kTileB, 8, 0, 4));
    vdtuA.xchgAct(1);
    vdtuB.xchgAct(2);

    Error err = Error::Aborted;
    dtu::VirtAddr buf = mapped(vdtuA, 1, 0x10000, kPermRW);
    vdtuA.cmdSend(1, 8, buf, bytes("hi"), kInvalidEp,
                  [&](Error e) { err = e; });
    eq.run();
    EXPECT_EQ(err, Error::None);
    EXPECT_EQ(vdtuB.unread(2, 8), 1u);
}

TEST_F(VDtuTest, TlbMissFailsCommandWithoutInterrupt)
{
    vdtuB.configEp(8, Endpoint::makeRecv(2, 256, 4));
    vdtuA.configEp(8, Endpoint::makeSend(1, kTileB, 8, 0, 4));
    vdtuA.xchgAct(1);

    Error err = Error::None;
    vdtuA.cmdSend(1, 8, 0xdead0000, bytes("x"), kInvalidEp,
                  [&](Error e) { err = e; });
    eq.run();
    EXPECT_EQ(err, Error::TlbMiss);
    EXPECT_EQ(vdtuA.tlbMisses(), 1u);

    // After a software TLB insert, the retry succeeds.
    vdtuA.tlbInsert(1, 0xdead0000, 0x4000, kPermRW);
    err = Error::Aborted;
    vdtuA.cmdSend(1, 8, 0xdead0000, bytes("x"), kInvalidEp,
                  [&](Error e) { err = e; });
    eq.run();
    EXPECT_EQ(err, Error::None);
    EXPECT_GE(vdtuA.tlbHits(), 1u);
}

TEST_F(VDtuTest, TlbIsPerActivity)
{
    vdtuA.tlbInsert(1, 0x8000, 0x8000, kPermRW);
    vdtuB.configEp(8, Endpoint::makeRecv(2, 256, 4));
    vdtuA.configEp(9, Endpoint::makeSend(2, kTileB, 8, 0, 4));
    vdtuA.xchgAct(2);
    Error err = Error::None;
    // Activity 2 uses the same VA but has no translation of its own.
    vdtuA.cmdSend(2, 9, 0x8000, bytes("x"), kInvalidEp,
                  [&](Error e) { err = e; });
    eq.run();
    EXPECT_EQ(err, Error::TlbMiss);
}

TEST(VDtuTlb, EvictsLruWhenFull)
{
    sim::EventQueue eq;
    noc::Noc noc(eq, noc::NocParams{});
    VDtuParams p;
    p.tlbEntries = 4;
    VDtu small(eq, "small", noc, 0, 80'000'000, p);
    for (int i = 0; i < 4; i++)
        small.tlbInsert(1, 0x1000u * static_cast<unsigned>(i + 1),
                        0x1000, kPermR);
    EXPECT_EQ(small.tlbFill(), 4u);
    small.tlbInsert(1, 0x9000, 0x1000, kPermR);
    EXPECT_EQ(small.tlbFill(), 4u);
}

TEST_F(VDtuTest, TlbFlushActRemovesOnlyThatActivity)
{
    vdtuA.tlbInsert(1, 0x1000, 0x1000, kPermR);
    vdtuA.tlbInsert(2, 0x2000, 0x2000, kPermR);
    vdtuA.tlbFlushAct(1);
    EXPECT_EQ(vdtuA.tlbFill(), 1u);
}

TEST_F(VDtuTest, PmpRejectsOutOfRegionAccess)
{
    vdtuB.configEp(8, Endpoint::makeRecv(2, 256, 4));
    vdtuA.configEp(8, Endpoint::makeSend(1, kTileB, 8, 0, 4));
    vdtuA.xchgAct(1);
    // Translation points beyond the 1 MiB PMP region of EP 0.
    vdtuA.tlbInsert(1, 0x5000, 0x200000, kPermRW);
    Error err = Error::None;
    vdtuA.cmdSend(1, 8, 0x5000, bytes("x"), kInvalidEp,
                  [&](Error e) { err = e; });
    eq.run();
    EXPECT_EQ(err, Error::PmpFault);
}

TEST_F(VDtuTest, PmpSelectsEndpointByUpperBits)
{
    // PMP EP 1 (selector 0b01) covers a second region with R only.
    vdtuA.configEp(1, Endpoint::makeMem(dtu::kTileMuxAct, kMemTile,
                                        1 << 20, 1 << 20, kPermR));
    vdtuB.configEp(8, Endpoint::makeRecv(2, 256, 4));
    vdtuA.configEp(8, Endpoint::makeSend(1, kTileB, 8, 0, 4));
    vdtuA.xchgAct(1);

    // Reading a send buffer from the R-only region is fine.
    dtu::PhysAddr phys1 = (1ULL << 62) | 0x3000;
    vdtuA.tlbInsert(1, 0x7000, phys1, kPermRW);
    Error err = Error::Aborted;
    vdtuA.cmdSend(1, 8, 0x7000, bytes("x"), kInvalidEp,
                  [&](Error e) { err = e; });
    eq.run();
    EXPECT_EQ(err, Error::None);

    // But a memory-EP read that lands (writes) into it is not.
    vdtuA.configEp(9, Endpoint::makeMem(1, kMemTile, 0, 4096, kPermR));
    err = Error::None;
    vdtuA.cmdRead(1, 9, 0, 64, 0x7000,
                  [&](Error e, std::vector<std::uint8_t>) { err = e; });
    eq.run();
    EXPECT_EQ(err, Error::PmpFault);
}

TEST_F(VDtuTest, MessageForNonRunningActivityRaisesCoreRequest)
{
    // Receive EP owned by activity 5, but activity 1 is current.
    vdtuB.configEp(8, Endpoint::makeRecv(5, 256, 4));
    vdtuA.configEp(8, Endpoint::makeSend(1, kTileB, 8, 0, 4));
    vdtuA.xchgAct(1);
    vdtuB.xchgAct(1);

    int irqs = 0;
    vdtuB.setCoreReqIrq([&]() { irqs++; });

    dtu::VirtAddr buf = mapped(vdtuA, 1, 0x10000, kPermRW);
    Error err = Error::Aborted;
    vdtuA.cmdSend(1, 8, buf, bytes("wake up"), kInvalidEp,
                  [&](Error e) { err = e; });
    eq.run();

    // Fast path: the message IS stored even though act 5 is not
    // running (the key difference from M3x).
    EXPECT_EQ(err, Error::None);
    EXPECT_EQ(vdtuB.unread(5, 8), 1u);
    EXPECT_EQ(irqs, 1);
    ASSERT_TRUE(vdtuB.coreReqPending());
    EXPECT_EQ(vdtuB.coreReqGet().act, 5);
    vdtuB.coreReqAck();
    EXPECT_FALSE(vdtuB.coreReqPending());
}

TEST_F(VDtuTest, MessageForRunningActivityUpdatesCurActCount)
{
    vdtuB.configEp(8, Endpoint::makeRecv(5, 256, 4));
    vdtuA.configEp(8, Endpoint::makeSend(1, kTileB, 8, 0, 4));
    vdtuA.xchgAct(1);
    vdtuB.xchgAct(5);

    int irqs = 0;
    vdtuB.setCoreReqIrq([&]() { irqs++; });
    dtu::VirtAddr buf = mapped(vdtuA, 1, 0x10000, kPermRW);
    vdtuA.cmdSend(1, 8, buf, bytes("m"), kInvalidEp, [](Error) {});
    eq.run();
    EXPECT_EQ(irqs, 0); // recipient is running: no interrupt
    EXPECT_EQ(vdtuB.curAct().msgCount, 1);
    // Fetch decrements the counter.
    int slot = vdtuB.fetch(5, 8);
    ASSERT_GE(slot, 0);
    EXPECT_EQ(vdtuB.curAct().msgCount, 0);
}

TEST_F(VDtuTest, AckReraisesIrqWhenQueueNonEmpty)
{
    vdtuB.configEp(8, Endpoint::makeRecv(5, 256, 8));
    vdtuB.configEp(9, Endpoint::makeRecv(6, 256, 8));
    vdtuA.configEp(8, Endpoint::makeSend(1, kTileB, 8, 0, 8));
    vdtuA.configEp(9, Endpoint::makeSend(1, kTileB, 9, 0, 8));
    vdtuA.xchgAct(1);
    vdtuB.xchgAct(1);

    int irqs = 0;
    vdtuB.setCoreReqIrq([&]() { irqs++; });
    dtu::VirtAddr buf = mapped(vdtuA, 1, 0x10000, kPermRW);
    vdtuA.cmdSend(1, 8, buf, bytes("a"), kInvalidEp, [](Error) {});
    vdtuA.cmdSend(1, 9, buf, bytes("b"), kInvalidEp, [](Error) {});
    eq.run();
    EXPECT_EQ(irqs, 1); // only the first arrival interrupts
    vdtuB.coreReqAck();
    EXPECT_EQ(irqs, 2); // ack re-raises for the queued request
    vdtuB.coreReqAck();
    EXPECT_EQ(irqs, 2);
}

TEST_F(VDtuTest, SameActBurstCoalescesCoreRequests)
{
    vdtuB.configEp(8, Endpoint::makeRecv(5, 256, 16));
    vdtuA.configEp(8, Endpoint::makeSend(1, kTileB, 8, 0, 16));
    vdtuA.xchgAct(1);
    vdtuB.xchgAct(1);

    int irqs = 0;
    vdtuB.setCoreReqIrq([&]() { irqs++; });
    dtu::VirtAddr buf = mapped(vdtuA, 1, 0x10000, kPermRW);
    int delivered = 0;
    for (int i = 0; i < 6; i++) {
        vdtuA.cmdSend(1, 8, buf, bytes("m"), kInvalidEp,
                      [&](Error e) {
                          if (e == Error::None)
                              delivered++;
                      });
    }
    eq.run();
    // All six messages target the same sleeping activity: they
    // coalesce into one core request — one IRQ, one queue slot, no
    // backpressure even though the queue depth is only 4.
    EXPECT_EQ(delivered, 6);
    EXPECT_EQ(vdtuB.unread(5, 8), 6u);
    EXPECT_EQ(irqs, 1);
    EXPECT_EQ(vdtuB.coreReqs(), 1u);
    EXPECT_EQ(vdtuB.coreReqsCoalesced(), 5u);
    CoreReq req = vdtuB.coreReqGet();
    EXPECT_EQ(req.act, 5);
    EXPECT_EQ(req.count, 6u);
    vdtuB.coreReqAck();
    EXPECT_FALSE(vdtuB.coreReqPending());
}

TEST_F(VDtuTest, FullCoreRequestQueueBackpressuresNoc)
{
    // Six distinct sleeping activities: every message needs its own
    // core-request slot (same-act coalescing cannot absorb any).
    for (EpId i = 0; i < 6; i++) {
        vdtuB.configEp(8 + i, Endpoint::makeRecv(
                                  static_cast<ActId>(5 + i), 256, 16));
        vdtuA.configEp(8 + i,
                       Endpoint::makeSend(1, kTileB, 8 + i, 0, 16));
    }
    vdtuA.xchgAct(1);
    vdtuB.xchgAct(1);
    dtu::VirtAddr buf = mapped(vdtuA, 1, 0x10000, kPermRW);

    int delivered = 0;
    for (EpId i = 0; i < 6; i++) {
        vdtuA.cmdSend(1, 8 + i, buf, bytes("m"), kInvalidEp,
                      [&](Error e) {
                          if (e == Error::None)
                              delivered++;
                      });
    }
    eq.run();
    // Default queue depth is 4: two sends stay backpressured in the
    // NoC until core requests are acknowledged.
    EXPECT_EQ(delivered, 4);
    while (vdtuB.coreReqPending())
        vdtuB.coreReqAck();
    eq.run();
    EXPECT_EQ(delivered, 6);
}

TEST_F(VDtuTest, ResetActClearsUnreadCoreReqsAndTlb)
{
    vdtuB.configEp(8, Endpoint::makeRecv(5, 256, 4));
    vdtuA.configEp(8, Endpoint::makeSend(1, kTileB, 8, 0, 4));
    vdtuA.xchgAct(1);
    vdtuB.xchgAct(1);
    vdtuB.tlbInsert(5, 0x3000, 0x3000, kPermRW);

    dtu::VirtAddr buf = mapped(vdtuA, 1, 0x10000, kPermRW);
    vdtuA.cmdSend(1, 8, buf, bytes("zombie"), kInvalidEp,
                  [](Error) {});
    eq.run();
    EXPECT_EQ(vdtuB.unread(5, 8), 1u);
    EXPECT_TRUE(vdtuB.coreReqPending());
    EXPECT_EQ(vdtuB.tlbFill(), 1u);

    // Activity 5 dies: all of its vDTU state must go with it.
    vdtuB.resetAct(5);
    EXPECT_EQ(vdtuB.unread(5, 8), 0u);
    EXPECT_FALSE(vdtuB.coreReqPending());
    EXPECT_EQ(vdtuB.tlbFill(), 0u);
    // A reused activity id starts with a clean slate.
    EXPECT_EQ(vdtuB.fetch(5, 8), -1);
}

TEST_F(VDtuTest, ResetActReleasesCoreReqBackpressure)
{
    // Distinct activities so the queue actually fills (see above).
    for (EpId i = 0; i < 6; i++) {
        vdtuB.configEp(8 + i, Endpoint::makeRecv(
                                  static_cast<ActId>(5 + i), 256, 16));
        vdtuA.configEp(8 + i,
                       Endpoint::makeSend(1, kTileB, 8 + i, 0, 16));
    }
    vdtuA.xchgAct(1);
    vdtuB.xchgAct(1);
    dtu::VirtAddr buf = mapped(vdtuA, 1, 0x10000, kPermRW);

    int delivered = 0;
    for (EpId i = 0; i < 6; i++) {
        vdtuA.cmdSend(1, 8 + i, buf, bytes("m"), kInvalidEp,
                      [&](Error e) {
                          if (e == Error::None)
                              delivered++;
                      });
    }
    eq.run();
    // Core-request queue (depth 4) is full; two sends are parked in
    // the NoC.
    EXPECT_EQ(delivered, 4);

    // Killing the recipients must free the queue slots and wake the
    // parked senders (previously they would hang forever).
    for (ActId a = 5; a < 9; a++)
        vdtuB.resetAct(a);
    eq.run();
    EXPECT_EQ(delivered, 6);
}

TEST_F(VDtuTest, ResetActOfCurrentClearsMsgCount)
{
    vdtuB.configEp(8, Endpoint::makeRecv(5, 256, 4));
    vdtuA.configEp(8, Endpoint::makeSend(1, kTileB, 8, 0, 4));
    vdtuA.xchgAct(1);
    vdtuB.xchgAct(5);

    dtu::VirtAddr buf = mapped(vdtuA, 1, 0x10000, kPermRW);
    vdtuA.cmdSend(1, 8, buf, bytes("m"), kInvalidEp, [](Error) {});
    eq.run();
    EXPECT_EQ(vdtuB.curAct().msgCount, 1);

    vdtuB.resetAct(5);
    EXPECT_EQ(vdtuB.curAct().msgCount, 0);
    EXPECT_EQ(vdtuB.unread(5, 8), 0u);
}

TEST_F(VDtuTest, ResetActLeavesOtherActivitiesAlone)
{
    vdtuB.configEp(8, Endpoint::makeRecv(5, 256, 4));
    vdtuB.configEp(9, Endpoint::makeRecv(6, 256, 4));
    vdtuA.configEp(8, Endpoint::makeSend(1, kTileB, 8, 0, 4));
    vdtuA.configEp(9, Endpoint::makeSend(1, kTileB, 9, 0, 4));
    vdtuA.xchgAct(1);
    vdtuB.xchgAct(1);
    vdtuB.tlbInsert(6, 0x6000, 0x6000, kPermR);

    dtu::VirtAddr buf = mapped(vdtuA, 1, 0x10000, kPermRW);
    vdtuA.cmdSend(1, 8, buf, bytes("a"), kInvalidEp, [](Error) {});
    vdtuA.cmdSend(1, 9, buf, bytes("b"), kInvalidEp, [](Error) {});
    eq.run();
    EXPECT_EQ(vdtuB.unread(5, 8), 1u);
    EXPECT_EQ(vdtuB.unread(6, 9), 1u);

    vdtuB.resetAct(5);
    EXPECT_EQ(vdtuB.unread(5, 8), 0u);
    EXPECT_EQ(vdtuB.unread(6, 9), 1u);
    EXPECT_EQ(vdtuB.tlbFill(), 1u);
    // Activity 6's core request survives.
    ASSERT_TRUE(vdtuB.coreReqPending());
    EXPECT_EQ(vdtuB.coreReqGet().act, 6);
}

//
// resetAct edge cases: reset with a full receive ring, and double
// reset.
//

TEST_F(VDtuTest, ResetWithFullRecvRingReturnsAllCredits)
{
    vdtuB.configEp(8, Endpoint::makeRecv(5, 256, 4));
    vdtuA.configEp(9, Endpoint::makeSend(1, kTileB, 8, 0, 4));
    vdtuA.xchgAct(1);
    vdtuB.xchgAct(1);
    dtu::VirtAddr buf = mapped(vdtuA, 1, 0x10000, kPermRW);

    // Fill the ring completely without fetching: all credits are held
    // by occupied slots on the receiver.
    int ok = 0;
    for (int i = 0; i < 4; i++)
        vdtuA.cmdSend(1, 9, buf, bytes("m"), kInvalidEp, [&](Error e) {
            ok += e == Error::None ? 1 : 0;
        });
    eq.run();
    ASSERT_EQ(ok, 4);
    EXPECT_EQ(vdtuB.unread(5, 8), 4u);
    EXPECT_EQ(vdtuA.ep(9).send.credits, 0u);

    // The reset must free every slot and return every credit.
    vdtuB.resetAct(5);
    eq.run();
    EXPECT_EQ(vdtuB.unread(5, 8), 0u);
    EXPECT_EQ(vdtuA.ep(9).send.credits, 4u);

    // The ring is usable again at full depth.
    ok = 0;
    for (int i = 0; i < 4; i++)
        vdtuA.cmdSend(1, 9, buf, bytes("m"), kInvalidEp, [&](Error e) {
            ok += e == Error::None ? 1 : 0;
        });
    eq.run();
    EXPECT_EQ(ok, 4);
    EXPECT_EQ(vdtuB.unread(5, 8), 4u);
}

TEST_F(VDtuTest, DoubleResetDoesNotManufactureCredits)
{
    vdtuB.configEp(8, Endpoint::makeRecv(5, 256, 4));
    vdtuA.configEp(9, Endpoint::makeSend(1, kTileB, 8, 0, 4));
    vdtuA.xchgAct(1);
    vdtuB.xchgAct(1);
    dtu::VirtAddr buf = mapped(vdtuA, 1, 0x10000, kPermRW);

    for (int i = 0; i < 2; i++)
        vdtuA.cmdSend(1, 9, buf, bytes("m"), kInvalidEp, [](Error) {});
    eq.run();
    EXPECT_EQ(vdtuA.ep(9).send.credits, 2u);

    vdtuB.resetAct(5);
    eq.run();
    EXPECT_EQ(vdtuA.ep(9).send.credits, 4u);

    // A second reset of the same (already clean) activity must be a
    // no-op: no second round of credit returns, no phantom state.
    vdtuB.resetAct(5);
    eq.run();
    EXPECT_EQ(vdtuA.ep(9).send.credits, 4u);
    EXPECT_EQ(vdtuB.unread(5, 8), 0u);
    EXPECT_FALSE(vdtuB.coreReqPending());

    // Exactly four sends fit before flow control pushes back.
    int errs_none = 0, errs_nocredits = 0;
    for (int i = 0; i < 5; i++)
        vdtuA.cmdSend(1, 9, buf, bytes("m"), kInvalidEp, [&](Error e) {
            errs_none += e == Error::None ? 1 : 0;
            errs_nocredits += e == Error::NoCredits ? 1 : 0;
        });
    eq.run();
    EXPECT_EQ(errs_none, 4);
    EXPECT_EQ(errs_nocredits, 1);
}

} // namespace
} // namespace m3v::core
