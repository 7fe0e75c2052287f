/**
 * @file
 * Unit tests for the base DTU: message passing between endpoints,
 * credits, replies, nacks, memory endpoints against a memory tile,
 * the external (controller) interface, and the Error enum's name
 * table.
 */

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "dtu/dtu.h"
#include "dtu/memory_tile.h"

namespace m3v::dtu {
namespace {

std::vector<std::uint8_t>
bytes(const std::string &s)
{
    return std::vector<std::uint8_t>(s.begin(), s.end());
}

std::string
str(const std::vector<std::uint8_t> &v)
{
    return std::string(v.begin(), v.end());
}

TEST(DtuErrorTest, EveryErrorHasAUniqueName)
{
    std::set<std::string> names;
    for (std::size_t i = 0; i < kNumErrors; i++) {
        const char *n = errorName(static_cast<Error>(i));
        ASSERT_NE(n, nullptr);
        EXPECT_NE(std::string(n), "?");
        names.insert(n);
    }
    EXPECT_EQ(names.size(), kNumErrors);
}

class DtuTest : public ::testing::Test
{
  protected:
    static constexpr noc::TileId kTileA = 0;
    static constexpr noc::TileId kTileB = 1;
    static constexpr noc::TileId kMemTile = 2;
    static constexpr std::uint64_t kFreq = 100'000'000;

    DtuTest()
        : noc(eq, noc::NocParams{}),
          dtuA(eq, "dtuA", noc, kTileA, kFreq),
          dtuB(eq, "dtuB", noc, kTileB, kFreq),
          mem(eq, "mem", noc, kMemTile)
    {
        noc.finalize();
    }

    /** Wire up a send(A) -> recv(B) channel with given credits. */
    void
    channel(EpId sep, EpId rep, std::uint32_t credits,
            std::uint64_t label = 0x1234)
    {
        dtuB.configEp(rep, Endpoint::makeRecv(0, 256, 8));
        dtuA.configEp(sep, Endpoint::makeSend(0, kTileB, rep, label,
                                              credits));
    }

    sim::EventQueue eq;
    noc::Noc noc;
    Dtu dtuA;
    Dtu dtuB;
    MemoryTile mem;
};

TEST_F(DtuTest, SendDeliversMessage)
{
    channel(4, 4, 4);
    Error err = Error::Aborted;
    dtuA.cmdSend(0, 4, 0x1000, bytes("hello"), kInvalidEp,
                 [&](Error e) { err = e; });
    eq.run();
    EXPECT_EQ(err, Error::None);
    ASSERT_EQ(dtuB.unread(0, 4), 1u);
    int slot = dtuB.fetch(0, 4);
    ASSERT_GE(slot, 0);
    const Message &m = dtuB.slotMsg(4, slot);
    EXPECT_EQ(str(m.payload), "hello");
    EXPECT_EQ(m.label, 0x1234u);
    EXPECT_EQ(m.srcTile, kTileA);
    EXPECT_FALSE(m.canReply);
    EXPECT_EQ(dtuB.unread(0, 4), 0u);
}

TEST_F(DtuTest, SendConsumesAndAckReturnsCredits)
{
    channel(4, 4, 2);
    int ok = 0, nocredit = 0;
    auto send = [&]() {
        dtuA.cmdSend(0, 4, 0x1000, bytes("x"), kInvalidEp,
                     [&](Error e) {
                         if (e == Error::None)
                             ok++;
                         else if (e == Error::NoCredits)
                             nocredit++;
                     });
    };
    send();
    send();
    send();
    eq.run();
    EXPECT_EQ(ok, 2);
    EXPECT_EQ(nocredit, 1);

    // Acknowledge one message: credit flows back, send succeeds again.
    int slot = dtuB.fetch(0, 4);
    ASSERT_GE(slot, 0);
    dtuB.ack(0, 4, slot);
    eq.run();
    send();
    eq.run();
    EXPECT_EQ(ok, 3);
}

TEST_F(DtuTest, ReplyRoundTrip)
{
    channel(4, 4, 4);
    // Reply endpoint on A.
    dtuA.configEp(5, Endpoint::makeRecv(0, 256, 4));

    Error serr = Error::Aborted;
    dtuA.cmdSend(0, 4, 0x1000, bytes("ping"), 5,
                 [&](Error e) { serr = e; });
    eq.run();
    ASSERT_EQ(serr, Error::None);

    int slot = dtuB.fetch(0, 4);
    ASSERT_GE(slot, 0);
    EXPECT_TRUE(dtuB.slotMsg(4, slot).canReply);

    Error rerr = Error::Aborted;
    dtuB.cmdReply(0, 4, slot, 0x2000, bytes("pong"),
                  [&](Error e) { rerr = e; });
    eq.run();
    EXPECT_EQ(rerr, Error::None);

    int rslot = dtuA.fetch(0, 5);
    ASSERT_GE(rslot, 0);
    EXPECT_EQ(str(dtuA.slotMsg(5, rslot).payload), "pong");

    // Reply acknowledged the original message: slot free, credit back.
    Error serr2 = Error::Aborted;
    dtuA.cmdSend(0, 4, 0x1000, bytes("again"), 5,
                 [&](Error e) { serr2 = e; });
    eq.run();
    EXPECT_EQ(serr2, Error::None);
    const Endpoint &sep = dtuA.ep(4);
    EXPECT_EQ(sep.send.credits, 3u); // one message outstanding
}

TEST_F(DtuTest, SecondReplyIsRejected)
{
    channel(4, 4, 4);
    dtuA.configEp(5, Endpoint::makeRecv(0, 256, 4));
    dtuA.cmdSend(0, 4, 0x1000, bytes("ping"), 5, [](Error) {});
    eq.run();
    int slot = dtuB.fetch(0, 4);
    dtuB.cmdReply(0, 4, slot, 0, bytes("pong"), [](Error) {});
    eq.run();
    Error rerr = Error::None;
    dtuB.cmdReply(0, 4, slot, 0, bytes("pong2"),
                  [&](Error e) { rerr = e; });
    eq.run();
    EXPECT_EQ(rerr, Error::NoReplyAllowed);
}

TEST_F(DtuTest, SendToInvalidEpNacks)
{
    dtuA.configEp(4, Endpoint::makeSend(0, kTileB, 9, 0, 2));
    Error err = Error::None;
    dtuA.cmdSend(0, 4, 0x1000, bytes("lost"), kInvalidEp,
                 [&](Error e) { err = e; });
    eq.run();
    EXPECT_EQ(err, Error::RecvGone);
    EXPECT_EQ(dtuA.nacksReceived(), 1u);
    // Credit was restored.
    EXPECT_EQ(dtuA.ep(4).send.credits, 2u);
}

TEST_F(DtuTest, SendBeyondMaxSizeFails)
{
    channel(4, 4, 4);
    Error err = Error::None;
    dtuA.cmdSend(0, 4, 0x1000, std::vector<std::uint8_t>(4096, 7),
                 kInvalidEp, [&](Error e) { err = e; });
    eq.run();
    EXPECT_EQ(err, Error::MsgTooBig);
}

TEST_F(DtuTest, SendFromNonSendEpFails)
{
    dtuA.configEp(4, Endpoint::makeRecv(0, 256, 4));
    Error err = Error::None;
    dtuA.cmdSend(0, 4, 0x1000, bytes("x"), kInvalidEp,
                 [&](Error e) { err = e; });
    eq.run();
    EXPECT_EQ(err, Error::InvalidEp);
}

TEST_F(DtuTest, LocalLoopbackDelivery)
{
    // Transparent multiplexing: tile-local messages also go through
    // the DTU (to a recv EP on the same tile).
    dtuA.configEp(6, Endpoint::makeRecv(0, 256, 4));
    dtuA.configEp(7, Endpoint::makeSend(0, kTileA, 6, 0xbeef, 2));
    Error err = Error::Aborted;
    dtuA.cmdSend(0, 7, 0x1000, bytes("local"), kInvalidEp,
                 [&](Error e) { err = e; });
    eq.run();
    EXPECT_EQ(err, Error::None);
    int slot = dtuA.fetch(0, 6);
    ASSERT_GE(slot, 0);
    EXPECT_EQ(str(dtuA.slotMsg(6, slot).payload), "local");
}

TEST_F(DtuTest, LocalDeliveryIsFasterThanRemote)
{
    dtuA.configEp(6, Endpoint::makeRecv(0, 256, 4));
    dtuA.configEp(7, Endpoint::makeSend(0, kTileA, 6, 0, 2));
    channel(4, 4, 4);

    sim::Tick local_done = 0, remote_done = 0;
    dtuA.cmdSend(0, 7, 0, bytes("l"), kInvalidEp,
                 [&](Error) { local_done = eq.now(); });
    eq.run();
    sim::Tick start = eq.now();
    dtuA.cmdSend(0, 4, 0, bytes("r"), kInvalidEp,
                 [&](Error) { remote_done = eq.now(); });
    eq.run();
    EXPECT_LT(local_done, remote_done - start);
}

TEST_F(DtuTest, MemoryReadWriteRoundTrip)
{
    PhysAddr region = mem.alloc(8192);
    dtuA.configEp(2, Endpoint::makeMem(0, kMemTile, region, 8192,
                                       kPermRW));

    Error werr = Error::Aborted;
    dtuA.cmdWrite(0, 2, 128, bytes("persistent data"), 0x3000,
                  [&](Error e) { werr = e; });
    eq.run();
    ASSERT_EQ(werr, Error::None);

    Error rerr = Error::Aborted;
    std::vector<std::uint8_t> got;
    dtuA.cmdRead(0, 2, 128, 15, 0x3000,
                 [&](Error e, std::vector<std::uint8_t> d) {
                     rerr = e;
                     got = std::move(d);
                 });
    eq.run();
    ASSERT_EQ(rerr, Error::None);
    EXPECT_EQ(str(got), "persistent data");
}

TEST_F(DtuTest, MemoryPermissionsEnforced)
{
    PhysAddr region = mem.alloc(4096);
    dtuA.configEp(2, Endpoint::makeMem(0, kMemTile, region, 4096,
                                       kPermR));
    Error werr = Error::None;
    dtuA.cmdWrite(0, 2, 0, bytes("nope"), 0,
                  [&](Error e) { werr = e; });
    eq.run();
    EXPECT_EQ(werr, Error::PmpFault);

    dtuA.configEp(3, Endpoint::makeMem(0, kMemTile, region, 4096,
                                       kPermW));
    Error rerr = Error::None;
    dtuA.cmdRead(0, 3, 0, 16, 0,
                 [&](Error e, std::vector<std::uint8_t>) { rerr = e; });
    eq.run();
    EXPECT_EQ(rerr, Error::PmpFault);
}

TEST_F(DtuTest, MemoryOutOfBoundsRejected)
{
    PhysAddr region = mem.alloc(4096);
    dtuA.configEp(2, Endpoint::makeMem(0, kMemTile, region, 4096,
                                       kPermRW));
    Error err = Error::None;
    dtuA.cmdRead(0, 2, 4000, 200, 0,
                 [&](Error e, std::vector<std::uint8_t>) { err = e; });
    eq.run();
    EXPECT_EQ(err, Error::OutOfBounds);

    // Inside a large enough EP, one command still moves at most a page.
    PhysAddr big = mem.alloc(4 * kPageSize);
    dtuA.configEp(3, Endpoint::makeMem(0, kMemTile, big, 4 * kPageSize,
                                       kPermRW));
    Error rerr = Error::None;
    dtuA.cmdRead(0, 3, 0, kPageSize + 1, 0,
                 [&](Error e, std::vector<std::uint8_t>) { rerr = e; });
    eq.run();
    EXPECT_EQ(rerr, Error::OutOfBounds);
    Error werr = Error::None;
    dtuA.cmdWrite(0, 3, 0, std::vector<std::uint8_t>(kPageSize + 1, 1),
                  0, [&](Error e) { werr = e; });
    eq.run();
    EXPECT_EQ(werr, Error::OutOfBounds);
}

TEST_F(DtuTest, MemoryWrappedOffsetRejected)
{
    // Two adjacent regions; the EP covers only the second. An offset
    // of 2^64 - 8 wraps the end check and would reach the neighbour.
    PhysAddr first = mem.alloc(4096);
    PhysAddr second = mem.alloc(4096);
    ASSERT_EQ(second, first + 4096);
    const std::string secret = "SECRET!!";
    mem.dram().write(first + 4096 - secret.size(), secret.data(),
                     secret.size());
    dtuA.configEp(2, Endpoint::makeMem(0, kMemTile, second, 4096,
                                       kPermRW));
    const std::uint64_t wrapped = ~std::uint64_t{0} - 7;

    Error rerr = Error::None;
    std::vector<std::uint8_t> got;
    dtuA.cmdRead(0, 2, wrapped, 16, 0,
                 [&](Error e, std::vector<std::uint8_t> d) {
                     rerr = e;
                     got = std::move(d);
                 });
    eq.run();
    EXPECT_EQ(rerr, Error::OutOfBounds);
    EXPECT_TRUE(got.empty());

    Error werr = Error::None;
    dtuA.cmdWrite(0, 2, wrapped, bytes("overwrite_neighbor"), 0,
                  [&](Error e) { werr = e; });
    eq.run();
    EXPECT_EQ(werr, Error::OutOfBounds);
    std::string left(secret.size(), '\0');
    mem.dram().read(first + 4096 - secret.size(), left.data(),
                    left.size());
    EXPECT_EQ(left, secret);
}

TEST_F(DtuTest, ExternalInterfaceConfiguresRemoteEps)
{
    // "Controller" on tile A installs a recv EP on tile B remotely.
    std::vector<Endpoint> eps;
    eps.push_back(Endpoint::makeRecv(3, 128, 4));
    bool done = false;
    dtuA.extRequest(kTileB, ExtOp::SetEp, 9, std::move(eps), 1,
                    [&](Error e, std::vector<Endpoint>) {
                        EXPECT_EQ(e, Error::None);
                        done = true;
                    });
    eq.run();
    ASSERT_TRUE(done);
    EXPECT_EQ(dtuB.ep(9).kind, EpKind::Receive);
    EXPECT_EQ(dtuB.ep(9).act, 3);

    // And invalidates it again.
    done = false;
    dtuA.extRequest(kTileB, ExtOp::InvEp, 9, {}, 1,
                    [&](Error, std::vector<Endpoint>) { done = true; });
    eq.run();
    ASSERT_TRUE(done);
    EXPECT_EQ(dtuB.ep(9).kind, EpKind::Invalid);
}

TEST_F(DtuTest, ExternalBulkSaveRestore)
{
    // M3x-style DTU state save: read EPs 4..7 from B, write them back.
    for (EpId i = 4; i < 8; i++)
        dtuB.configEp(i, Endpoint::makeRecv(0, 64, 2));

    std::vector<Endpoint> saved;
    dtuA.extRequest(kTileB, ExtOp::ReadEps, 4, {}, 4,
                    [&](Error e, std::vector<Endpoint> eps) {
                        EXPECT_EQ(e, Error::None);
                        saved = std::move(eps);
                    });
    eq.run();
    ASSERT_EQ(saved.size(), 4u);

    for (EpId i = 4; i < 8; i++)
        dtuB.invalidateEp(i);
    bool done = false;
    dtuA.extRequest(kTileB, ExtOp::WriteEps, 4, saved, 4,
                    [&](Error, std::vector<Endpoint>) { done = true; });
    eq.run();
    ASSERT_TRUE(done);
    for (EpId i = 4; i < 8; i++)
        EXPECT_EQ(dtuB.ep(i).kind, EpKind::Receive);
}

TEST_F(DtuTest, CommandsSerializeFifo)
{
    channel(4, 4, 8);
    std::vector<int> order;
    for (int i = 0; i < 4; i++) {
        dtuA.cmdSend(0, 4, 0, bytes("m"), kInvalidEp,
                     [&order, i](Error) { order.push_back(i); });
    }
    EXPECT_TRUE(dtuA.cmdBusy());
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
    EXPECT_FALSE(dtuA.cmdBusy());
    EXPECT_EQ(dtuB.unread(0, 4), 4u);
}

TEST_F(DtuTest, FetchOrderIsArrivalOrder)
{
    channel(4, 4, 8);
    for (int i = 0; i < 3; i++)
        dtuA.cmdSend(0, 4, 0, bytes(std::string(1, 'a' + i)),
                     kInvalidEp, [](Error) {});
    eq.run();
    for (int i = 0; i < 3; i++) {
        int slot = dtuB.fetch(0, 4);
        ASSERT_GE(slot, 0);
        EXPECT_EQ(str(dtuB.slotMsg(4, slot).payload),
                  std::string(1, 'a' + i));
    }
    EXPECT_EQ(dtuB.fetch(0, 4), -1);
}

TEST_F(DtuTest, StatsCountTraffic)
{
    channel(4, 4, 8);
    dtuA.cmdSend(0, 4, 0, bytes("m"), kInvalidEp, [](Error) {});
    eq.run();
    EXPECT_EQ(dtuA.msgsSent(), 1u);
    EXPECT_EQ(dtuB.msgsReceived(), 1u);
}

TEST_F(DtuTest, ReplyToBadEpOrSlotFails)
{
    channel(4, 4, 4);
    dtuA.configEp(5, Endpoint::makeRecv(0, 256, 4));
    dtuA.cmdSend(0, 4, 0x1000, bytes("ping"), 5, [](Error) {});
    eq.run();
    ASSERT_GE(dtuB.fetch(0, 4), 0);
    dtuB.configEp(3, Endpoint::makeSend(0, kTileA, 5, 0, 2));
    // A send EP cannot reply; the receive EP has 8 slots, so 8 is one
    // past the end and -1 one before it.
    const std::pair<EpId, int> cases[] = {{3, 0}, {4, 8}, {4, -1}};
    for (auto [ep, slot] : cases) {
        Error err = Error::None;
        dtuB.cmdReply(0, ep, slot, 0, bytes("pong"),
                      [&](Error e) { err = e; });
        eq.run();
        EXPECT_EQ(err, Error::InvalidEp)
            << "ep " << ep << " slot " << slot;
    }
}

TEST_F(DtuTest, ReadThroughSendEpFails)
{
    channel(4, 4, 4);
    Error err = Error::None;
    dtuA.cmdRead(0, 4, 0, 16, 0,
                 [&](Error e, std::vector<std::uint8_t>) { err = e; });
    eq.run();
    EXPECT_EQ(err, Error::InvalidEp);
}

TEST_F(DtuTest, CommandCompletionTicksArePinned)
{
    // Each command's latency on the idle fabric: decode + TLB, checks,
    // DMA out (not for READ), the wire round trip and, for READ, the
    // DMA in. Dropping or adding any stage delay moves a pin.
    channel(4, 4, 4);
    dtuA.configEp(5, Endpoint::makeRecv(0, 256, 4));
    PhysAddr region = mem.alloc(kPageSize);
    dtuA.configEp(2, Endpoint::makeMem(0, kMemTile, region, kPageSize,
                                       kPermRW));
    auto latency = [&](auto issue) {
        sim::Tick start = eq.now();
        sim::Tick done = 0;
        issue([&]() { done = eq.now(); });
        eq.run();
        return done - start;
    };

    sim::Tick send = latency([&](auto finish) {
        dtuA.cmdSend(0, 4, 0, std::vector<std::uint8_t>(64, 1), 5,
                     [finish](Error e) {
                         EXPECT_EQ(e, Error::None);
                         finish();
                     });
    });
    int slot = dtuB.fetch(0, 4);
    ASSERT_GE(slot, 0);
    sim::Tick reply = latency([&](auto finish) {
        dtuB.cmdReply(0, 4, slot, 0, std::vector<std::uint8_t>(32, 2),
                      [finish](Error e) {
                          EXPECT_EQ(e, Error::None);
                          finish();
                      });
    });
    sim::Tick write = latency([&](auto finish) {
        dtuA.cmdWrite(0, 2, 0, std::vector<std::uint8_t>(256, 3), 0,
                      [finish](Error e) {
                          EXPECT_EQ(e, Error::None);
                          finish();
                      });
    });
    sim::Tick read = latency([&](auto finish) {
        dtuA.cmdRead(0, 2, 0, 256, 0,
                     [finish](Error e, std::vector<std::uint8_t> d) {
                         EXPECT_EQ(e, Error::None);
                         EXPECT_EQ(d.size(), 256u);
                         finish();
                     });
    });
    EXPECT_EQ(send, 1470000u);
    EXPECT_EQ(reply, 1440000u);
    EXPECT_EQ(write, 1940000u);
    EXPECT_EQ(read, 1940000u);
}

} // namespace
} // namespace m3v::dtu
