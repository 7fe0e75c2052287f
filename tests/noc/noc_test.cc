/**
 * @file
 * Unit tests for the NoC: delivery, latency scaling, ordering,
 * backpressure, and topology/routing properties.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "noc/noc.h"
#include "sim/event_queue.h"

namespace m3v::noc {
namespace {

struct TestPayload : PacketData
{
    explicit TestPayload(int v) : value(v) {}
    int value;
};

/** A sink that records deliveries and can simulate fullness. */
struct RecordingSink : HopTarget
{
    std::vector<std::pair<sim::Tick, int>> received;
    sim::EventQueue *eq = nullptr;
    bool full = false;
    std::vector<sim::UniqueFunction<void()>> waiters;

    bool
    acceptPacket(Packet &pkt, sim::UniqueFunction<void()> on_space) override
    {
        if (full) {
            waiters.push_back(std::move(on_space));
            return false;
        }
        auto *p = dynamic_cast<TestPayload *>(pkt.data.get());
        received.emplace_back(eq->now(), p ? p->value : -1);
        Packet consumed = std::move(pkt);
        return true;
    }

    void
    unblock()
    {
        full = false;
        auto w = std::move(waiters);
        waiters.clear();
        for (auto &cb : w)
            cb();
    }
};

Packet
makePacket(TileId src, TileId dst, std::size_t bytes, int tag)
{
    Packet pkt;
    pkt.src = src;
    pkt.dst = dst;
    pkt.bytes = bytes;
    pkt.data = std::make_unique<TestPayload>(tag);
    return pkt;
}

class NocTest : public ::testing::Test
{
  protected:
    void
    build(unsigned tiles, NocParams params = {})
    {
        noc = std::make_unique<Noc>(eq, params);
        sinks.resize(tiles);
        for (unsigned i = 0; i < tiles; i++) {
            sinks[i] = std::make_unique<RecordingSink>();
            sinks[i]->eq = &eq;
            noc->attachTile(i, sinks[i].get());
        }
        noc->finalize();
    }

    void
    send(TileId src, TileId dst, std::size_t bytes, int tag)
    {
        Packet pkt = makePacket(src, dst, bytes, tag);
        ASSERT_TRUE(noc->inject(pkt, []() {}));
    }

    /** Inject honouring backpressure: retry whenever space frees. */
    void
    sendRetry(TileId src, TileId dst, std::size_t bytes, int tag)
    {
        auto pkt = std::make_shared<Packet>(
            makePacket(src, dst, bytes, tag));
        auto attempt = std::make_shared<std::function<void()>>();
        retries_.push_back(attempt); // owner: avoids a self-cycle
        std::weak_ptr<std::function<void()>> weak = attempt;
        *attempt = [this, pkt, weak]() {
            noc->inject(*pkt, [weak]() {
                if (auto fn = weak.lock())
                    (*fn)();
            });
        };
        (*attempt)();
    }

    std::vector<std::shared_ptr<std::function<void()>>> retries_;

    sim::EventQueue eq;
    std::unique_ptr<Noc> noc;
    std::vector<std::unique_ptr<RecordingSink>> sinks;
};

TEST_F(NocTest, DeliversToDestination)
{
    build(4);
    send(0, 3, 64, 42);
    eq.run();
    ASSERT_EQ(sinks[3]->received.size(), 1u);
    EXPECT_EQ(sinks[3]->received[0].second, 42);
    EXPECT_EQ(noc->delivered(), 1u);
    for (unsigned i = 0; i < 3; i++)
        EXPECT_TRUE(sinks[i]->received.empty());
}

TEST_F(NocTest, LatencyIsDozensOfNanoseconds)
{
    // The paper quotes "dozens of nanoseconds" tile-to-tile latency.
    build(8);
    send(0, 5, 16, 1);
    eq.run();
    ASSERT_EQ(sinks[5]->received.size(), 1u);
    sim::Tick t = sinks[5]->received[0].first;
    EXPECT_GE(t, 20 * sim::kTicksPerNs);
    EXPECT_LE(t, 300 * sim::kTicksPerNs);
}

TEST_F(NocTest, MoreHopsMoreLatency)
{
    build(8);
    // Tiles 0..7 round-robin over 4 routers: tile 0 -> r0, tile 4 ->
    // r0, tile 3 -> r3. Same-router vs diagonal-router latency.
    send(0, 4, 16, 1);
    eq.run();
    sim::Tick same_router = sinks[4]->received[0].first;

    sim::Tick start = eq.now();
    send(0, 3, 16, 2);
    eq.run();
    sim::Tick diagonal = sinks[3]->received[0].first - start;
    EXPECT_GT(diagonal, same_router);
    EXPECT_EQ(noc->hopCount(0, 4), 0u);
    EXPECT_EQ(noc->hopCount(0, 3), 2u);
}

TEST_F(NocTest, BiggerPacketsTakeLonger)
{
    build(4);
    send(0, 1, 16, 1);
    eq.run();
    sim::Tick small = sinks[1]->received[0].first;
    sim::Tick start = eq.now();
    send(0, 1, 4096, 2);
    eq.run();
    sim::Tick big = sinks[1]->received[1].first - start;
    EXPECT_GT(big, small);
    // 4096 bytes at 16 B/cycle @ 100 MHz is 2.56us of serialization.
    EXPECT_GE(big, 2 * sim::kTicksPerUs);
}

TEST_F(NocTest, SameFlowStaysOrdered)
{
    build(4);
    for (int i = 0; i < 10; i++)
        sendRetry(0, 2, 64, i);
    eq.run();
    ASSERT_EQ(sinks[2]->received.size(), 10u);
    for (int i = 0; i < 10; i++)
        EXPECT_EQ(sinks[2]->received[static_cast<size_t>(i)].second, i);
}

TEST_F(NocTest, BackpressureHoldsPacketsUntilSinkDrains)
{
    build(4);
    sinks[1]->full = true;
    for (int i = 0; i < 3; i++)
        send(0, 1, 32, i);
    eq.run();
    EXPECT_TRUE(sinks[1]->received.empty());
    sinks[1]->unblock();
    eq.run();
    ASSERT_EQ(sinks[1]->received.size(), 3u);
    for (int i = 0; i < 3; i++)
        EXPECT_EQ(sinks[1]->received[static_cast<size_t>(i)].second, i);
}

TEST_F(NocTest, InjectionBackpressureReportsFullness)
{
    build(4);
    sinks[1]->full = true;
    // Fill: 4 in the injection queue and more stuck downstream.
    int accepted = 0, rejected = 0;
    int resumed = 0;
    for (int i = 0; i < 32; i++) {
        Packet pkt = makePacket(0, 1, 64, i);
        if (noc->inject(pkt, [&]() { resumed++; })) {
            accepted++;
        } else {
            rejected++;
        }
        eq.run();
    }
    EXPECT_GT(rejected, 0);
    EXPECT_GT(accepted, 3);
    sinks[1]->unblock();
    eq.run();
    EXPECT_GT(resumed, 0);
}

TEST_F(NocTest, ManyToOneAllArrive)
{
    build(12);
    for (unsigned src = 1; src < 12; src++)
        for (int k = 0; k < 5; k++)
            sendRetry(src, 0, 128, static_cast<int>(src * 100) + k);
    eq.run();
    EXPECT_EQ(sinks[0]->received.size(), 55u);
    EXPECT_EQ(noc->delivered(), 55u);
}

TEST_F(NocTest, SelfSendDeliversLocally)
{
    // A DTU may send to an endpoint on its own tile (transparent
    // multiplexing sends tile-local messages through the fabric too).
    build(4);
    send(2, 2, 64, 9);
    eq.run();
    ASSERT_EQ(sinks[2]->received.size(), 1u);
    EXPECT_EQ(sinks[2]->received[0].second, 9);
}

TEST_F(NocTest, DeliveredBytesAccumulate)
{
    build(4);
    send(0, 1, 100, 1);
    send(1, 2, 200, 2);
    eq.run();
    EXPECT_EQ(noc->deliveredBytes(), 300u);
}

TEST_F(NocTest, HopCountIsManhattanAndSymmetric)
{
    // Default mesh is 2x2; tiles are spread round-robin, so tile i
    // sits on router i % 4 at (x, y) = (r % 2, r / 2).
    build(8);
    for (TileId a = 0; a < 8; a++) {
        EXPECT_EQ(noc->hopCount(a, a), 0u);
        for (TileId b = 0; b < 8; b++) {
            unsigned ra = a % 4, rb = b % 4;
            unsigned manhattan =
                (ra % 2 > rb % 2 ? ra % 2 - rb % 2 : rb % 2 - ra % 2) +
                (ra / 2 > rb / 2 ? ra / 2 - rb / 2 : rb / 2 - ra / 2);
            EXPECT_EQ(noc->hopCount(a, b), manhattan);
            EXPECT_EQ(noc->hopCount(a, b), noc->hopCount(b, a));
        }
    }
}

TEST_F(NocTest, OnSpaceFiresExactlyOncePerRejectedInject)
{
    build(4);
    sinks[1]->full = true;
    // Fill the injection port and everything downstream.
    while (true) {
        Packet pkt = makePacket(0, 1, 64, 0);
        if (!noc->inject(pkt, []() {}))
            break;
        eq.run();
    }
    // The next rejected inject registers a waiter that must fire
    // exactly once, even though many packets drain afterwards.
    int fired = 0;
    Packet pkt = makePacket(0, 1, 64, 1);
    ASSERT_FALSE(noc->inject(pkt, [&]() { fired++; }));
    sinks[1]->unblock();
    eq.run();
    EXPECT_EQ(fired, 1);
}

class NocMeshParamTest
    : public ::testing::TestWithParam<std::tuple<unsigned, unsigned>>
{
};

TEST_P(NocMeshParamTest, AllPairsDeliverOnArbitraryMeshes)
{
    auto [cols, tiles] = GetParam();
    sim::EventQueue eq;
    NocParams params;
    params.meshCols = cols;
    params.meshRows = 2;
    Noc noc(eq, params);
    std::vector<std::unique_ptr<RecordingSink>> sinks(tiles);
    for (unsigned i = 0; i < tiles; i++) {
        sinks[i] = std::make_unique<RecordingSink>();
        sinks[i]->eq = &eq;
        noc.attachTile(i, sinks[i].get());
    }
    noc.finalize();

    unsigned expected = 0;
    for (unsigned s = 0; s < tiles; s++) {
        for (unsigned d = 0; d < tiles; d++) {
            if (s == d)
                continue;
            Packet pkt = makePacket(s, d, 32,
                                    static_cast<int>(s * 1000 + d));
            ASSERT_TRUE(noc.inject(pkt, []() {}));
            eq.run();
            expected++;
        }
    }
    EXPECT_EQ(noc.delivered(), expected);
}

INSTANTIATE_TEST_SUITE_P(Meshes, NocMeshParamTest,
    ::testing::Values(std::make_tuple(2u, 4u), std::make_tuple(2u, 11u),
                      std::make_tuple(3u, 9u), std::make_tuple(4u, 16u),
                      std::make_tuple(1u, 3u)));

} // namespace
} // namespace m3v::noc
