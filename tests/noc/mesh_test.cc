/**
 * @file
 * Tests for the generalized k-ary 2D mesh fabric: XY route
 * enumeration against the installed routing tables (cycle-free,
 * minimal hops, dimension-ordered), per-hop credit
 * exhaustion and backpressure, the re-attached tile panic,
 * NocParams::forTiles() sizing, and a 64-tile
 * chaos-parallel run on the router lane plan that must be
 * digest-identical for jobs in {1, 2, 4}.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "noc/noc.h"
#include "sim/event_queue.h"
#include "sim/lane.h"

namespace m3v::noc {
namespace {

struct TestPayload : PacketData
{
    explicit TestPayload(int v) : value(v) {}
    int value;
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

/** Null sink for topology-only tests. */
struct DropSink : HopTarget
{
    bool
    acceptPacket(Packet &pkt, sim::UniqueFunction<void()>) override
    {
        Packet consumed = std::move(pkt);
        return true;
    }
};

/**
 * Build a classic (single-queue) fabric of @p params with one tile
 * per router (tile i lands on router i round-robin) and walk the
 * installed routing tables from every router to every tile.
 */
void
enumerateRoutes(NocParams params)
{
    unsigned n = params.meshCols * params.meshRows;
    sim::EventQueue eq;
    Noc noc(eq, params);
    std::vector<DropSink> sinks(n);
    for (unsigned i = 0; i < n; i++)
        ASSERT_EQ(noc.attachTile(i, &sinks[i]), i);
    noc.finalize();
    for (TileId dst = 0; dst < n; dst++) {
        unsigned home = dst % n;
        for (unsigned start = 0; start < n; start++) {
            std::set<unsigned> visited{start};
            unsigned cur = start;
            unsigned hops = 0;
            bool x_done =
                cur % params.meshCols == home % params.meshCols;
            while (cur != home) {
                unsigned next = noc.routeStep(cur, dst);
                ASSERT_NE(next, cur)
                    << "stuck at router " << cur << " for tile "
                    << dst;
                ASSERT_TRUE(visited.insert(next).second)
                    << "routing cycle at router " << next
                    << " for tile " << dst;
                // Dimension order: once the X coordinate matches the
                // destination's, it never changes again.
                if (x_done) {
                    ASSERT_EQ(next % params.meshCols,
                              home % params.meshCols)
                        << "Y leg left the column for tile " << dst;
                }
                x_done = next % params.meshCols ==
                         home % params.meshCols;
                cur = next;
                hops++;
                ASSERT_LE(hops, n) << "unbounded route for tile "
                                   << dst;
            }
            // The walked route is exactly the shortest path.
            EXPECT_EQ(hops, noc.hopCount(start, dst))
                << "router " << start << " -> tile " << dst;
            // At the home router the route is the exit port.
            EXPECT_EQ(noc.routeStep(home, dst), home);
        }
    }
}

TEST(MeshTopologyTest, XyRoutesMinimalAndCycleFree4x4)
{
    NocParams p;
    p.meshCols = p.meshRows = 4;
    enumerateRoutes(p);
}

TEST(MeshTopologyTest, XyRoutesMinimalAndCycleFree8x8)
{
    NocParams p;
    p.meshCols = p.meshRows = 8;
    enumerateRoutes(p);
}

TEST(MeshTopologyTest, ForTilesSizesSquareMeshes)
{
    EXPECT_EQ(NocParams::forTiles(5).meshCols, 2u);
    EXPECT_EQ(NocParams::forTiles(64).meshCols, 4u);
    EXPECT_EQ(NocParams::forTiles(64).meshRows, 4u);
    EXPECT_EQ(NocParams::forTiles(256).meshCols, 8u);
    EXPECT_EQ(NocParams::forTiles(1024).meshCols, 16u);
    EXPECT_EQ(NocParams::forTiles(1024).meshRows, 16u);
}

TEST(MeshConfigTest, DuplicateTilePanics)
{
    sim::EventQueue eq;
    Noc noc(eq, NocParams{});
    DropSink a, b;
    noc.attachTile(3, &a);
    EXPECT_DEATH(noc.attachTile(3, &b), "tile 3 attached twice");
}

/**
 * Funnel traffic from every tile into one destination through a
 * fabric with single-packet port queues: per-hop credits must
 * exhaust (stalls observed) yet every packet must still arrive.
 */
TEST(MeshBackpressureTest, CreditExhaustionStallsButDelivers)
{
    NocParams p;
    p.meshCols = p.meshRows = 4;
    p.portQueuePackets = 1;
    constexpr unsigned kTiles = 16;
    constexpr int kShots = 8; // per source tile, all into tile 0

    sim::EventQueue eq;
    Noc noc(eq, p);
    std::vector<DropSink> sinks(kTiles);
    for (unsigned i = 0; i < kTiles; i++)
        noc.attachTile(i, &sinks[i]);
    noc.finalize();

    auto retries = std::make_shared<
        std::vector<std::shared_ptr<std::function<void()>>>>();
    for (unsigned t = 1; t < kTiles; t++) {
        for (int s = 0; s < kShots; s++) {
            eq.schedule(static_cast<sim::Tick>(s), [&noc, t, s,
                                                    retries]() {
                auto pkt = std::make_shared<Packet>(makePacket(
                    t, 0, 128, static_cast<int>(t) * 100 + s));
                auto fn =
                    std::make_shared<std::function<void()>>();
                retries->push_back(fn);
                std::weak_ptr<std::function<void()>> weak = fn;
                *fn = [&noc, pkt, weak]() {
                    noc.inject(*pkt, [weak]() {
                        if (auto f = weak.lock())
                            (*f)();
                    });
                };
                (*fn)();
            });
        }
    }
    eq.run();
    EXPECT_EQ(noc.delivered(), (kTiles - 1) * kShots);
    EXPECT_GT(noc.portStalls(), 0u);
}

/** Delivery-recording sink that folds into an order-sensitive
 *  digest (FNV-1a over tick/tag pairs). */
struct DigestSink : HopTarget
{
    sim::EventQueue *eq = nullptr;
    std::uint64_t digest = 1469598103934665603ull;
    std::uint64_t count = 0;

    bool
    acceptPacket(Packet &pkt, sim::UniqueFunction<void()>) override
    {
        auto *p = dynamic_cast<TestPayload *>(pkt.data.get());
        std::uint64_t v = eq->now() * 1000003ull +
                          static_cast<std::uint64_t>(
                              p ? p->value : -1);
        digest = (digest ^ v) * 1099511628211ull;
        count++;
        Packet consumed = std::move(pkt);
        return true;
    }
};

/**
 * 64 tiles on a 4x4 router-sharded mesh under heavy cross-traffic
 * with tiny queues (constant backpressure and retries): the final
 * per-tile digests must be identical for every worker count.
 */
std::pair<std::uint64_t, std::uint64_t>
runChaosMesh(unsigned jobs)
{
    constexpr unsigned kTiles = 64;
    constexpr unsigned kShots = 12; // per tile
    NocParams p = NocParams::forTiles(kTiles);
    p.portQueuePackets = 2;
    unsigned routers = p.meshCols * p.meshRows;

    sim::Tick min_link = Noc::minLinkLatency(p);
    sim::LaneScheduler sched(routers, jobs, min_link);
    Noc noc(sched.lane(0), p);
    std::vector<unsigned> lane_of_router(routers);
    for (unsigned r = 0; r < routers; r++)
        lane_of_router[r] = r;
    noc.setRouterLanePlan(sched, std::move(lane_of_router));

    std::vector<std::unique_ptr<DigestSink>> sinks(kTiles);
    for (unsigned i = 0; i < kTiles; i++) {
        sinks[i] = std::make_unique<DigestSink>();
        unsigned r = noc.attachTile(i, sinks[i].get());
        sinks[i]->eq = &sched.lane(noc.laneOfRouter(r));
    }
    noc.finalize();

    std::vector<std::shared_ptr<std::function<void()>>> keep;
    keep.reserve(kTiles * kShots);
    std::uint64_t x = 88172645463325252ull;
    for (unsigned t = 0; t < kTiles; t++) {
        sim::EventQueue &teq =
            sched.lane(noc.laneOfRouter(t % routers));
        for (unsigned s = 0; s < kShots; s++) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            TileId dst = static_cast<TileId>(
                (t + 1 + x % (kTiles - 1)) % kTiles);
            if (dst == t)
                dst = (t + 1) % kTiles;
            sim::Tick at =
                static_cast<sim::Tick>(s) * 400 + x % 97;
            std::size_t bytes = 16 + x % 240;
            int tag = static_cast<int>(t * 1000 + s);
            auto fn = std::make_shared<std::function<void()>>();
            keep.push_back(fn);
            std::weak_ptr<std::function<void()>> weak = fn;
            *fn = [&noc, t, dst, bytes, tag, weak]() {
                auto pkt = std::make_shared<Packet>(
                    makePacket(t, dst, bytes, tag));
                noc.inject(*pkt, [weak]() {
                    if (auto f = weak.lock())
                        (*f)();
                });
            };
            teq.schedule(at, [weak]() {
                if (auto f = weak.lock())
                    (*f)();
            });
        }
    }
    sched.run();

    std::uint64_t digest = 1469598103934665603ull;
    std::uint64_t delivered = 0;
    for (unsigned i = 0; i < kTiles; i++) {
        digest = (digest ^ sinks[i]->digest) * 1099511628211ull;
        delivered += sinks[i]->count;
    }
    return {digest, delivered};
}

TEST(MeshChaosTest, SixtyFourTilesDigestIdenticalAcrossJobs)
{
    auto ref = runChaosMesh(1);
    EXPECT_EQ(ref.second, 64u * 12u);
    for (unsigned jobs : {2u, 4u}) {
        auto got = runChaosMesh(jobs);
        EXPECT_EQ(got.first, ref.first) << "jobs=" << jobs;
        EXPECT_EQ(got.second, ref.second) << "jobs=" << jobs;
    }
}

} // namespace
} // namespace m3v::noc
