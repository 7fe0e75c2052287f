/**
 * @file
 * Tests for the sharded NoC: one event lane per mesh router, with
 * LaneLink crossings on the mesh links between routers.
 *
 * The key properties verified here:
 *  - uncongested traffic through the sharded fabric is delivered at
 *    exactly the same ticks as through the single-queue fabric (the
 *    launch-early carve-out preserves timing);
 *  - results are bit-identical across worker counts, congested or
 *    not;
 *  - the lanes' delivery counters sum to the single-queue fabric's
 *    values, and the lanes' registries together hold its paths.
 */

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "noc/noc.h"
#include "sim/event_queue.h"
#include "sim/lane.h"
#include "sim/metrics.h"

namespace m3v::noc {
namespace {

struct TestPayload : PacketData
{
    explicit TestPayload(int v) : value(v) {}
    int value;
};

/** Records (tick, tag) of every delivery. */
struct RecordingSink : HopTarget
{
    sim::EventQueue *eq = nullptr;

    struct Delivery
    {
        sim::Tick tick;
        int tag;

        bool
        operator==(const Delivery &o) const
        {
            return tick == o.tick && tag == o.tag;
        }

        friend std::ostream &
        operator<<(std::ostream &os, const Delivery &d)
        {
            return os << "{t=" << d.tick << " tag=" << d.tag << "}";
        }
    };
    std::vector<Delivery> received;

    bool
    acceptPacket(Packet &pkt,
                 sim::UniqueFunction<void()> on_space) override
    {
        (void)on_space;
        auto *p = dynamic_cast<TestPayload *>(pkt.data.get());
        received.push_back({eq->now(), p ? p->value : -1});
        Packet consumed = std::move(pkt);
        return true;
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

/** One injection request of a traffic schedule. */
struct Shot
{
    sim::Tick at;
    TileId src;
    TileId dst;
    std::size_t bytes;
    int tag;
};

/** A deterministic pseudo-random schedule (no global RNG). */
std::vector<Shot>
makeSchedule(unsigned tiles, unsigned shots, sim::Tick spacing)
{
    std::vector<Shot> out;
    std::uint64_t x = 88172645463325252ull;
    for (unsigned i = 0; i < shots; i++) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        Shot s;
        s.src = static_cast<TileId>(i % tiles);
        s.dst = static_cast<TileId>((i + 1 + x % (tiles - 1)) % tiles);
        if (s.dst == s.src)
            s.dst = (s.src + 1) % tiles;
        s.at = static_cast<sim::Tick>(i / tiles) * spacing +
               (x % 97) * 11;
        s.bytes = 16 + x % 240;
        s.tag = static_cast<int>(i);
        out.push_back(s);
    }
    return out;
}

struct RunResult
{
    std::vector<std::vector<RecordingSink::Delivery>> bySink;
    std::uint64_t delivered = 0;
    std::uint64_t deliveredBytes = 0;
    /** Sorted union of the metric paths of every queue the fabric
     *  ran on (not part of the comparison). */
    std::vector<std::string> paths;

    bool
    operator==(const RunResult &o) const
    {
        return bySink == o.bySink && delivered == o.delivered &&
               deliveredBytes == o.deliveredBytes;
    }
};

/** Per-delivery comparison with readable failure output. */
void
expectSameResult(const RunResult &got, const RunResult &want,
                 const std::string &label)
{
    EXPECT_EQ(got.delivered, want.delivered) << label;
    EXPECT_EQ(got.deliveredBytes, want.deliveredBytes) << label;
    ASSERT_EQ(got.bySink.size(), want.bySink.size()) << label;
    for (std::size_t s = 0; s < got.bySink.size(); s++) {
        EXPECT_EQ(got.bySink[s], want.bySink[s])
            << label << " sink=" << s;
    }
}

/**
 * Fully serialized traffic: at most one packet in flight at a time,
 * so no two packets ever contend for a port and no same-tick
 * arbitration ties exist.
 */
std::vector<Shot>
makeUncongestedSchedule(unsigned tiles, unsigned shots)
{
    auto out = makeSchedule(tiles, shots, 0);
    for (std::size_t i = 0; i < out.size(); i++)
        out[i].at = static_cast<sim::Tick>(i) * 2'000'000;
    return out;
}

/** Run a schedule through the single-queue fabric. */
RunResult
runSequential(unsigned tiles, const std::vector<Shot> &shots,
              const NocParams &params)
{
    sim::EventQueue eq;
    Noc noc(eq, params);
    std::vector<std::unique_ptr<RecordingSink>> sinks(tiles);
    for (unsigned i = 0; i < tiles; i++) {
        sinks[i] = std::make_unique<RecordingSink>();
        sinks[i]->eq = &eq;
        noc.attachTile(i, sinks[i].get());
    }
    noc.finalize();
    // Injection honours backpressure via retry-on-space.
    auto retries = std::make_shared<
        std::vector<std::shared_ptr<std::function<void()>>>>();
    for (const Shot &s : shots) {
        eq.schedule(s.at, [&noc, s, retries]() {
            auto pkt = std::make_shared<Packet>(
                makePacket(s.src, s.dst, s.bytes, s.tag));
            auto attempt = std::make_shared<std::function<void()>>();
            retries->push_back(attempt);
            std::weak_ptr<std::function<void()>> weak = attempt;
            *attempt = [&noc, pkt, weak]() {
                noc.inject(*pkt, [weak]() {
                    if (auto fn = weak.lock())
                        (*fn)();
                });
            };
            (*attempt)();
        });
    }
    eq.run();
    RunResult r;
    r.paths = eq.metrics().paths();
    for (auto &s : sinks)
        r.bySink.push_back(s->received);
    r.delivered = noc.delivered();
    r.deliveredBytes = noc.deliveredBytes();
    return r;
}

/** Run the same schedule through the sharded fabric, one lane per
 *  router. */
RunResult
runLaned(unsigned tiles, const std::vector<Shot> &shots,
         const NocParams &params, unsigned jobs)
{
    unsigned routers = params.meshCols * params.meshRows;
    sim::LaneScheduler sched(routers, jobs, Noc::minLinkLatency());
    Noc noc(sched.lane(0), params);
    std::vector<unsigned> lane_of_router(routers);
    for (unsigned r = 0; r < routers; r++)
        lane_of_router[r] = r;
    noc.setRouterLanePlan(sched, lane_of_router);
    // Each tile's sink and its shots live on its home router's lane.
    std::vector<unsigned> lane_of_tile(tiles);
    std::vector<std::unique_ptr<RecordingSink>> sinks(tiles);
    for (unsigned i = 0; i < tiles; i++) {
        lane_of_tile[i] = noc.nextRouter();
        sinks[i] = std::make_unique<RecordingSink>();
        sinks[i]->eq = &sched.lane(lane_of_tile[i]);
        noc.attachTile(i, sinks[i].get());
    }
    noc.finalize();
    // One retry-keeper vector per source tile: each is touched only
    // from that tile's lane (injection and on_space both run there).
    std::vector<std::shared_ptr<
        std::vector<std::shared_ptr<std::function<void()>>>>>
        laneRetries(tiles);
    for (unsigned i = 0; i < tiles; i++)
        laneRetries[i] = std::make_shared<
            std::vector<std::shared_ptr<std::function<void()>>>>();
    for (const Shot &s : shots) {
        auto retries = laneRetries[s.src];
        sim::EventQueue &teq = sched.lane(lane_of_tile[s.src]);
        teq.schedule(s.at, [&noc, s, retries]() {
            auto pkt = std::make_shared<Packet>(
                makePacket(s.src, s.dst, s.bytes, s.tag));
            auto attempt = std::make_shared<std::function<void()>>();
            retries->push_back(attempt);
            std::weak_ptr<std::function<void()>> weak = attempt;
            *attempt = [&noc, pkt, weak]() {
                noc.inject(*pkt, [weak]() {
                    if (auto fn = weak.lock())
                        (*fn)();
                });
            };
            (*attempt)();
        });
    }
    sched.run();
    RunResult r;
    std::set<std::string> paths;
    for (unsigned l = 0; l < sched.lanes(); l++)
        for (const std::string &path : sched.lane(l).metrics().paths())
            paths.insert(path);
    r.paths.assign(paths.begin(), paths.end());
    for (auto &s : sinks)
        r.bySink.push_back(s->received);
    r.delivered = noc.delivered();
    r.deliveredBytes = noc.deliveredBytes();
    return r;
}

TEST(NocLaneTest, UncongestedMatchesSequentialExactly)
{
    // Without contention the sharded fabric must reproduce the
    // sequential delivery ticks bit for bit (the launch-early
    // carve-out preserves lone-packet timing).
    constexpr unsigned kTiles = 6;
    auto shots = makeUncongestedSchedule(kTiles, 60);
    NocParams params;
    auto seq = runSequential(kTiles, shots, params);
    ASSERT_EQ(seq.delivered, 60u);
    for (unsigned jobs : {1u, 2u, 4u}) {
        auto lan = runLaned(kTiles, shots, params, jobs);
        expectSameResult(lan, seq,
                         "jobs=" + std::to_string(jobs));
    }
}

TEST(NocLaneTest, CongestedIsInvariantAcrossJobs)
{
    // Bursts into shared destinations: queues fill, credits and the
    // rx relay engage. Retry interleaving may differ from the
    // sequential fabric, but must be identical for every worker
    // count (the determinism contract of lane mode).
    constexpr unsigned kTiles = 6;
    auto shots = makeSchedule(kTiles, 240, 200);
    NocParams params;
    params.portQueuePackets = 2;
    auto ref = runLaned(kTiles, shots, params, 1);
    EXPECT_EQ(ref.delivered, 240u);
    for (unsigned jobs : {2u, 4u, 8u}) {
        auto got = runLaned(kTiles, shots, params, jobs);
        EXPECT_EQ(got, ref) << "jobs=" << jobs;
    }
}

TEST(NocLaneTest, LaneModeCountsPerTileDeliveries)
{
    constexpr unsigned kTiles = 4;
    auto shots = makeSchedule(kTiles, 40, 20'000);
    NocParams params;
    auto lan = runLaned(kTiles, shots, params, 2);
    std::uint64_t by_sink = 0;
    for (const auto &v : lan.bySink)
        by_sink += v.size();
    EXPECT_EQ(lan.delivered, by_sink);
    EXPECT_EQ(lan.delivered, 40u);
}

TEST(NocLaneTest, MergedMetricsMatchSingleQueueFabric)
{
    // Every lane counts deliveries into the same noc.delivered keys,
    // so the lane sums equal the single-queue values, and the lanes'
    // registries together hold exactly the single-queue paths.
    constexpr unsigned kTiles = 6;
    auto shots = makeUncongestedSchedule(kTiles, 60);
    NocParams params;
    auto seq = runSequential(kTiles, shots, params);
    auto lan = runLaned(kTiles, shots, params, 2);
    EXPECT_GT(seq.delivered, 0u);
    EXPECT_GT(seq.deliveredBytes, 0u);
    EXPECT_EQ(lan.delivered, seq.delivered);
    EXPECT_EQ(lan.deliveredBytes, seq.deliveredBytes);
    for (const std::string &path : lan.paths) {
        EXPECT_FALSE(path.rfind("noc.tile", 0) == 0 &&
                     path.find(".delivered") != std::string::npos)
            << path;
    }
    EXPECT_EQ(lan.paths, seq.paths);
}

} // namespace
} // namespace m3v::noc
