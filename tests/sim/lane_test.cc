/**
 * @file
 * Tests for the parallel event core: the LaneScheduler's
 * conservative windows and outbox merge, shard merging of
 * metrics/traces, and the runCells sweep helper.
 *
 * The determinism tests run the same model at several worker counts
 * and require bit-identical results — the core guarantee of the
 * sharded execution mode.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <tuple>
#include <vector>

#include "sim/event_queue.h"
#include "sim/lane.h"
#include "sim/metrics.h"
#include "sim/rng.h"
#include "sim/trace.h"

namespace m3v::sim {
namespace {

/**
 * A deterministic multi-lane ping-pong model: each lane runs a local
 * event chain and fires messages at other lanes; every lane records a
 * signature of (tick, value) pairs. The signature must not depend on
 * the worker count.
 */
struct PingPong
{
    static constexpr Tick kLookahead = 100;

    explicit PingPong(unsigned lanes, unsigned jobs)
        : sched(lanes, jobs, kLookahead), log(lanes)
    {
    }

    void
    bounce(unsigned lane, unsigned hops, std::uint64_t value)
    {
        log[lane].push_back({sched.lane(lane).now(), value});
        if (hops == 0)
            return;
        unsigned next =
            (lane + 1 + static_cast<unsigned>(value % 3)) %
            sched.lanes();
        if (next == lane)
            next = (lane + 1) % sched.lanes();
        Tick due = sched.lane(lane).now() + kLookahead +
                   (value % 7) * 13;
        sched.post(lane, next, due, [this, next, hops, value]() {
            bounce(next, hops - 1, value * 6364136223846793005ull + 1);
        });
        // Also some lane-local churn between the cross-lane hops.
        sched.lane(lane).schedule(value % 50, [this, lane]() {
            log[lane].push_back({sched.lane(lane).now(), 0});
        });
    }

    LaneScheduler sched;
    std::vector<std::vector<std::pair<Tick, std::uint64_t>>> log;
};

std::vector<std::vector<std::pair<Tick, std::uint64_t>>>
runPingPong(unsigned lanes, unsigned jobs)
{
    PingPong pp(lanes, jobs);
    for (unsigned l = 0; l < lanes; l++) {
        pp.sched.lane(l).schedule(l * 17, [&pp, l]() {
            pp.bounce(l, 40, l + 1);
        });
    }
    pp.sched.run();
    return pp.log;
}

TEST(LaneSchedulerTest, DeterministicAcrossJobCounts)
{
    auto ref = runPingPong(4, 1);
    for (unsigned jobs : {2u, 4u, 8u}) {
        auto got = runPingPong(4, jobs);
        EXPECT_EQ(got, ref) << "jobs=" << jobs;
    }
}

/**
 * Rounds alternate between all 32 lanes active and only lanes 0 and
 * 1, which both sit in worker 0's block at jobs=8: every other round,
 * seven workers reach the barrier with no window to run. Each lane
 * must still run each of its windows exactly once, in its own round,
 * and rounds() must count every round.
 */
TEST(LaneSchedulerTest, GrowingRoundIsNotClaimedEarly)
{
    constexpr unsigned kLanes = 32;
    constexpr Tick kLookahead = 10;
    constexpr unsigned kWindows = 4000;
    LaneScheduler sched(kLanes, 8, kLookahead);
    std::vector<unsigned> ran(kLanes, 0);
    for (unsigned l = 0; l < kLanes; l++) {
        for (unsigned w = 0; w < kWindows; w++) {
            // Even windows wake every lane, odd ones lanes 0 and 1.
            if (w % 2 == 1 && l >= 2)
                continue;
            sched.lane(l).schedule(w * kLookahead,
                                   [&ran, l]() { ran[l]++; });
        }
    }
    sched.run();
    for (unsigned l = 0; l < kLanes; l++)
        EXPECT_EQ(ran[l], l < 2 ? kWindows : kWindows / 2) << l;
    EXPECT_EQ(sched.rounds(), kWindows);
}

/**
 * run() starts its workers afresh on every call: a scheduler that has
 * drained once must run newly scheduled work, cross-lane posts made
 * between the runs included, exactly as jobs=1 does. jobs=8 on six
 * lanes also covers more workers than lanes.
 */
TEST(LaneSchedulerTest, SecondRunMatchesJobsOne)
{
    constexpr unsigned kLanes = 6;
    auto run = [](unsigned jobs) {
        PingPong pp(kLanes, jobs);
        for (unsigned l = 0; l < kLanes; l++)
            pp.sched.lane(l).schedule(l * 11, [&pp, l]() {
                pp.bounce(l, 20, l + 1);
            });
        pp.sched.run();
        std::uint64_t first_rounds = pp.sched.rounds();
        Tick end = 0;
        for (unsigned l = 0; l < kLanes; l++)
            end = std::max(end, pp.sched.lane(l).now());
        for (unsigned l = 0; l < kLanes; l += 2)
            pp.sched.lane(l).scheduleAt(end + l * 7, [&pp, l]() {
                pp.bounce(l, 30, l + 100);
            });
        pp.sched.post(1, 4, end + 300,
                      [&pp]() { pp.bounce(4, 10, 77); });
        pp.sched.post(5, 0, end + 150,
                      [&pp]() { pp.bounce(0, 15, 99); });
        pp.sched.run();
        return std::make_tuple(pp.log, first_rounds, pp.sched.rounds(),
                               pp.sched.messagesMerged());
    };
    auto ref = run(1);
    EXPECT_GT(std::get<2>(ref), std::get<1>(ref));
    for (unsigned jobs : {2u, 4u, 8u})
        EXPECT_EQ(run(jobs), ref) << "jobs=" << jobs;
}

TEST(LaneSchedulerTest, SingleLaneMatchesPlainQueue)
{
    // A single-lane model is the degenerate case: the scheduler must
    // execute exactly the same event sequence as a bare EventQueue.
    std::vector<std::pair<Tick, int>> plain;
    {
        EventQueue eq;
        for (int i = 0; i < 20; i++) {
            eq.schedule(static_cast<Tick>(i * 7 % 13), [&plain, &eq,
                                                        i]() {
                plain.push_back({eq.now(), i});
            });
        }
        eq.run();
    }
    std::vector<std::pair<Tick, int>> laned;
    {
        LaneScheduler sched(1, 1, 100);
        EventQueue &eq = sched.lane(0);
        for (int i = 0; i < 20; i++) {
            eq.schedule(static_cast<Tick>(i * 7 % 13), [&laned, &eq,
                                                        i]() {
                laned.push_back({eq.now(), i});
            });
        }
        sched.run();
    }
    EXPECT_EQ(laned, plain);
}

TEST(LaneSchedulerTest, CrossLaneArrivalTickIsExact)
{
    LaneScheduler sched(2, 2, 50);
    Tick arrived = 0;
    sched.lane(0).schedule(123, [&]() {
        sched.post(0, 1, 123 + 50, [&]() {
            arrived = sched.lane(1).now();
        });
    });
    sched.run();
    EXPECT_EQ(arrived, 173u);
}

TEST(LaneSchedulerTest, LookaheadViolationPanics)
{
    LaneScheduler sched(2, 1, 100);
    sched.lane(0).schedule(10, [&]() {
        // Due 10 + 99 < now + lookahead: a model bug.
        sched.post(0, 1, 109, []() {});
    });
    EXPECT_DEATH(sched.run(), "lookahead");
}

TEST(LaneSchedulerTest, PostExactlyAtLookaheadBoundary)
{
    // Regression: posting at precisely now() + pairLookahead(src,
    // dst) is legal — the boundary is inclusive — including when the
    // due tick lands exactly on a multiple of the event queue's near
    // horizon and the per-pair lookaheads are asymmetric.
    static constexpr Tick kHorizon = EventQueue::kNearHorizon;
    for (unsigned jobs : {1u, 2u}) {
        LaneScheduler sched(2, jobs, 10);
        sched.setPairLookahead(0, 1, 64);
        sched.setPairLookahead(1, 0, kHorizon + 3);
        std::vector<Tick> hits;
        // Park lane 0 just short of the horizon so the boundary
        // post lands exactly on the rollover edge...
        sched.lane(0).schedule(kHorizon - 64, [&]() {
            sched.post(0, 1,
                       sched.lane(0).now() +
                           sched.pairLookahead(0, 1),
                       [&]() {
                           hits.push_back(sched.lane(1).now());
                           // ...and the reply sits exactly on the
                           // (larger, asymmetric) reverse-pair
                           // boundary, crossing a second horizon
                           // multiple.
                           sched.post(
                               1, 0,
                               sched.lane(1).now() +
                                   sched.pairLookahead(1, 0),
                               [&]() {
                                   hits.push_back(
                                       sched.lane(0).now());
                               });
                       });
        });
        sched.run();
        ASSERT_EQ(hits.size(), 2u) << "jobs=" << jobs;
        EXPECT_EQ(hits[0], kHorizon);
        EXPECT_EQ(hits[1], 2 * kHorizon + 3);
    }
}

TEST(LaneSchedulerTest, PerPairLookaheadIsDirectional)
{
    // A post that clears the scheduler's smallest lookahead but
    // violates its own (larger) directional pair value must panic —
    // the check is per ordered pair, not global.
    LaneScheduler sched(2, 1, 10);
    sched.setPairLookahead(0, 1, 500);
    sched.lane(0).schedule(50, [&]() {
        sched.post(0, 1, 50 + 499, []() {});
    });
    EXPECT_DEATH(sched.run(), "lookahead");
}

TEST(LaneSchedulerTest, NoCrossingPairPanicsOnPost)
{
    // Pairs declared kNoCrossing carry no messages at any distance.
    LaneScheduler sched(2, 1, 10);
    sched.setPairLookahead(0, 1, LaneScheduler::kNoCrossing);
    sched.lane(0).schedule(0, [&]() {
        sched.post(0, 1, 1000000, []() {});
    });
    EXPECT_DEATH(sched.run(), "lookahead");
}

/**
 * Three source lanes post into lane 3 from windows at different ticks,
 * with tied and descending due ticks. The merge must hand lane 3 its
 * messages in (due, srcLane, post order), at any worker count.
 */
TEST(LaneSchedulerTest, MergeOrderIsDueSourcePostOrder)
{
    constexpr Tick kLookahead = 10;
    const std::vector<std::pair<Tick, int>> want = {
        {100, 10}, {100, 11}, {100, 20}, {100, 21}, {100, 30},
        {150, 12}, {150, 22}, {200, 31}, {200, 32}, {300, 1},
    };
    for (unsigned jobs : {1u, 2u, 4u}) {
        LaneScheduler sched(4, jobs, kLookahead);
        std::vector<std::pair<Tick, int>> got;
        auto send = [&sched, &got](unsigned src, Tick due, int tag) {
            sched.post(src, 3, due, [&sched, &got, due, tag]() {
                EXPECT_EQ(sched.lane(3).now(), due);
                got.push_back({due, tag});
            });
        };
        // Lane 2 runs first, then lane 1, then lane 0; each posts
        // its later due ticks first.
        sched.lane(0).schedule(5, [&send]() {
            send(0, 300, 1);
        });
        sched.lane(0).schedule(2, [&send]() {
            send(0, 150, 12);
            send(0, 100, 10);
            send(0, 100, 11);
        });
        sched.lane(1).schedule(1, [&send]() {
            send(1, 150, 22);
            send(1, 100, 20);
            send(1, 100, 21);
        });
        sched.lane(2).schedule(0, [&send]() {
            send(2, 200, 31);
            send(2, 100, 30);
            send(2, 200, 32);
        });
        sched.run();
        EXPECT_EQ(got, want) << "jobs=" << jobs;
    }
}

TEST(LaneSchedulerTest, PostsAreUnbounded)
{
    // The mailbox capacity is only an initial reserve: one window
    // may post far more than it, and every message is delivered.
    constexpr int kPosts = 10000;
    LaneScheduler sched(2, 1, 10, /*mailbox_capacity=*/2);
    int delivered = 0;
    sched.lane(0).schedule(0, [&]() {
        for (int i = 0; i < kPosts; i++)
            sched.post(0, 1, sched.lane(0).now() + 10,
                       [&delivered]() { delivered++; });
    });
    sched.run();
    EXPECT_EQ(delivered, kPosts);
    EXPECT_EQ(sched.messagesMerged(), static_cast<std::uint64_t>(kPosts));
}

TEST(LaneSchedulerTest, WheelHorizonRollover)
{
    // Cross-lane messages far beyond the event queue's near horizon
    // (~1 us = 2^20 ticks), so they enter the far heap, must still
    // merge and execute at the exact due tick, across many barrier
    // rounds.
    constexpr Tick kFar = Tick{1} << 24; // 16 M ticks >> horizon
    for (unsigned jobs : {1u, 4u}) {
        LaneScheduler sched(3, jobs, 1000);
        std::vector<Tick> hits;
        sched.lane(0).schedule(0, [&]() {
            sched.post(0, 1, kFar, [&]() {
                hits.push_back(sched.lane(1).now());
                sched.post(1, 2, kFar + 2 * kFar, [&]() {
                    hits.push_back(sched.lane(2).now());
                });
            });
        });
        sched.run();
        ASSERT_EQ(hits.size(), 2u) << "jobs=" << jobs;
        EXPECT_EQ(hits[0], kFar);
        EXPECT_EQ(hits[1], 3 * kFar);
    }
}

TEST(LaneSchedulerTest, HorizonRolloverAcrossWindowBarriers)
{
    // Interaction of the near/far event heaps with the lane
    // scheduler: now() crosses the near horizon (2^20 ticks) several
    // times while conservative windows repeatedly drain and refill
    // both heaps. Dense local chains straddle every horizon multiple
    // mid-stride, and cross-lane messages land exactly on and next to
    // the boundaries. The merged execution must be bit-identical for
    // any worker count, with exact due ticks.
    static constexpr Tick kHorizon = EventQueue::kNearHorizon;
    static constexpr Tick kLookahead = 1000;
    static constexpr unsigned kLanes = 3;
    static constexpr int kChainSteps = 36;
    static constexpr Tick kStride = 174763; // prime, ~kHorizon / 6

    auto run = [&](unsigned jobs) {
        LaneScheduler sched(kLanes, jobs, kLookahead);
        std::vector<std::vector<std::pair<Tick, std::uint64_t>>> log(
            kLanes);

        // Self-rescheduling dense chains, one per lane.
        auto step = std::make_shared<
            std::function<void(unsigned, int, std::uint64_t)>>();
        *step = [&sched, &log, step](unsigned l, int remaining,
                                     std::uint64_t value) {
            log[l].push_back({sched.lane(l).now(), value});
            if (remaining == 0)
                return;
            sched.lane(l).schedule(
                kStride + value % 97, [step, l, remaining, value]() {
                    (*step)(l, remaining - 1,
                            value * 6364136223846793005ull + 1);
                });
            // Cross-lane hop from some steps, due just past the
            // window edge so it rides the next barrier merge.
            if (remaining % 5 == 0) {
                unsigned next = (l + 1) % kLanes;
                sched.post(l, next,
                           sched.lane(l).now() + kLookahead +
                               value % 7,
                           [&log, &sched, next, value]() {
                               log[next].push_back(
                                   {sched.lane(next).now(),
                                    ~value});
                           });
            }
        };
        for (unsigned l = 0; l < kLanes; l++)
            sched.lane(l).schedule(l * 13, [step, l]() {
                (*step)(l, kChainSteps, l + 1);
            });

        // Events pinned to the horizon boundaries themselves, plus
        // cross-lane posts due *exactly* on a boundary.
        for (Tick k = 1; k <= 6; k++) {
            Tick edge = k * kHorizon;
            for (unsigned l = 0; l < kLanes; l++) {
                for (Tick off : {edge - 1, edge, edge + 1})
                    sched.lane(l).schedule(off, [&log, &sched, l]() {
                        log[l].push_back(
                            {sched.lane(l).now(), 0xb0b0});
                    });
                unsigned next = (l + 1) % kLanes;
                sched.lane(l).schedule(
                    edge - kLookahead,
                    [&sched, &log, l, next, edge]() {
                        sched.post(l, next, edge,
                                   [&log, &sched, next]() {
                                       log[next].push_back(
                                           {sched.lane(next).now(),
                                            0xc405});
                                   });
                    });
            }
        }
        sched.run();
        EXPECT_GT(sched.rounds(), 10u);
        // *step captures the shared_ptr that owns it; break the
        // cycle so the chain closures are released.
        *step = nullptr;
        return log;
    };

    auto ref = run(1);
    // Sanity on the reference: every boundary-pinned event ran at its
    // exact tick, on every lane, for every horizon multiple.
    for (unsigned l = 0; l < kLanes; l++) {
        for (Tick k = 1; k <= 6; k++) {
            Tick edge = k * kHorizon;
            for (Tick off : {edge - 1, edge, edge + 1}) {
                bool found = false;
                for (const auto &[t, v] : ref[l])
                    found |= t == off && v == 0xb0b0;
                EXPECT_TRUE(found)
                    << "lane " << l << " tick " << off;
            }
            bool cross = false;
            for (const auto &[t, v] : ref[(l + 1) % kLanes])
                cross |= t == edge && v == 0xc405;
            EXPECT_TRUE(cross) << "cross-lane at " << edge;
        }
        // The dense chain really straddled the horizon multiples.
        EXPECT_GE(ref[l].back().first, 6 * kHorizon);
    }
    for (unsigned jobs : {2u, 4u}) {
        auto got = run(jobs);
        EXPECT_EQ(got, ref) << "jobs=" << jobs;
    }
}

/**
 * A declared lane topology: the scalar constructor's uniform
 * lookahead when uniform > 0, otherwise kNoCrossing everywhere except
 * the listed directed (src, dst, latency) crossings.
 */
struct Topology
{
    unsigned lanes = 0;
    Tick uniform = 0;
    std::vector<std::tuple<unsigned, unsigned, Tick>> edges;
};

struct SparseResult
{
    std::uint64_t rounds = 0;
    std::uint64_t merged = 0;
    std::uint64_t digest = 0;
};

/**
 * Seeded ping/forward workload over @p topo: every event logs its
 * (lane, tick, payload) and, while hops remain, forwards to one of its
 * lane's declared out-neighbours at the pair lookahead plus jitter,
 * with some lane-local churn in between. The digest is FNV over each
 * lane's log in execution order, lanes in index order.
 */
SparseResult
runSparse(const Topology &topo, unsigned jobs, std::uint64_t seed)
{
    LaneScheduler sched(topo.lanes, jobs,
                        topo.uniform ? topo.uniform : 1);
    if (!topo.uniform) {
        sched.fillPairLookaheads(LaneScheduler::kNoCrossing);
        for (auto [s, d, l] : topo.edges)
            sched.setPairLookahead(s, d, l);
    }
    std::vector<std::vector<unsigned>> out(topo.lanes);
    for (unsigned s = 0; s < topo.lanes; s++)
        for (unsigned d = 0; d < topo.lanes; d++)
            if (sched.pairLookahead(s, d) != LaneScheduler::kNoCrossing)
                out[s].push_back(d);
    std::vector<std::vector<std::pair<Tick, std::uint64_t>>> log(
        topo.lanes);
    std::function<void(unsigned, unsigned, std::uint64_t)> fire =
        [&](unsigned lane, unsigned hops, std::uint64_t v) {
            EventQueue &eq = sched.lane(lane);
            log[lane].push_back({eq.now(), v});
            if (hops == 0)
                return;
            std::uint64_t x =
                v * 6364136223846793005ull + 1442695040888963407ull;
            if ((x >> 40) % 3 == 0)
                eq.schedule((x >> 8) % 31, [&fire, lane, x]() {
                    fire(lane, 0, ~x);
                });
            if (out[lane].empty()) {
                eq.schedule(1 + (x >> 20) % 97,
                            [&fire, lane, hops, x]() {
                                fire(lane, hops - 1, x);
                            });
                return;
            }
            unsigned dst = out[lane][(x >> 33) % out[lane].size()];
            Tick due = eq.now() + sched.pairLookahead(lane, dst) +
                       (x >> 17) % 23;
            sched.post(lane, dst, due, [&fire, dst, hops, x]() {
                fire(dst, hops - 1, x);
            });
        };
    Rng rng(seed);
    for (unsigned l = 0; l < topo.lanes; l++)
        for (int k = 0; k < 3; k++) {
            std::uint64_t v = rng.next();
            sched.lane(l).schedule(rng.nextBounded(200),
                                   [&fire, l, v]() { fire(l, 60, v); });
        }
    sched.run();
    SparseResult r;
    r.rounds = sched.rounds();
    r.merged = sched.messagesMerged();
    r.digest = 0xcbf29ce484222325ull;
    auto mix = [&r](std::uint64_t w) {
        r.digest = (r.digest ^ w) * 0x100000001b3ull;
    };
    for (unsigned l = 0; l < topo.lanes; l++)
        for (const auto &[t, v] : log[l]) {
            mix(l);
            mix(t);
            mix(v);
        }
    return r;
}

TEST(LaneSchedulerTest, WindowRuleMatchesClosureOnSparseTopologies)
{
    // Each topology's rounds, merges and digest are pinned to what
    // the window rule limit_i = min_j NT_j + D(j, i) gives with D the
    // all-pairs shortest-path closure of the declared crossings: any
    // window that is wider or narrower changes the round count, and
    // any unsafe one the digest.
    Topology mesh;
    mesh.lanes = 16;
    for (unsigned r = 0; r < 4; r++)
        for (unsigned c = 0; c < 4; c++) {
            unsigned l = r * 4 + c;
            if (c + 1 < 4)
                mesh.edges.push_back({l, l + 1, 7 + c});
            if (c > 0)
                mesh.edges.push_back({l, l - 1, 11});
            if (r + 1 < 4)
                mesh.edges.push_back({l, l + 4, 5 + r});
            if (r > 0)
                mesh.edges.push_back({l, l - 4, 13});
        }
    // Directed ring: a lane's only influence on itself is the whole
    // D(i, i) = 39 round trip.
    Topology ring;
    ring.lanes = 5;
    const Tick ring_l[] = {3, 5, 7, 11, 13};
    for (unsigned l = 0; l < 5; l++)
        ring.edges.push_back({l, (l + 1) % 5, ring_l[l]});
    // A chain 0..3 with asymmetric directions, a sink lane 4 fed only
    // by lane 3, and lane 5 with no crossing in either direction.
    Topology island;
    island.lanes = 6;
    for (unsigned l = 0; l < 3; l++) {
        island.edges.push_back({l, l + 1, 9 + l});
        island.edges.push_back({l + 1, l, 4});
    }
    island.edges.push_back({3, 4, 17});
    Topology uniform;
    uniform.lanes = 6;
    uniform.uniform = 50;

    struct Case
    {
        const char *name;
        const Topology *topo;
        SparseResult want;
    };
    const Case cases[] = {
        {"mesh4x4", &mesh, {140, 2880, 0x43cda701f80387c4ull}},
        {"ring", &ring, {115, 900, 0xfd59b3f605317685ull}},
        {"island", &island, {57, 160, 0x60e798291414ccfaull}},
        {"uniform", &uniform, {74, 1080, 0x9123c4191bdaa33eull}},
    };
    for (const Case &c : cases) {
        for (unsigned jobs : {1u, 4u}) {
            SparseResult got = runSparse(*c.topo, jobs, 0x5eed);
            SCOPED_TRACE(std::string(c.name) + " jobs=" +
                         std::to_string(jobs));
            EXPECT_EQ(got.rounds, c.want.rounds);
            EXPECT_EQ(got.merged, c.want.merged);
            EXPECT_EQ(got.digest, c.want.digest);
        }
    }
}

TEST(LaneSchedulerTest, PerLaneRngStreamsAreStable)
{
    // Fault-injection style use: each lane draws from its own Rng
    // stream; the sequence seen on each lane must not depend on the
    // worker count or on what other lanes do.
    auto run = [](unsigned jobs) {
        LaneScheduler sched(4, jobs, 100);
        std::vector<Rng> rng;
        Rng root(42);
        for (unsigned l = 0; l < 4; l++)
            rng.push_back(root.split());
        std::vector<std::vector<std::uint64_t>> draws(4);
        for (unsigned l = 0; l < 4; l++) {
            for (int i = 0; i < 50; i++) {
                sched.lane(l).schedule(
                    static_cast<Tick>(i * 31 + l),
                    [&draws, &rng, l]() {
                        draws[l].push_back(rng[l].next());
                    });
            }
        }
        sched.run();
        return draws;
    };
    auto ref = run(1);
    EXPECT_EQ(run(4), ref);
}

TEST(LaneSchedulerTest, MergeMetricsMatchesUnsharded)
{
    // Shard a counting workload over 4 lanes, merge the shards, and
    // compare against the same instruments bumped on one lane.
    auto populate = [](MetricsRegistry &m, int base) {
        m.counter("a.count")->inc(static_cast<std::uint64_t>(base));
        for (int i = 0; i < 10; i++) {
            m.sampler("a.lat")->add(base * 100.0 + i);
        }
    };
    LaneScheduler sched(4, 2, 10);
    for (unsigned l = 0; l < 4; l++) {
        sched.lane(l).schedule(0, [&sched, populate, l]() {
            populate(sched.lane(l).metrics(),
                     static_cast<int>(l) + 1);
        });
    }
    sched.run();
    MetricsRegistry merged;
    sched.mergeMetrics(merged);

    MetricsRegistry flat;
    for (int base = 1; base <= 4; base++)
        populate(flat, base);
    EXPECT_EQ(merged.toJson(), flat.toJson());
}

TEST(LaneSchedulerTest, MergeTraceConcatenatesLaneTracks)
{
    LaneScheduler sched(2, 1, 10);
    sched.enableAllTracing();
    sched.lane(0).schedule(5, [&]() {
        sched.lane(0).tracer().begin(TraceCat::Sched, 0, 0, "w0");
        sched.lane(0).tracer().end(TraceCat::Sched, 0, 0);
    });
    sched.lane(1).schedule(7, [&]() {
        sched.lane(1).tracer().instant(TraceCat::Noc, 1, 0, "hop");
    });
    sched.run();
    EventQueue host;
    Tracer merged(host);
    sched.mergeTrace(merged);
    EXPECT_EQ(merged.events(), 3u);
    std::string json = merged.toJson();
    EXPECT_NE(json.find("\"w0\""), std::string::npos);
    EXPECT_NE(json.find("\"hop\""), std::string::npos);
}

TEST(RunCellsTest, AllCellsRunOnceAnyJobs)
{
    for (unsigned jobs : {1u, 3u, 8u}) {
        std::vector<int> results(20, 0);
        std::vector<UniqueFunction<void()>> cells;
        for (int i = 0; i < 20; i++) {
            cells.push_back([&results, i]() {
                // Each cell runs its own tiny simulation.
                EventQueue eq;
                int acc = 0;
                for (int k = 0; k <= i; k++)
                    eq.schedule(static_cast<Tick>(k),
                                [&acc]() { acc++; });
                eq.run();
                results[static_cast<std::size_t>(i)] = acc;
            });
        }
        runCells(jobs, std::move(cells));
        for (int i = 0; i < 20; i++)
            EXPECT_EQ(results[static_cast<std::size_t>(i)], i + 1)
                << "jobs=" << jobs;
    }
}

} // namespace
} // namespace m3v::sim
