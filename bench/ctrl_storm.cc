/**
 * @file
 * Controller-sharding storm benchmark (DESIGN.md section 4i): an
 * open-loop activity-creation storm — create/delegate/revoke/destroy
 * capability operations arriving on every user tile at a fixed
 * simulated rate — run against 1, 2, and 4 controller shards on the
 * same 16-tile platform.
 *
 * Cross-shard traffic is Zipf-skewed: each created activity lands on
 * a tile drawn from a Zipf distribution centred on the creator's own
 * tile, so most capability edges stay inside a quadrant and a
 * skewed tail crosses controllers.
 *
 * Reported per shard count: simulated syscalls/sec (the controller
 * capacity the storm actually extracted), p50/p99 op latency against
 * the open-loop arrival schedule, cross-shard message counts, and a
 * state digest. Each shard count runs under --jobs = 1, 2 and 4
 * worker threads and must produce byte-identical digests (the
 * determinism contract of the cell runner). --summary-out=FILE writes
 * the simulated results per shard count (tests/golden pins them);
 * the host wall clock of each jobs sweep goes to stderr only.
 */

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "os/system.h"
#include "sim/lane.h"
#include "sim/open_loop.h"
#include "sim/rng.h"
#include "sim/stats.h"
#include "workloads/zipf.h"

namespace {

using namespace m3v;
using namespace m3v::os;
using dtu::Error;

constexpr unsigned kUserTiles = 16;
/**
 * Storm drivers per tile. One driver has at most one syscall in
 * flight, so per-tile multiplexed drivers set the offered concurrency
 * (Little's law): 3 per tile keeps every controller's ring non-empty
 * even at 4 shards, making the measurement capacity- rather than
 * latency-bound.
 */
constexpr unsigned kDriversPerTile = 3;
constexpr unsigned kDrivers = kUserTiles * kDriversPerTile;

/**
 * Aggregate simulated arrival rate (syscalls/s): ~4x one controller's
 * capacity and ~1.4x four shards', so every shard count is saturated
 * (syscalls/s measures capacity, not the arrival rate) while the p99
 * gap still shows 4 shards nearly absorbing the storm.
 */
constexpr double kRatePerSec = 8e5;
/** Zipf skew of the target-tile draw. */
constexpr double kTheta = 2.5;
constexpr std::uint64_t kSeed = 42;

std::uint64_t
fnv(std::uint64_t h, std::uint64_t v)
{
    for (unsigned i = 0; i < 8; i++) {
        h ^= (v >> (i * 8)) & 0xff;
        h *= 0x100000001b3ull;
    }
    return h;
}

struct StormConfig
{
    unsigned shards = 1;
    std::uint64_t totalOps = 120000;
};

struct StormResult
{
    unsigned shards = 1;
    std::uint64_t ops = 0;      ///< completed syscalls
    std::uint64_t errors = 0;   ///< non-None syscall responses
    std::uint64_t xshardSent = 0;
    std::uint64_t crossOps = 0; ///< ops whose target tile crossed shards
    sim::Tick makespan = 0;     ///< last op completion (simulated)
    double p50Us = 0;
    double p99Us = 0;
    std::uint64_t digest = 0;
    std::string invReport; ///< empty = invariants clean
};

/** Exact open-loop sleep: one scheduled wake, no core burn. */
sim::Task
sleepUntil(sim::EventQueue &eq, MuxEnv &env, sim::Tick at)
{
    tile::Thread &t = env.thread();
    t.clearWake();
    eq.scheduleAt(at, [&t]() { t.wake(); });
    co_await t.externalWait();
}

struct DriverState
{
    unsigned idx = 0;
    unsigned tile = 0;
    unsigned shard = 0;
    std::vector<CapSel> roots;
    struct Storm
    {
        CapSel actSel = kInvalidSel;
        unsigned shard = 0;
        std::vector<CapSel> dels; ///< delegated copies in its table
    };
    std::vector<Storm> storms;
    std::uint64_t digest = 0xcbf29ce484222325ull;
    std::vector<double> latUs;
};

sim::Task
driverBody(sim::EventQueue &eq, MuxEnv &env, System &sys,
           DriverState &d, std::uint64_t nops, StormResult &res)
{
    sim::OpenLoopSource src(kSeed ^ (0xC7A1 + d.idx),
                            kRatePerSec / kDrivers);
    sim::Rng rng(kSeed ^ (0x570B + d.idx));
    workloads::Zipfian zipf(kUserTiles, kTheta);

    for (std::uint64_t i = 0; i < nops; i++) {
        sim::Tick at = src.next();
        if (eq.now() < at)
            co_await sleepUntil(eq, env, at);
        // Behind schedule: issue immediately, the queueing delay is
        // part of the measured latency (open-loop; every storm
        // completes all its ops so digests can agree).

        SyscallReq req;
        SyscallResp resp;
        std::uint64_t pick = rng.nextBounded(100);
        bool cross = false;

        if (pick < 20 || d.storms.size() < 2) {
            // Create an activity on a Zipf-skewed tile: rank 0 is
            // the creator's own tile, the tail walks the ring.
            auto tile = static_cast<unsigned>(
                (d.tile + zipf.next(rng)) % kUserTiles);
            req.op = SyscallReq::Op::CreateAct;
            req.arg0 = tile;
            co_await env.syscall(req, &resp);
            if (resp.err == Error::None) {
                DriverState::Storm s;
                s.actSel = static_cast<CapSel>(resp.val >> 32);
                s.shard = sys.shardMap().shardOfTile(tile);
                if (d.storms.size() >= 6) {
                    // Bound the working set: forget the oldest (its
                    // caps persist and stay in the final digest, but
                    // it takes no further delegations).
                    d.storms.erase(d.storms.begin());
                }
                d.storms.push_back(s);
                cross = s.shard != d.shard;
            }
        } else if (pick < 60) {
            DriverState::Storm &s =
                d.storms[rng.nextBounded(d.storms.size())];
            req.op = SyscallReq::Op::Delegate;
            req.arg0 = s.actSel;
            req.arg1 = d.roots[rng.nextBounded(d.roots.size())];
            co_await env.syscall(req, &resp);
            if (resp.err == Error::None)
                s.dels.push_back(static_cast<CapSel>(resp.val));
            cross = s.shard != d.shard;
        } else if (pick < 80) {
            // Sever one root's delegation subtree (keep the root):
            // the revoke walks every shard the copies landed on.
            CapSel root = d.roots[rng.nextBounded(d.roots.size())];
            req.op = SyscallReq::Op::Revoke;
            req.arg0 = root;
            req.arg1 = 1;
            co_await env.syscall(req, &resp);
            for (DriverState::Storm &s : d.storms) {
                cross = cross || (!s.dels.empty() &&
                                  s.shard != d.shard);
                s.dels.clear();
            }
        } else {
            std::size_t victim = rng.nextBounded(d.storms.size());
            DriverState::Storm s = d.storms[victim];
            req.op = SyscallReq::Op::DestroyAct;
            req.arg0 = s.actSel;
            co_await env.syscall(req, &resp);
            if (resp.err == Error::None)
                d.storms.erase(d.storms.begin() + victim);
            cross = s.shard != d.shard;
        }

        sim::Tick done = eq.now();
        if (resp.err != Error::None)
            res.errors++;
        res.ops++;
        if (cross)
            res.crossOps++;
        res.makespan = std::max(res.makespan, done);
        d.latUs.push_back(sim::ticksToUs(done - at));
        d.digest = fnv(d.digest, i);
        d.digest = fnv(d.digest, static_cast<std::uint64_t>(
                                     resp.err));
        d.digest = fnv(d.digest, resp.val);
        d.digest = fnv(d.digest, done);
    }
}

StormResult
runStorm(const StormConfig &cfg)
{
    sim::EventQueue eq;
    SystemParams params;
    params.userTiles = kUserTiles;
    params.ctrlShards = cfg.shards;
    // 16 tiles x the default 4 MiB PMP window would exhaust the
    // 64 MiB memory tile before the storm's mgates are carved.
    params.perTilePmp = 1 << 20;
    System sys(eq, params);
    sim::Invariants inv;
    registerControllerInvariants(inv, sys);

    StormResult res;
    res.shards = cfg.shards;

    std::vector<DriverState> drivers(kDrivers);
    std::vector<System::App *> apps(kDrivers);
    for (unsigned i = 0; i < kDrivers; i++) {
        DriverState &d = drivers[i];
        d.idx = i;
        d.tile = i % kUserTiles;
        d.shard = sys.shardMap().shardOfTile(d.tile);
        apps[i] = sys.createApp(d.tile, "storm" + std::to_string(i));
        for (int r = 0; r < 3; r++)
            d.roots.push_back(
                sys.makeMgate(apps[i], 16 << 10, dtu::kPermRW).sel);
    }

    std::uint64_t per = cfg.totalOps / kDrivers;
    for (unsigned i = 0; i < kDrivers; i++) {
        DriverState &d = drivers[i];
        sys.start(apps[i], [&eq, &sys, &d, per,
                            &res](MuxEnv &env) -> sim::Task {
            return driverBody(eq, env, sys, d, per, res);
        });
    }
    eq.run();

    inv.runAll(true);
    if (!inv.ok())
        res.invReport = inv.report();

    // Latency percentiles over the merged, sorted sample set.
    std::vector<double> lat;
    for (DriverState &d : drivers)
        lat.insert(lat.end(), d.latUs.begin(), d.latUs.end());
    std::sort(lat.begin(), lat.end());
    if (!lat.empty()) {
        res.p50Us = lat[lat.size() / 2];
        res.p99Us = lat[static_cast<std::size_t>(
            static_cast<double>(lat.size() - 1) * 0.99)];
    }

    // Digest: per-driver op streams in driver order, then the final
    // capability-forest shape and the shard counters.
    res.digest = 0xcbf29ce484222325ull;
    for (const DriverState &d : drivers)
        res.digest = fnv(res.digest, d.digest);
    for (unsigned s = 0; s < sys.ctrlShards(); s++) {
        std::uint64_t caps = 0;
        sys.capsOf(s).forEachTable([&](CapTable &t) {
            t.forEachCap([&](Capability &c) {
                caps = fnv(caps, t.owner());
                caps = fnv(caps, c.sel());
            });
        });
        const Controller &c = sys.controllerOf(s);
        res.digest = fnv(res.digest, caps);
        res.digest = fnv(res.digest, c.xshardSent());
        res.digest = fnv(res.digest, c.xshardHandled());
        res.xshardSent += c.xshardSent();
    }
    return res;
}

} // namespace

int
main(int argc, char **argv)
{
    StormConfig base;
    std::string summary_out;
    for (int i = 1; i < argc; i++) {
        if (!std::strncmp(argv[i], "--ops=", 6))
            base.totalOps = std::strtoull(argv[i] + 6, nullptr, 10);
        else if (!std::strncmp(argv[i], "--summary-out=", 14))
            summary_out = argv[i] + 14;
        // Unknown args ignored (harness compatibility).
    }

    bench::banner("ctrl_storm",
                  "sharded controller: activity-creation storm");
    std::printf("ops=%llu, rate=%.2gM syscalls/s aggregate, "
                "zipf theta=%.2f, tiles=%u\n",
                static_cast<unsigned long long>(base.totalOps),
                kRatePerSec / 1e6, kTheta, kUserTiles);

    const std::vector<unsigned> shard_counts = {1, 2, 4};
    const std::vector<unsigned> jobs_sweep = {1, 2, 4};

    // cells[j][s] = result of shard_counts[s] under jobs_sweep[j].
    std::vector<std::vector<StormResult>> cells(jobs_sweep.size());
    std::vector<double> sweepWallMs(jobs_sweep.size());
    for (std::size_t j = 0; j < jobs_sweep.size(); j++) {
        cells[j].resize(shard_counts.size());
        std::vector<sim::UniqueFunction<void()>> work;
        for (std::size_t s = 0; s < shard_counts.size(); s++) {
            StormConfig cfg = base;
            cfg.shards = shard_counts[s];
            StormResult *slot = &cells[j][s];
            work.emplace_back(
                [cfg, slot]() { *slot = runStorm(cfg); });
        }
        double t0 = bench::wallMs();
        sim::runCells(jobs_sweep[j], std::move(work));
        sweepWallMs[j] = bench::wallMs() - t0;
    }

    // Determinism contract: per shard count, all jobs sweeps agree.
    for (std::size_t s = 0; s < shard_counts.size(); s++) {
        for (std::size_t j = 1; j < jobs_sweep.size(); j++) {
            if (cells[j][s].digest != cells[0][s].digest ||
                cells[j][s].ops != cells[0][s].ops)
                sim::panic("ctrl_storm: shards=%u diverges between "
                           "jobs=1 and jobs=%u (digest %016llx vs "
                           "%016llx)",
                           shard_counts[s], jobs_sweep[j],
                           static_cast<unsigned long long>(
                               cells[0][s].digest),
                           static_cast<unsigned long long>(
                               cells[j][s].digest));
        }
        if (!cells[0][s].invReport.empty())
            sim::panic("ctrl_storm: shards=%u invariant "
                       "violations:\n%s",
                       shard_counts[s],
                       cells[0][s].invReport.c_str());
    }

    sim::TablePrinter table({"shards", "syscalls/s", "p50 us",
                             "p99 us", "makespan ms", "x-shard",
                             "errors", "digest"});
    std::vector<double> rate(shard_counts.size());
    for (std::size_t s = 0; s < shard_counts.size(); s++) {
        const StormResult &r = cells[0][s];
        rate[s] = r.ops / sim::ticksToSec(r.makespan);
        char digest_hex[32];
        std::snprintf(digest_hex, sizeof(digest_hex), "%016llx",
                      static_cast<unsigned long long>(r.digest));
        table.addRow({std::to_string(r.shards),
                      sim::fmtDouble(rate[s], 0),
                      sim::fmtDouble(r.p50Us, 1),
                      sim::fmtDouble(r.p99Us, 1),
                      sim::fmtDouble(sim::ticksToMs(r.makespan), 2),
                      std::to_string(r.xshardSent),
                      std::to_string(r.errors), digest_hex});
    }
    table.print();
    std::printf("\nSimulated speedup (syscalls/s): shards=2 %.2fx, "
                "shards=4 %.2fx over shards=1; cross-shard op "
                "fraction %.0f%% at shards=4.\n",
                rate[1] / rate[0], rate[2] / rate[0],
                100.0 * cells[0][2].crossOps /
                    std::max<std::uint64_t>(1, cells[0][2].ops));

    // Host-side numbers: stderr only.
    for (std::size_t j = 0; j < jobs_sweep.size(); j++)
        std::fprintf(stderr, "jobs=%u sweep: %.1f ms host wall\n",
                     jobs_sweep[j], sweepWallMs[j]);

    bench::Summary summary;
    for (const StormResult &r : cells[0]) {
        std::string key = "shards_" + std::to_string(r.shards);
        summary.addU64(key + "_ops", r.ops);
        summary.addU64(key + "_errors", r.errors);
        summary.add(key + "_p50_us", r.p50Us);
        summary.add(key + "_p99_us", r.p99Us);
        summary.addU64(key + "_makespan_tick", r.makespan);
        summary.addU64(key + "_xshard_sent", r.xshardSent);
        summary.addU64(key + "_digest", r.digest);
    }
    summary.write(summary_out);
    return 0;
}
