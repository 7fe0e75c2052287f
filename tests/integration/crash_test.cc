/**
 * @file
 * The activity lifecycle end to end (DESIGN.md section 4b): crash
 * injection, the TileMux watchdog and the controller's reap.
 *
 * ChaosTest runs a full-stack workload (file system + network +
 * compute) in which a watchdog kill and an activity crash at a
 * seeded tick exercise the reap path. The checks: the surviving
 * applications' results are those of a run with neither, for every
 * seed; the same seed reproduces the same run bit for bit; and runs
 * on worker threads (runCells) fingerprint exactly like the same
 * runs inline.
 *
 * CrashReapTest crashes an activity while its m3fs RPC is in flight
 * and a bystander's message is parked in its receive ring: the reap
 * must return the parked credit, the bystander must keep using the
 * file system, and the DTU invariants (exact credit conservation,
 * engine quiescence) must hold at the end of the run.
 */

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "dtu/dtu.h"
#include "os/system.h"
#include "services/file_client.h"
#include "services/m3fs.h"
#include "services/net.h"
#include "sim/invariants.h"
#include "sim/lane.h"
#include "sim/rng.h"

namespace m3v {
namespace {

using dtu::Error;
using os::Bytes;

/** Exact sleep to an absolute tick (one scheduled wake). */
sim::Task
sleepUntil(sim::EventQueue &eq, os::MuxEnv &env, sim::Tick at)
{
    tile::Thread &t = env.thread();
    t.clearWake();
    eq.scheduleAt(at, [&t]() { t.wake(); });
    co_await t.externalWait();
}

struct ChaosResult
{
    // Application-visible outcomes (must match the crash-free run).
    bool fsOk = false;
    Bytes fsData;
    unsigned echoes = 0;
    bool hogSurvived = false;
    bool victimSurvived = false;

    // Run fingerprint (must match across same-seed runs).
    sim::Tick crashAt = 0;
    sim::Tick endTime = 0;
    std::uint64_t events = 0;
    std::uint64_t watchdogKills = 0;
    std::uint64_t crashes = 0;
    std::uint64_t reaped = 0;
};

/**
 * Run the workload. With @p with_faults a hog shares the fs worker's
 * tile (the watchdog kills it) and a victim shares the UDP worker's
 * tile (it is crashed at a tick drawn from @p seed, in [1 ms, 5 ms));
 * without, only the two workers run.
 */
ChaosResult
runWorkload(std::uint64_t seed, bool with_faults)
{
    ChaosResult res;
    sim::EventQueue eq;
    sim::Rng rng(seed);
    res.crashAt = sim::kTicksPerMs + rng.nextBounded(4 * sim::kTicksPerMs);

    os::SystemParams params;
    params.userTiles = 4;
    params.dram.capacityBytes = 128 << 20;
    params.mux.watchdogSlices = 3;
    os::System sys(eq, params);

    services::M3fs fs(sys, 0);
    services::Nic nic(eq, "nic");
    services::ExtHost host(eq, "host", services::ExtHost::Mode::Echo);
    nic.connect(&host);
    host.connect(&nic);
    services::NetService net(sys, 1, nic);

    // FS worker on tile 2: write a file, read it back.
    auto *fs_app = sys.createApp(2, "fsworker");
    auto fs_client = fs.addClient(fs_app);
    sys.start(fs_app, [&, fs_client](os::MuxEnv &env) -> sim::Task {
        services::FileSession f(env, fs_client);
        Error err = Error::None;
        co_await f.open("/chaos",
                        services::kOpenW | services::kOpenCreate,
                        &err);
        if (err != Error::None)
            co_return;
        Bytes data(1024);
        for (std::size_t i = 0; i < data.size(); i++)
            data[i] = static_cast<std::uint8_t>(i * 7 + 1);
        for (int i = 0; i < 6; i++) {
            co_await f.write(data, &err);
            if (err != Error::None)
                co_return;
        }
        co_await f.close(&err);

        services::FileSession r(env, fs_client, 1);
        co_await r.open("/chaos", services::kOpenR, &err);
        Bytes back;
        for (;;) {
            Bytes chunk;
            co_await r.read(1024, &chunk, &err);
            if (err != Error::None || chunk.empty())
                break;
            back.insert(back.end(), chunk.begin(), chunk.end());
        }
        co_await r.close(&err);
        res.fsOk = err == Error::None;
        res.fsData = std::move(back);
    });

    // UDP worker on tile 3: strict ping-pong echoes.
    auto *udp_app = sys.createApp(3, "udpworker");
    auto wiring = net.addClient(udp_app);
    sys.start(udp_app, [&, wiring](os::MuxEnv &env) -> sim::Task {
        services::UdpSocket sock(env, wiring);
        Error err = Error::None;
        co_await sock.create(7777, &err);
        if (err != Error::None)
            co_return;
        for (int i = 0; i < 5; i++) {
            Bytes msg(8, static_cast<std::uint8_t>(i + 1));
            co_await sock.sendTo(0x0a000001, 9, msg, &err);
            if (err != Error::None)
                co_return;
            Bytes back;
            co_await sock.recv(&back, &err);
            if (back != msg)
                co_return;
            res.echoes++;
        }
    });

    if (with_faults) {
        // A hog next to the fs worker: computes "forever" without a
        // single TMCall, so the watchdog kills it after three full
        // slices.
        auto *hog = sys.createApp(2, "hog");
        sys.start(hog, [&](os::MuxEnv &env) -> sim::Task {
            co_await env.thread().compute(2'000'000'000);
            res.hogSurvived = true;
        });

        // A well-behaved victim next to the UDP worker that we crash
        // mid-run: its endpoints, capabilities, and credits must be
        // reaped without wedging the UDP worker.
        auto *victim = sys.createApp(3, "victim");
        sys.start(victim, [&](os::MuxEnv &env) -> sim::Task {
            for (int i = 0; i < 1'000'000; i++) {
                co_await env.thread().compute(50'000);
                co_await env.yield();
            }
            res.victimSurvived = true;
        });
        eq.schedule(res.crashAt, [&sys, victim]() {
            sys.mux(3).crashActivity(victim->act->id());
        });
    }

    fs.startService();
    net.startService();
    eq.run();

    res.endTime = eq.now();
    res.events = eq.executed();
    res.watchdogKills = sys.mux(2).watchdogKills();
    res.crashes = sys.mux(3).crashes();
    res.reaped = sys.controller().activitiesReaped();
    return res;
}

void
expectSameFingerprint(const ChaosResult &a, const ChaosResult &b)
{
    EXPECT_EQ(a.crashAt, b.crashAt);
    EXPECT_EQ(a.endTime, b.endTime);
    EXPECT_EQ(a.events, b.events);
    EXPECT_EQ(a.fsData, b.fsData);
    EXPECT_EQ(a.echoes, b.echoes);
    EXPECT_EQ(a.watchdogKills, b.watchdogKills);
    EXPECT_EQ(a.crashes, b.crashes);
    EXPECT_EQ(a.reaped, b.reaped);
}

TEST(ChaosTest, FaultyRunMatchesFaultFreeResults)
{
    ChaosResult clean = runWorkload(42, false);

    // The crash-free run sanity-checks the workload itself.
    ASSERT_TRUE(clean.fsOk);
    ASSERT_EQ(clean.fsData.size(), 6u * 1024);
    ASSERT_EQ(clean.echoes, 5u);
    EXPECT_EQ(clean.watchdogKills, 0u);
    EXPECT_EQ(clean.crashes, 0u);
    EXPECT_EQ(clean.reaped, 0u);

    for (std::uint64_t seed : {42, 7, 1234, 4242, 9001, 99}) {
        ChaosResult chaos = runWorkload(seed, true);
        SCOPED_TRACE(testing::Message() << "seed " << seed
                                        << ", crash at " << chaos.crashAt);
        // Every application-visible result of the survivors is
        // unchanged...
        EXPECT_TRUE(chaos.fsOk);
        EXPECT_EQ(chaos.fsData, clean.fsData);
        EXPECT_EQ(chaos.echoes, clean.echoes);
        // ...the watchdog killed the hog, the victim crashed, and the
        // controller reaped both.
        EXPECT_FALSE(chaos.hogSurvived);
        EXPECT_FALSE(chaos.victimSurvived);
        EXPECT_EQ(chaos.watchdogKills, 1u);
        EXPECT_EQ(chaos.crashes, 1u);
        EXPECT_EQ(chaos.reaped, 2u);
    }
}

TEST(ChaosTest, ParallelCellsReproduceInlineRuns)
{
    // The --jobs cell runner executes whole chaos workloads on worker
    // threads. Each cell is self-contained (own EventQueue, own Rng),
    // so four concurrent runs must fingerprint exactly like the same
    // four run inline.
    const std::uint64_t seeds[] = {7, 1234, 4242, 9001};
    std::vector<ChaosResult> inline_runs;
    for (std::uint64_t s : seeds)
        inline_runs.push_back(runWorkload(s, true));

    std::vector<ChaosResult> parallel_runs(4);
    std::vector<sim::UniqueFunction<void()>> cells;
    for (std::size_t i = 0; i < 4; i++) {
        std::uint64_t s = seeds[i];
        cells.push_back([&parallel_runs, i, s]() {
            parallel_runs[i] = runWorkload(s, true);
        });
    }
    sim::runCells(4, std::move(cells));

    for (std::size_t i = 0; i < 4; i++) {
        SCOPED_TRACE(testing::Message() << "seed " << seeds[i]);
        expectSameFingerprint(inline_runs[i], parallel_runs[i]);
    }
}

TEST(ChaosTest, SameSeedReproducesBitForBit)
{
    ChaosResult a = runWorkload(1234, true);
    ChaosResult b = runWorkload(1234, true);
    expectSameFingerprint(a, b);

    // A different seed crashes the victim at another tick (the event
    // count is the most sensitive fingerprint of the run).
    ChaosResult c = runWorkload(99, true);
    EXPECT_NE(a.crashAt, c.crashAt);
    EXPECT_NE(a.events, c.events);
}

struct ReapResult
{
    sim::Tick statStart = 0;
    sim::Tick statEnd = 0;
    bool victimReturned = false;
    Error bystanderSendErr = Error::Aborted;
    unsigned parkedPreCrash = 0;
    unsigned bystanderOk = 0;
    std::uint64_t reaped = 0;
    std::uint64_t creditsReclaimed = 0;
    std::uint64_t violations = 0;
    std::string report;
};

/**
 * The victim on tile 1 issues one m3fs stat at 1 ms; a bystander on
 * tile 2 parks a message in the victim's receive ring, then makes
 * five stat calls, 2 ms apart. With @p crash_at the victim is
 * crashed at that tick; without it the run measures the victim's RPC
 * span.
 */
ReapResult
runReap(std::optional<sim::Tick> crash_at)
{
    ReapResult res;
    sim::EventQueue eq;
    os::SystemParams params;
    params.userTiles = 3;
    os::System sys(eq, params);

    services::M3fs fs(sys, 0);

    auto *victim = sys.createApp(1, "victim");
    auto vc = fs.addClient(victim);
    auto vring = sys.makeRgate(victim, 128, 4);
    sys.start(victim, [&, vc](os::MuxEnv &env) -> sim::Task {
        services::FileSession f(env, vc);
        services::FsResp resp;
        co_await sleepUntil(eq, env, sim::kTicksPerMs);
        res.statStart = eq.now();
        co_await f.stat("/", &resp);
        res.statEnd = eq.now();
        res.victimReturned = true;
    });
    if (crash_at) {
        eq.scheduleAt(*crash_at, [&]() {
            const dtu::Endpoint &rep = sys.vdtu(1).ep(vring.ep);
            if (rep.kind == dtu::EpKind::Receive)
                for (const auto &rs : rep.recv.slots)
                    if (rs.occupied &&
                        rs.msg.creditEp != dtu::kInvalidEp)
                        res.parkedPreCrash++;
            sys.mux(1).crashActivity(victim->act->id());
        });
    }

    // A bystander sharing the fs service: parks a message in the
    // victim's ring pre-crash (its credit must come back via the
    // reap sweep) and must keep completing fs RPCs after the reap.
    auto *bystander = sys.createApp(2, "bystander");
    auto bc = fs.addClient(bystander);
    auto bsg = sys.makeSgate(bystander, victim, vring.ep, 1, 2);
    sys.start(bystander, [&, bc, bsg](os::MuxEnv &env) -> sim::Task {
        services::FileSession f(env, bc);
        co_await env.send(bsg.ep, Bytes(16, 0x33), dtu::kInvalidEp,
                          &res.bystanderSendErr);
        for (int i = 0; i < 5; i++) {
            co_await sleepUntil(eq, env,
                                (i + 1) * 2 * sim::kTicksPerMs);
            services::FsResp resp;
            co_await f.stat("/", &resp);
            if (resp.err == Error::None)
                res.bystanderOk++;
        }
    });

    sim::Invariants inv;
    std::vector<const dtu::Dtu *> dtus;
    for (unsigned i = 0; i < params.userTiles; i++)
        dtus.push_back(&sys.vdtu(i));
    dtus.push_back(&sys.controller().env().dtu());
    dtu::registerDtuInvariants(inv, std::move(dtus));
    inv.attach(eq, 64);

    fs.startService();
    eq.run();
    inv.runAll(true);

    res.reaped = sys.controller().activitiesReaped();
    res.creditsReclaimed = sys.vdtu(1).creditsReclaimed() +
                           sys.controller().creditsReclaimed();
    res.violations = inv.violationCount();
    res.report = inv.report();
    return res;
}

TEST(CrashReapTest, ReapDuringInflightRpcReclaimsCredits)
{
    // Measure the victim's RPC span, then crash it halfway through.
    ReapResult probe = runReap(std::nullopt);
    ASSERT_TRUE(probe.victimReturned);
    ASSERT_LT(probe.statStart + 1, probe.statEnd);
    EXPECT_EQ(probe.violations, 0u) << probe.report;

    ReapResult res =
        runReap((probe.statStart + probe.statEnd) / 2);
    // Killed mid-RPC: the stat never returns.
    EXPECT_FALSE(res.victimReturned);
    EXPECT_EQ(res.bystanderSendErr, Error::None);
    EXPECT_EQ(res.parkedPreCrash, 1u);
    EXPECT_EQ(res.bystanderOk, 5u);
    EXPECT_EQ(res.reaped, 1u);
    // The parked message's credit comes back through the crash-time
    // receive-ring sweep on the victim's own tile (TileMux resets the
    // activity's vDTU state before the controller's reap sidecall, so
    // the controller-side sweep finds the rings already drained).
    EXPECT_GT(res.creditsReclaimed, 0u);
    // Nothing the victim had in flight may violate credit
    // conservation or leave an engine non-quiescent.
    EXPECT_EQ(res.violations, 0u) << res.report;
}

} // namespace
} // namespace m3v
