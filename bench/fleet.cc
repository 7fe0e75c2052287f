/**
 * @file
 * Open-loop multi-tenant fleet under overload and chaos: per-tile
 * driver activities multiplex thousands of Zipfian-weighted tenants
 * into m3fs/net/pager requests whose arrivals are scheduled by the
 * clock (open loop: when the system slows down, work keeps coming).
 * A diurnal wave plus an explicit burst window push the services past
 * saturation, where the admission layer sheds typed Error::Overloaded
 * rejections and the client discipline (retry budgets, jittered
 * backoff, circuit breakers) keeps retries from amplifying the storm.
 *
 * With --chaos a second cell additionally runs a fault drill: two
 * driver tiles are killed mid-burst and the NoC is degraded for a
 * window, and the SloReport measures the goodput floor during the
 * drill plus the time until p99 recovers to the pre-fault baseline.
 *
 * Cells are independent simulations executed via runCells, so the
 * summary is byte-identical for any --jobs value.
 *
 * Flags (on top of the common --jobs/--summary-out/--metrics-out):
 * --tenants=N, --rate=R (aggregate request rate per simulated
 * second), --burst=M (burst rate multiplier), --slo-ms=S (latency
 * SLO), --chaos (run the drill cell).
 */

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "slo_report.h"
#include "services/m3fs.h"
#include "services/file_client.h"
#include "services/net.h"
#include "services/pager.h"
#include "sim/fault.h"
#include "sim/invariants.h"
#include "sim/lane.h"
#include "sim/open_loop.h"
#include "sim/overload.h"
#include "workloads/zipf.h"

namespace {

using namespace m3v;

/** Platform layout: services on tiles 0-2, drivers on the rest. */
constexpr unsigned kUserTiles = 10;
constexpr unsigned kFsTile = 0;
constexpr unsigned kNetTile = 1;
constexpr unsigned kPagerTile = 2;
constexpr unsigned kFirstDriverTile = 3;
constexpr unsigned kDrivers = kUserTiles - kFirstDriverTile;

/** Timeline (all simulated time). */
constexpr sim::Tick kMeasureStart = 2 * sim::kTicksPerMs;
constexpr sim::Tick kHorizon = 40 * sim::kTicksPerMs;
constexpr sim::Tick kBurstStart = 10 * sim::kTicksPerMs;
constexpr sim::Tick kBurstEnd = 25 * sim::kTicksPerMs;
constexpr sim::Tick kFaultStart = 14 * sim::kTicksPerMs;
constexpr sim::Tick kFaultEnd = 18 * sim::kTicksPerMs;
constexpr sim::Tick kSloWindow = sim::kTicksPerMs;

/** The two driver tiles the chaos drill kills mid-burst. */
constexpr unsigned kKillTiles[] = {8, 9};

struct FleetOptions
{
    std::uint64_t tenants = 2000;
    double rate = 10500.0; ///< aggregate arrivals/s over all drivers
    double burst = 3.0;    ///< burst-window rate multiplier
    double sloMs = 1.0;
    bool chaos = false;
};

FleetOptions
parseFleetArgs(int argc, char **argv)
{
    FleetOptions o;
    for (int i = 1; i < argc; i++) {
        std::string arg = argv[i];
        const std::string kTenants = "--tenants=";
        const std::string kRate = "--rate=";
        const std::string kBurst = "--burst=";
        const std::string kSlo = "--slo-ms=";
        if (arg.rfind(kTenants, 0) == 0)
            o.tenants = std::strtoull(
                arg.c_str() + kTenants.size(), nullptr, 10);
        else if (arg.rfind(kRate, 0) == 0)
            o.rate = std::atof(arg.c_str() + kRate.size());
        else if (arg.rfind(kBurst, 0) == 0)
            o.burst = std::atof(arg.c_str() + kBurst.size());
        else if (arg.rfind(kSlo, 0) == 0)
            o.sloMs = std::atof(arg.c_str() + kSlo.size());
        else if (arg == "--chaos")
            o.chaos = true;
    }
    if (o.tenants < 100)
        o.tenants = 100;
    return o;
}

/** Mutable per-driver counters that outlive a killed driver. */
struct DriverStats
{
    std::uint64_t clientShed = 0;
    std::uint64_t churn = 0;
    std::uint64_t setupRetries = 0;
    std::uint64_t fsRetries = 0;
    std::uint64_t netRetries = 0;
    std::uint64_t overloadedSeen = 0;
    std::uint64_t staleDrops = 0;
};

/** Everything one cell reports (all derived from simulated state). */
struct CellOut
{
    std::uint64_t events = 0;
    std::uint64_t invariantViolations = 0;
    std::uint64_t fsRequests = 0;
    std::uint64_t fsShedAge = 0;
    std::uint64_t fsShedOcc = 0;
    std::uint64_t netShed = 0;
    std::uint64_t pagerShed = 0;
    std::uint64_t ctrlShed = 0;
    std::uint64_t clientShed = 0;
    std::uint64_t retries = 0;
    std::uint64_t overloadedSeen = 0;
    std::uint64_t staleDrops = 0;
    std::uint64_t breakerTrips = 0;
    std::uint64_t breakerShortCircuits = 0;
    std::uint64_t budgetSpent = 0;
    std::uint64_t budgetDenied = 0;
    std::uint64_t churn = 0;
    std::uint64_t drops = 0;
    std::uint64_t delays = 0;
    std::uint64_t retransmits = 0;
    std::uint64_t reaps = 0;
    std::uint64_t creditsReclaimed = 0;
    double classP[3][3] = {}; ///< [gold,silver,bronze][p50,p99,p999]
    std::unique_ptr<bench::SloReport> slo;
    bench::MetricsDump dump;
};

/** Exact open-loop sleep: one scheduled wake, no core burn. */
sim::Task
sleepUntil(sim::EventQueue &eq, os::MuxEnv &env, sim::Tick at)
{
    tile::Thread &t = env.thread();
    t.clearWake();
    eq.scheduleAt(at, [&t]() { t.wake(); });
    co_await t.externalWait();
}

/** Tenant class by Zipf rank: 0 = gold, 1 = silver, 2 = bronze. */
int
tenantClass(std::uint64_t rank)
{
    return rank < 10 ? 0 : rank < 100 ? 1 : 2;
}

const char *kClassNames[] = {"gold", "silver", "bronze"};

void
runFleet(const FleetOptions &opts, bool chaos, std::uint64_t seed,
         CellOut *out)
{
    const auto sloTicks =
        static_cast<sim::Tick>(opts.sloMs * sim::kTicksPerMs);

    sim::EventQueue eq;
    sim::FaultPlan plan(seed ^ 0xFA17);
    os::SystemParams params;
    params.userTiles = kUserTiles;
    params.dram.capacityBytes = 256 << 20;
    // Controller protection: shed syscalls that aged in the ring.
    params.ctrl.admission.maxQueueDelay = sloTicks / 2;
    if (chaos) {
        // NoC degradation across the drill window (the fault plan
        // also switches the DTUs to the reliable wire protocol).
        plan.addDelay("noc", 0.6, 6000, kFaultStart, kFaultEnd);
        params.noc.faults = &plan;
    }
    os::System sys(eq, params);

    services::Nic nic(eq, "nic");
    services::ExtHost host(eq, "host", services::ExtHost::Mode::Sink);
    nic.connect(&host);
    host.connect(&nic);

    // Services with bounded admission queues: the recv ring is the
    // queue (fixed slots, nacked at the wire when full); on top of it
    // deadline-aware age shedding plus an occupancy high-water mark.
    services::M3fsParams fsp;
    fsp.storageBytes = 64 << 20;
    fsp.slots = 32;
    fsp.opBaseCost = 4000; // fleet ops model auth + serialization
    fsp.admission.maxQueueDelay = 300 * sim::kTicksPerUs;
    fsp.admission.highWater = 24;
    fsp.admission.shedCost = 400;
    services::M3fs fs(sys, kFsTile, fsp);

    services::NetParams np;
    np.reqSlots = 32;
    np.admission.maxQueueDelay = 300 * sim::kTicksPerUs;
    np.admission.highWater = 24;
    services::NetService net(sys, kNetTile, nic, np);

    sim::AdmissionParams padm;
    padm.maxQueueDelay = 400 * sim::kTicksPerUs;
    padm.highWater = 12;
    services::PagerService pager(sys, kPagerTile, 6 * 1024, padm, 16);

    // Per-driver wiring, guards, and stats (owned here so they
    // survive a killed driver).
    std::vector<services::M3fs::Client> fsClients;
    std::vector<services::NetService::Client> netClients;
    std::vector<services::PagerService::Client> pagerClients;
    std::vector<os::System::App *> apps;
    std::vector<std::unique_ptr<sim::OverloadGuard>> fsGuards;
    std::vector<std::unique_ptr<sim::OverloadGuard>> netGuards;
    std::vector<DriverStats> stats(kDrivers);

    sim::OverloadGuard::Params gp;
    gp.replyDeadline = sloTicks;
    gp.backoff.base = 4096;
    gp.backoff.cap = 1 << 16;

    for (unsigned d = 0; d < kDrivers; d++) {
        auto *app = sys.createApp(kFirstDriverTile + d, "drv", 8192);
        apps.push_back(app);
        fsClients.push_back(fs.addClient(app));
        netClients.push_back(net.addClient(app));
        pagerClients.push_back(pager.addClient(app));
        fsGuards.push_back(std::make_unique<sim::OverloadGuard>(
            seed ^ (0xB0FF + d), gp));
        netGuards.push_back(std::make_unique<sim::OverloadGuard>(
            seed ^ (0x5EED + d), gp));
    }
    fs.startService();
    net.startService();
    pager.startService();

    // Per-tenant-class latency histograms in the metrics registry.
    sim::Histogram *classHist[3];
    for (int c = 0; c < 3; c++)
        classHist[c] = eq.metrics().histogram(
            std::string("fleet.lat.") + kClassNames[c] + "_us", 0,
            5000, 2000);

    bench::SloReport slo(kMeasureStart, kHorizon, kSloWindow,
                         sloTicks);
    slo.setBaselineEnd(kBurstStart);
    if (chaos)
        slo.setFaultWindow(kFaultStart, kFaultEnd);

    const double perDriverRate = opts.rate / kDrivers;

    for (unsigned d = 0; d < kDrivers; d++) {
        sys.start(apps[d], [&, d](os::MuxEnv &env) -> sim::Task {
            DriverStats &st = stats[d];
            sim::OverloadGuard *fsg = fsGuards[d].get();
            sim::OverloadGuard *netg = netGuards[d].get();

            // Staggered setup: map heap pages (budgeted retry — the
            // pager itself may shed the boot burst), create this
            // driver's file, open a socket.
            co_await env.thread().compute(2000 + 977 * d);
            dtu::VirtAddr va = 0;
            for (int a = 0; a < 8; a++) {
                dtu::Error perr = dtu::Error::None;
                co_await services::pagerAllocMap(
                    env, pagerClients[d], 4, &va, &perr);
                if (perr == dtu::Error::None)
                    break;
                st.setupRetries++;
                co_await env.thread().compute(
                    static_cast<sim::Cycles>(4096) << (a < 4 ? a : 4));
            }
            services::FileSession fsess(env, fsClients[d], 0, fsg);
            services::UdpSocket sock(env, netClients[d], netg);
            std::string myPath = "/d" + std::to_string(d);
            dtu::Error err = dtu::Error::None;
            co_await fsess.open(myPath,
                                services::kOpenCreate |
                                    services::kOpenW,
                                &err);
            co_await fsess.write(os::Bytes(256, 0x5a), &err);
            co_await fsess.close(&err);
            auto port = static_cast<std::uint16_t>(7000 + d);
            co_await sock.create(port, &err);

            // Open-loop arrival schedule: diurnal wave + burst.
            sim::OpenLoopSource src(seed ^ (0xA221 + d),
                                    perDriverRate, kMeasureStart);
            src.setDiurnal(0.25, 20 * sim::kTicksPerMs);
            src.addBurst(kBurstStart, kBurstEnd, opts.burst);
            sim::Rng opRng(seed ^ (0x09D1 + d));
            workloads::Zipfian zipf(opts.tenants);
            std::uint64_t netOps = 0, pagerOps = 0;

            for (;;) {
                sim::Tick at = src.next();
                if (at >= kHorizon)
                    break;
                if (eq.now() < at) {
                    co_await sleepUntil(eq, env, at);
                } else if (eq.now() > at + sloTicks) {
                    // Hopelessly behind schedule: shed client-side
                    // instead of building an unbounded backlog.
                    slo.shed(at);
                    st.clientShed++;
                    continue;
                }

                std::uint64_t rank = zipf.next(opRng);
                int cls = tenantClass(rank);
                std::uint64_t pick = opRng.nextBounded(100);
                bool ok = true;
                if (pick < 70) {
                    // Metadata lookup on the tenant's home shard.
                    services::FsResp resp;
                    co_await fsess.stat(
                        "/d" + std::to_string(rank % kDrivers),
                        &resp);
                    ok = resp.err == dtu::Error::None;
                } else if (pick < 90) {
                    // Tenant egress; periodic connection churn.
                    if (++netOps % 16 == 0) {
                        dtu::Error cerr = dtu::Error::None;
                        co_await sock.close(&cerr);
                        co_await sock.create(port, &cerr);
                        st.churn++;
                    }
                    dtu::Error serr = dtu::Error::None;
                    co_await sock.sendTo(0x0a000001, 9,
                                         os::Bytes(96, 0x42),
                                         &serr);
                    ok = serr == dtu::Error::None;
                } else if (pick < 92) {
                    // Write path: append to the driver's own file.
                    dtu::Error werr = dtu::Error::None;
                    co_await fsess.open(myPath, services::kOpenW,
                                        &werr);
                    ok = werr == dtu::Error::None;
                    if (ok) {
                        co_await fsess.write(os::Bytes(128, 0x11),
                                             &werr);
                        ok = werr == dtu::Error::None;
                        dtu::Error clerr = dtu::Error::None;
                        co_await fsess.close(&clerr);
                        ok = ok && clerr == dtu::Error::None;
                    }
                } else if (pagerOps < 48) {
                    // Heap growth through the pager.
                    pagerOps++;
                    dtu::VirtAddr pva = 0;
                    dtu::Error perr = dtu::Error::None;
                    co_await services::pagerAllocMap(
                        env, pagerClients[d], 1, &pva, &perr);
                    ok = perr == dtu::Error::None;
                } else {
                    services::FsResp resp;
                    co_await fsess.stat(myPath, &resp);
                    ok = resp.err == dtu::Error::None;
                }

                sim::Tick lat = eq.now() - at;
                slo.feed(at, lat, ok);
                if (ok)
                    classHist[cls]->add(
                        static_cast<double>(lat) /
                        sim::kTicksPerUs);

                // Snapshot session counters (frames die with a
                // killed driver; these outlive it).
                st.fsRetries = fsess.rpcRetries();
                st.netRetries = sock.rpcRetries();
                st.overloadedSeen =
                    fsess.rpcOverloaded() + sock.rpcOverloaded();
                st.staleDrops = env.staleRepliesDropped();
            }
        });
    }

    // The chaos drill: mid-burst, kill every driver activity on the
    // victim tiles (TileMux crash upcall -> controller reap).
    if (chaos) {
        for (unsigned tile : kKillTiles) {
            for (unsigned d = 0; d < kDrivers; d++) {
                if (kFirstDriverTile + d != tile)
                    continue;
                core::TileMux *mux = &sys.mux(tile);
                dtu::ActId id = apps[d]->act->id();
                eq.scheduleAt(kFaultStart, [mux, id]() {
                    mux->crashActivity(id);
                });
            }
        }
    }

    // Conservation laws checked while the fleet runs and again at
    // quiescence (credits, ring occupancy, drained engines).
    sim::Invariants inv;
    std::vector<const dtu::Dtu *> dtus;
    for (unsigned i = 0; i < kUserTiles; i++)
        dtus.push_back(&sys.vdtu(i));
    dtus.push_back(&sys.controller().env().dtu());
    dtu::registerDtuInvariants(inv, std::move(dtus));
    inv.attach(eq, 256);

    eq.run();
    inv.runAll(true);

    out->events = eq.executed();
    out->invariantViolations = inv.violationCount();
    out->fsRequests = fs.requests();
    out->fsShedAge = fs.admission().shedByAge();
    out->fsShedOcc = fs.admission().shedByOccupancy();
    out->netShed = net.admission().shed();
    out->pagerShed = pager.admission().shed();
    out->ctrlShed = sys.controller().admission().shed();
    for (const DriverStats &st : stats) {
        out->clientShed += st.clientShed;
        out->retries += st.fsRetries + st.netRetries +
                        st.setupRetries;
        out->overloadedSeen += st.overloadedSeen;
        out->staleDrops += st.staleDrops;
        out->churn += st.churn;
    }
    for (unsigned d = 0; d < kDrivers; d++) {
        out->breakerTrips += fsGuards[d]->breaker().trips() +
                             netGuards[d]->breaker().trips();
        out->breakerShortCircuits +=
            fsGuards[d]->breaker().shortCircuits() +
            netGuards[d]->breaker().shortCircuits();
        out->budgetSpent += fsGuards[d]->budget().spent() +
                            netGuards[d]->budget().spent();
        out->budgetDenied += fsGuards[d]->budget().denied() +
                             netGuards[d]->budget().denied();
    }
    out->drops = plan.drops().value();
    out->delays = plan.delays().value();
    for (unsigned i = 0; i < kUserTiles; i++)
        out->retransmits += sys.vdtu(i).retransmits();
    out->reaps = sys.controller().activitiesReaped();
    // Credits come back on two paths: the TileMux sweeps the dead
    // activity's receive rings locally at crash time (counted on the
    // tile's DTU), and the controller's reap sweep catches whatever
    // the tile missed (remote activations).
    out->creditsReclaimed = sys.controller().creditsReclaimed();
    for (unsigned i = 0; i < kUserTiles; i++)
        out->creditsReclaimed += sys.vdtu(i).creditsReclaimed();
    for (int c = 0; c < 3; c++) {
        out->classP[c][0] = classHist[c]->percentile(0.50);
        out->classP[c][1] = classHist[c]->percentile(0.99);
        out->classP[c][2] = classHist[c]->percentile(0.999);
    }
    out->slo = std::make_unique<bench::SloReport>(slo);
    out->dump.addSection(chaos ? "chaos" : "steady", eq.metrics());
}

void
addCell(bench::Summary &s, const std::string &prefix,
        const CellOut &o, bool chaos)
{
    o.slo->addTo(s, prefix);
    s.addU64(prefix + "client_shed", o.clientShed);
    s.addU64(prefix + "fs_requests", o.fsRequests);
    s.addU64(prefix + "fs_shed_age", o.fsShedAge);
    s.addU64(prefix + "fs_shed_occupancy", o.fsShedOcc);
    s.addU64(prefix + "net_shed", o.netShed);
    s.addU64(prefix + "pager_shed", o.pagerShed);
    s.addU64(prefix + "ctrl_shed", o.ctrlShed);
    s.addU64(prefix + "retries", o.retries);
    s.addU64(prefix + "overloaded_seen", o.overloadedSeen);
    s.addU64(prefix + "breaker_trips", o.breakerTrips);
    s.addU64(prefix + "breaker_short_circuits",
             o.breakerShortCircuits);
    s.addU64(prefix + "budget_spent", o.budgetSpent);
    s.addU64(prefix + "budget_denied", o.budgetDenied);
    s.addU64(prefix + "stale_reply_drops", o.staleDrops);
    s.addU64(prefix + "conn_churn", o.churn);
    for (int c = 0; c < 3; c++) {
        std::string base = prefix + kClassNames[c];
        s.add(base + "_p50_us", o.classP[c][0], 2);
        s.add(base + "_p99_us", o.classP[c][1], 2);
        s.add(base + "_p999_us", o.classP[c][2], 2);
    }
    if (chaos) {
        s.addU64(prefix + "noc_delays", o.delays);
        s.addU64(prefix + "retransmits", o.retransmits);
        s.addU64(prefix + "activities_reaped", o.reaps);
        s.addU64(prefix + "credits_reclaimed", o.creditsReclaimed);
    }
    s.addU64(prefix + "invariant_violations",
             o.invariantViolations);
    s.addU64(prefix + "events", o.events);
}

} // namespace

int
main(int argc, char **argv)
{
    using m3v::bench::banner;

    m3v::bench::ObsOptions obs = m3v::bench::parseObsArgs(argc, argv);
    FleetOptions fo = parseFleetArgs(argc, argv);

    banner("Fleet",
           "Open-loop multi-tenant overload + chaos drill (" +
               std::to_string(fo.tenants) + " tenants, " +
               std::to_string(kDrivers) + " drivers)");

    CellOut steady, chaos;
    std::vector<sim::UniqueFunction<void()>> cells;
    cells.push_back([&]() {
        runFleet(fo, false, 0x51EAD5EED, &steady);
    });
    if (fo.chaos)
        cells.push_back([&]() {
            runFleet(fo, true, 0xC4A05BA11, &chaos);
        });
    sim::runCells(obs.jobs, std::move(cells));

    m3v::bench::Summary s;
    s.addU64("tenants", fo.tenants);
    s.addU64("drivers", kDrivers);
    s.add("rate_per_s", fo.rate, 1);
    s.add("burst", fo.burst, 2);
    s.add("slo_ms", fo.sloMs, 3);
    addCell(s, "steady_", steady, false);
    if (fo.chaos)
        addCell(s, "chaos_", chaos, true);

    std::printf("\n  steady: issued %llu goodput %llu shed %llu "
                "(client %llu) p99[gold] %.1f us\n",
                static_cast<unsigned long long>(
                    steady.slo->issued()),
                static_cast<unsigned long long>(
                    steady.slo->goodput()),
                static_cast<unsigned long long>(
                    steady.slo->shedTotal()),
                static_cast<unsigned long long>(steady.clientShed),
                steady.classP[0][1]);
    if (fo.chaos) {
        long long rec = chaos.slo->recoveryTicks();
        std::printf("  chaos:  issued %llu goodput %llu floor %llu "
                    "reaped %llu recovery %.3f ms violations %llu\n",
                    static_cast<unsigned long long>(
                        chaos.slo->issued()),
                    static_cast<unsigned long long>(
                        chaos.slo->goodput()),
                    static_cast<unsigned long long>(
                        chaos.slo->goodputFloor()),
                    static_cast<unsigned long long>(chaos.reaps),
                    rec >= 0 ? static_cast<double>(rec) /
                                   sim::kTicksPerMs
                             : -1.0,
                    static_cast<unsigned long long>(
                        chaos.invariantViolations));
    }

    s.write(obs.summaryOut);
    m3v::bench::MetricsDump dump;
    dump.absorb(steady.dump);
    if (fo.chaos)
        dump.absorb(chaos.dump);
    dump.write(obs.metricsOut);
    return 0;
}
