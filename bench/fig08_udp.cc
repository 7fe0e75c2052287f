/**
 * @file
 * Figure 8: UDP round-trip latency between the platform and a
 * directly connected peer host (the paper's AMD Ryzen): 1-byte
 * packets, 50 repetitions after 5 warmup runs. M3v is measured with
 * the benchmark, net stack and pager sharing one BOOM core
 * ("shared") and on separate cores ("isolated"); Linux uses its
 * in-kernel UDP stack on one core.
 *
 * Expected shape: M3v (shared) competitive with Linux; isolated
 * lower (no context switches on the NIC tile's core).
 */

#include <cstdio>

#include "bench_util.h"
#include "linuxref/kernel.h"
#include "services/net.h"
#include "sim/lane.h"
#include "services/pager.h"

namespace {

using namespace m3v;
using os::Bytes;

constexpr int kWarmup = 5;
constexpr int kRuns = 50;

struct Result
{
    double meanUs = 0;
    double stddevUs = 0;
};

Result
m3vUdp(bool shared, bench::MetricsDump *dump,
       const std::string &trace_out)
{
    sim::EventQueue eq;
    if (!trace_out.empty())
        eq.tracer().enableAll();
    os::SystemParams params;
    params.userTiles = 3;
    os::System sys(eq, params);

    // The NIC is attached to the net tile's core (tile 0).
    services::Nic nic(eq, "nic");
    services::ExtHost host(eq, "host", services::ExtHost::Mode::Echo);
    nic.connect(&host);
    host.connect(&nic);

    unsigned net_tile = 0;
    unsigned app_tile = shared ? 0 : 1;
    unsigned pager_tile = shared ? 0 : 2;

    services::NetService net(sys, net_tile, nic);
    services::PagerService pager(sys, pager_tile);
    auto *app = sys.createApp(app_tile, "bench", 8 * 1024);
    auto net_client = net.addClient(app);
    auto pager_client = pager.addClient(app);
    net.startService();
    pager.startService();

    sim::Sampler lat;
    sys.start(app, [&, net_client,
                    pager_client](os::MuxEnv &env) -> sim::Task {
        dtu::VirtAddr va = 0;
        dtu::Error perr = dtu::Error::None;
        co_await services::pagerAllocMap(env, pager_client, 2, &va,
                                         &perr);
        services::UdpSocket sock(env, net_client);
        dtu::Error err = dtu::Error::None;
        co_await sock.create(7000, &err);
        for (int i = 0; i < kWarmup + kRuns; i++) {
            sim::Tick t0 = eq.now();
            co_await sock.sendTo(0x0a000001, 9, Bytes(1, 0x55),
                                 &err);
            Bytes back;
            co_await sock.recv(&back, &err);
            if (i >= kWarmup)
                lat.add(sim::ticksToUs(eq.now() - t0));
        }
    });
    eq.run();
    if (dump)
        dump->addSection(shared ? "m3v_shared" : "m3v_isolated",
                         eq.metrics());
    if (!trace_out.empty())
        eq.tracer().writeJsonFile(trace_out);
    return Result{lat.mean(), lat.stddev()};
}

Result
linuxUdp()
{
    sim::EventQueue eq;
    tile::Core core(eq, "c", tile::CoreModel::boom(), 0);
    services::Nic nic(eq, "nic");
    services::ExtHost host(eq, "host", services::ExtHost::Mode::Echo);
    nic.connect(&host);
    host.connect(&nic);
    linuxref::LinuxKernel kernel(eq, "k", core, &nic);
    auto *p = kernel.createProcess("bench", 8 * 1024);
    sim::Sampler lat;
    kernel.start(p, sim::invoke([&]() -> sim::Task {
        int s = -1;
        co_await kernel.sysSocket(*p, 7000, &s);
        for (int i = 0; i < kWarmup + kRuns; i++) {
            sim::Tick t0 = eq.now();
            co_await kernel.sysSendTo(*p, s, 0x0a000001, 9,
                                      Bytes(1, 0x55));
            Bytes back;
            co_await kernel.sysRecvFrom(*p, s, &back);
            if (i >= kWarmup)
                lat.add(sim::ticksToUs(eq.now() - t0));
        }
        co_await kernel.sysExit(*p);
    }));
    eq.run();
    return Result{lat.mean(), lat.stddev()};
}

} // namespace

int
main(int argc, char **argv)
{
    using m3v::bench::Bar;
    using m3v::bench::banner;
    using m3v::bench::printBars;

    m3v::bench::ObsOptions obs = m3v::bench::parseObsArgs(argc, argv);
    m3v::bench::MetricsDump dump;

    banner("Figure 8",
           "UDP round-trip latency to a directly connected host "
           "(1-byte packets)");

    // The three measurements are independent cells run on --jobs
    // threads; output order is fixed after the join.
    Result lin, shared, isolated;
    m3v::bench::MetricsDump dshared, disolated;
    std::string trace = obs.traceOut;
    std::vector<sim::UniqueFunction<void()>> cells;
    cells.push_back([&lin]() { lin = linuxUdp(); });
    cells.push_back([&shared, &dshared]() {
        shared = m3vUdp(true, &dshared, "");
    });
    cells.push_back([&isolated, &disolated, trace]() {
        isolated = m3vUdp(false, &disolated, trace);
    });
    sim::runCells(obs.jobs, std::move(cells));
    dump.absorb(dshared);
    dump.absorb(disolated);

    std::vector<Bar> bars = {
        {"Linux", lin.meanUs, lin.stddevUs},
        {"M3v (shared)", shared.meanUs, shared.stddevUs},
        {"M3v (isolated)", isolated.meanUs, isolated.stddevUs},
    };
    printBars(bars, "us");
    std::printf("\nNote: as in the paper, the isolated result uses "
                "multiple tiles and\ncannot be compared to "
                "single-tile Linux directly.\n");
    dump.write(obs.metricsOut);

    m3v::bench::Summary summary;
    summary.add("linux_us", lin.meanUs);
    summary.add("linux_stddev_us", lin.stddevUs);
    summary.add("m3v_shared_us", shared.meanUs);
    summary.add("m3v_shared_stddev_us", shared.stddevUs);
    summary.add("m3v_isolated_us", isolated.meanUs);
    summary.add("m3v_isolated_stddev_us", isolated.stddevUs);
    summary.write(obs.summaryOut);
    return 0;
}
