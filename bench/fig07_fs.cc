/**
 * @file
 * Figure 7: file read/write throughput, POSIX read/write API on
 * 2 MiB files with 4 KiB buffers; m3fs with 64-block extents vs
 * Linux tmpfs. M3v is measured with all involved components (pager,
 * file system, benchmark) sharing one BOOM core ("shared") and on
 * separate cores ("isolated"); 10 runs after 4 warmup runs.
 *
 * Expected shape: reads much faster than writes on both systems
 * (writes allocate + clear blocks); M3v above Linux (per-extent
 * direct access vs per-call kernel entry); shared below isolated.
 */

#include <cstdio>

#include "bench_util.h"
#include "linuxref/kernel.h"
#include "services/m3fs.h"
#include "sim/lane.h"
#include "services/pager.h"
#include "workloads/vfs_linux.h"
#include "workloads/vfs_m3v.h"

namespace {

using namespace m3v;
using workloads::Bytes;

constexpr std::size_t kFileSize = 2 << 20;
constexpr std::size_t kBuf = 4096;
constexpr int kWarmup = 4;
constexpr int kRuns = 10;

struct Result
{
    double readMibs = 0;
    double writeMibs = 0;
};

/** One measured pass: write the file, then read it back. */
sim::Task
fsPass(workloads::Vfs &vfs, const std::string &path, bool measure,
       sim::EventQueue &eq, sim::Sampler *wr, sim::Sampler *rd)
{
    bool ok = false;
    std::unique_ptr<workloads::VfsFile> f;

    sim::Tick t0 = eq.now();
    co_await vfs.open(path, workloads::kVfsW | workloads::kVfsCreate |
                                workloads::kVfsTrunc,
                      &f, &ok);
    Bytes chunk(kBuf, 0x42);
    for (std::size_t off = 0; off < kFileSize; off += kBuf)
        co_await f->write(chunk, &ok);
    co_await f->close();
    if (measure && wr) {
        double secs = sim::ticksToSec(eq.now() - t0);
        wr->add(static_cast<double>(kFileSize) / (1 << 20) / secs);
    }

    t0 = eq.now();
    co_await vfs.open(path, workloads::kVfsR, &f, &ok);
    std::size_t total = 0;
    for (;;) {
        Bytes data;
        co_await f->read(kBuf, &data, &ok);
        if (data.empty())
            break;
        total += data.size();
    }
    co_await f->close();
    if (measure && rd) {
        double secs = sim::ticksToSec(eq.now() - t0);
        rd->add(static_cast<double>(total) / (1 << 20) / secs);
    }
}

/** M3v: app (+ pager) on tile A, m3fs on tile B (B==A for shared). */
Result
m3vFs(bool shared, bench::MetricsDump *dump,
      const std::string &trace_out)
{
    sim::EventQueue eq;
    if (!trace_out.empty())
        eq.tracer().enableAll();
    os::SystemParams params;
    params.userTiles = 3;
    params.dram.capacityBytes = 256 << 20;
    os::System sys(eq, params);

    unsigned app_tile = 0;
    unsigned fs_tile = shared ? 0 : 1;
    unsigned pager_tile = shared ? 0 : 2;

    services::M3fsParams fsp;
    fsp.storageBytes = 64 << 20;
    services::M3fs fs(sys, fs_tile, fsp);
    services::PagerService pager(sys, pager_tile);
    auto *app = sys.createApp(app_tile, "bench", 8 * 1024);
    auto fs_client = fs.addClient(app);
    auto pager_client = pager.addClient(app);
    fs.startService();
    pager.startService();

    sim::Sampler wr, rd;
    sys.start(app, [&, fs_client,
                    pager_client](os::MuxEnv &env) -> sim::Task {
        // Touch the pager once (heap setup), as the real app would.
        dtu::VirtAddr va = 0;
        dtu::Error perr = dtu::Error::None;
        co_await services::pagerAllocMap(env, pager_client, 4, &va,
                                         &perr);
        workloads::M3vVfs vfs(env, fs_client);
        for (int i = 0; i < kWarmup; i++)
            co_await fsPass(vfs, "/bench" + std::to_string(i), false,
                            eq, nullptr, nullptr);
        for (int i = 0; i < kRuns; i++)
            co_await fsPass(vfs, "/run" + std::to_string(i), true,
                            eq, &wr, &rd);
    });
    eq.run();
    if (dump)
        dump->addSection(shared ? "m3v_shared" : "m3v_isolated",
                         eq.metrics());
    if (!trace_out.empty())
        eq.tracer().writeJsonFile(trace_out);
    return Result{rd.mean(), wr.mean()};
}

/** Linux: everything on one core, tmpfs. */
Result
linuxFs()
{
    sim::EventQueue eq;
    tile::Core core(eq, "c", tile::CoreModel::boom(), 0);
    linuxref::LinuxKernel kernel(eq, "k", core);
    auto *p = kernel.createProcess("bench", 8 * 1024);
    sim::Sampler wr, rd;
    kernel.start(p, sim::invoke([&]() -> sim::Task {
        workloads::LinuxVfs vfs(kernel, *p);
        for (int i = 0; i < kWarmup; i++)
            co_await fsPass(vfs, "/bench" + std::to_string(i), false,
                            eq, nullptr, nullptr);
        for (int i = 0; i < kRuns; i++)
            co_await fsPass(vfs, "/run" + std::to_string(i), true,
                            eq, &wr, &rd);
        co_await kernel.sysExit(*p);
    }));
    eq.run();
    return Result{rd.mean(), wr.mean()};
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

    banner("Figure 7",
           "File read/write throughput (2 MiB files, 4 KiB buffers, "
           "64-block extents)");

    // The three measurements are independent cells run on --jobs
    // threads; output order is fixed after the join.
    Result lin, shared, isolated;
    m3v::bench::MetricsDump dshared, disolated;
    std::string trace = obs.traceOut;
    std::vector<sim::UniqueFunction<void()>> cells;
    cells.push_back([&lin]() { lin = linuxFs(); });
    cells.push_back([&shared, &dshared]() {
        shared = m3vFs(true, &dshared, "");
    });
    cells.push_back([&isolated, &disolated, trace]() {
        isolated = m3vFs(false, &disolated, trace);
    });
    sim::runCells(obs.jobs, std::move(cells));
    dump.absorb(dshared);
    dump.absorb(disolated);

    std::vector<Bar> bars = {
        {"Linux write", lin.writeMibs, 0},
        {"Linux read", lin.readMibs, 0},
        {"M3v write (shared)", shared.writeMibs, 0},
        {"M3v write (isolated)", isolated.writeMibs, 0},
        {"M3v read (shared)", shared.readMibs, 0},
        {"M3v read (isolated)", isolated.readMibs, 0},
    };
    printBars(bars, "MiB/s");
    std::printf("\nNote: as in the paper, the isolated results use "
                "multiple tiles and\ncannot be compared to "
                "single-tile Linux directly.\n");
    dump.write(obs.metricsOut);

    m3v::bench::Summary summary;
    summary.add("linux_write_mibs", lin.writeMibs);
    summary.add("linux_read_mibs", lin.readMibs);
    summary.add("m3v_shared_write_mibs", shared.writeMibs);
    summary.add("m3v_isolated_write_mibs", isolated.writeMibs);
    summary.add("m3v_shared_read_mibs", shared.readMibs);
    summary.add("m3v_isolated_read_mibs", isolated.readMibs);
    summary.write(obs.summaryOut);
    return 0;
}
