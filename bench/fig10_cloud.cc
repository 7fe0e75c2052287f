/**
 * @file
 * Figure 10: the cloud service — leveldb-lite driven by YCSB
 * (200 records, 200 operations, Zipfian) on top of the file system
 * and network stack, compared across M3v with isolated tiles, M3v
 * with one shared tile, and Linux. Requests are read ahead from a
 * file and requests+results leave via UDP (the paper's workaround
 * for its flaky TCP). 8 runs after 2 warmup runs; total runtime
 * split into user and system time.
 *
 * Expected shape: M3v (shared) competitive with Linux for reads,
 * inserts and updates; Linux worst on the scan-heavy mix (its large
 * kernel footprint thrashes the 16 KiB L1I on every syscall, while
 * M3v handles most file-system work through extent capabilities
 * without kernel entries).
 */

#include <cstdio>
#include <iterator>
#include <string>

#include "bench_util.h"
#include "sim/lane.h"
#include "linuxref/kernel.h"
#include "services/m3fs.h"
#include "services/net.h"
#include "services/pager.h"
#include "workloads/kv.h"
#include "workloads/vfs_linux.h"
#include "workloads/vfs_m3v.h"
#include "workloads/ycsb.h"

namespace {

using namespace m3v;
using workloads::Bytes;
using workloads::KvStore;
using workloads::YcsbMix;
using workloads::YcsbOp;
using workloads::YcsbWorkload;

constexpr int kWarmup = 2;
constexpr int kRuns = 8;

struct Split
{
    double userSec = 0;
    double systemSec = 0;

    double total() const { return userSec + systemSec; }
};

/** The database application: load, read requests file, execute, send
 *  requests+results via UDP. */
sim::Task
dbRun(workloads::Vfs &vfs, services::UdpSocket *sock,
      const YcsbWorkload &w, const std::string &dir)
{
    workloads::KvParams kv_params;
    kv_params.dir = dir;
    kv_params.memtableLimit = 48 * 1024;
    KvStore db(vfs, kv_params);
    co_await db.open();
    for (const auto &op : w.load)
        co_await db.put(op.key, op.value);

    // Read the request stream ahead of time from a file (the paper's
    // UDP-fairness workaround), then execute.
    std::unique_ptr<workloads::VfsFile> reqf;
    bool ok = false;
    co_await vfs.open(dir + "/requests", workloads::kVfsR, &reqf,
                      &ok);
    if (ok) {
        for (;;) {
            Bytes chunk;
            co_await reqf->read(4096, &chunk, &ok);
            if (chunk.empty())
                break;
        }
        co_await reqf->close();
    }

    dtu::Error nerr = dtu::Error::None;
    for (const auto &op : w.run) {
        Bytes result;
        switch (op.kind) {
          case YcsbOp::Kind::Read: {
            std::string v;
            bool found = false;
            co_await db.get(op.key, &v, &found);
            result.assign(v.begin(), v.end());
            break;
          }
          case YcsbOp::Kind::Insert:
          case YcsbOp::Kind::Update:
            co_await db.put(op.key, op.value);
            break;
          case YcsbOp::Kind::Scan: {
            std::vector<std::pair<std::string, std::string>> out;
            co_await db.scan(op.key, op.scanLen, &out);
            for (auto &kvp : out)
                result.insert(result.end(), kvp.second.begin(),
                              kvp.second.end());
            break;
          }
        }
        // Send request + result to the peer (UDP, sink side).
        if (sock) {
            Bytes pkt(op.key.begin(), op.key.end());
            std::size_t n = std::min<std::size_t>(result.size(),
                                                  1200);
            pkt.insert(pkt.end(), result.begin(),
                       result.begin() + static_cast<long>(n));
            co_await sock->sendTo(0x0a000001, 9, std::move(pkt),
                                  &nerr);
        }
    }
    co_await db.close();
}

/** Linux equivalent using in-kernel sockets. */
sim::Task
dbRunLinux(workloads::Vfs &vfs, linuxref::LinuxKernel &kernel,
           linuxref::LinuxProcess &p, int sock_fd,
           const YcsbWorkload &w, const std::string &dir)
{
    workloads::KvParams kv_params;
    kv_params.dir = dir;
    kv_params.memtableLimit = 48 * 1024;
    KvStore db(vfs, kv_params);
    co_await db.open();
    for (const auto &op : w.load)
        co_await db.put(op.key, op.value);

    std::unique_ptr<workloads::VfsFile> reqf;
    bool ok = false;
    co_await vfs.open(dir + "/requests", workloads::kVfsR, &reqf,
                      &ok);
    if (ok) {
        for (;;) {
            Bytes chunk;
            co_await reqf->read(4096, &chunk, &ok);
            if (chunk.empty())
                break;
        }
        co_await reqf->close();
    }

    for (const auto &op : w.run) {
        Bytes result;
        switch (op.kind) {
          case YcsbOp::Kind::Read: {
            std::string v;
            bool found = false;
            co_await db.get(op.key, &v, &found);
            result.assign(v.begin(), v.end());
            break;
          }
          case YcsbOp::Kind::Insert:
          case YcsbOp::Kind::Update:
            co_await db.put(op.key, op.value);
            break;
          case YcsbOp::Kind::Scan: {
            std::vector<std::pair<std::string, std::string>> out;
            co_await db.scan(op.key, op.scanLen, &out);
            for (auto &kvp : out)
                result.insert(result.end(), kvp.second.begin(),
                              kvp.second.end());
            break;
          }
        }
        Bytes pkt(op.key.begin(), op.key.end());
        std::size_t n = std::min<std::size_t>(result.size(), 1200);
        pkt.insert(pkt.end(), result.begin(),
                   result.begin() + static_cast<long>(n));
        co_await kernel.sysSendTo(p, sock_fd, 0x0a000001, 9,
                                  std::move(pkt));
    }
    co_await db.close();
}

/** Prepare the requests file once per run directory. */
sim::Task
writeRequestsFile(workloads::Vfs &vfs, const std::string &dir,
                  std::size_t bytes)
{
    bool ok = false;
    co_await vfs.mkdir(dir, &ok);
    std::unique_ptr<workloads::VfsFile> f;
    co_await vfs.open(dir + "/requests",
                      workloads::kVfsW | workloads::kVfsCreate, &f,
                      &ok);
    for (std::size_t off = 0; off < bytes; off += 4096)
        co_await f->write(Bytes(std::min<std::size_t>(4096,
                                                      bytes - off),
                                0x33),
                          &ok);
    co_await f->close();
}

Split
m3vCloud(bool shared, const YcsbMix &mix,
         bench::MetricsDump *dump = nullptr,
         const std::string &trace_out = {},
         const std::string &section = {})
{
    sim::EventQueue eq;
    if (!trace_out.empty())
        eq.tracer().enableAll();
    os::SystemParams params;
    params.userTiles = 4;
    params.dram.capacityBytes = 256 << 20;
    os::System sys(eq, params);

    services::Nic nic(eq, "nic");
    services::ExtHost host(eq, "host", services::ExtHost::Mode::Sink);
    nic.connect(&host);
    host.connect(&nic);

    unsigned net_tile = 0;
    unsigned db_tile = 0;
    unsigned fs_tile = shared ? 0 : 1;
    unsigned pager_tile = shared ? 0 : 2;
    if (!shared)
        db_tile = 3;

    services::M3fsParams fsp;
    fsp.storageBytes = 64 << 20;
    services::M3fs fs(sys, fs_tile, fsp);
    services::NetService net(sys, net_tile, nic);
    services::PagerService pager(sys, pager_tile);
    auto *db = sys.createApp(db_tile, "leveldb", 12 * 1024);
    auto fs_client = fs.addClient(db);
    auto net_client = net.addClient(db);
    auto pager_client = pager.addClient(db);
    fs.startService();
    net.startService();
    pager.startService();

    YcsbWorkload w =
        workloads::ycsbGenerate(workloads::YcsbConfig{}, mix);

    sim::Tick t_start = 0, t_end = 0;
    sim::Tick sys0 = 0, sys1 = 0;

    auto system_ticks = [&]() {
        // File system and network stack count as system time
        // (section 6.5.2); the remainder of the runtime is user.
        return fs.app()->act->thread().busyTicks() +
               net.app()->act->thread().busyTicks();
    };

    sys.start(db, [&, net_client, pager_client,
                   fs_client](os::MuxEnv &env) -> sim::Task {
        dtu::VirtAddr va = 0;
        dtu::Error perr = dtu::Error::None;
        co_await services::pagerAllocMap(env, pager_client, 8, &va,
                                         &perr);
        workloads::M3vVfs vfs(env, fs_client);
        services::UdpSocket sock(env, net_client);
        dtu::Error err = dtu::Error::None;
        co_await sock.create(7000, &err);

        for (int r = 0; r < kWarmup + kRuns; r++) {
            std::string dir = "/run" + std::to_string(r);
            co_await writeRequestsFile(vfs, dir, 32 * 1024);
            if (r == kWarmup) {
                t_start = eq.now();
                sys0 = system_ticks();
            }
            co_await dbRun(vfs, &sock, w, dir);
        }
        t_end = eq.now();
        sys1 = system_ticks();
    });
    eq.run();
    if (dump)
        dump->addSection(section, eq.metrics());
    if (!trace_out.empty())
        eq.tracer().writeJsonFile(trace_out);
    double total = sim::ticksToSec(t_end - t_start);
    double system = sim::ticksToSec(sys1 - sys0);
    return Split{total - system, system};
}

Split
linuxCloud(const YcsbMix &mix)
{
    sim::EventQueue eq;
    tile::Core core(eq, "c", tile::CoreModel::boom(), 0);
    services::Nic nic(eq, "nic");
    services::ExtHost host(eq, "host", services::ExtHost::Mode::Sink);
    nic.connect(&host);
    host.connect(&nic);
    linuxref::LinuxKernel kernel(eq, "k", core, &nic);
    auto *p = kernel.createProcess("leveldb", 11 * 1024);

    YcsbWorkload w =
        workloads::ycsbGenerate(workloads::YcsbConfig{}, mix);

    sim::Tick user0 = 0, sys0 = 0, user1 = 0, sys1 = 0;
    kernel.start(p, sim::invoke([&]() -> sim::Task {
        workloads::LinuxVfs vfs(kernel, *p);
        int s = -1;
        co_await kernel.sysSocket(*p, 7000, &s);
        for (int r = 0; r < kWarmup + kRuns; r++) {
            std::string dir = "/run" + std::to_string(r);
            co_await writeRequestsFile(vfs, dir, 32 * 1024);
            if (r == kWarmup) {
                user0 = p->userTicks();
                sys0 = p->systemTicks();
            }
            co_await dbRunLinux(vfs, kernel, *p, s, w, dir);
        }
        user1 = p->userTicks();
        sys1 = p->systemTicks();
        co_await kernel.sysExit(*p);
    }));
    eq.run();
    return Split{sim::ticksToSec(user1 - user0),
                 sim::ticksToSec(sys1 - sys0)};
}

void
printRow(const char *label, const Split &s)
{
    std::printf("  %-16s user %7.2f s   system %7.2f s   total "
                "%7.2f s\n",
                label, s.userSec, s.systemSec, s.total());
}

} // namespace

int
main(int argc, char **argv)
{
    using m3v::bench::banner;

    m3v::bench::ObsOptions obs = m3v::bench::parseObsArgs(argc, argv);
    m3v::bench::MetricsDump dump;
    std::string trace_once = obs.traceOut;

    banner("Figure 10",
           "Cloud service (leveldb-lite + YCSB) vs Linux; 200 "
           "records, 200 ops, 8 runs");

    struct Mix
    {
        const char *name;
        YcsbMix mix;
    };
    const Mix mixes[] = {
        {"Read", YcsbMix::readHeavy()},
        {"Insert", YcsbMix::insertHeavy()},
        {"Update", YcsbMix::updateHeavy()},
        {"Mixed", YcsbMix::mixed()},
        {"Scan", YcsbMix::scanHeavy()},
    };

    // Every (mix, system) run is an independent cell; cells run on
    // --jobs threads and all output is printed in registration order
    // after the join, so the figure is byte-identical for any --jobs.
    constexpr std::size_t kMixes = std::size(mixes);
    struct CellOut
    {
        Split iso, sh, lin;
        m3v::bench::MetricsDump diso, dsh;
    };
    std::vector<CellOut> outs(kMixes);
    std::vector<sim::UniqueFunction<void()>> cells;
    for (std::size_t i = 0; i < kMixes; i++) {
        const Mix &m = mixes[i];
        CellOut *o = &outs[i];
        // Trace only the first isolated run (the file would be huge
        // otherwise).
        std::string trace = i == 0 ? trace_once : std::string();
        cells.push_back([o, &m, trace]() {
            o->iso = m3vCloud(false, m.mix, &o->diso, trace,
                              std::string("m3v_isolated_") + m.name);
        });
        cells.push_back([o, &m]() {
            o->sh = m3vCloud(true, m.mix, &o->dsh, "",
                             std::string("m3v_shared_") + m.name);
        });
        cells.push_back([o, &m]() { o->lin = linuxCloud(m.mix); });
    }
    sim::runCells(obs.jobs, std::move(cells));
    for (std::size_t i = 0; i < kMixes; i++) {
        std::printf("\n%s workload:\n", mixes[i].name);
        printRow("M3v (isolated)", outs[i].iso);
        printRow("M3v (shared)", outs[i].sh);
        printRow("Linux", outs[i].lin);
        dump.absorb(outs[i].diso);
        dump.absorb(outs[i].dsh);
    }
    std::printf("\nNote: isolated M3v uses multiple tiles and is "
                "shown for completeness only\n(as in the paper); "
                "user/system attribution follows section 6.5.2.\n");
    dump.write(obs.metricsOut);

    m3v::bench::Summary summary;
    auto addSplit = [&summary](const std::string &key, const Split &s) {
        summary.add(key + "_user_s", s.userSec, 6);
        summary.add(key + "_system_s", s.systemSec, 6);
    };
    for (std::size_t i = 0; i < kMixes; i++) {
        std::string mix = mixes[i].name;
        addSplit(mix + "_m3v_isolated", outs[i].iso);
        addSplit(mix + "_m3v_shared", outs[i].sh);
        addSplit(mix + "_linux", outs[i].lin);
    }
    summary.write(obs.summaryOut);
    return 0;
}
