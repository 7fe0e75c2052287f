/**
 * @file
 * Figure 9: scalability of context-switch-heavy applications with
 * tile multiplexing on M3x and M3v.
 *
 * Paper setup: gem5 with a 3 GHz out-of-order x86-64 core per tile;
 * Linux system-call traces of "find" (24 directories x 40 files) and
 * "SQLite" (32 inserts + selects) replayed by a trace player, with a
 * file-system instance *on the same tile* — every file-system call
 * needs a context switch there and back. One warmup run, then the
 * application runs per second across 1..12 tiles.
 *
 * Expected shape: M3v ~2x M3x at one tile (84 vs 45 find, 111 vs 49
 * SQLite) and near-linear up to 12 tiles; M3x barely improves (its
 * single-threaded kernel performs every switch for every tile).
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "bench_util.h"
#include "m3x/system.h"
#include "noc/noc.h"
#include "sim/lane.h"
#include "services/fs_proto.h"
#include "services/m3fs.h"
#include "sim/stats.h"
#include "workloads/trace.h"
#include "workloads/vfs_m3v.h"

namespace {

using namespace m3v;
using services::FsReq;
using services::FsResp;
using workloads::Bytes;
using workloads::Trace;

constexpr int kWarmupRuns = 1;
constexpr int kMeasuredRuns = 2;

/** Application compute per trace entry (x86 cycles; calibrated so a
 *  single M3v tile lands near the paper's 84 / 111 runs/s). */
constexpr sim::Cycles kFindEntryCompute = 26'000;
constexpr sim::Cycles kSqliteTxnCompute = 260'000;

Trace
benchTrace(bool find)
{
    return find ? workloads::makeFindTrace(24, 40, kFindEntryCompute)
                : workloads::makeSqliteTrace(32, kSqliteTxnCompute);
}

//
// M3v runner: per tile one trace player and one m3fs instance.
//

double
m3vRunsPerSec(unsigned tiles, bool find,
              bench::MetricsDump *dump = nullptr,
              const std::string &trace_out = {},
              std::uint64_t *events_out = nullptr)
{
    sim::EventQueue eq;
    if (!trace_out.empty())
        eq.tracer().enableAll();
    os::SystemParams params;
    params.userTiles = tiles;
    params.userModel = tile::CoreModel::x86Ooo();
    params.ctrlModel = tile::CoreModel::x86Ooo();
    params.dram.capacityBytes = (64u + tiles * 24u) << 20;
    os::System sys(eq, params);

    Trace trace = benchTrace(find);
    std::vector<std::unique_ptr<services::M3fs>> fss;
    std::vector<sim::Tick> warm_done(tiles, 0), all_done(tiles, 0);
    unsigned finished = 0;

    for (unsigned t = 0; t < tiles; t++) {
        services::M3fsParams fsp;
        fsp.storageBytes = 16 << 20;
        fss.push_back(
            std::make_unique<services::M3fs>(sys, t, fsp));
        auto *player = sys.createApp(t, "player" + std::to_string(t));
        auto client = fss.back()->addClient(player);
        fss.back()->startService();

        sys.start(player, [&eq, &trace, client, &warm_done,
                           &all_done, &finished,
                           t](os::MuxEnv &env) -> sim::Task {
            workloads::M3vVfs vfs(env, client);
            co_await workloads::traceSetup(vfs, trace);
            for (int r = 0; r < kWarmupRuns; r++)
                co_await workloads::tracePlay(vfs, trace, nullptr);
            warm_done[t] = eq.now();
            for (int r = 0; r < kMeasuredRuns; r++)
                co_await workloads::tracePlay(vfs, trace, nullptr);
            all_done[t] = eq.now();
            finished++;
        });
    }
    eq.run();
    if (events_out)
        *events_out = eq.executed();
    if (dump)
        dump->addSection((find ? "m3v_find_" : "m3v_sqlite_") +
                             std::to_string(tiles),
                         eq.metrics());
    if (!trace_out.empty())
        eq.tracer().writeJsonFile(trace_out);
    if (finished != tiles)
        sim::panic("fig09: only %u/%u m3v players finished", finished,
                   tiles);

    sim::Tick start = 0, end = 0;
    for (unsigned t = 0; t < tiles; t++) {
        start = std::max(start, warm_done[t]);
        end = std::max(end, all_done[t]);
    }
    double secs = sim::ticksToSec(end - start);
    return tiles * kMeasuredRuns / secs;
}

//
// M3x runner: per tile one trace player and one FS-server activity;
// every operation is an RPC (and thus two context switches).
//

/** Vfs over the M3x RPC file protocol (data inline). */
class M3xVfs : public workloads::Vfs
{
  public:
    M3xVfs(m3x::M3xSystem &sys, m3x::M3xAct &self,
           const m3x::M3xChan &chan, dtu::EpId sep)
        : sys_(sys), self_(self), chan_(chan), sep_(sep)
    {
    }

    tile::Thread &thread() override { return self_.thread(); }

    sim::Task
    rpc(FsReq req, Bytes data, FsResp *resp, Bytes *data_out)
    {
        Bytes respb;
        co_await sys_.rpc(self_, chan_, sep_, os::withPayload(req, data),
                          &respb);
        *resp = os::splitPayload<FsResp>(respb, data_out);
    }

    sim::Task open(const std::string &path, std::uint32_t flags,
                   std::unique_ptr<workloads::VfsFile> *out,
                   bool *ok) override;

    sim::Task
    stat(const std::string &path, workloads::VfsStat *out) override
    {
        FsReq req;
        req.op = FsReq::Op::Stat;
        std::strncpy(req.path, path.c_str(), sizeof(req.path) - 1);
        FsResp resp;
        co_await rpc(req, {}, &resp, nullptr);
        out->exists = resp.err == dtu::Error::None;
        out->isDir = resp.isDir != 0;
        out->size = resp.size;
    }

    sim::Task
    readdir(const std::string &path, std::uint64_t idx,
            std::string *name, bool *ok) override
    {
        if (path == cachePath_ && idx >= cacheStart_ &&
            idx < cacheStart_ + cache_.size()) {
            *name = cache_[idx - cacheStart_];
            *ok = true;
            co_return;
        }
        if (path == cachePath_ &&
            idx == cacheStart_ + cache_.size() && !cacheMore_) {
            *ok = false;
            co_return;
        }
        FsReq req;
        req.op = FsReq::Op::Readdir;
        req.arg = idx;
        std::strncpy(req.path, path.c_str(), sizeof(req.path) - 1);
        FsResp resp;
        co_await rpc(req, {}, &resp, nullptr);
        if (resp.err != dtu::Error::None || resp.count == 0) {
            *ok = false;
            co_return;
        }
        cachePath_ = path;
        cacheStart_ = idx;
        cache_ = services::FileSession::readdirNames(resp);
        cacheMore_ = resp.more != 0;
        *name = cache_.front();
        *ok = true;
    }

    sim::Task
    unlink(const std::string &path, bool *ok) override
    {
        FsReq req;
        req.op = FsReq::Op::Unlink;
        std::strncpy(req.path, path.c_str(), sizeof(req.path) - 1);
        FsResp resp;
        co_await rpc(req, {}, &resp, nullptr);
        *ok = resp.err == dtu::Error::None;
    }

    sim::Task
    mkdir(const std::string &path, bool *ok) override
    {
        FsReq req;
        req.op = FsReq::Op::Mkdir;
        std::strncpy(req.path, path.c_str(), sizeof(req.path) - 1);
        FsResp resp;
        co_await rpc(req, {}, &resp, nullptr);
        *ok = resp.err == dtu::Error::None;
    }

  private:
    friend class M3xVfsFile;

    m3x::M3xSystem &sys_;
    m3x::M3xAct &self_;
    m3x::M3xChan chan_;
    dtu::EpId sep_;
    std::string cachePath_;
    std::uint64_t cacheStart_ = 0;
    std::vector<std::string> cache_;
    bool cacheMore_ = false;
};

class M3xVfsFile : public workloads::VfsFile
{
  public:
    M3xVfsFile(M3xVfs &vfs, std::uint32_t fd) : vfs_(vfs), fd_(fd) {}

    sim::Task
    read(std::size_t want, Bytes *out, bool *ok) override
    {
        FsReq req;
        req.op = FsReq::Op::ReadAt;
        req.fd = fd_;
        req.arg = off_;
        req.size = static_cast<std::uint32_t>(want);
        FsResp resp;
        co_await vfs_.rpc(req, {}, &resp, out);
        off_ += out->size();
        *ok = resp.err == dtu::Error::None;
    }

    sim::Task
    write(Bytes data, bool *ok) override
    {
        FsReq req;
        req.op = FsReq::Op::WriteAt;
        req.fd = fd_;
        req.arg = off_;
        req.size = static_cast<std::uint32_t>(data.size());
        FsResp resp;
        std::size_t n = data.size();
        co_await vfs_.rpc(req, std::move(data), &resp, nullptr);
        off_ += n;
        *ok = resp.err == dtu::Error::None;
    }

    sim::Task
    seek(std::uint64_t off) override
    {
        off_ = off;
        co_return;
    }

    sim::Task
    close() override
    {
        FsReq req;
        req.op = FsReq::Op::Close;
        req.fd = fd_;
        FsResp resp;
        co_await vfs_.rpc(req, {}, &resp, nullptr);
    }

    std::uint64_t size() const override { return 0; }

  private:
    M3xVfs &vfs_;
    std::uint32_t fd_;
    std::uint64_t off_ = 0;
};

sim::Task
M3xVfs::open(const std::string &path, std::uint32_t flags,
             std::unique_ptr<workloads::VfsFile> *out, bool *ok)
{
    FsReq req;
    req.op = FsReq::Op::Open;
    // Map VfsFlags to FsOpenFlags (identical values).
    req.flags = flags;
    std::strncpy(req.path, path.c_str(), sizeof(req.path) - 1);
    FsResp resp;
    co_await rpc(req, {}, &resp, nullptr);
    if (resp.err != dtu::Error::None) {
        *ok = false;
        co_return;
    }
    *out = std::make_unique<M3xVfsFile>(*this, resp.fd);
    *ok = true;
}

/** The M3x per-tile file server: FsImage + inline data. */
sim::Task
m3xFsServer(m3x::M3xSystem &sys, m3x::M3xAct &self,
            m3x::M3xChan chan)
{
    services::FsImage img(4096); // 16 MiB worth of blocks
    std::map<std::uint32_t, std::pair<services::Ino, bool>> fds;
    std::map<services::Ino, Bytes> contents;
    std::uint32_t next_fd = 3;

    for (;;) {
        Bytes reqb;
        m3x::MsgHdr reply_to;
        co_await sys.serveNext(self, chan, &reqb, &reply_to);
        Bytes data;
        FsReq req = os::splitPayload<FsReq>(reqb, &data);
        req.path[sizeof(req.path) - 1] = '\0';
        std::string path(req.path);

        FsResp resp;
        Bytes resp_data;
        co_await self.thread().compute(250); // request decode

        switch (req.op) {
          case FsReq::Op::Open: {
            services::Ino ino = img.lookup(path);
            if (ino == services::kNoIno &&
                (req.flags & workloads::kVfsCreate))
                ino = img.create(path, false);
            if (ino == services::kNoIno) {
                resp.err = dtu::Error::InvalidEp;
                break;
            }
            if (req.flags & workloads::kVfsTrunc)
                contents[ino].clear();
            fds[next_fd] = {ino,
                            (req.flags & workloads::kVfsW) != 0};
            resp.fd = next_fd++;
            resp.size = contents[ino].size();
            break;
          }
          case FsReq::Op::ReadAt: {
            auto it = fds.find(req.fd);
            if (it == fds.end()) {
                resp.err = dtu::Error::InvalidEp;
                break;
            }
            Bytes &file = contents[it->second.first];
            std::uint64_t off = req.arg;
            if (off < file.size()) {
                std::size_t n = std::min<std::size_t>(
                    req.size, file.size() - off);
                resp_data.assign(
                    file.begin() + static_cast<long>(off),
                    file.begin() + static_cast<long>(off + n));
            }
            co_await self.thread().compute(400 +
                                           resp_data.size() / 8);
            break;
          }
          case FsReq::Op::WriteAt: {
            auto it = fds.find(req.fd);
            if (it == fds.end() || !it->second.second) {
                resp.err = dtu::Error::InvalidEp;
                break;
            }
            Bytes &file = contents[it->second.first];
            std::uint64_t off = req.arg;
            if (off + data.size() > file.size())
                file.resize(off + data.size());
            std::memcpy(file.data() + off, data.data(), data.size());
            co_await self.thread().compute(600 + data.size() / 8);
            break;
          }
          case FsReq::Op::Close:
            fds.erase(req.fd);
            break;
          case FsReq::Op::Stat: {
            services::Ino ino = img.lookup(path);
            if (ino == services::kNoIno) {
                resp.err = dtu::Error::InvalidEp;
            } else {
                resp.size = contents[ino].size();
                resp.isDir = img.inode(ino)->dir ? 1 : 0;
            }
            break;
          }
          case FsReq::Op::Readdir: {
            services::Ino dir = img.lookup(path);
            if (dir == services::kNoIno) {
                resp.err = dtu::Error::InvalidEp;
                break;
            }
            std::size_t off = 0;
            std::uint64_t idx = req.arg;
            resp.count = 0;
            while (resp.count < services::kReaddirBatch) {
                std::string name;
                services::Ino child;
                if (!img.entryAt(dir, idx, &name, &child))
                    break;
                if (off + name.size() + 1 > sizeof(resp.name))
                    break;
                std::memcpy(resp.name + off, name.c_str(),
                            name.size() + 1);
                off += name.size() + 1;
                resp.count++;
                idx++;
            }
            resp.more = idx < img.entryCount(dir) ? 1 : 0;
            break;
          }
          case FsReq::Op::Unlink: {
            services::Ino ino = img.lookup(path);
            if (img.unlink(path)) {
                contents.erase(ino);
            } else {
                resp.err = dtu::Error::InvalidEp;
            }
            break;
          }
          case FsReq::Op::Mkdir:
            resp.err = img.create(path, true) != services::kNoIno
                           ? dtu::Error::None
                           : dtu::Error::InvalidEp;
            break;
          default:
            resp.err = dtu::Error::InvalidEp;
            break;
        }
        co_await self.thread().compute(img.takeOpCost());

        co_await sys.replyTo(self, reply_to,
                             os::withPayload(resp, resp_data));
    }
}

double
m3xRunsPerSec(unsigned tiles, bool find,
              bench::MetricsDump *dump = nullptr,
              std::uint64_t *events_out = nullptr)
{
    sim::EventQueue eq;
    m3x::M3xParams params;
    params.userTiles = tiles;
    m3x::M3xSystem sys(eq, params);

    Trace trace = benchTrace(find);
    std::vector<sim::Tick> warm_done(tiles, 0), all_done(tiles, 0);
    unsigned finished = 0;

    for (unsigned t = 0; t < tiles; t++) {
        m3x::M3xAct *player =
            sys.createAct(t, "player" + std::to_string(t));
        m3x::M3xAct *server =
            sys.createAct(t, "fs" + std::to_string(t));
        m3x::M3xChan chan = sys.makeChannel(server, 4600, 8);
        dtu::EpId sep = sys.addSender(chan, player, 4);

        sys.start(server, sim::invoke([&sys, server,
                                       chan]() -> sim::Task {
            co_await m3xFsServer(sys, *server, chan);
        }));
        sys.start(player, sim::invoke([&eq, &sys, &trace, player,
                                       chan, sep, &warm_done,
                                       &all_done, &finished,
                                       t]() -> sim::Task {
            M3xVfs vfs(sys, *player, chan, sep);
            co_await workloads::traceSetup(vfs, trace);
            for (int r = 0; r < kWarmupRuns; r++)
                co_await workloads::tracePlay(vfs, trace, nullptr);
            warm_done[t] = eq.now();
            for (int r = 0; r < kMeasuredRuns; r++)
                co_await workloads::tracePlay(vfs, trace, nullptr);
            all_done[t] = eq.now();
            finished++;
            co_await sys.exit(*player);
        }));
    }
    eq.run();
    if (events_out)
        *events_out = eq.executed();
    if (dump)
        dump->addSection((find ? "m3x_find_" : "m3x_sqlite_") +
                             std::to_string(tiles),
                         eq.metrics());
    if (finished != tiles)
        sim::panic("fig09: only %u/%u m3x players finished", finished,
                   tiles);

    sim::Tick start = 0, end = 0;
    for (unsigned t = 0; t < tiles; t++) {
        start = std::max(start, warm_done[t]);
        end = std::max(end, all_done[t]);
    }
    double secs = sim::ticksToSec(end - start);
    return tiles * kMeasuredRuns / secs;
}

//
// Mesh tile-count sweep: the fabric itself, at 64/256/1024 tiles on a
// router-sharded LaneScheduler (one lane per mesh router, per-pair
// lookaheads from the link latencies, distant lanes windowed by the
// cheapest link chains). Deterministic synthetic traffic; every tile count
// runs at jobs = 1, 2, 4 and the runs must be digest-identical — the
// jobs=1-vs-N gate of the parallel fabric at scale. Simulated-time
// results go to stdout/summary (tests/golden pins the 64/256-tile
// rows); wall-clock throughput and speedup go to stderr and
// --scale-out (host-dependent numbers must not disturb the
// byte-identical-output contract).
//

constexpr unsigned kMeshShots = 48;
constexpr int kMeshSinkChain = 6;
constexpr sim::Cycles kMeshShotSpacing = 150;

std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/** Tile sink: digests every arrival (tick, source, size) in lane
 *  order, then models tile-side processing as a short lane-local
 *  event chain so every router lane carries real work. */
struct MeshSink : noc::HopTarget
{
    sim::EventQueue *eq = nullptr;
    const sim::Clock *clk = nullptr;
    std::uint64_t digest = 0;
    std::uint64_t received = 0;

    bool
    acceptPacket(noc::Packet &pkt,
                 sim::UniqueFunction<void()>) override
    {
        digest = digest * 0x100000001b3ull ^
                 mix64(eq->now() ^
                       (static_cast<std::uint64_t>(pkt.src) << 40) ^
                       (static_cast<std::uint64_t>(pkt.bytes) << 20));
        received++;
        step(kMeshSinkChain);
        return true;
    }

    void
    step(int left)
    {
        if (left == 0)
            return;
        eq->schedule(clk->cyclesToTicks(200), [this, left]() {
            digest = mix64(digest + static_cast<unsigned>(left));
            step(left - 1);
        });
    }
};

/** Per-tile traffic source: kMeshShots packets to pseudo-random
 *  destinations, rebuilt deterministically on every backpressure
 *  retry (inject leaves the packet untouched on false). */
struct MeshInjector
{
    noc::Noc *noc = nullptr;
    unsigned tiles = 0;
    noc::TileId src = 0;

    void
    fire(unsigned shot)
    {
        std::uint64_t h =
            mix64((static_cast<std::uint64_t>(src) << 20) ^ shot);
        noc::Packet p;
        p.src = src;
        p.dst = static_cast<noc::TileId>(
            (src + 1 + h % (tiles - 1)) % tiles);
        p.bytes = 16 + ((h >> 32) % 240);
        noc->inject(p, [this, shot]() { fire(shot); });
    }
};

struct MeshResult
{
    std::uint64_t digest = 0;
    std::uint64_t delivered = 0;
    std::uint64_t bytes = 0;
    std::uint64_t stalls = 0;
    std::uint64_t events = 0;
    sim::Tick finalTick = 0;
    double wallMs = 0;
};

MeshResult
runMeshOnce(unsigned tiles, unsigned jobs)
{
    noc::NocParams np = noc::NocParams::forTiles(tiles);
    unsigned routers = np.meshCols * np.meshRows;
    sim::Tick min_link = noc::Noc::minLinkLatency();
    sim::LaneScheduler sched(routers, jobs, min_link);
    noc::Noc fabric(sched.lane(0), np);
    std::vector<unsigned> lane_of_router(routers);
    for (unsigned r = 0; r < routers; r++)
        lane_of_router[r] = r;
    fabric.setRouterLanePlan(sched, lane_of_router);

    std::vector<MeshSink> sinks(tiles);
    for (unsigned t = 0; t < tiles; t++) {
        unsigned r = fabric.nextRouter();
        sinks[t].eq = &sched.lane(r);
        sinks[t].clk = &fabric.clock();
        fabric.attachTile(t, &sinks[t]);
    }
    fabric.finalize();

    const sim::Clock &clk = fabric.clock();
    std::vector<MeshInjector> injectors(tiles);
    for (unsigned t = 0; t < tiles; t++) {
        injectors[t].noc = &fabric;
        injectors[t].tiles = tiles;
        injectors[t].src = t;
        MeshInjector *inj = &injectors[t];
        sim::EventQueue &home = sched.lane(t % routers);
        for (unsigned s = 0; s < kMeshShots; s++) {
            sim::Tick at =
                clk.cyclesToTicks(100 + s * kMeshShotSpacing) +
                mix64(t * 977u + s) % min_link;
            home.scheduleAt(at, [inj, s]() { inj->fire(s); });
        }
    }

    double t0 = m3v::bench::wallMs();
    sched.run();
    MeshResult res;
    res.wallMs = m3v::bench::wallMs() - t0;
    for (unsigned t = 0; t < tiles; t++)
        res.digest = res.digest * 0x100000001b3ull ^ sinks[t].digest;
    res.delivered = fabric.delivered();
    res.bytes = fabric.deliveredBytes();
    res.stalls = fabric.portStalls();
    res.events = sched.executed();
    for (unsigned r = 0; r < routers; r++)
        res.finalTick = std::max(res.finalTick, sched.lane(r).now());
    if (res.delivered !=
        static_cast<std::uint64_t>(tiles) * kMeshShots)
        sim::panic("fig09 mesh: %llu/%llu packets delivered",
                   static_cast<unsigned long long>(res.delivered),
                   static_cast<unsigned long long>(
                       static_cast<std::uint64_t>(tiles) *
                       kMeshShots));
    return res;
}

} // namespace

int
main(int argc, char **argv)
{
    using m3v::bench::banner;

    m3v::bench::ObsOptions obs = m3v::bench::parseObsArgs(argc, argv);
    m3v::bench::MetricsDump dump;
    m3v::bench::Summary summary;

    // Sweep-local flags (parseObsArgs ignores what it doesn't know):
    // --mesh-only skips the trace-replay sweep (CI mesh smoke);
    // --scale-out=FILE records the host-side mesh throughput JSON
    // (ci/check.sh's 64-tile speedup gate reads it).
    bool mesh_only = false;
    std::string scale_out;
    for (int i = 1; i < argc; i++) {
        if (!std::strcmp(argv[i], "--mesh-only"))
            mesh_only = true;
        else if (!std::strncmp(argv[i], "--scale-out=", 12))
            scale_out = argv[i] + 12;
    }

    banner("Figure 9",
           "Scalability of context-switch-heavy applications with "
           "tile multiplexing");
    std::printf("(3 GHz x86-style cores; traceplayer + file system "
                "per tile; runs/s)\n\n");

    // M3V_FIG09_TILES caps the tile sweep (CI smoke runs use a
    // reduced configuration; unset means the full figure). 64 and
    // beyond additionally enables the mesh fabric sweep.
    unsigned max_tiles = 12;
    if (const char *cap = std::getenv("M3V_FIG09_TILES"))
        max_tiles = static_cast<unsigned>(std::atoi(cap));

    if (!mesh_only) {
    // Every (tiles, system, workload) run is an independent cell:
    // its own EventQueue, its own metrics shard, its own result
    // slot. Cells run on --jobs threads; everything is printed and
    // merged in registration order after the join, so the output is
    // byte-identical for any --jobs value.
    std::vector<unsigned> ns;
    const unsigned counts[] = {1, 2, 4, 8, 12};
    for (unsigned n : counts)
        if (n <= max_tiles)
            ns.push_back(n);

    struct CellOut
    {
        double v = 0;
        m3v::bench::MetricsDump dump;
        std::uint64_t events = 0;
    };
    std::vector<CellOut> outs(ns.size() * 4);
    std::vector<m3v::sim::UniqueFunction<void()>> cells;
    for (std::size_t i = 0; i < ns.size(); i++) {
        unsigned n = ns[i];
        // Trace only the first m3v configuration (the file would be
        // huge otherwise).
        std::string trace = i == 0 ? obs.traceOut : std::string();
        CellOut *o = &outs[i * 4];
        cells.push_back([o, n]() {
            o[0].v = m3xRunsPerSec(n, true, &o[0].dump, &o[0].events);
        });
        cells.push_back([o, n, trace]() {
            o[1].v = m3vRunsPerSec(n, true, &o[1].dump, trace,
                                   &o[1].events);
        });
        cells.push_back([o, n]() {
            o[2].v = m3xRunsPerSec(n, false, &o[2].dump, &o[2].events);
        });
        cells.push_back([o, n]() {
            o[3].v = m3vRunsPerSec(n, false, &o[3].dump, {},
                                   &o[3].events);
        });
    }

    double t0 = m3v::bench::wallMs();
    m3v::sim::runCells(obs.jobs, std::move(cells));
    double wall = m3v::bench::wallMs() - t0;

    sim::TablePrinter table({"# tiles", "M3x find", "M3v find",
                             "M3x SQLite", "M3v SQLite"});
    std::uint64_t events = 0;
    for (std::size_t i = 0; i < ns.size(); i++) {
        const CellOut *o = &outs[i * 4];
        table.addRow({std::to_string(ns[i]),
                      sim::fmtDouble(o[0].v, 0),
                      sim::fmtDouble(o[1].v, 0),
                      sim::fmtDouble(o[2].v, 0),
                      sim::fmtDouble(o[3].v, 0)});
        for (int k = 0; k < 4; k++) {
            dump.absorb(o[k].dump);
            events += o[k].events;
        }
    }
    table.print();
    std::printf("\nPaper reference: M3x find 45/49/94 runs/s at "
                "1/2/4 tiles; M3x SQLite 49/82/86/68 at 1/2/4/8;\n"
                "M3v 84 (find) and 111 (SQLite) at 1 tile, scaling "
                "almost linearly to 12 tiles.\n");
    dump.write(obs.metricsOut);
    std::fprintf(stderr, "trace sweep: %.1f ms host wall at jobs=%u\n",
                 wall, obs.jobs);

    for (std::size_t i = 0; i < ns.size(); i++) {
        const CellOut *o = &outs[i * 4];
        std::string n = std::to_string(ns[i]);
        summary.add("m3x_find_" + n + "_runs_per_s", o[0].v, 1);
        summary.add("m3v_find_" + n + "_runs_per_s", o[1].v, 1);
        summary.add("m3x_sqlite_" + n + "_runs_per_s", o[2].v, 1);
        summary.add("m3v_sqlite_" + n + "_runs_per_s", o[3].v, 1);
    }
    summary.addU64("events", events);
    } // !mesh_only

    // Mesh fabric sweep (64+ tiles): only simulated-time results are
    // printed / summarized, so stdout stays byte-identical for any
    // --jobs; the internal jobs = {1, 2, 4} runs must agree exactly.
    std::vector<unsigned> mesh_ns;
    for (unsigned n : {64u, 256u, 1024u})
        if (n <= max_tiles)
            mesh_ns.push_back(n);
    if (!mesh_ns.empty()) {
        std::printf("\nMesh fabric sweep (k-ary 2D mesh, one lane "
                    "per router, jobs=1/2/4 digest-checked):\n\n");
        sim::TablePrinter mesh_table(
            {"# tiles", "mesh", "delivered", "stalls", "final us",
             "digest"});
        struct MeshRow
        {
            unsigned tiles = 0;
            noc::NocParams np;
            MeshResult r1, r2, r4;
        };
        std::vector<MeshRow> rows;
        for (unsigned n : mesh_ns) {
            MeshRow row;
            row.tiles = n;
            row.np = noc::NocParams::forTiles(n);
            row.r1 = runMeshOnce(n, 1);
            row.r2 = runMeshOnce(n, 2);
            row.r4 = runMeshOnce(n, 4);
            for (const MeshResult *r : {&row.r2, &row.r4}) {
                if (r->digest != row.r1.digest ||
                    r->delivered != row.r1.delivered ||
                    r->events != row.r1.events ||
                    r->finalTick != row.r1.finalTick)
                    sim::panic("fig09 mesh: %u-tile run diverges "
                               "across jobs (digest %016llx vs "
                               "%016llx)",
                               n,
                               static_cast<unsigned long long>(
                                   row.r1.digest),
                               static_cast<unsigned long long>(
                                   r->digest));
            }
            char digest_hex[32], mesh_dim[32];
            std::snprintf(digest_hex, sizeof(digest_hex), "%016llx",
                          static_cast<unsigned long long>(
                              row.r1.digest));
            std::snprintf(mesh_dim, sizeof(mesh_dim), "%ux%u",
                          row.np.meshCols, row.np.meshRows);
            mesh_table.addRow(
                {std::to_string(n), mesh_dim,
                 std::to_string(row.r1.delivered),
                 std::to_string(row.r1.stalls),
                 sim::fmtDouble(
                     sim::ticksToSec(row.r1.finalTick) * 1e6, 2),
                 digest_hex});
            std::string key = "mesh_" + std::to_string(n);
            summary.addU64(key + "_delivered", row.r1.delivered);
            summary.addU64(key + "_bytes", row.r1.bytes);
            summary.addU64(key + "_stalls", row.r1.stalls);
            summary.addU64(key + "_final_tick", row.r1.finalTick);
            summary.addU64(key + "_digest", row.r1.digest);
            rows.push_back(row);
        }
        mesh_table.print();

        // Host-side throughput: stderr + --scale-out only (never
        // stdout — wall clock is not deterministic).
        unsigned hw = std::thread::hardware_concurrency();
        for (const MeshRow &row : rows) {
            std::fprintf(
                stderr,
                "mesh %u tiles: jobs1 %.1f ms (%.0f ev/s), jobs2 "
                "%.1f ms, jobs4 %.1f ms, speedup4 %.2f\n",
                row.tiles, row.r1.wallMs,
                row.r1.events / (row.r1.wallMs / 1000.0),
                row.r2.wallMs, row.r4.wallMs,
                row.r1.wallMs / row.r4.wallMs);
        }
        if (!scale_out.empty()) {
            FILE *f = std::fopen(scale_out.c_str(), "w");
            if (!f)
                sim::panic("fig09 mesh: cannot write %s",
                           scale_out.c_str());
            std::fprintf(f,
                         "{\n  \"bench\": \"fig09_scale mesh "
                         "sweep\",\n  \"hw_concurrency\": %u,\n"
                         "  \"mesh\": [\n",
                         hw);
            for (std::size_t i = 0; i < rows.size(); i++) {
                const MeshRow &row = rows[i];
                // Sampled per row: on shared CI runners the visible
                // core count can change between rows (cgroup
                // resizes), and a row's speedup is only meaningful
                // against the cores it actually had.
                unsigned row_hw =
                    std::thread::hardware_concurrency();
                bool valid = row_hw >= 4;
                std::fprintf(
                    f,
                    "    {\n      \"tiles\": %u,\n"
                    "      \"mesh\": \"%ux%u\",\n"
                    "      \"routers\": %u,\n"
                    "      \"events\": %llu,\n"
                    "      \"delivered\": %llu,\n"
                    "      \"stalls\": %llu,\n"
                    "      \"digest\": \"%016llx\",\n"
                    "      \"hw_concurrency\": %u,\n"
                    "      \"jobs1_wall_ms\": %.3f,\n"
                    "      \"jobs2_wall_ms\": %.3f,\n"
                    "      \"jobs4_wall_ms\": %.3f,\n"
                    "      \"events_per_sec_jobs1\": %.0f,\n"
                    "      \"events_per_sec_jobs2\": %.0f,\n"
                    "      \"events_per_sec_jobs4\": %.0f,\n"
                    "      \"speedup_valid\": %s",
                    row.tiles, row.np.meshCols, row.np.meshRows,
                    row.np.meshCols * row.np.meshRows,
                    static_cast<unsigned long long>(row.r1.events),
                    static_cast<unsigned long long>(
                        row.r1.delivered),
                    static_cast<unsigned long long>(row.r1.stalls),
                    static_cast<unsigned long long>(row.r1.digest),
                    row_hw, row.r1.wallMs, row.r2.wallMs,
                    row.r4.wallMs,
                    row.r1.events / (row.r1.wallMs / 1000.0),
                    row.r1.events / (row.r2.wallMs / 1000.0),
                    row.r1.events / (row.r4.wallMs / 1000.0),
                    valid ? "true" : "false");
                // The speedup keys are only present when the host
                // can actually run 4 workers: absent beats a null
                // that reads as 0 downstream.
                if (valid)
                    std::fprintf(
                        f,
                        ",\n      \"speedup2\": %.3f,\n"
                        "      \"speedup4\": %.3f",
                        row.r1.wallMs / row.r2.wallMs,
                        row.r1.wallMs / row.r4.wallMs);
                std::fprintf(f, "\n    }%s\n",
                             i + 1 < rows.size() ? "," : "");
            }
            std::fprintf(f, "  ]\n}\n");
            std::fclose(f);
        }
    }
    summary.write(obs.summaryOut);
    return 0;
}
