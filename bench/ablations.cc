/**
 * @file
 * Ablations of M3v design choices the paper calls out:
 *
 *  1. Mediated vDTU access (section 3.5): the rejected first design
 *     where TileMux mediates every vDTU operation — reproduced by
 *     inserting a no-op TMCall before each DTU command; the paper
 *     reports an order-of-magnitude degradation.
 *  2. vDTU TLB capacity (section 3.6): miss rate and RPC throughput
 *     with interleaved buffers across TLB sizes.
 *  3. TileMux time-slice length (section 4.2): throughput of
 *     compute-heavy co-located activities vs RPC latency.
 *  4. Fast-path vs slow-path (sections 3.8/3.9): what Figure 9's
 *     gap is made of — per-RPC cost with always-deliverable messages
 *     (M3v) vs kernel-forwarded messages (M3x), on one tile pair.
 */

#include <cstdio>

#include "bench_util.h"
#include "m3x/system.h"
#include "os/system.h"

namespace {

using namespace m3v;
using os::Bytes;

constexpr int kRounds = 200;

/** Local RPC with optionally a mediation TMCall around every DTU
 *  command (the abandoned first design of section 3.5). */
sim::Tick
rpcWithMediation(bool mediated, bool local)
{
    sim::EventQueue eq;
    os::SystemParams params;
    params.userTiles = 2;
    os::System sys(eq, params);

    auto *client = sys.createApp(0, "client", 6 * 1024);
    auto *server = sys.createApp(local ? 0 : 1, "server", 6 * 1024);
    auto srv_rep = sys.makeRgate(server);
    auto sg = sys.makeSgate(client, server, srv_rep.ep, 1, 4);
    auto cli_rep = sys.makeRgate(client);

    // A no-op TMCall models TileMux mediating one vDTU access.
    auto mediate = [mediated](os::MuxEnv &env) -> sim::Task {
        if (mediated) {
            co_await env.mux().translCall(env.activity(),
                                          env.msgBuf());
        }
    };

    sys.start(server, [&, srv_rep](os::MuxEnv &env) -> sim::Task {
        for (;;) {
            int slot = -1;
            co_await mediate(env);
            co_await env.recvOn(srv_rep.ep, &slot);
            dtu::Error err = dtu::Error::None;
            co_await mediate(env);
            co_await env.reply(srv_rep.ep, slot, Bytes{}, &err);
        }
    });

    sim::Tick total = 0;
    sys.start(client, [&, sg, cli_rep](os::MuxEnv &env) -> sim::Task {
        for (int i = 0; i < 20; i++) { // warmup
            Bytes resp;
            dtu::Error err = dtu::Error::None;
            co_await env.call(sg.ep, cli_rep.ep, Bytes{}, &resp,
                              &err);
        }
        sim::Tick t0 = eq.now();
        for (int i = 0; i < kRounds; i++) {
            Bytes resp;
            dtu::Error err = dtu::Error::None;
            co_await mediate(env);
            co_await env.call(sg.ep, cli_rep.ep, Bytes{}, &resp,
                              &err);
        }
        total = eq.now() - t0;
    });
    eq.run();
    return total / kRounds;
}

/** TLB-capacity sweep: a client streams reads from many distinct
 *  buffer pages; small TLBs thrash. */
void
tlbSweep(bench::Summary &summary)
{
    std::printf("\nAblation 2: vDTU TLB capacity (16 interleaved "
                "4 KiB buffers, memory reads)\n");
    sim::TablePrinter t({"TLB entries", "misses", "hit rate",
                         "avg read us"});
    for (std::size_t entries : {2ul, 4ul, 8ul, 16ul, 32ul}) {
        sim::EventQueue eq;
        os::SystemParams params;
        params.userTiles = 1;
        params.vdtu.tlbEntries = entries;
        os::System sys(eq, params);
        auto *app = sys.createApp(0, "app", 6 * 1024);
        auto mg = sys.makeMgate(app, 1 << 20, dtu::kPermRW);

        sim::Tick total = 0;
        constexpr int kReads = 400;
        sys.start(app, [&, mg](os::MuxEnv &env) -> sim::Task {
            // 16 distinct buffer pages used round-robin.
            dtu::VirtAddr bufs = sys.mapPages(app, 16, dtu::kPermRW);
            sim::Tick t0 = eq.now();
            for (int i = 0; i < kReads; i++) {
                env.setMsgBuf(bufs +
                              (i % 16) * dtu::kPageSize);
                Bytes data;
                dtu::Error err = dtu::Error::None;
                co_await env.readMem(mg.ep, 0, 1024, &data, &err);
            }
            total = eq.now() - t0;
        });
        eq.run();
        auto &v = sys.vdtu(0);
        double hits = static_cast<double>(v.tlbHits());
        double hr = hits / (hits + static_cast<double>(
                                       v.tlbMisses()));
        double read_us = sim::ticksToUs(total / kReads);
        t.addRow({std::to_string(entries),
                  std::to_string(v.tlbMisses()),
                  sim::fmtDouble(hr * 100, 1) + "%",
                  sim::fmtDouble(read_us, 1)});
        std::string key = "tlb" + std::to_string(entries);
        summary.addU64(key + "_misses", v.tlbMisses());
        summary.add(key + "_hit_pct", hr * 100);
        summary.add(key + "_read_us", read_us);
    }
    t.print();
}

/** Time-slice sweep: two compute-heavy activities plus an RPC pair
 *  sharing a tile; shorter slices help latency, cost throughput. */
void
sliceSweep(bench::Summary &summary)
{
    std::printf("\nAblation 3: TileMux time slice (2 compute hogs + "
                "RPC pair on one tile)\n");
    sim::TablePrinter t({"slice", "compute ms", "RPC us",
                         "switches"});
    for (sim::Tick slice_us : {100ul, 500ul, 1000ul, 4000ul}) {
        sim::EventQueue eq;
        os::SystemParams params;
        params.userTiles = 2;
        params.mux.timeSlice = slice_us * sim::kTicksPerUs;
        os::System sys(eq, params);

        auto *hog1 = sys.createApp(0, "hog1", 6 * 1024);
        auto *hog2 = sys.createApp(0, "hog2", 6 * 1024);
        auto *server = sys.createApp(0, "server", 6 * 1024);
        auto *client = sys.createApp(1, "client", 6 * 1024);
        auto srv_rep = sys.makeRgate(server);
        auto sg = sys.makeSgate(client, server, srv_rep.ep, 1, 4);
        auto cli_rep = sys.makeRgate(client);

        sim::Tick hog_done = 0;
        int hogs_left = 2;
        auto hog_body = [&](os::MuxEnv &env) -> sim::Task {
            co_await env.thread().compute(2'000'000); // 25 ms
            if (--hogs_left == 0)
                hog_done = eq.now();
        };
        sys.start(hog1, hog_body);
        sys.start(hog2, hog_body);

        sys.start(server, [&, srv_rep](os::MuxEnv &env) -> sim::Task {
            for (;;) {
                int slot = -1;
                co_await env.recvOn(srv_rep.ep, &slot);
                dtu::Error err = dtu::Error::None;
                co_await env.reply(srv_rep.ep, slot, Bytes{}, &err);
            }
        });

        sim::Sampler rpc_us;
        sys.start(client, [&, sg,
                           cli_rep](os::MuxEnv &env) -> sim::Task {
            for (int i = 0; i < 50; i++) {
                sim::Tick t0 = eq.now();
                Bytes resp;
                dtu::Error err = dtu::Error::None;
                co_await env.call(sg.ep, cli_rep.ep, Bytes{}, &resp,
                                  &err);
                rpc_us.add(sim::ticksToUs(eq.now() - t0));
                co_await sim::Delay{eq, sim::kTicksPerMs};
            }
        });
        eq.run();
        t.addRow({std::to_string(slice_us) + " us",
                  sim::fmtDouble(sim::ticksToMs(hog_done), 1),
                  sim::fmtDouble(rpc_us.mean(), 1),
                  std::to_string(sys.mux(0).ctxSwitches())});
        std::string key = "slice" + std::to_string(slice_us) + "us";
        summary.add(key + "_compute_ms", sim::ticksToMs(hog_done));
        summary.add(key + "_rpc_us", rpc_us.mean());
        summary.addU64(key + "_switches", sys.mux(0).ctxSwitches());
    }
    t.print();
}

/** Fast vs slow path on one co-located pair. */
void
fastVsSlow(bench::Summary &summary)
{
    std::printf("\nAblation 4: fast path (M3v, always deliverable) "
                "vs slow path (M3x, kernel forward)\n");

    // M3v local RPC (3 GHz model to match M3x).
    sim::Tick m3v_local = 0;
    {
        sim::EventQueue eq;
        os::SystemParams params;
        params.userTiles = 2;
        params.userModel = tile::CoreModel::x86Ooo();
        params.ctrlModel = tile::CoreModel::x86Ooo();
        os::System sys(eq, params);
        auto *client = sys.createApp(0, "client", 6 * 1024);
        auto *server = sys.createApp(0, "server", 6 * 1024);
        auto srv_rep = sys.makeRgate(server);
        auto sg = sys.makeSgate(client, server, srv_rep.ep, 1, 4);
        auto cli_rep = sys.makeRgate(client);
        sys.start(server, [&, srv_rep](os::MuxEnv &env) -> sim::Task {
            for (;;) {
                int slot = -1;
                co_await env.recvOn(srv_rep.ep, &slot);
                dtu::Error err = dtu::Error::None;
                co_await env.reply(srv_rep.ep, slot, Bytes{}, &err);
            }
        });
        sys.start(client, [&, sg,
                           cli_rep](os::MuxEnv &env) -> sim::Task {
            for (int i = 0; i < 20; i++) {
                Bytes resp;
                dtu::Error err = dtu::Error::None;
                co_await env.call(sg.ep, cli_rep.ep, Bytes{}, &resp,
                                  &err);
            }
            sim::Tick t0 = eq.now();
            for (int i = 0; i < kRounds; i++) {
                Bytes resp;
                dtu::Error err = dtu::Error::None;
                co_await env.call(sg.ep, cli_rep.ep, Bytes{}, &resp,
                                  &err);
            }
            m3v_local = (eq.now() - t0) / kRounds;
        });
        eq.run();
    }

    // M3x local RPC.
    sim::Tick m3x_local = 0;
    std::uint64_t m3x_switches = 0;
    {
        sim::EventQueue eq;
        m3x::M3xParams params;
        params.userTiles = 2;
        m3x::M3xSystem sys(eq, params);
        auto *client = sys.createAct(0, "client");
        auto *server = sys.createAct(0, "server");
        m3x::M3xChan chan = sys.makeChannel(server);
        dtu::EpId sep = sys.addSender(chan, client);
        sys.start(server, sim::invoke([&sys, server,
                                       chan]() -> sim::Task {
            for (;;) {
                Bytes req;
                m3x::MsgHdr rt;
                co_await sys.serveNext(*server, chan, &req, &rt);
                co_await sys.replyTo(*server, rt, Bytes{});
            }
        }));
        sys.start(client, sim::invoke([&, sep]() -> sim::Task {
            for (int i = 0; i < 20; i++) {
                Bytes resp;
                co_await sys.rpc(*client, chan, sep, Bytes{}, &resp);
            }
            sim::Tick t0 = eq.now();
            for (int i = 0; i < kRounds; i++) {
                Bytes resp;
                co_await sys.rpc(*client, chan, sep, Bytes{}, &resp);
            }
            m3x_local = (eq.now() - t0) / kRounds;
            co_await sys.exit(*client);
        }));
        eq.run();
        m3x_switches = sys.switches();
    }

    std::printf("  M3v fast path: %6.2f us per co-located RPC\n",
                sim::ticksToUs(m3v_local));
    std::printf("  M3x slow path: %6.2f us per co-located RPC "
                "(%.1fx, %llu remote switches)\n",
                sim::ticksToUs(m3x_local),
                static_cast<double>(m3x_local) /
                    static_cast<double>(m3v_local),
                static_cast<unsigned long long>(m3x_switches));
    summary.add("fastpath_m3v_rpc_us", sim::ticksToUs(m3v_local));
    summary.add("slowpath_m3x_rpc_us", sim::ticksToUs(m3x_local));
    summary.addU64("slowpath_m3x_switches", m3x_switches);
}

} // namespace

int
main(int argc, char **argv)
{
    using m3v::bench::banner;

    m3v::bench::ObsOptions obs = m3v::bench::parseObsArgs(argc, argv);
    m3v::bench::Summary summary;
    banner("Ablations", "Design-choice studies from DESIGN.md");

    std::printf("\nAblation 1: TileMux-mediated vDTU access "
                "(abandoned first design, section 3.5)\n");
    sim::Tick direct_r = rpcWithMediation(false, false);
    sim::Tick mediated_r = rpcWithMediation(true, false);
    std::printf("  remote RPC: direct %.2f us, mediated %.2f us "
                "(%.1fx slower)\n",
                sim::ticksToUs(direct_r), sim::ticksToUs(mediated_r),
                static_cast<double>(mediated_r) /
                    static_cast<double>(direct_r));
    sim::Tick direct_l = rpcWithMediation(false, true);
    sim::Tick mediated_l = rpcWithMediation(true, true);
    std::printf("  local RPC:  direct %.2f us, mediated %.2f us "
                "(%.1fx slower)\n",
                sim::ticksToUs(direct_l), sim::ticksToUs(mediated_l),
                static_cast<double>(mediated_l) /
                    static_cast<double>(direct_l));
    summary.add("mediation_remote_direct_us", sim::ticksToUs(direct_r));
    summary.add("mediation_remote_mediated_us",
                sim::ticksToUs(mediated_r));
    summary.add("mediation_local_direct_us", sim::ticksToUs(direct_l));
    summary.add("mediation_local_mediated_us",
                sim::ticksToUs(mediated_l));

    tlbSweep(summary);
    sliceSweep(summary);
    fastVsSlow(summary);
    summary.write(obs.summaryOut);
    return 0;
}
