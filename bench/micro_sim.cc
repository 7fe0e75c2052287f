/**
 * @file
 * google-benchmark microbenchmarks of the simulator core itself:
 * event-queue throughput, coroutine task overhead, NoC packet cost,
 * codec speed. These measure *host* performance (how fast the
 * simulator runs), complementing the figure benches, which report
 * *simulated* time.
 */

#include <benchmark/benchmark.h>

#include "noc/noc.h"
#include "sim/task.h"
#include "workloads/flac.h"
#include "workloads/zipf.h"

namespace {

using namespace m3v;

void
BM_EventQueueScheduleRun(benchmark::State &state)
{
    for (auto _ : state) {
        sim::EventQueue eq;
        int sink = 0;
        for (int i = 0; i < state.range(0); i++)
            eq.schedule(static_cast<sim::Tick>(i % 97),
                        [&sink]() { sink++; });
        eq.run();
        benchmark::DoNotOptimize(sink);
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EventQueueScheduleRun)->Arg(1000)->Arg(10000);

/**
 * Steady-state schedule/fire on a long-lived queue: one event in, one
 * event out per iteration. This is the allocation-free hot path — the
 * closure fits the inline buffer and the event record comes from the
 * slab freelist.
 */
void
BM_EventQueueScheduleFire(benchmark::State &state)
{
    sim::EventQueue eq;
    int sink = 0;
    for (auto _ : state) {
        eq.schedule(100, [&sink]() { sink++; });
        eq.runOne();
    }
    benchmark::DoNotOptimize(sink);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventQueueScheduleFire);

/**
 * Schedule-then-cancel, the retransmission-timer pattern: most timers
 * are cancelled long before they fire. A small live event per
 * iteration keeps time advancing so tombstones are swept.
 */
void
BM_EventQueueScheduleCancel(benchmark::State &state)
{
    sim::EventQueue eq;
    int sink = 0;
    for (auto _ : state) {
        sim::EventHandle h =
            eq.schedule(50 * sim::kTicksPerNs, [&sink]() { sink++; });
        h.cancel();
        eq.schedule(sim::kTicksPerNs, [&sink]() { sink++; });
        eq.runOne();
    }
    benchmark::DoNotOptimize(sink);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventQueueScheduleCancel);

/**
 * Steady-state pop+push with a large standing backlog and a mix of
 * near-future (near heap) and far-future (far heap) delays — the
 * fig09-style many-tile profile. range(0) is the number of pending
 * events held in the queue throughout.
 */
void
BM_EventQueueMixedHorizon(benchmark::State &state)
{
    sim::EventQueue eq;
    sim::Rng rng(12345);
    int sink = 0;
    auto mixed_delay = [&rng]() -> sim::Tick {
        std::uint64_t r = rng.next() % 100;
        if (r < 60) // short: NoC hops, DMA, core cycles
            return 1 + rng.next() % (200 * sim::kTicksPerNs);
        if (r < 95) // medium: traps, slices (mostly near heap)
            return 1 + rng.next() % (2 * sim::kTicksPerUs);
        // far: retx timeouts, watchdog periods (far heap)
        return 1 + rng.next() % (500 * sim::kTicksPerUs);
    };
    const int backlog = static_cast<int>(state.range(0));
    for (int i = 0; i < backlog; i++)
        eq.schedule(mixed_delay(), [&sink]() { sink++; });
    for (auto _ : state) {
        eq.runOne();
        eq.schedule(mixed_delay(), [&sink]() { sink++; });
    }
    benchmark::DoNotOptimize(sink);
    state.SetItemsProcessed(state.iterations());
    state.counters["pending"] =
        static_cast<double>(eq.pending());
}
BENCHMARK(BM_EventQueueMixedHorizon)->Arg(1000)->Arg(100000);

/**
 * Steady-state pop+push with range(0) events pending, all due within
 * 20000 ticks (20 ns) of now(): many events per nanosecond, inserted
 * out of order — a dense burst of NoC hops and DTU completions.
 */
void
BM_EventQueueDenseNear(benchmark::State &state)
{
    sim::EventQueue eq;
    sim::Rng rng(12345);
    int sink = 0;
    const int backlog = static_cast<int>(state.range(0));
    for (int i = 0; i < backlog; i++)
        eq.schedule(rng.next() % 20000, [&sink]() { sink++; });
    for (auto _ : state) {
        eq.runOne();
        eq.schedule(rng.next() % 20000, [&sink]() { sink++; });
    }
    benchmark::DoNotOptimize(sink);
    state.SetItemsProcessed(state.iterations());
    state.counters["pending"] = static_cast<double>(eq.pending());
}
BENCHMARK(BM_EventQueueDenseNear)->Arg(4096);

sim::Task
chainTask(sim::EventQueue &eq, int depth)
{
    if (depth > 0)
        co_await chainTask(eq, depth - 1);
    co_await sim::Delay{eq, 1};
}

void
BM_TaskChain(benchmark::State &state)
{
    // The queue lives across iterations: this measures coroutine
    // task overhead, not queue construction. Each top-level task is
    // started with kick() and freed when it goes out of scope.
    sim::EventQueue eq;
    for (auto _ : state) {
        sim::Task t = chainTask(eq, static_cast<int>(state.range(0)));
        t.kick();
        eq.run();
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_TaskChain)->Arg(16)->Arg(128);

struct NullSink : noc::HopTarget
{
    bool
    acceptPacket(noc::Packet &pkt, sim::UniqueFunction<void()>) override
    {
        noc::Packet consumed = std::move(pkt);
        return true;
    }
};

void
BM_NocPacket(benchmark::State &state)
{
    sim::EventQueue eq;
    noc::Noc fabric(eq, noc::NocParams{});
    NullSink sinks[4];
    for (unsigned i = 0; i < 4; i++)
        fabric.attachTile(i, &sinks[i]);
    fabric.finalize();
    for (auto _ : state) {
        noc::Packet pkt;
        pkt.src = 0;
        pkt.dst = 3;
        pkt.bytes = 64;
        fabric.inject(pkt, []() {});
        eq.run();
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NocPacket);

void
BM_FlacEncode(benchmark::State &state)
{
    workloads::AudioParams params;
    workloads::Samples audio = workloads::generateAudio(
        static_cast<std::size_t>(state.range(0)), params, true);
    for (auto _ : state) {
        auto frames = workloads::flacEncode(audio);
        benchmark::DoNotOptimize(frames);
    }
    state.SetBytesProcessed(state.iterations() * state.range(0) * 2);
}
BENCHMARK(BM_FlacEncode)->Arg(16000);

void
BM_Zipfian(benchmark::State &state)
{
    sim::Rng rng(7);
    workloads::Zipfian z(1000);
    for (auto _ : state)
        benchmark::DoNotOptimize(z.next(rng));
}
BENCHMARK(BM_Zipfian);

} // namespace

BENCHMARK_MAIN();
