/**
 * @file
 * Tests for the allocation-free event core: slab/generation handle
 * reuse, inline vs heap-allocated closures, near/far heap behavior
 * across the near-horizon boundary, determinism against a reference
 * (tick, seq) model, and steady-state allocation freedom.
 *
 * This binary counts heap allocations through tests/alloc_count.h.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <memory>
#include <vector>

#include "alloc_count.h"
#include "sim/event_queue.h"
#include "sim/rng.h"

namespace m3v::sim {
namespace {

constexpr Tick kHorizon = EventQueue::kNearHorizon;

//
// Closure storage: inline small-buffer vs heap fallback.
//

TEST(UniqueFunctionSbo, SmallClosuresAreInline)
{
    int x = 0;
    auto small = [&x]() { x++; };
    static_assert(
        UniqueFunction<void()>::storedInline<decltype(small)>);

    // Three pointers worth of captures still fits.
    int *a = &x, *b = &x, *c = &x;
    auto three = [a, b, c]() { (*a)++, (*b)++, (*c)++; };
    static_assert(
        UniqueFunction<void()>::storedInline<decltype(three)>);

    // More than kInlineSize bytes of captures does not.
    std::array<char, 64> big{};
    auto fat = [big]() { (void)big; };
    static_assert(
        !UniqueFunction<void()>::storedInline<decltype(fat)>);
}

TEST(UniqueFunctionSbo, HeapFallbackClosureExecutes)
{
    EventQueue eq;
    std::array<char, 64> big{};
    big[0] = 7;
    int seen = 0;
    eq.schedule(5, [big, &seen]() { seen = big[0]; });
    eq.run();
    EXPECT_EQ(seen, 7);
}

TEST(UniqueFunctionSbo, MoveOnlyCaptureExecutesAndFrees)
{
    EventQueue eq;
    auto payload = std::make_unique<int>(42);
    int seen = 0;
    eq.schedule(5, [p = std::move(payload), &seen]() { seen = *p; });
    eq.run();
    EXPECT_EQ(seen, 42);
}

TEST(UniqueFunctionSbo, CancelDestroysCapturesPromptly)
{
    EventQueue eq;
    auto tracked = std::make_shared<int>(1);
    std::weak_ptr<int> watch = tracked;
    EventHandle h =
        eq.schedule(10, [p = std::move(tracked)]() { (void)*p; });
    ASSERT_FALSE(watch.expired());
    EXPECT_TRUE(h.cancel());
    // The closure (and its capture) dies at cancel() time, not when
    // the tombstone is eventually swept.
    EXPECT_TRUE(watch.expired());
    eq.run();
}

//
// Slab pool and generation handles.
//

TEST(EventCore, StaleHandleAfterCancelAndSlotReuse)
{
    EventQueue eq;
    bool a_ran = false, b_ran = false;
    EventHandle a = eq.schedule(10, [&]() { a_ran = true; });
    EXPECT_TRUE(a.cancel());
    // The freed slot is recycled for the next event; the stale handle
    // must see the generation bump and stay inert.
    EventHandle b = eq.schedule(10, [&]() { b_ran = true; });
    EXPECT_FALSE(a.pending());
    EXPECT_FALSE(a.cancel());
    EXPECT_TRUE(b.pending());
    eq.run();
    EXPECT_FALSE(a_ran);
    EXPECT_TRUE(b_ran);
}

TEST(EventCore, StaleHandleAfterFireAndSlotReuse)
{
    EventQueue eq;
    EventHandle a = eq.schedule(1, []() {});
    eq.run();
    bool b_ran = false;
    EventHandle b = eq.schedule(1, [&]() { b_ran = true; });
    // a's record was recycled into b; a must not be able to cancel b.
    EXPECT_FALSE(a.pending());
    EXPECT_FALSE(a.cancel());
    EXPECT_TRUE(b.pending());
    eq.run();
    EXPECT_TRUE(b_ran);
}

TEST(EventCore, CancelReflectsInPendingCountImmediately)
{
    EventQueue eq;
    EventHandle h = eq.schedule(10, []() {});
    eq.schedule(20, []() {});
    EXPECT_EQ(eq.pending(), 2u);
    EXPECT_FALSE(eq.empty());
    h.cancel();
    EXPECT_EQ(eq.pending(), 1u);
    eq.run();
    EXPECT_EQ(eq.pending(), 0u);
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.executed(), 1u);
}

TEST(EventCore, ManyHandlesSurviveSlabGrowth)
{
    EventQueue eq;
    int ran = 0;
    std::vector<EventHandle> handles;
    // Far more events than one slab holds, all pending at once.
    for (int i = 0; i < 3000; i++)
        handles.push_back(
            eq.schedule(static_cast<Tick>(1 + i), [&]() { ran++; }));
    for (std::size_t i = 0; i < handles.size(); i += 2)
        EXPECT_TRUE(handles[i].cancel());
    eq.run();
    EXPECT_EQ(ran, 1500);
    for (auto &h : handles)
        EXPECT_FALSE(h.pending());
}

//
// Near and far heaps: ordering across the near-horizon boundary.
//

TEST(EventCore, OrderAcrossHorizonBoundaries)
{
    EventQueue eq;
    std::vector<Tick> fired;
    // Straddle several near horizons, scheduled out of order, plus
    // two events exactly one horizon apart.
    std::vector<Tick> whens = {
        10 * kHorizon, 5,          3 * kHorizon + 1, kHorizon + 5,
        kHorizon - 1,  2 * kHorizon + 5, 5 + kHorizon, 17,
    };
    for (Tick w : whens)
        eq.scheduleAt(w, [&fired, &eq]() { fired.push_back(eq.now()); });
    eq.run();
    std::vector<Tick> sorted = whens;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(fired, sorted);
    EXPECT_EQ(eq.now(), 10 * kHorizon);
}

TEST(EventCore, SameTickFifoAcrossLargeGap)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 8; i++)
        eq.scheduleAt(7 * kHorizon + 3, [&order, i]() {
            order.push_back(i);
        });
    eq.run();
    for (int i = 0; i < 8; i++)
        EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventCore, ScheduleShortDelaysAfterRunUntilFastForward)
{
    EventQueue eq;
    std::vector<Tick> fired;
    // A lone far-future event, then a fast-forward to the middle of
    // nowhere, then short-delay events: they go to the near heap and
    // must fire before the older far-heap entry.
    eq.scheduleAt(10 * kHorizon,
                  [&]() { fired.push_back(eq.now()); });
    eq.runUntil(4 * kHorizon + 17);
    EXPECT_EQ(eq.now(), 4 * kHorizon + 17);
    EXPECT_TRUE(fired.empty());
    eq.schedule(5, [&]() { fired.push_back(eq.now()); });
    eq.schedule(0, [&]() { fired.push_back(eq.now()); });
    eq.run();
    ASSERT_EQ(fired.size(), 3u);
    EXPECT_EQ(fired[0], 4 * kHorizon + 17);
    EXPECT_EQ(fired[1], 4 * kHorizon + 17 + 5);
    EXPECT_EQ(fired[2], 10 * kHorizon);
}

TEST(EventCore, NestedSchedulingAcrossBuckets)
{
    EventQueue eq;
    std::vector<Tick> fired;
    eq.schedule(1, [&]() {
        fired.push_back(eq.now());
        // Same tick (goes to the now-FIFO), near future, and beyond
        // the horizon, scheduled from inside a handler.
        eq.schedule(0, [&]() { fired.push_back(eq.now()); });
        eq.schedule(2 * kHorizon, [&]() { fired.push_back(eq.now()); });
        eq.schedule(3, [&]() { fired.push_back(eq.now()); });
    });
    eq.run();
    ASSERT_EQ(fired.size(), 4u);
    EXPECT_EQ(fired[0], 1u);
    EXPECT_EQ(fired[1], 1u);
    EXPECT_EQ(fired[2], 4u);
    EXPECT_EQ(fired[3], 1u + 2 * kHorizon);
}

TEST(EventCore, CrossHeapSameTickFiresInSeqOrder)
{
    EventQueue eq;
    std::vector<int> order;
    const Tick t = kHorizon + 100;
    // Scheduled a full horizon ahead of now(): the far heap.
    eq.scheduleAt(t, [&]() {
        order.push_back(0);
        // Same tick, newest seq: the now-FIFO, after both heaps.
        eq.schedule(0, [&]() { order.push_back(2); });
    });
    eq.runUntil(200);
    // The same tick is now within the horizon: the near heap, with a
    // newer seq than the far entry.
    eq.scheduleAt(t, [&]() { order.push_back(1); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
    EXPECT_EQ(eq.now(), t);
}

TEST(EventCore, PeekAndRunBeforeSkipFarTombstones)
{
    EventQueue eq;
    std::vector<int> fired;
    // Far heap: two cancelled entries ahead of a live one.
    EventHandle a =
        eq.scheduleAt(kHorizon + 10, [&]() { fired.push_back(-1); });
    EventHandle b =
        eq.scheduleAt(kHorizon + 20, [&]() { fired.push_back(-2); });
    eq.scheduleAt(kHorizon + 60, [&]() { fired.push_back(60); });
    EXPECT_TRUE(a.cancel());
    EXPECT_TRUE(b.cancel());
    // Near heap: a live entry behind the far tombstones but ahead of
    // the live far entry.
    eq.runUntil(kHorizon / 2);
    eq.scheduleAt(kHorizon + 50, [&]() { fired.push_back(50); });
    ASSERT_EQ(eq.pending(), 2u);

    Tick next = 0;
    ASSERT_TRUE(eq.peekNextTick(&next));
    EXPECT_EQ(next, kHorizon + 50);
    ASSERT_TRUE(eq.peekNextTick(&next));
    EXPECT_EQ(next, kHorizon + 50);
    EXPECT_TRUE(eq.runBefore(kHorizon + 50, &next));
    EXPECT_EQ(next, kHorizon + 50);
    EXPECT_EQ(eq.pending(), 2u);
    EXPECT_EQ(eq.executed(), 0u);
    EXPECT_TRUE(fired.empty());

    EXPECT_TRUE(eq.runBefore(kHorizon + 55, &next));
    EXPECT_EQ(next, kHorizon + 60);
    EXPECT_EQ(eq.now(), kHorizon + 50);
    EXPECT_FALSE(eq.runBefore(~Tick{0}, &next));
    EXPECT_EQ(fired, (std::vector<int>{50, 60}));
    EXPECT_EQ(eq.executed(), 2u);
}

//
// Determinism: the queue must execute exactly in (tick, seq) order,
// matching a naive reference model, independent of near/far heap
// placement and of cancellations.
//

struct RefEvent
{
    Tick when;
    std::uint64_t seq;
    int id;
    bool cancelled = false;
};

TEST(EventCore, MatchesReferenceModelOnRandomWorkload)
{
    EventQueue eq;
    Rng rng(987654321);
    std::vector<int> got;
    std::vector<RefEvent> ref;
    std::vector<EventHandle> handles;
    std::uint64_t seq = 0;
    int next_id = 0;

    auto random_delay = [&rng]() -> Tick {
        switch (rng.next() % 5) {
        case 0: return 0;
        case 1: return rng.next() % 64;                // very near
        case 2: return rng.next() % (kHorizon / 4);    // near heap
        case 3: return rng.next() % (2 * kHorizon);    // straddling
        default: return rng.next() % (20 * kHorizon);  // far heap
        }
    };

    for (int i = 0; i < 2000; i++) {
        Tick d = random_delay();
        int id = next_id++;
        handles.push_back(
            eq.schedule(d, [&got, id]() { got.push_back(id); }));
        ref.push_back(RefEvent{eq.now() + d, seq++, id});
        if (rng.nextBool(0.2)) {
            std::size_t victim = rng.next() % handles.size();
            if (handles[victim].cancel())
                ref[victim].cancelled = true;
        }
        // Interleave execution so schedules happen at many different
        // current ticks.
        if (rng.nextBool(0.3))
            eq.runOne();
    }
    eq.run();

    // Reference order: stable (when, seq), skipping cancelled. Events
    // executed early (interleaved runOne) come out in the same global
    // order because execution never runs ahead of schedules here:
    // every runOne() pops the globally-earliest live event.
    std::vector<RefEvent> expect = ref;
    std::sort(expect.begin(), expect.end(),
              [](const RefEvent &a, const RefEvent &b) {
                  if (a.when != b.when)
                      return a.when < b.when;
                  return a.seq < b.seq;
              });
    std::vector<int> want;
    for (const auto &e : expect)
        if (!e.cancelled)
            want.push_back(e.id);
    EXPECT_EQ(got, want);
}

TEST(EventCore, DenseNearHorizonMatchesReferenceModel)
{
    // 4096 events stay pending, all within 20000 ticks of now(): every
    // push and pop works the near heap, with out-of-order inserts and
    // same-tick ties throughout.
    constexpr std::size_t kPending = 4096;
    constexpr Tick kSpread = 20000;
    EventQueue eq;
    Rng rng(4096);
    std::vector<std::pair<Tick, int>> got;
    std::vector<RefEvent> ref;
    std::vector<EventHandle> handles;
    auto add = [&]() {
        Tick d = rng.next() % kSpread;
        int id = static_cast<int>(ref.size());
        handles.push_back(eq.schedule(d, [&got, &eq, id]() {
            got.emplace_back(eq.now(), id);
        }));
        ref.push_back(RefEvent{eq.now() + d, ref.size(), id});
    };
    for (std::size_t i = 0; i < kPending; i++)
        add();
    for (int i = 0; i < 40000; i++) {
        ASSERT_TRUE(eq.runOne());
        add();
        if (rng.nextBool(0.1)) {
            std::size_t victim = rng.next() % handles.size();
            if (handles[victim].cancel()) {
                ref[victim].cancelled = true;
                add();
            }
        }
        ASSERT_EQ(eq.pending(), kPending);
    }
    eq.run();

    // As above, every schedule is at or after now(), so the execution
    // sequence is the whole reference sorted by (tick, seq).
    std::sort(ref.begin(), ref.end(),
              [](const RefEvent &a, const RefEvent &b) {
                  if (a.when != b.when)
                      return a.when < b.when;
                  return a.seq < b.seq;
              });
    std::vector<std::pair<Tick, int>> want;
    for (const auto &e : ref)
        if (!e.cancelled)
            want.emplace_back(e.when, e.id);
    EXPECT_EQ(got, want);
}

TEST(EventCore, SameSeedSameExecutionSequence)
{
    auto run = [](std::uint64_t seed) {
        EventQueue eq;
        Rng rng(seed);
        std::vector<std::pair<Tick, int>> fired;
        for (int i = 0; i < 500; i++) {
            Tick d = rng.next() % (3 * kHorizon);
            eq.schedule(d, [&fired, &eq, i]() {
                fired.emplace_back(eq.now(), i);
            });
            if (rng.nextBool(0.5))
                eq.runOne();
        }
        eq.run();
        return fired;
    };
    EXPECT_EQ(run(42), run(42));
    EXPECT_EQ(run(42).size(), 500u);
}

//
// Allocation freedom: a steady-state schedule/fire cycle with inline
// closures performs zero heap allocations once the record pool and
// the heap vectors are warm.
//

TEST(EventCore, SteadyStateScheduleFireIsAllocationFree)
{
    EventQueue eq;
    std::uint64_t sink = 0;
    auto cycle = [&eq, &sink](int rounds) {
        for (int i = 0; i < rounds; i++) {
            // Delays spread over the near heap plus a same-tick
            // event every fifth round to exercise the now-FIFO.
            Tick d = (i % 5 == 0)
                         ? 0
                         : static_cast<Tick>((i * 37) % 40000);
            eq.schedule(d, [&sink]() { sink++; });
            EventHandle extra =
                eq.schedule(static_cast<Tick>(50 + (i * 13) % 20000),
                            [&sink]() { sink++; });
            if (i % 3 == 0)
                extra.cancel();
            eq.runOne();
            if (i % 2 == 0)
                eq.runOne();
        }
        eq.run();
    };
    // Align now() to a horizon boundary so both cycles run the same
    // schedule pattern — warmup then grows the heap and FIFO vectors
    // to exactly the depth the measured cycle reuses.
    auto align = [&eq]() {
        eq.runUntil((eq.now() / kHorizon + 1) * kHorizon);
    };
    // Warm up pools, heap vectors, and the now-FIFO.
    align();
    cycle(10000);
    align();
    std::uint64_t before = test::allocCount.load();
    cycle(10000);
    std::uint64_t after = test::allocCount.load();
    EXPECT_EQ(after - before, 0u) << "steady-state cycle allocated";
    EXPECT_GT(sink, 0u);
}

} // namespace
} // namespace m3v::sim
