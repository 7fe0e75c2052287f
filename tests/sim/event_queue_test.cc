/**
 * @file
 * Unit tests for the discrete-event queue: ordering, cancellation,
 * time advancement, and capped execution.
 */

#include <gtest/gtest.h>

#include <vector>

#include "sim/event_queue.h"

namespace m3v::sim {
namespace {

TEST(EventQueue, StartsAtTickZeroAndEmpty)
{
    EventQueue eq;
    EXPECT_EQ(eq.now(), 0u);
    EXPECT_TRUE(eq.empty());
    EXPECT_FALSE(eq.runOne());
}

TEST(EventQueue, ExecutesInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(30, [&]() { order.push_back(3); });
    eq.schedule(10, [&]() { order.push_back(1); });
    eq.schedule(20, [&]() { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 30u);
}

TEST(EventQueue, SameTickIsFifo)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 16; i++)
        eq.schedule(5, [&order, i]() { order.push_back(i); });
    eq.run();
    for (int i = 0; i < 16; i++)
        EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(EventQueue, NowAdvancesToEventTime)
{
    EventQueue eq;
    Tick seen = 0;
    eq.schedule(123, [&]() { seen = eq.now(); });
    eq.run();
    EXPECT_EQ(seen, 123u);
}

TEST(EventQueue, NestedSchedulingFromHandler)
{
    EventQueue eq;
    std::vector<Tick> fired;
    eq.schedule(10, [&]() {
        fired.push_back(eq.now());
        eq.schedule(5, [&]() { fired.push_back(eq.now()); });
    });
    eq.run();
    ASSERT_EQ(fired.size(), 2u);
    EXPECT_EQ(fired[0], 10u);
    EXPECT_EQ(fired[1], 15u);
}

TEST(EventQueue, CancelPreventsExecution)
{
    EventQueue eq;
    bool ran = false;
    EventHandle h = eq.schedule(10, [&]() { ran = true; });
    EXPECT_TRUE(h.pending());
    EXPECT_TRUE(h.cancel());
    EXPECT_FALSE(h.pending());
    eq.run();
    EXPECT_FALSE(ran);
    // Second cancel is a no-op.
    EXPECT_FALSE(h.cancel());
}

TEST(EventQueue, CancelAfterFireIsNoop)
{
    EventQueue eq;
    EventHandle h = eq.schedule(1, []() {});
    eq.run();
    EXPECT_FALSE(h.pending());
    EXPECT_FALSE(h.cancel());
}

TEST(EventQueue, DefaultHandleIsInert)
{
    EventHandle h;
    EXPECT_FALSE(h.pending());
    EXPECT_FALSE(h.cancel());
}

TEST(EventQueue, RunUntilStopsAtBoundaryInclusive)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(10, [&]() { order.push_back(1); });
    eq.schedule(20, [&]() { order.push_back(2); });
    eq.schedule(21, [&]() { order.push_back(3); });
    eq.runUntil(20);
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
    EXPECT_EQ(eq.now(), 20u);
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, RunUntilAdvancesTimeWithoutEvents)
{
    EventQueue eq;
    eq.runUntil(500);
    EXPECT_EQ(eq.now(), 500u);
}

TEST(EventQueue, RunCappedLimitsExecution)
{
    EventQueue eq;
    int count = 0;
    for (int i = 0; i < 10; i++)
        eq.schedule(static_cast<Tick>(i), [&]() { count++; });
    EXPECT_FALSE(eq.runCapped(4));
    EXPECT_EQ(count, 4);
    EXPECT_TRUE(eq.runCapped(100));
    EXPECT_EQ(count, 10);
}

TEST(EventQueue, RunCappedDrainedWhenOnlyCancelledRemain)
{
    EventQueue eq;
    int count = 0;
    eq.schedule(1, [&]() { count++; });
    EventHandle h = eq.schedule(2, [&]() { count++; });
    h.cancel();
    // One live event left; the budget covers it, so the queue is
    // drained — the cancelled event must not make runCapped report
    // leftover work.
    EXPECT_TRUE(eq.runCapped(1));
    EXPECT_EQ(count, 1);
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueue, RunUntilIgnoresCancelledFrontEvents)
{
    EventQueue eq;
    bool ran = false;
    for (Tick t = 1; t <= 5; t++)
        eq.schedule(t, []() {}).cancel();
    eq.schedule(50, [&]() { ran = true; });
    // The cancelled events before the boundary are dead; the live one
    // is beyond it. Nothing runs, and time still advances to the
    // boundary.
    eq.runUntil(20);
    EXPECT_FALSE(ran);
    EXPECT_EQ(eq.now(), 20u);
    EXPECT_EQ(eq.executed(), 0u);
    eq.run();
    EXPECT_TRUE(ran);
    EXPECT_EQ(eq.now(), 50u);
}

TEST(EventQueueTest, RunBeforeReportsNextLiveTick)
{
    EventQueue eq;
    std::vector<Tick> ran;
    for (Tick t : {5, 10, 19})
        eq.scheduleAt(t, [&]() { ran.push_back(eq.now()); });
    // The limit is exclusive: 20 stays queued.
    eq.scheduleAt(20, [&]() { ran.push_back(eq.now()); });
    // A cancelled head past the limit is skipped: next is the first
    // *live* tick, 30.
    eq.scheduleAt(30, [&]() { ran.push_back(eq.now()); });
    eq.scheduleAt(20, []() {}).cancel();
    eq.scheduleAt(25, []() {}).cancel();
    Tick next = 0;
    EXPECT_TRUE(eq.runBefore(20, &next));
    EXPECT_EQ(ran, (std::vector<Tick>{5, 10, 19}));
    EXPECT_EQ(eq.executed(), 3u);
    EXPECT_EQ(eq.now(), 19u);
    EXPECT_EQ(next, 20u);
    EXPECT_TRUE(eq.runBefore(21, &next));
    EXPECT_EQ(next, 30u);
    EXPECT_EQ(eq.executed(), 4u);
    // A queue that drains returns false.
    EXPECT_FALSE(eq.runBefore(1000, &next));
    EXPECT_EQ(ran, (std::vector<Tick>{5, 10, 19, 20, 30}));
    EXPECT_EQ(eq.executed(), 5u);
    EXPECT_TRUE(eq.empty());
    EXPECT_FALSE(eq.runBefore(2000, &next));
}

TEST(EventQueue, ExecutedCounts)
{
    EventQueue eq;
    for (int i = 0; i < 5; i++)
        eq.schedule(1, []() {});
    eq.run();
    EXPECT_EQ(eq.executed(), 5u);
}

TEST(EventQueue, ScheduleAtAbsoluteTime)
{
    EventQueue eq;
    Tick seen = 0;
    eq.schedule(10, [&]() {
        eq.scheduleAt(50, [&]() { seen = eq.now(); });
    });
    eq.run();
    EXPECT_EQ(seen, 50u);
}

TEST(EventQueue, ManyEventsStressOrdering)
{
    EventQueue eq;
    Tick last = 0;
    bool monotone = true;
    for (int i = 0; i < 2000; i++) {
        Tick when = static_cast<Tick>((i * 7919) % 1000);
        eq.scheduleAt(when, [&, when]() {
            if (when < last)
                monotone = false;
            last = when;
        });
    }
    eq.run();
    EXPECT_TRUE(monotone);
}

} // namespace
} // namespace m3v::sim
