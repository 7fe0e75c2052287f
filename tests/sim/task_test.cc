/**
 * @file
 * Unit tests for coroutine tasks: delays, nesting, and the lifetime
 * of top-level tasks started with kick().
 */

#include <gtest/gtest.h>

#include <vector>

#include "sim/task.h"

namespace m3v::sim {
namespace {

Task
delayTwice(EventQueue &eq, Tick d, std::vector<Tick> &log)
{
    co_await Delay{eq, d};
    log.push_back(eq.now());
    co_await Delay{eq, d};
    log.push_back(eq.now());
}

TEST(Task, DelayAdvancesSimTime)
{
    EventQueue eq;
    std::vector<Tick> log;
    Task t = delayTwice(eq, 100, log);
    t.kick();
    eq.run();
    ASSERT_EQ(log.size(), 2u);
    EXPECT_EQ(log[0], 100u);
    EXPECT_EQ(log[1], 200u);
    EXPECT_TRUE(t.done());
}

Task
inner(EventQueue &eq, std::vector<int> &log)
{
    log.push_back(1);
    co_await Delay{eq, 10};
    log.push_back(2);
}

Task
outer(EventQueue &eq, std::vector<int> &log)
{
    log.push_back(0);
    co_await inner(eq, log);
    log.push_back(3);
}

TEST(Task, NestedTasksRunInOrder)
{
    EventQueue eq;
    std::vector<int> log;
    Task t = outer(eq, log);
    t.kick();
    eq.run();
    EXPECT_EQ(log, (std::vector<int>{0, 1, 2, 3}));
    EXPECT_TRUE(t.done());
}

/** Sets its flag when the coroutine frame holding it is destroyed. */
struct FrameGuard
{
    bool &freed;
    ~FrameGuard() { freed = true; }
};

Task
forever(bool &freed)
{
    FrameGuard guard{freed};
    co_await std::suspend_always{};
}

TEST(Task, DestroyingUnfinishedTaskFreesFrame)
{
    EventQueue eq;
    bool freed = false;
    {
        Task t = forever(freed);
        t.kick();
        eq.run();
        EXPECT_FALSE(t.done());
        EXPECT_FALSE(freed);
        // Outside event execution the destructor frees the suspended
        // frame at once (ASan builds check it is freed exactly once).
    }
    EXPECT_TRUE(freed);
    EXPECT_EQ(eq.pending(), 0u);
}

Task
spawnMany(EventQueue &eq, int &done)
{
    co_await Delay{eq, 1};
    done++;
}

TEST(Task, ManyConcurrentTasks)
{
    EventQueue eq;
    std::vector<Task> tasks;
    int done = 0;
    for (int i = 0; i < 500; i++) {
        tasks.push_back(spawnMany(eq, done));
        tasks.back().kick();
    }
    eq.run();
    EXPECT_EQ(done, 500);
    for (const Task &t : tasks)
        EXPECT_TRUE(t.done());
}

Task
deepNest(EventQueue &eq, int depth, int &leaf)
{
    if (depth == 0) {
        co_await Delay{eq, 1};
        leaf++;
        co_return;
    }
    co_await deepNest(eq, depth - 1, leaf);
}

TEST(Task, DeepNestingDoesNotOverflow)
{
    EventQueue eq;
    int leaf = 0;
    Task t = deepNest(eq, 200, leaf);
    t.kick();
    eq.run();
    EXPECT_EQ(leaf, 1);
    EXPECT_TRUE(t.done());
}

} // namespace
} // namespace m3v::sim
