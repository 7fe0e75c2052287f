/**
 * @file
 * Unit tests for the core execution engine: compute timing,
 * preemption with banked cycles, traps, interrupts, timers,
 * external waits and time accounting.
 */

#include <gtest/gtest.h>

#include <vector>

#include "tile/core.h"

namespace m3v::tile {
namespace {

constexpr std::uint64_t kHundredMhz = 100'000'000;

CoreModel
simpleModel()
{
    CoreModel m;
    m.name = "test";
    m.freqHz = kHundredMhz; // 10 ns per cycle
    m.trapEnterCycles = 10;
    m.trapExitCycles = 10;
    m.irqOverheadCycles = 5;
    return m;
}

/** Ticks per cycle at 100 MHz (ticks are picoseconds). */
constexpr sim::Tick kCyc = 10'000;

class CoreTest : public ::testing::Test
{
  protected:
    CoreTest() : core(eq, "core0", simpleModel(), 0) {}

    sim::EventQueue eq;
    Core core;
};

sim::Task
computeBody(Thread &self, std::vector<sim::Tick> &log,
            sim::EventQueue &eq)
{
    co_await self.compute(100);
    log.push_back(eq.now());
    co_await self.compute(50);
    log.push_back(eq.now());
}

TEST_F(CoreTest, ComputeTakesCycleTime)
{
    Thread t(core, "t0", 0);
    std::vector<sim::Tick> log;
    t.start(computeBody(t, log, eq));
    core.dispatch(&t);
    eq.run();
    ASSERT_EQ(log.size(), 2u);
    EXPECT_EQ(log[0], 100 * kCyc);
    EXPECT_EQ(log[1], 150 * kCyc);
    EXPECT_TRUE(t.finished());
    EXPECT_EQ(t.userTicks(), 150 * kCyc);
}

sim::Task
longCompute(Thread &self, bool &done, sim::EventQueue &eq,
            sim::Tick &end)
{
    co_await self.compute(1000);
    done = true;
    end = eq.now();
}

TEST_F(CoreTest, PreemptionBanksRemainingCycles)
{
    Thread t(core, "t0", 0);
    bool done = false;
    sim::Tick end = 0;
    t.start(longCompute(t, done, eq, end));
    core.dispatch(&t);

    // Preempt after 400 cycles.
    eq.schedule(400 * kCyc, [&]() {
        Thread *p = core.preemptCurrent();
        EXPECT_EQ(p, &t);
        EXPECT_EQ(t.state(), Thread::State::Ready);
    });
    // Redispatch at cycle 900: remaining 600 cycles run 900..1500.
    eq.schedule(900 * kCyc, [&]() { core.dispatch(&t); });
    eq.run();
    EXPECT_TRUE(done);
    EXPECT_EQ(end, 1500 * kCyc);
    // User time excludes the descheduled gap.
    EXPECT_EQ(t.userTicks(), 1000 * kCyc);
}

sim::Task
waitBody(Thread &self, bool &woke, sim::EventQueue &eq, sim::Tick &at)
{
    co_await self.compute(10);
    co_await self.externalWait();
    woke = true;
    at = eq.now();
}

TEST_F(CoreTest, ExternalWaitWakes)
{
    Thread t(core, "t0", 0);
    bool woke = false;
    sim::Tick at = 0;
    t.start(waitBody(t, woke, eq, at));
    core.dispatch(&t);
    eq.schedule(500 * kCyc, [&]() { t.wake(); });
    eq.run();
    EXPECT_TRUE(woke);
    EXPECT_EQ(at, 500 * kCyc);
}

TEST_F(CoreTest, OpenUserAndWaitStretchesCountBeforeSwitchOut)
{
    // A lone thread that is never switched out: its user and wait
    // time must still show while it runs, not only once banked.
    Thread t(core, "t0", 0);
    bool woke = false;
    sim::Tick at = 0;
    t.start(waitBody(t, woke, eq, at));
    core.dispatch(&t);
    sim::Tick user = 0, wait = 0, busy = 0;
    eq.schedule(300 * kCyc, [&]() {
        EXPECT_EQ(core.current(), &t);
        user = t.userTicks();
        wait = t.waitTicks();
        busy = t.busyTicks();
    });
    eq.schedule(500 * kCyc, [&]() { t.wake(); });
    eq.run();
    EXPECT_TRUE(woke);
    // Computed 10 cycles, then waited from cycle 10 to 300.
    EXPECT_EQ(user, 300 * kCyc);
    EXPECT_EQ(wait, 290 * kCyc);
    EXPECT_EQ(busy, 10 * kCyc);
    // Once banked at exit, the open stretches are not counted twice.
    EXPECT_EQ(t.userTicks(), 500 * kCyc);
    EXPECT_EQ(t.waitTicks(), 490 * kCyc);
}

TEST_F(CoreTest, WakeBeforePreemptedThreadRedispatchIsLatched)
{
    Thread t(core, "t0", 0);
    bool woke = false;
    sim::Tick at = 0;
    t.start(waitBody(t, woke, eq, at));
    core.dispatch(&t);
    // Preempt while waiting, wake while descheduled, redispatch later.
    eq.schedule(100 * kCyc, [&]() { core.preemptCurrent(); });
    eq.schedule(200 * kCyc, [&]() { t.wake(); });
    eq.schedule(800 * kCyc, [&]() { core.dispatch(&t); });
    eq.run();
    EXPECT_TRUE(woke);
    EXPECT_EQ(at, 800 * kCyc);
}

TEST_F(CoreTest, TimerIrqPreemptsAndHandlerRuns)
{
    Thread t(core, "t0", 0);
    bool done = false;
    sim::Tick end = 0;
    t.start(longCompute(t, done, eq, end));

    std::vector<IrqKind> irqs;
    core.setIrqHandler([&](IrqKind k) {
        irqs.push_back(k);
        EXPECT_TRUE(core.inKernel());
        EXPECT_EQ(core.current(), nullptr);
        core.kernelExitTo(&t);
    });
    core.dispatch(&t);
    core.setTimer(300 * kCyc);
    eq.run();
    ASSERT_EQ(irqs.size(), 1u);
    EXPECT_EQ(irqs[0], IrqKind::Timer);
    EXPECT_TRUE(done);
    // 1000 cycles of work plus irq+trap overhead (5+10 enter, 10 exit).
    EXPECT_EQ(end, 1025 * kCyc);
}

TEST_F(CoreTest, CancelTimerSuppressesIrq)
{
    Thread t(core, "t0", 0);
    bool done = false;
    sim::Tick end = 0;
    t.start(longCompute(t, done, eq, end));
    bool fired = false;
    core.setIrqHandler([&](IrqKind) { fired = true; });
    core.dispatch(&t);
    core.setTimer(300 * kCyc);
    core.cancelTimer();
    eq.run();
    EXPECT_FALSE(fired);
    EXPECT_TRUE(done);
    EXPECT_EQ(end, 1000 * kCyc);
}

sim::Task
trapBody(Thread &self, Core &core, std::vector<sim::Tick> &log,
         sim::EventQueue &eq)
{
    co_await self.compute(100);
    log.push_back(eq.now());
    // Model an ecall: enter the kernel, do 20 cycles of work there,
    // return to this thread.
    co_await self.trapCall([&core, &self]() {
        core.kernelWork(20, [&core, &self]() {
            core.kernelExitTo(&self);
        });
    });
    log.push_back(eq.now());
}

TEST_F(CoreTest, TrapChargesKernelTimeAndResumes)
{
    Thread t(core, "t0", 0);
    std::vector<sim::Tick> log;
    t.start(trapBody(t, core, log, eq));
    core.dispatch(&t);
    eq.run();
    ASSERT_EQ(log.size(), 2u);
    EXPECT_EQ(log[0], 100 * kCyc);
    // + trapEnter(10) + work(20) + trapExit(10) = 40 cycles.
    EXPECT_EQ(log[1], 140 * kCyc);
    EXPECT_EQ(core.kernelTicks(), 40 * kCyc);
}

TEST_F(CoreTest, IrqWhileInKernelIsPended)
{
    Thread t(core, "t0", 0);
    bool done = false;
    sim::Tick end = 0;
    t.start(longCompute(t, done, eq, end));

    int handled = 0;
    core.setIrqHandler([&](IrqKind) {
        handled++;
        if (handled == 1) {
            // Second IRQ arrives while we are still in the kernel.
            core.raiseIrq(IrqKind::CoreRequest);
            EXPECT_EQ(handled, 1);
            core.kernelExitTo(&t);
        } else {
            core.kernelExitTo(&t);
        }
    });
    core.dispatch(&t);
    core.setTimer(200 * kCyc);
    eq.run();
    EXPECT_EQ(handled, 2);
    EXPECT_TRUE(done);
}

TEST_F(CoreTest, AccountingSplitsUserKernelIdle)
{
    Thread t(core, "t0", 0);
    bool done = false;
    sim::Tick end = 0;
    t.start(longCompute(t, done, eq, end));
    core.setIrqHandler([&](IrqKind) {
        core.kernelWork(100, [&]() { core.kernelExitTo(&t); });
    });
    core.dispatch(&t);
    core.setTimer(500 * kCyc);
    eq.run();
    EXPECT_TRUE(done);
    // Kernel time: irq(5) + trapEnter(10) + work(100) + trapExit(10)
    // = 125 cycles.
    EXPECT_EQ(core.kernelTicks(), 125 * kCyc);
    EXPECT_EQ(t.userTicks(), 1000 * kCyc);
}

TEST_F(CoreTest, IdleAccumulatesBetweenThreads)
{
    Thread t(core, "t0", 0);
    bool done = false;
    sim::Tick end = 0;
    t.start(longCompute(t, done, eq, end));
    eq.schedule(500 * kCyc, [&]() { core.dispatch(&t); });
    eq.run();
    EXPECT_EQ(core.idleTicks(), 500 * kCyc);
    EXPECT_TRUE(done);
}

sim::Task
finisher(Thread &self)
{
    co_await self.compute(10);
}

TEST_F(CoreTest, FinishedThreadLeavesCoreIdle)
{
    Thread t(core, "t0", 0);
    t.start(finisher(t));
    core.dispatch(&t);
    eq.run();
    EXPECT_TRUE(t.finished());
    EXPECT_EQ(core.current(), nullptr);
}

TEST(CoreModelTest, FactoryModelsMatchPaperPlatform)
{
    CoreModel r = CoreModel::rocket();
    EXPECT_EQ(r.freqHz, 100'000'000u);
    EXPECT_EQ(r.l1iBytes, 16u * 1024);

    CoreModel b = CoreModel::boom();
    EXPECT_EQ(b.freqHz, 80'000'000u);

    CoreModel x = CoreModel::x86Ooo();
    EXPECT_EQ(x.freqHz, 3'000'000'000u);
}

} // namespace
} // namespace m3v::tile
