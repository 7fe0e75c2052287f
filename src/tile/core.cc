#include "tile/core.h"

#include <utility>

#include "sim/log.h"

namespace m3v::tile {

//
// Thread
//

Thread::Thread(Core &core, std::string name, std::uint64_t id)
    : core_(core), name_(std::move(name)), id_(id)
{
}

Thread::~Thread() = default;

void
Thread::start(sim::Task body)
{
    if (started_ || body_.valid())
        sim::panic("%s: started twice", name_.c_str());
    body_ = std::move(body);
    body_.setOnDone([this]() { bodyFinished(); });
    state_ = State::Ready;
}

void
Thread::beginCompute(std::coroutine_handle<> h, sim::Cycles cycles)
{
    if (core_.current() != this || state_ != State::Running)
        sim::panic("%s: compute while not running", name_.c_str());
    resumePoint_ = h;
    waitMode_ = WaitMode::Compute;
    computeLeftTicks_ = core_.cyclesToTicks(cycles);
    scheduleComputeEnd();
}

void
Thread::scheduleComputeEnd()
{
    computeEndTick_ = core_.now() + computeLeftTicks_;
    computeEvent_ = core_.eventQueue().schedule(
        computeLeftTicks_, [this]() {
            waitMode_ = WaitMode::None;
            computeLeftTicks_ = 0;
            auto h = resumePoint_;
            resumePoint_ = {};
            h.resume();
        });
}

void
Thread::beginExternalWait(std::coroutine_handle<> h)
{
    if (core_.current() != this || state_ != State::Running)
        sim::panic("%s: externalWait while not running", name_.c_str());
    resumePoint_ = h;
    waitMode_ = WaitMode::External;
    inWait_ = true;
    waitBegin_ = core_.now();
}

void
Thread::beginKernelCall(std::coroutine_handle<> h)
{
    if (core_.current() != this || state_ != State::Running)
        sim::panic("%s: trapCall while not running", name_.c_str());
    resumePoint_ = h;
    // WaitMode::None: the next dispatch resumes the coroutine right
    // after the trap awaitable (the "sret to user" point).
    waitMode_ = WaitMode::None;
}

void
Thread::enterTrap(std::coroutine_handle<> h,
                  sim::UniqueFunction<void()> handler)
{
    beginKernelCall(h);
    core_.trapFromThread(std::move(handler));
}

void
Thread::wake()
{
    wakePending_ = true;
    if (state_ == State::Running && core_.current() == this &&
        waitMode_ == WaitMode::External) {
        resumeNow();
    }
}

void
Thread::resumeNow()
{
    // Resume through the event queue so wake()/dispatch() callers are
    // never re-entered; guard against preemption in between.
    core_.eventQueue().schedule(0, [this]() {
        if (state_ != State::Running || core_.current() != this)
            return; // preempted before the resume fired; redelivered
                    // on the next dispatch
        if (!resumePoint_)
            return; // already resumed
        if (inWait_) {
            waitTicks_ += core_.now() - waitBegin_;
            inWait_ = false;
        }
        waitMode_ = WaitMode::None;
        auto h = resumePoint_;
        resumePoint_ = {};
        h.resume();
    });
}

void
Thread::onDispatched()
{
    state_ = State::Running;
    if (!started_) {
        started_ = true;
        // Start the body through the event queue for the same
        // reentrancy reasons as resumeNow().
        core_.eventQueue().schedule(0, [this]() {
            if (state_ == State::Running && core_.current() == this) {
                body_.kick();
            } else {
                // Preempted before the body could start (e.g. by an
                // interrupt pending at dispatch): retry on the next
                // dispatch.
                started_ = false;
            }
        });
        return;
    }
    switch (waitMode_) {
      case WaitMode::Compute:
        scheduleComputeEnd();
        break;
      case WaitMode::External:
        if (wakePending_) {
            resumeNow();
        } else {
            inWait_ = true;
            waitBegin_ = core_.now();
        }
        break;
      case WaitMode::None:
        resumeNow();
        break;
    }
}

void
Thread::onPreempted()
{
    if (waitMode_ == WaitMode::Compute && computeEvent_.pending()) {
        // Bank the remaining compute time for the next dispatch.
        computeEvent_.cancel();
        computeLeftTicks_ = computeEndTick_ - core_.now();
    }
    if (inWait_) {
        waitTicks_ += core_.now() - waitBegin_;
        inWait_ = false;
    }
    state_ = State::Ready;
}

void
Thread::bodyFinished()
{
    state_ = State::Finished;
    core_.threadFinished(*this);
}

sim::Tick
Thread::userTicks() const
{
    // The core banks user time only when it leaves user mode; a
    // thread that is never switched out would otherwise read 0.
    if (core_.current_ == this && core_.owner_ == Core::Owner::User)
        return userTicks_ + (core_.now() - core_.ownerSince_);
    return userTicks_;
}

sim::Tick
Thread::waitTicks() const
{
    return inWait_ ? waitTicks_ + (core_.now() - waitBegin_)
                   : waitTicks_;
}

sim::Tick
Thread::busyTicks() const
{
    sim::Tick user = userTicks();
    sim::Tick wait = waitTicks();
    return user > wait ? user - wait : 0;
}

//
// Core
//

Core::Core(sim::EventQueue &eq, std::string name, CoreModel model,
           noc::TileId tile_id)
    : SimObject(eq, std::move(name)), model_(std::move(model)),
      clk_(model_.freqHz), tileId_(tile_id)
{
}

void
Core::accountTo(Owner o)
{
    sim::Tick elapsed = now() - ownerSince_;
    switch (owner_) {
      case Owner::Idle:
        idleTicks_ += elapsed;
        break;
      case Owner::Kernel:
        kernelTicks_ += elapsed;
        break;
      case Owner::User:
        if (current_)
            current_->userTicks_ += elapsed;
        break;
    }
    owner_ = o;
    ownerSince_ = now();
}

void
Core::dispatch(Thread *t)
{
    if (current_)
        sim::panic("%s: dispatch with thread %s current",
                   name().c_str(), current_->name().c_str());
    if (inKernel_)
        sim::panic("%s: dispatch from kernel mode (use kernelExitTo)",
                   name().c_str());
    if (!t || t->finished())
        sim::panic("%s: dispatching invalid thread", name().c_str());
    accountTo(Owner::User);
    current_ = t;
    t->onDispatched();
}

Thread *
Core::preemptCurrent()
{
    if (!current_)
        sim::panic("%s: preempt with no current thread",
                   name().c_str());
    accountTo(Owner::Idle);
    Thread *t = current_;
    current_ = nullptr;
    t->onPreempted();
    return t;
}

void
Core::trapFromThread(Continuation handler)
{
    if (!current_)
        sim::panic("%s: trap with no current thread", name().c_str());
    if (inKernel_)
        sim::panic("%s: nested trap", name().c_str());
    accountTo(Owner::Kernel);
    Thread *t = current_;
    current_ = nullptr;
    t->state_ = Thread::State::Blocked;
    inKernel_ = true;
    eq_.schedule(cyclesToTicks(model_.trapEnterCycles),
                 std::move(handler));
}

void
Core::kernelEnter(sim::Cycles extra, Continuation then)
{
    if (inKernel_)
        sim::panic("%s: kernelEnter while in kernel", name().c_str());
    if (current_)
        sim::panic("%s: kernelEnter with a current thread",
                   name().c_str());
    accountTo(Owner::Kernel);
    inKernel_ = true;
    eq_.schedule(cyclesToTicks(model_.trapEnterCycles + extra),
                 std::move(then));
}

void
Core::kernelWork(sim::Cycles cost, Continuation then)
{
    if (!inKernel_)
        sim::panic("%s: kernelWork outside kernel", name().c_str());
    eq_.schedule(cyclesToTicks(cost), std::move(then));
}

void
Core::kernelExitTo(Thread *t)
{
    if (!inKernel_)
        sim::panic("%s: kernelExitTo outside kernel", name().c_str());
    exitingTo_ = t;
    eq_.schedule(cyclesToTicks(model_.trapExitCycles), [this, t]() {
        exitingTo_ = nullptr;
        inKernel_ = false;
        accountTo(Owner::Idle);
        dispatch(t);
        drainPendingIrqs();
    });
}

void
Core::kernelExitIdle()
{
    if (!inKernel_)
        sim::panic("%s: kernelExitIdle outside kernel", name().c_str());
    eq_.schedule(cyclesToTicks(model_.trapExitCycles), [this]() {
        inKernel_ = false;
        accountTo(Owner::Idle);
        drainPendingIrqs();
    });
}

void
Core::raiseIrq(IrqKind kind)
{
    if (inKernel_) {
        pendingIrqs_.push_back(kind);
        return;
    }
    deliverIrq(kind);
}

void
Core::deliverIrq(IrqKind kind)
{
    if (!irqHandler_)
        sim::panic("%s: IRQ %d with no handler installed",
                   name().c_str(), static_cast<int>(kind));
    if (current_)
        preemptCurrent();
    accountTo(Owner::Kernel);
    inKernel_ = true;
    sim::Cycles cost =
        model_.irqOverheadCycles + model_.trapEnterCycles;
    eq_.schedule(cyclesToTicks(cost),
                 [this, kind]() { irqHandler_(kind); });
}

void
Core::drainPendingIrqs()
{
    if (inKernel_ || pendingIrqs_.empty())
        return;
    IrqKind kind = pendingIrqs_.front();
    pendingIrqs_.pop_front();
    deliverIrq(kind);
}

void
Core::setTimer(sim::Tick delay)
{
    timerEvent_.cancel();
    timerEvent_ = eq_.schedule(delay,
                               [this]() { raiseIrq(IrqKind::Timer); });
}

void
Core::cancelTimer()
{
    timerEvent_.cancel();
}

void
Core::threadFinished(Thread &t)
{
    if (current_ == &t) {
        accountTo(Owner::Idle);
        current_ = nullptr;
    }
}

sim::Tick
Core::kernelTicks()
{
    accountTo(owner_);
    return kernelTicks_;
}

sim::Tick
Core::idleTicks()
{
    accountTo(owner_);
    return idleTicks_;
}

} // namespace m3v::tile
