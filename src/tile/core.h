/**
 * @file
 * The core execution engine: software threads as preemptible
 * coroutines on a simulated CPU core.
 *
 * A Core runs at most one Thread at a time in user mode. Threads
 * co_await compute phases (which can be preempted by interrupts, with
 * remaining cycles banked) and external waits (DTU command completion,
 * blocking in the multiplexer). Kernel-mode work (TileMux, the Linux
 * kernel model) is event-driven: it enters through traps/interrupts,
 * charges explicit cycle costs with interrupts masked, and exits by
 * dispatching a thread or idling the core.
 *
 * The core keeps per-owner time accounting (user per thread, kernel,
 * idle) which feeds the getrusage-style user/system split of the
 * cloud-service evaluation (Figure 10).
 */

#ifndef M3VSIM_TILE_CORE_H_
#define M3VSIM_TILE_CORE_H_

#include <coroutine>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>

#include "noc/packet.h"
#include "sim/clock.h"
#include "sim/sim_object.h"
#include "sim/task.h"
#include "tile/core_model.h"

namespace m3v::tile {

class Core;

/** Interrupt sources a core distinguishes. */
enum class IrqKind
{
    Timer,       ///< TileMux preemption timer
    CoreRequest, ///< vDTU: message arrived for a non-running activity
    Device,      ///< tile-local device (e.g. the NIC)
};

/**
 * A software execution context (one activity's thread, the idle loop,
 * a bare-metal program). The body is a sim::Task coroutine that
 * co_awaits the awaitables below.
 */
class Thread
{
  public:
    enum class State
    {
        Created,  ///< body not started yet
        Ready,    ///< runnable, not current
        Running,  ///< current on the core
        Blocked,  ///< descheduled, waiting for a wake by software
        Finished, ///< body returned
    };

    Thread(Core &core, std::string name, std::uint64_t id);
    ~Thread();

    Thread(const Thread &) = delete;
    Thread &operator=(const Thread &) = delete;

    const std::string &name() const { return name_; }
    std::uint64_t id() const { return id_; }
    State state() const { return state_; }
    Core &core() const { return core_; }
    bool finished() const { return state_ == State::Finished; }

    /** Install the body; it starts on the first dispatch. */
    void start(sim::Task body);

    /**
     * Awaitable: execute for @p cycles of core time. Preemptible;
     * remaining cycles are banked and resumed on redispatch.
     */
    auto
    compute(sim::Cycles cycles)
    {
        struct Awaiter
        {
            Thread &t;
            sim::Cycles cycles;

            bool await_ready() const noexcept { return cycles == 0; }

            void
            await_suspend(std::coroutine_handle<> h)
            {
                t.beginCompute(h, cycles);
            }

            void await_resume() const noexcept {}
        };
        return Awaiter{*this, cycles};
    }

    /**
     * Awaitable: wait for an external wake() while notionally
     * occupying the core (models polling an MMIO status register).
     * If the thread is preempted meanwhile, the wake is latched and
     * consumed on redispatch.
     */
    auto
    externalWait()
    {
        struct Awaiter
        {
            Thread &t;

            bool
            await_ready() const noexcept
            {
                return t.wakePending_;
            }

            void
            await_suspend(std::coroutine_handle<> h)
            {
                t.beginExternalWait(h);
            }

            void
            await_resume() const noexcept
            {
                t.wakePending_ = false;
            }
        };
        return Awaiter{*this};
    }

    /**
     * Awaitable: trap into kernel mode (ecall). The thread suspends
     * and becomes Blocked; @p handler runs in kernel context after the
     * trap-entry cost and must eventually redispatch this thread (or
     * another) via Core::kernelExitTo(). The await completes when the
     * thread is dispatched again.
     */
    auto
    trapCall(sim::UniqueFunction<void()> handler)
    {
        // The handler is stashed on the thread rather than in the
        // awaiter: GCC 12 duplicates awaiter temporaries bitwise in
        // the coroutine frame, so awaiters must be trivially
        // destructible (no owning members).
        pendingTrap_ = std::move(handler);
        struct Awaiter
        {
            Thread &t;

            bool await_ready() const noexcept { return false; }

            void
            await_suspend(std::coroutine_handle<> h)
            {
                t.enterTrap(h, std::move(t.pendingTrap_));
            }

            void await_resume() const noexcept {}
        };
        return Awaiter{*this};
    }

    /** Wake a thread suspended in externalWait(). */
    void wake();

    /** True if a wake() is latched but not yet consumed. */
    bool wakePending() const { return wakePending_; }

    /**
     * True while the thread is suspended in externalWait() — blocked
     * on hardware (e.g. a DTU command), not computing. Holds across
     * preemption until the wake arrives.
     */
    bool
    inExternalWait() const
    {
        return waitMode_ == WaitMode::External;
    }

    /**
     * Drop a latched wake. Call right before starting an operation
     * whose completion is signalled via wake()+externalWait(): stale
     * latches from earlier notifications (e.g. message-arrival hooks
     * firing while the thread computed) would otherwise complete the
     * wait before the operation finished. Only safe when every
     * wait-for-message path re-checks its condition before waiting
     * (fetch-before-wait), which all layers here do.
     */
    void clearWake() { wakePending_ = false; }

    /**
     * Total user-mode core time consumed by this thread, including
     * the open stretch if it is running in user mode right now.
     */
    sim::Tick userTicks() const;

    /**
     * Core time spent polling in externalWait() while dispatched,
     * including the open wait. busyTicks() = userTicks() -
     * waitTicks() approximates the getrusage-style "really
     * computing" time.
     */
    sim::Tick waitTicks() const;
    sim::Tick busyTicks() const;

  private:
    friend class Core;

    enum class WaitMode
    {
        None,     ///< next dispatch resumes the coroutine directly
        Compute,  ///< mid-compute; computeLeft_ cycles outstanding
        External, ///< waiting for wake()
    };

    void beginCompute(std::coroutine_handle<> h, sim::Cycles cycles);
    void beginExternalWait(std::coroutine_handle<> h);
    void beginKernelCall(std::coroutine_handle<> h);
    void enterTrap(std::coroutine_handle<> h,
                   sim::UniqueFunction<void()> handler);
    void scheduleComputeEnd();
    void resumeNow();
    void onDispatched();
    void onPreempted();
    void bodyFinished();

    Core &core_;
    std::string name_;
    std::uint64_t id_;
    State state_ = State::Created;
    WaitMode waitMode_ = WaitMode::None;
    std::coroutine_handle<> resumePoint_{};
    /** Outstanding compute time (banked across preemptions). */
    sim::Tick computeLeftTicks_ = 0;
    /** Absolute end of the in-flight compute phase. */
    sim::Tick computeEndTick_ = 0;
    sim::EventHandle computeEvent_;
    bool wakePending_ = false;
    bool started_ = false;
    sim::Tick userTicks_ = 0;
    sim::Tick waitTicks_ = 0;
    /** Start of the current on-core externalWait stretch (or 0). */
    sim::Tick waitBegin_ = 0;
    bool inWait_ = false;
    sim::Task body_;
    /** Handler in flight between trapCall() and its await_suspend. */
    sim::UniqueFunction<void()> pendingTrap_;
};

/**
 * A simulated CPU core: runs one thread at a time, takes interrupts,
 * and executes kernel-mode work with explicit cycle costs.
 */
class Core : public sim::SimObject
{
  public:
    using IrqHandler = std::function<void(IrqKind)>;
    /** Kernel-work continuations go straight into the event queue;
     *  the move-only wrapper keeps small captures allocation-free. */
    using Continuation = sim::UniqueFunction<void()>;

    Core(sim::EventQueue &eq, std::string name, CoreModel model,
         noc::TileId tile_id);

    const CoreModel &model() const { return model_; }
    const sim::Clock &clock() const { return clk_; }
    noc::TileId tileId() const { return tileId_; }

    /** Currently dispatched thread (may be mid-wait), or null. */
    Thread *current() const { return current_; }

    bool inKernel() const { return inKernel_; }

    /** The thread a pending kernelExitTo() will dispatch, or null. */
    Thread *exitingTo() const { return exitingTo_; }

    /**
     * Make @p t the current thread and continue its execution.
     * Requires that no thread is current. Usually called from kernel
     * context via kernelExitTo().
     */
    void dispatch(Thread *t);

    /**
     * Remove the current thread from the core mid-execution, banking
     * any outstanding compute. Returns the thread (now Ready).
     */
    Thread *preemptCurrent();

    /**
     * Synchronous kernel entry from the current thread (trap/ecall).
     * The thread stops running (stays current_ == nullptr afterwards,
     * in state Blocked) and @p handler runs after the trap-entry cost.
     * The handler must eventually kernelExitTo()/kernelExitIdle().
     */
    void trapFromThread(Continuation handler);

    /**
     * Enter kernel mode from idle (no thread current), e.g. when the
     * multiplexer needs to schedule after a thread finished. Charges
     * trap-entry plus @p extra cycles before running @p then.
     */
    void kernelEnter(sim::Cycles extra, Continuation then);

    /** Charge additional kernel cycles, then continue. */
    void kernelWork(sim::Cycles cost, Continuation then);

    /** Leave kernel mode and dispatch @p t (charges trap-exit cost). */
    void kernelExitTo(Thread *t);

    /** Leave kernel mode with nothing to run. */
    void kernelExitIdle();

    /** Install the interrupt handler (the multiplexer / kernel). */
    void setIrqHandler(IrqHandler h) { irqHandler_ = std::move(h); }

    /**
     * Raise an interrupt. Delivered immediately when in user mode or
     * idle; pended while in kernel mode (interrupts are disabled while
     * TileMux runs, paper section 4.2).
     */
    void raiseIrq(IrqKind kind);

    /** Arm the one-shot preemption timer. */
    void setTimer(sim::Tick delay);

    /** Disarm the preemption timer. */
    void cancelTimer();

    /** True while the one-shot preemption timer is armed. */
    bool timerArmed() const { return timerEvent_.pending(); }

    sim::Tick cyclesToTicks(sim::Cycles c) const
    {
        return clk_.cyclesToTicks(c);
    }

    /** Cumulative kernel-mode time. */
    sim::Tick kernelTicks();

    /** Cumulative idle time. */
    sim::Tick idleTicks();

  private:
    friend class Thread;

    enum class Owner
    {
        Idle,
        User,
        Kernel,
    };

    void accountTo(Owner o);
    void deliverIrq(IrqKind kind);
    void drainPendingIrqs();
    void threadFinished(Thread &t);

    CoreModel model_;
    sim::Clock clk_;
    noc::TileId tileId_;

    Thread *current_ = nullptr;
    bool inKernel_ = false;
    Thread *exitingTo_ = nullptr;
    IrqHandler irqHandler_;
    std::deque<IrqKind> pendingIrqs_;
    sim::EventHandle timerEvent_;

    Owner owner_ = Owner::Idle;
    sim::Tick ownerSince_ = 0;
    sim::Tick kernelTicks_ = 0;
    sim::Tick idleTicks_ = 0;
};

} // namespace m3v::tile

#endif // M3VSIM_TILE_CORE_H_
