/**
 * @file
 * TileMux — the tile-local multiplexer of M3v (paper sections 3.3 and
 * 4.2), the software half of the contribution.
 *
 * TileMux runs in the core's privileged mode on every multiplexed
 * general-purpose tile. It:
 *  - schedules the tile-local activities round-robin with time slices
 *    (timer interrupts preempt; interrupts are disabled while TileMux
 *    itself runs);
 *  - handles TMCalls (ecall traps) from activities: wait-for-message,
 *    yield, exit, and transl (vDTU TLB refill);
 *  - handles core-request interrupts from the vDTU when messages
 *    arrive for non-running activities, and switches to the recipient
 *    ("as soon as a non-running activity received a message and has
 *    time left to execute, TileMux switches to that activity");
 *  - switches activities through the vDTU's atomic exchange command
 *    and re-checks the old CUR_ACT message count so that no wake-up
 *    is lost (section 3.7);
 *  - performs page-table manipulation on behalf of the controller
 *    (section 4.3) — TileMux has no control beyond its own tile;
 *  - processes sidecalls from the controller, which arrive as regular
 *    messages on TileMux's own receive endpoint (TileMux has its own
 *    activity id and briefly switches to it, section 4.2).
 *
 * Waiting strategy (section 3.7): before blocking, an activity checks
 * via shared memory whether other activities are ready. If none are,
 * it polls the vDTU for new messages instead of blocking, avoiding
 * the kernel entirely (the common case on dedicated tiles).
 */

#ifndef M3VSIM_CORE_TILEMUX_H_
#define M3VSIM_CORE_TILEMUX_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>

#include "core/addrspace.h"
#include "core/vdtu.h"
#include "sim/stats.h"
#include "sim/task.h"
#include "tile/cache_model.h"
#include "tile/core.h"

namespace m3v::core {

class TileMux;

/** Activity id representing the idle loop in CUR_ACT. */
constexpr dtu::ActId kIdleAct = 0xfffd;

/** Handler prologue cost after trap entry. */
constexpr sim::Cycles kEntryCost = 200;

/** Scheduling decision cost. */
constexpr sim::Cycles kSchedCost = 100;

/** Page-table walk on a transl TMCall. */
constexpr sim::Cycles kTranslCost = 90;

/** Fixed cost of processing one controller sidecall. */
constexpr sim::Cycles kSidecallCost = 150;

/** TileMux's own instruction footprint (cache model). */
constexpr std::size_t kMuxFootprint = 5 * 1024;

/**
 * Fraction of an activity's footprint its dispatch touches
 * (immediate hot path); the rest refills lazily during later
 * compute and is not charged to the switch.
 */
constexpr std::size_t kSwitchTouchDivisor = 3;

/** TileMux tuning parameters. */
struct TileMuxParams
{
    /** Round-robin time slice (a fresh slice per dispatch). */
    sim::Tick timeSlice = sim::kTicksPerMs;

    /**
     * Watchdog: an activity that burns this many *consecutive* full
     * time slices without a single TMCall is declared hung and
     * killed (the crash handler then notifies the controller, which
     * reaps the activity's resources). 0 disables the watchdog —
     * the default, so the fast path is unchanged.
     */
    unsigned watchdogSlices = 0;
};

/**
 * An activity on a multiplexed tile: an execution context with its
 * own address space, scheduled by TileMux.
 */
class Activity
{
  public:
    enum class State
    {
        Init,       ///< created, body not started
        Ready,      ///< runnable
        Running,    ///< currently dispatched
        BlockedMsg, ///< blocked in a wait TMCall
        Dead,       ///< exited
    };

    Activity(TileMux &mux, tile::Core &core, dtu::ActId id,
             std::string name, std::size_t footprint);

    dtu::ActId id() const { return id_; }
    const std::string &name() const { return name_; }
    State state() const { return state_; }
    tile::Thread &thread() { return thread_; }
    AddrSpace &addrSpace() { return as_; }
    std::size_t footprint() const { return footprint_; }
    TileMux &mux() { return mux_; }

    /** Completion hook (app exit, used by benchmarks). */
    sim::UniqueFunction<void()> onExit;

  private:
    friend class TileMux;

    TileMux &mux_;
    dtu::ActId id_;
    std::string name_;
    std::size_t footprint_;
    State state_ = State::Init;
    /** Consecutive full slices burned without a TMCall (watchdog). */
    unsigned hogSlices_ = 0;
    /**
     * Unconsumed part of the time slice, banked when a core-request
     * (or device) interrupt preempts the activity mid-slice. The next
     * dispatch arms this remnant instead of a fresh slice; voluntary
     * preemption (yield/wait/exit) and slice expiry clear it.
     */
    sim::Tick sliceLeft_ = 0;
    /** EP filter of the wait TMCall; meaningful while BlockedMsg
     *  (kInvalidEp: any endpoint). */
    dtu::EpId waitEp_ = dtu::kInvalidEp;
    tile::Thread thread_;
    AddrSpace as_;
};

/** The tile-local multiplexer. */
class TileMux : public sim::SimObject
{
  public:
    /**
     * Handles a controller sidecall message (set by the OS layer).
     * The handler receives the message and its receive-buffer slot
     * and must reply (or acknowledge) the slot itself.
     */
    using SidecallHandler =
        std::function<void(const dtu::Message &, int slot)>;

    TileMux(sim::EventQueue &eq, std::string name, tile::Core &core,
            VDtu &vdtu, TileMuxParams params = {});

    tile::Core &core() { return core_; }
    VDtu &vdtu() { return vdtu_; }
    const TileMuxParams &params() const { return params_; }

    //
    // Activity management (driven by the OS layer / controller).
    //

    /** Create an activity record. The body starts via startActivity. */
    Activity *createActivity(dtu::ActId id, std::string name,
                             std::size_t footprint = 8 * 1024);

    /** Install the body and make the activity runnable. */
    void startActivity(Activity *act, sim::Task body);

    /** Forcefully terminate an activity (controller kill sidecall). */
    void killActivity(dtu::ActId id);

    /**
     * Fault-injection entry point: the activity crashes as if it hit
     * an unrecoverable exception. Local cleanup is identical to
     * killActivity, and the crash handler (if set) is invoked so the
     * controller can reap the activity's global resources.
     */
    void crashActivity(dtu::ActId id);

    /**
     * Install the crash/watchdog upcall. Invoked (from a fresh event,
     * never inside the kernel path) with the dead activity's id after
     * a watchdog kill or injected crash.
     */
    void
    setCrashHandler(std::function<void(dtu::ActId)> h)
    {
        crashHandler_ = std::move(h);
    }

    Activity *activity(dtu::ActId id);

    /** Install a page-table mapping (controller map sidecall). */
    void mapPage(dtu::ActId id, dtu::VirtAddr va, dtu::PhysAddr pa,
                 std::uint8_t perms);

    /**
     * Register the endpoint on which controller sidecalls arrive and
     * the handler processing them.
     */
    void setSidecallEp(dtu::EpId rep, SidecallHandler h);

    //
    // TMCall awaitables (used by the libm3 layer from activity
    // coroutines; all must be awaited by the activity's own thread).
    //

    /**
     * Wait until this activity has an unread message — on @p ep if
     * given, on any of its endpoints otherwise (the TMCall's EP
     * filter). Blocks via TMCall if other activities are ready;
     * polls the vDTU otherwise. The in-kernel check against the
     * vDTU's counters is atomic with the blocking decision
     * (section 3.7's lost-wake-up protection).
     */
    sim::Task waitForMsg(Activity &act,
                         dtu::EpId ep = dtu::kInvalidEp);

    /** Refill the vDTU TLB for @p va (transl TMCall). */
    sim::Task translCall(Activity &act, dtu::VirtAddr va);

    /** Give up the rest of the time slice. */
    sim::Task yieldCall(Activity &act);

    /** Voluntary exit; never returns to the activity. */
    sim::Task exitCall(Activity &act);

    /** Shared-memory flag: are other activities ready? (section 3.7) */
    bool othersReady(const Activity &act) const;

    /**
     * Register this multiplexer's scheduler laws with @p inv (tests
     * only): the ready queue holds no duplicates, no Running activity
     * and never the current one; outside the kernel the current
     * activity is Running and matches CUR_ACT; pollers are never
     * dead (every boundary). At quiescence: no activity is still
     * Ready (scheduler stall), and no activity is blocked in a wait
     * TMCall with an unread message on its waited endpoint (lost
     * wakeup, paper section 3.7).
     */
    void registerInvariants(sim::Invariants &inv);

    // Statistics for the evaluation (registry-backed).
    std::uint64_t ctxSwitches() const { return switches_->value(); }
    std::uint64_t coreReqIrqs() const
    {
        return coreReqIrqs_->value();
    }
    std::uint64_t timerIrqs() const { return timerIrqs_->value(); }
    std::uint64_t tmCalls() const { return tmCalls_->value(); }
    std::uint64_t watchdogKills() const
    {
        return watchdogKills_->value();
    }
    std::uint64_t crashes() const { return crashes_->value(); }

  private:
    void onIrq(tile::IrqKind kind);
    /** Kill a hung/crashed activity and schedule the crash upcall;
     *  @p why names the trace/fault event ("watchdog", "crash"). */
    void reapLocal(Activity &act, sim::Counter &reason,
                   const char *why);
    /** A crash that landed while the kernel worked for @p act (a
     *  TMCall, or the switch to it) has already reaped it: schedule
     *  the next activity instead of finishing that work. Returns
     *  true in that case. */
    bool reapedInKernel(Activity &act);
    void handleCoreRequest();
    void handleSidecall();
    /** Pick next and switch (kernel context). */
    void scheduleNext();
    void switchTo(Activity *next);
    Activity *pickNext();
    void kickScheduler();
    void registerPoller(Activity &act);
    sim::Cycles touchMux();
    /** Arm the slice timer and record its absolute deadline. */
    void armSlice(sim::Tick slice);

    tile::Core &core_;
    VDtu &vdtu_;
    TileMuxParams params_;
    tile::CacheModel l1i_;

    std::unordered_map<dtu::ActId, std::unique_ptr<Activity>> acts_;
    std::deque<Activity *> ready_;
    Activity *current_ = nullptr;
    Activity *hint_ = nullptr;
    /** Absolute deadline of the armed slice timer (valid while the
     *  core's timer is armed; see armSlice()). */
    sim::Tick sliceEnd_ = 0;
    std::unordered_map<dtu::ActId, Activity *> pollers_;

    SidecallHandler sidecall_;
    dtu::EpId sidecallEp_ = dtu::kInvalidEp;
    std::function<void(dtu::ActId)> crashHandler_;

    sim::Counter *switches_;
    sim::Counter *coreReqIrqs_;
    sim::Counter *timerIrqs_;
    sim::Counter *tmCalls_;
    sim::Counter *watchdogKills_;
    sim::Counter *crashes_;

    /** Timeline tracer and this tile's trace pid (= NoC tile id). */
    sim::Tracer *trc_;
    std::uint32_t pid_;
};

} // namespace m3v::core

#endif // M3VSIM_CORE_TILEMUX_H_
