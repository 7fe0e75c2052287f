#include "core/tilemux.h"

#include <utility>

#include "sim/invariants.h"
#include "sim/log.h"

namespace m3v::core {

using dtu::ActId;
using dtu::kInvalidAct;
using dtu::kTileMuxAct;

Activity::Activity(TileMux &mux, tile::Core &core, ActId id,
                   std::string name, std::size_t footprint)
    : mux_(mux), id_(id), name_(name), footprint_(footprint),
      thread_(core, name + ".thread", id)
{
}

TileMux::TileMux(sim::EventQueue &eq, std::string name,
                 tile::Core &core, VDtu &vdtu, TileMuxParams params)
    : SimObject(eq, std::move(name)), core_(core), vdtu_(vdtu),
      params_(params),
      l1i_(core.model().l1iBytes, 64, core.model().lineFillCycles)
{
    switches_ = statCounter("switches");
    coreReqIrqs_ = statCounter("core_req_irqs");
    timerIrqs_ = statCounter("timer_irqs");
    tmCalls_ = statCounter("tmcalls");
    watchdogKills_ = statCounter("watchdog_kills");
    crashes_ = statCounter("crashes");
    trc_ = &eq.tracer();
    pid_ = vdtu.tileId();
    if (trc_->anyEnabled()) {
        trc_->setProcessName(pid_,
                             "tile" + std::to_string(pid_));
        trc_->setThreadName(pid_, sim::kTraceTidMux, "tilemux");
        trc_->setThreadName(pid_, sim::kTraceTidDtu, "vdtu");
    }
    core_.setIrqHandler([this](tile::IrqKind k) { onIrq(k); });
    vdtu_.setCoreReqIrq(
        [this]() { core_.raiseIrq(tile::IrqKind::CoreRequest); });
    vdtu_.setMsgNotify([this](dtu::EpId, ActId owner) {
        auto it = pollers_.find(owner);
        if (it != pollers_.end()) {
            Activity *a = it->second;
            pollers_.erase(it);
            a->thread().wake();
        }
    });
    // Start in the idle state.
    vdtu_.xchgAct(kIdleAct);
}

sim::Cycles
TileMux::touchMux()
{
    return l1i_.touch(0, kMuxFootprint);
}

Activity *
TileMux::createActivity(ActId id, std::string name,
                        std::size_t footprint)
{
    if (acts_.count(id))
        sim::panic("%s: duplicate activity id %u", this->name().c_str(),
                   id);
    auto act = std::make_unique<Activity>(*this, core_, id,
                                          std::move(name), footprint);
    Activity *ptr = act.get();
    acts_.emplace(id, std::move(act));
    return ptr;
}

void
TileMux::startActivity(Activity *act, sim::Task body)
{
    // Only a freshly created activity may be started: restarting one
    // that is already Ready (or still queued after a yield) would
    // start a second thread body and enqueue a duplicate ready_
    // entry, so the activity runs "twice".
    if (act->state_ != Activity::State::Init) {
        sim::warn("%s: startActivity on %s in non-Init state; ignored",
                  name().c_str(), act->name().c_str());
        return;
    }
    if (trc_->anyEnabled())
        trc_->setThreadName(pid_, act->id(), act->name());
    act->thread_.start(std::move(body));
    act->state_ = Activity::State::Ready;
    ready_.push_back(act);
    // If another activity is on the core without a slice timer (it
    // was running alone), arm one now so the newcomer gets its turn.
    if (core_.current() && !core_.timerArmed())
        armSlice(params_.timeSlice);
    kickScheduler();
}

void
TileMux::killActivity(ActId id)
{
    Activity *act = activity(id);
    if (!act || act->state_ == Activity::State::Dead)
        return;
    act->state_ = Activity::State::Dead;
    if (current_ == act)
        current_ = nullptr;
    if (hint_ == act)
        hint_ = nullptr;
    pollers_.erase(id);
    vdtu_.resetAct(id);
    if (act->onExit)
        eq_.schedule(0, [act]() { act->onExit(); });
}

void
TileMux::crashActivity(ActId id)
{
    Activity *act = activity(id);
    if (!act || act->state_ == Activity::State::Dead)
        return;
    if (core_.current() == &act->thread_) {
        // The victim is on the core right now: yank its thread off
        // before the kill (the trap a real crash would take), or the
        // in-flight compute/wait would resume the coroutine past its
        // own death.
        core_.preemptCurrent();
        current_ = nullptr;
        reapLocal(*act, *crashes_, "crash");
        kickScheduler();
        return;
    }
    reapLocal(*act, *crashes_, "crash");
    if (core_.exitingTo() == &act->thread_) {
        // The kernel is on its way back to the victim: a pending
        // interrupt takes the core away right after the dispatch,
        // before the victim runs again, and schedules the next one.
        core_.raiseIrq(tile::IrqKind::Device);
    }
}

void
TileMux::reapLocal(Activity &act, sim::Counter &reason,
                   const char *why)
{
    reason.inc();
    trc_->instant(sim::TraceCat::Fault, pid_, act.id(), why);
    ActId id = act.id();
    killActivity(id);
    if (crashHandler_) {
        // Upcall outside the kernel path: the controller reaps the
        // activity's endpoints, capabilities, and credits.
        eq_.schedule(0, [this, id]() { crashHandler_(id); });
    }
}

bool
TileMux::reapedInKernel(Activity &act)
{
    if (act.state_ != Activity::State::Dead)
        return false;
    scheduleNext();
    return true;
}

Activity *
TileMux::activity(ActId id)
{
    auto it = acts_.find(id);
    return it == acts_.end() ? nullptr : it->second.get();
}

void
TileMux::mapPage(ActId id, dtu::VirtAddr va, dtu::PhysAddr pa,
                 std::uint8_t perms)
{
    Activity *act = activity(id);
    if (!act)
        sim::panic("%s: mapPage for unknown activity %u",
                   name().c_str(), id);
    act->as_.map(va, pa, perms);
}

void
TileMux::setSidecallEp(dtu::EpId rep, SidecallHandler h)
{
    sidecallEp_ = rep;
    sidecall_ = std::move(h);
}

bool
TileMux::othersReady(const Activity &act) const
{
    for (const Activity *a : ready_)
        if (a != &act && a->state() == Activity::State::Ready)
            return true;
    if (hint_ && hint_ != &act &&
        hint_->state() == Activity::State::Ready)
        return true;
    return false;
}

void
TileMux::registerPoller(Activity &act)
{
    pollers_[act.id()] = &act;
}

//
// TMCall awaitables.
//

sim::Task
TileMux::waitForMsg(Activity &act, dtu::EpId ep)
{
    act.hogSlices_ = 0;
    act.waitEp_ = ep; // consulted only while BlockedMsg
    // Check the shared-memory "others ready" flag (a couple of loads).
    co_await act.thread().compute(4);

    auto has_msg = [this, &act, ep]() {
        if (ep != dtu::kInvalidEp)
            return vdtu_.unread(act.id(), ep) > 0;
        return vdtu_.unreadOf(act.id()) > 0;
    };

    if (has_msg())
        co_return;

    if (!othersReady(act)) {
        // Nobody else wants the core: poll the vDTU (section 3.7's
        // "current implementation polls if no other activities are
        // ready"). The wake comes straight from the vDTU.
        registerPoller(act);
        co_await act.thread().externalWait();
        co_return;
    }

    // Others are ready: block via TMCall so they can run.
    tmCalls_->inc();
    trc_->begin(sim::TraceCat::TmCall, pid_, act.id(), "tmcall:wait");
    co_await act.thread().trapCall([this, &act, has_msg]() {
        core_.kernelWork(kEntryCost + touchMux(), [this, &act, has_msg]() {
            if (reapedInKernel(act))
                return;
            if (has_msg()) {
                // The message raced with the TMCall; return at once.
                act.state_ = Activity::State::Running;
                core_.kernelExitTo(&act.thread_);
                return;
            }
            act.state_ = Activity::State::BlockedMsg;
            current_ = nullptr;
            scheduleNext();
        });
    });
    trc_->end(sim::TraceCat::TmCall, pid_, act.id());
}

sim::Task
TileMux::translCall(Activity &act, dtu::VirtAddr va)
{
    act.hogSlices_ = 0;
    tmCalls_->inc();
    trc_->begin(sim::TraceCat::TmCall, pid_, act.id(),
                "tmcall:transl");
    co_await act.thread().trapCall([this, &act, va]() {
        sim::Cycles cost = kEntryCost + kTranslCost + touchMux();
        core_.kernelWork(cost, [this, &act, va]() {
            const PageMapping *pm = act.as_.lookup(va);
            if (!pm) {
                sim::panic("%s: unresolvable page fault for %s at "
                           "0x%llx",
                           name().c_str(), act.name().c_str(),
                           static_cast<unsigned long long>(va));
            }
            dtu::PhysAddr pa = pm->phys;
            std::uint8_t perms = pm->perms;
            // The TLB insert is a zero-cycle kernel step of its own:
            // folding it into the walk above would drop one event per
            // transl TMCall and move every pinned event count.
            core_.kernelWork(0, [this, &act, va, pa, perms]() {
                if (reapedInKernel(act))
                    return;
                vdtu_.tlbInsert(act.id(), va, pa, perms);
                act.state_ = Activity::State::Running;
                core_.kernelExitTo(&act.thread_);
            });
        });
    });
    trc_->end(sim::TraceCat::TmCall, pid_, act.id());
}

sim::Task
TileMux::yieldCall(Activity &act)
{
    act.hogSlices_ = 0;
    tmCalls_->inc();
    trc_->begin(sim::TraceCat::TmCall, pid_, act.id(),
                "tmcall:yield");
    co_await act.thread().trapCall([this, &act]() {
        core_.kernelWork(kEntryCost + touchMux(), [this, &act]() {
            if (reapedInKernel(act))
                return;
            act.state_ = Activity::State::Ready;
            ready_.push_back(&act);
            current_ = nullptr;
            scheduleNext();
        });
    });
    trc_->end(sim::TraceCat::TmCall, pid_, act.id());
}

sim::Task
TileMux::exitCall(Activity &act)
{
    act.hogSlices_ = 0;
    tmCalls_->inc();
    trc_->instant(sim::TraceCat::TmCall, pid_, act.id(),
                  "tmcall:exit");
    co_await act.thread().trapCall([this, &act]() {
        core_.kernelWork(kEntryCost + touchMux(), [this, &act]() {
            if (reapedInKernel(act))
                return;
            act.state_ = Activity::State::Dead;
            current_ = nullptr;
            pollers_.erase(act.id());
            vdtu_.resetAct(act.id());
            if (act.onExit) {
                // Run the harness hook outside the kernel path.
                eq_.schedule(0, [&act]() { act.onExit(); });
            }
            scheduleNext();
        });
    });
    sim::panic("%s: exited activity resumed", act.name().c_str());
}

//
// Interrupts and scheduling.
//

void
TileMux::onIrq(tile::IrqKind kind)
{
    // The core preempted the current thread; reconcile our state.
    if (current_ && current_->state_ == Activity::State::Running) {
        auto pit = pollers_.find(current_->id());
        if (pit != pollers_.end() &&
            vdtu_.unreadOf(current_->id()) == 0 &&
            !current_->thread().wakePending()) {
            // An idle poller (section 3.7's poll-instead-of-block
            // only holds while nobody else wants the core): demote
            // it to blocked; a message for it raises a core request
            // like any blocked activity.
            pollers_.erase(pit);
            current_->state_ = Activity::State::BlockedMsg;
        } else {
            current_->state_ = Activity::State::Ready;
            if (kind == tile::IrqKind::Timer) {
                if (current_->thread().inExternalWait()) {
                    // Blocked on the DTU (e.g. a command waiting for
                    // the NoC), not hogging the core: a wait slice is
                    // not a hog slice.
                    current_->hogSlices_ = 0;
                } else {
                    current_->hogSlices_++;
                }
                if (params_.watchdogSlices > 0 &&
                    current_->hogSlices_ >= params_.watchdogSlices) {
                    // Hung: N consecutive full slices without one
                    // TMCall. Kill it here instead of requeueing so
                    // the other activities keep the core.
                    reapLocal(*current_, *watchdogKills_, "watchdog");
                } else {
                    ready_.push_back(current_); // slice over: go last
                }
            } else {
                // A core-request/device interrupt is not a slice
                // expiry: bank the unconsumed remnant so the next
                // dispatch resumes it. Re-arming a fresh slice here
                // would let a compute-bound activity under steady
                // message traffic keep the core forever.
                if (core_.timerArmed() && sliceEnd_ > eq_.now())
                    current_->sliceLeft_ = sliceEnd_ - eq_.now();
                ready_.push_front(current_); // keep its turn
            }
        }
        current_ = nullptr;
    }

    core_.kernelWork(kEntryCost + touchMux(), [this, kind]() {
        switch (kind) {
          case tile::IrqKind::Timer:
            timerIrqs_->inc();
            trc_->instant(sim::TraceCat::Irq, pid_,
                          sim::kTraceTidMux, "timer_irq");
            scheduleNext();
            break;
          case tile::IrqKind::CoreRequest:
            coreReqIrqs_->inc();
            trc_->instant(sim::TraceCat::Irq, pid_,
                          sim::kTraceTidMux, "core_req_irq");
            handleCoreRequest();
            break;
          case tile::IrqKind::Device:
            // Tile-local device interrupts wake the driver activity,
            // which registered itself as a message poller for its
            // own id via waitForMsg-like blocking. Drivers in this
            // simulator use message-based wakeups instead; a raw
            // device IRQ just reschedules.
            scheduleNext();
            break;
        }
    });
}

void
TileMux::handleCoreRequest()
{
    if (!vdtu_.coreReqPending()) {
        // The request may have been consumed by an earlier handler
        // invocation (IRQ was already pended).
        scheduleNext();
        return;
    }
    CoreReq req = vdtu_.coreReqGet();
    vdtu_.coreReqAck();

    if (req.act == kTileMuxAct) {
        handleSidecall();
        return;
    }

    Activity *act = activity(req.act);
    if (act && act->state_ == Activity::State::BlockedMsg) {
        act->state_ = Activity::State::Ready;
        ready_.push_back(act);
    }
    if (act && act->state_ == Activity::State::Ready) {
        // "As soon as a non-running activity received a message and
        // has time left to execute, TileMux switches to it."
        hint_ = act;
    }
    scheduleNext();
}

void
TileMux::handleSidecall()
{
    // TileMux must briefly switch to its own activity id to use its
    // endpoints (section 4.2): model the two exchanges plus handler.
    const auto &m = core_.model();
    sim::Cycles cost =
        kSidecallCost + 2 * (m.mmioReadCycles + m.mmioWriteCycles);
    core_.kernelWork(cost, [this]() {
        if (sidecallEp_ != dtu::kInvalidEp && sidecall_) {
            for (;;) {
                int slot = vdtu_.fetch(kTileMuxAct, sidecallEp_);
                if (slot < 0)
                    break;
                const dtu::Message &msg =
                    vdtu_.slotMsg(sidecallEp_, slot);
                // The handler replies (or acks) the slot itself.
                sidecall_(msg, slot);
            }
        }
        scheduleNext();
    });
}

void
TileMux::kickScheduler()
{
    if (core_.inKernel() || core_.current())
        return;
    core_.kernelEnter(kEntryCost + touchMux(), [this]() { scheduleNext(); });
}

Activity *
TileMux::pickNext()
{
    if (hint_ && hint_->state_ == Activity::State::Ready) {
        Activity *h = hint_;
        hint_ = nullptr;
        // Drop it from the ready queue if it is queued there.
        for (auto it = ready_.begin(); it != ready_.end(); ++it) {
            if (*it == h) {
                ready_.erase(it);
                break;
            }
        }
        return h;
    }
    hint_ = nullptr;
    while (!ready_.empty()) {
        Activity *a = ready_.front();
        ready_.pop_front();
        if (a->state_ == Activity::State::Ready)
            return a;
    }
    return nullptr;
}

void
TileMux::scheduleNext()
{
    core_.kernelWork(kSchedCost, [this]() {
        Activity *next = pickNext();
        if (next) {
            switchTo(next);
            return;
        }
        // Nothing to run: become idle, but re-check the activity we
        // are switching away from for lost wake-ups (section 3.7).
        CurAct old = vdtu_.xchgAct(kIdleAct);
        if (old.act != kIdleAct && old.msgCount > 0) {
            Activity *oa = activity(old.act);
            if (oa && oa->state_ == Activity::State::BlockedMsg) {
                oa->state_ = Activity::State::Ready;
                switchTo(oa);
                return;
            }
        }
        current_ = nullptr;
        core_.cancelTimer();
        core_.kernelExitIdle();
    });
}

void
TileMux::switchTo(Activity *next)
{
    const auto &m = core_.model();
    CurAct old = vdtu_.xchgAct(next->id());

    // Lost-wakeup check for the activity we switched away from.
    if (old.act != next->id() && old.msgCount > 0) {
        Activity *oa = activity(old.act);
        if (oa && oa->state_ == Activity::State::BlockedMsg) {
            oa->state_ = Activity::State::Ready;
            ready_.push_back(oa);
        }
    }

    sim::Cycles cost =
        2 * (m.mmioReadCycles + m.mmioWriteCycles); // CUR_ACT xchg
    if (old.act != next->id()) {
        // Full switch: register contexts, address space, cache
        // competition with the incoming activity's footprint.
        cost += 2 * m.regContextCycles + m.addrSpaceSwitchCycles;
        cost += l1i_.touch(
            static_cast<tile::RegionId>(next->id()) + 1,
            next->footprint_ / kSwitchTouchDivisor);
        switches_->inc();
        trc_->instant(sim::TraceCat::Sched, pid_, next->id(),
                      "switch");
    }

    core_.kernelWork(cost, [this, next]() {
        if (reapedInKernel(*next))
            return;
        current_ = next;
        next->state_ = Activity::State::Running;
        // If messages arrived while the activity was switched out
        // (e.g. it was demoted from a poll-wait), latch a wake so a
        // thread parked in externalWait re-checks its endpoints.
        if (vdtu_.unreadOf(next->id()) > 0)
            next->thread().wake();
        // Tickless: only arm the slice timer when someone else is
        // waiting for the core (keeps idle phases event-free). With
        // the watchdog enabled the timer stays armed even for a lone
        // activity — a hog on an otherwise-blocked tile would never
        // be preempted, and the watchdog would never see it.
        if (!ready_.empty() || params_.watchdogSlices > 0)
            armSlice(next->sliceLeft_ > 0 ? next->sliceLeft_
                                          : params_.timeSlice);
        else
            core_.cancelTimer();
        next->sliceLeft_ = 0;
        core_.kernelExitTo(&next->thread_);
    });
}

void
TileMux::armSlice(sim::Tick slice)
{
    sliceEnd_ = eq_.now() + slice;
    core_.setTimer(slice);
}

void
TileMux::registerInvariants(sim::Invariants &inv)
{
    inv.addCheck(name() + ".sched_state", [this](sim::Invariants &v) {
        for (std::size_t i = 0; i < ready_.size(); i++) {
            Activity *a = ready_[i];
            if (a == current_)
                v.fail("%s: current activity %s also queued ready",
                       name().c_str(), a->name().c_str());
            if (a->state_ == Activity::State::Running)
                v.fail("%s: Running activity %s in ready queue",
                       name().c_str(), a->name().c_str());
            for (std::size_t j = i + 1; j < ready_.size(); j++)
                if (ready_[j] == a)
                    v.fail("%s: activity %s queued ready twice",
                           name().c_str(), a->name().c_str());
        }
        // Outside the kernel the dispatched activity must be Running
        // and CUR_ACT must name it (kernelExitTo restores both
        // atomically; deliverIrq re-enters the kernel synchronously).
        if (current_ && !core_.inKernel()) {
            if (current_->state_ != Activity::State::Running)
                v.fail("%s: dispatched activity %s not Running",
                       name().c_str(), current_->name().c_str());
            if (vdtu_.curAct().act != current_->id())
                v.fail("%s: CUR_ACT %u != dispatched activity %u",
                       name().c_str(), vdtu_.curAct().act,
                       current_->id());
        }
        for (const auto &[id, a] : pollers_)
            if (a->state_ == Activity::State::Dead)
                v.fail("%s: dead activity %s registered as poller",
                       name().c_str(), a->name().c_str());
    });

    inv.addCheck(
        name() + ".progress",
        [this](sim::Invariants &v) {
            for (const auto &[id, up] : acts_) {
                Activity *a = up.get();
                if (a->state_ == Activity::State::Ready)
                    v.fail("%s: activity %s still Ready at quiescence "
                           "(scheduler stall)",
                           name().c_str(), a->name().c_str());
                if (a->state_ != Activity::State::BlockedMsg)
                    continue;
                bool unread =
                    a->waitEp_ != dtu::kInvalidEp
                        ? vdtu_.unread(a->id(), a->waitEp_) > 0
                        : vdtu_.unreadOf(a->id()) > 0;
                if (unread)
                    v.fail("%s: activity %s blocked with an unread "
                           "message on its waited EP (lost wakeup)",
                           name().c_str(), a->name().c_str());
            }
        },
        sim::Invariants::When::QuiescentOnly);
}

} // namespace m3v::core
