#include "os/env.h"

#include <utility>

#include "sim/log.h"

namespace m3v::os {

using dtu::Error;

Env::Env(std::string name, tile::Thread &thread, dtu::Dtu &dtu,
         dtu::ActId act)
    : name_(std::move(name)), thread_(&thread), dtu_(&dtu), act_(act)
{
}

sim::Cycles
Env::mmioR(unsigned n) const
{
    return n * thread_->core().model().mmioReadCycles;
}

sim::Cycles
Env::mmioW(unsigned n) const
{
    return n * thread_->core().model().mmioWriteCycles;
}

template <typename Launch>
sim::Task
Env::command(sim::Cycles setup, bool status_read, bool buf_write,
             Launch launch, Error *err)
{
    for (;;) {
        co_await thread_->compute(setup);
        Error e = Error::Aborted;
        bool done = false;
        thread_->clearWake();
        launch([&](Error res) {
            e = res;
            done = true;
            thread_->wake();
        });
        while (!done)
            co_await thread_->externalWait();
        if (status_read)
            co_await thread_->compute(mmioR(1)); // final status read
        if (e == Error::TlbMiss) {
            co_await translFix(msgBuf_, buf_write);
            continue;
        }
        if (err)
            *err = e;
        co_return;
    }
}

sim::Task
Env::send(dtu::EpId sep, Bytes msg, dtu::EpId reply_ep, Error *err,
          std::uint64_t nonce)
{
    // Program EP id, buffer address, size, reply EP; start; poll.
    return command(mmioW(5) + mmioR(1), true, false,
                   [this, sep, msg = std::move(msg), reply_ep,
                    nonce](auto done) {
                       dtu_->cmdSend(act_, sep, msgBuf_, msg, reply_ep,
                                     std::move(done), nonce);
                   },
                   err);
}

sim::Task
Env::reply(dtu::EpId rep, int slot, Bytes msg, Error *err)
{
    return command(mmioW(5) + mmioR(1), true, false,
                   [this, rep, slot, msg = std::move(msg)](auto done) {
                       dtu_->cmdReply(act_, rep, slot, msgBuf_, msg,
                                      std::move(done));
                   },
                   err);
}

sim::Task
Env::recvOn(dtu::EpId rep, int *slot)
{
    int spurious = 0;
    for (;;) {
        // FETCH via MMIO.
        co_await thread_->compute(mmioW(1) + mmioR(1));
        int s = dtu_->fetch(act_, rep);
        if (s >= 0) {
            *slot = s;
            co_return;
        }
        if (++spurious > 10000) {
            sim::panic("%s: livelock in recvOn(ep %u): unread message "
                       "on an unexpected EP?",
                       name_.c_str(), rep);
        }
        co_await waitImpl(rep);
    }
}

sim::Task
Env::recvAny(std::vector<dtu::EpId> reps, dtu::EpId *which, int *slot)
{
    for (;;) {
        for (dtu::EpId rep : reps) {
            co_await thread_->compute(mmioW(1) + mmioR(1));
            int s = dtu_->fetch(act_, rep);
            if (s >= 0) {
                *which = rep;
                *slot = s;
                co_return;
            }
        }
        co_await waitImpl(dtu::kInvalidEp);
    }
}

const dtu::Message &
Env::msgAt(dtu::EpId rep, int slot) const
{
    return dtu_->slotMsg(rep, slot);
}

sim::Task
Env::ackMsg(dtu::EpId rep, int slot)
{
    co_await thread_->compute(mmioW(1));
    dtu_->ack(act_, rep, slot);
}

sim::Task
Env::call(dtu::EpId sep, dtu::EpId rep, Bytes req, Bytes *resp,
          Error *err, sim::Tick reply_deadline)
{
    if (reply_deadline != 0) {
        // Drain late replies of earlier timed-out calls on this EP so
        // the ring cannot fill up with them.
        for (;;) {
            co_await thread_->compute(mmioW(1) + mmioR(1));
            int stale = dtu_->fetch(act_, rep);
            if (stale < 0)
                break;
            staleDrops_++;
            co_await ackMsg(rep, stale);
        }
    }

    // A fresh correlation nonce for this call: the reply echoes it,
    // so a late reply of an earlier call cannot be misattributed.
    const std::uint64_t nonce = ++callNonce_;
    Error e = Error::Aborted;
    co_await send(sep, std::move(req), rep, &e, nonce);
    if (e != Error::None) {
        if (err)
            *err = e;
        co_return;
    }

    sim::EventQueue &eq = dtu_->eventQueue();
    const sim::Tick deadline = eq.now() + reply_deadline;
    int spurious = 0;
    for (;;) {
        // FETCH via MMIO.
        co_await thread_->compute(mmioW(1) + mmioR(1));
        int slot = dtu_->fetch(act_, rep);
        if (slot >= 0) {
            const dtu::Message &m = dtu_->slotMsg(rep, slot);
            if (m.nonce != nonce) {
                staleDrops_++;
                co_await ackMsg(rep, slot);
                continue;
            }
            // Copy the payload out of the receive buffer (word loads).
            co_await thread_->compute(
                static_cast<sim::Cycles>(m.payload.size() / 8 + 2));
            if (resp)
                *resp = m.payload;
            co_await ackMsg(rep, slot);
            if (err)
                *err = Error::None;
            co_return;
        }
        if (reply_deadline == 0) {
            if (++spurious > 10000) {
                sim::panic("%s: livelock in call(ep %u): unread "
                           "message on an unexpected EP?",
                           name_.c_str(), rep);
            }
            co_await waitImpl(rep);
            continue;
        }
        // Timed: poll (section 3.7 style), since nothing wakes a
        // blocked context at the deadline.
        if (eq.now() >= deadline) {
            if (err)
                *err = Error::Timeout;
            co_return;
        }
        co_await yield();
    }
}

bool
Env::admit(sim::Admission &adm, dtu::EpId rep, const dtu::Message &msg)
{
    return !adm.enabled() ||
           adm.admit(dtu_->now(), msg.arrival,
                     dtu_->unread(act_, rep) + 1);
}

sim::Task
Env::shed(const sim::Admission &adm, dtu::EpId rep, int slot,
          Bytes resp)
{
    co_await thread_->compute(adm.params().shedCost);
    Error serr = Error::None;
    co_await reply(rep, slot, std::move(resp), &serr);
}

sim::Task
Env::readMem(dtu::EpId mep, std::uint64_t off, std::size_t size,
             Bytes *out, Error *err)
{
    return command(mmioW(4) + mmioR(1), false, true,
                   [this, mep, off, size, out](auto done) {
                       dtu_->cmdRead(act_, mep, off, size, msgBuf_,
                                     [out, done](Error res,
                                                 Bytes data) {
                                         if (out)
                                             *out = std::move(data);
                                         done(res);
                                     });
                   },
                   err);
}

sim::Task
Env::writeMem(dtu::EpId mep, std::uint64_t off, Bytes data, Error *err)
{
    return command(mmioW(4) + mmioR(1), false, false,
                   [this, mep, off, data = std::move(data)](auto done) {
                       dtu_->cmdWrite(act_, mep, off, data, msgBuf_,
                                      std::move(done));
                   },
                   err);
}

sim::Task
Env::syscall(SyscallReq req, SyscallResp *resp)
{
    return trySyscall(req, resp, nullptr);
}

sim::Task
Env::trySyscall(SyscallReq req, SyscallResp *resp, dtu::Error *err)
{
    if (syscSep_ == dtu::kInvalidEp)
        sim::panic("%s: syscall without syscall gates", name_.c_str());
    Bytes respb;
    Error e = Error::Aborted;
    co_await call(syscSep_, syscRep_, podBytes(req), &respb, &e);
    if (e != Error::None && err == nullptr)
        sim::panic("%s: syscall transport failed: %s", name_.c_str(),
                   dtu::errorName(e));
    if (err)
        *err = e;
    if (e == Error::None)
        *resp = podFrom<SyscallResp>(respb);
}

//
// MuxEnv
//

MuxEnv::MuxEnv(std::string name, core::Activity &act, core::VDtu &vdtu)
    : Env(std::move(name), act.thread(), vdtu, act.id()), act_(&act)
{
}

sim::Task
MuxEnv::waitImpl(dtu::EpId ep)
{
    co_await mux().waitForMsg(*act_, ep);
}

sim::Task
MuxEnv::translFix(dtu::VirtAddr va, bool write)
{
    co_await mux().translCall(*act_, va, write);
}

sim::Task
MuxEnv::yield()
{
    co_await mux().yieldCall(*act_);
}

sim::Task
MuxEnv::exit()
{
    co_await mux().exitCall(*act_);
}

//
// BareEnv
//

BareEnv::BareEnv(std::string name, tile::Thread &thread, dtu::Dtu &dtu,
                 dtu::ActId act)
    : Env(std::move(name), thread, dtu, act)
{
    dtu.setMsgNotify([this](dtu::EpId, dtu::ActId) {
        if (waiting_) {
            waiting_ = false;
            thread_->wake();
        }
    });
}

bool
BareEnv::anyUnread() const
{
    for (dtu::EpId ep : reps_)
        if (dtu_->unread(act_, ep) > 0)
            return true;
    return false;
}

sim::Task
BareEnv::waitImpl(dtu::EpId ep)
{
    if (ep != dtu::kInvalidEp) {
        if (dtu_->unread(act_, ep) > 0)
            co_return;
    } else if (anyUnread()) {
        co_return;
    }
    waiting_ = true;
    co_await thread_->externalWait();
}

sim::Task
BareEnv::waitEpsUntil(const std::vector<dtu::EpId> &eps,
                      sim::Tick deadline)
{
    sim::EventQueue &eq = dtu_->eventQueue();
    for (dtu::EpId ep : eps)
        if (dtu_->unread(act_, ep) > 0)
            co_return;
    if (eq.now() >= deadline)
        co_return;
    waiting_ = true;
    // Timeout alarm: wakes the thread at the deadline unless a
    // message notification got there first (the handle is inert after
    // it fires, and a stale alarm is just a spurious wakeup).
    eq.schedule(deadline - eq.now(), [this] {
        if (waiting_) {
            waiting_ = false;
            thread_->wake();
        }
    });
    co_await thread_->externalWait();
}

sim::Task
BareEnv::translFix(dtu::VirtAddr, bool)
{
    sim::panic("%s: TLB miss on a bare tile?", name_.c_str());
}

sim::Task
BareEnv::yield()
{
    // Bare tiles run a single context: yielding is a no-op.
    co_await thread_->compute(1);
}

sim::Task
BareEnv::exit()
{
    // The thread simply finishes after the body returns.
    co_return;
}

} // namespace m3v::os
