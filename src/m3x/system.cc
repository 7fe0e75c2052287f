#include "m3x/system.h"

#include <algorithm>

#include "sim/log.h"

namespace m3v::m3x {

using dtu::Endpoint;
using dtu::EpId;
using dtu::Error;
using os::splitPayload;
using os::withPayload;

namespace {

/** Tile-persistent endpoints. */
constexpr EpId kStubRep = 4;  // kernel -> stub requests
constexpr EpId kKernSep = 6;  // acts/stub -> kernel requests
/** Per-activity endpoint window. */
constexpr EpId kActEpBase = 8;
constexpr EpId kReplyRep = 8; // each activity's reply endpoint
/** Kernel-side endpoints. */
constexpr EpId kKernSyscallRep = 4;
constexpr EpId kKernStubReplyRep = 5;
constexpr EpId kKernFirstStubSep = 8;
constexpr EpId kKernTmpSep = 100;

} // namespace

/**
 * An M3x tile's DTU: holds only the current activity's endpoints and
 * rejects messages tagged for any other activity (the check that
 * forces co-located communication onto the slow path).
 */
class M3xSystem::M3xTileDtu : public dtu::Dtu
{
  public:
    M3xTileDtu(sim::EventQueue &eq, std::string name, noc::Noc &noc,
               noc::TileId tile, std::uint64_t freq_hz,
               std::function<dtu::ActId()> current)
        : Dtu(eq, std::move(name), noc, tile, freq_hz),
          current_(std::move(current))
    {
    }

  protected:
    Error
    checkIncoming(EpId, const dtu::Endpoint &,
                  const dtu::WireData &wire) const override
    {
        if (wire.dstAct != dtu::kInvalidAct &&
            wire.dstAct != current_())
            return Error::RecvGone;
        return Error::None;
    }

  private:
    std::function<dtu::ActId()> current_;
};

M3xAct::M3xAct(M3xSystem &sys, tile::Core &core, dtu::ActId id,
               unsigned tile_idx, std::string name)
    : sys_(sys), id_(id), tileIdx_(tile_idx), name_(std::move(name)),
      thread_(core, name_ + ".thread", id), nextEp_(kReplyRep + 1)
{
    savedEps_.resize(kEpsPerAct);
    savedEps_[0] = Endpoint::makeRecv(0, 4096, 8); // reply endpoint
}

M3xSystem::M3xSystem(sim::EventQueue &eq, M3xParams params)
    : eq_(eq), params_(std::move(params))
{
    slowPaths_ = eq.metrics().counter("m3x.kernel.slowpaths");
    fastPaths_ = eq.metrics().counter("m3x.kernel.fastpaths");
    switches_ = eq.metrics().counter("m3x.kernel.switches");
    trc_ = &eq.tracer();
    if (trc_->anyEnabled()) {
        trc_->setProcessName(kernelTile(), "m3x.kernel");
        trc_->setThreadName(kernelTile(), sim::kTraceTidMux,
                            "kernel");
    }
    noc_ = std::make_unique<noc::Noc>(eq, params_.noc);
    tiles_.resize(params_.userTiles);
    for (unsigned i = 0; i < params_.userTiles; i++) {
        auto tname = "m3x.tile" + std::to_string(i);
        tiles_[i].core = std::make_unique<tile::Core>(
            eq, tname + ".core", kCoreModel, i);
        tiles_[i].dtu = std::make_unique<M3xTileDtu>(
            eq, tname + ".dtu", *noc_, i, kCoreModel.freqHz,
            [this, i]() {
                const TileState &ts = tiles_[i];
                return ts.current && !ts.suspended
                           ? ts.current->id()
                           : dtu::kInvalidAct;
            });
    }
    kernCore_ = std::make_unique<tile::Core>(
        eq, "m3x.kern.core", kCoreModel, kernelTile());
    kernDtu_ = std::make_unique<dtu::Dtu>(eq, "m3x.kern.dtu", *noc_,
                                          kernelTile(),
                                          kCoreModel.freqHz);
    mem_ = std::make_unique<dtu::MemoryTile>(
        eq, "m3x.mem", *noc_, kernelTile() + 1, params_.dram);
    noc_->finalize();

    // Kernel endpoints.
    kernDtu_->configEp(kKernSyscallRep,
                       Endpoint::makeRecv(0, 4600, 64));
    kernDtu_->configEp(kKernStubReplyRep,
                       Endpoint::makeRecv(0, 64, 8));
    for (unsigned i = 0; i < params_.userTiles; i++) {
        kernDtu_->configEp(
            static_cast<EpId>(kKernFirstStubSep + i),
            Endpoint::makeSend(0, i, kStubRep, i, 2));
    }
    kernDtu_->setMsgNotify([this](EpId, dtu::ActId) {
        if (kernWaiting_) {
            kernWaiting_ = false;
            kernThread_->wake();
        }
    });

    // Tile-persistent endpoints + stub wiring.
    for (unsigned i = 0; i < params_.userTiles; i++) {
        TileState &ts = tiles_[i];
        ts.dtu->configEp(kStubRep, Endpoint::makeRecv(0, 64, 4));
        ts.dtu->configEp(
            kKernSep, Endpoint::makeSend(0, kernelTile(),
                                         kKernSyscallRep, i, 16,
                                         4600));
        ts.core->setIrqHandler(
            [this, i](tile::IrqKind) { stubIrq(i); });
        ts.dtu->setMsgNotify([this, i](EpId ep, dtu::ActId) {
            TileState &t = tiles_[i];
            if (ep == kStubRep) {
                t.core->raiseIrq(tile::IrqKind::CoreRequest);
                return;
            }
            if (t.current && !t.suspended &&
                t.current->state() != M3xAct::State::Dead)
                t.current->thread_.wake();
        });
    }

    // The kernel main loop.
    kernThread_ = std::make_unique<tile::Thread>(*kernCore_,
                                                 "m3x.kern.thread", 0);
    kernThread_->start(kernelMain());
    kernCore_->dispatch(kernThread_.get());
}

M3xSystem::~M3xSystem() = default;

M3xAct *
M3xSystem::createAct(unsigned tile_idx, const std::string &name)
{
    TileState &ts = tiles_.at(tile_idx);
    auto act = std::make_unique<M3xAct>(*this, *ts.core, nextAct_++,
                                        tile_idx, name);
    M3xAct *ptr = act.get();
    ts.acts.push_back(std::move(act));
    actIndex_[ptr->id()] = ptr;
    return ptr;
}

M3xChan
M3xSystem::makeChannel(M3xAct *owner, std::size_t slot_size,
                       std::size_t slots)
{
    EpId rep = owner->nextEp_++;
    if (rep >= kActEpBase + kEpsPerAct)
        sim::fatal("m3x: activity %s out of endpoints",
                   owner->name().c_str());
    owner->savedEps_.at(rep - kActEpBase) =
        Endpoint::makeRecv(0, slot_size, slots);
    return M3xChan{owner, rep};
}

EpId
M3xSystem::addSender(const M3xChan &chan, M3xAct *sender,
                     std::uint32_t credits)
{
    EpId sep = sender->nextEp_++;
    if (sep >= kActEpBase + kEpsPerAct)
        sim::fatal("m3x: activity %s out of endpoints",
                   sender->name().c_str());
    const dtu::Endpoint &rep_ep =
        chan.owner->savedEps_.at(chan.rep - kActEpBase);
    dtu::Endpoint ep = Endpoint::makeSend(
        0, chan.owner->tileIdx(), chan.rep, sender->id(), credits,
        rep_ep.recv.slotSize);
    ep.send.destAct = chan.owner->id();
    sender->savedEps_.at(sep - kActEpBase) = ep;
    return sep;
}

void
M3xSystem::installActEps(unsigned tile_idx, M3xAct *act)
{
    TileState &ts = tiles_[tile_idx];
    for (EpId j = 0; j < kEpsPerAct; j++)
        ts.dtu->configEp(kActEpBase + j, act->savedEps_[j]);
}

void
M3xSystem::start(M3xAct *act, sim::Task body)
{
    act->thread_.start(std::move(body));
    TileState &ts = tiles_[act->tileIdx()];
    if (!ts.current) {
        // Boot: the first activity per tile starts installed.
        ts.current = act;
        act->state_ = M3xAct::State::Current;
        installActEps(act->tileIdx(), act);
        ts.core->dispatch(&act->thread_);
    } else {
        act->state_ = M3xAct::State::Ready;
    }
}

//
// Tile stub.
//

void
M3xSystem::stubIrq(unsigned tile_idx)
{
    TileState &ts = tiles_[tile_idx];
    tile::Core &core = *ts.core;
    core.kernelWork(kStubEntryCost, [this, &ts, &core]() {
        int slot = ts.dtu->fetch(0, kStubRep);
        if (slot < 0) {
            // Spurious (e.g. raced with an earlier handler).
            if (ts.current && !ts.suspended &&
                ts.current->state() != M3xAct::State::Dead) {
                core.kernelExitTo(&ts.current->thread_);
            } else {
                core.kernelExitIdle();
            }
            return;
        }
        StubReq req = splitPayload<StubReq>(
            ts.dtu->slotMsg(kStubRep, slot).payload, nullptr);
        switch (req.op) {
          case StubReq::Op::Save: {
            ts.suspended = true;
            core.kernelWork(kStubSaveCost, [this, &ts, &core, slot]() {
                ts.dtu->cmdReply(0, kStubRep, slot, 0, Bytes{1},
                                 [](Error) {});
                core.kernelExitIdle();
            });
            break;
          }
          case StubReq::Op::Restore: {
            M3xAct *act = actById(req.act);
            core.kernelWork(kStubRestoreCost,
                            [this, &ts, &core, act, slot]() {
                ts.dtu->cmdReply(0, kStubRep, slot, 0, Bytes{1},
                                 [](Error) {});
                ts.current = act;
                ts.suspended = false;
                act->state_ = M3xAct::State::Current;
                core.kernelExitTo(&act->thread_);
            });
            break;
          }
        }
    });
}

//
// Activity-side operations.
//

M3xAct *
M3xSystem::actById(dtu::ActId id)
{
    auto it = actIndex_.find(id);
    return it == actIndex_.end() ? nullptr : it->second;
}

sim::Task
M3xSystem::actSend(M3xAct &self, EpId sep, Bytes payload, Error *err)
{
    auto &t = self.thread_;
    const auto &m = t.core().model();
    co_await t.compute(4 * m.mmioWriteCycles + m.mmioReadCycles);
    Error e = Error::Aborted;
    bool done = false;
    t.clearWake();
    tiles_[self.tileIdx()].dtu->cmdSend(0, sep, 0, std::move(payload),
                                        dtu::kInvalidEp,
                                        [&](Error res) {
                                            e = res;
                                            done = true;
                                            t.wake();
                                        });
    while (!done)
        co_await t.externalWait();
    *err = e;
}

sim::Task
M3xSystem::actWaitMsg(M3xAct &self, EpId rep, int *slot)
{
    auto &t = self.thread_;
    const auto &m = t.core().model();
    dtu::Dtu &d = *tiles_[self.tileIdx()].dtu;
    bool notified = false;
    for (;;) {
        co_await t.compute(m.mmioWriteCycles + m.mmioReadCycles);
        int s = d.fetch(0, rep);
        if (s >= 0) {
            if (d.slotMsg(rep, s).srcTile == kernelTile())
                self.fetched_++;
            *slot = s;
            co_return;
        }
        if (!notified) {
            // Nothing here: notify the kernel that we block. The
            // send consumes wake latches, so loop back and re-fetch
            // before actually sleeping (a delivery may race with the
            // notification; the kernel spots the stale Blocked via
            // the fetch counters).
            notified = true;
            KernelReq req;
            req.op = KernelReq::Op::Blocked;
            req.srcAct = self.id();
            req.fetched = self.fetched_;
            Error err = Error::None;
            co_await actSend(self, kKernSep, os::podBytes(req),
                             &err);
            continue;
        }
        notified = false;
        co_await t.externalWait();
    }
}

sim::Task
M3xSystem::rpc(M3xAct &self, const M3xChan &chan, EpId direct_sep,
               Bytes req, Bytes *resp)
{
    MsgHdr hdr;
    hdr.replyTile = self.tileIdx();
    hdr.replyAct = self.id();
    hdr.replyEp = kReplyRep;
    hdr.label = self.id();
    Bytes payload = withPayload(hdr, req);

    // Fast path first: works iff the recipient is currently running.
    Error err = Error::Aborted;
    co_await actSend(self, direct_sep, payload, &err);
    if (err == Error::None) {
        fastPaths_->inc();
        trc_->instant(sim::TraceCat::M3x, kernelTile(),
                      sim::kTraceTidMux, "fast_path");
    } else if (err == Error::RecvGone || err == Error::NoCredits) {
        // Slow path: forward through the kernel (section 2.2).
        slowPaths_->inc();
        trc_->instant(sim::TraceCat::M3x, kernelTile(),
                      sim::kTraceTidMux, "slow_path");
        KernelReq kr;
        kr.op = KernelReq::Op::Forward;
        kr.srcAct = self.id();
        kr.dstAct = chan.owner->id();
        kr.dstEp = chan.rep;
        kr.len = static_cast<std::uint32_t>(payload.size());
        co_await actSend(self, kKernSep, withPayload(kr, payload),
                         &err);
        if (err != Error::None)
            sim::panic("m3x: forward to kernel failed: %s",
                       dtu::errorName(err));
    } else {
        sim::panic("m3x: send failed: %s", dtu::errorName(err));
    }

    // Await the reply on our reply endpoint.
    int slot = -1;
    co_await actWaitMsg(self, kReplyRep, &slot);
    dtu::Dtu &d = *tiles_[self.tileIdx()].dtu;
    const dtu::Message &m = d.slotMsg(kReplyRep, slot);
    co_await self.thread_.compute(m.payload.size() / 8 + 2);
    splitPayload<MsgHdr>(m.payload, resp);
    co_await self.thread_.compute(
        self.thread_.core().model().mmioWriteCycles);
    d.ack(0, kReplyRep, slot);
}

sim::Task
M3xSystem::serveNext(M3xAct &self, const M3xChan &chan, Bytes *req,
                     MsgHdr *reply_to)
{
    int slot = -1;
    co_await actWaitMsg(self, chan.rep, &slot);
    dtu::Dtu &d = *tiles_[self.tileIdx()].dtu;
    const dtu::Message &m = d.slotMsg(chan.rep, slot);
    co_await self.thread_.compute(m.payload.size() / 8 + 2);
    *reply_to = splitPayload<MsgHdr>(m.payload, req);
    co_await self.thread_.compute(
        self.thread_.core().model().mmioWriteCycles);
    d.ack(0, chan.rep, slot);
}

sim::Task
M3xSystem::replyTo(M3xAct &self, const MsgHdr &reply_to, Bytes resp)
{
    // Replies carry an empty header (no further replies expected).
    Bytes payload = withPayload(MsgHdr{}, resp);

    // A direct reply would need the requester to still be running;
    // on a shared tile it never is, so go through the kernel.
    // (Direct delivery is attempted by the kernel if possible.)
    slowPaths_->inc();
    KernelReq kr;
    kr.op = KernelReq::Op::Forward;
    kr.srcAct = self.id();
    kr.dstAct = reply_to.replyAct;
    kr.dstEp = reply_to.replyEp;
    kr.len = static_cast<std::uint32_t>(payload.size());
    Error err = Error::None;
    co_await actSend(self, kKernSep, withPayload(kr, payload), &err);
    if (err != Error::None)
        sim::panic("m3x: reply forward failed: %s",
                   dtu::errorName(err));
}

sim::Task
M3xSystem::exit(M3xAct &self)
{
    KernelReq kr;
    kr.op = KernelReq::Op::Exited;
    kr.srcAct = self.id();
    Error err = Error::None;
    co_await actSend(self, kKernSep, os::podBytes(kr), &err);
    self.state_ = M3xAct::State::Dead;
    if (self.onExit)
        eq_.schedule(0, [&self]() { self.onExit(); });
    co_await self.thread_.externalWait(); // never resumed
    sim::panic("m3x: exited activity resumed");
}

//
// Kernel.
//

sim::Task
M3xSystem::kernelMain()
{
    auto &t = *kernThread_;
    const auto &m = kernCore_->model();
    for (;;) {
        co_await t.compute(m.mmioWriteCycles + m.mmioReadCycles);
        int slot = kernDtu_->fetch(0, kKernSyscallRep);
        if (slot < 0) {
            kernWaiting_ = true;
            co_await t.externalWait();
            continue;
        }
        // Decode in place: the ack below frees the slot.
        Bytes payload;
        KernelReq req = splitPayload<KernelReq>(
            kernDtu_->slotMsg(kKernSyscallRep, slot).payload, &payload);
        co_await t.compute(m.mmioWriteCycles);
        kernDtu_->ack(0, kKernSyscallRep, slot);
        co_await t.compute(kKernelHandlerCost);

        switch (req.op) {
          case KernelReq::Op::Forward:
            co_await handleForward(req, std::move(payload));
            break;
          case KernelReq::Op::Blocked:
            co_await handleBlocked(req);
            break;
          case KernelReq::Op::Exited: {
            M3xAct *act = actById(req.srcAct);
            if (act) {
                TileState &ts = tiles_[act->tileIdx()];
                if (ts.current == act)
                    ts.current = nullptr;
                co_await maybeResched(ts);
            }
            break;
          }
        }
    }
}

sim::Task
M3xSystem::handleForward(const KernelReq &req, Bytes payload)
{
    M3xAct *dst = actById(req.dstAct);
    if (!dst || dst->state_ == M3xAct::State::Dead)
        co_return;
    dst->pending_.push_back(
        M3xAct::PendingMsg{req.dstEp, std::move(payload)});
    if (dst->state_ == M3xAct::State::Blocked)
        dst->state_ = M3xAct::State::Ready;

    TileState &ts = tiles_[dst->tileIdx()];
    if (ts.current != dst)
        co_await switchTile(ts, dst);
    co_await deliverPending(dst);
}

sim::Task
M3xSystem::handleBlocked(const KernelReq &req)
{
    M3xAct *act = actById(req.srcAct);
    if (!act)
        co_return;
    // Stale notification: messages were delivered after the activity
    // sampled its fetch counter; it has (or will get) work.
    if (act->delivered_ > req.fetched)
        co_return;
    act->state_ = M3xAct::State::Blocked;
    TileState &ts = tiles_[act->tileIdx()];
    if (ts.current == act)
        co_await maybeResched(ts);
}

M3xAct *
M3xSystem::pickNext(TileState &ts)
{
    for (auto &a : ts.acts) {
        if (a.get() == ts.current)
            continue;
        if (a->state_ == M3xAct::State::Ready ||
            (!a->pending_.empty() &&
             a->state_ != M3xAct::State::Dead))
            return a.get();
    }
    return nullptr;
}

sim::Task
M3xSystem::maybeResched(TileState &ts)
{
    M3xAct *next = pickNext(ts);
    if (!next)
        co_return;
    co_await switchTile(ts, next);
    co_await deliverPending(next);
}

sim::Task
M3xSystem::switchTile(TileState &ts, M3xAct *next)
{
    if (ts.current == next)
        co_return;
    switches_->inc();
    trc_->begin(sim::TraceCat::M3x, kernelTile(), sim::kTraceTidMux,
                "remote_switch");
    co_await kernThread_->compute(kKernelSwitchCost);

    if (ts.current) {
        M3xAct *old = ts.current;
        // 1. Ask the stub to suspend the current activity.
        StubReq sr;
        sr.op = StubReq::Op::Save;
        co_await stubRequest(ts, sr);
        // 2. Save its endpoint state over the NoC.
        co_await extEps(ts, false, old);
        if (old->state_ == M3xAct::State::Current)
            old->state_ = M3xAct::State::Ready;
        ts.current = nullptr;
    }

    // 3. Restore the next activity's endpoints.
    co_await extEps(ts, true, next);
    // 4. Resume the tile with the next activity.
    StubReq sr;
    sr.op = StubReq::Op::Restore;
    sr.act = next->id();
    co_await stubRequest(ts, sr);
    // (ts.current / state are updated by the stub at restore time.)
    trc_->end(sim::TraceCat::M3x, kernelTile(), sim::kTraceTidMux);
}

sim::Task
M3xSystem::stubRequest(TileState &ts, StubReq req)
{
    auto &t = *kernThread_;
    const auto &m = kernCore_->model();
    co_await t.compute(4 * m.mmioWriteCycles + m.mmioReadCycles);
    unsigned tile_idx =
        static_cast<unsigned>(ts.core->tileId());
    Error err = Error::Aborted;
    bool done = false;
    t.clearWake();
    kernDtu_->cmdSend(
        0, static_cast<EpId>(kKernFirstStubSep + tile_idx), 0,
        withPayload(req, {}), kKernStubReplyRep, [&](Error e) {
            err = e;
            done = true;
            t.wake();
        });
    while (!done)
        co_await t.externalWait();
    if (err != Error::None)
        sim::panic("m3x: stub request failed: %s",
                   dtu::errorName(err));

    // Await the stub's completion reply.
    for (;;) {
        co_await t.compute(m.mmioWriteCycles + m.mmioReadCycles);
        int slot = kernDtu_->fetch(0, kKernStubReplyRep);
        if (slot >= 0) {
            co_await t.compute(m.mmioWriteCycles);
            kernDtu_->ack(0, kKernStubReplyRep, slot);
            co_return;
        }
        kernWaiting_ = true;
        co_await t.externalWait();
    }
}

sim::Task
M3xSystem::extEps(TileState &ts, bool write, M3xAct *act)
{
    auto &t = *kernThread_;
    const auto &m = kernCore_->model();
    co_await t.compute(2 * m.mmioWriteCycles);
    Error err = Error::Aborted;
    bool done = false;
    t.clearWake();
    noc::TileId tile = ts.core->tileId();
    if (write) {
        kernDtu_->extRequest(
            tile, dtu::ExtOp::WriteEps, kActEpBase, act->savedEps_,
            kEpsPerAct,
            [&](Error e, std::vector<Endpoint>) {
                err = e;
                done = true;
                t.wake();
            });
    } else {
        kernDtu_->extRequest(
            tile, dtu::ExtOp::ReadEps, kActEpBase, {},
            kEpsPerAct,
            [&](Error e, std::vector<Endpoint> eps) {
                err = e;
                act->savedEps_ = std::move(eps);
                done = true;
                t.wake();
            });
    }
    while (!done)
        co_await t.externalWait();
    if (err != Error::None)
        sim::panic("m3x: EP save/restore failed: %s",
                   dtu::errorName(err));
}

sim::Task
M3xSystem::deliverPending(M3xAct *act)
{
    while (!act->pending_.empty()) {
        auto msg = std::move(act->pending_.front());
        act->pending_.pop_front();
        Error err = Error::Aborted;
        co_await kernelSend(act->tileIdx(), msg.ep,
                            std::move(msg.payload), &err);
        if (err != Error::None)
            sim::warn("m3x: delivery to %s failed: %s",
                      act->name().c_str(), dtu::errorName(err));
        act->delivered_++;
    }
}

sim::Task
M3xSystem::kernelSend(noc::TileId tile, EpId ep, Bytes payload,
                      Error *err)
{
    auto &t = *kernThread_;
    const auto &m = kernCore_->model();
    co_await t.compute(6 * m.mmioWriteCycles + m.mmioReadCycles);
    kernDtu_->configEp(kKernTmpSep,
                       Endpoint::makeSend(0, tile, ep, 0, 1, 4600));
    Error e = Error::Aborted;
    bool done = false;
    t.clearWake();
    kernDtu_->cmdSend(0, kKernTmpSep, 0, std::move(payload),
                      dtu::kInvalidEp, [&](Error res) {
                          e = res;
                          done = true;
                          t.wake();
                      });
    while (!done)
        co_await t.externalWait();
    *err = e;
}

} // namespace m3v::m3x
