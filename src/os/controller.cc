#include "os/controller.h"

#include <algorithm>
#include <utility>

#include "sim/log.h"

namespace m3v::os {

using dtu::ActId;
using dtu::EpId;
using dtu::Error;

namespace {

/** Bound on the stash of out-of-order replies / dedup memory. */
constexpr std::size_t kStashCap = 64;

} // namespace

Controller::Controller(BareEnv &env, CapMgr &caps, const DtuMap &dtus,
                       ControllerParams params, ShardMap shard_map,
                       unsigned shard)
    : env_(&env), caps_(&caps), dtus_(&dtus), params_(params),
      shardMap_(shard_map), shard_(shard), admission_(params.admission)
{
    sim::MetricsRegistry &m = env.dtu().eventQueue().metrics();
    const std::string p = env.name() + ".kernel.";
    syscalls_ = m.counter(p + "syscalls");
    reaps_ = m.counter(p + "reaps");
    reclaimed_ = m.counter(p + "credits_reclaimed");
    xsent_ = m.counter(p + "xshard_sent");
    xacked_ = m.counter(p + "xshard_acked");
    xtimeouts_ = m.counter(p + "xshard_timeouts");
    xhandled_ = m.counter(p + "xshard_handled");
    xonewaySent_ = m.counter(p + "oneway_sent");
    xonewayHandled_ = m.counter(p + "oneway_handled");
    xonewayDropped_ = m.counter(p + "oneway_dropped");

    // Main-loop poll list, in priority order: cross-shard replies
    // complete a peer's blocked call, cross-shard requests complete
    // OUR callers' in-flight syscalls — both beat admitting new
    // syscalls. recvAny() polls in list order, so under syscall
    // saturation this keeps the peer protocol's RTT bounded by one
    // service time instead of the whole syscall backlog. A single
    // controller has no peers: it polls its syscall EP alone.
    if (shardMap_.shards > 1)
        pollEps_ = {kCtrlReplyRep, kCtrlReqRep};
    pollEps_.push_back(kSyscallRep);
    for (EpId ep : pollEps_)
        env.addRecvEp(ep);
}

CapSel
Controller::grantMem(ActId act, MemObj mem)
{
    auto obj = std::make_shared<KObject>();
    obj->kind = CapKind::MemGate;
    obj->mem = mem;
    return caps_->tableOf(act).insertRoot(std::move(obj));
}

CapSel
Controller::grantActivity(ActId holder, ActObj a)
{
    auto obj = std::make_shared<KObject>();
    obj->kind = CapKind::Activity;
    obj->act = a;
    return caps_->tableOf(holder).insertRoot(std::move(obj));
}

CapSel
Controller::grantRgate(ActId act, RgateObj r)
{
    auto obj = std::make_shared<KObject>();
    obj->kind = CapKind::RecvGate;
    obj->rgate = r;
    return caps_->tableOf(act).insertRoot(std::move(obj));
}

CapSel
Controller::grantSgate(ActId act, SgateObj s)
{
    auto obj = std::make_shared<KObject>();
    obj->kind = CapKind::SendGate;
    obj->sgate = s;
    return caps_->tableOf(act).insertRoot(std::move(obj));
}

void
Controller::registerActivity(ActId id, noc::TileId tile)
{
    if (id >= actTiles_.size())
        actTiles_.resize(id + 1, kNoTile);
    actTiles_[id] = tile;
}

noc::TileId
Controller::actTile(ActId id) const
{
    return id < actTiles_.size() ? actTiles_[id] : kNoTile;
}

ActId
Controller::allocActId()
{
    if (!freeActs_.empty()) {
        ActId id = freeActs_.back();
        freeActs_.pop_back();
        return id;
    }
    std::uint32_t id =
        kStormActBase + nextLocalAct_ * shardMap_.shards + shard_;
    nextLocalAct_++;
    if (id >= dtu::kTileMuxAct)
        sim::panic("controller %u: out of activity ids", shard_);
    return static_cast<ActId>(id);
}

void
Controller::reapActivity(ActId id)
{
    reaps_->inc();

    // Endpoint sweep on the activity's home tile: reclaim the credits
    // of messages parked in its receive endpoints (the senders paid
    // them and would otherwise be wedged forever), then invalidate.
    noc::TileId tile = actTile(id);
    if (tile != kNoTile) {
        if (dtu::Dtu *d = dtus_->get(tile)) {
            for (EpId i = 0; i < dtu::kNumEps; i++) {
                if (d->ep(i).act != id)
                    continue;
                reclaimed_->inc(d->reclaimCredits(i));
                d->invalidateEp(i);
            }
        }
        actTiles_[id] = kNoTile;
    }

    // Obtains still in flight on behalf of this activity must not
    // materialize into a recreated table: kill them.
    for (PendingObtain &p : pendingObtains_)
        if (p.act == id)
            p.killed = true;

    // Revoke the whole capability table. The derivation tree may
    // reach into other activities' tables (children of the victim's
    // caps die with it); invalidate whatever they were activated
    // into, wherever that is. Cross-shard edges are severed with
    // one-way notifications: peers revoke remote children and drop
    // the share records our caps held on their parents.
    if (caps_->hasTable(id)) {
        std::vector<RemoteRef> rchildren;
        std::vector<std::pair<RemoteRef, RemoteRef>> rparents;
        caps_->dropTable(id, [&](Capability &cap) {
            if (cap.activated) {
                if (dtu::Dtu *d = dtus_->get(cap.actTile)) {
                    reclaimed_->inc(d->reclaimCredits(cap.actEp));
                    d->invalidateEp(cap.actEp);
                }
            }
            for (const RemoteRef &r : cap.remoteChildren)
                rchildren.push_back(r);
            if (cap.hasRemoteParent)
                rparents.emplace_back(
                    cap.remoteParent,
                    RemoteRef{static_cast<std::uint8_t>(shard_),
                              cap.owner(), cap.sel()});
        });
        for (const RemoteRef &r : rchildren) {
            CtrlReq req;
            req.op = CtrlReq::Op::Revoke;
            req.act = r.act;
            req.sel = r.sel;
            ctrlOneway(r.shard, req);
        }
        for (auto &[parent, child] : rparents) {
            CtrlReq req;
            req.op = CtrlReq::Op::DropShare;
            req.act = parent.act;
            req.sel = parent.sel;
            req.act2 = child.act;
            req.sel2 = child.sel;
            ctrlOneway(parent.shard, req);
        }
    }

    // Return storm-allocated ids of this shard to the free list once
    // the table is fully gone (a concurrent revoke plan may still own
    // marked caps in it, in which case the id stays burned).
    if (id >= kStormActBase && !caps_->hasTable(id) &&
        (static_cast<unsigned>(id - kStormActBase) %
         shardMap_.shards) == shard_)
        freeActs_.push_back(id);
}

void
Controller::setSidecallChannel(noc::TileId tile, EpId sep)
{
    if (tile >= sidecallSeps_.size())
        sidecallSeps_.resize(tile + 1, dtu::kInvalidEp);
    sidecallSeps_[tile] = sep;
}

void
Controller::setSidecallReplyEp(EpId rep)
{
    sidecallRep_ = rep;
    env_->addRecvEp(rep);
}

void
Controller::setPeerChannel(unsigned shard, EpId sep)
{
    if (shard >= peerSeps_.size())
        peerSeps_.resize(shard + 1, dtu::kInvalidEp);
    peerSeps_[shard] = sep;
}

sim::Task
Controller::sidecall(noc::TileId tile, SidecallReq req,
                     SidecallResp *resp)
{
    EpId sep = tile < sidecallSeps_.size() ? sidecallSeps_[tile]
                                           : dtu::kInvalidEp;
    if (sep == dtu::kInvalidEp || sidecallRep_ == dtu::kInvalidEp)
        sim::panic("controller: no sidecall channel to tile %u",
                   tile);
    Bytes respb;
    Error err = Error::Aborted;
    co_await env_->call(sep, sidecallRep_, podBytes(req), &respb,
                        &err);
    if (err != Error::None)
        sim::panic("controller: sidecall to tile %u failed: %s", tile,
                   dtu::errorName(err));
    *resp = podFrom<SidecallResp>(respb);
}

dtu::Endpoint
Controller::endpointFor(const KObject &obj, ActId owner)
{
    switch (obj.kind) {
      case CapKind::MemGate:
        return dtu::Endpoint::makeMem(owner, obj.mem.tile,
                                      obj.mem.addr, obj.mem.size,
                                      obj.mem.perms);
      case CapKind::SendGate:
        return dtu::Endpoint::makeSend(
            owner, obj.sgate.target.tile, obj.sgate.target.ep,
            obj.sgate.label, obj.sgate.credits);
      case CapKind::RecvGate:
        return dtu::Endpoint::makeRecv(owner, obj.rgate.slotSize,
                                       obj.rgate.slots);
      case CapKind::Activity:
        break;
    }
    sim::panic("Controller: cannot activate this capability kind");
}

sim::Task
Controller::configRemoteEp(noc::TileId tile, EpId ep,
                           dtu::Endpoint ndep, Error *err)
{
    auto &thread = env_->thread();
    co_await thread.compute(
        thread.core().model().mmioWriteCycles * 4);
    if (tile == env_->tileId()) {
        env_->dtu().configEp(ep, std::move(ndep));
        if (err)
            *err = Error::None;
        co_return;
    }
    bool done = false;
    thread.clearWake();
    std::vector<dtu::Endpoint> eps;
    eps.push_back(std::move(ndep));
    env_->dtu().extRequest(tile, dtu::ExtOp::SetEp, ep,
                           std::move(eps), 1,
                           [&](Error e, std::vector<dtu::Endpoint>) {
                               if (err)
                                   *err = e;
                               done = true;
                               thread.wake();
                           });
    while (!done)
        co_await thread.externalWait();
}

sim::Task
Controller::invalidateRemoteEp(noc::TileId tile, EpId ep)
{
    auto &thread = env_->thread();
    co_await thread.compute(
        thread.core().model().mmioWriteCycles * 2);
    if (tile == env_->tileId()) {
        env_->dtu().invalidateEp(ep);
        co_return;
    }
    bool done = false;
    thread.clearWake();
    env_->dtu().extRequest(tile, dtu::ExtOp::InvEp, ep, {}, 1,
                           [&](Error, std::vector<dtu::Endpoint>) {
                               done = true;
                               thread.wake();
                           });
    while (!done)
        co_await thread.externalWait();
}

//
// Cross-shard protocol plumbing.
//

std::uint64_t
Controller::makeNonce()
{
    return (static_cast<std::uint64_t>(shard_ + 1) << 48) |
           ++nonceCtr_;
}

bool
Controller::takeStash(std::uint64_t nonce, CtrlResp *resp)
{
    for (std::size_t i = 0; i < replyStash_.size(); i++) {
        if (replyStash_[i].first == nonce) {
            *resp = podFrom<CtrlResp>(replyStash_[i].second);
            replyStash_.erase(replyStash_.begin() + i);
            return true;
        }
    }
    return false;
}

void
Controller::remember(std::uint64_t nonce, const CtrlResp &resp)
{
    recent_.emplace_back(nonce, resp);
    if (recent_.size() > kStashCap)
        recent_.erase(recent_.begin());
}

const CtrlResp *
Controller::recallDup(std::uint64_t nonce) const
{
    for (const auto &[n, resp] : recent_)
        if (n == nonce)
            return &resp;
    return nullptr;
}

Controller::PendingObtain
Controller::takePendingObtain(ActId act, CapSel sel)
{
    for (std::size_t i = 0; i < pendingObtains_.size(); i++) {
        if (pendingObtains_[i].act == act &&
            pendingObtains_[i].sel == sel) {
            PendingObtain p = pendingObtains_[i];
            pendingObtains_.erase(pendingObtains_.begin() + i);
            return p;
        }
    }
    return PendingObtain{};
}

void
Controller::ctrlOneway(unsigned shard, CtrlReq req)
{
    EpId sep = shard < peerSeps_.size() ? peerSeps_[shard]
                                        : dtu::kInvalidEp;
    if (sep == dtu::kInvalidEp)
        sim::panic("controller %u: no channel to shard %u", shard_,
                   shard);
    req.srcShard = shard_;
    req.nonce = makeNonce();
    sim::Counter *sent = xonewaySent_;
    sim::Counter *dropped = xonewayDropped_;
    env_->dtu().cmdSend(env_->actId(), sep, env_->msgBuf(),
                        podBytes(req), dtu::kInvalidEp,
                        [sent, dropped](Error e) {
                            if (e == Error::None)
                                sent->inc();
                            else
                                dropped->inc();
                        },
                        req.nonce);
}

sim::Task
Controller::ctrlCall(unsigned shard, CtrlReq req, CtrlResp *resp,
                     bool *ok)
{
    *ok = false;
    EpId sep = shard < peerSeps_.size() ? peerSeps_[shard]
                                        : dtu::kInvalidEp;
    if (sep == dtu::kInvalidEp)
        sim::panic("controller %u: no channel to shard %u", shard_,
                   shard);
    req.srcShard = shard_;
    req.flags |= CtrlReq::kWantReply;
    req.nonce = makeNonce();
    xsent_->inc();

    auto &thread = env_->thread();
    sim::EventQueue &eq = env_->dtu().eventQueue();
    const std::vector<EpId> wait_eps{kCtrlReplyRep, kCtrlReqRep};

    for (unsigned attempt = 0; attempt < kXshardRetries; attempt++) {
        Error serr = Error::Aborted;
        co_await env_->send(sep, podBytes(req), kCtrlReplyRep, &serr,
                            req.nonce);
        if (serr != Error::None) {
            // Out of credits (peer overloaded): back off and retry —
            // the same nonce keeps the retransmission idempotent.
            co_await thread.compute(kDispatchCost);
            continue;
        }
        sim::Tick deadline = eq.now() + kXshardTimeout;
        for (;;) {
            // A nested service loop may have drained our reply while
            // this call was suspended.
            if (takeStash(req.nonce, resp)) {
                xacked_->inc();
                *ok = true;
                co_return;
            }
            co_await thread.compute(
                thread.core().model().mmioReadCycles * 2);
            int rslot = env_->dtu().fetch(env_->actId(), kCtrlReplyRep);
            if (rslot >= 0) {
                const dtu::Message &m = env_->msgAt(kCtrlReplyRep, rslot);
                if (m.nonce == req.nonce) {
                    *resp = podFrom<CtrlResp>(m.payload);
                    co_await env_->ackMsg(kCtrlReplyRep, rslot);
                    xacked_->inc();
                    *ok = true;
                    co_return;
                }
                // Another outstanding call's reply (ours is nested
                // below it): stash it for its owner and keep polling.
                replyStash_.emplace_back(m.nonce, m.payload);
                if (replyStash_.size() > kStashCap)
                    replyStash_.erase(replyStash_.begin());
                co_await env_->ackMsg(kCtrlReplyRep, rslot);
                continue;
            }
            // Service incoming peer requests while waiting: two
            // shards calling into each other must not deadlock.
            int qslot = env_->dtu().fetch(env_->actId(), kCtrlReqRep);
            if (qslot >= 0) {
                co_await handleCtrlReq(qslot);
                continue;
            }
            if (eq.now() >= deadline)
                break;
            co_await env_->waitEpsUntil(wait_eps, deadline);
        }
    }
    xtimeouts_->inc();
}

sim::Task
Controller::handleCtrlReq(int slot)
{
    auto &thread = env_->thread();
    const dtu::Message &m = env_->msgAt(kCtrlReqRep, slot);
    CtrlReq req = podFrom<CtrlReq>(m.payload);
    const bool want_reply = (req.flags & CtrlReq::kWantReply) != 0;

    if (want_reply) {
        // Retransmission of a request we already executed: replay the
        // remembered reply without re-executing (idempotence on retx).
        if (const CtrlResp *dup = recallDup(req.nonce)) {
            xhandled_->inc();
            Error rerr = Error::None;
            co_await env_->reply(kCtrlReqRep, slot, podBytes(*dup), &rerr);
            co_return;
        }
    }

    co_await thread.compute(kDispatchCost);
    CtrlResp resp;
    switch (req.op) {
      case CtrlReq::Op::Delegate: {
        co_await thread.compute(kCapCost);
        CapTable &t = caps_->tableOf(req.act);
        CapSel sel = t.insertRoot(std::make_shared<KObject>(req.obj));
        Capability *c = t.get(sel);
        c->hasRemoteParent = true;
        c->remoteParent =
            RemoteRef{static_cast<std::uint8_t>(req.srcShard),
                      req.act2, req.sel2};
        resp.val = sel;
        break;
      }

      case CtrlReq::Op::Obtain: {
        co_await thread.compute(kCapCost);
        CapTable *t = caps_->tableIfExists(req.act);
        Capability *c = t ? t->get(req.sel) : nullptr;
        if (!c || c->revoking) {
            resp.err = Error::InvalidEp;
            break;
        }
        c->remoteChildren.push_back(
            RemoteRef{static_cast<std::uint8_t>(req.srcShard),
                      req.act2, req.sel2});
        resp.obj = c->obj();
        resp.val = 1;
        break;
      }

      case CtrlReq::Op::Revoke: {
        std::size_t removed = 0;
        co_await revokeTree(
            req.act, req.sel, (req.flags & CtrlReq::kKeepRoot) != 0,
            RemoteRef{static_cast<std::uint8_t>(req.srcShard),
                      req.act2, req.sel2},
            &removed);
        resp.val = removed;
        break;
      }

      case CtrlReq::Op::CreateAct: {
        co_await thread.compute(kCapCost);
        ActId id = allocActId();
        registerActivity(id, static_cast<noc::TileId>(req.tile));
        caps_->tableOf(id);
        resp.val = id;
        break;
      }

      case CtrlReq::Op::DropShare: {
        co_await thread.compute(kCapCost);
        CapTable *t = caps_->tableIfExists(req.act);
        if (Capability *c = t ? t->get(req.sel) : nullptr)
            c->dropRemoteChild(
                RemoteRef{static_cast<std::uint8_t>(req.srcShard),
                          req.act2, req.sel2});
        break;
      }

      case CtrlReq::Op::DropTable: {
        co_await thread.compute(kCapCost);
        reapActivity(req.act);
        resp.val = 1;
        break;
      }

      case CtrlReq::Op::MapFor: {
        co_await thread.compute(kCapCost);
        noc::TileId tile = actTile(req.act);
        if (tile == kNoTile) {
            resp.err = Error::InvalidEp;
            break;
        }
        SidecallReq side;
        side.op = SidecallReq::Op::MapPage;
        side.act = req.act;
        side.virt = req.a;
        side.phys = req.b;
        side.perms = static_cast<std::uint32_t>(req.c);
        SidecallResp sresp;
        co_await sidecall(tile, side, &sresp);
        resp.err = sresp.err;
        break;
      }
    }

    if (want_reply) {
        remember(req.nonce, resp);
        xhandled_->inc();
        Error rerr = Error::None;
        co_await env_->reply(kCtrlReqRep, slot, podBytes(resp), &rerr);
        if (rerr != Error::None)
            sim::warn("controller %u: ctrl reply to shard %u failed: "
                      "%s",
                      shard_, req.srcShard, dtu::errorName(rerr));
    } else {
        xonewayHandled_->inc();
        co_await env_->ackMsg(kCtrlReqRep, slot);
    }
}

sim::Task
Controller::revokeTree(ActId act, CapSel sel, bool keep_root,
                       const RemoteRef &requester,
                       std::size_t *removed)
{
    auto &thread = env_->thread();

    // A revoke can target the reserved destination of an obtain whose
    // cap is still in flight from the source shard: kill the pending
    // obtain so the cap is never inserted, instead of missing it.
    for (PendingObtain &p : pendingObtains_) {
        if (p.act == act && p.sel == sel && !p.killed) {
            p.killed = true;
            *removed += 1;
            co_await thread.compute(kCapCost);
            co_return;
        }
    }

    // Phase one: mark the local subtree (new delegations from it now
    // fail) and snapshot its cross-shard edges.
    RevokePlan plan;
    if (!caps_->planRevoke(act, sel, keep_root, &plan)) {
        // Nothing to do (already revoked / double revoke / retx).
        co_await thread.compute(kCapCost);
        co_return;
    }

    // Snapshot remote children before any suspension: DropShare
    // notifications arriving while we wait may mutate the vectors.
    struct RemoteChild
    {
        RemoteRef ref;
        ActId parentAct;
        CapSel parentSel;
        Capability *parent;
    };
    std::vector<RemoteChild> rc;
    auto collect = [&](Capability *cap) {
        for (const RemoteRef &r : cap->remoteChildren)
            rc.push_back({r, cap->owner(), cap->sel(), cap});
    };
    if (plan.keepRoot && plan.root)
        collect(plan.root);
    for (Capability *cap : plan.caps)
        collect(cap);

    // Revoke remote children over the wire. Marked caps cannot be
    // reaped by anyone else (exactly one plan owns them), so the
    // snapshot stays valid across these suspensions.
    for (const RemoteChild &r : rc) {
        CtrlReq creq;
        creq.op = CtrlReq::Op::Revoke;
        creq.act = r.ref.act;
        creq.sel = r.ref.sel;
        creq.act2 = r.parentAct;
        creq.sel2 = r.parentSel;
        CtrlResp cresp;
        bool ok = false;
        co_await ctrlCall(r.ref.shard, creq, &cresp, &ok);
        if (ok)
            *removed += cresp.val;
        // A kept root survives the reap: release its share records
        // for the children we just revoked (the reaped caps' records
        // die with them).
        if (plan.keepRoot && r.parent == plan.root)
            plan.root->dropRemoteChild(r.ref);
    }

    // Phase two: reap the marked subtree, leaves first, invalidating
    // activated endpoints and releasing the share record at the
    // root's remote parent — unless the requester *is* that parent
    // (it is reaping its own side already).
    std::vector<std::pair<noc::TileId, EpId>> inv;
    std::vector<std::pair<RemoteRef, RemoteRef>> rparents;
    std::size_t local = caps_->executeRevoke(plan, [&](Capability &c) {
        if (c.activated)
            inv.emplace_back(c.actTile, c.actEp);
        if (c.hasRemoteParent)
            rparents.emplace_back(
                c.remoteParent,
                RemoteRef{static_cast<std::uint8_t>(shard_),
                          c.owner(), c.sel()});
    });
    co_await thread.compute(kCapCost * std::max<std::size_t>(1, local));
    for (auto &[tile, ep] : inv)
        co_await invalidateRemoteEp(tile, ep);
    for (auto &[parent, child] : rparents) {
        if (requester.act != dtu::kInvalidAct && parent == requester)
            continue;
        CtrlReq dreq;
        dreq.op = CtrlReq::Op::DropShare;
        dreq.act = parent.act;
        dreq.sel = parent.sel;
        dreq.act2 = child.act;
        dreq.sel2 = child.sel;
        ctrlOneway(parent.shard, dreq);
    }
    *removed += local;
}

//
// Main loop and syscalls.
//

sim::Task
Controller::run()
{
    auto &thread = env_->thread();
    while (running_) {
        EpId which = dtu::kInvalidEp;
        int slot = -1;
        co_await env_->recvAny(pollEps_, &which, &slot);
        if (which == kCtrlReplyRep) {
            // Late reply of a timed-out cross-shard call: drop it so
            // it cannot wedge the poll loop.
            co_await env_->ackMsg(which, slot);
            continue;
        }
        if (which == kCtrlReqRep) {
            co_await handleCtrlReq(slot);
            continue;
        }

        // A syscall. The body is inlined rather than co_await'ed
        // through a helper: every coroutine nesting level costs one
        // scheduled event per syscall.
        const dtu::Message &m = env_->msgAt(kSyscallRep, slot);
        auto caller = static_cast<ActId>(m.label);
        SyscallReq req = podFrom<SyscallReq>(m.payload);
        syscalls_->inc();

        // Admission control over the bounded syscall ring: reject
        // aged or over-occupancy syscalls early with a typed error
        // instead of executing them. The rejection travels the normal
        // vDTU reply path, so service RPCs that embed syscalls (e.g.
        // m3fs extent grants) surface it typed to their clients.
        if (!env_->admit(admission_, kSyscallRep, m)) {
            co_await env_->shed(admission_, kSyscallRep, slot,
                                podBytes(SyscallResp{Error::Overloaded}));
            continue;
        }

        co_await thread.compute(kDispatchCost);
        SyscallResp resp;
        co_await handle(caller, req, &resp);

        Error rerr = Error::None;
        co_await env_->reply(kSyscallRep, slot, podBytes(resp), &rerr);
        if (rerr != Error::None)
            sim::warn("controller: reply to %u failed: %s", caller,
                      dtu::errorName(rerr));
    }
}

sim::Task
Controller::handle(ActId caller, const SyscallReq &req,
                   SyscallResp *resp)
{
    auto &thread = env_->thread();
    CapTable &table = caps_->tableOf(caller);
    resp->err = Error::None;
    resp->val = 0;

    switch (req.op) {
      case SyscallReq::Op::Noop:
        break;

      case SyscallReq::Op::DeriveMem: {
        co_await thread.compute(kCapCost);
        Capability *parent =
            table.get(static_cast<CapSel>(req.arg0));
        if (!parent || parent->obj().kind != CapKind::MemGate ||
            parent->revoking) {
            resp->err = Error::InvalidEp;
            break;
        }
        std::uint64_t off = req.arg1;
        std::uint64_t size = req.arg2;
        auto perms = static_cast<std::uint8_t>(req.arg3);
        const MemObj &pm = parent->obj().mem;
        if (size > pm.size || off > pm.size - size ||
            (perms & ~pm.perms) != 0) {
            resp->err = Error::OutOfBounds;
            break;
        }
        auto obj = std::make_shared<KObject>();
        obj->kind = CapKind::MemGate;
        obj->mem = MemObj{pm.tile, pm.addr + off, size, perms};
        resp->val = table.insertChild(std::move(obj), *parent);
        break;
      }

      case SyscallReq::Op::Activate: {
        co_await thread.compute(kCapCost);
        Capability *cap = table.get(static_cast<CapSel>(req.arg0));
        auto ep = static_cast<EpId>(req.arg1);
        if (!cap) {
            resp->err = Error::InvalidEp;
            break;
        }
        noc::TileId tile = actTile(caller);
        if (tile == kNoTile) {
            resp->err = Error::InvalidEp;
            break;
        }
        if (cap->obj().kind == CapKind::RecvGate) {
            cap->obj().rgate.tile = tile;
            cap->obj().rgate.act = caller;
            cap->obj().rgate.ep = ep;
        }
        co_await configRemoteEp(tile, ep,
                                endpointFor(cap->obj(), caller),
                                &resp->err);
        cap->activated = true;
        cap->actTile = tile;
        cap->actEp = ep;
        break;
      }

      case SyscallReq::Op::ActivateFor: {
        co_await thread.compute(kCapCost);
        Capability *actcap =
            table.get(static_cast<CapSel>(req.arg0));
        Capability *cap = table.get(static_cast<CapSel>(req.arg2));
        auto ep = static_cast<EpId>(req.arg1);
        if (!actcap || actcap->obj().kind != CapKind::Activity ||
            !cap) {
            resp->err = Error::InvalidEp;
            break;
        }
        ActId target = actcap->obj().act.id;
        noc::TileId tile = actcap->obj().act.tile;
        if (cap->obj().kind == CapKind::RecvGate) {
            cap->obj().rgate.tile = tile;
            cap->obj().rgate.act = target;
            cap->obj().rgate.ep = ep;
        }
        co_await configRemoteEp(tile, ep,
                                endpointFor(cap->obj(), target),
                                &resp->err);
        cap->activated = true;
        cap->actTile = tile;
        cap->actEp = ep;
        break;
      }

      case SyscallReq::Op::Delegate: {
        co_await thread.compute(kCapCost);
        Capability *actcap =
            table.get(static_cast<CapSel>(req.arg0));
        Capability *cap = table.get(static_cast<CapSel>(req.arg1));
        if (!actcap || actcap->obj().kind != CapKind::Activity ||
            !cap || cap->revoking) {
            resp->err = Error::InvalidEp;
            break;
        }
        ActId target = actcap->obj().act.id;
        unsigned tshard =
            shardMap_.shardOfTile(actcap->obj().act.tile);
        if (tshard == shard_) {
            resp->val = caps_->tableOf(target).insertChild(
                cap->objPtr(), *cap);
            break;
        }
        CtrlReq creq;
        creq.op = CtrlReq::Op::Delegate;
        creq.act = target;
        creq.act2 = caller;
        creq.sel2 = cap->sel();
        creq.obj = cap->obj();
        CtrlResp cresp;
        bool ok = false;
        co_await ctrlCall(tshard, creq, &cresp, &ok);
        if (!ok) {
            resp->err = Error::Timeout;
            break;
        }
        if (cresp.err != Error::None) {
            resp->err = cresp.err;
            break;
        }
        // Re-resolve after the suspension: a concurrent revoke (or a
        // reap of the caller) may have claimed or removed the source
        // cap. If so, compensate by revoking the child we just
        // created on the peer — the revoke already owns this subtree,
        // so resurrecting the record here would leak the child.
        CapTable *ct = caps_->tableIfExists(caller);
        Capability *cap2 =
            ct ? ct->get(static_cast<CapSel>(req.arg1)) : nullptr;
        if (!cap2 || cap2->revoking) {
            CtrlReq undo;
            undo.op = CtrlReq::Op::Revoke;
            undo.act = target;
            undo.sel = static_cast<CapSel>(cresp.val);
            ctrlOneway(tshard, undo);
            resp->err = Error::InvalidEp;
            break;
        }
        cap2->remoteChildren.push_back(
            RemoteRef{static_cast<std::uint8_t>(tshard), target,
                      static_cast<CapSel>(cresp.val)});
        resp->val = cresp.val;
        break;
      }

      case SyscallReq::Op::Obtain: {
        co_await thread.compute(kCapCost);
        Capability *actcap =
            table.get(static_cast<CapSel>(req.arg0));
        if (!actcap || actcap->obj().kind != CapKind::Activity) {
            resp->err = Error::InvalidEp;
            break;
        }
        ActId src = actcap->obj().act.id;
        auto src_sel = static_cast<CapSel>(req.arg1);
        unsigned sshard =
            shardMap_.shardOfTile(actcap->obj().act.tile);
        if (sshard == shard_) {
            CapTable *st = caps_->tableIfExists(src);
            Capability *scap = st ? st->get(src_sel) : nullptr;
            if (!scap || scap->revoking) {
                resp->err = Error::InvalidEp;
                break;
            }
            resp->val = table.insertChild(scap->objPtr(), *scap);
            break;
        }
        // Cross-shard: reserve the destination selector, ship it to
        // the source shard (which records the share), and insert the
        // returned object copy — unless a revoke raced us and killed
        // the pending obtain.
        CapSel dst = table.reserveSel();
        pendingObtains_.push_back(PendingObtain{caller, dst, false});
        CtrlReq creq;
        creq.op = CtrlReq::Op::Obtain;
        creq.act = src;
        creq.sel = src_sel;
        creq.act2 = caller;
        creq.sel2 = dst;
        CtrlResp cresp;
        bool ok = false;
        co_await ctrlCall(sshard, creq, &cresp, &ok);
        PendingObtain pend = takePendingObtain(caller, dst);
        if (!ok || cresp.err != Error::None || pend.killed ||
            !caps_->tableIfExists(caller)) {
            // The share record may exist on the source side (reply
            // lost, caller reaped): release it. DropShare is
            // idempotent, so over-notifying is safe.
            if (ok && cresp.err == Error::None && !pend.killed) {
                CtrlReq undo;
                undo.op = CtrlReq::Op::DropShare;
                undo.act = src;
                undo.sel = src_sel;
                undo.act2 = caller;
                undo.sel2 = dst;
                ctrlOneway(sshard, undo);
            }
            resp->err = !ok ? Error::Timeout : Error::InvalidEp;
            if (ok && cresp.err != Error::None)
                resp->err = cresp.err;
            break;
        }
        Capability &c = caps_->tableIfExists(caller)->insertReserved(
            dst, std::make_shared<KObject>(cresp.obj));
        c.hasRemoteParent = true;
        c.remoteParent =
            RemoteRef{static_cast<std::uint8_t>(sshard), src,
                      src_sel};
        resp->val = dst;
        break;
      }

      case SyscallReq::Op::Revoke: {
        std::size_t removed = 0;
        co_await revokeTree(caller, static_cast<CapSel>(req.arg0),
                            req.arg1 != 0, RemoteRef{}, &removed);
        resp->val = removed;
        break;
      }

      case SyscallReq::Op::CreateAct: {
        co_await thread.compute(kCapCost);
        auto tile = static_cast<noc::TileId>(req.arg0);
        if (tile >= shardMap_.userTiles) {
            resp->err = Error::OutOfBounds;
            break;
        }
        unsigned tshard = shardMap_.shardOfTile(tile);
        ActId id = dtu::kInvalidAct;
        if (tshard == shard_) {
            id = allocActId();
            registerActivity(id, tile);
            caps_->tableOf(id);
        } else {
            CtrlReq creq;
            creq.op = CtrlReq::Op::CreateAct;
            creq.tile = tile;
            CtrlResp cresp;
            bool ok = false;
            co_await ctrlCall(tshard, creq, &cresp, &ok);
            if (!ok) {
                resp->err = Error::Timeout;
                break;
            }
            if (cresp.err != Error::None) {
                resp->err = cresp.err;
                break;
            }
            id = static_cast<ActId>(cresp.val);
        }
        CapTable *ct = caps_->tableIfExists(caller);
        if (!ct) {
            resp->err = Error::InvalidEp;
            break;
        }
        auto obj = std::make_shared<KObject>();
        obj->kind = CapKind::Activity;
        obj->act = ActObj{id, tile};
        CapSel sel = ct->insertRoot(std::move(obj));
        resp->val = (static_cast<std::uint64_t>(sel) << 32) | id;
        break;
      }

      case SyscallReq::Op::DestroyAct: {
        Capability *actcap =
            table.get(static_cast<CapSel>(req.arg0));
        if (!actcap || actcap->obj().kind != CapKind::Activity) {
            resp->err = Error::InvalidEp;
            break;
        }
        ActId id = actcap->obj().act.id;
        unsigned hshard =
            shardMap_.shardOfTile(actcap->obj().act.tile);
        std::size_t removed = 0;
        co_await revokeTree(caller, static_cast<CapSel>(req.arg0),
                            false, RemoteRef{}, &removed);
        if (hshard == shard_) {
            reapActivity(id);
        } else {
            CtrlReq creq;
            creq.op = CtrlReq::Op::DropTable;
            creq.act = id;
            CtrlResp cresp;
            bool ok = false;
            co_await ctrlCall(hshard, creq, &cresp, &ok);
            if (!ok) {
                resp->err = Error::Timeout;
                break;
            }
        }
        resp->val = removed;
        break;
      }

      case SyscallReq::Op::MapFor: {
        co_await thread.compute(kCapCost);
        Capability *actcap =
            table.get(static_cast<CapSel>(req.arg0));
        if (!actcap || actcap->obj().kind != CapKind::Activity) {
            resp->err = Error::InvalidEp;
            break;
        }
        unsigned tshard =
            shardMap_.shardOfTile(actcap->obj().act.tile);
        if (tshard != shard_) {
            // The sidecall channel to that TileMux belongs to its
            // home quadrant's controller: forward.
            CtrlReq creq;
            creq.op = CtrlReq::Op::MapFor;
            creq.act = actcap->obj().act.id;
            creq.a = req.arg1;
            creq.b = req.arg2;
            creq.c = req.arg3;
            CtrlResp cresp;
            bool ok = false;
            co_await ctrlCall(tshard, creq, &cresp, &ok);
            resp->err = ok ? cresp.err : Error::Timeout;
            break;
        }
        SidecallReq side;
        side.op = SidecallReq::Op::MapPage;
        side.act = actcap->obj().act.id;
        side.virt = req.arg1;
        side.phys = req.arg2;
        side.perms = static_cast<std::uint32_t>(req.arg3);
        SidecallResp sresp;
        co_await sidecall(actcap->obj().act.tile, side, &sresp);
        resp->err = sresp.err;
        break;
      }

      case SyscallReq::Op::CreateSgate: {
        co_await thread.compute(kCapCost);
        Capability *rcap = table.get(static_cast<CapSel>(req.arg0));
        if (!rcap || rcap->obj().kind != CapKind::RecvGate ||
            rcap->revoking) {
            resp->err = Error::InvalidEp;
            break;
        }
        auto obj = std::make_shared<KObject>();
        obj->kind = CapKind::SendGate;
        obj->sgate.target = rcap->obj().rgate;
        obj->sgate.label = req.arg1;
        obj->sgate.credits = static_cast<std::uint32_t>(req.arg2);
        resp->val = table.insertChild(std::move(obj), *rcap);
        break;
      }
    }
    co_return;
}

} // namespace m3v::os
