#include "os/controller.h"

#include <algorithm>
#include <optional>
#include <utility>
#include <variant>

#include "sim/log.h"

namespace m3v::os {

using dtu::ActId;
using dtu::EpId;
using dtu::Error;

namespace {

/** The activity that capability @p sel names, or nullptr when @p sel
 *  is not an activity capability. */
const ActObj *
actObjAt(CapTable &table, std::uint64_t sel)
{
    const Capability *c = table.get(static_cast<CapSel>(sel));
    return c ? std::get_if<ActObj>(&c->obj()) : nullptr;
}

/** The origin end (srcShard, act2, sel2) of a peer request's edge. */
RemoteRef
origin(const CtrlReq &req)
{
    return RemoteRef{static_cast<std::uint8_t>(req.srcShard), req.act2,
                     req.sel2};
}

} // namespace

Controller::Controller(BareEnv &env, CapMgr &caps, const DtuMap &dtus,
                       ShardMap shard_map, unsigned shard)
    : env_(&env), caps_(&caps), dtus_(&dtus), shardMap_(shard_map),
      shard_(shard)
{
    sim::MetricsRegistry &m = env.dtu().eventQueue().metrics();
    const std::string p = env.name() + ".kernel.";
    syscalls_ = m.counter(p + "syscalls");
    reaps_ = m.counter(p + "reaps");
    reclaimed_ = m.counter(p + "credits_reclaimed");
    xsent_ = m.counter(p + "xshard_sent");
    xacked_ = m.counter(p + "xshard_acked");
    xhandled_ = m.counter(p + "xshard_handled");
    xonewaySent_ = m.counter(p + "oneway_sent");
    xonewayHandled_ = m.counter(p + "oneway_handled");
    xonewayDropped_ = m.counter(p + "oneway_dropped");
    xstashed_ = m.counter(p + "xshard_stashed");

    // Main-loop poll list, in priority order: cross-shard requests
    // complete a peer's blocked call, so they beat admitting new
    // syscalls. recvAny() polls in list order, so under syscall
    // saturation this keeps the peer protocol's RTT bounded by one
    // service time instead of the whole syscall backlog. Replies to
    // our own calls are fetched by the waiting ctrlCall, never here.
    // A single controller has no peers: it polls its syscall EP alone.
    if (shardMap_.shards > 1)
        pollEps_ = {kCtrlReqRep};
    pollEps_.push_back(kSyscallRep);
    for (EpId ep : pollEps_)
        env.addRecvEp(ep);
}

CapSel
Controller::grant(ActId act, const KObject &obj)
{
    CapTable *t = caps_->tableIfExists(act);
    if (!t)
        sim::panic("controller %u: grant to activity %u without a "
                   "capability table", shard_, act);
    return t->insertRoot(obj);
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
Controller::createAct(noc::TileId tile)
{
    ActId id;
    if (!freeActs_.empty()) {
        id = freeActs_.back();
        freeActs_.pop_back();
    } else {
        std::uint32_t n =
            kStormActBase + nextLocalAct_ * shardMap_.shards + shard_;
        nextLocalAct_++;
        if (n >= dtu::kTileMuxAct)
            sim::panic("controller %u: out of activity ids", shard_);
        id = static_cast<ActId>(n);
    }
    registerActivity(id, tile);
    caps_->createTable(id);
    return id;
}

Capability *
Controller::liveCap(ActId act, CapSel sel)
{
    CapTable *t = caps_->tableIfExists(act);
    Capability *c = t ? t->get(sel) : nullptr;
    return c && !c->revoking ? c : nullptr;
}

RemoteRef
Controller::selfRef(const Capability &cap) const
{
    return RemoteRef{static_cast<std::uint8_t>(shard_), cap.owner(),
                     cap.sel()};
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

    // Revoke the whole capability table. The derivation tree may
    // reach into other activities' tables (children of the victim's
    // caps die with it); invalidate whatever they were activated
    // into, wherever that is. Cross-shard edges are severed with
    // one-way notifications: peers revoke remote children and drop
    // the share records our caps held on their parents.
    if (caps_->hasTable(id)) {
        CutEdges cut;
        caps_->dropTable(id, [&](Capability &cap) {
            if (cap.activated) {
                if (dtu::Dtu *d = dtus_->get(cap.actTile)) {
                    reclaimed_->inc(d->reclaimCredits(cap.actEp));
                    d->invalidateEp(cap.actEp);
                }
            }
            for (const RemoteRef &r : cap.remoteChildren)
                cut.children.push_back(r);
            if (cap.hasRemoteParent)
                cut.parents.emplace_back(cap.remoteParent, selfRef(cap));
        });
        cutEdges(cut);
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
Controller::mapPage(noc::TileId tile, ActId act, std::uint64_t virt,
                    std::uint64_t phys, std::uint64_t perms, Error *err)
{
    EpId sep = tile < sidecallSeps_.size() ? sidecallSeps_[tile]
                                           : dtu::kInvalidEp;
    if (sep == dtu::kInvalidEp || sidecallRep_ == dtu::kInvalidEp)
        sim::panic("controller: no sidecall channel to tile %u",
                   tile);
    SidecallReq req;
    req.act = act;
    req.virt = virt;
    req.phys = phys;
    req.perms = static_cast<std::uint32_t>(perms);
    Bytes respb;
    Error cerr = Error::Aborted;
    co_await env_->call(sep, sidecallRep_, podBytes(req), &respb,
                        &cerr);
    if (cerr != Error::None)
        sim::panic("controller: sidecall to tile %u failed: %s", tile,
                   dtu::errorName(cerr));
    *err = podFrom<SidecallResp>(respb).err;
}

sim::Task
Controller::writeEp(noc::TileId tile, EpId ep,
                    std::optional<dtu::Endpoint> ndep, Error *err)
{
    // Setting programs the endpoint's fields, so it costs twice the
    // MMIO writes of an invalidation.
    const bool set = ndep.has_value();
    auto &thread = env_->thread();
    co_await thread.compute(thread.core().model().mmioWriteCycles *
                            (set ? 4 : 2));
    Error e = Error::None;
    if (tile == env_->tileId()) {
        // Invalidating leaves an invalid (default) endpoint behind.
        env_->dtu().configEp(ep, ndep.value_or(dtu::Endpoint()));
    } else {
        std::vector<dtu::Endpoint> eps;
        if (set)
            eps.push_back(*ndep);
        bool done = false;
        thread.clearWake();
        env_->dtu().extRequest(
            tile, set ? dtu::ExtOp::SetEp : dtu::ExtOp::InvEp, ep,
            std::move(eps), 1, [&](Error r, std::vector<dtu::Endpoint>) {
                e = r;
                done = true;
                thread.wake();
            });
        while (!done)
            co_await thread.externalWait();
    }
    if (err)
        *err = e;
}

//
// Cross-shard protocol plumbing.
//

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

EpId
Controller::peerSep(unsigned shard) const
{
    EpId sep = shard < peerSeps_.size() ? peerSeps_[shard]
                                        : dtu::kInvalidEp;
    if (sep == dtu::kInvalidEp)
        sim::panic("controller %u: no channel to shard %u", shard_,
                   shard);
    return sep;
}

void
Controller::ctrlOneway(unsigned shard, CtrlReq req)
{
    EpId sep = peerSep(shard);
    req.srcShard = shard_;
    sim::Counter *sent = xonewaySent_;
    sim::Counter *dropped = xonewayDropped_;
    env_->dtu().cmdSend(env_->actId(), sep, env_->msgBuf(),
                        podBytes(req), dtu::kInvalidEp,
                        [sent, dropped](Error e) {
                            if (e == Error::None)
                                sent->inc();
                            else
                                dropped->inc();
                        });
}

void
Controller::cutEdges(const CutEdges &cut, const RemoteRef &requester)
{
    for (const RemoteRef &child : cut.children) {
        CtrlReq req;
        req.op = CtrlReq::Op::Revoke;
        req.act = child.act;
        req.sel = child.sel;
        ctrlOneway(child.shard, req);
    }
    for (const auto &[parent, child] : cut.parents) {
        if (requester.act != dtu::kInvalidAct && parent == requester)
            continue;
        CtrlReq req;
        req.op = CtrlReq::Op::DropShare;
        req.act = parent.act;
        req.sel = parent.sel;
        req.act2 = child.act;
        req.sel2 = child.sel;
        ctrlOneway(parent.shard, req);
    }
}

sim::Task
Controller::ctrlCall(unsigned shard, CtrlReq req, CtrlResp *resp)
{
    EpId sep = peerSep(shard);
    req.srcShard = shard_;
    req.flags |= CtrlReq::kWantReply;
    const std::uint64_t nonce =
        (static_cast<std::uint64_t>(shard_ + 1) << 48) | ++nonceCtr_;
    auto &thread = env_->thread();

    for (;;) {
        Error serr = Error::Aborted;
        co_await env_->send(sep, podBytes(req), kCtrlReplyRep, &serr,
                            nonce);
        if (serr == Error::None)
            break;
        if (serr != Error::NoCredits) {
            resp->err = serr;
            co_return;
        }
        // Out of credits (peer busy): back off and send again.
        co_await thread.compute(kDispatchCost);
    }
    xsent_->inc();

    const std::vector<EpId> wait_eps{kCtrlReplyRep, kCtrlReqRep};
    for (;;) {
        // A nested service loop may have drained our reply while
        // this call was suspended.
        if (takeStash(nonce, resp)) {
            xacked_->inc();
            co_return;
        }
        co_await thread.compute(thread.core().model().mmioReadCycles * 2);
        int rslot = env_->dtu().fetch(env_->actId(), kCtrlReplyRep);
        if (rslot >= 0) {
            const dtu::Message &m = env_->msgAt(kCtrlReplyRep, rslot);
            if (m.nonce == nonce) {
                *resp = podFrom<CtrlResp>(m.payload);
                co_await env_->ackMsg(kCtrlReplyRep, rslot);
                xacked_->inc();
                co_return;
            }
            // Another outstanding call's reply (ours is nested below
            // it): stash it for its owner and keep polling.
            replyStash_.emplace_back(m.nonce, m.payload);
            xstashed_->inc();
            co_await env_->ackMsg(kCtrlReplyRep, rslot);
            continue;
        }
        // Service incoming peer requests while waiting: two shards
        // calling into each other must not deadlock.
        int qslot = env_->dtu().fetch(env_->actId(), kCtrlReqRep);
        if (qslot >= 0) {
            co_await handleCtrlReq(qslot);
            continue;
        }
        co_await env_->waitEps(wait_eps);
    }
}

sim::Task
Controller::handleCtrlReq(int slot)
{
    auto &thread = env_->thread();
    const dtu::Message &m = env_->msgAt(kCtrlReqRep, slot);
    CtrlReq req = podFrom<CtrlReq>(m.payload);
    const bool want_reply = (req.flags & CtrlReq::kWantReply) != 0;

    co_await thread.compute(kDispatchCost);
    // Every op but Revoke (which pays per removed cap) is one
    // capability-table step.
    if (req.op != CtrlReq::Op::Revoke)
        co_await thread.compute(kCapCost);
    CtrlResp resp;
    switch (req.op) {
      case CtrlReq::Op::Delegate: {
        // A crash reap may have dropped the target's table.
        CapTable *t = caps_->tableIfExists(req.act);
        if (!t) {
            resp.err = Error::InvalidEp;
            break;
        }
        resp.val = t->insertShared(req.obj, origin(req));
        break;
      }

      case CtrlReq::Op::Revoke: {
        std::size_t removed = 0;
        co_await revokeTree(req.act, req.sel,
                            (req.flags & CtrlReq::kKeepRoot) != 0,
                            origin(req), &removed);
        resp.val = removed;
        break;
      }

      case CtrlReq::Op::CreateAct:
        resp.val = createAct(static_cast<noc::TileId>(req.tile));
        break;

      case CtrlReq::Op::DropShare: {
        CapTable *t = caps_->tableIfExists(req.act);
        if (Capability *c = t ? t->get(req.sel) : nullptr)
            c->dropRemoteChild(origin(req));
        break;
      }

      case CtrlReq::Op::DropTable:
        reapActivity(req.act);
        resp.val = 1;
        break;

      case CtrlReq::Op::MapFor: {
        noc::TileId tile = actTile(req.act);
        if (tile == kNoTile) {
            resp.err = Error::InvalidEp;
            break;
        }
        co_await mapPage(tile, req.act, req.a, req.b, req.c, &resp.err);
        break;
      }
    }

    if (want_reply) {
        xhandled_->inc();
        Error rerr = Error::None;
        co_await env_->reply(kCtrlReqRep, slot, podBytes(resp), &rerr);
        // The caller waits for this reply with no deadline.
        if (rerr != Error::None)
            sim::panic("controller %u: ctrl reply to shard %u failed: %s",
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

    // Phase one: mark the local subtree (new delegations from it now
    // fail) and snapshot its cross-shard edges.
    RevokePlan plan;
    if (!caps_->planRevoke(act, sel, keep_root, &plan)) {
        // Nothing to do (already revoked / double revoke).
        co_await thread.compute(kCapCost);
        co_return;
    }

    // Snapshot remote children before any suspension: DropShare
    // notifications arriving while we wait may mutate the vectors.
    std::vector<std::pair<RemoteRef, RemoteRef>> rc; // (child, parent)
    auto collect = [&](Capability *cap) {
        for (const RemoteRef &r : cap->remoteChildren)
            rc.emplace_back(r, selfRef(*cap));
    };
    if (plan.keepRoot && plan.root)
        collect(plan.root);
    for (Capability *cap : plan.caps)
        collect(cap);

    // Revoke remote children over the wire. Marked caps cannot be
    // reaped by anyone else (exactly one plan owns them), so the
    // snapshot stays valid across these suspensions.
    for (const auto &[child, parent] : rc) {
        CtrlReq creq;
        creq.op = CtrlReq::Op::Revoke;
        creq.act = child.act;
        creq.sel = child.sel;
        creq.act2 = parent.act;
        creq.sel2 = parent.sel;
        CtrlResp cresp;
        co_await ctrlCall(child.shard, creq, &cresp);
        if (cresp.err == Error::None)
            *removed += cresp.val;
        // A kept root survives the reap: release its share records
        // for the children we just revoked (the reaped caps' records
        // die with them). Look the root up again: it is not marked,
        // so a crash reap may have dropped it while we waited.
        if (keep_root && parent.act == act && parent.sel == sel) {
            CapTable *t = caps_->tableIfExists(act);
            if (Capability *root = t ? t->get(sel) : nullptr)
                root->dropRemoteChild(child);
        }
    }

    // Phase two: reap the marked subtree, leaves first, invalidating
    // activated endpoints and releasing the share record at the
    // root's remote parent — unless the requester *is* that parent
    // (it is reaping its own side already).
    std::vector<std::pair<noc::TileId, EpId>> inv;
    CutEdges cut;
    std::size_t local = caps_->executeRevoke(plan, [&](Capability &c) {
        if (c.activated)
            inv.emplace_back(c.actTile, c.actEp);
        if (c.hasRemoteParent)
            cut.parents.emplace_back(c.remoteParent, selfRef(c));
    });
    co_await thread.compute(kCapCost * std::max<std::size_t>(1, local));
    for (auto &[tile, ep] : inv)
        co_await writeEp(tile, ep, std::nullopt, nullptr);
    cutEdges(cut, requester);
    *removed += local;
}

//
// Main loop and syscalls.
//

sim::Task
Controller::run()
{
    auto &thread = env_->thread();
    for (;;) {
        EpId which = dtu::kInvalidEp;
        int slot = -1;
        co_await env_->recvAny(pollEps_, &which, &slot);
        if (which == kCtrlReqRep) {
            co_await handleCtrlReq(slot);
            continue;
        }

        const dtu::Message &m = env_->msgAt(kSyscallRep, slot);
        auto caller = static_cast<ActId>(m.label);
        SyscallReq req = podFrom<SyscallReq>(m.payload);
        syscalls_->inc();

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
    // Every op but Noop, Revoke and DestroyAct starts with one
    // capability-table step. The caller's table is resolved after it:
    // a crash reap may drop the table while the step runs, and a
    // caller without one has been reaped.
    if (req.op != SyscallReq::Op::Noop &&
        req.op != SyscallReq::Op::Revoke &&
        req.op != SyscallReq::Op::DestroyAct)
        co_await env_->thread().compute(kCapCost);
    resp->err = Error::None;
    resp->val = 0;
    CapTable *caller_table = caps_->tableIfExists(caller);
    if (!caller_table) {
        resp->err = Error::InvalidEp;
        co_return;
    }
    CapTable &table = *caller_table;

    switch (req.op) {
      case SyscallReq::Op::Noop:
        break;

      case SyscallReq::Op::DeriveMem: {
        Capability *parent =
            liveCap(caller, static_cast<CapSel>(req.arg0));
        const MemObj *pm =
            parent ? std::get_if<MemObj>(&parent->obj()) : nullptr;
        if (!pm) {
            resp->err = Error::InvalidEp;
            break;
        }
        std::uint64_t off = req.arg1;
        std::uint64_t size = req.arg2;
        auto perms = static_cast<std::uint8_t>(req.arg3);
        if (size > pm->size || off > pm->size - size ||
            (perms & ~pm->perms) != 0) {
            resp->err = Error::OutOfBounds;
            break;
        }
        resp->val = table.insertChild(
            KObject(MemObj{pm->tile, pm->addr + off, size, perms}),
            *parent);
        break;
      }

      case SyscallReq::Op::Activate:
      case SyscallReq::Op::ActivateFor: {
        // Activate installs cap arg0 into the caller's own EP arg1;
        // ActivateFor installs cap arg2 into EP arg1 of the activity
        // that activity cap arg0 names.
        ActId target = caller;
        noc::TileId tile = actTile(caller);
        auto sel = static_cast<CapSel>(req.arg0);
        if (req.op == SyscallReq::Op::ActivateFor) {
            const ActObj *act = actObjAt(table, req.arg0);
            if (!act) {
                resp->err = Error::InvalidEp;
                break;
            }
            target = act->id;
            tile = act->tile;
            sel = static_cast<CapSel>(req.arg2);
        }
        Capability *cap = table.get(sel);
        auto ep = static_cast<EpId>(req.arg1);
        std::optional<dtu::Endpoint> cfg =
            cap ? endpointFor(cap->obj(), target) : std::nullopt;
        if (!cfg || tile == kNoTile) {
            resp->err = Error::InvalidEp;
            break;
        }
        // Record the activation before the EP write suspends us: a
        // crash reap may free the cap meanwhile (and then also
        // invalidates the EP).
        cap->activated = true;
        cap->actTile = tile;
        cap->actEp = ep;
        co_await writeEp(tile, ep, cfg, &resp->err);
        break;
      }

      case SyscallReq::Op::Delegate: {
        const ActObj *act = actObjAt(table, req.arg0);
        Capability *cap = table.get(static_cast<CapSel>(req.arg1));
        if (!act || !cap || cap->revoking) {
            resp->err = Error::InvalidEp;
            break;
        }
        ActId target = act->id;
        unsigned tshard = shardMap_.shardOfTile(act->tile);
        if (tshard == shard_) {
            // A crash reap may have dropped the target's table.
            CapTable *t = caps_->tableIfExists(target);
            if (!t) {
                resp->err = Error::InvalidEp;
                break;
            }
            resp->val = t->insertChild(cap->obj(), *cap);
            break;
        }
        CtrlReq creq;
        creq.op = CtrlReq::Op::Delegate;
        creq.act = target;
        creq.act2 = caller;
        creq.sel2 = cap->sel();
        creq.obj = cap->obj();
        CtrlResp cresp;
        co_await ctrlCall(tshard, creq, &cresp);
        if (cresp.err != Error::None) {
            resp->err = cresp.err;
            break;
        }
        // Re-resolve after the suspension: a concurrent revoke (or a
        // reap of the caller) may have claimed or removed the source
        // cap. If so, compensate by revoking the child we just
        // created on the peer — the revoke already owns this subtree,
        // so resurrecting the record here would leak the child.
        RemoteRef child{static_cast<std::uint8_t>(tshard), target,
                        static_cast<CapSel>(cresp.val)};
        Capability *src =
            liveCap(caller, static_cast<CapSel>(req.arg1));
        if (!src) {
            cutEdges(CutEdges{{child}, {}});
            resp->err = Error::InvalidEp;
            break;
        }
        src->remoteChildren.push_back(child);
        resp->val = cresp.val;
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
        auto tile = static_cast<noc::TileId>(req.arg0);
        if (tile >= shardMap_.userTiles) {
            resp->err = Error::OutOfBounds;
            break;
        }
        unsigned tshard = shardMap_.shardOfTile(tile);
        ActId id = dtu::kInvalidAct;
        if (tshard == shard_) {
            id = createAct(tile);
        } else {
            CtrlReq creq;
            creq.op = CtrlReq::Op::CreateAct;
            creq.tile = tile;
            CtrlResp cresp;
            co_await ctrlCall(tshard, creq, &cresp);
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
        CapSel sel = ct->insertRoot(KObject(ActObj{id, tile}));
        resp->val = (static_cast<std::uint64_t>(sel) << 32) | id;
        break;
      }

      case SyscallReq::Op::DestroyAct: {
        const ActObj *act = actObjAt(table, req.arg0);
        if (!act) {
            resp->err = Error::InvalidEp;
            break;
        }
        ActId id = act->id;
        unsigned hshard = shardMap_.shardOfTile(act->tile);
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
            co_await ctrlCall(hshard, creq, &cresp);
            if (cresp.err != Error::None) {
                resp->err = cresp.err;
                break;
            }
        }
        resp->val = removed;
        break;
      }

      case SyscallReq::Op::MapFor: {
        const ActObj *act = actObjAt(table, req.arg0);
        if (!act) {
            resp->err = Error::InvalidEp;
            break;
        }
        unsigned tshard = shardMap_.shardOfTile(act->tile);
        if (tshard == shard_) {
            co_await mapPage(act->tile, act->id, req.arg1, req.arg2,
                             req.arg3, &resp->err);
            break;
        }
        // The sidecall channel to that TileMux belongs to its home
        // quadrant's controller: forward.
        CtrlReq creq;
        creq.op = CtrlReq::Op::MapFor;
        creq.act = act->id;
        creq.a = req.arg1;
        creq.b = req.arg2;
        creq.c = req.arg3;
        CtrlResp cresp;
        co_await ctrlCall(tshard, creq, &cresp);
        resp->err = cresp.err;
        break;
      }
    }
    co_return;
}

} // namespace m3v::os
