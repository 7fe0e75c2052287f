#include "core/vdtu.h"

#include <algorithm>
#include <utility>

#include "sim/invariants.h"
#include "sim/log.h"

namespace m3v::core {

using dtu::ActId;
using dtu::EpId;
using dtu::Error;

VDtu::VDtu(sim::EventQueue &eq, std::string name, noc::Noc &noc,
           noc::TileId tile, std::uint64_t freq_hz, VDtuParams params)
    : Dtu(eq, std::move(name), noc, tile, freq_hz),
      params_(params), tlb_(params.tlbEntries)
{
    tlbMisses_ = statCounter("tlb.misses");
    tlbHits_ = statCounter("tlb.hits");
    coreReqCount_ = statCounter("core_reqs");
    coreReqsCoalesced_ = statCounter("core_reqs_coalesced");
    foreignDenials_ = statCounter("foreign_denials");
}

CurAct
VDtu::xchgAct(ActId next)
{
    CurAct old = cur_;
    old.msgCount = static_cast<std::uint16_t>(unreadOf(old.act));
    cur_.act = next;
    cur_.msgCount = static_cast<std::uint16_t>(unreadOf(next));
    return old;
}

void
VDtu::tlbInsert(ActId act, dtu::VirtAddr virt, dtu::PhysAddr phys,
                std::uint8_t perms)
{
    dtu::VirtAddr page = virt & ~(dtu::kPageSize - 1);
    // Replace an existing entry for the same (act, page) if present.
    TlbEntry *victim = nullptr;
    for (auto &e : tlb_) {
        if (e.act == act && e.page == page) {
            victim = &e;
            break;
        }
        if (e.act == dtu::kInvalidAct && !victim)
            victim = &e;
    }
    if (!victim) {
        // Evict the least-recently-used entry.
        victim = &tlb_[0];
        for (auto &e : tlb_)
            if (e.lastUse < victim->lastUse)
                victim = &e;
    }
    victim->act = act;
    victim->page = page;
    victim->phys = phys & ~(dtu::kPageSize - 1);
    victim->perms = perms;
    victim->lastUse = ++tlbClock_;
}

void
VDtu::tlbFlushAct(ActId act)
{
    for (auto &e : tlb_)
        if (e.act == act)
            e = TlbEntry();
}

void
VDtu::resetAct(ActId act)
{
    tlbFlushAct(act);
    // Drop buffered messages of the dead activity's receive
    // endpoints, returning flow-control credits to surviving senders.
    // Without this the endpoint slots and the unread_ bookkeeping
    // disagree, and a later fetch under a reused activity id panics.
    for (EpId i = 0; i < dtu::kNumEps; i++) {
        const dtu::Endpoint &e = ep(i);
        if (e.kind == dtu::EpKind::Receive && e.act == act)
            reclaimCredits(i);
    }
    unread_.erase(act);
    // Purge queued core requests of the dead activity (pop every
    // entry, push the survivors back in order). Freed slots lift the
    // section 3.8 backpressure, so wake any NoC waiters.
    std::size_t before = coreReqs_.size();
    for (std::size_t i = 0; i < before; i++) {
        CoreReq r = std::move(coreReqs_.front());
        coreReqs_.pop_front();
        if (r.act != act)
            coreReqs_.push_back(std::move(r));
    }
    if (coreReqs_.size() != before)
        notifySpaceWaiters();
    if (cur_.act == act)
        cur_.msgCount = 0;
}

std::size_t
VDtu::tlbFill() const
{
    std::size_t n = 0;
    for (const auto &e : tlb_)
        n += e.act != dtu::kInvalidAct ? 1 : 0;
    return n;
}

TlbEntry *
VDtu::tlbLookup(ActId act, dtu::VirtAddr page)
{
    for (auto &e : tlb_)
        if (e.act == act && e.page == page)
            return &e;
    return nullptr;
}

CoreReq
VDtu::coreReqGet() const
{
    if (coreReqs_.empty())
        sim::panic("%s: coreReqGet on empty queue", name().c_str());
    return coreReqs_.front();
}

void
VDtu::coreReqAck()
{
    if (coreReqs_.empty())
        sim::panic("%s: coreReqAck on empty queue", name().c_str());
    coreReqs_.pop_front();
    notifySpaceWaiters();
    if (!coreReqs_.empty() && coreReqIrq_)
        coreReqIrq_();
}

std::size_t
VDtu::unreadOf(ActId act) const
{
    auto it = unread_.find(act);
    return it == unread_.end() ? 0 : it->second;
}

CoreReq *
VDtu::findCoreReq(ActId act)
{
    for (std::size_t i = 0; i < coreReqs_.size(); i++)
        if (coreReqs_[i].act == act)
            return &coreReqs_[i];
    return nullptr;
}

bool
VDtu::acceptPacket(noc::Packet &pkt, sim::UniqueFunction<void()> on_space)
{
    // Backpressure: a message that will require a *new* core request
    // cannot be accepted while the core-request queue is full. The
    // NoC's packet-level flow control holds it at the last hop
    // (section 3.8). A message for an activity that already has a
    // queued request coalesces into it and needs no queue slot.
    auto *wd = dynamic_cast<dtu::WireData *>(pkt.data.get());
    if (wd && wd->kind == dtu::WireKind::MsgXfer &&
        coreReqs_.size() >= kCoreReqQueue &&
        wd->dstEp < dtu::kNumEps) {
        const dtu::Endpoint &rep = ep(wd->dstEp);
        if (rep.kind == dtu::EpKind::Receive && rep.act != cur_.act &&
            findCoreReq(rep.act) == nullptr) {
            spaceWaiters_.push_back(std::move(on_space));
            return false;
        }
    }
    return Dtu::acceptPacket(pkt, std::move(on_space));
}

void
VDtu::notifySpaceWaiters()
{
    if (spaceWaiters_.empty())
        return;
    auto waiters = std::move(spaceWaiters_);
    spaceWaiters_.clear();
    for (auto &cb : waiters)
        cb();
}

Error
VDtu::checkEpAccess(ActId act, const dtu::Endpoint &ep) const
{
    if (ep.act != act) {
        // Report "unknown endpoint" (section 3.5): an activity must
        // not learn about endpoints it does not own. The registry
        // handle is mutable by design, so the const query path needs
        // no const_cast.
        foreignDenials_->inc();
        return Error::ForeignEp;
    }
    return Error::None;
}

Error
VDtu::translate(ActId act, dtu::VirtAddr buf, bool write,
                dtu::PhysAddr &phys)
{
    // TileMux runs with physical addressing (it owns the first PMP
    // region); its commands bypass the TLB.
    if (act == dtu::kTileMuxAct) {
        phys = buf;
        return pmpCheck(phys, write);
    }
    dtu::VirtAddr page = buf & ~(dtu::kPageSize - 1);
    TlbEntry *e = tlbLookup(act, page);
    if (!e) {
        tlbMisses_->inc();
        return Error::TlbMiss;
    }
    std::uint8_t need = write ? dtu::kPermW : dtu::kPermR;
    if (!(e->perms & need)) {
        tlbMisses_->inc();
        return Error::TlbMiss;
    }
    e->lastUse = ++tlbClock_;
    tlbHits_->inc();
    phys = e->phys | (buf & (dtu::kPageSize - 1));
    return pmpCheck(phys, write);
}

Error
VDtu::pmpCheck(dtu::PhysAddr phys, bool write) const
{
    // The PMP endpoint is selected by the upper two bits of the
    // physical address (section 4.1).
    EpId pmp_ep = static_cast<EpId>(phys >> 62);
    dtu::PhysAddr offset = phys & ((1ULL << 62) - 1);
    const dtu::Endpoint &mep = ep(pmp_ep);
    if (mep.kind != dtu::EpKind::Memory)
        return Error::PmpFault;
    if (offset >= mep.mem.size)
        return Error::PmpFault;
    std::uint8_t need = write ? dtu::kPermW : dtu::kPermR;
    if (!(mep.mem.perms & need))
        return Error::PmpFault;
    return Error::None;
}

void
VDtu::onMessageStored(EpId, ActId owner)
{
    unread_[owner]++;
    if (owner == cur_.act) {
        cur_.msgCount++;
        return;
    }
    // Message for a non-running activity: enqueue a core request and
    // inject an interrupt if the queue was empty (section 3.8). A
    // request for this activity already in the queue absorbs the
    // store — one wakeup drains any number of messages, so a burst
    // raises one IRQ instead of one per message.
    if (CoreReq *queued = findCoreReq(owner)) {
        queued->count++;
        coreReqsCoalesced_->inc();
        return;
    }
    bool was_empty = coreReqs_.empty();
    coreReqs_.push_back(CoreReq{owner, 1});
    coreReqCount_->inc();
    if (was_empty && coreReqIrq_)
        coreReqIrq_();
}

void
VDtu::registerInvariants(sim::Invariants &inv)
{
    inv.addCheck(name() + ".cur_act", [this](sim::Invariants &v) {
        if (cur_.msgCount != unreadOf(cur_.act))
            v.fail("%s: CUR_ACT msgCount %u != unread %zu of act %u",
                   name().c_str(), cur_.msgCount, unreadOf(cur_.act),
                   cur_.act);
    });

    inv.addCheck(name() + ".unread_bookkeeping",
                 [this](sim::Invariants &v) {
        // The unread_ map must agree with the slot-level truth: per
        // activity, the sum of unread slots over its receive EPs.
        std::unordered_map<ActId, std::size_t> per_act;
        for (EpId i = 0; i < dtu::kNumEps; i++) {
            const dtu::Endpoint &e = ep(i);
            if (e.kind == dtu::EpKind::Receive)
                per_act[e.act] += e.recv.unreadCount();
        }
        for (const auto &[act, n] : per_act)
            if (n != unreadOf(act))
                v.fail("%s: act %u has %zu unread slots but "
                       "unread_ says %zu",
                       name().c_str(), act, n, unreadOf(act));
        for (const auto &[act, n] : unread_) {
            auto it = per_act.find(act);
            std::size_t slots = it == per_act.end() ? 0 : it->second;
            if (n != slots)
                v.fail("%s: unread_ says %zu for act %u but slots "
                       "hold %zu",
                       name().c_str(), n, act, slots);
        }
    });

    inv.addCheck(name() + ".backpressure",
                 [this](sim::Invariants &v) {
        if (!spaceWaiters_.empty() &&
            coreReqs_.size() < kCoreReqQueue)
            v.fail("%s: %zu NoC waiters parked but core-req queue "
                   "has space (%zu/%zu)",
                   name().c_str(), spaceWaiters_.size(),
                   coreReqs_.size(), kCoreReqQueue);
    });

    inv.addCheck(
        name() + ".core_reqs_drained",
        [this](sim::Invariants &v) {
            if (!coreReqs_.empty())
                v.fail("%s: %zu core requests never drained",
                       name().c_str(), coreReqs_.size());
            if (!spaceWaiters_.empty())
                v.fail("%s: %zu NoC space waiters never released",
                       name().c_str(), spaceWaiters_.size());
        },
        sim::Invariants::When::QuiescentOnly);
}

void
VDtu::onMessageFetched(EpId, ActId owner)
{
    auto it = unread_.find(owner);
    if (it == unread_.end() || it->second == 0)
        sim::panic("%s: fetch with zero unread count", name().c_str());
    it->second--;
    if (owner == cur_.act && cur_.msgCount > 0)
        cur_.msgCount--;
}

} // namespace m3v::core
