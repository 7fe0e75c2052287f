#include "dtu/dtu.h"

#include <algorithm>
#include <utility>

#include "sim/invariants.h"
#include "sim/log.h"

namespace m3v::dtu {

const char *
errorName(Error e)
{
    switch (e) {
      case Error::None: return "None";
      case Error::InvalidEp: return "InvalidEp";
      case Error::ForeignEp: return "ForeignEp";
      case Error::NoCredits: return "NoCredits";
      case Error::TlbMiss: return "TlbMiss";
      case Error::OutOfBounds: return "OutOfBounds";
      case Error::RecvGone: return "RecvGone";
      case Error::NoReplyAllowed: return "NoReplyAllowed";
      case Error::PmpFault: return "PmpFault";
      case Error::MsgTooBig: return "MsgTooBig";
      case Error::Aborted: return "Aborted";
      case Error::Timeout: return "Timeout";
      case Error::Overloaded: return "Overloaded";
    }
    return "Unknown";
}

Dtu::Dtu(sim::EventQueue &eq, std::string name, noc::Noc &noc,
         noc::TileId tile, std::uint64_t freq_hz, DtuTiming timing)
    : SimObject(eq, std::move(name)), clk_(freq_hz), noc_(noc),
      tile_(tile), timing_(timing), eps_(kNumEps),
      reliable_(noc.params().faults != nullptr)
{
    noc_.attachTile(tile, this);
    msgsSent_ = statCounter("msgs_sent");
    msgsRecv_ = statCounter("msgs_recv");
    nacks_ = statCounter("nacks");
    retransmits_ = statCounter("retransmits");
    timeouts_ = statCounter("timeouts");
    duplicates_ = statCounter("duplicates");
    corruptDropped_ = statCounter("corrupt_dropped");
    straysDropped_ = statCounter("strays_dropped");
    creditsReclaimed_ = statCounter("credits_reclaimed");
    trc_ = &eq.tracer();
}

//
// External interface.
//

void
Dtu::configEp(EpId id, Endpoint ep)
{
    if (id >= eps_.size())
        sim::panic("%s: configEp %u out of range", name().c_str(), id);
    eps_[id] = std::move(ep);
}

void
Dtu::invalidateEp(EpId id)
{
    if (id >= eps_.size())
        sim::panic("%s: invalidateEp %u out of range",
                   name().c_str(), id);
    eps_[id] = Endpoint();
}

const Endpoint &
Dtu::ep(EpId id) const
{
    if (id >= eps_.size())
        sim::panic("%s: ep %u out of range", name().c_str(), id);
    return eps_[id];
}

Endpoint &
Dtu::epMut(EpId id)
{
    if (id >= eps_.size())
        sim::panic("%s: ep %u out of range", name().c_str(), id);
    return eps_[id];
}

void
Dtu::extRequest(noc::TileId dst, ExtOp op, EpId ep_start,
                std::vector<Endpoint> eps, std::uint16_t count,
                ExtCallback cb)
{
    auto wd = std::make_unique<WireData>();
    wd->kind = WireKind::ExtReq;
    wd->reqId = nextReqId_++;
    wd->extOp = op;
    wd->epStart = ep_start;
    wd->epCount = count;
    wd->eps = std::move(eps);
    inflight_.push_back(Inflight{wd->reqId, std::move(cb)});
    respond(dst, std::move(wd));
}

//
// In-flight request table.
//

bool
Dtu::takeInflight(std::uint64_t req_id, Inflight &out)
{
    for (std::size_t i = 0; i < inflight_.size(); i++) {
        if (inflight_[i].reqId != req_id)
            continue;
        out = std::move(inflight_[i]);
        if (i + 1 != inflight_.size())
            inflight_[i] = std::move(inflight_.back());
        inflight_.pop_back();
        return true;
    }
    return false;
}

void
Dtu::completeInflight(Inflight inf, Error e, WireData *resp)
{
    if (inf.extCb) {
        inf.extCb(e, resp != nullptr ? std::move(resp->eps)
                                     : std::vector<Endpoint>{});
        return;
    }
    // Only one command is ever in flight: the response is curCmd_'s.
    CmdState &c = curCmd_;
    switch (c.kind) {
      case CmdState::Kind::Send:
        if (e != Error::None) {
            // Restore the credit on failed delivery.
            Endpoint &s = eps_[c.ep];
            if (s.kind == EpKind::Send &&
                s.send.credits < s.send.maxCredits) {
                s.send.credits++;
                if (e == Error::Timeout) {
                    // A timed-out message may still have been
                    // delivered (only the ack was lost) — record the
                    // restore as conservation slack.
                    timeoutRestores_[c.ep]++;
                }
            }
        }
        [[fallthrough]];
      case CmdState::Kind::Reply:
        (e == Error::None ? msgsSent_ : nacks_)->inc();
        completeCmd(e);
        break;

      case CmdState::Kind::Write:
        completeCmd(e);
        break;

      case CmdState::Kind::Read: {
        // Stage the response, then DMA the data into the core's
        // cache (the vector copy below models exactly that DMA; the
        // zero-copy discipline ends at the software boundary).
        c.err = e;
        c.readData.clear();
        if (resp != nullptr && !resp->data.empty()) {
            const auto &bytes = resp->data.bytes();
            c.readData.assign(bytes.begin(), bytes.end());
        }
        sim::Cycles dma =
            kLocalMemFixed + c.readData.size() / kLocalMemBytesPerCycle;
        eq_.schedule(clk_.cyclesToTicks(dma),
                     [this]() { completeCmd(curCmd_.err); });
        break;
      }

      case CmdState::Kind::None:
        sim::panic("%s: command response while idle", name().c_str());
    }
}

//
// Command engine (see the stage list in dtu.h).
//

void
Dtu::enqueueCmd(CmdState st)
{
    if (cmdBusy_) {
        cmdQueue_.push_back(std::move(st));
        return;
    }
    cmdBusy_ = true;
    curCmd_ = std::move(st);
    dispatchCmd();
}

void
Dtu::dispatchCmd()
{
    static constexpr const char *kSpanNames[] = {nullptr, "SEND",
                                                 "REPLY", "READ",
                                                 "WRITE"};
    if (curCmd_.kind == CmdState::Kind::None)
        sim::panic("%s: dispatch of empty command", name().c_str());
    trc_->begin(sim::TraceCat::Dtu, tile_, sim::kTraceTidDtu,
                kSpanNames[static_cast<std::size_t>(curCmd_.kind)]);
    sim::Tick t0 = clk_.cyclesToTicks(kCmdDecode + kTlbLookup);
    eq_.schedule(t0, [this]() { checkCmd(); });
}

void
Dtu::checkCmd()
{
    static constexpr EpKind kEpKinds[] = {EpKind::Invalid, EpKind::Send,
                                          EpKind::Receive, EpKind::Memory,
                                          EpKind::Memory};
    CmdState &c = curCmd_;
    if (c.ep >= eps_.size())
        return completeCmd(Error::InvalidEp);
    Endpoint &ep = eps_[c.ep];
    if (ep.kind != kEpKinds[static_cast<std::size_t>(c.kind)])
        return completeCmd(Error::InvalidEp);
    if (Error e = checkEpAccess(c.act, ep); e != Error::None)
        return completeCmd(e);
    if (Error e = cmdChecks(ep); e != Error::None)
        return completeCmd(e);
    // READ stores into the core's buffer; the others load from it.
    bool read = c.kind == CmdState::Kind::Read;
    PhysAddr phys = 0;
    if (Error e = translate(c.act, c.buf, read, phys); e != Error::None)
        return completeCmd(e);
    if (read)
        return launchCmd();

    // DMA the payload out of the core's cache.
    sim::Cycles dma =
        kLocalMemFixed + c.payload.size() / kLocalMemBytesPerCycle;
    eq_.schedule(clk_.cyclesToTicks(dma), [this]() { launchCmd(); });
}

Error
Dtu::cmdChecks(const Endpoint &ep) const
{
    const CmdState &c = curCmd_;
    switch (c.kind) {
      case CmdState::Kind::Send:
        if (c.payload.size() > ep.send.maxMsgSize)
            return Error::MsgTooBig;
        if (ep.send.credits == 0)
            return Error::NoCredits;
        break;

      case CmdState::Kind::Reply: {
        if (c.slot < 0 ||
            static_cast<std::size_t>(c.slot) >= ep.recv.slots.size())
            return Error::InvalidEp;
        const RecvSlot &rs =
            ep.recv.slots[static_cast<std::size_t>(c.slot)];
        if (!rs.occupied || !rs.msg.canReply)
            return Error::NoReplyAllowed;
        break;
      }

      case CmdState::Kind::Read:
      case CmdState::Kind::Write: {
        std::uint8_t perm =
            c.kind == CmdState::Kind::Read ? kPermR : kPermW;
        if (!(ep.mem.perms & perm))
            return Error::PmpFault;
        if (c.size > ep.mem.size || c.offset > ep.mem.size - c.size)
            return Error::OutOfBounds;
        if (c.size > kPageSize)
            return Error::OutOfBounds;
        break;
      }

      case CmdState::Kind::None:
        break;
    }
    return Error::None;
}

void
Dtu::launchCmd()
{
    CmdState &c = curCmd_;
    Endpoint &ep = eps_[c.ep];
    auto wd = std::make_unique<WireData>();
    noc::TileId dst = 0;
    switch (c.kind) {
      case CmdState::Kind::Send:
        ep.send.credits--;
        dst = ep.send.destTile;
        wd->kind = WireKind::MsgXfer;
        wd->dstEp = ep.send.destEp;
        wd->dstAct = ep.send.destAct;
        wd->isReply = ep.send.isReply;
        wd->msg.nonce = c.nonce;
        wd->msg.label = ep.send.label;
        wd->msg.srcTile = tile_;
        wd->msg.srcAct = c.act;
        wd->msg.replyEp = c.replyEp;
        wd->msg.creditEp = c.ep;
        wd->msg.canReply = c.replyEp != kInvalidEp;
        // Zero-copy hand-off: the command's extent becomes the wire's.
        wd->msg.payload = std::move(c.payload);
        break;

      case CmdState::Kind::Reply: {
        RecvSlot &rs = ep.recv.slots[static_cast<std::size_t>(c.slot)];
        dst = rs.msg.srcTile;
        wd->kind = WireKind::MsgXfer;
        wd->dstEp = rs.msg.replyEp;
        wd->isReply = true;
        wd->msg.nonce = rs.msg.nonce;
        wd->msg.label = rs.msg.label;
        wd->msg.srcTile = tile_;
        wd->msg.srcAct = c.act;
        wd->msg.replyEp = kInvalidEp;
        wd->msg.creditEp = kInvalidEp;
        wd->msg.canReply = false;
        wd->msg.payload = std::move(c.payload);
        // Replying acknowledges the original message: free the slot —
        // dropping its payload reference so the extent recycles — and
        // return the credit to the sender ahead of the reply.
        rs.occupied = false;
        rs.unread = false;
        rs.msg.payload.reset();
        sendCreditReturn(dst, rs.msg.creditEp);
        break;
      }

      case CmdState::Kind::Read:
      case CmdState::Kind::Write:
        dst = ep.mem.destTile;
        wd->kind = c.kind == CmdState::Kind::Read ? WireKind::MemReadReq
                                                  : WireKind::MemWriteReq;
        wd->addr = ep.mem.addr + c.offset;
        wd->size = c.size;
        wd->data = std::move(c.payload); // empty for READ
        break;

      case CmdState::Kind::None:
        sim::panic("%s: launch of empty command", name().c_str());
    }
    wd->reqId = nextReqId_++;
    inflight_.push_back(Inflight{wd->reqId, {}});
    respond(dst, std::move(wd));
}

void
Dtu::cmdFinished()
{
    if (!cmdBusy_)
        sim::panic("%s: cmdFinished while idle", name().c_str());
    trc_->end(sim::TraceCat::Dtu, tile_, sim::kTraceTidDtu);
    if (cmdQueue_.empty()) {
        cmdBusy_ = false;
        return;
    }
    curCmd_ = std::move(cmdQueue_.front());
    cmdQueue_.pop_front();
    dispatchCmd();
}

void
Dtu::completeCmd(Error e)
{
    // Move the callback out and reset the command state before
    // invoking it: the callback may enqueue the next command.
    if (curCmd_.kind == CmdState::Kind::Read) {
        ReadCallback rcb = std::move(curCmd_.rcb);
        std::vector<std::uint8_t> data = std::move(curCmd_.readData);
        curCmd_ = CmdState{};
        rcb(e, std::move(data));
    } else {
        CmdCallback cb = std::move(curCmd_.cb);
        curCmd_ = CmdState{};
        cb(e);
    }
    cmdFinished();
}

//
// Command API.
//

void
Dtu::cmdSend(ActId act, EpId ep_id, VirtAddr buf,
             std::vector<std::uint8_t> payload, EpId reply_ep,
             CmdCallback cb, std::uint64_t nonce)
{
    cmdSendRef(act, ep_id, buf,
               noc_.payloadPool().adopt(std::move(payload)), reply_ep,
               std::move(cb), nonce);
}

void
Dtu::cmdSendRef(ActId act, EpId ep_id, VirtAddr buf,
                sim::PayloadRef payload, EpId reply_ep,
                CmdCallback cb, std::uint64_t nonce)
{
    CmdState st;
    st.kind = CmdState::Kind::Send;
    st.act = act;
    st.ep = ep_id;
    st.buf = buf;
    st.payload = std::move(payload);
    st.replyEp = reply_ep;
    st.nonce = nonce;
    st.cb = std::move(cb);
    enqueueCmd(std::move(st));
}

void
Dtu::cmdReply(ActId act, EpId rep_id, int slot, VirtAddr buf,
              std::vector<std::uint8_t> payload, CmdCallback cb)
{
    cmdReplyRef(act, rep_id, slot, buf,
                noc_.payloadPool().adopt(std::move(payload)),
                std::move(cb));
}

void
Dtu::cmdReplyRef(ActId act, EpId rep_id, int slot, VirtAddr buf,
                 sim::PayloadRef payload, CmdCallback cb)
{
    CmdState st;
    st.kind = CmdState::Kind::Reply;
    st.act = act;
    st.ep = rep_id;
    st.slot = slot;
    st.buf = buf;
    st.payload = std::move(payload);
    st.cb = std::move(cb);
    enqueueCmd(std::move(st));
}

void
Dtu::cmdRead(ActId act, EpId mep_id, std::uint64_t offset,
             std::size_t size, VirtAddr buf, ReadCallback cb)
{
    CmdState st;
    st.kind = CmdState::Kind::Read;
    st.act = act;
    st.ep = mep_id;
    st.offset = offset;
    st.size = size;
    st.buf = buf;
    st.rcb = std::move(cb);
    enqueueCmd(std::move(st));
}

void
Dtu::cmdWrite(ActId act, EpId mep_id, std::uint64_t offset,
              std::vector<std::uint8_t> data, VirtAddr buf,
              CmdCallback cb)
{
    CmdState st;
    st.kind = CmdState::Kind::Write;
    st.act = act;
    st.ep = mep_id;
    st.offset = offset;
    st.size = data.size();
    st.payload = noc_.payloadPool().adopt(std::move(data));
    st.buf = buf;
    st.cb = std::move(cb);
    enqueueCmd(std::move(st));
}

//
// Register-level operations.
//

int
Dtu::fetch(ActId act, EpId rep_id)
{
    if (rep_id >= eps_.size())
        return -1;
    Endpoint &rep = eps_[rep_id];
    if (rep.kind != EpKind::Receive)
        return -1;
    if (checkEpAccess(act, rep) != Error::None)
        return -1;
    int slot = rep.recv.firstUnread();
    if (slot < 0)
        return -1;
    rep.recv.slots[static_cast<std::size_t>(slot)].unread = false;
    onMessageFetched(rep_id, rep.act);
    return slot;
}

std::size_t
Dtu::unread(ActId act, EpId rep_id) const
{
    if (rep_id >= eps_.size())
        return 0;
    const Endpoint &rep = eps_[rep_id];
    if (rep.kind != EpKind::Receive)
        return 0;
    if (checkEpAccess(act, rep) != Error::None)
        return 0;
    return rep.recv.unreadCount();
}

const Message &
Dtu::slotMsg(EpId rep_id, int slot) const
{
    const Endpoint &rep = ep(rep_id);
    if (rep.kind != EpKind::Receive || slot < 0 ||
        static_cast<std::size_t>(slot) >= rep.recv.slots.size())
        sim::panic("%s: slotMsg(%u, %d) invalid", name().c_str(),
                   rep_id, slot);
    const RecvSlot &rs = rep.recv.slots[static_cast<std::size_t>(slot)];
    if (!rs.occupied)
        sim::panic("%s: slotMsg on free slot", name().c_str());
    return rs.msg;
}

void
Dtu::ack(ActId act, EpId rep_id, int slot)
{
    Endpoint &rep = epMut(rep_id);
    if (rep.kind != EpKind::Receive ||
        checkEpAccess(act, rep) != Error::None)
        return;
    if (slot < 0 ||
        static_cast<std::size_t>(slot) >= rep.recv.slots.size())
        return;
    RecvSlot &rs = rep.recv.slots[static_cast<std::size_t>(slot)];
    if (!rs.occupied)
        return;
    noc::TileId dst = rs.msg.srcTile;
    EpId credit_ep = rs.msg.creditEp;
    rs.occupied = false;
    rs.unread = false;
    // The receiver is done with the payload: drop the slot's extent
    // reference so it recycles (the slab conservation law counts
    // only occupied slots as legitimate holders).
    rs.msg.payload.reset();
    if (credit_ep == kInvalidEp)
        return; // replies carry no credits
    sendCreditReturn(dst, credit_ep);
}

void
Dtu::sendCreditReturn(noc::TileId dst, EpId credit_ep)
{
    auto cr = std::make_unique<WireData>();
    cr->kind = WireKind::CreditReturn;
    cr->creditEp = credit_ep;
    respond(dst, std::move(cr));
}

std::size_t
Dtu::reclaimCredits(EpId rep_id)
{
    if (rep_id >= eps_.size())
        return 0;
    Endpoint &rep = eps_[rep_id];
    if (rep.kind != EpKind::Receive)
        return 0;
    std::size_t n = 0;
    for (auto &rs : rep.recv.slots) {
        if (!rs.occupied)
            continue;
        if (rs.msg.creditEp != kInvalidEp) {
            sendCreditReturn(rs.msg.srcTile, rs.msg.creditEp);
            creditsReclaimed_->inc();
            n++;
        }
        rs = RecvSlot{};
    }
    return n;
}

bool
Dtu::deviceMessage(EpId rep, std::vector<std::uint8_t> payload,
                   std::uint64_t label)
{
    Endpoint &ep = epMut(rep);
    if (ep.kind != EpKind::Receive)
        sim::panic("%s: deviceMessage to non-recv EP %u",
                   name().c_str(), rep);
    if (payload.size() > ep.recv.slotSize)
        return false;
    int slot = ep.recv.freeSlot();
    if (slot < 0)
        return false;
    RecvSlot &rs = ep.recv.slots[static_cast<std::size_t>(slot)];
    rs.occupied = true;
    rs.unread = true;
    rs.msg = Message{};
    rs.msg.label = label;
    rs.msg.srcTile = tile_;
    rs.msg.payload = noc_.payloadPool().adopt(std::move(payload));
    rs.msg.seq = nextSeq_++;
    rs.msg.arrival = eq_.now();
    msgsRecv_->inc();
    onMessageStored(rep, ep.act);
    notifyMsg(rep, ep.act);
    return true;
}

void
Dtu::notifyMsg(EpId ep, ActId act)
{
    if (msgNotify_)
        msgNotify_(ep, act);
}

//
// NoC interface.
//

bool
Dtu::acceptPacket(noc::Packet &pkt, sim::UniqueFunction<void()> on_space)
{
    (void)on_space;
    if (pkt.corrupted) {
        // The link CRC failed: discard the packet. In reliable mode
        // the sender's retransmission recovers it.
        corruptDropped_->inc();
        noc::Packet consumed = std::move(pkt);
        return true;
    }
    auto *wd = dynamic_cast<WireData *>(pkt.data.get());
    if (!wd)
        sim::panic("%s: foreign packet payload", name().c_str());
    noc::TileId src = pkt.src;
    // Take ownership; process after the rx pipeline delay.
    auto owned = std::unique_ptr<WireData>(
        static_cast<WireData *>(pkt.data.release()));
    noc::Packet consumed = std::move(pkt);
    eq_.schedule(clk_.cyclesToTicks(kRxProcess),
                 [this, src, owned = std::move(owned)]() mutable {
                     handlePacket(*owned, src);
                 });
    return true;
}

void
Dtu::deliverLocal(std::unique_ptr<WireData> wd)
{
    eq_.schedule(clk_.cyclesToTicks(kLoopback),
                 [this, wd = std::move(wd)]() mutable {
                     handlePacket(*wd, tile_);
                 });
}

void
Dtu::sendPacket(noc::TileId dst, std::unique_ptr<WireData> wd)
{
    if (reliable_ && isRetxKind(wd->kind) && wd->seq == 0) {
        // First transmission of a reliable request: stamp the wire
        // sequence number, keep a reference-holding copy, and arm the
        // retx timer. The saved WireData shares the payload extent
        // with the transmitted packet — corruption on the wire
        // mutates a COW view, so this original stays clean.
        wd->seq = wireSeq_++;
        Retx r;
        r.seq = wd->seq;
        r.dst = dst;
        r.wd = *wd;
        retx_.push_back(std::move(r));
        armRetxTimer(wd->seq);
    }
    noc::Packet pkt;
    pkt.src = tile_;
    pkt.dst = dst;
    pkt.bytes = wd->wireBytes();
    pkt.data = std::move(wd);
    txQueue_.push_back(std::move(pkt));
    pumpTx();
}

bool
Dtu::isRetxKind(WireKind k)
{
    switch (k) {
      case WireKind::MsgXfer:
      case WireKind::CreditReturn:
      case WireKind::MemReadReq:
      case WireKind::MemWriteReq:
      case WireKind::ExtReq:
        return true;
      default:
        return false;
    }
}

Dtu::Retx *
Dtu::findRetx(std::uint64_t seq)
{
    for (Retx &r : retx_)
        if (r.seq == seq)
            return &r;
    return nullptr;
}

void
Dtu::eraseRetx(std::uint64_t seq)
{
    for (std::size_t i = 0; i < retx_.size(); i++) {
        if (retx_[i].seq != seq)
            continue;
        if (i + 1 != retx_.size())
            retx_[i] = std::move(retx_.back());
        retx_.pop_back();
        return;
    }
}

void
Dtu::armRetxTimer(std::uint64_t seq)
{
    Retx *r = findRetx(seq);
    if (r == nullptr)
        return;
    sim::Cycles to = timing_.retxTimeoutCycles << r->attempts;
    r->timer = eq_.schedule(clk_.cyclesToTicks(to),
                            [this, seq]() { retxTimeout(seq); });
}

void
Dtu::retxTimeout(std::uint64_t seq)
{
    Retx *r = findRetx(seq);
    if (r == nullptr)
        return;
    if (r->attempts + 1 >= timing_.retxMaxAttempts) {
        // Give up: surface Error::Timeout to whoever is waiting. For
        // MsgXfer the inflight completion restores the send credit; a
        // lost CreditReturn has no waiter (the credit is gone until
        // the controller reclaims it).
        std::uint64_t req_id = r->wd.reqId;
        WireKind kind = r->wd.kind;
        if (kind == WireKind::CreditReturn) {
            lostCreditReturns_[(static_cast<std::uint64_t>(r->dst)
                                << 32) |
                               r->wd.creditEp]++;
        }
        eraseRetx(seq);
        timeouts_->inc();
        trc_->instant(sim::TraceCat::Dtu, tile_, sim::kTraceTidDtu,
                      "retx_timeout");
        if (kind == WireKind::CreditReturn)
            return;
        Inflight inf;
        if (!takeInflight(req_id, inf))
            return;
        completeInflight(std::move(inf), Error::Timeout, nullptr);
        return;
    }
    r->attempts++;
    retransmits_->inc();
    trc_->instant(sim::TraceCat::Dtu, tile_, sim::kTraceTidDtu,
                  "retransmit");
    // The retransmitted packet is a fresh header sharing the saved
    // payload extent (a refcount bump, not a byte copy).
    auto copy = std::make_unique<WireData>(r->wd);
    noc::Packet pkt;
    pkt.src = tile_;
    pkt.dst = r->dst;
    pkt.bytes = copy->wireBytes();
    pkt.data = std::move(copy);
    txQueue_.push_back(std::move(pkt));
    pumpTx();
    armRetxTimer(seq);
}

void
Dtu::retxComplete(std::uint64_t seq)
{
    if (!reliable_ || seq == 0)
        return;
    Retx *r = findRetx(seq);
    if (r == nullptr)
        return;
    r->timer.cancel();
    eraseRetx(seq);
}

void
Dtu::rememberOutcome(noc::TileId src, std::uint64_t seq, Error e)
{
    auto &window = seen_[src];
    window.push_back(SeenEntry{seq, e});
    if (window.size() > kSeenWindow)
        window.pop_front();
}

const Error *
Dtu::findOutcome(noc::TileId src, std::uint64_t seq) const
{
    auto it = seen_.find(src);
    if (it == seen_.end())
        return nullptr;
    const auto &window = it->second;
    for (std::size_t i = 0; i < window.size(); i++)
        if (window[i].seq == seq)
            return &window[i].outcome;
    return nullptr;
}

void
Dtu::pumpTx()
{
    while (!txQueue_.empty()) {
        noc::Packet &head = txQueue_.front();
        if (!noc_.inject(head, [this]() { pumpTx(); }))
            return;
        txQueue_.pop_front();
    }
}

void
Dtu::respond(noc::TileId dst, std::unique_ptr<WireData> wd)
{
    if (dst == tile_) {
        deliverLocal(std::move(wd));
    } else {
        sendPacket(dst, std::move(wd));
    }
}

void
Dtu::handlePacket(WireData &wd, noc::TileId src)
{
    switch (wd.kind) {
      case WireKind::MsgXfer:
        handleMsgXfer(wd, src);
        break;

      case WireKind::MsgDelivered:
      case WireKind::MsgNack: {
        retxComplete(wd.seq);
        Inflight inf;
        if (!takeInflight(wd.reqId, inf)) {
            // Duplicate response (the request was retransmitted but
            // the first response got through) or a late response
            // after retx exhaustion. Only legal in reliable mode.
            if (!reliable_)
                sim::panic("%s: stray delivery ack", name().c_str());
            straysDropped_->inc();
            break;
        }
        completeInflight(std::move(inf),
                         wd.kind == WireKind::MsgNack ? wd.error
                                                      : Error::None,
                         &wd);
        break;
      }

      case WireKind::CreditReturn: {
        if (reliable_ && wd.seq != 0) {
            if (findOutcome(src, wd.seq)) {
                duplicates_->inc();
            } else {
                rememberOutcome(src, wd.seq, Error::None);
                addCredit(wd.creditEp);
            }
            // Always (re-)acknowledge so the sender stops resending.
            auto ca = std::make_unique<WireData>();
            ca->kind = WireKind::CreditAck;
            ca->reqId = wd.reqId;
            ca->seq = wd.seq;
            respond(src, std::move(ca));
        } else {
            addCredit(wd.creditEp);
        }
        break;
      }

      case WireKind::CreditAck:
        retxComplete(wd.seq);
        break;

      case WireKind::MemReadReq: {
        // Core tiles do not serve memory requests (memory tiles do,
        // see MemoryTile); report a fault to the requester.
        auto resp = std::make_unique<WireData>();
        resp->kind = WireKind::MemReadResp;
        resp->reqId = wd.reqId;
        resp->seq = wd.seq;
        resp->error = Error::PmpFault;
        respond(src, std::move(resp));
        break;
      }

      case WireKind::MemWriteReq: {
        auto resp = std::make_unique<WireData>();
        resp->kind = WireKind::MemWriteAck;
        resp->reqId = wd.reqId;
        resp->seq = wd.seq;
        resp->error = Error::PmpFault;
        respond(src, std::move(resp));
        break;
      }

      case WireKind::MemReadResp:
      case WireKind::MemWriteAck:
      case WireKind::ExtResp: {
        retxComplete(wd.seq);
        Inflight inf;
        if (!takeInflight(wd.reqId, inf)) {
            if (!reliable_)
                sim::panic("%s: stray response", name().c_str());
            straysDropped_->inc();
            break;
        }
        completeInflight(std::move(inf), wd.error, &wd);
        break;
      }

      case WireKind::ExtReq: {
        sim::Cycles cost =
            kExtPerEp * std::max<std::uint16_t>(1, wd.epCount);
        // Copy the fields we need; wd dies with the caller's frame.
        auto req = std::make_unique<WireData>(std::move(wd));
        eq_.schedule(clk_.cyclesToTicks(cost),
                     [this, src, req = std::move(req)]() mutable {
            auto resp = std::make_unique<WireData>();
            resp->kind = WireKind::ExtResp;
            resp->reqId = req->reqId;
            resp->seq = req->seq;
            switch (req->extOp) {
              case ExtOp::SetEp:
                configEp(req->epStart, std::move(req->eps.at(0)));
                break;
              case ExtOp::InvEp:
                invalidateEp(req->epStart);
                break;
              case ExtOp::ReadEps:
                for (EpId i = 0; i < req->epCount; i++)
                    resp->eps.push_back(
                        eps_.at(req->epStart + i));
                break;
              case ExtOp::WriteEps:
                for (EpId i = 0;
                     i < req->epCount && i < req->eps.size(); i++)
                    eps_.at(req->epStart + i) =
                        std::move(req->eps[i]);
                break;
            }
            respond(src, std::move(resp));
        });
        break;
      }
    }
}

void
Dtu::addCredit(EpId credit_ep)
{
    if (credit_ep >= eps_.size())
        return;
    Endpoint &sep = eps_[credit_ep];
    if (sep.kind == EpKind::Send &&
        sep.send.credits < sep.send.maxCredits)
        sep.send.credits++;
}

void
Dtu::handleMsgXfer(WireData &wd, noc::TileId src)
{
    if (reliable_ && wd.seq != 0) {
        if (const Error *out = findOutcome(src, wd.seq)) {
            // Retransmitted copy of a message we already processed:
            // do not store it again, just re-send the old response.
            duplicates_->inc();
            auto resp = std::make_unique<WireData>();
            resp->kind = *out == Error::None ? WireKind::MsgDelivered
                                             : WireKind::MsgNack;
            resp->reqId = wd.reqId;
            resp->seq = wd.seq;
            resp->error = *out;
            respond(src, std::move(resp));
            return;
        }
    }

    auto nack = [&](Error e) {
        if (reliable_ && wd.seq != 0)
            rememberOutcome(src, wd.seq, e);
        auto resp = std::make_unique<WireData>();
        resp->kind = WireKind::MsgNack;
        resp->reqId = wd.reqId;
        resp->seq = wd.seq;
        resp->error = e;
        respond(src, std::move(resp));
    };

    if (wd.dstEp >= eps_.size())
        return nack(Error::RecvGone);
    Endpoint &rep = eps_[wd.dstEp];
    if (rep.kind != EpKind::Receive)
        return nack(Error::RecvGone);
    if (Error e = checkIncoming(wd.dstEp, rep, wd); e != Error::None)
        return nack(e);
    if (wd.msg.payload.size() > rep.recv.slotSize)
        return nack(Error::MsgTooBig);
    int slot = rep.recv.freeSlot();
    if (slot < 0)
        return nack(Error::RecvGone);

    RecvSlot &rs = rep.recv.slots[static_cast<std::size_t>(slot)];
    rs.occupied = true;
    rs.unread = true;
    // Zero-copy hand-off: the wire's extent becomes the slot's.
    rs.msg = std::move(wd.msg);
    rs.msg.seq = nextSeq_++;
    rs.msg.arrival = eq_.now();
    msgsRecv_->inc();

    if (reliable_ && wd.seq != 0)
        rememberOutcome(src, wd.seq, Error::None);
    auto resp = std::make_unique<WireData>();
    resp->kind = WireKind::MsgDelivered;
    resp->reqId = wd.reqId;
    resp->seq = wd.seq;
    respond(src, std::move(resp));

    onMessageStored(wd.dstEp, rep.act);
    notifyMsg(wd.dstEp, rep.act);
}

//
// Default (non-virtualized) policy hooks.
//

Error
Dtu::checkEpAccess(ActId, const Endpoint &) const
{
    return Error::None;
}

Error
Dtu::translate(ActId, VirtAddr buf, bool, PhysAddr &phys)
{
    phys = buf;
    return Error::None;
}

void
Dtu::onMessageStored(EpId, ActId)
{
}

void
Dtu::onMessageFetched(EpId, ActId)
{
}

Error
Dtu::checkIncoming(EpId, const Endpoint &, const WireData &) const
{
    return Error::None;
}

//
// Invariant registration (tests only).
//

void
registerDtuInvariants(sim::Invariants &inv,
                      std::vector<const Dtu *> dtus)
{
    inv.addCheck("dtu.local_laws", [dtus](sim::Invariants &v) {
        for (const Dtu *d : dtus) {
            for (EpId i = 0; i < kNumEps; i++) {
                const Endpoint &e = d->ep(i);
                if (e.kind == EpKind::Send) {
                    if (e.send.credits > e.send.maxCredits)
                        v.fail("%s: send ep %u holds %u credits, max "
                               "%u",
                               d->name().c_str(), i, e.send.credits,
                               e.send.maxCredits);
                } else if (e.kind == EpKind::Receive) {
                    for (std::size_t s = 0; s < e.recv.slots.size();
                         s++) {
                        const RecvSlot &rs = e.recv.slots[s];
                        if (rs.unread && !rs.occupied)
                            v.fail("%s: recv ep %u slot %zu unread "
                                   "but not occupied",
                                   d->name().c_str(), i, s);
                    }
                }
            }
        }
    });

    inv.addCheck("dtu.slab_conservation", [dtus](sim::Invariants &v) {
        // Distinct pools (a differential rig runs two platforms).
        std::vector<const sim::SlabPool *> pools;
        for (const Dtu *d : dtus) {
            const sim::SlabPool *p = &d->payloadPool();
            if (std::find(pools.begin(), pools.end(), p) ==
                pools.end())
                pools.push_back(p);
        }
        for (const sim::SlabPool *p : pools) {
            sim::SlabPool::Stats s = p->stats();
            if (s.allocated != s.live + s.free)
                v.fail("slab pool accounting broken: allocated %zu "
                       "!= live %zu + free %zu",
                       s.allocated, s.live, s.free);
            if (s.staleReleases != 0)
                v.fail("slab pool saw %llu stale releases "
                       "(double-release or use-after-free handle)",
                       static_cast<unsigned long long>(
                           s.staleReleases));
        }
    });

    inv.addCheck(
        "dtu.slab_no_leak",
        [dtus](sim::Invariants &v) {
            // At quiescence the only legitimate extent holders are
            // occupied receive slots (engines drained, no packets in
            // flight, retx empty): live extents must match exactly.
            std::vector<const sim::SlabPool *> pools;
            for (const Dtu *d : dtus) {
                const sim::SlabPool *p = &d->payloadPool();
                if (std::find(pools.begin(), pools.end(), p) ==
                    pools.end())
                    pools.push_back(p);
            }
            for (const sim::SlabPool *p : pools) {
                std::size_t held = 0;
                for (const Dtu *d : dtus) {
                    if (&d->payloadPool() != p)
                        continue;
                    for (EpId i = 0; i < kNumEps; i++) {
                        const Endpoint &e = d->ep(i);
                        if (e.kind != EpKind::Receive)
                            continue;
                        for (const RecvSlot &rs : e.recv.slots)
                            if (rs.occupied &&
                                rs.msg.payload.valid())
                                held++;
                    }
                }
                sim::SlabPool::Stats s = p->stats();
                if (s.live != held)
                    v.fail("slab pool leaked extents: %zu live but "
                           "only %zu held by receive slots",
                           s.live, held);
            }
        },
        sim::Invariants::When::QuiescentOnly);

    inv.addCheck(
        "dtu.engines_drained",
        [dtus](sim::Invariants &v) {
            for (const Dtu *d : dtus)
                if (!d->engineQuiescent())
                    v.fail("%s: tx/inflight/retx/cmd engine busy at "
                           "quiescence",
                           d->name().c_str());
        },
        sim::Invariants::When::QuiescentOnly);

    inv.addCheck(
        "dtu.credit_conservation",
        [dtus](sim::Invariants &v) {
            for (const Dtu *d : dtus) {
                for (EpId i = 0; i < kNumEps; i++) {
                    const Endpoint &e = d->ep(i);
                    if (e.kind != EpKind::Send || e.send.isReply ||
                        e.send.maxCredits == 0)
                        continue;
                    // Credits held by this channel's undelivered
                    // (unacknowledged) messages: occupied remote
                    // slots attributed by (srcTile, creditEp).
                    std::uint64_t held = 0;
                    std::uint64_t lost = 0;
                    for (const Dtu *r : dtus) {
                        for (EpId j = 0; j < kNumEps; j++) {
                            const Endpoint &re = r->ep(j);
                            if (re.kind != EpKind::Receive)
                                continue;
                            for (const RecvSlot &rs : re.recv.slots)
                                if (rs.occupied &&
                                    rs.msg.srcTile == d->tileId() &&
                                    rs.msg.creditEp == i)
                                    held++;
                        }
                        lost += r->lostCreditReturns(d->tileId(), i);
                    }
                    std::uint64_t avail = e.send.credits;
                    std::uint64_t slack =
                        d->timeoutCreditRestores(i);
                    std::uint64_t max = e.send.maxCredits;
                    if (avail + held > max + slack ||
                        avail + held + lost < max)
                        v.fail("%s: send ep %u credit imbalance: "
                               "avail %llu + held %llu vs max %llu "
                               "(lost %llu, timeout restores %llu)",
                               d->name().c_str(), i,
                               static_cast<unsigned long long>(avail),
                               static_cast<unsigned long long>(held),
                               static_cast<unsigned long long>(max),
                               static_cast<unsigned long long>(lost),
                               static_cast<unsigned long long>(
                                   slack));
                }
            }
        },
        sim::Invariants::When::QuiescentOnly);
}

} // namespace m3v::dtu
