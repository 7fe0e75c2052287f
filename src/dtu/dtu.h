/**
 * @file
 * The data transfer unit (DTU): the per-tile hardware component for
 * cross-tile messaging and memory access (paper section 2.1).
 *
 * This class implements the plain (non-virtualized) DTU of M3/M3x:
 *  - the *unprivileged interface*: SEND/REPLY/READ/WRITE commands
 *    (one check -> DMA -> launch pipeline that runs one command at a
 *    time) plus the register-level FETCH/ACK operations;
 *  - the *external interface*: endpoint configuration by the
 *    controller, locally or over the NoC (ExtReq packets), including
 *    the ReadEps/WriteEps bulk operations M3x uses to save/restore
 *    DTU state on remote context switches;
 *  - credit-based flow control between send and receive endpoints,
 *    with credits returned on acknowledgement;
 *  - one-shot reply permissions stored with each received message.
 *
 * The vDTU of M3v (src/core/vdtu.h) subclasses this and adds the
 * privileged interface: activity-tagged endpoint protection, the
 * CUR_ACT register, a software-loaded TLB, PMP, and core requests.
 *
 * Addresses passed to commands are *buffer* addresses used only for
 * protection checks and timing; payload bytes travel alongside
 * (content and timing are decoupled, see DESIGN.md).
 *
 * Zero-copy message path (DESIGN.md section 4g): payloads are
 * reference-counted extents in the platform's slab pool
 * (sim/slab_pool.h). A SEND hands its extent to the wire packet, the
 * packet hands it to the receive-ring slot, and the retransmission
 * engine keeps the message alive by holding a second reference — no
 * intermediate memcpy anywhere. Because the command pipeline is
 * fully serialized (one command owns the engine from enqueue to
 * completion callback), all per-command state lives in a single
 * member struct and the stage closures capture nothing but `this`,
 * which keeps the steady-state send path free of heap allocation
 * (asserted by tests/dtu/msgpath_test.cc).
 */

#ifndef M3VSIM_DTU_DTU_H_
#define M3VSIM_DTU_DTU_H_

#include <unordered_map>
#include <vector>

#include "dtu/ep.h"
#include "dtu/message.h"
#include "dtu/types.h"
#include "dtu/wire.h"
#include "noc/noc.h"
#include "sim/clock.h"
#include "sim/event_queue.h"
#include "sim/ring_deque.h"
#include "sim/sim_object.h"
#include "sim/slab_pool.h"
#include "sim/stats.h"
#include "sim/trace.h"

namespace m3v::dtu {

//
// DTU-internal costs (cycles at the tile clock).
//

/** Command decode and EP checks. */
constexpr sim::Cycles kCmdDecode = 30;

/** TLB lookup (vDTU only; checked once per command). */
constexpr sim::Cycles kTlbLookup = 2;

/** Fixed cost of a DMA access to the core's cache/memory. */
constexpr sim::Cycles kLocalMemFixed = 18;

/** DMA bandwidth to the core's cache. */
constexpr std::size_t kLocalMemBytesPerCycle = 16;

/** Receive-side packet processing. */
constexpr sim::Cycles kRxProcess = 24;

/** Applying an external (controller) request, per endpoint. */
constexpr sim::Cycles kExtPerEp = 12;

/** Internal loopback latency for tile-local delivery. */
constexpr sim::Cycles kLoopback = 16;

/** Reliable-mode retransmission parameters. */
struct DtuTiming
{
    /**
     * Reliable mode only: initial retransmission timeout in DTU
     * cycles. Doubles per attempt (bounded exponential backoff).
     */
    sim::Cycles retxTimeoutCycles = 2000;

    /** Reliable mode only: attempts before Error::Timeout. */
    unsigned retxMaxAttempts = 8;
};

/** The per-tile data transfer unit. */
class Dtu : public sim::SimObject, public noc::HopTarget
{
  public:
    using CmdCallback = sim::UniqueFunction<void(Error)>;
    using ReadCallback =
        sim::UniqueFunction<void(Error, std::vector<std::uint8_t>)>;
    using ExtCallback =
        sim::UniqueFunction<void(Error, std::vector<Endpoint>)>;

    Dtu(sim::EventQueue &eq, std::string name, noc::Noc &noc,
        noc::TileId tile, std::uint64_t freq_hz,
        DtuTiming timing = {});

    noc::TileId tileId() const { return tile_; }
    const DtuTiming &timing() const { return timing_; }
    const sim::Clock &clock() const { return clk_; }

    /** The platform's shared payload-extent pool (owned by the NoC). */
    sim::SlabPool &payloadPool() { return noc_.payloadPool(); }
    const sim::SlabPool &payloadPool() const
    {
        return noc_.payloadPool();
    }

    //
    // External interface (controller side).
    //

    /** Install an endpoint locally (controller tile / tests). */
    void configEp(EpId id, Endpoint ep);

    /** Invalidate an endpoint locally. */
    void invalidateEp(EpId id);

    /** Inspect an endpoint (simulation-level access). */
    const Endpoint &ep(EpId id) const;

    /**
     * Send an external request to the DTU of @p dst over the NoC and
     * invoke @p cb with the response. Used by the controller to
     * manage remote endpoints and by M3x to save/restore DTU state.
     */
    void extRequest(noc::TileId dst, ExtOp op, EpId ep_start,
                    std::vector<Endpoint> eps, std::uint16_t count,
                    ExtCallback cb);

    //
    // Unprivileged interface: commands (serialized pipeline).
    //

    /**
     * SEND: transfer @p payload from buffer @p buf through send
     * endpoint @p ep_id; replies (if any) arrive at @p reply_ep.
     * @p nonce is stamped into the message and echoed back by the
     * receiver's REPLY (see Message::nonce); 0 means "unused".
     *
     * The byte-vector overload adopts the buffer into the payload
     * pool (a move, not a copy). cmdSendRef takes a pooled extent
     * directly — the allocation-free path (pool().make() + fill, or
     * forwarding a received payload).
     */
    void cmdSend(ActId act, EpId ep_id, VirtAddr buf,
                 std::vector<std::uint8_t> payload, EpId reply_ep,
                 CmdCallback cb, std::uint64_t nonce = 0);
    void cmdSendRef(ActId act, EpId ep_id, VirtAddr buf,
                    sim::PayloadRef payload, EpId reply_ep,
                    CmdCallback cb, std::uint64_t nonce = 0);

    /**
     * REPLY: consume the one-shot reply permission of the message in
     * @p slot of receive endpoint @p rep_id, acknowledging the slot.
     */
    void cmdReply(ActId act, EpId rep_id, int slot, VirtAddr buf,
                  std::vector<std::uint8_t> payload, CmdCallback cb);
    void cmdReplyRef(ActId act, EpId rep_id, int slot, VirtAddr buf,
                     sim::PayloadRef payload, CmdCallback cb);

    /** READ: DMA @p size bytes at @p offset within memory EP. */
    void cmdRead(ActId act, EpId mep_id, std::uint64_t offset,
                 std::size_t size, VirtAddr buf, ReadCallback cb);

    /** WRITE: DMA @p data to @p offset within memory EP. */
    void cmdWrite(ActId act, EpId mep_id, std::uint64_t offset,
                  std::vector<std::uint8_t> data, VirtAddr buf,
                  CmdCallback cb);

    //
    // Unprivileged interface: register-level operations (no pipeline).
    //

    /**
     * FETCH: pop the oldest unread message of @p rep_id. Returns the
     * slot index or -1. Marks it read.
     */
    int fetch(ActId act, EpId rep_id);

    /** Number of unread messages in a receive endpoint. */
    std::size_t unread(ActId act, EpId rep_id) const;

    /** Access a fetched message (slot must be occupied). */
    const Message &slotMsg(EpId rep_id, int slot) const;

    /** ACK: free the slot and return a credit to the sender. */
    void ack(ActId act, EpId rep_id, int slot);

    /**
     * Privileged cleanup (controller reaping a dead activity): drop
     * every message held in receive endpoint @p rep_id, returning the
     * flow-control credit of each to its sender so surviving clients
     * are not wedged. Returns the number of credits reclaimed.
     */
    std::size_t reclaimCredits(EpId rep_id);

    /**
     * Device-originated local message delivery: a tile-local device
     * (e.g. the NIC) DMAs a frame into a driver mailbox and signals
     * it. Modelled as a direct store into @p rep (the usual counters,
     * core requests and notifications fire). Returns false when no
     * slot is free — the device drops the frame (ring overflow).
     */
    bool deviceMessage(EpId rep, std::vector<std::uint8_t> payload,
                       std::uint64_t label = 0);

    /** True while the command pipeline (or its queue) is busy. */
    bool cmdBusy() const { return cmdBusy_ || !cmdQueue_.empty(); }

    /**
     * True when nothing is in motion: no queued commands, no packets
     * waiting for the NoC, no requests awaiting a response, and no
     * reliable packet in retransmission. Holds for every DTU once the
     * simulation drains (a quiescence invariant, see
     * registerDtuInvariants()).
     */
    bool engineQuiescent() const
    {
        return txQueue_.empty() && inflight_.empty() &&
               retx_.empty() && !cmdBusy();
    }

    /**
     * Reliable mode: times a send through @p ep hit Error::Timeout
     * with the credit restored locally even though the message may
     * have been delivered (the ack was lost). Each such restore can
     * leave the channel holding one credit above its cap until the
     * receiver's slot is acknowledged — the upward slack in the
     * conservation law.
     */
    std::uint64_t timeoutCreditRestores(EpId ep) const
    {
        auto it = timeoutRestores_.find(ep);
        return it == timeoutRestores_.end() ? 0 : it->second;
    }

    /**
     * Reliable mode: CreditReturns from this DTU to send endpoint
     * @p ep on tile @p dst that exhausted retransmission — the credit
     * is permanently lost until the controller reclaims it (the
     * downward slack in the conservation law).
     */
    std::uint64_t lostCreditReturns(noc::TileId dst, EpId ep) const
    {
        auto it = lostCreditReturns_.find(
            (static_cast<std::uint64_t>(dst) << 32) | ep);
        return it == lostCreditReturns_.end() ? 0 : it->second;
    }

    /**
     * Install a notification hook invoked after every stored message
     * with (endpoint, owning activity). Software layers use it to
     * wake threads that poll the DTU for new messages. It rings
     * inline, once per stored message, and schedules no event.
     */
    void
    setMsgNotify(sim::UniqueFunction<void(EpId, ActId)> cb)
    {
        msgNotify_ = std::move(cb);
    }

    // noc::HopTarget
    bool acceptPacket(noc::Packet &pkt,
                      sim::UniqueFunction<void()> on_space) override;

    /**
     * True when the attached NoC carries a fault plan: the wire
     * protocol then runs with sequence numbers, retransmission, and
     * duplicate suppression. Decided once at construction so the
     * fault-free fast path stays branch-identical.
     */
    bool reliable() const { return reliable_; }

    // Statistics (registry-backed, under "<name>.*").
    std::uint64_t msgsSent() const { return msgsSent_->value(); }
    std::uint64_t msgsReceived() const { return msgsRecv_->value(); }
    std::uint64_t nacksReceived() const { return nacks_->value(); }
    std::uint64_t retransmits() const
    {
        return retransmits_->value();
    }
    std::uint64_t timeouts() const { return timeouts_->value(); }
    std::uint64_t duplicatesDropped() const
    {
        return duplicates_->value();
    }
    std::uint64_t corruptDropped() const
    {
        return corruptDropped_->value();
    }
    std::uint64_t straysDropped() const
    {
        return straysDropped_->value();
    }
    std::uint64_t creditsReclaimed() const
    {
        return creditsReclaimed_->value();
    }

  protected:
    /**
     * Ownership / visibility check for an endpoint access by @p act.
     * The plain DTU ignores the activity (M3/M3x semantics: only the
     * current activity's endpoints are installed at all).
     */
    virtual Error checkEpAccess(ActId act, const Endpoint &ep) const;

    /**
     * Translate a buffer address for a command of @p act. The plain
     * DTU uses physical addresses (identity). @p write is the access
     * direction. Returns Error::TlbMiss / PmpFault on failure.
     */
    virtual Error translate(ActId act, VirtAddr buf, bool write,
                            PhysAddr &phys);

    /** Hook: a message was stored into @p ep_id for @p owner. */
    virtual void onMessageStored(EpId ep_id, ActId owner);

    /** Hook: a message was fetched from @p ep_id by @p owner. */
    virtual void onMessageFetched(EpId ep_id, ActId owner);

    /**
     * Hook: may the incoming message for @p ep be stored? The plain
     * DTU accepts any valid receive EP (M3x installs only the current
     * activity's EPs, so "EP invalid" already means "not running").
     */
    virtual Error checkIncoming(EpId ep_id, const Endpoint &ep,
                                const WireData &wire) const;

    Endpoint &epMut(EpId id);

    sim::Clock clk_;

  private:
    /**
     * All state of the command currently owning the pipeline.
     * Because the engine is strictly serialized (cmdBusy_ held from
     * enqueue to completion callback), one member instance suffices
     * and every stage closure captures only `this` — small enough for
     * the UniqueFunction inline buffer, so command dispatch never
     * touches the heap.
     */
    struct CmdState
    {
        enum class Kind : std::uint8_t
        {
            None,
            Send,
            Reply,
            Read,
            Write,
        };

        Kind kind = Kind::None;
        ActId act = kInvalidAct;
        EpId ep = kInvalidEp;        ///< command's endpoint
        int slot = -1;               ///< reply: acked recv slot
        VirtAddr buf = 0;
        sim::PayloadRef payload;     ///< send/reply payload, write data
        EpId replyEp = kInvalidEp;   ///< send
        std::uint64_t nonce = 0;     ///< send
        std::uint64_t offset = 0;    ///< read/write
        std::size_t size = 0;        ///< read/write length
        CmdCallback cb;              ///< send/reply/write completion
        ReadCallback rcb;            ///< read completion
        Error err = Error::None;     ///< read: staged response error
        std::vector<std::uint8_t> readData; ///< read: staged bytes
    };

    /**
     * The one command pipeline, driven by curCmd_.kind:
     * dispatchCmd (trace span, decode + TLB delay) -> checkCmd (EP
     * range, kind and access, cmdChecks, translate; DMA out unless
     * READ) -> launchCmd (wire request, in-flight entry) -> response
     * in completeInflight -> completeCmd.
     */
    void enqueueCmd(CmdState st);
    void dispatchCmd();
    void checkCmd();
    /** The command kind's own checks against its endpoint @p ep. */
    Error cmdChecks(const Endpoint &ep) const;
    void launchCmd();
    void cmdFinished();
    /** Invoke the current command's callback with @p e and advance. */
    void completeCmd(Error e);

    void sendPacket(noc::TileId dst, std::unique_ptr<WireData> wd);
    void handlePacket(WireData &wd, noc::TileId src);
    void handleMsgXfer(WireData &wd, noc::TileId src);
    void deliverLocal(std::unique_ptr<WireData> wd);
    void respond(noc::TileId dst, std::unique_ptr<WireData> wd);
    void sendCreditReturn(noc::TileId dst, EpId credit_ep);
    void addCredit(EpId credit_ep);

    /** Ring the notification hook for a stored message. */
    void notifyMsg(EpId ep, ActId act);

    //
    // Reliable wire protocol (active iff the NoC has a fault plan).
    //
    static bool isRetxKind(WireKind k);
    void armRetxTimer(std::uint64_t seq);
    void retxTimeout(std::uint64_t seq);
    void retxComplete(std::uint64_t seq);
    /** Record the outcome of request @p seq from @p src for dedup. */
    void rememberOutcome(noc::TileId src, std::uint64_t seq, Error e);
    /** Outcome of an already-seen request, or nullptr if fresh. */
    const Error *findOutcome(noc::TileId src, std::uint64_t seq) const;

    noc::Noc &noc_;
    noc::TileId tile_;
    DtuTiming timing_;
    std::vector<Endpoint> eps_;

    bool cmdBusy_ = false;
    CmdState curCmd_;
    sim::RingDeque<CmdState> cmdQueue_;

    std::uint64_t nextReqId_ = 1;
    std::uint64_t nextSeq_ = 1;

    /**
     * An issued request awaiting its response. The engine runs one
     * command at a time, so a command's state (kind, callbacks, staged
     * data) lives in curCmd_ and its entry holds only the request id;
     * an ext request carries its callback instead. Few are ever
     * outstanding: a flat vector with linear scan.
     */
    struct Inflight
    {
        std::uint64_t reqId = 0;
        ExtCallback extCb; ///< ext requests only; empty for commands
    };
    std::vector<Inflight> inflight_;

    bool takeInflight(std::uint64_t req_id, Inflight &out);
    /** Route a response/timeout into the waiting command or extCb. */
    void completeInflight(Inflight inf, Error e, WireData *resp);

    /** Packets waiting to be injected into the NoC. */
    sim::RingDeque<noc::Packet> txQueue_;
    void pumpTx();

    /** Reliable mode: is the wire protocol running with retx? */
    bool reliable_ = false;

    /** Per-DTU wire sequence counter (reliable mode). */
    std::uint64_t wireSeq_ = 1;

    /**
     * An unacknowledged reliable packet awaiting retransmission. The
     * saved WireData shares the payload extent with the transmitted
     * packet (a refcount, not a deep copy); a retransmission bumps it
     * again. Flat vector: few packets are ever outstanding, and
     * steady-state operation must not churn the heap.
     */
    struct Retx
    {
        std::uint64_t seq = 0;
        noc::TileId dst = 0;
        WireData wd;
        unsigned attempts = 0;
        sim::EventHandle timer;
    };
    std::vector<Retx> retx_;

    Retx *findRetx(std::uint64_t seq);
    void eraseRetx(std::uint64_t seq);

    /** Credit-conservation slack bookkeeping (reliable mode only;
     *  see timeoutCreditRestores() / lostCreditReturns()). */
    std::unordered_map<EpId, std::uint64_t> timeoutRestores_;
    std::unordered_map<std::uint64_t, std::uint64_t>
        lostCreditReturns_;

    /** Receiver-side duplicate-suppression window, per source tile. */
    struct SeenEntry
    {
        std::uint64_t seq = 0;
        Error outcome = Error::None;
    };
    static constexpr std::size_t kSeenWindow = 128;
    std::unordered_map<noc::TileId, sim::RingDeque<SeenEntry>> seen_;

    sim::Counter *msgsSent_;
    sim::Counter *msgsRecv_;
    sim::Counter *nacks_;
    sim::Counter *retransmits_;
    sim::Counter *timeouts_;
    sim::Counter *duplicates_;
    sim::Counter *corruptDropped_;
    sim::Counter *straysDropped_;
    sim::Counter *creditsReclaimed_;
    sim::UniqueFunction<void(EpId, ActId)> msgNotify_;

  protected:
    /** Timeline tracer (category-gated; off by default). */
    sim::Tracer *trc_;
};

/**
 * Register the DTU-layer conservation laws over @p dtus with @p inv
 * (tests only):
 *  - per send endpoint, credits never exceed the configured maximum,
 *    and per receive slot, unread implies occupied (every boundary);
 *  - the payload pool's slot accounting balances (allocated ==
 *    live + free) and no stale release was ever observed (every
 *    boundary), and at quiescence every live extent is accounted for
 *    by an occupied receive slot — no extent leaked by the zero-copy
 *    hand-off chain;
 *  - at quiescence every engine has drained (no queued command, tx
 *    packet, in-flight request, or retransmission);
 *  - at quiescence every non-reply send endpoint's credits are
 *    conserved across the system: available + held-in-remote-slots
 *    equals the maximum, with explicit slack for credits lost to
 *    retransmission exhaustion and restored on a timed-out-but-
 *    delivered send (both zero in fault-free runs).
 * All DTUs that exchange traffic must be in @p dtus or the
 * attribution scans under-count held credits and live extents.
 */
void registerDtuInvariants(sim::Invariants &inv,
                           std::vector<const Dtu *> dtus);

} // namespace m3v::dtu

#endif // M3VSIM_DTU_DTU_H_
