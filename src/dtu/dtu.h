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
 * Message payload ownership (DESIGN.md section 4g): a payload is a
 * plain byte vector with one owner at a time. A SEND moves it into
 * the wire packet, the packet moves it into the receive-ring slot,
 * and a READ response's bytes move into the ReadCallback; nothing on
 * the path copies them. Because the command pipeline is fully
 * serialized (one command owns the engine from enqueue to completion
 * callback), all per-command state lives in a single member struct
 * and the stage closures capture nothing but `this`, so the
 * steady-state send path allocates nothing beyond the payload buffer
 * (asserted by tests/dtu/msgpath_test.cc).
 */

#ifndef M3VSIM_DTU_DTU_H_
#define M3VSIM_DTU_DTU_H_

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
        noc::TileId tile, std::uint64_t freq_hz);

    noc::TileId tileId() const { return tile_; }
    const sim::Clock &clock() const { return clk_; }

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
     * receiver's REPLY, so calls sharing one reply EP can tell their
     * replies apart (see Message::nonce); 0 means "unused".
     */
    void cmdSend(ActId act, EpId ep_id, VirtAddr buf,
                 std::vector<std::uint8_t> payload, EpId reply_ep,
                 CmdCallback cb, std::uint64_t nonce = 0);

    /**
     * REPLY: consume the one-shot reply permission of the message in
     * @p slot of receive endpoint @p rep_id, acknowledging the slot.
     */
    void cmdReply(ActId act, EpId rep_id, int slot, VirtAddr buf,
                  std::vector<std::uint8_t> payload, CmdCallback cb);

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
     * waiting for the NoC and no requests awaiting a response. Holds
     * for every DTU once the simulation drains (a quiescence
     * invariant, see registerDtuInvariants()).
     */
    bool engineQuiescent() const
    {
        return txQueue_.empty() && inflight_.empty() && !cmdBusy();
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

    // Statistics (registry-backed, under "<name>.*").
    std::uint64_t msgsSent() const { return msgsSent_->value(); }
    std::uint64_t msgsReceived() const { return msgsRecv_->value(); }
    std::uint64_t nacksReceived() const { return nacks_->value(); }
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
        /** Send/reply/write bytes; read: the staged response. */
        std::vector<std::uint8_t> payload;
        EpId replyEp = kInvalidEp;   ///< send
        std::uint64_t nonce = 0;     ///< send
        std::uint64_t offset = 0;    ///< read/write
        std::size_t size = 0;        ///< read/write length
        CmdCallback cb;              ///< send/reply/write completion
        ReadCallback rcb;            ///< read completion
        Error err = Error::None;     ///< read: staged response error
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

    noc::Noc &noc_;
    noc::TileId tile_;
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
    /** Route a response into the waiting command or extCb. */
    void completeInflight(Inflight inf, Error e, WireData &resp);

    /** Packets waiting to be injected into the NoC. */
    sim::RingDeque<noc::Packet> txQueue_;
    void pumpTx();

    sim::Counter *msgsSent_;
    sim::Counter *msgsRecv_;
    sim::Counter *nacks_;
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
 *  - at quiescence every engine has drained (no queued command, tx
 *    packet or in-flight request);
 *  - at quiescence every non-reply send endpoint's credits are
 *    conserved exactly across the system: available +
 *    held-in-remote-slots equals the maximum.
 * All DTUs that exchange traffic must be in @p dtus or the
 * attribution scan under-counts held credits.
 */
void registerDtuInvariants(sim::Invariants &inv,
                           std::vector<const Dtu *> dtus);

} // namespace m3v::dtu

#endif // M3VSIM_DTU_DTU_H_
