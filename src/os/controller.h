/**
 * @file
 * The M3v communication controller (paper section 3.3): the software
 * component that knows all activities, owns the capability system,
 * and is the only entity allowed to establish communication channels
 * (by configuring DTU endpoints through the external interface).
 *
 * Activities reach it via system calls — ordinary DTU messages on the
 * controller's syscall receive endpoint; the message label identifies
 * the calling activity. Each controller instance is single-threaded
 * and handles system calls strictly in order, which is precisely why
 * the remote multiplexing of M3x (which funnels *every* context
 * switch through it) does not scale, and why M3v (which only needs it
 * for channel setup) does.
 *
 * For large platforms the controller itself is sharded (DESIGN.md
 * section 4i): one instance per tile quadrant, each owning the
 * capability tables of the activities homed in its quadrant. A
 * syscall whose operands live on another shard is forwarded over the
 * cross-shard controller protocol (shard.h) — ordinary DTU messages
 * between controller tiles with the PR 6 retry/timeout discipline.
 * While a controller waits for a peer's reply it keeps servicing
 * incoming peer requests, so two shards calling into each other
 * cannot deadlock. A single controller is simply one shard with an
 * empty peer set: the same main loop, syscall body and revoke path.
 */

#ifndef M3VSIM_OS_CONTROLLER_H_
#define M3VSIM_OS_CONTROLLER_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "os/caps.h"
#include "os/env.h"
#include "os/proto.h"
#include "os/shard.h"
#include "sim/overload.h"
#include "sim/stats.h"

namespace m3v::os {

/** "No tile" sentinel in the flat activity registry. */
constexpr noc::TileId kNoTile = ~0u;

/**
 * First ActId handed out by CreateAct (controller-side activity
 * records without an execution context, used by control-plane
 * storms). Kept far above the ids the system builder allocates.
 */
constexpr dtu::ActId kStormActBase = 8192;

/** The controller's syscall receive endpoint. */
constexpr dtu::EpId kSyscallRep = 4;

/** Receive EP for requests from peer controller shards. */
constexpr dtu::EpId kCtrlReqRep = 6;

/** Receive EP for replies to this shard's own peer requests. */
constexpr dtu::EpId kCtrlReplyRep = 7;

/** Fixed syscall decode/dispatch cost (controller-core cycles). */
constexpr sim::Cycles kDispatchCost = 120;

/** Capability-table manipulation cost per touched cap. */
constexpr sim::Cycles kCapCost = 150;

/** Reply deadline per cross-shard call attempt. */
constexpr sim::Tick kXshardTimeout = 200 * sim::kTicksPerUs;

/** Send attempts per cross-shard call before giving up. */
constexpr unsigned kXshardRetries = 3;

/** Controller parameters. */
struct ControllerParams
{
    /** Admission control over the syscall ring (default off). */
    sim::AdmissionParams admission;
};

/** One communication controller shard. */
class Controller
{
  public:
    Controller(BareEnv &env, CapMgr &caps, const DtuMap &dtus,
               ControllerParams params = {}, ShardMap shard_map = {},
               unsigned shard = 0);

    BareEnv &env() { return *env_; }
    CapMgr &caps() { return *caps_; }
    const ControllerParams &params() const { return params_; }
    unsigned shard() const { return shard_; }
    const ShardMap &shardMap() const { return shardMap_; }

    //
    // Boot-time (untimed) capability grants, used by the system
    // builder to set up the initial environment — analogous to the
    // boot modules the real M3 controller starts with.
    //

    CapSel grantMem(dtu::ActId act, MemObj mem);
    CapSel grantActivity(dtu::ActId holder, ActObj obj);
    CapSel grantRgate(dtu::ActId act, RgateObj obj);
    CapSel grantSgate(dtu::ActId act, SgateObj obj);

    /** Record an activity so syscalls can resolve it. */
    void registerActivity(dtu::ActId id, noc::TileId tile);

    /** Register the send EP used for sidecalls to @p tile. */
    void setSidecallChannel(noc::TileId tile, dtu::EpId sep);

    /** Register the EP sidecall replies arrive on. */
    void setSidecallReplyEp(dtu::EpId rep);

    /** Register the send EP used to reach peer shard @p shard. */
    void setPeerChannel(unsigned shard, dtu::EpId sep);

    /** The controller's main loop (runs as the bare tile's thread). */
    sim::Task run();

    /** Stop the main loop after the current syscall. */
    void stop() { running_ = false; }

    /**
     * Reap a crashed or watchdog-killed activity (the TileMux crash
     * upcall lands here): invalidate every endpoint the activity owns
     * on its tile — reclaiming the flow-control credits of messages
     * stuck in its receive endpoints so surviving senders are not
     * wedged — and revoke its whole capability table, invalidating
     * any endpoints those capabilities were activated into elsewhere.
     * Cross-shard derivation edges of the dropped caps are severed
     * with one-way notifications (the peer revokes its side on
     * receipt). Modelled as privileged cleanup outside the syscall
     * loop; the credit-return packets it triggers travel the NoC as
     * usual.
     */
    void reapActivity(dtu::ActId id);

    std::uint64_t syscallsHandled() const
    {
        return syscalls_->value();
    }
    std::uint64_t activitiesReaped() const { return reaps_->value(); }
    std::uint64_t creditsReclaimed() const
    {
        return reclaimed_->value();
    }

    //
    // Cross-shard protocol accounting (conservation invariants).
    //

    std::uint64_t xshardSent() const { return xsent_->value(); }
    std::uint64_t xshardAcked() const { return xacked_->value(); }
    std::uint64_t xshardTimeouts() const { return xtimeouts_->value(); }
    std::uint64_t xshardHandled() const { return xhandled_->value(); }
    std::uint64_t onewaySent() const { return xonewaySent_->value(); }
    std::uint64_t onewayHandled() const { return xonewayHandled_->value(); }
    std::uint64_t onewayDropped() const { return xonewayDropped_->value(); }
    std::size_t pendingObtains() const
    {
        return pendingObtains_.size();
    }

    /** Admission decision state (shed/admit counters). */
    const sim::Admission &admission() const { return admission_; }

  private:
    /** An obtain whose destination selector is reserved but whose cap
     *  is still in flight from the source shard; a concurrent revoke
     *  kills it by setting @p killed. */
    struct PendingObtain
    {
        dtu::ActId act = dtu::kInvalidAct;
        CapSel sel = kInvalidSel;
        bool killed = false;
    };

    sim::Task handle(dtu::ActId caller, const SyscallReq &req,
                     SyscallResp *resp);
    sim::Task configRemoteEp(noc::TileId tile, dtu::EpId ep,
                             dtu::Endpoint ndep, dtu::Error *err);
    sim::Task invalidateRemoteEp(noc::TileId tile, dtu::EpId ep);
    dtu::Endpoint endpointFor(const KObject &obj, dtu::ActId owner);
    sim::Task sidecall(noc::TileId tile, SidecallReq req,
                       SidecallResp *resp);

    //
    // Cross-shard protocol.
    //

    /**
     * RPC to a peer shard: send with a fresh nonce, poll for the
     * matching reply, service incoming peer requests while waiting
     * (deadlock avoidance), retransmit on timeout (the receiver
     * dedups by nonce). Sets *ok=false when every attempt timed out.
     */
    sim::Task ctrlCall(unsigned shard, CtrlReq req, CtrlResp *resp,
                       bool *ok);

    /** Fire-and-forget notification to a peer shard. */
    void ctrlOneway(unsigned shard, CtrlReq req);

    /** Service one request from the peer-request EP. */
    sim::Task handleCtrlReq(int slot);

    /**
     * Two-phase revoke of the subtree rooted at (act, sel): mark the
     * local part, revoke remote children over the wire, reap the
     * marked caps (invalidating activated EPs), and release the share
     * record at the root's remote parent — unless that parent is
     * @p requester (the caller is reaping it already).
     */
    sim::Task revokeTree(dtu::ActId act, CapSel sel, bool keep_root,
                         const RemoteRef &requester,
                         std::size_t *removed);

    std::uint64_t makeNonce();
    bool takeStash(std::uint64_t nonce, CtrlResp *resp);
    void remember(std::uint64_t nonce, const CtrlResp &resp);
    const CtrlResp *recallDup(std::uint64_t nonce) const;
    noc::TileId actTile(dtu::ActId id) const;
    dtu::ActId allocActId();
    PendingObtain takePendingObtain(dtu::ActId act, CapSel sel);

    BareEnv *env_;
    CapMgr *caps_;
    const DtuMap *dtus_;
    ControllerParams params_;
    ShardMap shardMap_;
    unsigned shard_ = 0;

    bool running_ = true;
    /** Activity home tiles, ActId-indexed (kNoTile = unregistered). */
    std::vector<noc::TileId> actTiles_;
    /** Sidecall send EPs, TileId-indexed (kInvalidEp = none). */
    std::vector<dtu::EpId> sidecallSeps_;
    dtu::EpId sidecallRep_ = dtu::kInvalidEp;
    /** Peer-shard send EPs, shard-indexed (kInvalidEp = none). */
    std::vector<dtu::EpId> peerSeps_;
    /** Receive EPs the main loop polls, highest priority first. */
    std::vector<dtu::EpId> pollEps_;

    /** Replies fetched while polling for a different nonce (a nested
     *  service loop drained them); consumed by their own call. */
    std::vector<std::pair<std::uint64_t, Bytes>> replyStash_;
    /** Recent (nonce, reply) pairs for request dedup on retx. */
    std::vector<std::pair<std::uint64_t, CtrlResp>> recent_;
    std::vector<PendingObtain> pendingObtains_;
    std::uint64_t nonceCtr_ = 0;

    /** CreateAct id allocation (interleaved across shards). */
    dtu::ActId nextLocalAct_ = 0;
    std::vector<dtu::ActId> freeActs_;

    sim::Counter *syscalls_;
    sim::Counter *reaps_;
    sim::Counter *reclaimed_;
    sim::Counter *xsent_;
    sim::Counter *xacked_;
    sim::Counter *xtimeouts_;
    sim::Counter *xhandled_;
    sim::Counter *xonewaySent_;
    sim::Counter *xonewayHandled_;
    sim::Counter *xonewayDropped_;
    sim::Admission admission_;
};

} // namespace m3v::os

#endif // M3VSIM_OS_CONTROLLER_H_
