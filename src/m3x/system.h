/**
 * @file
 * The M3x baseline (ATC '19, paper section 2.2): tile multiplexing
 * implemented *remotely* by the single-threaded kernel on the
 * controller tile.
 *
 * Differences from M3v that this module reproduces faithfully:
 *  - The plain DTU holds only the *current* activity's endpoints;
 *    there is no activity tagging and no CUR_ACT register.
 *  - A context switch is a kernel-driven remote transaction: suspend
 *    the tile (stub message), read the old activity's endpoints over
 *    the NoC, write the new activity's endpoints, resume the tile —
 *    four round trips plus kernel bookkeeping, all serialized in one
 *    kernel (the scalability bottleneck of Figure 9).
 *  - Sending to a non-running activity fails ("RecvGone"); the sender
 *    falls back to the *slow path*: it forwards the message to the
 *    kernel, which first schedules the recipient and then delivers
 *    the message (section 2.2).
 *
 * Each tile runs a minimal dispatcher stub (RCTMux in the original
 * system) that saves/restores activities on kernel request and
 * notifies the kernel when the current activity blocks.
 */

#ifndef M3VSIM_M3X_SYSTEM_H_
#define M3VSIM_M3X_SYSTEM_H_

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "dtu/dtu.h"
#include "dtu/memory_tile.h"
#include "noc/noc.h"
#include "os/proto.h"
#include "sim/stats.h"
#include "sim/task.h"
#include "tile/core.h"

namespace m3v::m3x {

using os::Bytes;

/** Core model of every M3x tile (CoreModel names its model with a
 *  std::string, so this is const, not constexpr). */
inline const tile::CoreModel kCoreModel = tile::CoreModel::x86Ooo();

//
// Kernel/stub costs (cycles on the respective cores).
//

/** Kernel: decode + bookkeeping per request. */
constexpr sim::Cycles kKernelHandlerCost = 500;

/** Kernel: scheduling decision per context switch. */
constexpr sim::Cycles kKernelSwitchCost = 800;

/** Stub: save the activity's core state. */
constexpr sim::Cycles kStubSaveCost = 600;

/** Stub: restore core state and return to user. */
constexpr sim::Cycles kStubRestoreCost = 600;

/** Stub handler prologue. */
constexpr sim::Cycles kStubEntryCost = 250;

/** Endpoints saved/restored per activity on a switch. */
constexpr dtu::EpId kEpsPerAct = 8;

/** M3x platform configuration. */
struct M3xParams
{
    unsigned userTiles = 12;
    tile::DramParams dram{};
};

/** Header embedded in every RPC payload (direct or forwarded). */
struct MsgHdr
{
    /** Where the reply should go. */
    noc::TileId replyTile = 0;
    dtu::ActId replyAct = dtu::kInvalidAct;
    dtu::EpId replyEp = dtu::kInvalidEp;
    std::uint64_t label = 0;
};

class M3xSystem;

/** An M3x activity. */
class M3xAct
{
  public:
    enum class State
    {
        Ready,   ///< runnable (kernel's view)
        Current, ///< installed on its tile
        Blocked, ///< waiting for messages
        Dead,
    };

    M3xAct(M3xSystem &sys, tile::Core &core, dtu::ActId id,
           unsigned tile_idx, std::string name);

    dtu::ActId id() const { return id_; }
    unsigned tileIdx() const { return tileIdx_; }
    const std::string &name() const { return name_; }
    tile::Thread &thread() { return thread_; }
    State state() const { return state_; }

    std::function<void()> onExit;

  private:
    friend class M3xSystem;

    M3xSystem &sys_;
    dtu::ActId id_;
    unsigned tileIdx_;
    std::string name_;
    tile::Thread thread_;
    State state_ = State::Ready;

    /** Endpoint image installed while Current (ids 8..8+kEpsPerAct). */
    std::vector<dtu::Endpoint> savedEps_;
    dtu::EpId nextEp_;

    /** Messages awaiting delivery (kernel side). */
    struct PendingMsg
    {
        dtu::EpId ep;
        Bytes payload;
    };
    std::deque<PendingMsg> pending_;

    /** Flow-control counters for stale Blocked detection. */
    std::uint64_t fetched_ = 0;   // activity side
    std::uint64_t delivered_ = 0; // kernel side
};

/** A communication channel (receive endpoint of a server/reply). */
struct M3xChan
{
    M3xAct *owner = nullptr;
    dtu::EpId rep = dtu::kInvalidEp;
};

/** The assembled M3x platform. */
class M3xSystem
{
  public:
    explicit M3xSystem(sim::EventQueue &eq, M3xParams params = {});
    ~M3xSystem();

    M3xSystem(const M3xSystem &) = delete;
    M3xSystem &operator=(const M3xSystem &) = delete;

    const M3xParams &params() const { return params_; }
    sim::EventQueue &eventQueue() { return eq_; }
    noc::TileId kernelTile() const { return params_.userTiles; }

    //
    // Boot-time setup.
    //

    M3xAct *createAct(unsigned tile_idx, const std::string &name);

    /** Create a receive endpoint owned by @p owner. */
    M3xChan makeChannel(M3xAct *owner, std::size_t slot_size = 256,
                        std::size_t slots = 8);

    /** Give @p sender a send endpoint towards @p chan. */
    dtu::EpId addSender(const M3xChan &chan, M3xAct *sender,
                        std::uint32_t credits = 4);

    /** Start an activity body. */
    void start(M3xAct *act, sim::Task body);

    //
    // Activity-side operations (awaited from bodies).
    //

    /**
     * RPC: send @p req to @p chan (fast path if possible, slow path
     * through the kernel otherwise) and await the reply on this
     * activity's reply endpoint.
     */
    sim::Task rpc(M3xAct &self, const M3xChan &chan,
                  dtu::EpId direct_sep, Bytes req, Bytes *resp);

    /** Server: wait for the next request on @p chan. */
    sim::Task serveNext(M3xAct &self, const M3xChan &chan, Bytes *req,
                        MsgHdr *reply_to);

    /** Server: reply to a previously received request. */
    sim::Task replyTo(M3xAct &self, const MsgHdr &reply_to,
                      Bytes resp);

    /** Voluntary exit. */
    sim::Task exit(M3xAct &self);

    // Statistics for the evaluation (registry-backed).
    std::uint64_t slowPaths() const { return slowPaths_->value(); }
    std::uint64_t fastPaths() const { return fastPaths_->value(); }
    std::uint64_t switches() const { return switches_->value(); }

  private:
    class M3xTileDtu;

    struct TileState
    {
        std::unique_ptr<tile::Core> core;
        std::unique_ptr<dtu::Dtu> dtu;
        std::vector<std::unique_ptr<M3xAct>> acts;
        M3xAct *current = nullptr;
        /** Stub state: activity parked by a Save request. */
        bool suspended = false;
    };

    /** Kernel request kinds (syscall messages). */
    struct KernelReq
    {
        enum class Op : std::uint32_t
        {
            Forward, ///< slow-path message delivery
            Blocked, ///< current activity waits for messages
            Exited,  ///< activity terminated
        };
        Op op = Op::Forward;
        dtu::ActId srcAct = dtu::kInvalidAct;
        dtu::ActId dstAct = dtu::kInvalidAct;
        dtu::EpId dstEp = dtu::kInvalidEp;
        std::uint64_t fetched = 0;
        std::uint32_t len = 0;
    };

    /** Stub request (kernel -> tile). */
    struct StubReq
    {
        enum class Op : std::uint32_t
        {
            Save,
            Restore,
        };
        Op op = Op::Save;
        dtu::ActId act = dtu::kInvalidAct;
    };

    // Kernel implementation (runs as the kernel tile's thread).
    sim::Task kernelMain();
    sim::Task handleForward(const KernelReq &req, Bytes payload);
    sim::Task handleBlocked(const KernelReq &req);
    sim::Task switchTile(TileState &ts, M3xAct *next);
    sim::Task stubRequest(TileState &ts, StubReq req);
    sim::Task extEps(TileState &ts, bool write, M3xAct *act);
    sim::Task deliverPending(M3xAct *act);
    sim::Task kernelSend(noc::TileId tile, dtu::EpId ep,
                         Bytes payload, dtu::Error *err);
    M3xAct *pickNext(TileState &ts);
    sim::Task maybeResched(TileState &ts);

    // Tile-stub implementation.
    void stubIrq(unsigned tile_idx);
    void installActEps(unsigned tile_idx, M3xAct *act);

    // Activity helpers.
    sim::Task actSend(M3xAct &self, dtu::EpId sep, Bytes payload,
                      dtu::Error *err);
    sim::Task actWaitMsg(M3xAct &self, dtu::EpId rep, int *slot);
    M3xAct *actById(dtu::ActId id);

    sim::EventQueue &eq_;
    M3xParams params_;
    std::unique_ptr<noc::Noc> noc_;
    std::vector<TileState> tiles_;
    std::unique_ptr<dtu::MemoryTile> mem_;

    std::unique_ptr<tile::Core> kernCore_;
    std::unique_ptr<dtu::Dtu> kernDtu_;
    std::unique_ptr<tile::Thread> kernThread_;
    bool kernWaiting_ = false;
    std::map<dtu::ActId, M3xAct *> actIndex_;
    dtu::ActId nextAct_ = 1;

    sim::Counter *slowPaths_;
    sim::Counter *fastPaths_;
    sim::Counter *switches_;
    sim::Tracer *trc_;
};

} // namespace m3v::m3x

#endif // M3VSIM_M3X_SYSTEM_H_
