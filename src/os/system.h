/**
 * @file
 * The M3v system builder: assembles the platform of Figure 4 (user
 * tiles with cores + vDTUs + TileMux, a controller tile, memory
 * tiles, all connected by the star-mesh NoC) and provides boot-time
 * setup of activities, capabilities, and communication channels.
 *
 * Boot-time setup (activity creation, initial channels) is untimed —
 * the paper's benchmarks all measure warm systems after setup. All
 * *runtime* interactions (system calls, sidecalls, endpoint changes)
 * go through the simulated protocols with real costs.
 */

#ifndef M3VSIM_OS_SYSTEM_H_
#define M3VSIM_OS_SYSTEM_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/tilemux.h"
#include "core/vdtu.h"
#include "dtu/memory_tile.h"
#include "noc/noc.h"
#include "os/controller.h"
#include "os/env.h"
#include "sim/invariants.h"
#include "tile/core.h"

namespace m3v::os {

/** Platform configuration. */
struct SystemParams
{
    /** Number of multiplexed general-purpose tiles. */
    unsigned userTiles = 8;

    tile::CoreModel userModel = tile::CoreModel::boom();
    tile::CoreModel ctrlModel = tile::CoreModel::rocket();

    /** Per-tile overrides of userModel (e.g. a Rocket scanner tile
     *  next to BOOM tiles, section 6.5.1). */
    std::map<unsigned, tile::CoreModel> tileModels;

    unsigned memTiles = 2;

    /**
     * Controller shard count (DESIGN.md section 4i): 1 (the paper's
     * single controller) up to userTiles; any other count is a fatal
     * config error. Shards 1..n-1 run on extra controller tiles
     * appended after the memory tiles.
     */
    unsigned ctrlShards = 1;

    tile::DramParams dram{};
    core::TileMuxParams mux{};
    core::VDtuParams vdtu{};

    /** Per-user-tile PMP window (local memory) in bytes. */
    std::size_t perTilePmp = 4 << 20;
};

/** The assembled M3v platform. */
class System
{
  public:
    /** An application/service activity created at boot. */
    struct App
    {
        unsigned tileIdx = 0;
        core::Activity *act = nullptr;
        std::unique_ptr<MuxEnv> env;
    };

    /** A boot-created receive gate. */
    struct RgateHandle
    {
        dtu::EpId ep = dtu::kInvalidEp;
        CapSel sel = kInvalidSel;
    };

    /** A boot-created send gate. */
    struct SgateHandle
    {
        dtu::EpId ep = dtu::kInvalidEp;
        CapSel sel = kInvalidSel;
    };

    /** A boot-created memory gate with its backing region. */
    struct MgateHandle
    {
        dtu::EpId ep = dtu::kInvalidEp;
        CapSel sel = kInvalidSel;
        dtu::PhysAddr addr = 0;
        std::size_t size = 0;
        unsigned memIdx = 0;
    };

    System(sim::EventQueue &eq, SystemParams params = {});
    ~System();

    System(const System &) = delete;
    System &operator=(const System &) = delete;

    //
    // Topology.
    //

    const SystemParams &params() const { return params_; }
    noc::TileId userTile(unsigned i) const { return i; }
    noc::TileId ctrlTile() const { return params_.userTiles; }
    noc::TileId
    memTileId(unsigned i) const
    {
        return params_.userTiles + 1 + i;
    }

    /** Number of controller shards. */
    unsigned ctrlShards() const { return shardMap_.shards; }
    const ShardMap &shardMap() const { return shardMap_; }

    /** Tile of controller shard @p s (shard 0 is ctrlTile()). */
    noc::TileId
    ctrlTileOf(unsigned s) const
    {
        if (s == 0)
            return ctrlTile();
        return params_.userTiles + 1 + params_.memTiles + (s - 1);
    }

    noc::Noc &fabric() { return *noc_; }
    tile::Core &core(unsigned i) { return *cores_[i]; }
    core::VDtu &vdtu(unsigned i) { return *vdtus_[i]; }
    core::TileMux &mux(unsigned i) { return *muxes_[i]; }
    dtu::MemoryTile &memory(unsigned i) { return *memTiles_[i]; }
    sim::EventQueue &eventQueue() { return eq_; }

    /** Controller shard @p s. */
    Controller &controllerOf(unsigned s) { return *ctrls_.at(s).ctrl; }

    /** The controller of shard 0 (the only one on paper configs). */
    Controller &controller() { return controllerOf(0); }

    /** Capability manager of shard @p s. */
    CapMgr &capsOf(unsigned s) { return *ctrls_.at(s).caps; }

    //
    // Boot-time setup.
    //

    /** Create an app/service activity on user tile @p tile_idx. */
    App *createApp(unsigned tile_idx, const std::string &name,
                   std::size_t footprint = 8 * 1024);

    /** Start an app: the body coroutine runs on its activity. */
    void start(App *app, std::function<sim::Task(MuxEnv &)> body);

    /** Allocate a free endpoint on a user tile. */
    dtu::EpId allocEp(unsigned tile_idx);

    /** Create + activate a receive gate owned by @p app. */
    RgateHandle makeRgate(App *app, std::size_t slot_size = 256,
                          std::size_t slots = 8);

    /** Create + activate a send gate from @p sender to @p rep. */
    SgateHandle makeSgate(App *sender, App *recv_owner, dtu::EpId rep,
                          std::uint64_t label, std::uint32_t credits,
                          std::size_t max_msg = 512);

    /**
     * Allocate a DRAM region and create + activate a memory gate for
     * @p app over it.
     */
    MgateHandle makeMgate(App *app, std::size_t size,
                          std::uint8_t perms, unsigned mem_idx = 0);

    /** Grant @p holder a capability for @p target's activity. */
    CapSel grantActCap(App *holder, App *target);

    /**
     * Map @p n fresh pages into the app's address space (backed by
     * the tile's PMP window); returns the base VA.
     */
    dtu::VirtAddr mapPages(App *app, std::size_t n,
                           std::uint8_t perms);

    /**
     * Allocate physical pages from a tile's PMP window (used by the
     * pager to back heap allocations). Returns the base address.
     */
    dtu::PhysAddr allocTilePhys(unsigned tile_idx, std::size_t pages);

    /** Number of messages the controllers have processed (summed
     *  over all shards). */
    std::uint64_t
    syscalls() const
    {
        std::uint64_t n = 0;
        for (const CtrlShard &c : ctrls_)
            n += c.ctrl->syscallsHandled();
        return n;
    }

  private:
    /** One controller shard: its bare tile and its controller. */
    struct CtrlShard
    {
        std::unique_ptr<tile::Core> core;
        std::unique_ptr<dtu::Dtu> dtu;
        std::unique_ptr<tile::Thread> thread;
        std::unique_ptr<BareEnv> env;
        std::unique_ptr<CapMgr> caps;
        std::unique_ptr<Controller> ctrl;
    };

    /** Create the core and DTU of controller shard @p s (appended to
     *  ctrls_; the call order fixes the tile's NoC attachment). */
    void addCtrlTile(unsigned s);

    /** Boot-grant @p app a capability for @p obj, recorded as already
     *  activated into EP @p ep on its tile. */
    CapSel grantActivated(App *app, const KObject &obj, dtu::EpId ep);

    sim::EventQueue &eq_;
    SystemParams params_;
    std::unique_ptr<noc::Noc> noc_;
    std::vector<std::unique_ptr<tile::Core>> cores_;
    std::vector<std::unique_ptr<core::VDtu>> vdtus_;
    std::vector<std::unique_ptr<core::TileMux>> muxes_;
    std::vector<std::unique_ptr<dtu::MemoryTile>> memTiles_;

    /** Resolved shard layout and the shared tile-to-DTU table (must
     *  outlive the controllers, which keep a pointer into it). */
    ShardMap shardMap_;
    DtuMap dtuMap_;

    /** Controller shards, indexed by shard id. */
    std::vector<CtrlShard> ctrls_;

    dtu::ActId nextAct_ = 2; // 1 is the controller
    std::vector<dtu::EpId> nextEp_;
    /** Per-tile bump pointer inside the PMP window. */
    std::vector<dtu::PhysAddr> pmpBump_;
    std::vector<std::unique_ptr<App>> apps_;
};

/**
 * Register the sharded-controller conservation laws on @p inv
 * (DESIGN.md section 4i), evaluated at quiescence:
 *  - selector disjointness: every capability held by shard s carries
 *    s in its selector's shard byte, and no activity owns tables on
 *    two shards;
 *  - message conservation: every cross-shard request was acked (a
 *    call waits for its reply, so an unanswered one shows up here as
 *    sent != acked) and every one-way notification that left a
 *    controller was handled by its peer;
 *  - share-record pairing: a capability is reachable from another
 *    shard only through a matched (remoteChildren, remoteParent)
 *    record pair (skipped when a one-way notification was dropped —
 *    the lost severing legitimately orphans one side).
 */
void registerControllerInvariants(sim::Invariants &inv, System &sys);

} // namespace m3v::os

#endif // M3VSIM_OS_SYSTEM_H_
