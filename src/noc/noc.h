/**
 * @file
 * The NoC facade: builds the star-mesh topology of the M3v platform
 * (a ColsxRows router mesh with tiles star-attached to routers, XY
 * routing between routers) and offers per-tile injection ports.
 *
 * The paper's FPGA platform uses a 2x2 star-mesh connecting eleven
 * tiles (Figure 4); this builder generalizes to any k-ary 2D mesh
 * and tile count, so the gem5-style scalability runs (Figure 9) use
 * the same fabric from 2 tiles up to 1024-tile platforms
 * (NocParams::forTiles()).
 */

#ifndef M3VSIM_NOC_NOC_H_
#define M3VSIM_NOC_NOC_H_

#include <memory>
#include <vector>

#include "noc/packet.h"
#include "noc/router.h"
#include "sim/clock.h"
#include "sim/sim_object.h"

namespace m3v::sim {
class Invariants;
class LaneScheduler;
}

namespace m3v::noc {

class LaneLink;

/** The network-on-chip fabric. */
class Noc : public sim::SimObject
{
  public:
    Noc(sim::EventQueue &eq, NocParams params);
    ~Noc() override;

    const NocParams &params() const { return params_; }
    const sim::Clock &clock() const { return clk_; }

    /**
     * Shard the fabric by router: router r, its tile exits, and its
     * tiles' injection ports live on lane @p lane_of_router[r]. Mesh
     * links between routers on different lanes cross through
     * LaneLinks launched minLinkLatency() early, so uncongested hop
     * timing is identical to the single-queue fabric (which is the
     * same plan with every router on this Noc's own queue). Fills
     * @p sched's pair matrix with LaneScheduler::kNoCrossing;
     * finalize() then declares the per-lane-pair lookahead of every
     * adjacent link (both directions — packets and credit returns),
     * and the scheduler windows distant pairs by the cheapest
     * chains of those links. Tile sinks must be built on their home
     * router's lane (tiles are assigned round-robin; attachTile
     * returns the router). Must be called before any attachTile();
     * this Noc must have been constructed against one of @p sched's
     * lanes.
     */
    void setRouterLanePlan(sim::LaneScheduler &sched,
                           std::vector<unsigned> lane_of_router);

    /** Lane carrying router @p r under setRouterLanePlan(). */
    unsigned laneOfRouter(unsigned r) const;

    /** Router that the next attachTile() will assign (round-robin). */
    unsigned nextRouter() const;

    /**
     * Minimum time any packet occupies a link: router pipeline plus
     * the serialization of an empty (header-only) packet. The
     * lookahead of a lane-crossing mesh link. The static overload
     * lets callers size a LaneScheduler before constructing the Noc
     * against one of its lanes; the latency depends on no parameter.
     */
    sim::Tick minLinkLatency() const;
    static sim::Tick minLinkLatency(const NocParams &);

    /**
     * Attach a component to the fabric. Tiles are assigned to routers
     * round-robin. Must precede finalize(); panics on an id that is
     * already attached. Returns the router the tile was assigned to.
     */
    unsigned attachTile(TileId id, HopTarget *sink);

    /** Build mesh links and routing tables. Call once after attach. */
    void finalize();

    /**
     * Inject a packet at its source tile's injection port. Same
     * semantics as HopTarget::acceptPacket: false means the injection
     * queue is full and @p on_space fires when it drains.
     */
    bool inject(Packet &pkt, sim::UniqueFunction<void()> on_space);

    /** Number of router-to-router hops between two tiles (shortest
     *  path). */
    unsigned hopCount(TileId src, TileId dst) const;

    /**
     * Walk one step of the *installed* routing tables: the router a
     * packet for @p dst standing at @p router is forwarded to, or
     * @p router itself when the route is the tile's exit port there.
     * Only valid after finalize(); lets tests enumerate full routes
     * and check them against hopCount() without injecting traffic.
     */
    unsigned routeStep(unsigned router, TileId dst) const;

    /** Total packets delivered to tile sinks (summed over the lanes'
     *  noc.delivered counters; read after the lanes quiesce). */
    std::uint64_t delivered() const;

    /** Total payload bytes delivered. */
    std::uint64_t deliveredBytes() const;

    /** Backpressure stalls summed over every router output port —
     *  per-hop credit exhaustion events (see OutPort::stalls()). */
    std::uint64_t portStalls() const;

    /**
     * Register the fabric's drain law with @p inv (tests only,
     * quiescent-only): once the simulation drains, every router
     * output port and every tile injection port must be idle — no
     * queued packet, no drain in progress, no backpressure waiter
     * still parked. A violation means a packet or a flow-control
     * wake-up was lost in the fabric. Under a router lane plan the
     * ports live on several lanes, so evaluate the registry only
     * after LaneScheduler::run() returns (see sim/invariants.h).
     */
    void registerInvariants(sim::Invariants &inv);

  private:
    struct TileAttachment;

    unsigned routerOf(TileId id) const;
    const TileAttachment &attachmentOf(TileId id) const;
    unsigned routerX(unsigned r) const { return r % params_.meshCols; }
    unsigned routerY(unsigned r) const { return r / params_.meshCols; }

    NocParams params_;
    sim::Clock clk_;
    bool finalized_ = false;
    std::vector<std::unique_ptr<Router>> routers_;
    /** meshPort_[r][n]: port index on router r toward router n. */
    std::vector<std::vector<std::size_t>> meshPort_;
    std::vector<std::unique_ptr<TileAttachment>> tiles_;
    /** TileId -> index into tiles_ (SIZE_MAX = not attached). */
    std::vector<std::size_t> tileIndexOf_;
    /** The distinct noc.delivered / noc.delivered_bytes counters:
     *  one per queue the routers live on. */
    std::vector<sim::Counter *> delivered_;
    std::vector<sim::Counter *> deliveredBytes_;

    /** Router lane plan (null = every router on this Noc's queue). */
    sim::LaneScheduler *laneSched_ = nullptr;
    sim::Tick laneLatency_ = 0;
    std::vector<unsigned> laneOfRouter_;
    /** Lane-crossing mesh links. */
    std::vector<std::unique_ptr<LaneLink>> meshLinks_;
};

} // namespace m3v::noc

#endif // M3VSIM_NOC_NOC_H_
