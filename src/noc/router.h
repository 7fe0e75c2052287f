/**
 * @file
 * NoC router with per-output-port queues, store-and-forward timing,
 * and packet-level backpressure between hops.
 *
 * Each output port owns a bounded queue and drains one packet at a
 * time: a packet occupies the port for pipelineCycles plus its
 * serialization time (bytes / linkBytesPerCycle). If the downstream
 * element (next router or tile sink) cannot accept the packet, the
 * port stalls (head-of-line blocking) until space is signalled.
 */

#ifndef M3VSIM_NOC_ROUTER_H_
#define M3VSIM_NOC_ROUTER_H_

#include <memory>
#include <string>
#include <vector>

#include "noc/packet.h"
#include "sim/clock.h"
#include "sim/ring_deque.h"
#include "sim/sim_object.h"
#include "sim/stats.h"
#include "sim/trace.h"

namespace m3v::noc {

class Router;

/** Timing and sizing parameters of the NoC fabric. */
struct NocParams
{
    /** NoC clock (all routers and links). */
    std::uint64_t freqHz = 100'000'000;

    /** Link width: bytes serialized per NoC cycle. */
    std::size_t linkBytesPerCycle = 16;

    /** Router pipeline depth in cycles (route + arbitrate + xbar). */
    sim::Cycles pipelineCycles = 3;

    /** Output-port queue capacity in packets. */
    std::size_t portQueuePackets = 4;

    /** Per-packet wire header bytes (flit header overhead). */
    std::size_t headerBytes = 16;

    /** Mesh dimensions (routers). The paper's platform is 2x2. */
    unsigned meshCols = 2;
    unsigned meshRows = 2;

    /**
     * Upper bound on tiles star-attached to one router. attachTile
     * distributes tiles round-robin; when the tile count exceeds
     * routers * maxTilesPerRouter the per-router credit accounting
     * degrades silently, so Noc::validate() reports
     * NocConfigError::TooManyTilesPerRouter instead (and finalize()
     * refuses the build). The paper's platform puts at most three
     * tiles on a router; 16 leaves headroom for dense configs while
     * still catching a 256-tile platform on a 2x2 mesh.
     */
    std::size_t maxTilesPerRouter = 16;

    /**
     * Mesh dimensions for a platform of @p totalTiles tiles: the
     * smallest square mesh (min 2x2) averaging at most ~4 tiles per
     * router, matching the paper's star-mesh density (eleven tiles
     * on four routers). 64 tiles -> 4x4, 256 -> 8x8, 1024 -> 16x16.
     * All other parameters keep their defaults.
     */
    static NocParams forTiles(unsigned totalTiles);
};

/**
 * One output port: bounded queue + serializing drain to a HopTarget.
 */
class OutPort
{
  public:
    OutPort(sim::EventQueue &eq, const sim::Clock &clk,
            const NocParams &params, std::string name);

    /** Connect the port to its downstream element. */
    void connect(HopTarget *target) { target_ = target; }

    /** True if the queue has room for one more packet. */
    bool hasSpace() const;

    /** Enqueue a packet; caller must have checked hasSpace(). */
    void enqueue(Packet &&pkt);

    /** Register a one-shot waiter for queue space. */
    void waitForSpace(sim::UniqueFunction<void()> cb);

    /**
     * Lane-boundary mode: hand the head packet over @p t ticks before
     * its drain completes. The downstream element is then a LaneLink
     * that delivers cross-lane with exactly @p t latency, so the
     * packet still arrives at the original drain-end tick; the port
     * itself frees its queue slot (and starts the next drain) at the
     * unchanged drain-end tick as well. Every drain lasts at least
     * minLinkLatency() >= @p t, so the early handover never reaches
     * into the past. 0 (the default) restores the direct in-lane
     * handover at drain end.
     */
    void setLaunchEarly(sim::Tick t) { launchEarly_ = t; }

    std::uint64_t forwarded() const { return forwarded_->value(); }

    /** Backpressure events: upstream found the queue full and parked
     *  a space waiter (per-hop credit exhaustion). */
    std::uint64_t stalls() const { return stalled_->value(); }

    /** Fully drained: nothing queued, in drain, or waiting for
     *  space (the quiescent state; see Noc::registerInvariants). */
    bool
    idle() const
    {
        return queue_.empty() && !draining_ && spaceWaiters_.empty();
    }

  private:
    void startDrain();
    void tryHandOver();
    void completeForward();
    void notifySpaceWaiters();

    sim::EventQueue &eq_;
    const sim::Clock &clk_;
    const NocParams &params_;
    std::string name_;
    HopTarget *target_ = nullptr;
    /** RingDeque: steady-state forwarding must not churn the heap. */
    sim::RingDeque<Packet> queue_;
    bool draining_ = false;
    sim::Tick launchEarly_ = 0;
    std::vector<sim::UniqueFunction<void()>> spaceWaiters_;
    sim::Counter *forwarded_;
    sim::Counter *stalled_;
};

/**
 * A router in the mesh. Ports attach either neighbouring routers or
 * tiles (star topology per router).
 */
class Router : public sim::SimObject, public HopTarget
{
  public:
    Router(sim::EventQueue &eq, const sim::Clock &clk,
           const NocParams &params, unsigned id, std::string name);

    unsigned id() const { return id_; }

    /** Create a new output port; returns its index. */
    std::size_t addPort();

    OutPort &port(std::size_t idx) { return *ports_[idx]; }
    std::size_t numPorts() const { return ports_.size(); }

    /**
     * Install the routing decision: which output port a packet for
     * @p dst tile takes.
     */
    void setRoute(TileId dst, std::size_t port_idx);

    /** Installed route for @p dst (SIZE_MAX = none). */
    std::size_t
    route(TileId dst) const
    {
        return dst < routeTable_.size() ? routeTable_[dst] : SIZE_MAX;
    }

    // HopTarget: upstream elements push packets into the router, which
    // immediately places them on the routed output port's queue.
    bool acceptPacket(Packet &pkt, sim::UniqueFunction<void()> on_space)
        override;

    std::uint64_t routed() const { return routed_->value(); }

  private:
    const sim::Clock &clk_;
    const NocParams &params_;
    unsigned id_;
    std::vector<std::unique_ptr<OutPort>> ports_;
    std::vector<std::size_t> routeTable_;
    sim::Counter *routed_;
    sim::Tracer *trc_;
};

} // namespace m3v::noc

#endif // M3VSIM_NOC_ROUTER_H_
