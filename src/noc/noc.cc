#include "noc/noc.h"

#include <algorithm>
#include <cstdlib>
#include <utility>

#include "noc/lane_link.h"
#include "sim/invariants.h"
#include "sim/lane.h"
#include "sim/log.h"

namespace m3v::noc {

/**
 * Per-tile plumbing: an injection port (tile -> router) and an exit
 * adapter (router -> tile sink) that counts deliveries. Both live on
 * the home router's queue, so the handover is direct.
 */
struct Noc::TileAttachment
{
    struct ExitAdapter : HopTarget
    {
        HopTarget *sink = nullptr;
        sim::Counter *delivered = nullptr;
        sim::Counter *deliveredBytes = nullptr;

        bool
        acceptPacket(Packet &pkt, sim::UniqueFunction<void()> on_space)
            override
        {
            std::size_t payload = pkt.bytes;
            if (!sink->acceptPacket(pkt, std::move(on_space)))
                return false;
            delivered->inc();
            deliveredBytes->inc(payload);
            return true;
        }
    };

    TileId id = 0;
    unsigned router = 0;
    /** Tile-side injection port, drains into the router. */
    std::unique_ptr<OutPort> injectPort;
    /** Router-side port index toward the tile. */
    std::size_t exitPortIdx = 0;
    ExitAdapter exit;
};

Noc::Noc(sim::EventQueue &eq, NocParams params)
    : SimObject(eq, "noc"), params_(params), clk_(kNocFreqHz)
{
    delivered_.push_back(statCounter("delivered"));
    deliveredBytes_.push_back(statCounter("delivered_bytes"));
    if (eq.tracer().anyEnabled())
        eq.tracer().setProcessName(sim::kTracePidNoc, "noc");
    unsigned n = params_.meshCols * params_.meshRows;
    if (n == 0)
        sim::fatal("Noc: empty mesh");
    for (unsigned r = 0; r < n; r++) {
        routers_.push_back(std::make_unique<Router>(
            eq_, clk_, params_, r, "noc.r" + std::to_string(r)));
    }
    meshPort_.assign(n, std::vector<std::size_t>(n, SIZE_MAX));
}

Noc::~Noc() = default;

sim::Tick
Noc::minLinkLatency(const NocParams &)
{
    sim::Clock clk(kNocFreqHz);
    sim::Cycles header_ser =
        (kPacketHeaderBytes + kLinkBytesPerCycle - 1) / kLinkBytesPerCycle;
    return clk.cyclesToTicks(kRouterPipelineCycles + header_ser);
}

sim::Tick
Noc::minLinkLatency() const
{
    return minLinkLatency(params_);
}

void
Noc::setRouterLanePlan(sim::LaneScheduler &sched,
                       std::vector<unsigned> lane_of_router)
{
    if (!tiles_.empty() || finalized_)
        sim::panic("Noc: setRouterLanePlan after attach/finalize");
    if (laneSched_)
        sim::panic("Noc: lane plan already set");
    if (lane_of_router.size() != routers_.size())
        sim::panic("Noc: %zu router lanes for %zu routers",
                   lane_of_router.size(), routers_.size());
    for (unsigned l : lane_of_router)
        if (l >= sched.lanes())
            sim::panic("Noc: router lane %u outside %u lanes", l,
                       sched.lanes());
    laneLatency_ = minLinkLatency();
    laneSched_ = &sched;
    laneOfRouter_ = std::move(lane_of_router);
    // Only adjacent routers on different lanes ever cross (finalize()
    // declares those pairs); every other pair's window comes from the
    // scheduler's distance closure.
    sched.fillPairLookaheads(sim::LaneScheduler::kNoCrossing);
    // Rebuild the routers against their lanes' event queues: each
    // router's ports, metrics, and tracer become lane-local, so a
    // whole router (and its star of tiles) is one shard.
    for (unsigned r = 0; r < routers_.size(); r++) {
        routers_[r] = std::make_unique<Router>(
            sched.lane(laneOfRouter_[r]), clk_, params_, r,
            "noc.r" + std::to_string(r));
    }
}

unsigned
Noc::laneOfRouter(unsigned r) const
{
    if (!laneSched_)
        sim::panic("Noc: laneOfRouter without a router lane plan");
    if (r >= laneOfRouter_.size())
        sim::panic("Noc: router %u outside mesh", r);
    return laneOfRouter_[r];
}

unsigned
Noc::nextRouter() const
{
    return static_cast<unsigned>(tiles_.size() % routers_.size());
}

unsigned
Noc::routerOf(TileId id) const
{
    return attachmentOf(id).router;
}

const Noc::TileAttachment &
Noc::attachmentOf(TileId id) const
{
    std::size_t idx =
        id < tileIndexOf_.size() ? tileIndexOf_[id] : SIZE_MAX;
    if (idx == SIZE_MAX)
        sim::panic("Noc: unknown tile %u", id);
    return *tiles_[idx];
}

unsigned
Noc::attachTile(TileId id, HopTarget *sink)
{
    if (finalized_)
        sim::panic("Noc: attach after finalize");
    auto att = std::make_unique<TileAttachment>();
    att->id = id;
    // Distribute tiles over routers round-robin, like the platform in
    // Figure 4 spreads its eleven tiles over four routers.
    att->router = nextRouter();
    att->exit.sink = sink;

    // O(1) id -> attachment lookup (inject() runs per packet).
    if (id >= tileIndexOf_.size())
        tileIndexOf_.resize(id + 1, SIZE_MAX);
    if (tileIndexOf_[id] != SIZE_MAX)
        sim::panic("Noc: tile %u attached twice", id);
    tileIndexOf_[id] = tiles_.size();

    // The tile lives on its home router's queue (this Noc's own queue
    // without a lane plan), so both handover directions stay
    // queue-local; only mesh links between routers on different lanes
    // cross (see finalize()). Every queue counts into the same
    // noc.delivered keys, so delivered() and deliveredBytes(), which
    // sum them over the queues, equal the single-queue values.
    Router &r = *routers_[att->router];
    att->exitPortIdx = r.addPort();
    sim::EventQueue &q = r.eventQueue();
    att->exit.delivered = q.metrics().counter(name() + ".delivered");
    att->exit.deliveredBytes =
        q.metrics().counter(name() + ".delivered_bytes");
    if (std::find(delivered_.begin(), delivered_.end(),
                  att->exit.delivered) == delivered_.end()) {
        delivered_.push_back(att->exit.delivered);
        deliveredBytes_.push_back(att->exit.deliveredBytes);
    }
    r.port(att->exitPortIdx).connect(&att->exit);
    att->injectPort = std::make_unique<OutPort>(
        q, clk_, params_, "noc.tile" + std::to_string(id) + ".inj");
    att->injectPort->connect(&r);
    unsigned assigned = att->router;
    tiles_.push_back(std::move(att));
    return assigned;
}

void
Noc::finalize()
{
    if (finalized_)
        return;
    finalized_ = true;

    unsigned cols = params_.meshCols;
    unsigned rows = params_.meshRows;
    unsigned n = cols * rows;

    // On the router lane plan a mesh link to a router on another lane
    // crosses through a LaneLink; declare the pair's lookahead (both
    // directions: packets out, credits back) before constructing it.
    auto declare_pair = [&](unsigned a, unsigned b) {
        sim::Tick cur = laneSched_->pairLookahead(a, b);
        if (cur == sim::LaneScheduler::kNoCrossing ||
            cur > laneLatency_)
            laneSched_->setPairLookahead(a, b, laneLatency_);
    };

    // Create mesh links between orthogonal neighbours.
    for (unsigned r = 0; r < n; r++) {
        unsigned x = routerX(r), y = routerY(r);
        auto link_to = [&](unsigned other) {
            std::size_t p = routers_[r]->addPort();
            if (laneSched_ &&
                laneOfRouter_[r] != laneOfRouter_[other]) {
                unsigned a = laneOfRouter_[r];
                unsigned b = laneOfRouter_[other];
                declare_pair(a, b);
                declare_pair(b, a);
                auto ll = std::make_unique<LaneLink>(
                    *laneSched_, a, b, laneLatency_,
                    routers_[other].get(),
                    params_.portQueuePackets + 2);
                routers_[r]->port(p).connect(ll.get());
                routers_[r]->port(p).setLaunchEarly(laneLatency_);
                meshLinks_.push_back(std::move(ll));
            } else {
                routers_[r]->port(p).connect(routers_[other].get());
            }
            meshPort_[r][other] = p;
        };
        if (x + 1 < cols)
            link_to(r + 1);
        if (x > 0)
            link_to(r - 1);
        if (y + 1 < rows)
            link_to(r + cols);
        if (y > 0)
            link_to(r - cols);
    }

    // Routing: XY dimension-ordered between routers, then the tile's
    // exit port at its home router.
    for (const auto &t : tiles_) {
        for (unsigned r = 0; r < n; r++) {
            if (r == t->router) {
                routers_[r]->setRoute(t->id, t->exitPortIdx);
                continue;
            }
            unsigned x = routerX(r), y = routerY(r);
            unsigned tx = routerX(t->router), ty = routerY(t->router);
            unsigned next;
            if (x != tx)
                next = x < tx ? r + 1 : r - 1;
            else
                next = y < ty ? r + cols : r - cols;
            if (meshPort_[r][next] == SIZE_MAX)
                sim::panic("Noc: missing mesh link %u->%u", r, next);
            routers_[r]->setRoute(t->id, meshPort_[r][next]);
        }
    }
}

bool
Noc::inject(Packet &pkt, sim::UniqueFunction<void()> on_space)
{
    if (!finalized_)
        sim::panic("Noc: inject before finalize");
    std::size_t idx =
        pkt.src < tileIndexOf_.size() ? tileIndexOf_[pkt.src] : SIZE_MAX;
    if (idx == SIZE_MAX)
        sim::panic("Noc: inject from unknown tile %u", pkt.src);
    TileAttachment &t = *tiles_[idx];
    if (!t.injectPort->hasSpace()) {
        t.injectPort->waitForSpace(std::move(on_space));
        return false;
    }
    t.injectPort->enqueue(std::move(pkt));
    return true;
}

std::uint64_t
Noc::delivered() const
{
    std::uint64_t sum = 0;
    for (const sim::Counter *c : delivered_)
        sum += c->value();
    return sum;
}

std::uint64_t
Noc::deliveredBytes() const
{
    std::uint64_t sum = 0;
    for (const sim::Counter *c : deliveredBytes_)
        sum += c->value();
    return sum;
}

std::uint64_t
Noc::portStalls() const
{
    std::uint64_t sum = 0;
    for (const auto &r : routers_)
        for (std::size_t p = 0; p < r->numPorts(); p++)
            sum += r->port(p).stalls();
    for (const auto &t : tiles_)
        sum += t->injectPort->stalls();
    return sum;
}

void
Noc::registerInvariants(sim::Invariants &inv)
{
    inv.addCheck(
        name() + ".drained",
        [this](sim::Invariants &i) {
            for (const auto &r : routers_) {
                for (std::size_t p = 0; p < r->numPorts(); p++) {
                    if (!r->port(p).idle())
                        i.fail("%s port %zu not drained at "
                               "quiescence",
                               r->name().c_str(), p);
                }
            }
            for (const auto &t : tiles_) {
                if (!t->injectPort->idle())
                    i.fail("tile %u inject port not drained at "
                           "quiescence",
                           t->id);
            }
        },
        sim::Invariants::When::QuiescentOnly);
}

unsigned
Noc::routeStep(unsigned router, TileId dst) const
{
    if (!finalized_)
        sim::panic("Noc: routeStep before finalize");
    if (router >= routers_.size())
        sim::panic("Noc: router %u outside mesh", router);
    std::size_t p = routers_[router]->route(dst);
    if (p == SIZE_MAX)
        sim::panic("Noc: no route from router %u to tile %u", router,
                   dst);
    for (unsigned n = 0; n < routers_.size(); n++)
        if (meshPort_[router][n] == p)
            return n;
    return router; // the tile's exit port at its home router
}

unsigned
Noc::hopCount(TileId src, TileId dst) const
{
    auto dist = [](unsigned a, unsigned b) {
        return a > b ? a - b : b - a;
    };
    unsigned rs = routerOf(src), rd = routerOf(dst);
    return dist(routerX(rs), routerX(rd)) +
           dist(routerY(rs), routerY(rd));
}

} // namespace m3v::noc
