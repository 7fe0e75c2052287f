#include "noc/router.h"

#include <utility>

#include "sim/log.h"

namespace m3v::noc {

NocParams
NocParams::forTiles(unsigned totalTiles)
{
    NocParams p;
    unsigned routers_needed = (totalTiles + 3) / 4;
    unsigned side = 2;
    while (side * side < routers_needed)
        side++;
    p.meshCols = side;
    p.meshRows = side;
    return p;
}

OutPort::OutPort(sim::EventQueue &eq, const sim::Clock &clk,
                 const NocParams &params, std::string name)
    : eq_(eq), clk_(clk), params_(params), name_(std::move(name))
{
    forwarded_ = eq.metrics().counter(name_ + ".forwarded");
    stalled_ = eq.metrics().counter(name_ + ".stalls");
}

bool
OutPort::hasSpace() const
{
    return queue_.size() < params_.portQueuePackets;
}

void
OutPort::enqueue(Packet &&pkt)
{
    if (!hasSpace())
        sim::panic("%s: enqueue on full port", name_.c_str());
    queue_.push_back(std::move(pkt));
    if (!draining_)
        startDrain();
}

void
OutPort::waitForSpace(sim::UniqueFunction<void()> cb)
{
    stalled_->inc();
    spaceWaiters_.push_back(std::move(cb));
}

void
OutPort::startDrain()
{
    // The head packet occupies the port for the router pipeline plus
    // its serialization time on the outgoing link.
    draining_ = true;
    Packet &head = queue_.front();
    std::size_t wire_bytes = head.bytes + kPacketHeaderBytes;
    sim::Cycles ser =
        (wire_bytes + kLinkBytesPerCycle - 1) / kLinkBytesPerCycle;
    sim::Tick delay = clk_.cyclesToTicks(kRouterPipelineCycles + ser);
    if (delay < launchEarly_)
        sim::panic("%s: drain %llu shorter than lane latency %llu",
                   name_.c_str(),
                   static_cast<unsigned long long>(delay),
                   static_cast<unsigned long long>(launchEarly_));
    eq_.schedule(delay - launchEarly_, [this]() { tryHandOver(); });
}

void
OutPort::tryHandOver()
{
    if (queue_.empty())
        sim::panic("%s: drain with empty queue", name_.c_str());
    Packet &head = queue_.front();
    bool ok = target_->acceptPacket(head, [this]() { tryHandOver(); });
    if (!ok) {
        // Downstream is full: stay stalled; retry fires via callback.
        return;
    }
    if (launchEarly_ == 0)
        completeForward();
    else
        eq_.schedule(launchEarly_, [this]() { completeForward(); });
}

void
OutPort::completeForward()
{
    queue_.pop_front();
    forwarded_->inc();
    notifySpaceWaiters();
    if (!queue_.empty()) {
        startDrain();
    } else {
        draining_ = false;
    }
}

void
OutPort::notifySpaceWaiters()
{
    if (spaceWaiters_.empty())
        return;
    auto waiters = std::move(spaceWaiters_);
    spaceWaiters_.clear();
    for (auto &cb : waiters)
        cb();
}

Router::Router(sim::EventQueue &eq, const sim::Clock &clk,
               const NocParams &params, unsigned id, std::string name)
    : SimObject(eq, std::move(name)), clk_(clk), params_(params), id_(id)
{
    routed_ = statCounter("routed");
    trc_ = &eq.tracer();
    if (trc_->anyEnabled())
        trc_->setThreadName(sim::kTracePidNoc, id_,
                            "r" + std::to_string(id_));
}

std::size_t
Router::addPort()
{
    ports_.push_back(std::make_unique<OutPort>(
        eq_, clk_, params_,
        name() + ".port" + std::to_string(ports_.size())));
    return ports_.size() - 1;
}

void
Router::setRoute(TileId dst, std::size_t port_idx)
{
    if (dst >= routeTable_.size())
        routeTable_.resize(dst + 1, SIZE_MAX);
    routeTable_[dst] = port_idx;
}

bool
Router::acceptPacket(Packet &pkt, sim::UniqueFunction<void()> on_space)
{
    if (pkt.dst >= routeTable_.size() ||
        routeTable_[pkt.dst] == SIZE_MAX) {
        sim::panic("%s: no route for tile %u", name().c_str(), pkt.dst);
    }
    OutPort &out = *ports_[routeTable_[pkt.dst]];
    if (!out.hasSpace()) {
        out.waitForSpace(std::move(on_space));
        return false;
    }
    out.enqueue(std::move(pkt));
    routed_->inc();
    trc_->instant(sim::TraceCat::Noc, sim::kTracePidNoc, id_, "hop");
    return true;
}

} // namespace m3v::noc
