/**
 * @file
 * The cross-lane boundary of the sharded NoC: a HopTarget that
 * forwards packets from one router's lane into a neighbouring router
 * on another lane with a fixed latency (the fabric's minimum link
 * traversal time, which is exactly the pair's declared lookahead).
 *
 * Used together with OutPort::setLaunchEarly(latency): the port hands
 * its head packet to the LaneLink `latency` ticks before the drain
 * would complete, the link posts it across lanes due `latency` ticks
 * later, so the packet reaches the real target at the same tick as a
 * direct in-lane handover. On the destination lane a small relay
 * queue feeds the target and owns the retry loop when the target
 * refuses (backpressure stays lane-local); flow control back to the
 * sending port uses credits returned cross-lane, so the transmit side
 * never overruns the relay. Uncongested, credits never run out and
 * the timing is identical to the single-queue build; under congestion
 * the retry timing may differ from the sequential interleaving (but
 * stays deterministic and independent of worker count).
 */

#ifndef M3VSIM_NOC_LANE_LINK_H_
#define M3VSIM_NOC_LANE_LINK_H_

#include <vector>

#include "noc/packet.h"
#include "sim/lane.h"
#include "sim/ring_deque.h"

namespace m3v::noc {

/** One direction of a lane-crossing link. */
class LaneLink : public HopTarget
{
  public:
    /**
     * @param latency  Cross-lane delivery latency in ticks; must be
     *                 >= the pair's declared lookahead (the Noc
     *                 declares and passes minLinkLatency() for both).
     * @param credits  Packets in flight (posted or queued in the
     *                 relay) before the tx side reports "full".
     */
    LaneLink(sim::LaneScheduler &sched, unsigned src_lane,
             unsigned dst_lane, sim::Tick latency, HopTarget *target,
             std::size_t credits);

    /** Tx side; runs on the source lane. */
    bool acceptPacket(Packet &pkt,
                      sim::UniqueFunction<void()> on_space) override;

  private:
    void rxArrive(Packet pkt);
    void pumpRx();
    void returnCredit();

    sim::LaneScheduler &sched_;
    unsigned srcLane_;
    unsigned dstLane_;
    sim::Tick latency_;
    HopTarget *target_;

    // Source-lane state.
    std::size_t credits_;
    std::vector<sim::UniqueFunction<void()>> waiters_;

    // Destination-lane state.
    sim::RingDeque<Packet> rxQueue_;
    bool rxStalled_ = false;
};

} // namespace m3v::noc

#endif // M3VSIM_NOC_LANE_LINK_H_
