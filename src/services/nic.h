/**
 * @file
 * The tile-local NIC device and the external peer host.
 *
 * The paper's platform attaches an AXI-Ethernet NIC to one processing
 * tile's core (section 4.1); the net service runs on that core and
 * drives it. Frames travel over a Gbit Ethernet wire to an external
 * machine (an AMD Ryzen in the paper's benchmarks), modelled by
 * ExtHost with a configurable turnaround behaviour (UDP echo or
 * sink).
 *
 * Frames are simplified UDP-over-Ethernet: a POD header plus payload;
 * the real Ethernet+IP+UDP header overhead (42 bytes) is charged on
 * the wire.
 */

#ifndef M3VSIM_SERVICES_NIC_H_
#define M3VSIM_SERVICES_NIC_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "os/proto.h"
#include "sim/sim_object.h"
#include "sim/stats.h"

namespace m3v::services {

/** Simplified UDP/IP frame header. */
struct UdpFrameHdr
{
    std::uint32_t srcIp = 0;
    std::uint32_t dstIp = 0;
    std::uint16_t srcPort = 0;
    std::uint16_t dstPort = 0;
    std::uint16_t len = 0;
};

/** Build a frame (header + payload). */
os::Bytes makeFrame(const UdpFrameHdr &hdr, const os::Bytes &payload);

/** Split a frame into header + payload. */
UdpFrameHdr parseFrame(const os::Bytes &frame, os::Bytes *payload);

/** Ethernet + IP + UDP header overhead on the wire. */
constexpr std::size_t kWireOverhead = 42;

class ExtHost;

/** NIC link speed. */
constexpr std::uint64_t kLinkBps = 1'000'000'000;

/** One-way wire propagation (cabling + PHYs + switch). */
constexpr sim::Tick kPropagation = 5 * sim::kTicksPerUs;

/** DMA latency between NIC and the core's memory. */
constexpr sim::Tick kDmaLatency = 2 * sim::kTicksPerUs;

/** Application turnaround on the external host (fast x86 box). */
constexpr sim::Tick kTurnaround = 120 * sim::kTicksPerUs;

/** The tile-local Ethernet NIC. */
class Nic : public sim::SimObject
{
  public:
    Nic(sim::EventQueue &eq, std::string name);

    void connect(ExtHost *host) { host_ = host; }

    /**
     * Driver-side transmit: DMA from memory, serialize on the wire,
     * deliver to the peer host. TX is serialized (one frame at a
     * time on the link).
     */
    void transmit(os::Bytes frame);

    /**
     * Install the RX handler: called (after DMA latency) for every
     * frame arriving from the wire. The net service wires this to a
     * driver-mailbox message (Dtu::deviceMessage).
     */
    void setRxHandler(std::function<void(os::Bytes)> h);

    /** Host-side delivery towards this NIC. */
    void hostDeliver(os::Bytes frame);

  private:
    sim::Tick serTime(std::size_t bytes) const;

    ExtHost *host_ = nullptr;
    std::function<void(os::Bytes)> rxHandler_;
    sim::Tick txBusyUntil_ = 0;
    sim::Counter *tx_;
    sim::Counter *rx_;
};

/** The external peer machine. */
class ExtHost : public sim::SimObject
{
  public:
    enum class Mode
    {
        Echo, ///< swap addresses and send the payload back
        Sink, ///< count and discard
    };

    ExtHost(sim::EventQueue &eq, std::string name, Mode mode);

    void connect(Nic *nic) { nic_ = nic; }

    /** A frame arrived from the NIC's wire. */
    void onFrame(os::Bytes frame);

    std::uint64_t framesReceived() const { return frames_->value(); }

  private:
    Mode mode_;
    Nic *nic_ = nullptr;
    sim::Counter *frames_;
    sim::Counter *bytes_;
};

} // namespace m3v::services

#endif // M3VSIM_SERVICES_NIC_H_
