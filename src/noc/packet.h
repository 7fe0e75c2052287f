/**
 * @file
 * Network-on-chip packets and the hop-target interface.
 *
 * The NoC is a pure transport: it needs the destination for routing and
 * the size for timing. Higher layers (the DTUs) attach their semantic
 * payload as an opaque PacketData subclass, keeping the layering clean
 * (noc does not depend on dtu).
 */

#ifndef M3VSIM_NOC_PACKET_H_
#define M3VSIM_NOC_PACKET_H_

#include <cstdint>
#include <memory>

#include "sim/unique_function.h"

namespace m3v::noc {

/** Chip-global tile identifier. */
using TileId = std::uint32_t;

/** Base class for opaque packet payloads defined by higher layers. */
struct PacketData
{
    PacketData() = default;
    PacketData(const PacketData &) = default;
    PacketData(PacketData &&) = default;
    PacketData &operator=(const PacketData &) = default;
    PacketData &operator=(PacketData &&) = default;
    virtual ~PacketData() = default;
};

/** A packet in flight on the NoC. */
struct Packet
{
    TileId src = 0;
    TileId dst = 0;

    /** Wire size in bytes (payload only; header is added per hop). */
    std::size_t bytes = 0;

    /** Opaque payload interpreted by the receiving component. */
    std::unique_ptr<PacketData> data;
};

/**
 * Receiver side of a hop: the next router, or the component attached
 * to a tile (DTU, memory controller, device).
 */
class HopTarget
{
  public:
    virtual ~HopTarget() = default;

    /**
     * Try to hand over a packet. On success the packet is moved from
     * and true is returned; @p on_space is dropped. On backpressure
     * the packet is left untouched, @p on_space is registered to fire
     * exactly once when space frees, and false is returned.
     */
    virtual bool acceptPacket(Packet &pkt,
                              sim::UniqueFunction<void()> on_space) = 0;
};

} // namespace m3v::noc

#endif // M3VSIM_NOC_PACKET_H_
