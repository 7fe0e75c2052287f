/**
 * @file
 * The DTU wire protocol: every NoC packet a DTU sends or receives.
 *
 * A single struct with a kind tag keeps the simulator simple; only the
 * fields relevant to a kind are populated. Sizes on the wire are
 * derived from the semantic content so NoC timing stays realistic.
 */

#ifndef M3VSIM_DTU_WIRE_H_
#define M3VSIM_DTU_WIRE_H_

#include <cstdint>
#include <new>
#include <vector>

#include "dtu/ep.h"
#include "dtu/message.h"
#include "dtu/types.h"
#include "noc/packet.h"

namespace m3v::dtu {

/** External-interface operations (controller -> DTU). */
enum class ExtOp : std::uint8_t
{
    SetEp,    ///< install an endpoint
    InvEp,    ///< invalidate an endpoint
    ReadEps,  ///< read a range of endpoints (M3x state save)
    WriteEps, ///< write a range of endpoints (M3x state restore)
};

/** All DTU-level NoC packet kinds. */
enum class WireKind : std::uint8_t
{
    MsgXfer,      ///< message transfer (send/reply)
    MsgDelivered, ///< receiver stored the message (flow-control ack)
    MsgNack,      ///< receiver could not store it (error code inside)
    CreditReturn, ///< receiver acknowledged: return one credit
    MemReadReq,   ///< DMA read request to a memory/remote tile
    MemReadResp,  ///< data response
    MemWriteReq,  ///< DMA write request (carries data)
    MemWriteAck,  ///< write completion
    ExtReq,       ///< controller external request
    ExtResp,      ///< external response
};

/** The DTU packet payload carried opaquely through the NoC. */
struct WireData final : noc::PacketData
{
    /**
     * WireData headers are pooled: the message path creates and
     * destroys one per packet in steady state, and a per-thread
     * freelist (wire.cc) recycles them so the hot path allocates
     * nothing beyond the payload buffer it carries. A header joins the
     * list of the thread that frees it; a thread keeps at most this
     * many free headers and returns the rest to the heap.
     */
    static constexpr std::size_t kFreeHeadersPerThread = 4096;
    static void *operator new(std::size_t sz);
    static void operator delete(void *p) noexcept;

    WireKind kind = WireKind::MsgXfer;

    /** Correlates requests and responses. */
    std::uint64_t reqId = 0;

    // --- MsgXfer / MsgNack ---
    EpId dstEp = kInvalidEp;
    /** Target activity tag from the send EP (kInvalidAct: none). */
    ActId dstAct = kInvalidAct;
    Message msg;
    /** True for replies: no credits are consumed at the receiver. */
    bool isReply = false;
    Error error = Error::None;

    // --- CreditReturn ---
    EpId creditEp = kInvalidEp;

    // --- Mem* ---
    PhysAddr addr = 0;
    std::size_t size = 0;
    /** DMA payload (MemReadResp/MemWriteReq), owned like msg's. */
    std::vector<std::uint8_t> data;

    // --- Ext* ---
    ExtOp extOp = ExtOp::SetEp;
    EpId epStart = 0;
    std::uint16_t epCount = 0;
    std::vector<Endpoint> eps;

    /** Approximate wire size for NoC timing. */
    std::size_t
    wireBytes() const
    {
        switch (kind) {
          case WireKind::MsgXfer:
            return 32 + msg.payload.size();
          case WireKind::MemReadResp:
          case WireKind::MemWriteReq:
            return 24 + data.size();
          case WireKind::ExtReq:
          case WireKind::ExtResp:
            return 24 + eps.size() * 64;
          default:
            return 16;
        }
    }
};

} // namespace m3v::dtu

#endif // M3VSIM_DTU_WIRE_H_
