/**
 * @file
 * Messages exchanged between send and receive endpoints.
 */

#ifndef M3VSIM_DTU_MESSAGE_H_
#define M3VSIM_DTU_MESSAGE_H_

#include <cstdint>
#include <vector>

#include "dtu/types.h"
#include "noc/packet.h"

namespace m3v::dtu {

/** A message as stored in a receive-buffer slot. */
struct Message
{
    /** Channel label from the send endpoint. */
    std::uint64_t label = 0;

    /** Origin. */
    noc::TileId srcTile = 0;
    ActId srcAct = kInvalidAct;

    /**
     * Reply routing: the receive endpoint on the sender's tile that
     * accepts the (single) reply to this message, or kInvalidEp.
     */
    EpId replyEp = kInvalidEp;

    /** Send endpoint to return credits to on acknowledgement. */
    EpId creditEp = kInvalidEp;

    /** Whether the one-shot reply permission is still available. */
    bool canReply = false;

    /** Arrival sequence number (FIFO fetch order). */
    std::uint64_t seq = 0;

    /**
     * Call-correlation nonce: chosen by the sender per SEND command
     * (0 when unused) and echoed verbatim into the reply by REPLY.
     * The controller's cross-shard calls share one reply EP, and a
     * call nested inside another may fetch the outer call's reply:
     * the nonce tells whose reply it is. Header metadata, so it does
     * not change wireBytes().
     */
    std::uint64_t nonce = 0;

    /**
     * Payload bytes, owned by whoever holds the message: the sending
     * command, then the wire packet, then the receive-ring slot. Each
     * hand-off is a move (DESIGN.md section 4g).
     */
    std::vector<std::uint8_t> payload;
};

} // namespace m3v::dtu

#endif // M3VSIM_DTU_MESSAGE_H_
