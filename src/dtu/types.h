/**
 * @file
 * Common DTU types: endpoint/activity identifiers, errors, and the
 * platform constants of the paper's prototype (128 endpoints, first
 * four reserved as PMP memory endpoints, single-page transfers).
 */

#ifndef M3VSIM_DTU_TYPES_H_
#define M3VSIM_DTU_TYPES_H_

#include <cstdint>

namespace m3v::dtu {

/** Endpoint index within a DTU. */
using EpId = std::uint16_t;

/** Activity id, unique per tile. */
using ActId = std::uint16_t;

/** Virtual / physical addresses in the simulated machine. */
using VirtAddr = std::uint64_t;
using PhysAddr = std::uint64_t;

/** Marker for "no activity" / invalid ids. */
constexpr ActId kInvalidAct = 0xffff;
constexpr EpId kInvalidEp = 0xffff;

/** Activity id used by TileMux itself (paper section 4.2). */
constexpr ActId kTileMuxAct = 0xfffe;

/** Number of endpoints per DTU (paper section 4.1: 128). */
constexpr EpId kNumEps = 128;

/** First four endpoints serve as PMP memory endpoints. */
constexpr EpId kNumPmpEps = 4;

/** Page size; DTU transfers are restricted to a single page. */
constexpr std::size_t kPageSize = 4096;
constexpr unsigned kPageBits = 12;

/** Result codes of DTU commands. */
enum class Error : std::uint8_t
{
    None = 0,
    /** Endpoint invalid or of the wrong type. */
    InvalidEp,
    /**
     * Endpoint owned by another activity. Reported as "unknown
     * endpoint" to avoid leaking information (paper section 3.5).
     */
    ForeignEp,
    /** Send endpoint out of credits. */
    NoCredits,
    /** vDTU TLB lookup failed; software must insert a translation. */
    TlbMiss,
    /** Transfer crosses a page boundary or exceeds the EP's window. */
    OutOfBounds,
    /** Receiver endpoint gone (M3x: recipient not running). */
    RecvGone,
    /** No reply permission for this message slot. */
    NoReplyAllowed,
    /** Physical memory protection rejected the access. */
    PmpFault,
    /** Message larger than the receive endpoint's slot size. */
    MsgTooBig,
    /** Command aborted (activity switch). */
    Aborted,
};

/** Number of Error enumerators (keep in sync with the enum). */
constexpr std::size_t kNumErrors =
    static_cast<std::size_t>(Error::Aborted) + 1;

/** Human-readable error name (for logs and tests). */
const char *errorName(Error e);

/** Access permissions. */
enum Perm : std::uint8_t
{
    kPermR = 1,
    kPermW = 2,
    kPermRW = 3,
};

} // namespace m3v::dtu

#endif // M3VSIM_DTU_TYPES_H_
