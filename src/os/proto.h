/**
 * @file
 * Wire formats of the M3v software protocols: system calls from
 * activities to the controller, sidecalls from the controller to
 * TileMux instances, and POD serialization helpers.
 */

#ifndef M3VSIM_OS_PROTO_H_
#define M3VSIM_OS_PROTO_H_

#include <cstdint>
#include <cstring>
#include <vector>

#include "dtu/types.h"
#include "sim/log.h"

namespace m3v::os {

/** Raw message payload bytes. */
using Bytes = std::vector<std::uint8_t>;

/** Serialize a trivially-copyable struct into payload bytes. */
template <typename T>
Bytes
podBytes(const T &v)
{
    static_assert(std::is_trivially_copyable_v<T>);
    Bytes b(sizeof(T));
    std::memcpy(b.data(), &v, sizeof(T));
    return b;
}

/** Deserialize payload bytes into a trivially-copyable struct. */
template <typename T>
T
podFrom(const Bytes &b)
{
    static_assert(std::is_trivially_copyable_v<T>);
    if (b.size() < sizeof(T))
        sim::panic("podFrom: message too short (%zu < %zu)", b.size(),
                   sizeof(T));
    T v;
    std::memcpy(&v, b.data(), sizeof(T));
    return v;
}

/** Concatenate a POD header and payload bytes. */
template <typename T>
Bytes
withPayload(const T &hdr, const Bytes &payload)
{
    static_assert(std::is_trivially_copyable_v<T>);
    Bytes b(sizeof(T) + payload.size());
    std::memcpy(b.data(), &hdr, sizeof(T));
    if (!payload.empty())
        std::memcpy(b.data() + sizeof(T), payload.data(),
                    payload.size());
    return b;
}

/**
 * Split a message built by withPayload(): return its POD header and,
 * if @p payload is set, copy the bytes after it there.
 */
template <typename T>
T
splitPayload(const Bytes &msg, Bytes *payload)
{
    T hdr = podFrom<T>(msg);
    if (payload)
        payload->assign(msg.begin() + static_cast<long>(sizeof(T)),
                        msg.end());
    return hdr;
}

/**
 * Capability selector within an activity's capability table.
 *
 * The selector space is partitioned per controller shard (Corey-style
 * explicit partitioning): the top byte carries the id of the shard
 * whose tables allocated the selector, the low 24 bits are the
 * shard-local value. A single controller is shard 0, whose
 * selectors are plain small integers.
 */
using CapSel = std::uint32_t;
constexpr CapSel kInvalidSel = ~0u;

/** Bit position of the shard id inside a CapSel. */
constexpr unsigned kCapSelShardShift = 24;
/** Mask of the shard-local part of a CapSel. */
constexpr CapSel kCapSelLocalMask = (1u << kCapSelShardShift) - 1;

/** Shard that allocated @p sel (owner of the backing table). */
constexpr unsigned
selShard(CapSel sel)
{
    return sel >> kCapSelShardShift;
}

/** Compose a selector from shard id and shard-local value. */
constexpr CapSel
makeSel(unsigned shard, CapSel local)
{
    return (static_cast<CapSel>(shard) << kCapSelShardShift) |
           (local & kCapSelLocalMask);
}

/** System calls handled by the controller (paper section 3.3). */
struct SyscallReq
{
    enum class Op : std::uint32_t
    {
        Noop,        ///< round-trip measurement
        DeriveMem,   ///< derive a sub-range memory capability
        Activate,    ///< install an own capability into an own EP
        ActivateFor, ///< install a cap into another activity's EP
                     ///< (requires holding that activity's cap)
        Delegate,    ///< copy a capability to another activity
        Revoke,      ///< recursively revoke a capability subtree
        MapFor,      ///< install a page mapping for another activity
                     ///< (controller forwards it to that TileMux as a
                     ///< sidecall, paper section 4.3)
        CreateAct,   ///< create a controller-side activity record on a
                     ///< tile (arg0); the caller receives its activity
                     ///< capability. Used by control-plane storms: the
                     ///< activity owns a capability table but no
                     ///< execution context.
        DestroyAct,  ///< revoke an activity capability (arg0) and drop
                     ///< the activity's whole capability table
    };

    Op op = Op::Noop;
    /** Operation arguments (selector/ep/addr/size/perm fields). */
    std::uint64_t arg0 = 0;
    std::uint64_t arg1 = 0;
    std::uint64_t arg2 = 0;
    std::uint64_t arg3 = 0;
    std::uint64_t arg4 = 0;
};

/** System-call response. */
struct SyscallResp
{
    dtu::Error err = dtu::Error::None;
    /** Result value (e.g. the new capability selector). */
    std::uint64_t val = 0;
};

/** Sidecalls from the controller to a TileMux instance (only
 *  MapPage; the op field keeps the message's wire size). */
struct SidecallReq
{
    enum class Op : std::uint32_t
    {
        MapPage, ///< install a page-table entry for an activity
    };

    Op op = Op::MapPage;
    dtu::ActId act = dtu::kInvalidAct;
    std::uint64_t virt = 0;
    std::uint64_t phys = 0;
    std::uint32_t perms = 0;
};

/** Sidecall response. */
struct SidecallResp
{
    dtu::Error err = dtu::Error::None;
};

} // namespace m3v::os

#endif // M3VSIM_OS_PROTO_H_
