/**
 * @file
 * Controller sharding support (DESIGN.md section 4i): the static
 * tile-quadrant-to-shard map, the direct tile-to-DTU table the
 * controllers use for privileged cleanup, and the wire format of the
 * cross-shard controller protocol (delegate/revoke/create between
 * per-quadrant controllers, carried over ordinary DTU messages).
 */

#ifndef M3VSIM_OS_SHARD_H_
#define M3VSIM_OS_SHARD_H_

#include <cstdint>
#include <vector>

#include "os/caps.h"

namespace m3v::os {

/**
 * The static partition of user tiles into controller quadrants:
 * contiguous blocks of tiles, shard s owning tiles
 * [s*U/S, (s+1)*U/S). Activities are homed with their tile; their
 * capability tables live on their tile's shard.
 */
struct ShardMap
{
    unsigned shards = 1;
    unsigned userTiles = 8;

    unsigned
    shardOfTile(noc::TileId tile) const
    {
        if (tile >= userTiles)
            return 0;
        return static_cast<unsigned>(
            static_cast<std::uint64_t>(tile) * shards / userTiles);
    }

    /** First user tile of @p shard's quadrant. */
    noc::TileId
    quadrantBegin(unsigned shard) const
    {
        return static_cast<noc::TileId>(
            static_cast<std::uint64_t>(shard) * userTiles / shards);
    }

    /** One past the last user tile of @p shard's quadrant. */
    noc::TileId
    quadrantEnd(unsigned shard) const
    {
        return static_cast<noc::TileId>(
            static_cast<std::uint64_t>(shard + 1) * userTiles /
            shards);
    }
};

/**
 * Direct tile-to-DTU table (replaces the std::function DtuLocator):
 * one flat pointer array indexed by TileId, shared by every
 * controller shard. Tiles without an accessible DTU (memory tiles)
 * stay null.
 */
class DtuMap
{
  public:
    void
    set(noc::TileId tile, dtu::Dtu *d)
    {
        if (tile >= dtus_.size())
            dtus_.resize(tile + 1, nullptr);
        dtus_[tile] = d;
    }

    dtu::Dtu *
    get(noc::TileId tile) const
    {
        return tile < dtus_.size() ? dtus_[tile] : nullptr;
    }

  private:
    std::vector<dtu::Dtu *> dtus_;
};

/**
 * A cross-shard controller request. A request that wants a reply is
 * sent with an origin-unique DTU nonce (dtu::Message::nonce), which
 * the reply echoes: that is how a call matches its reply when nested
 * calls share the reply EP. One-way notifications carry none.
 */
struct CtrlReq
{
    enum class Op : std::uint32_t
    {
        /** Insert a copy of a capability into a table of this shard,
         *  as the remote child of (srcShard, act2, sel2). */
        Delegate,
        /** Two-phase revoke of the subtree rooted at (act, sel);
         *  flags bit 1 set = keep the root. */
        Revoke,
        /** Allocate an activity record homed on tile @p tile; returns
         *  the new ActId. */
        CreateAct,
        /** Release the share record on (act, sel) naming the remote
         *  child (srcShard, act2, sel2) — that child died. */
        DropShare,
        /** Drop the whole capability table of @p act (activity
         *  destroyed from another shard). */
        DropTable,
        /** Forward a MapFor page mapping to @p act's TileMux (the
         *  sidecall channel belongs to the home quadrant). */
        MapFor,
    };

    Op op = Op::Revoke;
    /** Bit 0: a reply is expected. Bit 1: op-specific (see Op). */
    std::uint32_t flags = 0;
    /** Shard this request originates from. */
    std::uint32_t srcShard = 0;

    dtu::ActId act = dtu::kInvalidAct;
    CapSel sel = kInvalidSel;
    dtu::ActId act2 = dtu::kInvalidAct;
    CapSel sel2 = kInvalidSel;
    std::uint32_t tile = 0;
    std::uint64_t a = 0;
    std::uint64_t b = 0;
    std::uint64_t c = 0;

    /** Object payload (Delegate). KObjects are POD and copied across
     *  shards — shards share no pointers (Corey explicit shares). */
    KObject obj{};

    static constexpr std::uint32_t kWantReply = 1u << 0;
    static constexpr std::uint32_t kKeepRoot = 1u << 1;
};

/** Reply to a cross-shard controller request: an error and one
 *  op-specific value (a selector, an ActId or a removed-cap count). */
struct CtrlResp
{
    dtu::Error err = dtu::Error::None;
    std::uint64_t val = 0;
};

} // namespace m3v::os

#endif // M3VSIM_OS_SHARD_H_
