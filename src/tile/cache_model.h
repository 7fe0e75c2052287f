/**
 * @file
 * A footprint-based cache model. TileMux and the Linux kernel model
 * use it for the L1 instruction cache; L1D and L2 are not modelled.
 *
 * We do not simulate individual lines; instead each software component
 * (application, kernel path, OS service) is a "region" with a code/data
 * footprint. Touching a region brings its footprint into the cache,
 * evicting the least-recently-used other regions, and costs one line
 * fill per evicted-then-reloaded 64-byte line.
 *
 * This reproduces the effect the paper uses to explain Figure 10's
 * scan anomaly: Linux' large kernel footprint on a 16 KiB L1I evicts
 * most of the application on every system call, while M3v's small
 * components keep their working sets resident.
 */

#ifndef M3VSIM_TILE_CACHE_MODEL_H_
#define M3VSIM_TILE_CACHE_MODEL_H_

#include <cstdint>
#include <list>
#include <unordered_map>

#include "sim/types.h"

namespace m3v::tile {

/** Identifier for a cached software region. */
using RegionId = std::uint32_t;

/** LRU footprint cache model. */
class CacheModel
{
  public:
    /**
     * @param capacity_bytes cache capacity
     * @param line_bytes     line size (refill granularity)
     * @param fill_cycles    cycles per line refill
     */
    CacheModel(std::size_t capacity_bytes, std::size_t line_bytes,
               sim::Cycles fill_cycles);

    /**
     * Touch @p region with working-set size @p footprint_bytes.
     * Returns the refill cost in cycles for the portion of the
     * footprint that is not resident. Updates LRU order.
     */
    sim::Cycles touch(RegionId region, std::size_t footprint_bytes);

    /** Bytes of @p region currently resident. */
    std::size_t resident(RegionId region) const;

    /** Drop all contents (e.g. address-space switch with ASID flush). */
    void flush();

  private:
    void evictFor(std::size_t need_bytes, RegionId except);

    std::size_t capacity_;
    std::size_t lineBytes_;
    sim::Cycles fillCycles_;
    std::size_t used_ = 0;
    /** LRU list: front = most recent. */
    std::list<RegionId> lru_;
    std::unordered_map<RegionId,
                       std::pair<std::size_t, std::list<RegionId>::iterator>>
        regions_;
};

} // namespace m3v::tile

#endif // M3VSIM_TILE_CACHE_MODEL_H_
