#include "tile/cache_model.h"

#include <algorithm>

#include "sim/log.h"

namespace m3v::tile {

CacheModel::CacheModel(std::size_t capacity_bytes,
                       std::size_t line_bytes, sim::Cycles fill_cycles)
    : capacity_(capacity_bytes), lineBytes_(line_bytes),
      fillCycles_(fill_cycles)
{
    if (capacity_bytes == 0 || line_bytes == 0)
        sim::panic("CacheModel: zero capacity or line size");
}

sim::Cycles
CacheModel::touch(RegionId region, std::size_t footprint_bytes)
{
    // A footprint larger than the cache can at most fill the cache;
    // the excess misses every time.
    std::size_t cacheable = std::min(footprint_bytes, capacity_);
    std::size_t uncacheable = footprint_bytes - cacheable;

    std::size_t res = 0;
    auto it = regions_.find(region);
    if (it != regions_.end()) {
        res = it->second.first;
        lru_.erase(it->second.second);
        used_ -= res;
        regions_.erase(it);
    }

    std::size_t miss = cacheable > res ? cacheable - res : 0;
    evictFor(cacheable, region);

    lru_.push_front(region);
    regions_.emplace(region, std::make_pair(cacheable, lru_.begin()));
    used_ += cacheable;

    std::size_t miss_bytes = miss + uncacheable;
    return (miss_bytes + lineBytes_ - 1) / lineBytes_ * fillCycles_;
}

std::size_t
CacheModel::resident(RegionId region) const
{
    auto it = regions_.find(region);
    return it == regions_.end() ? 0 : it->second.first;
}

void
CacheModel::flush()
{
    lru_.clear();
    regions_.clear();
    used_ = 0;
}

void
CacheModel::evictFor(std::size_t need_bytes, RegionId except)
{
    while (used_ + need_bytes > capacity_ && !lru_.empty()) {
        RegionId victim = lru_.back();
        if (victim == except)
            sim::panic("CacheModel: evicting the touched region");
        auto it = regions_.find(victim);
        // Partial eviction: shrink the LRU region first.
        std::size_t overflow = used_ + need_bytes - capacity_;
        if (it->second.first > overflow) {
            it->second.first -= overflow;
            used_ -= overflow;
            return;
        }
        used_ -= it->second.first;
        lru_.pop_back();
        regions_.erase(it);
    }
}

} // namespace m3v::tile
