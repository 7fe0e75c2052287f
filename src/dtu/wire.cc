/**
 * @file
 * WireData pooling.
 *
 * The message path builds one WireData header per packet. With plain
 * `new` that is a per-message heap allocation — the pool below
 * recycles headers through a global freelist instead, so a warmed-up
 * send/receive cycle allocates nothing beyond the payload buffer the
 * sender hands in (asserted by tests/dtu/msgpath_test.cc).
 */

#include "dtu/wire.h"

#include <mutex>
#include <vector>

namespace m3v::dtu {

namespace {

/**
 * Global freelist of raw WireData-sized blocks. Shared by all
 * platforms/lanes in the process; guarded by one mutex (the critical
 * section is a pointer swap, far cheaper than malloc).
 */
struct WirePool
{
    std::mutex mu;
    std::vector<void *> free;

    ~WirePool()
    {
        for (void *p : free)
            ::operator delete(p);
    }
};

WirePool &
pool()
{
    static WirePool p;
    return p;
}

} // namespace

void *
WireData::operator new(std::size_t sz)
{
    if (sz != sizeof(WireData))
        return ::operator new(sz);
    WirePool &p = pool();
    {
        std::lock_guard<std::mutex> lock(p.mu);
        if (!p.free.empty()) {
            void *blk = p.free.back();
            p.free.pop_back();
            return blk;
        }
    }
    return ::operator new(sz);
}

void
WireData::operator delete(void *ptr, std::size_t sz) noexcept
{
    if (ptr == nullptr)
        return;
    if (sz != sizeof(WireData)) {
        ::operator delete(ptr);
        return;
    }
    WirePool &p = pool();
    std::lock_guard<std::mutex> lock(p.mu);
    p.free.push_back(ptr);
}

} // namespace m3v::dtu
