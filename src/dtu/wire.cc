/**
 * @file
 * WireData pooling.
 *
 * The message path builds one WireData header per packet. With plain
 * `new` that is a per-message heap allocation — instead each thread
 * recycles header blocks through its own freelist, so a warmed-up
 * send/receive cycle allocates nothing beyond the payload buffer the
 * sender hands in (asserted by tests/dtu/msgpath_test.cc), and no
 * thread ever waits on another's headers.
 */

#include "dtu/wire.h"

namespace m3v::dtu {

namespace {

/**
 * One thread's free header blocks, at most kFreeHeadersPerThread. A
 * free block's first bytes hold the link to the next. Destroyed at
 * thread exit, which hands every block back to the heap.
 */
struct FreeList
{
    void *head = nullptr;
    std::size_t size = 0;

    ~FreeList()
    {
        while (void *b = head) {
            head = *static_cast<void **>(b);
            ::operator delete(b);
        }
    }
};

thread_local FreeList freeList;

} // namespace

void *
WireData::operator new(std::size_t sz)
{
    FreeList &fl = freeList;
    void *blk = fl.head;
    if (blk == nullptr)
        return ::operator new(sz);
    fl.head = *static_cast<void **>(blk);
    fl.size--;
    return blk;
}

void
WireData::operator delete(void *ptr) noexcept
{
    if (ptr == nullptr)
        return;
    FreeList &fl = freeList;
    if (fl.size == kFreeHeadersPerThread) {
        ::operator delete(ptr);
        return;
    }
    fl.head = ::new (ptr) void *(fl.head);
    fl.size++;
}

} // namespace m3v::dtu
