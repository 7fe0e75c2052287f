/**
 * @file
 * Heap-allocation counting for tests that assert an allocation count.
 *
 * Replaces the global operator new/delete with pass-throughs to
 * malloc/free that count every allocation in m3v::test::allocCount.
 * Replacement allocation functions must not be inline, so include
 * this header from exactly one source file of a test binary. Every
 * block still comes from malloc, so the override is safe under ASan.
 */

#ifndef M3VSIM_TESTS_ALLOC_COUNT_H_
#define M3VSIM_TESTS_ALLOC_COUNT_H_

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

// The replacement operator new below forwards to malloc, so pairing
// its result with free is intentional; GCC cannot see through the
// global replacement and misdiagnoses the pair.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

namespace m3v::test {
/** Heap allocations made through operator new so far. */
inline std::atomic<std::uint64_t> allocCount{0};
} // namespace m3v::test

void *
operator new(std::size_t size)
{
    m3v::test::allocCount.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t size)
{
    return ::operator new(size);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

#endif // M3VSIM_TESTS_ALLOC_COUNT_H_
