/**
 * @file
 * A bounded multi-producer single-consumer ring (Vyukov's bounded
 * MPMC queue, used with one consumer).
 *
 * The lane scheduler's fan-in aggregation: instead of one mailbox
 * per (src, dst) lane pair — n² rings, each drained at every
 * barrier — every destination lane owns a single combining ring that
 * all source lanes push into concurrently. Producers claim cells with
 * one fetch_add on the enqueue cursor; the per-cell sequence number
 * tells each side when its cell is ready, so pushes from different
 * producers never wait on each other. The consumer (the barrier
 * thread) drains in cell order.
 *
 * Note the ring's pop order interleaves producers arbitrarily; the
 * scheduler restores the canonical (due, srcLane, dstLane, seq) order
 * by sorting at the barrier, so determinism is unaffected.
 */

#ifndef M3VSIM_SIM_MPSC_H_
#define M3VSIM_SIM_MPSC_H_

#include <atomic>
#include <bit>
#include <cstddef>
#include <memory>
#include <utility>

namespace m3v::sim {

/** Bounded MPSC ring. tryPush is lock-free; tryPop is consumer-only. */
template <typename T>
class MpscRing
{
  public:
    explicit MpscRing(std::size_t capacity)
        : mask_(std::bit_ceil(capacity < 2 ? 2 : capacity) - 1),
          cells_(std::make_unique<Cell[]>(mask_ + 1))
    {
        for (std::size_t i = 0; i <= mask_; i++)
            cells_[i].seq.store(i, std::memory_order_relaxed);
    }

    MpscRing(const MpscRing &) = delete;
    MpscRing &operator=(const MpscRing &) = delete;

    /** Usable capacity (requested, rounded up to a power of two). */
    std::size_t capacity() const { return mask_ + 1; }

    /** Any-producer enqueue; false when the ring is full. */
    bool
    tryPush(T &&v)
    {
        std::size_t pos = enq_.load(std::memory_order_relaxed);
        for (;;) {
            Cell &c = cells_[pos & mask_];
            std::size_t seq = c.seq.load(std::memory_order_acquire);
            std::intptr_t diff = static_cast<std::intptr_t>(seq) -
                                 static_cast<std::intptr_t>(pos);
            if (diff == 0) {
                if (enq_.compare_exchange_weak(
                        pos, pos + 1, std::memory_order_relaxed))
                {
                    c.val = std::move(v);
                    c.seq.store(pos + 1,
                                std::memory_order_release);
                    return true;
                }
            } else if (diff < 0) {
                return false; // full
            } else {
                pos = enq_.load(std::memory_order_relaxed);
            }
        }
    }

    /** Single-consumer dequeue; false when empty. */
    bool
    tryPop(T &out)
    {
        Cell &c = cells_[deq_ & mask_];
        std::size_t seq = c.seq.load(std::memory_order_acquire);
        if (static_cast<std::intptr_t>(seq) -
                static_cast<std::intptr_t>(deq_ + 1) <
            0)
            return false;
        out = std::move(c.val);
        c.val = T();
        c.seq.store(deq_ + mask_ + 1, std::memory_order_release);
        deq_++;
        return true;
    }

    /** Consumer-side emptiness check. */
    bool
    empty() const
    {
        const Cell &c = cells_[deq_ & mask_];
        std::size_t seq = c.seq.load(std::memory_order_acquire);
        return static_cast<std::intptr_t>(seq) -
                   static_cast<std::intptr_t>(deq_ + 1) <
               0;
    }

  private:
    struct Cell
    {
        std::atomic<std::size_t> seq{0};
        T val{};
    };

    std::size_t mask_;
    std::unique_ptr<Cell[]> cells_;
    alignas(64) std::atomic<std::size_t> enq_{0};
    /** Consumer cursor: touched only by the draining thread. */
    alignas(64) std::size_t deq_ = 0;
};

} // namespace m3v::sim

#endif // M3VSIM_SIM_MPSC_H_
