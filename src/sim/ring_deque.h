/**
 * @file
 * A growable power-of-two ring used as a FIFO deque.
 *
 * std::deque allocates and frees fixed-size chunks as elements cross
 * chunk boundaries, so even a bounded steady-state producer/consumer
 * pair churns the heap. RingDeque keeps one contiguous slot array
 * that only grows (doubling, never shrinking), so a warmed-up queue
 * performs zero allocations regardless of how many elements pass
 * through it — the property the message-path allocation counts rely
 * on (see tests/dtu/msgpath_test.cc).
 *
 * Single-threaded; the elements only need to be movable.
 */

#ifndef M3VSIM_SIM_RING_DEQUE_H_
#define M3VSIM_SIM_RING_DEQUE_H_

#include <cstddef>
#include <memory>
#include <utility>

namespace m3v::sim {

/** Bounded-churn FIFO: push_back/pop_front with amortized growth. */
template <typename T>
class RingDeque
{
  public:
    RingDeque() = default;

    RingDeque(RingDeque &&o) noexcept
        : slots_(std::move(o.slots_)), mask_(o.mask_),
          head_(o.head_), size_(o.size_)
    {
        o.mask_ = 0;
        o.head_ = 0;
        o.size_ = 0;
    }

    RingDeque &
    operator=(RingDeque &&o) noexcept
    {
        slots_ = std::move(o.slots_);
        mask_ = o.mask_;
        head_ = o.head_;
        size_ = o.size_;
        o.mask_ = 0;
        o.head_ = 0;
        o.size_ = 0;
        return *this;
    }

    RingDeque(const RingDeque &) = delete;
    RingDeque &operator=(const RingDeque &) = delete;

    bool empty() const { return size_ == 0; }
    std::size_t size() const { return size_; }

    /** Slots currently reserved (for tests). */
    std::size_t capacity() const { return slots_ ? mask_ + 1 : 0; }

    void
    push_back(T &&v)
    {
        if (!slots_ || size_ == mask_ + 1)
            grow();
        slots_[(head_ + size_) & mask_] = std::move(v);
        size_++;
    }

    T &front() { return slots_[head_]; }
    const T &front() const { return slots_[head_]; }

    T &back() { return slots_[(head_ + size_ - 1) & mask_]; }
    const T &back() const
    {
        return slots_[(head_ + size_ - 1) & mask_];
    }

    /** Element @p i counting from the front (0 = front()). */
    T &operator[](std::size_t i)
    {
        return slots_[(head_ + i) & mask_];
    }
    const T &operator[](std::size_t i) const
    {
        return slots_[(head_ + i) & mask_];
    }

    void
    pop_front()
    {
        slots_[head_] = T();
        head_ = (head_ + 1) & mask_;
        size_--;
    }

    void
    clear()
    {
        while (size_)
            pop_front();
    }

  private:
    void
    grow()
    {
        std::size_t cap = slots_ ? (mask_ + 1) * 2 : kInitialSlots;
        auto next = std::make_unique<T[]>(cap);
        for (std::size_t i = 0; i < size_; i++)
            next[i] = std::move(slots_[(head_ + i) & mask_]);
        slots_ = std::move(next);
        mask_ = cap - 1;
        head_ = 0;
    }

    static constexpr std::size_t kInitialSlots = 8;

    std::unique_ptr<T[]> slots_;
    std::size_t mask_ = 0;
    std::size_t head_ = 0;
    std::size_t size_ = 0;
};

} // namespace m3v::sim

#endif // M3VSIM_SIM_RING_DEQUE_H_
