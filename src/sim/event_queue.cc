#include "sim/event_queue.h"

#include <algorithm>
#include <bit>
#include <utility>

#include "sim/invariants.h"
#include "sim/log.h"
#include "sim/metrics.h"
#include "sim/trace.h"

namespace m3v::sim {

namespace {

thread_local EventQueue *gRunning = nullptr;

/** Min-heap comparator on (when, seq) for the overflow heap. */
struct Later
{
    bool
    operator()(const auto &a, const auto &b) const
    {
        if (a.when != b.when)
            return a.when > b.when;
        return a.seq > b.seq;
    }
};

} // namespace

EventQueue *
EventQueue::running()
{
    return gRunning;
}

bool
EventHandle::cancel()
{
    return queue_ && queue_->cancelSlot(slot_, gen_);
}

bool
EventHandle::pending() const
{
    return queue_ && queue_->isLive(slot_, gen_);
}

EventQueue::EventQueue() = default;
EventQueue::~EventQueue() = default;

MetricsRegistry &
EventQueue::metrics()
{
    if (!metrics_)
        metrics_ = std::make_unique<MetricsRegistry>();
    return *metrics_;
}

Tracer &
EventQueue::tracer()
{
    if (!tracer_)
        tracer_ = std::make_unique<Tracer>(*this);
    return *tracer_;
}

EventQueue::Record &
EventQueue::recordAt(std::uint32_t slot)
{
    return slabs_[slot >> kSlabShift][slot & (kSlabSize - 1)];
}

const EventQueue::Record &
EventQueue::recordAt(std::uint32_t slot) const
{
    return slabs_[slot >> kSlabShift][slot & (kSlabSize - 1)];
}

void
EventQueue::addSlab()
{
    std::size_t base = slabs_.size() << kSlabShift;
    // for_overwrite: run the default constructors (gen/nextFree/empty
    // fn) but skip zero-filling the inline closure buffers.
    slabs_.push_back(
        std::make_unique_for_overwrite<Record[]>(kSlabSize));
    Record *slab = slabs_.back().get();
    // Link in reverse so slots are handed out in ascending order.
    for (std::size_t i = kSlabSize; i-- > 0;) {
        slab[i].nextFree = freeHead_;
        freeHead_ = static_cast<std::uint32_t>(base + i);
    }
}

std::uint32_t
EventQueue::allocRecord(UniqueFunction<void()> fn)
{
    if (freeHead_ == kNoSlot)
        addSlab();
    std::uint32_t slot = freeHead_;
    Record &r = recordAt(slot);
    freeHead_ = r.nextFree;
    r.nextFree = kNoSlot;
    r.pooled = false;
    r.fn = std::move(fn);
    return slot;
}

void
EventQueue::freeRecord(std::uint32_t slot)
{
    Record &r = recordAt(slot);
    if (r.pooled) {
        // Already on the freelist: relinking it would cycle the list
        // and hand the same slot out twice.
        reportDoubleFree(slot);
        return;
    }
    r.pooled = true;
    r.fn = {};
    // The generation bump makes every outstanding handle and every
    // queue entry referencing this slot inert.
    r.gen++;
    r.nextFree = freeHead_;
    freeHead_ = slot;
}

void
EventQueue::reportDoubleFree(std::uint32_t slot)
{
    if (inv_) {
        inv_->fail("event_queue: double free of pooled record %u",
                   static_cast<unsigned>(slot));
        return;
    }
    panic("EventQueue: double free of pooled record %u",
          static_cast<unsigned>(slot));
}

bool
EventQueue::cancelSlot(std::uint32_t slot, std::uint32_t gen)
{
    Record &r = recordAt(slot);
    if (r.gen != gen)
        return false;
    freeRecord(slot);
    livePending_--;
    return true;
}

bool
EventQueue::isLive(std::uint32_t slot, std::uint32_t gen) const
{
    return recordAt(slot).gen == gen;
}

EventHandle
EventQueue::schedule(Tick delay, UniqueFunction<void()> fn)
{
    return scheduleAt(now_ + delay, std::move(fn));
}

EventHandle
EventQueue::scheduleAt(Tick when, UniqueFunction<void()> fn)
{
    if (when < now_)
        panic("EventQueue: scheduling into the past (%llu < %llu)",
              static_cast<unsigned long long>(when),
              static_cast<unsigned long long>(now_));
    std::uint32_t slot = allocRecord(std::move(fn));
    std::uint32_t gen = recordAt(slot).gen;
    insertEntry(Entry{when, seq_++, slot, gen});
    livePending_++;
    return EventHandle(this, slot, gen);
}

void
EventQueue::insertEntry(const Entry &e)
{
    if (e.when == now_) {
        nowFifo_.push_back(e);
        return;
    }
    std::uint64_t slot = e.when >> kBucketTickShift;
    if (slot < baseSlot_ + kNumBuckets)
        wheelPush(e);
    else
        overflowPush(e);
}

void
EventQueue::wheelPush(const Entry &e)
{
    std::size_t idx =
        static_cast<std::size_t>(e.when >> kBucketTickShift) &
        kBucketMask;
    Bucket &b = wheel_[idx];
    // Appends in non-decreasing tick order (the common case, and all
    // overflow migrations) keep the bucket sorted: equal ticks are
    // already ordered because seq increases monotonically.
    if (b.sorted && !b.items.empty() && e.when < b.items.back().when)
        b.sorted = false;
    b.items.push_back(e);
    markBucket(idx);
    wheelCount_++;
}

void
EventQueue::overflowPush(const Entry &e)
{
    overflow_.push_back(e);
    std::push_heap(overflow_.begin(), overflow_.end(), Later());
}

EventQueue::Entry
EventQueue::overflowPop()
{
    std::pop_heap(overflow_.begin(), overflow_.end(), Later());
    Entry e = overflow_.back();
    overflow_.pop_back();
    return e;
}

void
EventQueue::rebase(std::uint64_t new_slot)
{
    if (new_slot <= baseSlot_)
        return;
    baseSlot_ = new_slot;
    // Overflow events that fell inside the wheel horizon migrate into
    // their bucket. Heap pops come out in (when, seq) order, so the
    // per-bucket append order stays sorted.
    while (!overflow_.empty() &&
           (overflow_.front().when >> kBucketTickShift) <
               baseSlot_ + kNumBuckets) {
        wheelPush(overflowPop());
    }
}

void
EventQueue::prepareBucket(Bucket &b)
{
    if (b.sorted)
        return;
    if (b.head > 0) {
        b.items.erase(b.items.begin(),
                      b.items.begin() +
                          static_cast<std::ptrdiff_t>(b.head));
        b.head = 0;
    }
    std::sort(b.items.begin(), b.items.end(),
              [](const Entry &a, const Entry &c) {
                  if (a.when != c.when)
                      return a.when < c.when;
                  return a.seq < c.seq;
              });
    b.sorted = true;
}

void
EventQueue::markBucket(std::size_t idx)
{
    bitmap_[idx >> 6] |= std::uint64_t{1} << (idx & 63);
}

void
EventQueue::clearBucketBit(std::size_t idx)
{
    bitmap_[idx >> 6] &= ~(std::uint64_t{1} << (idx & 63));
}

std::size_t
EventQueue::findMarkedFrom(std::size_t start) const
{
    std::size_t w0 = start >> 6;
    std::uint64_t m = bitmap_[w0] & (~std::uint64_t{0} << (start & 63));
    if (m)
        return (w0 << 6) + static_cast<std::size_t>(std::countr_zero(m));
    for (std::size_t k = 1; k <= kBitmapWords; k++) {
        std::size_t wi = (w0 + k) & (kBitmapWords - 1);
        if (bitmap_[wi])
            return (wi << 6) +
                   static_cast<std::size_t>(std::countr_zero(bitmap_[wi]));
    }
    return SIZE_MAX;
}

void
EventQueue::consumeFrom(Src src, std::size_t bucket_idx)
{
    switch (src) {
    case Src::NowFifo:
        nowHead_++;
        if (nowHead_ == nowFifo_.size()) {
            nowFifo_.clear();
            nowHead_ = 0;
        }
        break;
    case Src::Wheel: {
        Bucket &b = wheel_[bucket_idx];
        b.head++;
        wheelCount_--;
        if (b.head == b.items.size()) {
            b.items.clear();
            b.head = 0;
            b.sorted = true;
            clearBucketBit(bucket_idx);
        }
        break;
    }
    case Src::Overflow:
        overflowPop();
        break;
    }
}

bool
EventQueue::nextLive(Entry &out, Tick consume_below)
{
    rebase(now_ >> kBucketTickShift);
    for (;;) {
        std::size_t cur_idx =
            static_cast<std::size_t>(baseSlot_) & kBucketMask;
        Bucket &cb = wheel_[cur_idx];
        prepareBucket(cb);
        bool have_cb = cb.head < cb.items.size();
        bool have_now = nowHead_ < nowFifo_.size();

        Src src;
        std::size_t idx = cur_idx;
        Entry e;
        if (have_cb && cb.items[cb.head].when <= now_) {
            // Current-tick (or tombstoned past) entries in the current
            // bucket precede the now-FIFO: they carry older seqs.
            src = Src::Wheel;
            e = cb.items[cb.head];
        } else if (have_now) {
            src = Src::NowFifo;
            e = nowFifo_[nowHead_];
        } else if (have_cb) {
            src = Src::Wheel;
            e = cb.items[cb.head];
        } else if (wheelCount_ > 0) {
            idx = findMarkedFrom(cur_idx);
            Bucket &b = wheel_[idx];
            prepareBucket(b);
            src = Src::Wheel;
            e = b.items[b.head];
        } else if (!overflow_.empty()) {
            src = Src::Overflow;
            e = overflow_.front();
        } else {
            return false;
        }

        bool live = isLive(e.slot, e.gen);
        if (!live || e.when < consume_below ||
            consume_below == kConsumeAll)
            consumeFrom(src, idx);
        if (live) {
            out = e;
            return true;
        }
    }
}

void
EventQueue::execute(const Entry &e)
{
    now_ = e.when;
    Record &r = recordAt(e.slot);
    UniqueFunction<void()> fn = std::move(r.fn);
    freeRecord(e.slot);
    livePending_--;
    executed_++;
    EventQueue *prev = gRunning;
    gRunning = this;
    fn();
    gRunning = prev;
    if (inv_ && --invCountdown_ == 0) {
        invCountdown_ = invStride_;
        inv_->runBoundary();
    }
}

bool
EventQueue::popAndRun()
{
    Entry e;
    if (!nextLive(e, kConsumeAll))
        return false;
    execute(e);
    return true;
}

void
EventQueue::setInvariants(Invariants *inv, std::uint64_t stride)
{
    inv_ = inv;
    invStride_ = stride > 0 ? stride : 1;
    invCountdown_ = invStride_;
}

bool
EventQueue::runOne()
{
    return popAndRun();
}

void
EventQueue::run()
{
    while (popAndRun()) {
    }
}

void
EventQueue::runUntil(Tick when)
{
    Tick next;
    runBefore(when == kConsumeAll ? when : when + 1, &next);
    if (when > now_)
        now_ = when;
}

bool
EventQueue::runBefore(Tick limit, Tick *next)
{
    Entry e;
    while (nextLive(e, limit)) {
        // Below the limit nextLive() has consumed the entry; at or
        // past it the entry stays queued, unless the limit is
        // unbounded.
        if (e.when >= limit && limit != kConsumeAll) {
            *next = e.when;
            return true;
        }
        execute(e);
    }
    return false;
}

bool
EventQueue::peekNextTick(Tick *out)
{
    Entry e;
    if (!nextLive(e, 0))
        return false;
    *out = e.when;
    return true;
}

bool
EventQueue::runCapped(std::uint64_t max_events)
{
    for (std::uint64_t i = 0; i < max_events; i++) {
        if (!popAndRun())
            return true;
    }
    return livePending_ == 0;
}

} // namespace m3v::sim
