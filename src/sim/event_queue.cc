#include "sim/event_queue.h"

#include <utility>

#include "sim/invariants.h"
#include "sim/log.h"
#include "sim/metrics.h"
#include "sim/trace.h"

namespace m3v::sim {

namespace {

thread_local EventQueue *gRunning = nullptr;

/** (when, seq) order; seqs are unique, so this is strict and total. */
template <typename E>
bool
before(const E &a, const E &b)
{
    return a.when != b.when ? a.when < b.when : a.seq < b.seq;
}

/** Index of the earlier of h[a] and h[b], written as a select: the
 *  compare is unpredictable, and a branch on it would mispredict. */
template <typename E>
std::size_t
earlier(const std::vector<E> &h, std::size_t a, std::size_t b)
{
    return before(h[b], h[a]) ? b : a;
}

/** Push @p e onto the 4-ary min-heap @p h (children of i: 4i+1..4i+4). */
template <typename E>
void
heapPush(std::vector<E> &h, const E &e)
{
    std::size_t i = h.size();
    h.push_back(e);
    while (i > 0) {
        std::size_t parent = (i - 1) / 4;
        if (!before(e, h[parent]))
            break;
        h[i] = h[parent];
        i = parent;
    }
    h[i] = e;
}

/** Remove the top of the non-empty 4-ary min-heap @p h. */
template <typename E>
void
heapPop(std::vector<E> &h)
{
    E last = h.back();
    h.pop_back();
    std::size_t n = h.size();
    if (n == 0)
        return;
    std::size_t i = 0;
    for (;;) {
        std::size_t first = 4 * i + 1;
        if (first >= n)
            break;
        std::size_t best;
        if (first + 4 <= n) {
            // A full group: two independent compares, then a third.
            best = earlier(h, earlier(h, first, first + 1),
                           earlier(h, first + 2, first + 3));
        } else {
            best = first;
            for (std::size_t c = first + 1; c < n; c++)
                best = earlier(h, best, c);
        }
        if (!before(h[best], last))
            break;
        h[i] = h[best];
        i = best;
    }
    h[i] = last;
}

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
    if (e.when == now_)
        nowFifo_.push_back(e);
    else if (e.when - now_ < kNearHorizon)
        heapPush(near_, e);
    else
        heapPush(far_, e);
}

bool
EventQueue::nextLive(Entry &out, Tick consume_below)
{
    for (;;) {
        std::vector<Entry> *heap = nullptr;
        if (!near_.empty())
            heap = &near_;
        if (!far_.empty() && (!heap || before(far_.front(), near_.front())))
            heap = &far_;
        bool have_now = nowHead_ < nowFifo_.size();

        // Heap entries at now() precede the now-FIFO: they were
        // scheduled before now() reached their tick, so they carry
        // older seqs.
        bool from_heap = heap && (!have_now || heap->front().when <= now_);
        Entry e;
        if (from_heap)
            e = heap->front();
        else if (have_now)
            e = nowFifo_[nowHead_];
        else
            return false;

        bool live = isLive(e.slot, e.gen);
        if (!live || e.when < consume_below ||
            consume_below == kConsumeAll) {
            if (from_heap) {
                heapPop(*heap);
            } else if (++nowHead_ == nowFifo_.size()) {
                nowFifo_.clear();
                nowHead_ = 0;
            }
        }
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

} // namespace m3v::sim
