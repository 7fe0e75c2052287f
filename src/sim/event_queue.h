/**
 * @file
 * The discrete-event simulation core: a single global-order event queue.
 *
 * Events scheduled for the same tick fire in scheduling order (stable
 * FIFO via a sequence number), which keeps simulations deterministic.
 * schedule() returns a handle that can cancel the event (used e.g. when
 * a compute phase is preempted by an interrupt).
 *
 * The implementation is allocation-free in steady state:
 *
 *  - Event closures live in a slab-pooled event record; the closure
 *    itself is stored inline in the record via UniqueFunction's small
 *    buffer (captures up to 48 bytes — which covers the simulator's
 *    dominant [this]/[h]-style handlers). Freed records are recycled
 *    through an intrusive freelist.
 *
 *  - EventHandle addresses its record by {slot index, generation}.
 *    cancel()/pending() are two loads and a compare; a handle whose
 *    record was recycled (fired, cancelled, or reused) sees a
 *    generation mismatch and is inert. Handles must not outlive their
 *    EventQueue.
 *
 *  - Ordering uses two 4-ary min-heaps on (when, seq): near_ holds
 *    entries scheduled less than kNearHorizon (~1 µs) ahead of now(),
 *    far_ holds the rest (timers, slices, pre-scheduled arrivals), so
 *    a large far-future backlog never deepens the hot near heap.
 *    Entries never migrate; a pop takes the smaller of the two tops.
 *    Same-tick schedules go to a dedicated FIFO ring, so the common
 *    schedule(0, ...) pattern (task resumptions, channel wakeups)
 *    never touches a heap at all. Cancelled events leave a tombstone
 *    entry that is discarded when it surfaces.
 *
 * Pop order is exactly (tick, seq).
 */

#ifndef M3VSIM_SIM_EVENT_QUEUE_H_
#define M3VSIM_SIM_EVENT_QUEUE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/types.h"
#include "sim/unique_function.h"

namespace m3v::sim {

class EventQueue;
class Invariants;
class MetricsRegistry;
class Tracer;

/**
 * Cancellation handle for a scheduled event. Default-constructed
 * handles are inert. Cancelling an already-fired or already-cancelled
 * event is a no-op. Handles are cheap to copy (pointer + slot +
 * generation) and must not be used after their EventQueue is gone.
 */
class EventHandle
{
  public:
    EventHandle() = default;

    /** Prevent the event from firing. Returns true if it was pending. */
    bool cancel();

    /** True if the event is still pending (not fired, not cancelled). */
    bool pending() const;

  private:
    friend class EventQueue;

    EventHandle(EventQueue *q, std::uint32_t slot, std::uint32_t gen)
        : queue_(q), slot_(slot), gen_(gen)
    {
    }

    EventQueue *queue_ = nullptr;
    std::uint32_t slot_ = 0;
    std::uint32_t gen_ = 0;
};

/** The simulation's event queue and clock. */
class EventQueue
{
  public:
    /** Entries due less than this many ticks (~1.05 µs) after now()
     *  go to the near heap, all others to the far heap. */
    static constexpr Tick kNearHorizon = Tick{1} << 20;

    EventQueue();
    ~EventQueue();
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time. */
    Tick now() const { return now_; }

    /**
     * The queue currently executing an event on this thread, or
     * nullptr. Used by coroutine machinery to defer resumptions out
     * of deep resume stacks (see sim::Task's final awaiter).
     */
    static EventQueue *running();

    /** Schedule @p fn to run @p delay ticks from now. */
    EventHandle schedule(Tick delay, UniqueFunction<void()> fn);

    /** Schedule @p fn at absolute tick @p when (>= now). */
    EventHandle scheduleAt(Tick when, UniqueFunction<void()> fn);

    /** True if no live (non-cancelled) events are pending. */
    bool empty() const { return livePending_ == 0; }

    /**
     * Number of live pending events. Cancelled events are removed
     * from this count immediately at cancel() time.
     */
    std::size_t pending() const { return livePending_; }

    /** Total events executed so far. */
    std::uint64_t executed() const { return executed_; }

    /**
     * Run the next event. Returns false if no live event is pending.
     * Advances now() to the event's tick.
     */
    bool runOne();

    /** Run until the queue is empty. */
    void run();

    /**
     * Run events with tick <= @p when, then advance now() to @p when.
     * Events scheduled exactly at @p when do fire. Cancelled events
     * sitting at the queue front are discarded lazily and never delay
     * the fast-forward of now().
     */
    void runUntil(Tick when);

    /**
     * Run events with tick strictly below @p limit, leaving now() at
     * the last executed event, with one queue lookup per event. If
     * live events remain, stores the first one's tick (>= limit) in
     * @p next and returns true; returns false once the queue drains.
     * A limit of ~0 is unbounded. The conservative-window primitive
     * of the parallel scheduler (sim::LaneScheduler): a lane executes
     * one window per round and learns its next tick for free.
     */
    bool runBefore(Tick limit, Tick *next);

    /**
     * Tick of the next live event without consuming it (tombstones
     * of cancelled events are discarded on the way). Returns false
     * if the queue is empty.
     */
    bool peekNextTick(Tick *out);

    /**
     * This simulation's metrics registry (lazily created). Components
     * register instruments here at construction and keep the handles;
     * the scheduling hot path never touches the registry.
     */
    MetricsRegistry &metrics();

    /**
     * This simulation's tracer (lazily created, all categories off by
     * default). Components cache the pointer at construction.
     */
    Tracer &tracer();

    /**
     * Attach a runtime invariant checker (tests only; see
     * sim/invariants.h): after every @p stride executed events its
     * EveryBoundary checks run, and the event-record pool reports
     * double frees to it instead of aborting. nullptr detaches. An
     * unattached queue pays one null test per event.
     */
    void setInvariants(Invariants *inv, std::uint64_t stride = 1);

  private:
    friend class EventHandle;

    static constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;
    /** Records per slab (power of two). */
    static constexpr std::size_t kSlabShift = 8;
    static constexpr std::size_t kSlabSize = std::size_t{1}
                                             << kSlabShift;

    /**
     * A queue position referencing a pooled record. If the record's
     * generation no longer matches, the entry is a tombstone of a
     * cancelled (or already recycled) event and is skipped.
     */
    struct Entry
    {
        Tick when;
        std::uint64_t seq;
        std::uint32_t slot;
        std::uint32_t gen;
    };

    /** A pooled event record; the closure is stored inline via
     *  UniqueFunction's small buffer whenever it fits. */
    struct Record
    {
        UniqueFunction<void()> fn;
        std::uint32_t gen = 0;
        std::uint32_t nextFree = kNoSlot;
        /** On the freelist (fresh records start pooled). Guards the
         *  pool against double frees — see freeRecord(). */
        bool pooled = true;
    };

    Record &recordAt(std::uint32_t slot);
    const Record &recordAt(std::uint32_t slot) const;
    std::uint32_t allocRecord(UniqueFunction<void()> fn);
    void freeRecord(std::uint32_t slot);
    void reportDoubleFree(std::uint32_t slot);
    void addSlab();

    bool cancelSlot(std::uint32_t slot, std::uint32_t gen);
    bool isLive(std::uint32_t slot, std::uint32_t gen) const;

    void insertEntry(const Entry &e);

    /** consume_below value that consumes every live entry. */
    static constexpr Tick kConsumeAll = ~Tick{0};

    /**
     * Locate the next entry in (when, seq) order, structurally
     * discarding tombstones on the way. The live entry is removed
     * from its container as well if its tick is below
     * @p consume_below (or that is kConsumeAll). Returns false if
     * nothing live remains.
     */
    bool nextLive(Entry &out, Tick consume_below);

    /** Run a live entry nextLive() has consumed. */
    void execute(const Entry &e);
    bool popAndRun();

    Tick now_ = 0;
    std::uint64_t seq_ = 0;
    std::uint64_t executed_ = 0;
    std::size_t livePending_ = 0;

    /** FIFO of events scheduled exactly at now_. */
    std::vector<Entry> nowFifo_;
    std::size_t nowHead_ = 0;

    /** 4-ary min-heaps on (when, seq), split at kNearHorizon. */
    std::vector<Entry> near_;
    std::vector<Entry> far_;

    /** Slab-pooled event records with an intrusive freelist. */
    std::vector<std::unique_ptr<Record[]>> slabs_;
    std::uint32_t freeHead_ = kNoSlot;

    /** Observability (lazy: never allocated by pure event-core use). */
    std::unique_ptr<MetricsRegistry> metrics_;
    std::unique_ptr<Tracer> tracer_;

    /** Invariant checker (tests only; nullptr in production). */
    Invariants *inv_ = nullptr;
    std::uint64_t invStride_ = 1;
    std::uint64_t invCountdown_ = 1;
};

} // namespace m3v::sim

#endif // M3VSIM_SIM_EVENT_QUEUE_H_
