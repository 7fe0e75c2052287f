/**
 * @file
 * Sharded parallel event execution: per-lane event queues under
 * conservative window synchronization.
 *
 * A LaneScheduler owns N event lanes (each a full EventQueue with its
 * own near/far heaps, metrics registry, and tracer) and executes
 * them round by round:
 *
 *   1. Merge (single-threaded): walk the per-source outboxes in
 *      source-lane order, each in post order, and schedule every
 *      message into its destination lane at its due tick.
 *   2. Window: every lane i gets its own limit
 *        limit_i = min over non-empty lanes j of (NT_j + D(j, i))
 *      where NT_j is lane j's next pending tick and D(j, i) the
 *      cheapest chain of one or more declared crossings from j to i
 *      (D(i, i) is lane i's cheapest round trip through other lanes,
 *      bounding self-influence via replies). Every lane with work
 *      below its limit executes all its events with tick < limit_i,
 *      on the worker whose block holds the lane.
 *   3. Repeat until all lanes are empty and no messages are in
 *      flight.
 *
 * Lookahead is per lane pair. The model declares, for each (src, dst)
 * pair that ever posts, the minimum latency L(src, dst) of a crossing
 * in that direction (setPairLookahead); pairs that never post carry
 * the kNoCrossing sentinel and panic on post. run() turns the
 * declarations into per-lane out-edge lists; each round seeds limit_i
 * with NT_j + L(j, i) over the in-edges from non-empty lanes j and
 * propagates every improvement along the out-edges with a FIFO
 * worklist until nothing changes. Latencies are positive, so the
 * fixpoint is unique and equals min_j NT_j + D(j, i): a lane h hops
 * away allows h link latencies, not one, chains through empty lanes
 * count like any other, and the cost scales with the edges a round
 * touches, not with N^2. The scalar constructor declares every pair,
 * diagonal included, as L, so the limits reduce to the classic global
 * window min_j NT_j + L.
 *
 * Safety: a message posted by lane j during a round is due no earlier
 * than NT_j + L(j, k) >= NT_j + D(j, k) >= limit_k, where NT_j was
 * lane j's next pending tick when the limits were computed — no
 * matter how far lane j itself runs inside the round. Influence
 * through intermediate lanes is covered because D is closed under
 * path composition (D(j,k) <= D(j,m) + D(m,k)), and because messages
 * posted during a round are not executable until the next merge. A
 * lane's influence on itself (a reply provoked by its own posts) is
 * bounded the same way by the diagonal round-trip term D(i, i). Lanes
 * share no other state, so any interleaving of same-round events in
 * different lanes yields the same result. A lane pops its events in
 * exact (tick, seq) order, so merged messages can only tie with each
 * other on a shared due tick, and those ties break by (srcLane, post
 * order) — the order the merge schedules them in, whichever worker
 * ran which window. Results are bit-identical for any jobs >= 1.
 * Progress: the lane holding the globally minimal next tick always
 * satisfies NT < limit (every addend is positive), so each round
 * executes at least one event.
 *
 * Next ticks are cached: run() reads every lane's once, a window
 * stores the tick its lane stopped at (EventQueue::runBefore), and
 * the merge lowers it to the earliest due tick it schedules. Nothing
 * else touches a lane between its window and the merge, so the cache
 * is exact.
 *
 * Each of W = min(jobs, N) workers owns a fixed contiguous block of
 * lanes, worker w the lanes [N*w/W, N*(w+1)/W), and runs the windows
 * of its block in lane order; the calling thread is worker 0. A round
 * ends at one barrier whose completion step, run by the last worker
 * to arrive, does the merge and the next round's limits while every
 * other worker waits. No lane is ever claimed, so no window takes a
 * lock. jobs = 1 runs the same round body on the calling thread with
 * no barrier, and a model built on a single lane degenerates to
 * exactly the sequential event loop. A lane is never split across
 * workers, so lane-local event order, and therefore determinism, is
 * untouched by who executes it.
 *
 * Cross-lane posts are appended to a plain vector outbox owned by
 * the *source* lane. Only the worker that owns lane src writes
 * src's outbox, and only the barrier's completion step reads it, so
 * the barrier orders every append before the merge that reads it.
 *
 * The lookahead values come from the model: for a mesh of router
 * lanes, the per-link latencies (noc::Noc::minLinkLatency()) that
 * Noc::setRouterLanePlan() declares for every adjacent lane pair.
 */

#ifndef M3VSIM_SIM_LANE_H_
#define M3VSIM_SIM_LANE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/event_queue.h"
#include "sim/types.h"
#include "sim/unique_function.h"

namespace m3v::sim {

/** Conservative-window scheduler over N event lanes. */
class LaneScheduler
{
  public:
    /**
     * Pair-lookahead sentinel: no crossing is ever allowed between
     * the two lanes. Posts on such a pair panic; the pair contributes
     * nothing to any window limit.
     */
    static constexpr Tick kNoCrossing = ~Tick{0};

    /**
     * @param lanes     Number of event lanes (model shards).
     * @param jobs      Worker threads executing lane windows, at most
     *                  one per lane. 1 means everything runs on the
     *                  calling thread.
     * @param lookahead Initial conservative lookahead in ticks: every
     *                  pair (src, dst) starts at this value, so every
     *                  cross-lane post must be due at least this far
     *                  after the sender's current time. Must be > 0.
     *                  Refine per pair with setPairLookahead().
     * @param mailbox_capacity  Initial reserve, in messages, of each
     *                  lane's outbox. A hint only: outboxes grow as
     *                  needed and a post never fails.
     */
    LaneScheduler(unsigned lanes, unsigned jobs, Tick lookahead,
                  std::size_t mailbox_capacity = 0);

    LaneScheduler(const LaneScheduler &) = delete;
    LaneScheduler &operator=(const LaneScheduler &) = delete;

    unsigned lanes() const { return static_cast<unsigned>(n_); }
    /** Worker threads per round: jobs, clamped to [1, lanes]. */
    unsigned jobs() const { return jobs_; }

    /** Declared direct lookahead for (src, dst); kNoCrossing if the
     *  pair may never post. */
    Tick pairLookahead(unsigned src, unsigned dst) const;

    /**
     * Declare the minimum latency of a direct (src, dst) crossing.
     * Posts from src to dst must be due >= lane(src).now() + l; the
     * window limits follow the cheapest chains of these
     * declarations. Must not be called while run() is active;
     * l must be > 0 (or kNoCrossing to forbid the pair).
     */
    void setPairLookahead(unsigned src, unsigned dst, Tick l);

    /** Set every (src, dst) entry — including the diagonal — to
     *  @p l. Typical mesh setup: fill with kNoCrossing, then declare
     *  the adjacent pairs. Must not be called while run() is active. */
    void fillPairLookaheads(Tick l);

    /** Lane @p i's event queue. Components of shard i are
     *  constructed against this queue and schedule only here. */
    EventQueue &lane(unsigned i) { return *lanes_[i]; }
    const EventQueue &lane(unsigned i) const { return *lanes_[i]; }

    /**
     * Post a closure from lane @p src into lane @p dst, to run at
     * absolute tick @p due. Must be called from src's window (or
     * before run(), during model construction). While running, due
     * must be >= lane(src).now() + pairLookahead(src, dst); the
     * boundary is inclusive — posting exactly at it is legal at any
     * tick, including on a multiple of the near-heap horizon. Posting
     * closer, or on a kNoCrossing pair, is a model bug and panics.
     * The message waits in src's outbox until the round's barrier
     * merges it; posts are unbounded. @p fn runs on dst's thread at
     * tick due; it must touch only dst-lane state.
     */
    void post(unsigned src, unsigned dst, Tick due,
              UniqueFunction<void()> fn);

    /** Run until every lane drains and no message is in flight. */
    void run();

    /** Synchronization rounds executed by run() so far. */
    std::uint64_t rounds() const { return rounds_; }

    /** Cross-lane messages merged so far. */
    std::uint64_t messagesMerged() const { return merged_; }

    /** Total events executed across all lanes. */
    std::uint64_t executed() const;

    /**
     * Merge every lane's metrics registry into @p out (counters add,
     * samplers combine) in lane order, so
     * the merged dump of a sharded model carries the same keys and
     * values as the same model built on one lane.
     */
    void mergeMetrics(MetricsRegistry &out);

    /** Enable all trace categories on every lane's tracer. */
    void enableAllTracing();

    /** Merge every lane's trace into @p out, in lane order. */
    void mergeTrace(Tracer &out);

  private:
    struct Msg
    {
        Tick due = 0;
        std::uint32_t dst = 0;
        UniqueFunction<void()> fn;
    };

    /** A lane's posts of the current round, in post order. Each
     *  outbox has a cache line of its own, so windows of
     *  neighbouring lane blocks never write one line. */
    struct alignas(64) Outbox
    {
        std::vector<Msg> msgs;
    };

    /** A declared crossing out of a lane. */
    struct Edge
    {
        Tick l = 0;
        std::uint32_t dst = 0;
    };

    /** Schedule every outbox's messages into their destination
     *  lanes, sources in lane order and each in post order, and
     *  lower each destination's cached next tick to its earliest
     *  due tick. */
    void mergeOutboxes();

    /** Fill limits_ from nts_ by relaxation over the out-edges.
     *  Returns false when every lane is empty. */
    bool computeLimits();

    /** Lower limits_ of @p j's out-neighbours to @p from + L. */
    void relaxFrom(std::size_t j, Tick from);

    /** Run lane @p i's window and cache its next tick in nts_. */
    void runLane(unsigned i);

    /** Run the windows of worker @p w's lane block, in lane order. */
    void runBlock(unsigned w);

    /** Round boundary: merge, then the next round's limits. Sets
     *  done_ when every lane is empty. */
    void nextRound();

    std::size_t n_;
    /** Workers, and lane blocks, per round. */
    unsigned jobs_;
    /** Direct pair lookahead, src * n_ + dst. */
    std::vector<Tick> pairL_;
    /** Out-edges of lane s: edges_[edgeBegin_[s] .. edgeBegin_[s+1]),
     *  the pairL_ row without its kNoCrossing entries. */
    std::vector<std::size_t> edgeBegin_;
    std::vector<Edge> edges_;
    bool running_ = false;
    bool done_ = false;
    std::uint64_t rounds_ = 0;
    std::uint64_t merged_ = 0;

    std::vector<std::unique_ptr<EventQueue>> lanes_;
    /** Outbox per source lane; during a round element i is written
     *  only by lane i's window. */
    std::vector<Outbox> out_;
    /** Cached next tick per lane (kNoCrossing = empty); during a
     *  round element i is written only by lane i's window. */
    std::vector<Tick> nts_;
    /** Per-round window limits and the relaxation's FIFO worklist
     *  (queued_[i]: lane i is waiting in work_). */
    std::vector<Tick> limits_;
    std::vector<std::uint32_t> work_;
    std::vector<std::uint8_t> queued_;
};

/**
 * Run independent work items on @p jobs threads. Each cell is a
 * self-contained closure (its own EventQueue, its own result slot);
 * cells are claimed in index order and joined before returning, so
 * with deterministic cells the overall result is independent of jobs.
 * jobs <= 1 runs the cells inline, in order. Used by the benchmark
 * harness (--jobs) to run sweep cells concurrently.
 */
void runCells(unsigned jobs,
              std::vector<UniqueFunction<void()>> cells);

} // namespace m3v::sim

#endif // M3VSIM_SIM_LANE_H_
