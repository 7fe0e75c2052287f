#include "sim/lane.h"

#include <algorithm>
#include <atomic>

#include "sim/log.h"
#include "sim/metrics.h"
#include "sim/trace.h"

namespace m3v::sim {

namespace {

constexpr Tick kNever = LaneScheduler::kNoCrossing;

/** a + b with saturation at kNever (infinity). */
inline Tick
satAdd(Tick a, Tick b)
{
    if (a == kNever || b == kNever)
        return kNever;
    Tick s = a + b;
    return s < a ? kNever : s;
}

} // namespace

LaneScheduler::LaneScheduler(unsigned lanes, unsigned jobs,
                             Tick lookahead,
                             std::size_t mailbox_capacity)
    : n_(lanes), jobs_(jobs ? jobs : 1)
{
    if (lanes == 0)
        panic("LaneScheduler: zero lanes");
    if (lookahead == 0)
        panic("LaneScheduler: zero lookahead");
    pairL_.assign(n_ * n_, lookahead);
    lanes_.reserve(n_);
    for (std::size_t i = 0; i < n_; i++)
        lanes_.push_back(std::make_unique<EventQueue>());
    rings_.reserve(n_);
    for (std::size_t i = 0; i < n_; i++)
        rings_.push_back(
            std::make_unique<MpscRing<Msg>>(mailbox_capacity * n_));
    seqs_.assign(n_ * n_, 0);
    if (jobs_ > 1) {
        workers_.reserve(jobs_);
        for (unsigned w = 0; w < jobs_; w++)
            workers_.emplace_back(
                [this, w]() { workerLoop(w); });
    }
}

LaneScheduler::~LaneScheduler()
{
    if (!workers_.empty()) {
        {
            std::lock_guard<std::mutex> lock(mu_);
            shutdown_ = true;
        }
        cvWork_.notify_all();
        for (auto &t : workers_)
            t.join();
    }
}

Tick
LaneScheduler::pairLookahead(unsigned src, unsigned dst) const
{
    if (src >= n_ || dst >= n_)
        panic("LaneScheduler: pairLookahead %u->%u outside %zu lanes",
              src, dst, n_);
    return pairL_[src * n_ + dst];
}

void
LaneScheduler::setPairLookahead(unsigned src, unsigned dst, Tick l)
{
    if (running_)
        panic("LaneScheduler: setPairLookahead while running");
    if (src >= n_ || dst >= n_)
        panic("LaneScheduler: setPairLookahead %u->%u outside %zu "
              "lanes",
              src, dst, n_);
    if (l == 0)
        panic("LaneScheduler: zero pair lookahead %u->%u", src, dst);
    pairL_[src * n_ + dst] = l;
    distDirty_ = true;
}

void
LaneScheduler::fillPairLookaheads(Tick l)
{
    if (running_)
        panic("LaneScheduler: fillPairLookaheads while running");
    if (l == 0)
        panic("LaneScheduler: zero pair lookahead");
    std::fill(pairL_.begin(), pairL_.end(), l);
    distDirty_ = true;
}

bool
LaneScheduler::tryPost(unsigned src, unsigned dst, Tick due,
                       UniqueFunction<void()> fn)
{
    if (src >= n_ || dst >= n_)
        panic("LaneScheduler: post %u->%u outside %zu lanes", src,
              dst, n_);
    if (running_) {
        Tick l = pairL_[src * n_ + dst];
        if (l == kNoCrossing)
            panic("LaneScheduler: post %u->%u on a pair with no "
                  "declared lookahead (kNoCrossing)",
                  src, dst);
        if (due < lanes_[src]->now() + l)
            panic("LaneScheduler: post due %llu violates lookahead "
                  "(now %llu + %llu)",
                  static_cast<unsigned long long>(due),
                  static_cast<unsigned long long>(lanes_[src]->now()),
                  static_cast<unsigned long long>(l));
    }
    std::uint64_t &seq = seqs_[src * n_ + dst];
    Msg m;
    m.due = due;
    m.seq = seq;
    m.srcLane = src;
    m.dstLane = dst;
    m.fn = std::move(fn);
    if (!rings_[dst]->tryPush(std::move(m)))
        return false;
    seq++;
    return true;
}

void
LaneScheduler::addBarrierHook(UniqueFunction<void()> fn)
{
    barrierHooks_.push_back(std::move(fn));
}

void
LaneScheduler::post(unsigned src, unsigned dst, Tick due,
                    UniqueFunction<void()> fn)
{
    if (!tryPost(src, dst, due, std::move(fn)))
        panic("LaneScheduler: mailbox %u->%u overflow", src, dst);
}

void
LaneScheduler::mergeMailboxes()
{
    scratch_.clear();
    for (auto &r : rings_) {
        Msg m;
        while (r->tryPop(m))
            scratch_.push_back(std::move(m));
    }
    if (scratch_.empty())
        return;
    // Canonical cross-lane order: messages are applied to their
    // destination lanes sorted by (due, srcLane, dstLane, seq), so
    // the lane-local sequence numbers they receive — and therefore
    // all same-tick FIFO ordering downstream — are independent of
    // which worker thread produced them first.
    std::sort(scratch_.begin(), scratch_.end(),
              [](const Msg &a, const Msg &b) {
                  if (a.due != b.due)
                      return a.due < b.due;
                  if (a.srcLane != b.srcLane)
                      return a.srcLane < b.srcLane;
                  if (a.dstLane != b.dstLane)
                      return a.dstLane < b.dstLane;
                  return a.seq < b.seq;
              });
    for (Msg &m : scratch_) {
        lanes_[m.dstLane]->scheduleAt(m.due, std::move(m.fn));
        merged_++;
    }
    scratch_.clear();
}

void
LaneScheduler::recomputeDistances()
{
    // Floyd-Warshall closure with saturating adds: D(i, j) is the
    // cheapest chain of declared crossings from lane i to lane j —
    // the earliest any event in lane i can influence lane j. The
    // diagonal is deliberately NOT zeroed: D(i, i) relaxes to lane
    // i's cheapest round trip through other lanes, which is exactly
    // how far lane i may run ahead before a reply triggered by its
    // own posts could come back (crossing weights are positive, so
    // leaving the diagonal free never corrupts the off-diagonal
    // shortest paths).
    dist_ = pairL_;
    for (std::size_t k = 0; k < n_; k++) {
        for (std::size_t i = 0; i < n_; i++) {
            Tick dik = dist_[i * n_ + k];
            if (dik == kNever)
                continue;
            for (std::size_t j = 0; j < n_; j++) {
                Tick cand = satAdd(dik, dist_[k * n_ + j]);
                if (cand < dist_[i * n_ + j])
                    dist_[i * n_ + j] = cand;
            }
        }
    }
    distDirty_ = false;
}

void
LaneScheduler::computeLimits()
{
    limits_.assign(n_, kNever);
    // Per-lane windows from the distance matrix: lane i may run
    // until the earliest tick any lane's pending work could reach it
    // — including its own, whose influence can return through the
    // cheapest round trip D(i, i). Empty lanes contribute nothing:
    // any influence routed through one originates at a non-empty
    // lane, and D's path closure already bounds that chain. Lanes no
    // path leads to run unbounded.
    for (std::size_t j = 0; j < n_; j++) {
        Tick ntj = nts_[j];
        if (ntj == kNever)
            continue;
        const Tick *dj = &dist_[j * n_];
        for (std::size_t i = 0; i < n_; i++) {
            Tick reach = satAdd(ntj, dj[i]);
            if (reach < limits_[i])
                limits_[i] = reach;
        }
    }
}

void
LaneScheduler::workerLoop(unsigned)
{
    std::uint64_t seen_round = 0;
    for (;;) {
        ActiveLane a;
        {
            std::unique_lock<std::mutex> lock(mu_);
            cvWork_.wait(lock, [&]() {
                return shutdown_ ||
                       (roundId_ != seen_round && next_ < active_.size());
            });
            if (shutdown_)
                return;
            a = active_[next_++];
            if (next_ == active_.size())
                seen_round = roundId_;
        }
        lanes_[a.lane]->runBefore(a.limit);
        {
            std::lock_guard<std::mutex> lock(mu_);
            if (pendingLanes_ == 0)
                panic("LaneScheduler: lane %u completed outside a "
                      "round",
                      a.lane);
            if (--pendingLanes_ == 0)
                cvDone_.notify_one();
        }
    }
}

void
LaneScheduler::runRoundOnWorkers()
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        next_ = 0;
        pendingLanes_ = active_.size();
        roundId_++;
    }
    cvWork_.notify_all();
    std::unique_lock<std::mutex> lock(mu_);
    cvDone_.wait(lock, [&]() { return pendingLanes_ == 0; });
}

void
LaneScheduler::run()
{
    if (distDirty_)
        recomputeDistances();
    running_ = true;
    for (;;) {
        // Barrier phase: single-threaded merge of everything the
        // previous window produced (and, on the first round, of the
        // posts made during model construction).
        mergeMailboxes();
        for (auto &hook : barrierHooks_)
            hook();
        nts_.assign(n_, kNever);
        bool any = false;
        for (std::size_t i = 0; i < n_; i++) {
            Tick t;
            if (lanes_[i]->peekNextTick(&t)) {
                nts_[i] = t;
                any = true;
            }
        }
        if (!any)
            break;
        computeLimits();
        {
            // Parked workers read active_ inside their wait
            // predicate (under mu_), so refilling it between rounds
            // must hold the lock too. The refilled list stays
            // unclaimable (next_ at its end) until runRoundOnWorkers()
            // publishes the round: a worker that skipped the end of
            // the previous round still has a stale seen_round and
            // would otherwise claim a lane of this one early.
            std::lock_guard<std::mutex> lock(mu_);
            active_.clear();
            for (unsigned i = 0; i < n_; i++)
                if (nts_[i] != kNever && nts_[i] < limits_[i])
                    active_.push_back({i, limits_[i]});
            // Longest-pending lanes first, so a straggler lane is
            // claimed early and the short lanes pack behind it
            // (whole-lane stealing keeps per-lane order intact).
            // pending() is deterministic at the barrier, so the
            // claim order — though irrelevant to results — is too.
            std::sort(active_.begin(), active_.end(),
                      [this](const ActiveLane &a, const ActiveLane &b) {
                          std::size_t pa = lanes_[a.lane]->pending();
                          std::size_t pb = lanes_[b.lane]->pending();
                          if (pa != pb)
                              return pa > pb;
                          return a.lane < b.lane;
                      });
            next_ = active_.size();
        }
        rounds_++;
        if (workers_.empty() || active_.size() == 1) {
            for (const ActiveLane &a : active_)
                lanes_[a.lane]->runBefore(a.limit);
        } else {
            runRoundOnWorkers();
        }
    }
    running_ = false;
}

std::uint64_t
LaneScheduler::executed() const
{
    std::uint64_t sum = 0;
    for (const auto &l : lanes_)
        sum += l->executed();
    return sum;
}

void
LaneScheduler::mergeMetrics(MetricsRegistry &out)
{
    for (auto &l : lanes_)
        out.absorb(l->metrics());
}

void
LaneScheduler::enableAllTracing()
{
    for (auto &l : lanes_)
        l->tracer().enableAll();
}

void
LaneScheduler::mergeTrace(Tracer &out)
{
    for (auto &l : lanes_)
        out.absorb(l->tracer());
}

void
runCells(unsigned jobs, std::vector<UniqueFunction<void()>> cells)
{
    if (jobs <= 1 || cells.size() <= 1) {
        for (auto &c : cells)
            c();
        return;
    }
    std::atomic<std::size_t> next{0};
    auto worker = [&]() {
        for (;;) {
            std::size_t i = next.fetch_add(1);
            if (i >= cells.size())
                return;
            cells[i]();
        }
    };
    std::size_t nthreads =
        std::min<std::size_t>(jobs, cells.size());
    std::vector<std::thread> threads;
    threads.reserve(nthreads);
    for (std::size_t i = 0; i < nthreads; i++)
        threads.emplace_back(worker);
    for (auto &t : threads)
        t.join();
}

} // namespace m3v::sim
