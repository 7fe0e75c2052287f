#include "sim/lane.h"

#include <algorithm>
#include <atomic>

#include "sim/log.h"
#include "sim/metrics.h"
#include "sim/trace.h"

namespace m3v::sim {

namespace {

constexpr Tick kNever = LaneScheduler::kNoCrossing;


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
}

void
LaneScheduler::fillPairLookaheads(Tick l)
{
    if (running_)
        panic("LaneScheduler: fillPairLookaheads while running");
    if (l == 0)
        panic("LaneScheduler: zero pair lookahead");
    std::fill(pairL_.begin(), pairL_.end(), l);
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
    m.fn = std::move(fn);
    if (!rings_[dst]->tryPush(std::move(m)))
        return false;
    seq++;
    return true;
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
    for (std::size_t d = 0; d < n_; d++) {
        scratch_.clear();
        Msg m;
        while (rings_[d]->tryPop(m))
            scratch_.push_back(std::move(m));
        if (scratch_.empty())
            continue;
        // Canonical cross-lane order, (due, srcLane, dstLane, seq),
        // restricted to one destination: the lane-local sequence
        // numbers the messages receive — and therefore all same-tick
        // FIFO ordering downstream — are independent of which worker
        // thread produced them first.
        if (scratch_.size() > 1)
            std::sort(scratch_.begin(), scratch_.end(),
                      [](const Msg &a, const Msg &b) {
                          if (a.due != b.due)
                              return a.due < b.due;
                          if (a.srcLane != b.srcLane)
                              return a.srcLane < b.srcLane;
                          return a.seq < b.seq;
                      });
        for (Msg &msg : scratch_)
            lanes_[d]->scheduleAt(msg.due, std::move(msg.fn));
        merged_ += scratch_.size();
        nts_[d] = std::min(nts_[d], scratch_.front().due);
    }
    scratch_.clear();
}

void
LaneScheduler::relaxFrom(std::size_t j, Tick from)
{
    for (std::size_t e = edgeBegin_[j]; e < edgeBegin_[j + 1]; e++) {
        std::uint32_t i = edges_[e].dst;
        Tick reach = from + edges_[e].l;
        if (reach < from)
            reach = kNever; // saturate
        if (reach < limits_[i]) {
            limits_[i] = reach;
            if (!queued_[i]) {
                queued_[i] = 1;
                work_.push_back(i);
            }
        }
    }
}

bool
LaneScheduler::computeLimits()
{
    // Lane i may run until the earliest tick any lane's pending work
    // could reach it, through one or more declared crossings —
    // including its own, whose influence can return through its
    // cheapest round trip. Seed every lane one crossing away from a
    // non-empty lane, then follow improvements until the limits are
    // the cheapest chains. Empty lanes seed nothing but relay like
    // any other: any influence routed through one originates at a
    // non-empty lane. Lanes no chain leads to run unbounded.
    limits_.assign(n_, kNever);
    work_.clear();
    bool any = false;
    for (std::size_t j = 0; j < n_; j++) {
        if (nts_[j] == kNever)
            continue;
        any = true;
        relaxFrom(j, nts_[j]);
    }
    for (std::size_t h = 0; h < work_.size(); h++) {
        std::uint32_t i = work_[h];
        queued_[i] = 0;
        relaxFrom(i, limits_[i]);
    }
    return any;
}

void
LaneScheduler::runLane(unsigned i)
{
    if (!lanes_[i]->runBefore(limits_[i], &nts_[i]))
        nts_[i] = kNever;
}

void
LaneScheduler::workerLoop(unsigned)
{
    std::uint64_t seen_round = 0;
    for (;;) {
        unsigned lane;
        {
            std::unique_lock<std::mutex> lock(mu_);
            cvWork_.wait(lock, [&]() {
                return shutdown_ ||
                       (roundId_ != seen_round && next_ < active_.size());
            });
            if (shutdown_)
                return;
            lane = active_[next_++];
            if (next_ == active_.size())
                seen_round = roundId_;
        }
        runLane(lane);
        {
            std::lock_guard<std::mutex> lock(mu_);
            if (pendingLanes_ == 0)
                panic("LaneScheduler: lane %u completed outside a "
                      "round",
                      lane);
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
    // The declared crossings as per-lane out-edge lists.
    edgeBegin_.assign(n_ + 1, 0);
    edges_.clear();
    for (std::size_t s = 0; s < n_; s++) {
        for (std::size_t d = 0; d < n_; d++)
            if (pairL_[s * n_ + d] != kNoCrossing)
                edges_.push_back({pairL_[s * n_ + d],
                                  static_cast<std::uint32_t>(d)});
        edgeBegin_[s + 1] = edges_.size();
    }
    queued_.assign(n_, 0);
    nts_.assign(n_, kNever);
    for (std::size_t i = 0; i < n_; i++)
        lanes_[i]->peekNextTick(&nts_[i]);
    running_ = true;
    // Each round: single-threaded merge of everything the previous
    // windows produced (and, on the first round, of the posts made
    // during model construction), then the windows.
    for (;;) {
        mergeMailboxes();
        if (!computeLimits())
            break;
        rounds_++;
        if (workers_.empty()) {
            for (unsigned i = 0; i < n_; i++)
                if (nts_[i] < limits_[i])
                    runLane(i);
            continue;
        }
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
                if (nts_[i] < limits_[i])
                    active_.push_back(i);
            // Longest-pending lanes first, so a straggler lane is
            // claimed early and the short lanes pack behind it
            // (whole-lane stealing keeps per-lane order intact).
            // pending() is deterministic at the barrier, so the
            // claim order — though irrelevant to results — is too.
            std::sort(active_.begin(), active_.end(),
                      [this](unsigned a, unsigned b) {
                          std::size_t pa = lanes_[a]->pending();
                          std::size_t pb = lanes_[b]->pending();
                          if (pa != pb)
                              return pa > pb;
                          return a < b;
                      });
            next_ = active_.size();
        }
        if (active_.size() == 1)
            runLane(active_[0]);
        else
            runRoundOnWorkers();
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
