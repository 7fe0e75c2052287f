#include "sim/lane.h"

#include <algorithm>
#include <barrier>
#include <mutex>
#include <thread>

#include "sim/log.h"

namespace m3v::sim {

namespace {

constexpr Tick kNever = LaneScheduler::kNoCrossing;

} // namespace

LaneScheduler::LaneScheduler(unsigned lanes, unsigned jobs,
                             Tick lookahead,
                             std::size_t mailbox_capacity)
    : n_(lanes), jobs_(std::min(std::max(jobs, 1u), lanes))
{
    if (lanes == 0)
        panic("LaneScheduler: zero lanes");
    if (lookahead == 0)
        panic("LaneScheduler: zero lookahead");
    pairL_.assign(n_ * n_, lookahead);
    lanes_.reserve(n_);
    for (std::size_t i = 0; i < n_; i++)
        lanes_.push_back(std::make_unique<EventQueue>());
    out_.resize(n_);
    for (Outbox &o : out_)
        o.msgs.reserve(mailbox_capacity);
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

void
LaneScheduler::post(unsigned src, unsigned dst, Tick due,
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
    out_[src].msgs.push_back({due, dst, std::move(fn)});
}

void
LaneScheduler::mergeOutboxes()
{
    // A lane pops in exact (tick, seq) order, so only messages due on
    // the same tick in the same lane depend on the order they are
    // scheduled in here: (srcLane, post order), whichever worker ran
    // which window.
    for (Outbox &o : out_) {
        for (Msg &m : o.msgs) {
            lanes_[m.dst]->scheduleAt(m.due, std::move(m.fn));
            nts_[m.dst] = std::min(nts_[m.dst], m.due);
        }
        merged_ += o.msgs.size();
        o.msgs.clear();
    }
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
LaneScheduler::runBlock(unsigned w)
{
    std::size_t end = n_ * (w + 1) / jobs_;
    for (std::size_t i = n_ * w / jobs_; i < end; i++)
        if (nts_[i] < limits_[i])
            runLane(static_cast<unsigned>(i));
}

void
LaneScheduler::nextRound()
{
    mergeOutboxes();
    if (computeLimits())
        rounds_++;
    else
        done_ = true;
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
    done_ = false;
    // The first merge takes the posts made during model construction.
    nextRound();
    if (jobs_ == 1) {
        while (!done_) {
            runBlock(0);
            nextRound();
        }
    } else {
        // The barrier's completion step runs on the last worker to
        // arrive, after every window of the round and before any
        // window of the next, so the merge and the limits are
        // single-threaded, the merge sees every outbox append of
        // the round, and every worker sees their result. A
        // worker that threw would leave the others waiting at the
        // barrier forever, so a throw ends the program instead.
        std::barrier sync(jobs_, [this]() noexcept { nextRound(); });
        auto work = [this, &sync](unsigned w) noexcept {
            while (!done_) {
                runBlock(w);
                sync.arrive_and_wait();
            }
        };
        std::vector<std::thread> threads;
        threads.reserve(jobs_ - 1);
        for (unsigned w = 1; w < jobs_; w++)
            threads.emplace_back(work, w);
        work(0);
        for (auto &t : threads)
            t.join();
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
runCells(unsigned jobs, std::vector<UniqueFunction<void()>> cells)
{
    if (jobs <= 1 || cells.size() <= 1) {
        for (auto &c : cells)
            c();
        return;
    }
    std::mutex mu;
    std::size_t next = 0;
    auto worker = [&]() {
        for (;;) {
            std::size_t i;
            {
                std::lock_guard<std::mutex> lock(mu);
                i = next++;
            }
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
