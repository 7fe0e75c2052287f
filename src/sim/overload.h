/**
 * @file
 * Overload-resilience state machines: server-side admission control
 * (bounded-queue shedding) and client-side retry discipline (retry
 * budgets, jittered backoff, circuit breakers).
 *
 * All of them are pure, deterministic state machines: transitions
 * depend only on the inputs fed to them (ticks come from the caller's
 * EventQueue, randomness from a seeded Rng), so services on different
 * event lanes and the jobs=1-vs-4 differential fuzzer reproduce the
 * same decisions bit for bit.
 *
 * The server side deliberately has no queue of its own: the DTU
 * receive ring *is* the admission queue. It is bounded by
 * construction (fixed slots; a full ring nacks the sender at the
 * wire), so Admission only decides, per fetched request, whether to
 * execute it or to shed it with Error::Overloaded — rejecting early
 * is cheap, queueing forever is not.
 */

#ifndef M3VSIM_SIM_OVERLOAD_H_
#define M3VSIM_SIM_OVERLOAD_H_

#include <algorithm>
#include <cstdint>

#include "sim/rng.h"
#include "sim/types.h"

namespace m3v::sim {

/** Server-side admission policy knobs (all zero = admit everything). */
struct AdmissionParams
{
    /**
     * Shed a request that already waited longer than this in the
     * receive ring (its deadline is blown; executing it only delays
     * the requests behind it). 0 disables the age check.
     */
    Tick maxQueueDelay = 0;

    /**
     * Shed while the ring occupancy (unread requests including the
     * one being decided) is at or above this mark — the per-endpoint
     * concurrency limit. 0 disables the occupancy check.
     */
    std::size_t highWater = 0;

    /** Modelled cost of shedding (decode + reject reply). */
    Cycles shedCost = 80;

    bool enabled() const { return maxQueueDelay > 0 || highWater > 0; }
};

/** Per-endpoint admission decision state. */
class Admission
{
  public:
    Admission() = default;
    explicit Admission(AdmissionParams p) : params_(p) {}

    const AdmissionParams &params() const { return params_; }
    bool enabled() const { return params_.enabled(); }

    /**
     * Decide the fetched request that arrived at @p arrival, with
     * @p occupancy unread requests in the ring (including this one).
     * Returns true to execute, false to shed.
     */
    bool
    admit(Tick now, Tick arrival, std::size_t occupancy)
    {
        if (params_.maxQueueDelay > 0 &&
            now - arrival > params_.maxQueueDelay) {
            shedByAge_++;
            return false;
        }
        if (params_.highWater > 0 &&
            occupancy >= params_.highWater) {
            shedByOccupancy_++;
            return false;
        }
        admitted_++;
        return true;
    }

    std::uint64_t shedByAge() const { return shedByAge_; }
    std::uint64_t shedByOccupancy() const { return shedByOccupancy_; }
    std::uint64_t shed() const { return shedByAge_ + shedByOccupancy_; }

    /** Fold the decision state into an FNV-1a style digest. */
    std::uint64_t
    digest(std::uint64_t h) const
    {
        for (std::uint64_t v : {admitted_, shedByAge_,
                                shedByOccupancy_}) {
            h ^= v;
            h *= 0x100000001b3ull;
        }
        return h;
    }

  private:
    AdmissionParams params_;
    std::uint64_t admitted_ = 0;
    std::uint64_t shedByAge_ = 0;
    std::uint64_t shedByOccupancy_ = 0;
};

/** Retry-budget (token bucket) knobs. */
struct RetryBudgetParams
{
    /** Tokens available before any successes accrue. */
    std::uint32_t initial = 8;
    /** Token cap. */
    std::uint32_t cap = 16;
    /** Successful calls needed to earn one token back. */
    std::uint32_t successesPerToken = 8;
};

/**
 * A retry budget: every retry spends a token, tokens accrue from
 * successes. Under a persistent outage the budget drains and retries
 * stop — the fleet's aggregate retry traffic stays proportional to
 * its success rate instead of amplifying the overload.
 */
class RetryBudget
{
  public:
    RetryBudget() : RetryBudget(RetryBudgetParams{}) {}
    explicit RetryBudget(RetryBudgetParams p)
        : params_(p), tokens_(p.initial)
    {
    }

    /** Spend a token for one retry; false = budget exhausted. */
    bool
    tryAcquire()
    {
        if (tokens_ == 0) {
            denied_++;
            return false;
        }
        tokens_--;
        spent_++;
        return true;
    }

    /** Record a successful call (accrues towards a token). */
    void
    recordSuccess()
    {
        if (++successes_ >= params_.successesPerToken) {
            successes_ = 0;
            tokens_ = std::min(tokens_ + 1, params_.cap);
        }
    }

    std::uint32_t tokens() const { return tokens_; }
    std::uint64_t spent() const { return spent_; }
    std::uint64_t denied() const { return denied_; }

    std::uint64_t
    digest(std::uint64_t h) const
    {
        for (std::uint64_t v : {static_cast<std::uint64_t>(tokens_),
                                spent_, denied_}) {
            h ^= v;
            h *= 0x100000001b3ull;
        }
        return h;
    }

  private:
    RetryBudgetParams params_;
    std::uint32_t tokens_ = 0;
    std::uint32_t successes_ = 0;
    std::uint64_t spent_ = 0;
    std::uint64_t denied_ = 0;
};

/** Circuit-breaker knobs. */
struct CircuitBreakerParams
{
    /** Consecutive failures that trip the breaker open. */
    std::uint32_t failureThreshold = 5;
    /** How long to stay open before probing (half-open). */
    Tick openInterval = 500 * kTicksPerUs;
    /** Consecutive half-open successes that close it again. */
    std::uint32_t halfOpenSuccesses = 2;
};

/**
 * A per-destination circuit breaker: Closed -> (failures) -> Open ->
 * (openInterval elapses) -> HalfOpen -> (successes) -> Closed, or
 * back to Open on a half-open failure. While open, allow() denies
 * calls outright so a dead or saturated destination sees no traffic
 * at all until the probe interval elapses.
 */
class CircuitBreaker
{
  public:
    enum class State : std::uint8_t
    {
        Closed,
        Open,
        HalfOpen,
    };

    CircuitBreaker() : CircuitBreaker(CircuitBreakerParams{}) {}
    explicit CircuitBreaker(CircuitBreakerParams p) : params_(p) {}

    /** May a call be attempted at @p now? */
    bool
    allow(Tick now)
    {
        if (state_ == State::Open) {
            if (now < reopenAt_) {
                shortCircuits_++;
                return false;
            }
            state_ = State::HalfOpen;
            halfOpenOk_ = 0;
        }
        return true;
    }

    void
    recordSuccess(Tick)
    {
        failures_ = 0;
        if (state_ == State::HalfOpen &&
            ++halfOpenOk_ >= params_.halfOpenSuccesses) {
            state_ = State::Closed;
            resets_++;
        }
    }

    void
    recordFailure(Tick now)
    {
        if (state_ == State::HalfOpen ||
            (state_ == State::Closed &&
             ++failures_ >= params_.failureThreshold)) {
            state_ = State::Open;
            reopenAt_ = now + params_.openInterval;
            failures_ = 0;
            trips_++;
        }
    }

    State state() const { return state_; }
    std::uint64_t trips() const { return trips_; }
    std::uint64_t resets() const { return resets_; }
    std::uint64_t shortCircuits() const { return shortCircuits_; }

    std::uint64_t
    digest(std::uint64_t h) const
    {
        for (std::uint64_t v : {static_cast<std::uint64_t>(state_),
                                trips_, resets_, shortCircuits_}) {
            h ^= v;
            h *= 0x100000001b3ull;
        }
        return h;
    }

  private:
    CircuitBreakerParams params_;
    State state_ = State::Closed;
    std::uint32_t failures_ = 0;
    std::uint32_t halfOpenOk_ = 0;
    Tick reopenAt_ = 0;
    std::uint64_t trips_ = 0;
    std::uint64_t resets_ = 0;
    std::uint64_t shortCircuits_ = 0;
};

/** Jittered-backoff knobs. */
struct BackoffParams
{
    Cycles base = 4096;
    Cycles cap = 1 << 17;
};

/**
 * Exponential backoff with full jitter: attempt n waits a uniformly
 * random number of cycles in [base, min(cap, base * 2^(n+1))), drawn
 * from a seeded Rng, so a burst of clients that failed together does
 * not retry together — including on the very first (and most common)
 * retry, which draws from [base, 2*base).
 */
class JitterBackoff
{
  public:
    JitterBackoff(BackoffParams p, std::uint64_t seed)
        : params_(p), rng_(seed)
    {
    }

    /** Backoff for the next attempt (advances the attempt count). */
    Cycles
    next()
    {
        Cycles hi =
            params_.base << std::min<unsigned>(attempt_ + 1, 16);
        hi = std::min(hi, params_.cap);
        attempt_++;
        if (hi <= params_.base)
            return params_.base;
        return params_.base +
               rng_.nextBounded(hi - params_.base);
    }

    void reset() { attempt_ = 0; }

  private:
    BackoffParams params_;
    Rng rng_;
    unsigned attempt_ = 0;
};

/**
 * Per-destination client discipline bundle: one breaker and one retry
 * budget per destination (shared by all sessions talking to it), plus
 * the backoff jitter source. With a reply deadline of 0 an RPC waits
 * for its reply however long it takes; fleet-style clients set one
 * so a lost reply surfaces as a typed, retryable Timeout.
 */
class OverloadGuard
{
  public:
    struct Params
    {
        RetryBudgetParams budget;
        CircuitBreakerParams breaker;
        BackoffParams backoff;
        /** Reply-wait deadline for RPCs (0 = wait forever). */
        Tick replyDeadline = 0;
    };

    explicit OverloadGuard(std::uint64_t seed)
        : OverloadGuard(seed, Params())
    {
    }

    OverloadGuard(std::uint64_t seed, Params p)
        : params_(p), budget_(p.budget), breaker_(p.breaker),
          backoff_(p.backoff, seed)
    {
    }

    const Params &params() const { return params_; }
    Tick replyDeadline() const { return params_.replyDeadline; }

    RetryBudget &budget() { return budget_; }
    const RetryBudget &budget() const { return budget_; }
    CircuitBreaker &breaker() { return breaker_; }
    const CircuitBreaker &breaker() const { return breaker_; }
    JitterBackoff &backoff() { return backoff_; }

  private:
    Params params_;
    RetryBudget budget_;
    CircuitBreaker breaker_;
    JitterBackoff backoff_;
};

} // namespace m3v::sim

#endif // M3VSIM_SIM_OVERLOAD_H_
