/**
 * @file
 * Model-based protocol fuzzer for the vDTU/TileMux/NoC stack.
 *
 * A Scenario is a seeded, fully deterministic program: a flat list of
 * operations (noop/send/wait/yield/exit, plus the overload vocabulary
 * burst/shed/trip) distributed over six activities on two multiplexed
 * tiles, plus optional crash injections at fixed ticks and optional
 * NoC fault injection. runScenario()
 * executes it on a freshly built platform — either on a single event
 * queue or on the sharded LaneScheduler — with the sim::Invariants
 * registries attached, and checks the outcome against a reference
 * model of the message protocol:
 *
 *  - at-most-once: no payload tag is ever observed twice across all
 *    receivers (wire-level duplicate suppression);
 *  - exactly-once: in kill-free runs, every send that completed with
 *    Error::None is either recorded by the receiver or still unread
 *    in its receive ring, unless the receiver exited (reset drops);
 *  - all registered invariants hold at every event boundary and at
 *    quiescence (credit conservation, CUR_ACT bookkeeping, engine
 *    drain, scheduler sanity, lost-wakeup protection).
 *
 * runDifferential() executes the same scenario at --jobs=1 and
 * --jobs=4 on the laned scheduler and requires bit-identical
 * observable-state digests. Failing scenarios shrink (ddmin) to a
 * minimal reproduction and round-trip through a text trace file.
 */

#ifndef M3VSIM_TESTS_FUZZ_FUZZ_H_
#define M3VSIM_TESTS_FUZZ_FUZZ_H_

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace m3v::fuzz {

/** One operation of an activity's program. */
enum class OpKind : std::uint8_t
{
    Noop,  ///< compute for 100 + arg % 4000 cycles
    Send,  ///< send on the local (arg even) or remote (odd) send EP
    Wait,  ///< wait TMCall on own recv EP, then drain and ack
    Yield, ///< yield TMCall
    Exit,  ///< exit TMCall (drops the rest of the program)

    //
    // Overload vocabulary: deterministic drivers for the resilience
    // state machines (sim/overload.h), whose end state folds into the
    // differential digest.
    //
    Burst, ///< arrival burst: 1-3 back-to-back sends gated by the
           ///< activity's circuit breaker; failures spend retry-
           ///< budget tokens
    Shed,  ///< non-blocking drain of own recv EP, each fetched
           ///< request run through the admission shed decision
           ///< (queue age + ring occupancy)
    Trip,  ///< drive the breaker trip/reset edges and the retry
           ///< budget directly with an arg-derived outcome pattern

    FanIn, ///< ungated back-to-back sends on the remote EP: many
           ///< activities' remote EPs converge on one receive EP,
           ///< exercising many senders into one ring and the lane
           ///< outbox merge under the laned differential
};

const char *opKindName(OpKind k);

struct Op
{
    std::uint8_t actIdx = 0; ///< 0..5 (tile = actIdx / 3)
    OpKind kind = OpKind::Noop;
    std::uint32_t arg = 0;
};

/** A crash injected at a fixed tick (controller kill). */
struct KillEvent
{
    std::uint64_t tick = 0;
    std::uint8_t actIdx = 0;
};

/** A deterministic fuzz case; replayable from its fields alone. */
struct Scenario
{
    std::uint64_t seed = 0;
    bool faults = false; ///< NoC drop/corrupt fault injection
    bool buggy = false;  ///< enable the credit-leak test fixture
    std::vector<KillEvent> kills;
    std::vector<Op> ops;
};

/** Generate scenario @p index of stream @p seed. */
Scenario makeScenario(std::uint64_t seed, std::uint64_t index,
                      bool faults, bool allow_kills);

enum class RigMode : std::uint8_t
{
    Single, ///< one EventQueue, all invariants attached inline
    Laned,  ///< LaneScheduler shards, cross-lane laws checked after
};

/** Result of one scenario execution. */
struct Outcome
{
    /** Observable-state digest (FNV-1a over model end state). */
    std::uint64_t digest = 0;
    /** Invariant violations and reference-model mismatches. */
    std::vector<std::string> errors;
    std::uint64_t sendsOk = 0;
    std::uint64_t recvs = 0;
    /** The credit-leak fixture fired (buggy scenarios only). */
    bool leaked = false;

    bool failed() const { return !errors.empty(); }
};

/**
 * Build the platform, run the scenario to quiescence, evaluate the
 * invariants and the reference model. @p inv_stride thins the
 * per-event-boundary checks (1 = every boundary).
 */
Outcome runScenario(const Scenario &sc, RigMode mode,
                    unsigned jobs = 1, std::uint64_t inv_stride = 1);

/**
 * Run the scenario on the laned scheduler at jobs=1 and jobs=4 and
 * require identical digests; per-run failures and any divergence are
 * reported in the returned Outcome.
 */
Outcome runDifferential(const Scenario &sc,
                        std::uint64_t inv_stride = 1);

/**
 * Shrink a failing scenario (ddmin over ops, then kill removal) while
 * it keeps failing under @p mode/@p jobs. Returns the smallest
 * still-failing scenario found (the input if it does not fail).
 */
Scenario shrinkScenario(const Scenario &sc, RigMode mode,
                        unsigned jobs = 1);

//
// Trace files: a human-readable, replayable serialization.
//
void writeTrace(const Scenario &sc, std::ostream &os);
bool readTrace(std::istream &is, Scenario &sc);
bool writeTraceFile(const Scenario &sc, const std::string &path);
bool readTraceFile(const std::string &path, Scenario &sc);

} // namespace m3v::fuzz

#endif // M3VSIM_TESTS_FUZZ_FUZZ_H_
