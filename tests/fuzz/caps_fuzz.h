/**
 * @file
 * Capability fuzzing for the controller (DESIGN.md section 4i):
 * random create/delegate/revoke/destroy op streams on an
 * eight-tile platform with one or more controller shards, checked
 * against a sharded reference model of the capability forest, the
 * controller conservation invariants, and a jobs=1-vs-4 digest
 * differential.
 */

#ifndef M3VSIM_TESTS_FUZZ_CAPS_FUZZ_H_
#define M3VSIM_TESTS_FUZZ_CAPS_FUZZ_H_

#include <cstdint>
#include <string>
#include <vector>

#include "sim/types.h"

namespace m3v::fuzz {

/** Result of one capability-fuzz scenario (or differential). */
struct CapsOutcome
{
    /** FNV-1a over the final capability forest and shard counters. */
    std::uint64_t digest = 0;
    /** Syscalls that completed with Error::None. */
    std::uint64_t opsOk = 0;
    /** Simulated tick at which the scenario drained (not digested). */
    sim::Tick endTick = 0;
    /** Events the scenario executed (not digested). */
    std::uint64_t events = 0;
    /** Cross-shard replies a nested call fetched for an outer call and
     *  stashed, summed over the shards (not digested). */
    std::uint64_t stashed = 0;
    /** Invariant violations, model mismatches, digest divergences. */
    std::vector<std::string> errors;

    bool failed() const { return !errors.empty(); }
};

/**
 * Run one scenario on a platform with @p shards controller shards:
 * four driver activities (on tiles 0, 2, 4, 6) each executing
 * @p ops_per_driver random capability operations against its own
 * quadrant's controller, with delegation targets anywhere (cross-
 * shard when @p shards > 1). Quiesce, then check the reference model,
 * the controller invariants, and per-op removed-count predictions.
 */
CapsOutcome runCapsScenario(std::uint64_t seed,
                            std::size_t ops_per_driver,
                            unsigned shards);

/**
 * Run @p cells four-shard scenarios (seeds seed..seed+cells-1) twice
 * — once on one worker thread, once on four — and require per-cell
 * digest equality in addition to each run being clean.
 */
CapsOutcome runCapsDifferential(std::uint64_t seed,
                                std::size_t ops_per_driver,
                                unsigned cells = 4);

} // namespace m3v::fuzz

#endif // M3VSIM_TESTS_FUZZ_CAPS_FUZZ_H_
