/**
 * @file
 * Runtime invariant checking for tests: a registry of named
 * conservation laws evaluated at event boundaries.
 *
 * Components register checks (closures over their own state) under a
 * name; the harness attaches the registry to an EventQueue, which then
 * calls back after every executed event (or every Nth, see the stride
 * argument). A check reports problems through Invariants::fail(), which
 * records a formatted violation string; the harness asserts ok() /
 * prints report() when a run ends.
 *
 * Two evaluation classes:
 *  - When::EveryBoundary — laws that hold after *every* event
 *    (e.g. CUR_ACT's message count equals the queued unread messages).
 *  - When::QuiescentOnly — laws that only hold once the simulation has
 *    drained (e.g. every core request was consumed, all DTU engines
 *    idle, credits conserved across tiles). These run only from
 *    runAll(true), which the harness calls after run() returns.
 *
 * The checker is opt-in: production paths never construct one, and an
 * unattached EventQueue pays a single null-pointer test per event.
 *
 * Thread-safety: checks read model state directly, so in lane mode
 * (sim::LaneScheduler) a registry attached to a lane's EventQueue must
 * only contain checks over that lane's own components; cross-lane laws
 * belong in a separate registry evaluated after LaneScheduler::run()
 * returns (single-threaded quiescence).
 */

#ifndef M3VSIM_SIM_INVARIANTS_H_
#define M3VSIM_SIM_INVARIANTS_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace m3v::sim {

class EventQueue;

/** Named invariant checks evaluated at event boundaries. */
class Invariants
{
  public:
    enum class When : std::uint8_t
    {
        EveryBoundary, ///< holds after every executed event
        QuiescentOnly, ///< holds only once the simulation drained
    };

    using CheckFn = std::function<void(Invariants &)>;

    /** Register @p fn under @p name. */
    void addCheck(std::string name, CheckFn fn,
                  When when = When::EveryBoundary);

    /**
     * Attach to @p eq: after every @p stride executed events the
     * EveryBoundary checks run. Detaches any previous registry;
     * stride > 1 trades coverage for speed on long fuzz runs.
     */
    void attach(EventQueue &eq, std::uint64_t stride = 1);

    /**
     * Report a violation from inside a check (printf-style). The
     * message is prefixed with the running check's name. Recording is
     * capped; past the cap violations are counted but not stored.
     */
    void fail(const char *fmt, ...)
        __attribute__((format(printf, 2, 3)));

    /**
     * Run checks now: the EveryBoundary set, plus the QuiescentOnly
     * set when @p quiescent. The harness calls runAll(true) once the
     * event queue(s) drained.
     */
    void runAll(bool quiescent);

    bool ok() const { return total_ == 0; }
    std::uint64_t violationCount() const { return total_; }
    const std::vector<std::string> &violations() const
    {
        return violations_;
    }

    /** All recorded violations, one per line (empty when ok()). */
    std::string report() const;

    void clear();

  private:
    friend class EventQueue;

    /** EventQueue's per-event hook (EveryBoundary checks only). */
    void runBoundary() { runAll(false); }

    struct Check
    {
        std::string name;
        CheckFn fn;
        When when;
    };

    static constexpr std::size_t kMaxRecorded = 64;

    std::vector<Check> checks_;
    std::vector<std::string> violations_;
    std::uint64_t total_ = 0;
    const Check *running_ = nullptr;
};

} // namespace m3v::sim

#endif // M3VSIM_SIM_INVARIANTS_H_
