/**
 * @file
 * The metrics registry: a per-EventQueue catalogue of named counters
 * under hierarchical dotted paths
 * ("tile3.vdtu.tlb.misses", "noc.r2.port1.forwarded").
 *
 * Components register their counters once at construction and keep
 * the returned handle; the hot path is then a plain pointer bump —
 * identical to the previous private-member counters, with no map
 * lookup. Registration is idempotent: asking for an existing path
 * returns the same handle (two components may share a counter).
 *
 * The registry can enumerate everything it holds in sorted path order
 * and render it as a flat JSON object, which the bench binaries dump
 * via --metrics-out and the fig06_observability test sanity-checks.
 */

#ifndef M3VSIM_SIM_METRICS_H_
#define M3VSIM_SIM_METRICS_H_

#include <map>
#include <string>
#include <vector>

#include "sim/stats.h"

namespace m3v::sim {

/** Catalogue of named counters. Handles stay valid for the
 *  registry's lifetime (map nodes never move). */
class MetricsRegistry
{
  public:
    MetricsRegistry() = default;
    MetricsRegistry(const MetricsRegistry &) = delete;
    MetricsRegistry &operator=(const MetricsRegistry &) = delete;

    /** Get-or-create the counter at @p path. */
    Counter *counter(const std::string &path);

    /** All registered paths in sorted order. */
    std::vector<std::string> paths() const;

    /** Number of registered counters. */
    std::size_t size() const { return counters_.size(); }

    /** The counter at @p path, or nullptr (not created). */
    const Counter *findCounter(const std::string &path) const;

    /** Render the registry as one flat JSON object of integers,
     *  sorted by path. */
    std::string toJson() const;

    /** Write toJson() to @p file (panics on I/O failure). */
    void writeJsonFile(const std::string &file) const;

  private:
    std::map<std::string, Counter> counters_;
};

/** JSON string escaping for paths/names (quotes, backslash, ctrl). */
std::string jsonEscape(const std::string &s);

} // namespace m3v::sim

#endif // M3VSIM_SIM_METRICS_H_
