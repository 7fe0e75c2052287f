/**
 * @file
 * The metrics registry: a per-EventQueue catalogue of named counters
 * and samplers under hierarchical dotted paths
 * ("tile3.vdtu.tlb.misses", "noc.r2.port1.forwarded").
 *
 * Components register their instruments once at construction and keep
 * the returned handle; the hot path is then a plain pointer bump —
 * identical to the previous private-member counters, with no map
 * lookup. Registration is idempotent: asking for an existing path
 * returns the same handle (two components may share an instrument),
 * but asking for the same path with a different instrument kind is a
 * simulator bug and panics.
 *
 * The registry can enumerate everything it holds in sorted path order
 * and render it as a flat JSON object, which the bench binaries dump
 * via --metrics-out and the fig06_observability test sanity-checks.
 */

#ifndef M3VSIM_SIM_METRICS_H_
#define M3VSIM_SIM_METRICS_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "sim/stats.h"

namespace m3v::sim {

/** Catalogue of named instruments. Handles stay valid for the
 *  registry's lifetime (instruments are heap-allocated; the index
 *  never moves them). */
class MetricsRegistry
{
  public:
    MetricsRegistry() = default;
    MetricsRegistry(const MetricsRegistry &) = delete;
    MetricsRegistry &operator=(const MetricsRegistry &) = delete;

    /** Get-or-create the counter at @p path. */
    Counter *counter(const std::string &path);

    /** Get-or-create the sampler at @p path. */
    Sampler *sampler(const std::string &path);

    /** All registered paths in sorted order. */
    std::vector<std::string> paths() const;

    /** Number of registered instruments. */
    std::size_t size() const { return entries_.size(); }

    /** The counter at @p path, or nullptr (not created, any kind). */
    const Counter *findCounter(const std::string &path) const;

    /**
     * Render the registry as one flat JSON object, sorted by path.
     * Counters map to integers; samplers map to small objects
     * ({"count":..,"mean":..}).
     */
    std::string toJson() const;

    /** Write toJson() to @p file (panics on I/O failure). */
    void writeJsonFile(const std::string &file) const;

    /**
     * Fold @p other into this registry: instruments at the same path
     * are combined (counters add, samplers merge their running
     * statistics), unknown paths are created. Kind mismatches panic.
     * Used to
     * merge per-lane metric shards into one dump — absorbing N shards
     * of a sharded model yields the same JSON as the unsharded model.
     */
    void absorb(const MetricsRegistry &other);

  private:
    enum class Kind
    {
        Counter,
        Sampler,
    };

    struct Entry
    {
        Kind kind = Kind::Counter;
        std::unique_ptr<Counter> c;
        std::unique_ptr<Sampler> s;
    };

    Entry &entryFor(const std::string &path, Kind kind);

    std::map<std::string, Entry> entries_;
};

/** JSON string escaping for paths/names (quotes, backslash, ctrl). */
std::string jsonEscape(const std::string &s);

} // namespace m3v::sim

#endif // M3VSIM_SIM_METRICS_H_
