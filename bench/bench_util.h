/**
 * @file
 * Shared helpers for the benchmark binaries: paper-style headers,
 * tables with mean/stddev columns, and simple horizontal bars so the
 * "figures" are recognizable on a terminal.
 */

#ifndef M3VSIM_BENCH_BENCH_UTIL_H_
#define M3VSIM_BENCH_BENCH_UTIL_H_

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "sim/log.h"
#include "sim/metrics.h"
#include "sim/stats.h"
#include "sim/types.h"

namespace m3v::bench {

/** Print a figure/table banner. */
inline void
banner(const std::string &id, const std::string &title)
{
    std::printf("\n================================================="
                "=============\n");
    std::printf("%s — %s\n", id.c_str(), title.c_str());
    std::printf("==================================================="
                "===========\n");
}

/** One labelled series value with spread. */
struct Bar
{
    std::string label;
    double value = 0;
    double stddev = 0;
};

/** Render bars scaled to the maximum value. */
inline void
printBars(const std::vector<Bar> &bars, const std::string &unit,
          int decimals = 1)
{
    double max = 0;
    std::size_t label_w = 0;
    for (const auto &b : bars) {
        max = std::max(max, b.value);
        label_w = std::max(label_w, b.label.size());
    }
    if (max <= 0)
        max = 1;
    for (const auto &b : bars) {
        int width = static_cast<int>(b.value / max * 46);
        std::printf("  %-*s %s%s  %.*f", static_cast<int>(label_w),
                    b.label.c_str(), std::string(
                        static_cast<std::size_t>(width), '#')
                        .c_str(),
                    std::string(static_cast<std::size_t>(46 - width),
                                ' ')
                        .c_str(),
                    decimals, b.value);
        if (b.stddev > 0)
            std::printf(" +-%.*f", decimals, b.stddev);
        std::printf(" %s\n", unit.c_str());
    }
}

/** Observability output targets parsed from the command line. */
struct ObsOptions
{
    std::string metricsOut; ///< --metrics-out=<file> (empty: off)
    std::string traceOut;   ///< --trace-out=<file> (empty: off)
    std::string summaryOut; ///< --summary-out=<file> (empty: off)
    unsigned jobs = 1;      ///< --jobs=<n> worker threads for cells
};

/**
 * Parse `--metrics-out=` / `--trace-out=` / `--summary-out=` /
 * `--jobs=` from argv. Unknown arguments are
 * ignored so figure binaries stay forgiving about harness-added
 * flags.
 */
inline ObsOptions
parseObsArgs(int argc, char **argv)
{
    ObsOptions opts;
    for (int i = 1; i < argc; i++) {
        std::string arg = argv[i];
        const std::string kMetrics = "--metrics-out=";
        const std::string kTrace = "--trace-out=";
        const std::string kSummary = "--summary-out=";
        const std::string kJobs = "--jobs=";
        if (arg.rfind(kMetrics, 0) == 0)
            opts.metricsOut = arg.substr(kMetrics.size());
        else if (arg.rfind(kTrace, 0) == 0)
            opts.traceOut = arg.substr(kTrace.size());
        else if (arg.rfind(kSummary, 0) == 0)
            opts.summaryOut = arg.substr(kSummary.size());
        else if (arg.rfind(kJobs, 0) == 0) {
            int n = std::atoi(arg.c_str() + kJobs.size());
            opts.jobs = n > 0 ? static_cast<unsigned>(n) : 1;
        }
    }
    return opts;
}

/**
 * Deterministic figure summary (--summary-out): an ordered list of
 * key/value pairs holding the headline numbers of a figure, derived
 * purely from simulated time — byte-identical across runs, hosts and
 * --jobs values. The golden-trace regression tests (tests/golden/)
 * compare these files against committed references.
 */
class Summary
{
  public:
    void
    add(const std::string &key, double value, int decimals = 3)
    {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.*f", decimals, value);
        entries_.emplace_back(key, buf);
    }

    void
    addU64(const std::string &key, std::uint64_t value)
    {
        entries_.emplace_back(key, std::to_string(value));
    }

    std::string
    toJson() const
    {
        std::string out = "{";
        bool first = true;
        for (const auto &[key, val] : entries_) {
            if (!first)
                out += ",";
            first = false;
            out += "\n  \"" + sim::jsonEscape(key) + "\": " + val;
        }
        out += "\n}\n";
        return out;
    }

    /** Write the summary; no-op when @p path is empty. */
    void
    write(const std::string &path) const
    {
        if (path.empty())
            return;
        std::FILE *f = std::fopen(path.c_str(), "w");
        if (!f)
            sim::fatal("Summary: cannot open %s", path.c_str());
        std::string json = toJson();
        std::fwrite(json.data(), 1, json.size(), f);
        std::fclose(f);
    }

  private:
    std::vector<std::pair<std::string, std::string>> entries_;
};

/**
 * Collects metrics snapshots from several runs (each with its own
 * EventQueue/registry) into one JSON object keyed by section name.
 */
class MetricsDump
{
  public:
    /** Snapshot @p reg's current values under @p section. */
    void addSection(const std::string &section,
                    const sim::MetricsRegistry &reg)
    {
        sections_.emplace_back(section, reg.toJson());
    }

    /**
     * Append another dump's sections in their order. Parallel sweeps
     * give every cell its own MetricsDump and absorb them in
     * registration order after the join, so the combined file is
     * byte-identical for any --jobs.
     */
    void absorb(const MetricsDump &other)
    {
        sections_.insert(sections_.end(), other.sections_.begin(),
                         other.sections_.end());
    }

    std::string toJson() const
    {
        std::string out = "{";
        bool first = true;
        for (const auto &[name, json] : sections_) {
            if (!first)
                out += ",";
            first = false;
            out += "\n  \"" + sim::jsonEscape(name) + "\": " + json;
        }
        out += "\n}\n";
        return out;
    }

    /** Write the combined dump; no-op when @p path is empty. */
    void write(const std::string &path) const
    {
        if (path.empty())
            return;
        std::FILE *f = std::fopen(path.c_str(), "w");
        if (!f)
            sim::fatal("MetricsDump: cannot open %s", path.c_str());
        std::string json = toJson();
        std::fwrite(json.data(), 1, json.size(), f);
        std::fclose(f);
    }

  private:
    std::vector<std::pair<std::string, std::string>> sections_;
};

/** Monotonic wall-clock milliseconds (for host-side timing). */
inline double
wallMs()
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Cycles at @p freq_hz for a tick duration. */
inline double
ticksToCycles(sim::Tick t, std::uint64_t freq_hz)
{
    return static_cast<double>(t) / sim::kTicksPerSec *
           static_cast<double>(freq_hz);
}

} // namespace m3v::bench

#endif // M3VSIM_BENCH_BENCH_UTIL_H_
