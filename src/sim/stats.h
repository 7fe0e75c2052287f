/**
 * @file
 * Lightweight statistics collection: counters, samplers (running
 * mean/stddev/min/max), and a table formatter used by the
 * benchmark harnesses to print paper-style result rows.
 */

#ifndef M3VSIM_SIM_STATS_H_
#define M3VSIM_SIM_STATS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace m3v::sim {

/** A monotonically increasing event counter. */
class Counter
{
  public:
    void inc(std::uint64_t n = 1) { value_ += n; }
    void reset() { value_ = 0; }
    std::uint64_t value() const { return value_; }

    /** Fold another counter in (shard merging at dump time). */
    void absorb(const Counter &o) { value_ += o.value_; }

  private:
    std::uint64_t value_ = 0;
};

/**
 * Running sample statistics using Welford's online algorithm, which is
 * numerically stable for long runs.
 */
class Sampler
{
  public:
    /** Record one sample. */
    void add(double x);

    /** Remove all samples. */
    void reset();

    std::uint64_t count() const { return n_; }
    double mean() const { return n_ ? mean_ : 0.0; }
    double min() const { return n_ ? min_ : 0.0; }
    double max() const { return n_ ? max_ : 0.0; }
    double sum() const { return sum_; }

    /** Population variance (0 for fewer than 2 samples). */
    double variance() const;

    /** Population standard deviation. */
    double stddev() const;

    /**
     * Fold another sampler in (Chan et al. parallel combination of
     * Welford states). Exact for count/sum/min/max; mean/variance
     * combine within floating-point error.
     */
    void absorb(const Sampler &o);

  private:
    std::uint64_t n_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
    double sum_ = 0.0;
};

/**
 * Plain-text table printer. Columns are right-aligned except the first;
 * used by bench binaries to print the rows/series of the paper's tables
 * and figures.
 */
class TablePrinter
{
  public:
    explicit TablePrinter(std::vector<std::string> headers);

    void addRow(std::vector<std::string> cells);

    /** Render the table to a string (with a header separator line). */
    std::string str() const;

    /** Render and print to stdout. */
    void print() const;

  private:
    std::vector<std::string> headers_;
    std::vector<std::vector<std::string>> rows_;
};

/** Format a double with the given number of decimals. */
std::string fmtDouble(double v, int decimals = 2);

} // namespace m3v::sim

#endif // M3VSIM_SIM_STATS_H_
