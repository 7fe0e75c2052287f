#include "sim/stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "sim/log.h"

namespace m3v::sim {

void
Sampler::add(double x)
{
    n_++;
    sum_ += x;
    if (n_ == 1) {
        mean_ = x;
        m2_ = 0.0;
        min_ = x;
        max_ = x;
        return;
    }
    double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
}

void
Sampler::reset()
{
    *this = Sampler();
}

double
Sampler::variance() const
{
    if (n_ < 2)
        return 0.0;
    return m2_ / static_cast<double>(n_);
}

double
Sampler::stddev() const
{
    return std::sqrt(variance());
}

void
Sampler::absorb(const Sampler &o)
{
    if (o.n_ == 0)
        return;
    if (n_ == 0) {
        *this = o;
        return;
    }
    double na = static_cast<double>(n_);
    double nb = static_cast<double>(o.n_);
    double delta = o.mean_ - mean_;
    double nt = na + nb;
    mean_ += delta * nb / nt;
    m2_ += o.m2_ + delta * delta * na * nb / nt;
    n_ += o.n_;
    sum_ += o.sum_;
    min_ = std::min(min_, o.min_);
    max_ = std::max(max_, o.max_);
}

TablePrinter::TablePrinter(std::vector<std::string> headers)
    : headers_(std::move(headers))
{
}

void
TablePrinter::addRow(std::vector<std::string> cells)
{
    if (cells.size() != headers_.size())
        panic("TablePrinter: row has %zu cells, expected %zu",
              cells.size(), headers_.size());
    rows_.push_back(std::move(cells));
}

std::string
TablePrinter::str() const
{
    std::vector<std::size_t> width(headers_.size(), 0);
    for (std::size_t c = 0; c < headers_.size(); c++)
        width[c] = headers_[c].size();
    for (const auto &row : rows_)
        for (std::size_t c = 0; c < row.size(); c++)
            width[c] = std::max(width[c], row[c].size());

    auto render_row = [&](const std::vector<std::string> &row) {
        std::string line;
        for (std::size_t c = 0; c < row.size(); c++) {
            std::size_t pad = width[c] - row[c].size();
            if (c == 0) {
                line += row[c] + std::string(pad, ' ');
            } else {
                line += std::string(pad, ' ') + row[c];
            }
            if (c + 1 < row.size())
                line += "  ";
        }
        line += '\n';
        return line;
    };

    std::string out = render_row(headers_);
    std::size_t total = 0;
    for (std::size_t c = 0; c < width.size(); c++)
        total += width[c] + (c + 1 < width.size() ? 2 : 0);
    out += std::string(total, '-') + '\n';
    for (const auto &row : rows_)
        out += render_row(row);
    return out;
}

void
TablePrinter::print() const
{
    std::fputs(str().c_str(), stdout);
}

std::string
fmtDouble(double v, int decimals)
{
    return strprintf("%.*f", decimals, v);
}

} // namespace m3v::sim
