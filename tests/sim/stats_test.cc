/**
 * @file
 * Unit tests for counters, samplers and table printing.
 */

#include <gtest/gtest.h>

#include "sim/stats.h"

namespace m3v::sim {
namespace {

TEST(Counter, IncAccumulates)
{
    Counter c;
    EXPECT_EQ(c.value(), 0u);
    c.inc();
    c.inc(5);
    EXPECT_EQ(c.value(), 6u);
}

TEST(Sampler, EmptyIsZero)
{
    Sampler s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_EQ(s.mean(), 0.0);
    EXPECT_EQ(s.stddev(), 0.0);
}

TEST(Sampler, KnownMoments)
{
    Sampler s;
    for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.add(v);
    EXPECT_EQ(s.count(), 8u);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_DOUBLE_EQ(s.variance(), 4.0);
    EXPECT_DOUBLE_EQ(s.stddev(), 2.0);
}

TEST(Sampler, SingleSample)
{
    Sampler s;
    s.add(3.5);
    EXPECT_EQ(s.count(), 1u);
    EXPECT_DOUBLE_EQ(s.mean(), 3.5);
    EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

TEST(TablePrinter, RendersAlignedRows)
{
    TablePrinter t({"name", "value"});
    t.addRow({"alpha", "1"});
    t.addRow({"b", "22"});
    std::string out = t.str();
    EXPECT_NE(out.find("name"), std::string::npos);
    EXPECT_NE(out.find("alpha"), std::string::npos);
    EXPECT_NE(out.find("22"), std::string::npos);
    // Header separator present.
    EXPECT_NE(out.find("---"), std::string::npos);
}

TEST(FmtDouble, Decimals)
{
    EXPECT_EQ(fmtDouble(3.14159, 2), "3.14");
    EXPECT_EQ(fmtDouble(2.0, 0), "2");
}

} // namespace
} // namespace m3v::sim
