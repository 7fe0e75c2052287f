/**
 * @file
 * Unit and property tests for the deterministic RNG.
 */

#include <gtest/gtest.h>

#include <set>

#include "sim/rng.h"

namespace m3v::sim {
namespace {

TEST(Rng, SameSeedSameStream)
{
    Rng a(42), b(42);
    for (int i = 0; i < 1000; i++)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 1000; i++)
        if (a.next() == b.next())
            same++;
    EXPECT_LT(same, 2);
}

TEST(Rng, BoundedStaysInRange)
{
    Rng r(7);
    for (int i = 0; i < 10000; i++)
        EXPECT_LT(r.nextBounded(13), 13u);
}

TEST(Rng, BoundedOneAlwaysZero)
{
    Rng r(7);
    for (int i = 0; i < 100; i++)
        EXPECT_EQ(r.nextBounded(1), 0u);
}

TEST(Rng, DoubleInUnitInterval)
{
    Rng r(3);
    for (int i = 0; i < 10000; i++) {
        double d = r.nextDouble();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(Rng, BoundedIsRoughlyUniform)
{
    Rng r(1234);
    constexpr int kBuckets = 10;
    constexpr int kSamples = 100000;
    int counts[kBuckets] = {};
    for (int i = 0; i < kSamples; i++)
        counts[r.nextBounded(kBuckets)]++;
    // Each bucket within 5% of expectation.
    for (int c : counts) {
        EXPECT_GT(c, kSamples / kBuckets * 95 / 100);
        EXPECT_LT(c, kSamples / kBuckets * 105 / 100);
    }
}

TEST(Rng, SplitStreamsAreDecorrelated)
{
    Rng root(99);
    Rng a = root.split();
    Rng b = root.split();
    int same = 0;
    for (int i = 0; i < 1000; i++)
        if (a.next() == b.next())
            same++;
    EXPECT_LT(same, 2);
}

TEST(Rng, BernoulliMatchesProbability)
{
    Rng r(55);
    int hits = 0;
    constexpr int kN = 100000;
    for (int i = 0; i < kN; i++)
        if (r.nextBool(0.3))
            hits++;
    EXPECT_NEAR(static_cast<double>(hits) / kN, 0.3, 0.01);
}

} // namespace
} // namespace m3v::sim
