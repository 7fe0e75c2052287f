/**
 * @file
 * Capability-fuzz smoke for CI: a few reference-model scenarios at
 * one and at four controller shards, plus one jobs=1-vs-4 digest
 * differential. The standalone fuzz_driver (--caps=N) runs longer
 * campaigns.
 */

#include <gtest/gtest.h>

#include "caps_fuzz.h"

namespace m3v::fuzz {
namespace {

std::string
joined(const CapsOutcome &out)
{
    std::string s;
    for (const std::string &e : out.errors)
        s += e + "\n";
    return s;
}

void
expectScenariosMatchModel(unsigned shards)
{
    for (std::uint64_t seed : {1u, 2u, 3u}) {
        CapsOutcome out = runCapsScenario(seed, 60, shards);
        EXPECT_FALSE(out.failed()) << "seed " << seed << ":\n"
                                   << joined(out);
        EXPECT_GT(out.opsOk, 100u) << "seed " << seed;
    }
}

TEST(CapsFuzzTest, ScenariosMatchShardedModel)
{
    expectScenariosMatchModel(4);
}

/** The single controller is the sharded controller with no peers:
 *  the same reference model must hold for its revoke/reap path. */
TEST(CapsFuzzTest, ScenariosMatchModelOneShard)
{
    expectScenariosMatchModel(1);
}

/** The four-shard outcome of seeds 1-3 down to the event: the
 *  digest covers the final capability forest and the shard counters,
 *  the end tick and event count cover the timing of every syscall
 *  and cross-shard message on the way there. The stash count pins
 *  how often a cross-shard call, while serving a peer's request,
 *  fetched the reply of the call it is nested in (none of these
 *  seeds does; ShardRaceTest.NestedCallStashesOuterReply asserts
 *  that path). */
TEST(CapsFuzzTest, FourShardOutcomesPinned)
{
    struct Pin
    {
        std::uint64_t seed;
        std::uint64_t digest;
        std::uint64_t opsOk;
        sim::Tick endTick;
        std::uint64_t events;
        std::uint64_t stashed;
    };
    const Pin pins[] = {
        {1, 0xd5b36e2d2abb928full, 236, 1031667500, 18808, 0},
        {2, 0x94e1a3a0d57cc59bull, 234, 930037500, 18671, 0},
        {3, 0x05a045e974b14efbull, 237, 1049047500, 18981, 0},
    };
    for (const Pin &p : pins) {
        CapsOutcome out = runCapsScenario(p.seed, 60, 4);
        EXPECT_FALSE(out.failed()) << "seed " << p.seed << ":\n"
                                   << joined(out);
        EXPECT_EQ(out.digest, p.digest) << "seed " << p.seed;
        EXPECT_EQ(out.opsOk, p.opsOk) << "seed " << p.seed;
        EXPECT_EQ(out.endTick, p.endTick) << "seed " << p.seed;
        EXPECT_EQ(out.events, p.events) << "seed " << p.seed;
        EXPECT_EQ(out.stashed, p.stashed) << "seed " << p.seed;
    }
}

TEST(CapsFuzzTest, JobsDifferentialDigestParity)
{
    CapsOutcome out = runCapsDifferential(7, 40, 4);
    EXPECT_FALSE(out.failed()) << joined(out);
    EXPECT_GT(out.opsOk, 0u);
}

} // namespace
} // namespace m3v::fuzz
