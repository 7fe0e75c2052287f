/**
 * @file
 * Fuzzer self-tests: bounded smoke runs of the generated-scenario
 * corpus, the laned jobs=1 vs jobs=4 differential, and the
 * deliberately buggy credit-leak fixture (must be caught by the
 * conservation invariant and shrink to a tiny replayable trace).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <string>

#include "fuzz.h"

namespace m3v::fuzz {
namespace {

TEST(Fuzz, SmokeSingleMode)
{
    std::uint64_t sendsOk = 0, recvs = 0;
    for (std::uint64_t seed = 1; seed <= 3; seed++) {
        for (std::uint64_t i = 0; i < 40; i++) {
            Scenario sc =
                makeScenario(seed, i, /*allow_kills=*/true);
            Outcome out = runScenario(sc, RigMode::Single);
            EXPECT_FALSE(out.failed())
                << "seed " << seed << " index " << i << "\n"
                << ::testing::PrintToString(out.errors);
            sendsOk += out.sendsOk;
            recvs += out.recvs;
            if (out.failed())
                return; // one reproduction is enough
        }
    }
    // The corpus must actually exercise the protocol.
    EXPECT_GT(sendsOk, 50u);
    EXPECT_GT(recvs, 20u);
}

TEST(Fuzz, ScenarioGenerationIsDeterministic)
{
    Scenario a = makeScenario(7, 11, true);
    Scenario b = makeScenario(7, 11, true);
    ASSERT_EQ(a.ops.size(), b.ops.size());
    for (std::size_t i = 0; i < a.ops.size(); i++) {
        EXPECT_EQ(a.ops[i].actIdx, b.ops[i].actIdx);
        EXPECT_EQ(a.ops[i].kind, b.ops[i].kind);
        EXPECT_EQ(a.ops[i].arg, b.ops[i].arg);
    }
    // And so is execution: same scenario, same digest.
    EXPECT_EQ(runScenario(a, RigMode::Single).digest,
              runScenario(b, RigMode::Single).digest);
}

TEST(Fuzz, DifferentialLanedJobs1Vs4)
{
    for (std::uint64_t seed = 1; seed <= 2; seed++) {
        for (std::uint64_t i = 0; i < 6; i++) {
            Scenario sc =
                makeScenario(seed, 500 + i, /*allow_kills=*/true);
            Outcome out = runDifferential(sc);
            EXPECT_FALSE(out.failed())
                << "seed " << seed << " index " << i << "\n"
                << ::testing::PrintToString(out.errors);
            if (out.failed())
                return;
        }
    }
}

TEST(Fuzz, TraceRoundTrip)
{
    Scenario sc = makeScenario(42, 3, true);
    sc.kills.push_back({12345, 2});
    std::ostringstream os;
    writeTrace(sc, os);
    std::istringstream is(os.str());
    Scenario rt;
    ASSERT_TRUE(readTrace(is, rt));
    EXPECT_EQ(rt.seed, sc.seed);
    EXPECT_EQ(rt.buggy, sc.buggy);
    ASSERT_EQ(rt.kills.size(), sc.kills.size());
    EXPECT_EQ(rt.kills.back().tick, 12345u);
    ASSERT_EQ(rt.ops.size(), sc.ops.size());
    for (std::size_t i = 0; i < sc.ops.size(); i++) {
        EXPECT_EQ(rt.ops[i].actIdx, sc.ops[i].actIdx);
        EXPECT_EQ(rt.ops[i].kind, sc.ops[i].kind);
        EXPECT_EQ(rt.ops[i].arg, sc.ops[i].arg);
    }
    // The round-tripped scenario replays to the same digest.
    EXPECT_EQ(runScenario(sc, RigMode::Single).digest,
              runScenario(rt, RigMode::Single).digest);
}

TEST(Fuzz, BuggyCreditLeakIsCaughtAndShrinks)
{
    // The --buggy fixture siphons one credit off a send endpoint
    // after the second acknowledged tile-0 send. The conservation
    // invariant must catch it, and the scenario must shrink to a
    // minimal reproduction.
    bool caught = false;
    for (std::uint64_t i = 0; i < 50 && !caught; i++) {
        Scenario sc = makeScenario(999, i, /*allow_kills=*/false);
        sc.buggy = true;
        Outcome out = runScenario(sc, RigMode::Single);
        if (!out.leaked) {
            // Fixture did not trigger (fewer than two acked tile-0
            // sends): the run must then be clean.
            EXPECT_FALSE(out.failed())
                << ::testing::PrintToString(out.errors);
            continue;
        }
        ASSERT_TRUE(out.failed())
            << "credit leak fired but no invariant tripped (index "
            << i << ")";
        caught = true;

        // The same scenario without the bug is clean: the fixture,
        // not the stack, is at fault.
        Scenario clean = sc;
        clean.buggy = false;
        EXPECT_FALSE(runScenario(clean, RigMode::Single).failed());

        // Shrinks to a handful of ops (two sends suffice).
        Scenario small = shrinkScenario(sc, RigMode::Single);
        EXPECT_LE(small.ops.size(), 20u);
        EXPECT_TRUE(runScenario(small, RigMode::Single).failed());

        // And survives a trace-file round trip as a reproduction.
        std::string path =
            ::testing::TempDir() + "/m3v_fuzz_leak_trace.txt";
        ASSERT_TRUE(writeTraceFile(small, path));
        Scenario replay;
        ASSERT_TRUE(readTraceFile(path, replay));
        EXPECT_TRUE(
            runScenario(replay, RigMode::Single).failed());
        std::remove(path.c_str());
    }
    EXPECT_TRUE(caught)
        << "no generated scenario triggered the leak fixture";
}

} // namespace
} // namespace m3v::fuzz
