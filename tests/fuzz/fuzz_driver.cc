/**
 * @file
 * Standalone fuzz driver (CI smoke stages and interactive use).
 *
 *   fuzz_driver [--seeds=N] [--seqs=M] [--diff=D] [--buggy] [--inv-stride=S] [--seed-base=B]
 *               [--caps=N] [--caps-ops=M]
 *               [--replay=FILE] [--shrink-out=FILE] [--jobs=J] [-v]
 *
 * Default mode: for each of N seed streams, run M generated scenarios
 * on the single-queue rig with all invariants attached, plus D
 * differential scenarios (laned jobs=1 vs jobs=4). Any invariant
 * violation, reference-model mismatch, or digest divergence fails the
 * run; the offending scenario is shrunk and written as a replayable
 * trace (--shrink-out, default stderr). Exit code 0 = clean.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <sstream>
#include <string>

#include "caps_fuzz.h"
#include "fuzz.h"

namespace {

struct Options
{
    std::uint64_t seeds = 5;
    std::uint64_t seqs = 2100;
    std::uint64_t diff = 0;
    std::uint64_t caps = 0;
    std::uint64_t capsOps = 60;
    std::uint64_t seedBase = 1;
    std::uint64_t invStride = 1;
    unsigned jobs = 4;
    bool buggy = false;
    bool verbose = false;
    std::string replay;
    std::string shrinkOut;
};

bool
parseU64(const char *s, std::uint64_t &out)
{
    char *end = nullptr;
    out = std::strtoull(s, &end, 10);
    return end && *end == '\0';
}

bool
parseArgs(int argc, char **argv, Options &opt)
{
    for (int i = 1; i < argc; i++) {
        std::string a = argv[i];
        auto val = [&](const char *prefix) -> const char * {
            std::size_t n = std::strlen(prefix);
            return a.compare(0, n, prefix) == 0 ? a.c_str() + n
                                                : nullptr;
        };
        const char *v;
        if ((v = val("--seeds="))) {
            if (!parseU64(v, opt.seeds))
                return false;
        } else if ((v = val("--seqs="))) {
            if (!parseU64(v, opt.seqs))
                return false;
        } else if ((v = val("--diff="))) {
            if (!parseU64(v, opt.diff))
                return false;
        } else if ((v = val("--caps="))) {
            if (!parseU64(v, opt.caps))
                return false;
        } else if ((v = val("--caps-ops="))) {
            if (!parseU64(v, opt.capsOps))
                return false;
        } else if ((v = val("--seed-base="))) {
            if (!parseU64(v, opt.seedBase))
                return false;
        } else if ((v = val("--inv-stride="))) {
            if (!parseU64(v, opt.invStride) || opt.invStride == 0)
                return false;
        } else if ((v = val("--jobs="))) {
            std::uint64_t j;
            if (!parseU64(v, j) || j == 0)
                return false;
            opt.jobs = static_cast<unsigned>(j);
        } else if ((v = val("--replay="))) {
            opt.replay = v;
        } else if ((v = val("--shrink-out="))) {
            opt.shrinkOut = v;
        } else if (a == "--buggy") {
            opt.buggy = true;
        } else if (a == "-v" || a == "--verbose") {
            opt.verbose = true;
        } else {
            std::fprintf(stderr, "unknown argument: %s\n",
                         a.c_str());
            return false;
        }
    }
    return true;
}

void
reportFailure(const m3v::fuzz::Scenario &sc,
              const m3v::fuzz::Outcome &out, const Options &opt,
              m3v::fuzz::RigMode mode, unsigned jobs)
{
    std::fprintf(stderr,
                 "FAIL: scenario seed=%llu ops=%zu kills=%zu "
                 "buggy=%d\n",
                 static_cast<unsigned long long>(sc.seed),
                 sc.ops.size(), sc.kills.size(), sc.buggy ? 1 : 0);
    for (const std::string &e : out.errors)
        std::fprintf(stderr, "  %s\n", e.c_str());
    m3v::fuzz::Scenario small =
        m3v::fuzz::shrinkScenario(sc, mode, jobs);
    std::fprintf(stderr, "shrunk to %zu ops, %zu kills\n",
                 small.ops.size(), small.kills.size());
    if (!opt.shrinkOut.empty()) {
        if (m3v::fuzz::writeTraceFile(small, opt.shrinkOut))
            std::fprintf(stderr, "trace written to %s\n",
                         opt.shrinkOut.c_str());
    } else {
        std::ostringstream os;
        m3v::fuzz::writeTrace(small, os);
        std::fprintf(stderr, "--- trace (replay with --replay) ---\n"
                             "%s---\n",
                     os.str().c_str());
    }
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace m3v::fuzz;
    Options opt;
    if (!parseArgs(argc, argv, opt))
        return 2;

    if (!opt.replay.empty()) {
        Scenario sc;
        if (!readTraceFile(opt.replay, sc)) {
            std::fprintf(stderr, "cannot read trace %s\n",
                         opt.replay.c_str());
            return 2;
        }
        Outcome out = runScenario(sc, RigMode::Single, 1, 1);
        std::printf("replay: seed=%llu ops=%zu digest=%016llx "
                    "sendsOk=%llu recvs=%llu %s\n",
                    static_cast<unsigned long long>(sc.seed),
                    sc.ops.size(),
                    static_cast<unsigned long long>(out.digest),
                    static_cast<unsigned long long>(out.sendsOk),
                    static_cast<unsigned long long>(out.recvs),
                    out.failed() ? "FAIL" : "ok");
        for (const std::string &e : out.errors)
            std::printf("  %s\n", e.c_str());
        return out.failed() ? 1 : 0;
    }

    std::uint64_t ran = 0, sendsOk = 0, recvs = 0;
    for (std::uint64_t s = 0; s < opt.seeds; s++) {
        std::uint64_t stream = opt.seedBase + s;
        for (std::uint64_t i = 0; i < opt.seqs; i++) {
            Scenario sc = makeScenario(stream, i, true);
            sc.buggy = opt.buggy;
            Outcome out =
                runScenario(sc, RigMode::Single, 1, opt.invStride);
            ran++;
            sendsOk += out.sendsOk;
            recvs += out.recvs;
            if (out.failed()) {
                reportFailure(sc, out, opt, RigMode::Single, 1);
                return 1;
            }
        }
        for (std::uint64_t i = 0; i < opt.diff; i++) {
            // Disjoint index range from the single-mode scenarios.
            Scenario sc = makeScenario(stream, 1u << 20 | i, true);
            sc.buggy = opt.buggy;
            Outcome out = runDifferential(sc, opt.invStride);
            ran++;
            sendsOk += out.sendsOk;
            recvs += out.recvs;
            if (out.failed()) {
                reportFailure(sc, out, opt, RigMode::Laned,
                              opt.jobs);
                return 1;
            }
        }
        if (opt.verbose)
            std::fprintf(stderr, "seed stream %llu done\n",
                         static_cast<unsigned long long>(stream));
    }
    std::uint64_t capsOk = 0;
    // Every caps seed runs on a single controller and on four shards:
    // the same reference model holds for both.
    for (std::uint64_t i = 0; i < opt.caps; i++) {
        for (unsigned shards : {1u, 4u}) {
            CapsOutcome out =
                runCapsScenario(opt.seedBase + i, opt.capsOps, shards);
            ran++;
            capsOk += out.opsOk;
            if (!out.failed())
                continue;
            std::fprintf(stderr,
                         "FAIL: caps scenario seed=%llu shards=%u\n",
                         static_cast<unsigned long long>(
                             opt.seedBase + i),
                         shards);
            for (const std::string &e : out.errors)
                std::fprintf(stderr, "  %s\n", e.c_str());
            return 1;
        }
    }
    if (opt.caps > 0) {
        // One jobs=1-vs-4 digest differential over four cells.
        CapsOutcome out =
            runCapsDifferential(opt.seedBase, opt.capsOps, 4);
        ran += 8;
        capsOk += out.opsOk;
        if (out.failed()) {
            std::fprintf(stderr, "FAIL: caps differential\n");
            for (const std::string &e : out.errors)
                std::fprintf(stderr, "  %s\n", e.c_str());
            return 1;
        }
    }
    std::printf("fuzz: %llu scenarios ok (%llu sends acked, "
                "%llu messages received, %llu cap ops)\n",
                static_cast<unsigned long long>(ran),
                static_cast<unsigned long long>(sendsOk),
                static_cast<unsigned long long>(recvs),
                static_cast<unsigned long long>(capsOk));
    return 0;
}
