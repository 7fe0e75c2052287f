/**
 * @file
 * Unit tests for the metrics registry and the Chrome-trace tracer:
 * handle stability and idempotent registration, sorted enumeration,
 * JSON rendering, span nesting/auto-close, and the category gate.
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <vector>

#include "sim/event_queue.h"
#include "sim/metrics.h"
#include "sim/trace.h"

namespace m3v::sim {
namespace {

//
// A tiny JSON validity checker: enough structure awareness to assert
// that the dumps are parseable (balanced containers outside strings,
// no trailing garbage) without pulling in a JSON library.
//

bool
jsonBalanced(const std::string &s)
{
    std::vector<char> stack;
    bool in_str = false;
    bool escaped = false;
    for (char c : s) {
        if (in_str) {
            if (escaped)
                escaped = false;
            else if (c == '\\')
                escaped = true;
            else if (c == '"')
                in_str = false;
            continue;
        }
        switch (c) {
        case '"':
            in_str = true;
            break;
        case '{':
        case '[':
            stack.push_back(c);
            break;
        case '}':
            if (stack.empty() || stack.back() != '{')
                return false;
            stack.pop_back();
            break;
        case ']':
            if (stack.empty() || stack.back() != '[')
                return false;
            stack.pop_back();
            break;
        default:
            break;
        }
    }
    return !in_str && stack.empty();
}

TEST(MetricsRegistry, HandlesAreStableAndIdempotent)
{
    MetricsRegistry reg;
    Counter *a = reg.counter("tile0.vdtu.tlb.misses");
    Counter *b = reg.counter("tile0.vdtu.tlb.misses");
    EXPECT_EQ(a, b);
    a->inc(3);
    EXPECT_EQ(b->value(), 3u);
    EXPECT_EQ(reg.size(), 1u);

    // Creating more instruments must not move existing ones.
    for (int i = 0; i < 64; i++)
        reg.counter("noc.r" + std::to_string(i) + ".routed");
    EXPECT_EQ(reg.counter("tile0.vdtu.tlb.misses"), a);
    EXPECT_EQ(a->value(), 3u);
}

TEST(MetricsRegistry, PathsSorted)
{
    MetricsRegistry reg;
    reg.counter("zeta");
    reg.sampler("alpha");
    reg.counter("mid.dle");
    std::vector<std::string> p = reg.paths();
    ASSERT_EQ(p.size(), 3u);
    EXPECT_EQ(p[0], "alpha");
    EXPECT_EQ(p[1], "mid.dle");
    EXPECT_EQ(p[2], "zeta");
}

TEST(MetricsRegistry, KindMismatchPanics)
{
    MetricsRegistry reg;
    reg.counter("x.y");
    EXPECT_DEATH(reg.sampler("x.y"), "x.y");
    EXPECT_DEATH(reg.counter(""), "empty");
}

TEST(MetricsRegistry, FindCounter)
{
    MetricsRegistry reg;
    Counter *c = reg.counter("a.b");
    reg.sampler("a.s");
    EXPECT_EQ(reg.findCounter("a.b"), c);
    EXPECT_EQ(reg.findCounter("a.s"), nullptr);
    EXPECT_EQ(reg.findCounter("missing"), nullptr);
}

TEST(MetricsRegistry, JsonIsParseableAndComplete)
{
    MetricsRegistry reg;
    reg.counter("dtu.msgs_sent")->inc(7);
    Sampler *s = reg.sampler("rpc.latency_us");
    s->add(1.0);
    s->add(3.0);
    std::string json = reg.toJson();
    EXPECT_TRUE(jsonBalanced(json)) << json;
    EXPECT_NE(json.find("\"dtu.msgs_sent\""), std::string::npos);
    EXPECT_NE(json.find("7"), std::string::npos);
    EXPECT_NE(json.find("\"rpc.latency_us\""), std::string::npos);
    EXPECT_NE(json.find("\"mean\""), std::string::npos);
}

TEST(JsonEscape, ControlAndQuoteCharacters)
{
    EXPECT_EQ(jsonEscape("plain"), "plain");
    EXPECT_EQ(jsonEscape("a\"b"), "a\\\"b");
    EXPECT_EQ(jsonEscape("a\\b"), "a\\\\b");
    EXPECT_EQ(jsonEscape("a\nb"), "a\\nb");
    std::string ctl = jsonEscape(std::string(1, '\x01'));
    EXPECT_EQ(ctl, "\\u0001");
}

TEST(Tracer, DisabledTracerRecordsNothing)
{
    EventQueue eq;
    Tracer &t = eq.tracer();
    EXPECT_FALSE(t.anyEnabled());
    t.begin(TraceCat::Dtu, 0, kTraceTidDtu, "SEND");
    t.instant(TraceCat::Noc, kTracePidNoc, 2, "hop");
    t.end(TraceCat::Dtu, 0, kTraceTidDtu);
    EXPECT_EQ(t.events(), 0u);
    EXPECT_EQ(t.droppedEnds(), 0u);
}

TEST(Tracer, CategoryMaskGatesPerCategory)
{
    EventQueue eq;
    Tracer &t = eq.tracer();
    t.setMask(static_cast<std::uint32_t>(TraceCat::Noc));
    EXPECT_TRUE(t.enabled(TraceCat::Noc));
    EXPECT_FALSE(t.enabled(TraceCat::Dtu));
    t.instant(TraceCat::Noc, kTracePidNoc, 0, "hop");
    t.instant(TraceCat::Dtu, 0, kTraceTidDtu, "retransmit");
    EXPECT_EQ(t.events(), 1u);
}

TEST(Tracer, SpansNestPerTrack)
{
    EventQueue eq;
    Tracer &t = eq.tracer();
    t.enableAll();
    t.begin(TraceCat::TmCall, 1, 2, "outer");
    t.begin(TraceCat::TmCall, 1, 2, "inner");
    // A span on another track does not interfere.
    t.begin(TraceCat::Dtu, 1, kTraceTidDtu, "SEND");
    EXPECT_EQ(t.openSpans(1, 2), 2u);
    EXPECT_EQ(t.openSpans(1, kTraceTidDtu), 1u);
    t.end(TraceCat::TmCall, 1, 2);
    t.end(TraceCat::TmCall, 1, 2);
    t.end(TraceCat::Dtu, 1, kTraceTidDtu);
    EXPECT_EQ(t.openSpans(1, 2), 0u);
    EXPECT_EQ(t.droppedEnds(), 0u);
    // 3 begins + 3 ends.
    EXPECT_EQ(t.events(), 6u);
}

TEST(Tracer, UnmatchedEndIsDroppedAndCounted)
{
    EventQueue eq;
    Tracer &t = eq.tracer();
    t.enableAll();
    t.end(TraceCat::Sched, 3, 4);
    EXPECT_EQ(t.droppedEnds(), 1u);
    EXPECT_EQ(t.events(), 0u);
}

TEST(Tracer, ToJsonAutoClosesOpenSpans)
{
    EventQueue eq;
    Tracer &t = eq.tracer();
    t.enableAll();
    t.begin(TraceCat::TmCall, 0, 1, "tmcall:wait");
    t.begin(TraceCat::TmCall, 0, 1, "nested");
    std::string json = t.toJson();
    EXPECT_TRUE(jsonBalanced(json)) << json;
    EXPECT_EQ(t.openSpans(0, 1), 0u);

    // Balanced B/E counts in the rendered output.
    std::size_t b = 0, e = 0, pos = 0;
    while ((pos = json.find("\"ph\": \"B\"", pos)) !=
           std::string::npos) {
        b++;
        pos++;
    }
    pos = 0;
    while ((pos = json.find("\"ph\": \"E\"", pos)) !=
           std::string::npos) {
        e++;
        pos++;
    }
    EXPECT_EQ(b, 2u);
    EXPECT_EQ(e, 2u);
}

TEST(Tracer, MetadataAndInstantInJson)
{
    EventQueue eq;
    Tracer &t = eq.tracer();
    t.enableAll();
    t.setProcessName(3, "tile3");
    t.setThreadName(3, 7, "worker");
    t.instant(TraceCat::Irq, 3, kTraceTidMux, "timer_irq");
    std::string json = t.toJson();
    EXPECT_TRUE(jsonBalanced(json)) << json;
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("process_name"), std::string::npos);
    EXPECT_NE(json.find("thread_name"), std::string::npos);
    EXPECT_NE(json.find("\"tile3\""), std::string::npos);
    EXPECT_NE(json.find("\"worker\""), std::string::npos);
    EXPECT_NE(json.find("timer_irq"), std::string::npos);
    // Instants carry thread scope.
    EXPECT_NE(json.find("\"s\": \"t\""), std::string::npos);
}

TEST(Tracer, TimestampsUseEventQueueTime)
{
    EventQueue eq;
    Tracer &t = eq.tracer();
    t.enableAll();
    bool fired = false;
    eq.schedule(2'000'000, [&] { // 2 us
        t.instant(TraceCat::Sched, 0, 0, "late");
        fired = true;
    });
    eq.run();
    ASSERT_TRUE(fired);
    std::string json = t.toJson();
    // 2'000'000 ticks = 2.000000 us in the trace.
    EXPECT_NE(json.find("2.000000"), std::string::npos) << json;
}

} // namespace
} // namespace m3v::sim
