#include "sim/trace.h"

#include <cstdio>

#include "sim/event_queue.h"
#include "sim/log.h"
#include "sim/metrics.h"

namespace m3v::sim {

namespace {

const char *
catName(TraceCat cat)
{
    switch (cat) {
      case TraceCat::Sched: return "sched";
      case TraceCat::TmCall: return "tmcall";
      case TraceCat::Irq: return "irq";
      case TraceCat::Dtu: return "dtu";
      case TraceCat::Noc: return "noc";
      case TraceCat::Fault: return "fault";
      case TraceCat::M3x: return "m3x";
    }
    return "?";
}

/** Ticks (1 ps) to the trace format's microseconds. */
double
tsUs(Tick t)
{
    return static_cast<double>(t) / 1e6;
}

} // namespace

void
Tracer::begin(TraceCat cat, std::uint32_t pid, std::uint32_t tid,
              const char *name)
{
    if (!enabled(cat))
        return;
    events_.push_back(Event{eq_.now(), pid, tid, 'B', cat, name});
    open_[trackKey(pid, tid)].push_back(name);
}

void
Tracer::end(TraceCat cat, std::uint32_t pid, std::uint32_t tid)
{
    if (!enabled(cat))
        return;
    auto it = open_.find(trackKey(pid, tid));
    if (it == open_.end() || it->second.empty()) {
        droppedEnds_++;
        return;
    }
    const char *name = it->second.back();
    it->second.pop_back();
    events_.push_back(Event{eq_.now(), pid, tid, 'E', cat, name});
}

void
Tracer::instant(TraceCat cat, std::uint32_t pid, std::uint32_t tid,
                const char *name)
{
    if (!enabled(cat))
        return;
    events_.push_back(Event{eq_.now(), pid, tid, 'i', cat, name});
}

void
Tracer::setProcessName(std::uint32_t pid, std::string name)
{
    processNames_[pid] = std::move(name);
}

void
Tracer::setThreadName(std::uint32_t pid, std::uint32_t tid,
                      std::string name)
{
    threadNames_[trackKey(pid, tid)] = std::move(name);
}

std::size_t
Tracer::openSpans(std::uint32_t pid, std::uint32_t tid) const
{
    auto it = open_.find(trackKey(pid, tid));
    return it == open_.end() ? 0 : it->second.size();
}

void
Tracer::closeOpenSpans()
{
    for (auto &[key, stack] : open_) {
        auto pid = static_cast<std::uint32_t>(key >> 32);
        auto tid = static_cast<std::uint32_t>(key & 0xFFFFFFFFu);
        while (!stack.empty()) {
            events_.push_back(Event{eq_.now(), pid, tid, 'E',
                                    TraceCat::Sched, stack.back()});
            stack.pop_back();
        }
    }
}

std::string
Tracer::toJson()
{
    closeOpenSpans();

    std::string out = "{\"traceEvents\": [";
    bool first = true;
    auto emit = [&](const std::string &ev) {
        if (!first)
            out += ",";
        first = false;
        out += "\n " + ev;
    };

    for (const auto &[pid, name] : processNames_) {
        emit(strprintf("{\"ph\": \"M\", \"pid\": %u, \"tid\": 0, "
                       "\"name\": \"process_name\", \"args\": "
                       "{\"name\": \"%s\"}}",
                       pid, jsonEscape(name).c_str()));
    }
    for (const auto &[key, name] : threadNames_) {
        emit(strprintf("{\"ph\": \"M\", \"pid\": %u, \"tid\": %u, "
                       "\"name\": \"thread_name\", \"args\": "
                       "{\"name\": \"%s\"}}",
                       static_cast<std::uint32_t>(key >> 32),
                       static_cast<std::uint32_t>(key & 0xFFFFFFFFu),
                       jsonEscape(name).c_str()));
    }

    for (const Event &e : events_) {
        if (e.ph == 'i') {
            emit(strprintf("{\"ph\": \"i\", \"ts\": %.6f, "
                           "\"pid\": %u, \"tid\": %u, \"cat\": "
                           "\"%s\", \"name\": \"%s\", \"s\": \"t\"}",
                           tsUs(e.ts), e.pid, e.tid, catName(e.cat),
                           jsonEscape(e.name).c_str()));
        } else {
            emit(strprintf("{\"ph\": \"%c\", \"ts\": %.6f, "
                           "\"pid\": %u, \"tid\": %u, \"cat\": "
                           "\"%s\", \"name\": \"%s\"}",
                           e.ph, tsUs(e.ts), e.pid, e.tid,
                           catName(e.cat),
                           jsonEscape(e.name).c_str()));
        }
    }
    out += "\n]}\n";
    return out;
}

void
Tracer::writeJsonFile(const std::string &file)
{
    std::FILE *f = std::fopen(file.c_str(), "w");
    if (!f)
        fatal("Tracer: cannot write '%s'", file.c_str());
    std::string json = toJson();
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
}

} // namespace m3v::sim
