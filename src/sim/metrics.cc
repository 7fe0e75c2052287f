#include "sim/metrics.h"

#include <cstdio>

#include "sim/log.h"

namespace m3v::sim {

namespace {

const char *
kindName(int k)
{
    switch (k) {
      case 0: return "counter";
      case 1: return "sampler";
    }
    return "?";
}

} // namespace

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char ch : s) {
        switch (ch) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          case '\r': out += "\\r"; break;
          default:
            if (static_cast<unsigned char>(ch) < 0x20)
                out += strprintf("\\u%04x", ch);
            else
                out += ch;
        }
    }
    return out;
}

MetricsRegistry::Entry &
MetricsRegistry::entryFor(const std::string &path, Kind kind)
{
    if (path.empty())
        panic("MetricsRegistry: empty path");
    auto it = entries_.find(path);
    if (it != entries_.end()) {
        if (it->second.kind != kind)
            panic("MetricsRegistry: '%s' registered as %s, requested "
                  "as %s",
                  path.c_str(),
                  kindName(static_cast<int>(it->second.kind)),
                  kindName(static_cast<int>(kind)));
        return it->second;
    }
    Entry e;
    e.kind = kind;
    return entries_.emplace(path, std::move(e)).first->second;
}

Counter *
MetricsRegistry::counter(const std::string &path)
{
    Entry &e = entryFor(path, Kind::Counter);
    if (!e.c)
        e.c = std::make_unique<Counter>();
    return e.c.get();
}

Sampler *
MetricsRegistry::sampler(const std::string &path)
{
    Entry &e = entryFor(path, Kind::Sampler);
    if (!e.s)
        e.s = std::make_unique<Sampler>();
    return e.s.get();
}

std::vector<std::string>
MetricsRegistry::paths() const
{
    std::vector<std::string> out;
    out.reserve(entries_.size());
    for (const auto &[path, entry] : entries_)
        out.push_back(path);
    return out;
}

const Counter *
MetricsRegistry::findCounter(const std::string &path) const
{
    auto it = entries_.find(path);
    if (it == entries_.end() || it->second.kind != Kind::Counter)
        return nullptr;
    return it->second.c.get();
}

void
MetricsRegistry::absorb(const MetricsRegistry &other)
{
    for (const auto &[path, oe] : other.entries_) {
        switch (oe.kind) {
          case Kind::Counter:
            if (oe.c)
                counter(path)->absorb(*oe.c);
            break;
          case Kind::Sampler:
            if (oe.s)
                sampler(path)->absorb(*oe.s);
            break;
        }
    }
}

std::string
MetricsRegistry::toJson() const
{
    std::string out = "{";
    bool first = true;
    for (const auto &[path, e] : entries_) {
        if (!first)
            out += ",";
        first = false;
        out += "\n  \"" + jsonEscape(path) + "\": ";
        switch (e.kind) {
          case Kind::Counter:
            out += strprintf("%llu",
                             static_cast<unsigned long long>(
                                 e.c->value()));
            break;
          case Kind::Sampler:
            out += strprintf(
                "{\"count\": %llu, \"mean\": %g, \"stddev\": %g, "
                "\"min\": %g, \"max\": %g}",
                static_cast<unsigned long long>(e.s->count()),
                e.s->mean(), e.s->stddev(), e.s->min(), e.s->max());
            break;
        }
    }
    out += "\n}\n";
    return out;
}

void
MetricsRegistry::writeJsonFile(const std::string &file) const
{
    std::FILE *f = std::fopen(file.c_str(), "w");
    if (!f)
        fatal("MetricsRegistry: cannot write '%s'", file.c_str());
    std::string json = toJson();
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
}

} // namespace m3v::sim
