#include "sim/metrics.h"

#include <cstdio>

#include "sim/log.h"

namespace m3v::sim {

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

Counter *
MetricsRegistry::counter(const std::string &path)
{
    if (path.empty())
        panic("MetricsRegistry: empty path");
    return &counters_[path];
}

std::vector<std::string>
MetricsRegistry::paths() const
{
    std::vector<std::string> out;
    out.reserve(counters_.size());
    for (const auto &[path, c] : counters_)
        out.push_back(path);
    return out;
}

const Counter *
MetricsRegistry::findCounter(const std::string &path) const
{
    auto it = counters_.find(path);
    return it == counters_.end() ? nullptr : &it->second;
}

std::string
MetricsRegistry::toJson() const
{
    std::string out = "{";
    bool first = true;
    for (const auto &[path, c] : counters_) {
        if (!first)
            out += ",";
        first = false;
        out += "\n  \"" + jsonEscape(path) + "\": ";
        out += strprintf("%llu",
                         static_cast<unsigned long long>(c.value()));
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
