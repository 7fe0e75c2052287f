#include "sim/invariants.h"

#include <cstdarg>
#include <cstdio>
#include <utility>

#include "sim/event_queue.h"

namespace m3v::sim {

void
Invariants::addCheck(std::string name, CheckFn fn, When when)
{
    checks_.push_back(Check{std::move(name), std::move(fn), when});
}

void
Invariants::attach(EventQueue &eq, std::uint64_t stride)
{
    eq.setInvariants(this, stride);
}

void
Invariants::fail(const char *fmt, ...)
{
    char buf[512];
    va_list ap;
    va_start(ap, fmt);
    std::vsnprintf(buf, sizeof(buf), fmt, ap);
    va_end(ap);
    std::string msg = running_ ? running_->name + ": " + buf
                               : std::string(buf);
    total_++;
    if (violations_.size() < kMaxRecorded)
        violations_.push_back(std::move(msg));
}

void
Invariants::runAll(bool quiescent)
{
    for (const Check &c : checks_) {
        if (c.when == When::QuiescentOnly && !quiescent)
            continue;
        running_ = &c;
        c.fn(*this);
    }
    running_ = nullptr;
}

std::string
Invariants::report() const
{
    std::string out;
    for (const std::string &v : violations_) {
        out += v;
        out += '\n';
    }
    if (total_ > violations_.size()) {
        out += "... and " +
               std::to_string(total_ - violations_.size()) +
               " more violations (recording capped)\n";
    }
    return out;
}

void
Invariants::clear()
{
    violations_.clear();
    total_ = 0;
}

} // namespace m3v::sim
