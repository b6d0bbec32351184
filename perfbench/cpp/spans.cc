#include "spans.h"

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <utility>

namespace perfbench {

Tracer::Tracer() : origin_(std::chrono::steady_clock::now()) {}

double
Tracer::now() const
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         origin_)
        .count();
}

int
Tracer::open(const std::string &name, std::uint64_t request)
{
    Span span;
    span.name = name;
    span.parent = openStack_.empty() ? -1 : openStack_.back();
    span.request = request;
    span.start = now();
    span.end = span.start;
    spans_.push_back(std::move(span));
    const int index = static_cast<int>(spans_.size()) - 1;
    openStack_.push_back(index);
    return index;
}

void
Tracer::close(int index)
{
    if (openStack_.empty() || openStack_.back() != index)
        throw std::logic_error("Tracer::close: span " + std::to_string(index) +
                               " is not the innermost open span");
    openStack_.pop_back();
    spans_[static_cast<std::size_t>(index)].end = now();
}

double
Tracer::selfSeconds(int index) const
{
    const Span &span = spans_[static_cast<std::size_t>(index)];
    std::vector<std::pair<double, double>> cover;
    for (const Span &child : spans_) {
        if (child.parent != index)
            continue;
        const double lo = std::max(child.start, span.start);
        const double hi = std::min(child.end, span.end);
        if (hi > lo)
            cover.emplace_back(lo, hi);
    }
    std::sort(cover.begin(), cover.end());
    double covered = 0.0;
    double reach = span.start;
    for (const auto &[lo, hi] : cover) {
        const double from = std::max(lo, reach);
        if (hi > from)
            covered += hi - from;
        reach = std::max(reach, hi);
    }
    return span.duration() - covered;
}

double
Tracer::totalSeconds(const std::string &name) const
{
    double total = 0.0;
    for (const Span &span : spans_) {
        if (span.name == name)
            total += span.duration();
    }
    return total;
}

void
Tracer::writeChromeJson(std::ostream &os) const
{
    os << "{\"traceEvents\":[";
    char buf[256];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &span = spans_[i];
        std::snprintf(buf, sizeof buf,
                      "\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,"
                      "\"dur\":%.3f,\"args\":{\"index\":%zu,\"parent\":%d,"
                      "\"request\":%llu,\"self_us\":%.3f}}",
                      span.start * 1e6, span.duration() * 1e6, i,
                      span.parent,
                      static_cast<unsigned long long>(span.request),
                      selfSeconds(static_cast<int>(i)) * 1e6);
        os << (i == 0 ? "" : ",") << "\n{\"name\":\"" << span.name << "\","
           << buf;
    }
    os << "\n]}\n";
}

} // namespace perfbench
