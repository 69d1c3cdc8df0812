#include "spans.h"

#include <cstdio>

namespace perfbench
{

Spans::Spans(bool enabled)
    : enabled_(enabled), epoch_(std::chrono::steady_clock::now())
{}

long long
Spans::nowNs() const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
}

int
Spans::open(const char *name, int parent, long job)
{
    if (!enabled_)
        return -1;
    spans_.push_back({name, parent, job, nowNs(), -1});
    return int(spans_.size() - 1);
}

void
Spans::close(int id)
{
    if (id >= 0)
        spans_[size_t(id)].endNs = nowNs();
}

bool
Spans::write(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fputs("{\"spans\": [", f);
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::fprintf(f,
                     "%s\n  {\"id\": %zu, \"name\": \"%s\", "
                     "\"parent\": %d, \"job\": %ld, \"start_ns\": %lld, "
                     "\"end_ns\": %lld}",
                     i ? "," : "", i, s.name.c_str(), s.parent, s.job,
                     s.startNs, s.endNs);
    }
    std::fputs("\n]}\n", f);
    return std::fclose(f) == 0;
}

} // namespace perfbench
