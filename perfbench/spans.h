/**
 * @file
 * Benchmark-side spans: one record per call the benchmark makes into a
 * simulator layer (name, job id, parent span, start and end). Spans
 * stay in memory and are written once, when the benchmark exits, so
 * recording costs a clock read and a vector append per call.
 */

#ifndef PERFBENCH_SPANS_H
#define PERFBENCH_SPANS_H

#include <chrono>
#include <string>
#include <vector>

namespace perfbench
{

/** In-memory span recorder; a disabled recorder records nothing. */
class Spans
{
  public:
    explicit Spans(bool enabled);

    /** Open a span; returns its id, or -1 when disabled. */
    int open(const char *name, int parent, long job);

    /** Close span @p id (no-op for -1). */
    void close(int id);

    /** Write every span as JSON to @p path; false on I/O error. */
    bool write(const std::string &path) const;

    /** RAII span: opened at construction, closed at scope exit. */
    class Scope
    {
      public:
        Scope(Spans &spans, const char *name, int parent, long job)
            : spans_(spans), id_(spans.open(name, parent, job))
        {}
        ~Scope() { spans_.close(id_); }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;
        int id() const { return id_; }

      private:
        Spans &spans_;
        int id_;
    };

  private:
    struct Span
    {
        std::string name;
        int parent = -1;
        long job = -1; ///< job-list position, -1 outside a job
        long long startNs = 0;
        long long endNs = -1;
    };

    long long nowNs() const;

    bool enabled_;
    std::chrono::steady_clock::time_point epoch_;
    std::vector<Span> spans_;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_H
