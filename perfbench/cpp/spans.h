/**
 * @file
 * In-memory span recorder for the benchmark's traced runs.
 *
 * A span is one timed call from the benchmark into a layer: a name,
 * start and end on the host's steady clock, the span that was open
 * when it started (its parent) and the request it belongs to. Spans
 * are kept in memory and written out once, as Chrome trace JSON, when
 * the run ends; nothing is recorded inside the program under test.
 *
 * A span's self time is its duration minus the part of its interval
 * that its children cover.
 */

#ifndef PERFBENCH_SPANS_H
#define PERFBENCH_SPANS_H

#include <chrono>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

/** One recorded span; times are seconds since the tracer started. */
struct Span
{
    std::string name;
    double start = 0.0;
    double end = 0.0;
    int parent = -1; //!< index into Tracer::spans(), -1 for a root
    std::uint64_t request = 0;

    double duration() const { return end - start; }
};

/** Records nested spans from a single thread. */
class Tracer
{
  public:
    Tracer();

    /** Open a span under the innermost open one. @return its index. */
    int open(const std::string &name, std::uint64_t request);

    /** Close span @p index, which must be the innermost open one. */
    void close(int index);

    /** Closes its span when it leaves scope. */
    class Scope
    {
      public:
        Scope(Tracer &tracer, const std::string &name,
              std::uint64_t request)
            : tracer_(tracer), index_(tracer.open(name, request))
        {
        }
        ~Scope() { tracer_.close(index_); }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

        int index() const { return index_; }

      private:
        Tracer &tracer_;
        int index_;
    };

    const std::vector<Span> &spans() const { return spans_; }

    /** @return span @p index's duration minus its children's cover. */
    double selfSeconds(int index) const;

    /** @return summed duration of every span named @p name. */
    double totalSeconds(const std::string &name) const;

    /**
     * Write every span as a Chrome trace "X" event (microseconds),
     * with its index, parent, request and self time as arguments.
     * Open the file in Perfetto or chrome://tracing.
     */
    void writeChromeJson(std::ostream &os) const;

  private:
    double now() const;

    std::chrono::steady_clock::time_point origin_;
    std::vector<Span> spans_;
    std::vector<int> openStack_;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_H
