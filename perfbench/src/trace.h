/**
 * @file
 * Host-time spans recorded around the benchmark's calls into each
 * simulator layer.
 *
 * A span is (layer, name, start, end, parent, op id, thread). Spans are
 * kept in memory while the workload runs and are summarised per layer
 * and per call site at the end: count, busy time, self time (duration
 * minus the part of the interval its child spans cover, on any
 * thread), p50 and a tail percentile. The whole set can be written as
 * Chrome trace-event JSON.
 *
 * A disabled tracer records nothing: `Span` on a null or disabled
 * tracer is a no-op, so the untraced run pays one branch per call.
 */
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <deque>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

/** Nanoseconds on the steady clock since the process's first call. */
std::int64_t nowNs();

struct SpanRecord {
    const char *layer = "";
    const char *name = "";
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int32_t parent = -1;  ///< index of the causing span, -1 = root
    std::int64_t op = -1;      ///< op the span belongs to, -1 = none
    std::uint32_t tid = 0;     ///< small per-thread id
};

/** One row of the per-call-site or per-layer summary. */
struct SpanSummary {
    std::string key;
    std::uint64_t count = 0;
    double busy_us = 0;
    double self_us = 0;
    double p50_us = 0;
    /** Highest percentile with at least ten samples beyond it (0 when
     *  there are fewer than twenty samples). */
    double tail_pct = 0;
    double tail_us = 0;
};

class Tracer
{
  public:
    /** Sentinel parent: the calling thread's innermost open span. */
    static constexpr std::int32_t kCurrent = -2;

    explicit Tracer(bool enabled) : enabled_(enabled) {}
    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    bool enabled() const { return enabled_; }

    /** Open a span; returns its index (-1 when disabled). */
    std::int32_t begin(const char *layer, const char *name, std::int64_t op,
                       std::int32_t parent);
    void end(std::int32_t id);

    /** Durations in microseconds of every span with this name. */
    std::vector<double> durationsUs(const std::string &name) const;

    /** Summary per span name, or per layer when `by_layer`. */
    std::vector<SpanSummary> summarize(bool by_layer) const;

    /** Chrome trace-event JSON ("X" events, microsecond timestamps). */
    void writeChromeTrace(std::ostream &os) const;

    std::size_t size() const;

  private:
    bool enabled_;
    mutable std::mutex mu_;  ///< guards spans_
    /** A deque, so recording never relocates earlier spans while a
     *  worker thread waits on the lock inside its own span. */
    std::deque<SpanRecord> spans_;
};

/** RAII span; no-op when `tracer` is null or disabled. */
class Span
{
  public:
    Span(Tracer *tracer, const char *layer, const char *name,
         std::int64_t op = -1, std::int32_t parent = Tracer::kCurrent);
    ~Span();
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    std::int32_t id() const { return id_; }

  private:
    Tracer *tracer_;
    std::int32_t id_ = -1;
    std::int32_t saved_current_ = -1;
};

/**
 * Percentile by nearest rank over `v` (sorted in place); 0 for an
 * empty vector.
 */
double percentile(std::vector<double> &v, double pct);

/**
 * The highest of {99.9, 99, 95, 90, 50} with at least ten samples
 * beyond it for `n` samples; 0 when even p50 lacks ten.
 */
double tailPercentileFor(std::size_t n);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
