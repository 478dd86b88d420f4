#include "trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <map>
#include <utility>

namespace perfbench {

namespace {

/** Innermost open span of this thread (-1 = none). */
thread_local std::int32_t t_current = -1;

std::uint32_t
threadId()
{
    static std::atomic<std::uint32_t> next{0};
    thread_local const std::uint32_t id = next++;
    return id;
}

/** Length of the union of `iv` clipped to [lo, hi]. */
std::int64_t
coveredNs(std::vector<std::pair<std::int64_t, std::int64_t>> &iv,
          std::int64_t lo, std::int64_t hi)
{
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0;
    std::int64_t cur_lo = 0, cur_hi = -1;
    bool open = false;
    for (auto [a, b] : iv) {
        a = std::max(a, lo);
        b = std::min(b, hi);
        if (b <= a)
            continue;
        if (open && a <= cur_hi) {
            cur_hi = std::max(cur_hi, b);
            continue;
        }
        if (open)
            covered += cur_hi - cur_lo;
        cur_lo = a;
        cur_hi = b;
        open = true;
    }
    if (open)
        covered += cur_hi - cur_lo;
    return covered;
}

}  // namespace

std::int64_t
nowNs()
{
    using clock = std::chrono::steady_clock;
    static const clock::time_point origin = clock::now();
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               clock::now() - origin)
        .count();
}

double
percentile(std::vector<double> &v, double pct)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    // Nearest rank: the smallest value with at least pct% at or below.
    std::size_t rank = static_cast<std::size_t>(
        std::ceil(pct / 100.0 * static_cast<double>(v.size())));
    rank = std::clamp<std::size_t>(rank, 1, v.size());
    return v[rank - 1];
}

double
tailPercentileFor(std::size_t n)
{
    for (double pct : {99.9, 99.0, 95.0, 90.0, 50.0})
        if (static_cast<double>(n) * (1.0 - pct / 100.0) >= 10.0 - 1e-9)
            return pct;
    return 0.0;
}

std::int32_t
Tracer::begin(const char *layer, const char *name, std::int64_t op,
              std::int32_t parent)
{
    if (!enabled_)
        return -1;
    SpanRecord rec;
    rec.layer = layer;
    rec.name = name;
    rec.parent = parent == kCurrent ? t_current : parent;
    rec.op = op;
    rec.tid = threadId();
    rec.start_ns = nowNs();
    const std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(rec);
    return static_cast<std::int32_t>(spans_.size() - 1);
}

void
Tracer::end(std::int32_t id)
{
    if (id < 0)
        return;
    const std::int64_t t = nowNs();
    const std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<std::size_t>(id)].end_ns = t;
}

std::size_t
Tracer::size() const
{
    const std::lock_guard<std::mutex> lock(mu_);
    return spans_.size();
}

std::vector<double>
Tracer::durationsUs(const std::string &name) const
{
    const std::lock_guard<std::mutex> lock(mu_);
    std::vector<double> out;
    for (const SpanRecord &s : spans_)
        if (name == s.name)
            out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    return out;
}

std::vector<SpanSummary>
Tracer::summarize(bool by_layer) const
{
    const std::lock_guard<std::mutex> lock(mu_);
    std::vector<std::vector<std::size_t>> children(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i)
        if (spans_[i].parent >= 0)
            children[static_cast<std::size_t>(spans_[i].parent)].push_back(i);

    struct Acc {
        std::vector<double> durations;
        double self_us = 0;
    };
    std::map<std::string, Acc> groups;
    std::vector<std::pair<std::int64_t, std::int64_t>> iv;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const SpanRecord &s = spans_[i];
        iv.clear();
        for (std::size_t c : children[i])
            iv.emplace_back(spans_[c].start_ns, spans_[c].end_ns);
        const std::int64_t dur = s.end_ns - s.start_ns;
        Acc &acc = groups[by_layer ? std::string(s.layer)
                                   : std::string(s.name)];
        acc.durations.push_back(static_cast<double>(dur) / 1e3);
        acc.self_us +=
            static_cast<double>(dur - coveredNs(iv, s.start_ns, s.end_ns)) /
            1e3;
    }

    std::vector<SpanSummary> out;
    for (auto &[key, acc] : groups) {
        SpanSummary row;
        row.key = key;
        row.count = acc.durations.size();
        for (double d : acc.durations)
            row.busy_us += d;
        row.self_us = acc.self_us;
        row.p50_us = percentile(acc.durations, 50.0);
        row.tail_pct = tailPercentileFor(acc.durations.size());
        row.tail_us = row.tail_pct > 0.0
                          ? percentile(acc.durations, row.tail_pct)
                          : 0.0;
        out.push_back(row);
    }
    return out;
}

void
Tracer::writeChromeTrace(std::ostream &os) const
{
    const std::lock_guard<std::mutex> lock(mu_);
    os << "{\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const SpanRecord &s = spans_[i];
        os << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name
           << "\",\"cat\":\"" << s.layer << "\",\"ph\":\"X\",\"pid\":1"
           << ",\"tid\":" << s.tid
           << ",\"ts\":" << static_cast<double>(s.start_ns) / 1e3
           << ",\"dur\":" << static_cast<double>(s.end_ns - s.start_ns) / 1e3
           << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent
           << ",\"op\":" << s.op << "}}";
    }
    os << "\n],\"displayTimeUnit\":\"ms\"}\n";
}

Span::Span(Tracer *tracer, const char *layer, const char *name,
           std::int64_t op, std::int32_t parent)
    : tracer_(tracer && tracer->enabled() ? tracer : nullptr)
{
    if (!tracer_)
        return;
    id_ = tracer_->begin(layer, name, op, parent);
    saved_current_ = t_current;
    t_current = id_;
}

Span::~Span()
{
    if (!tracer_)
        return;
    tracer_->end(id_);
    t_current = saved_current_;
}

}  // namespace perfbench
