/**
 * @file
 * `serve_saturated` and `serve_light`: ServingSimulator over HILOS
 * (8 SmartSSDs, OPT-66B, FCFS, batch cap 16) fed a seeded Poisson
 * stream. Arrivals are open-loop in simulated time; the benchmark loop
 * is closed in host time. One op is one request served to completion;
 * one pass is one ServingSimulator::run over the whole stream.
 *
 * At 0.05 req/s the pending queue holds thousands of requests, so
 * admission (which re-sorts the backlog at every step boundary)
 * dominates host time. At 0.002 req/s the queue stays in single
 * digits and host time goes to the decode-step loop instead.
 */
#include <algorithm>
#include <cmath>
#include <exception>
#include <memory>
#include <string>
#include <vector>

#include "core/hilos.h"
#include "harness.h"

namespace perfbench {

namespace {

/** Requests of the discarded warm-up run (a prefix of the stream). */
constexpr std::size_t kWarmupRequests = 2000;

struct ServeShape {
    const char *name;
    double rate;        ///< req/s, simulated time
    std::size_t count;  ///< requests per pass
};

constexpr ServeShape kSaturated = {"serve_saturated", 0.05, 10000};
constexpr ServeShape kLight = {"serve_light", 0.002, 200000};

std::uint64_t
hashServing(const hilos::ServingResult &r)
{
    Fnv1a h;
    h.u64(r.feasible).str(r.note).u64(r.requests).u64(r.slo_met);
    h.f64(r.makespan).f64(r.ttft_p50).f64(r.ttft_p99).f64(r.ttft_p999);
    h.f64(r.latency_p50).f64(r.latency_p99).f64(r.latency_p999);
    h.f64(r.mean_queue_wait).f64(r.slo_attainment).f64(r.goodput_rps);
    h.f64(r.tokens_per_second).u64(r.decode_steps).u64(r.prefill_batches);
    h.u64(r.prefill_chunks_run).u64(r.prefill_preemptions);
    h.f64(r.mean_in_flight).u64(r.peak_in_flight);
    h.f64(r.mean_queue_depth).u64(r.peak_queue_depth);
    h.u64(r.cost_cache_hits).u64(r.cost_cache_misses);
    for (const auto &rec : r.records) {
        h.u64(rec.id).u64(static_cast<std::uint64_t>(rec.cls));
        h.u64(rec.input_tokens).u64(rec.output_tokens);
        h.f64(rec.arrival).f64(rec.admitted).f64(rec.first_token);
        h.f64(rec.completed).u64(rec.met_slo);
    }
    for (const auto &q : r.queue_depth)
        h.f64(q.when).u64(q.depth);
    return h.value();
}

class ServingWorkload : public Workload
{
  public:
    explicit ServingWorkload(const ServeShape &shape) : shape_(shape) {}

    void setup(std::uint64_t seed, Tracer *tracer) override
    {
        sys_ = hilos::defaultSystem();
        hilos::HilosOptions opts;
        opts.num_devices = 8;
        engine_ = std::make_unique<hilos::HilosEngine>(sys_, opts);
        cfg_ = hilos::ServingConfig{};
        cfg_.model = hilos::opt66b();
        cfg_.max_batch = 16;
        cfg_.policy = hilos::ServingPolicy::Fcfs;

        hilos::PoissonStreamConfig pc;
        pc.arrival_rate = shape_.rate;
        pc.count = shape_.count;
        std::uint64_t state = seed;
        hilos::Rng rng(splitmix64(state));
        {
            Span s(tracer, "serving_workload", "serving_workload.arrivals");
            arrivals_ = hilos::makePoissonArrivals(pc, rng);
        }
        const std::vector<hilos::Request> warm(
            arrivals_.begin(),
            arrivals_.begin() +
                static_cast<std::ptrdiff_t>(
                    std::min(kWarmupRequests, arrivals_.size())));
        (void)hilos::ServingSimulator(*engine_, cfg_).run(warm);
    }

    std::uint64_t pass(Tracer *tracer) override
    {
        Span span(tracer, "serving", "serving.run",
                  static_cast<std::int64_t>(passes_++));
        try {
            result_ = hilos::ServingSimulator(*engine_, cfg_).run(arrivals_);
            error_.clear();
        } catch (const std::exception &e) {
            result_ = hilos::ServingResult{};
            error_ = e.what();
        }
        return arrivals_.size();
    }

    void check(Checks &checks) override
    {
        const std::size_t n = arrivals_.size();
        checks.attempt(n);
        const hilos::ServingResult &r = result_;
        if (!error_.empty() || !r.feasible || r.records.size() != n) {
            checks.fail(n, std::string(shape_.name) + ": run failed: " +
                               (error_.empty() ? r.note : error_));
            return;
        }
        const std::uint64_t h = hashServing(r);
        if (!digest_) {
            digest_ = h;
        } else if (h != digest_) {
            checks.fail(n, std::string(shape_.name) +
                               ": a repeated run gave a different result");
            return;
        }
        std::uint64_t bad = 0;
        for (const auto &rec : r.records) {
            const bool ordered = rec.arrival <= rec.admitted &&
                                 rec.admitted <= rec.first_token &&
                                 rec.first_token <= rec.completed;
            const bool finite = std::isfinite(rec.arrival) &&
                                std::isfinite(rec.completed);
            bad += !(ordered && finite && rec.completed > 0.0);
        }
        if (bad)
            checks.fail(bad, std::string(shape_.name) +
                                 ": request timestamps out of order "
                                 "(arrival <= admitted <= first token <= "
                                 "completed)");
    }

    void selfCheck(Checks &checks) override
    {
        if (&shape_ == &kSaturated)
            checks.require(result_.mean_queue_depth >= 1000.0,
                           "serve_saturated: mean queue depth " +
                               std::to_string(result_.mean_queue_depth) +
                               " < 1000");
        else
            checks.require(result_.peak_queue_depth <= 9,
                           "serve_light: peak queue depth " +
                               std::to_string(result_.peak_queue_depth) +
                               " is not single-digit");
    }

    std::uint64_t digest() const override { return digest_; }

    void layerMetrics(const Tracer &tracer, LayerValues &out) const override
    {
        std::vector<double> arrivals =
            tracer.durationsUs("serving_workload.arrivals");
        if (!arrivals.empty())
            out["serving_workload.arrivals.ms"] = median(arrivals) / 1e3;
        const std::vector<double> runs = tracer.durationsUs("serving.run");
        if (runs.empty())
            return;
        const double run_us = median(runs);
        const hilos::ServingResult &r = result_;
        out["serving.run.s"] = run_us / 1e6;
        if (r.decode_steps)
            out["serving.us_per_decode_step"] =
                run_us / static_cast<double>(r.decode_steps);
        if (r.requests)
            out["serving.us_per_request"] =
                run_us / static_cast<double>(r.requests);
        out["serving.decode_steps"] = static_cast<double>(r.decode_steps);
        out["serving.prefill_batches"] =
            static_cast<double>(r.prefill_batches);
        out["serving.mean_queue_depth"] = r.mean_queue_depth;
        out["serving.peak_queue_depth"] =
            static_cast<double>(r.peak_queue_depth);
        out["serving.cost_cache.hits"] =
            static_cast<double>(r.cost_cache_hits);
        out["serving.cost_cache.misses"] =
            static_cast<double>(r.cost_cache_misses);
        const std::uint64_t lookups = r.cost_cache_hits + r.cost_cache_misses;
        if (lookups)
            out["serving.cost_cache.hit_ratio"] =
                static_cast<double>(r.cost_cache_hits) /
                static_cast<double>(lookups);
    }

    void report(std::ostream &os) const override
    {
        os << shape_.name << ": " << result_.requests << " requests at "
           << shape_.rate << " req/s, " << result_.decode_steps
           << " decode steps, mean queue depth " << result_.mean_queue_depth
           << ", peak " << result_.peak_queue_depth << "\n";
    }

  private:
    const ServeShape &shape_;
    hilos::SystemConfig sys_;
    std::unique_ptr<hilos::HilosEngine> engine_;
    hilos::ServingConfig cfg_;
    std::vector<hilos::Request> arrivals_;
    hilos::ServingResult result_;
    std::string error_;
    std::uint64_t digest_ = 0;
    std::uint64_t passes_ = 0;
};

}  // namespace

std::unique_ptr<Workload>
makeServingWorkload(bool saturated)
{
    return std::make_unique<ServingWorkload>(saturated ? kSaturated : kLight);
}

}  // namespace perfbench
