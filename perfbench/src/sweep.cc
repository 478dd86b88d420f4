/**
 * @file
 * `sweep`: the paper-figure grid, dispatched engine-major through runGrid.
 *
 * The grid crosses the Fig-10/11/12 axes (six engine kinds x the six
 * Table-2 models x batch x context) and adds the Fig-13/15 HILOS points
 * (4 and 16 devices, X-cache and delayed writeback off). The seed
 * permutes the order within each engine block. One op is one grid
 * point; one pass is one runGrid call over the whole grid at two jobs.
 */
#include <algorithm>
#include <array>
#include <exception>
#include <iomanip>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/hilos.h"
#include "harness.h"
#include "runtime/event_sim.h"
#include "runtime/plan_cache.h"
#include "sim/parallel.h"

namespace perfbench {

namespace {

using hilos::EngineKind;
using hilos::GridPoint;
using hilos::RunResult;

/** Worker threads of every runGrid call. */
constexpr unsigned kJobs = 2;
/** Repeats of the traced per-layer pass, so p99 has 1,000+ samples. */
constexpr int kLayerRepeats = 2;

constexpr std::array<EngineKind, 6> kKinds = {
    EngineKind::FlexDram,     EngineKind::FlexSsd,
    EngineKind::FlexSmartSsdRaw, EngineKind::DeepSpeedUvm,
    EngineKind::VllmMultiGpu, EngineKind::Hilos,
};

std::size_t
kindIndex(EngineKind kind)
{
    for (std::size_t i = 0; i < kKinds.size(); ++i)
        if (kKinds[i] == kind)
            return i;
    return 0;
}

/** Per-kind metric tags and the span name of that kind's run(). */
constexpr const char *kKindTags[] = {"flex_dram", "flex_ssd", "flex_16p3",
                                     "ds_uvm",    "vllm",     "hilos"};
constexpr const char *kRunSpans[] = {
    "engine.run.flex_dram", "engine.run.flex_ssd", "engine.run.flex_16p3",
    "engine.run.ds_uvm",    "engine.run.vllm",     "engine.run.hilos"};

/** The canonical grid, engine-major. */
std::vector<GridPoint>
canonicalGrid()
{
    const std::vector<hilos::ModelConfig> models = {
        hilos::opt30b(),  hilos::opt66b(),      hilos::opt175b(),
        hilos::qwen32b(), hilos::mixtral8x7b(), hilos::glam143b()};
    const std::uint64_t batches[] = {4, 8, 16, 32, 64};
    const std::uint64_t contexts[] = {8192, 16384, 32768, 65536, 131072};

    std::vector<GridPoint> grid;
    for (EngineKind kind : kKinds) {
        for (const auto &model : models)
            for (std::uint64_t b : batches)
                for (std::uint64_t s : contexts) {
                    GridPoint p;
                    p.kind = kind;
                    p.run.model = model;
                    p.run.batch = b;
                    p.run.context_len = s;
                    p.run.output_len = 64;
                    grid.push_back(p);
                }
    }
    // Fig-13/15 HILOS points at the Fig-10 batch: device count and the
    // X-cache / delayed-writeback ablations. Same block as HILOS above.
    struct Variant {
        unsigned devices;
        bool xcache;
        bool writeback;
    };
    const Variant variants[] = {
        {4, true, true}, {16, true, true}, {8, false, true},
        {8, true, false}, {8, false, false}};
    for (const auto &model : models)
        for (std::uint64_t s : contexts)
            for (const Variant &v : variants) {
                GridPoint p;
                p.kind = EngineKind::Hilos;
                p.hilos.num_devices = v.devices;
                p.hilos.xcache = v.xcache;
                p.hilos.delayed_writeback = v.writeback;
                p.run.model = model;
                p.run.batch = 16;
                p.run.context_len = s;
                p.run.output_len = 64;
                grid.push_back(p);
            }
    return grid;
}

class SweepWorkload : public Workload
{
  public:
    void setup(std::uint64_t seed, Tracer *) override
    {
        sys_ = hilos::defaultSystem();
        const std::vector<GridPoint> canon = canonicalGrid();
        // Seeded Fisher-Yates within each engine block.
        order_.resize(canon.size());
        for (std::size_t i = 0; i < canon.size(); ++i)
            order_[i] = i;
        std::uint64_t state = seed;
        std::size_t lo = 0;
        while (lo < canon.size()) {
            std::size_t hi = lo;
            while (hi < canon.size() && canon[hi].kind == canon[lo].kind)
                hi++;
            for (std::size_t i = hi - 1; i > lo; --i) {
                const std::size_t j =
                    lo + splitmix64(state) % (i - lo + 1);
                std::swap(order_[i], order_[j]);
            }
            lo = hi;
        }
        grid_.clear();
        for (std::size_t i : order_)
            grid_.push_back(canon[i]);
        // Discarded warm-up.
        (void)hilos::runGrid(sys_, grid_, kJobs);
    }

    std::uint64_t pass(Tracer *tracer) override
    {
        Span span(tracer, "core", "core.run_grid",
                  static_cast<std::int64_t>(passes_++));
        try {
            results_ = hilos::runGrid(sys_, grid_, kJobs);
            error_.clear();
        } catch (const std::exception &e) {
            results_.clear();
            error_ = e.what();
        }
        return grid_.size();
    }

    void check(Checks &checks) override
    {
        const std::size_t n = grid_.size();
        checks.attempt(n);
        if (results_.size() != n) {
            checks.fail(n, "runGrid threw: " + error_);
            return;
        }
        if (reference_.empty())
            buildReference();
        std::uint64_t bad = 0;
        std::string first;
        for (std::size_t i = 0; i < n; ++i) {
            const std::string why = problem(i, results_[i]);
            if (why.empty())
                continue;
            if (bad++ == 0)
                first = why;
        }
        if (bad)
            checks.fail(bad, first);
        if (!digest_) {
            // Canonical grid order, so the digest names the grid's
            // outputs independently of the dispatch order.
            std::vector<std::uint64_t> by_canon(n);
            for (std::size_t i = 0; i < n; ++i)
                by_canon[order_[i]] = hashRunResult(results_[i]);
            Fnv1a h;
            for (std::uint64_t v : by_canon)
                h.u64(v);
            digest_ = h.value();
        }
    }

    void selfCheck(Checks &checks) override
    {
        std::array<bool, kKinds.size()> seen{};
        for (const GridPoint &p : grid_)
            seen[kindIndex(p.kind)] = true;
        for (std::size_t k = 0; k < kKinds.size(); ++k)
            checks.require(seen[k], std::string("sweep: engine kind ") +
                                        kKindTags[k] + " missing");
        const std::size_t infeasible = grid_.size() - feasibleCount();
        checks.require(infeasible > 0 && infeasible < grid_.size(),
                       "sweep: grid must hold feasible and infeasible "
                       "points");
    }

    std::uint64_t digest() const override { return digest_; }

    void layerPass(Tracer &tracer, Checks &checks) override
    {
        if (reference_.empty())
            buildReference();
        const std::size_t n = grid_.size();
        std::array<hilos::PlanCache, kKinds.size()> caches;
        for (std::size_t i = 0; i < n; ++i)  // warm one cache per kind
            (void)hilos::makeEngine(grid_[i].kind, sys_, grid_[i].hilos)
                ->runCached(grid_[i].run, caches[kindIndex(grid_[i].kind)]);
        std::array<hilos::PlanCache::Stats, kKinds.size()> before;
        for (std::size_t k = 0; k < kKinds.size(); ++k)
            before[k] = caches[k].stats();

        std::uint64_t mismatched = 0;
        for (int rep = 0; rep < kLayerRepeats; ++rep) {
            // runGrid's own shape with one span per layer call: a
            // SweepDriver fans the points over kJobs workers.
            std::vector<std::uint64_t> hashes;
            {
                Span sweep_span(&tracer, "sim.parallel",
                                 "sim.parallel.sweep");
                const std::int32_t parent = sweep_span.id();
                hilos::SweepDriver driver(kJobs);
                hashes = driver.sweep(n, [&](std::size_t i) {
                    const GridPoint &p = grid_[i];
                    const auto op = static_cast<std::int64_t>(order_[i]);
                    std::unique_ptr<hilos::InferenceEngine> engine;
                    {
                        Span s(&tracer, "engine", "engine.make", op, parent);
                        engine = hilos::makeEngine(p.kind, sys_, p.hilos);
                    }
                    Span s(&tracer, "engine", kRunSpans[kindIndex(p.kind)],
                           op, parent);
                    return hashRunResult(engine->run(p.run));
                });
            }
            for (std::size_t i = 0; i < n; ++i)
                mismatched += hashes[i] != reference_hash_[i];

            for (std::size_t i = 0; i < n; ++i) {
                const GridPoint &p = grid_[i];
                const auto op = static_cast<std::int64_t>(order_[i]);
                const auto engine = hilos::makeEngine(p.kind, sys_, p.hilos);
                RunResult r;
                {
                    Span s(&tracer, "engine", "engine.run_cached", op);
                    r = engine->runCached(p.run, caches[kindIndex(p.kind)]);
                }
                mismatched += hashRunResult(r) != reference_hash_[i];
            }

            for (std::size_t i = 0; i < n; ++i) {
                const GridPoint &p = grid_[i];
                const auto op = static_cast<std::int64_t>(order_[i]);
                hilos::StepPlan plan;
                {
                    Span s(&tracer, "step_plan", "step_plan.build_decode", op);
                    plan = hilos::decodeStepPlanFor(p.kind, sys_, p.run,
                                                    p.hilos);
                }
                {
                    Span s(&tracer, "step_plan", "step_plan.build_prefill",
                           op);
                    (void)hilos::prefillStepPlanFor(p.kind, sys_, p.run, 0,
                                                    1, p.hilos);
                }
                if (!plan.feasible)
                    continue;
                hilos::PlanEvaluation eval;
                {
                    Span s(&tracer, "step_plan", "step_plan.evaluate", op);
                    eval = hilos::evaluatePlan(plan);
                }
                layer_ops_ += plan.layer_ops.size();
                hilos::PlanSimResult sim;
                {
                    Span s(&tracer, "event_sim", "event_sim.simulate_plan",
                           op);
                    sim = hilos::simulatePlan(plan);
                }
                checks.require(finitePositive(eval.decode_step_time) &&
                                   finitePositive(sim.decode_step_time),
                               "sweep: plan evaluation or replay of point " +
                                   std::to_string(order_[i]) +
                                   " is not finite and positive");
            }
        }
        checks.require(mismatched == 0,
                       "sweep: " + std::to_string(mismatched) +
                           " traced layer calls differ from the runCached "
                           "reference");
        for (std::size_t k = 0; k < kKinds.size(); ++k) {
            const auto &now = caches[k].stats();
            cache_stats_.hits += now.hits - before[k].hits;
            cache_stats_.misses += now.misses - before[k].misses;
            cache_stats_.mismatches += now.mismatches - before[k].mismatches;
        }
    }

    void layerMetrics(const Tracer &tracer, LayerValues &out) const override
    {
        const std::vector<double> grid_calls =
            tracer.durationsUs("core.run_grid");
        if (!grid_calls.empty()) {
            double sum = 0;
            for (double d : grid_calls)
                sum += d;
            out["core.run_grid.us_per_point"] =
                sum / static_cast<double>(grid_calls.size() * grid_.size());
        }
        std::vector<double> make = tracer.durationsUs("engine.make");
        if (!make.empty())
            out["engine.make.us_p50"] = percentile(make, 50.0);
        std::vector<double> runs;
        for (std::size_t k = 0; k < kKinds.size(); ++k) {
            std::vector<double> d = tracer.durationsUs(kRunSpans[k]);
            runs.insert(runs.end(), d.begin(), d.end());
            if (!d.empty())
                out[std::string("engine.run.") + kKindTags[k] + ".us_p50"] =
                    percentile(d, 50.0);
        }
        putLatency(runs, "engine.run", "us", 1.0, 99, out);
        putLatency(tracer.durationsUs("engine.run_cached"),
                   "engine.run_cached", "us", 1.0, 99, out);
        putLatency(tracer.durationsUs("step_plan.build_decode"),
                   "step_plan.build_decode", "us", 1.0, 99, out);
        putLatency(tracer.durationsUs("step_plan.build_prefill"),
                   "step_plan.build_prefill", "us", 1.0, 99, out);
        const std::vector<double> eval =
            tracer.durationsUs("step_plan.evaluate");
        putLatency(eval, "step_plan.evaluate", "us", 1.0, 99, out);
        if (layer_ops_) {
            double sum = 0;
            for (double d : eval)
                sum += d;
            out["step_plan.evaluate.ns_per_layer_op"] =
                sum * 1e3 / static_cast<double>(layer_ops_);
            out["step_plan.layer_ops"] =
                static_cast<double>(layer_ops_) / kLayerRepeats;
        }
        putLatency(tracer.durationsUs("event_sim.simulate_plan"),
                   "event_sim.simulate_plan", "us", 1.0, 99, out);
        const auto &cs = cache_stats_;
        const std::uint64_t builds = cs.hits + cs.misses + cs.mismatches;
        if (builds) {
            out["plan_cache.hits"] = static_cast<double>(cs.hits);
            out["plan_cache.misses"] = static_cast<double>(cs.misses);
            out["plan_cache.mismatches"] = static_cast<double>(cs.mismatches);
            out["plan_cache.hit_ratio"] =
                static_cast<double>(cs.hits) / static_cast<double>(builds);
        }
        if (!grid_.empty())
            out["sweep.feasible_share"] =
                static_cast<double>(feasibleCount()) /
                static_cast<double>(grid_.size());
    }

    void report(std::ostream &os) const override
    {
        // The modelled Fig-10 headline: HILOS(16) over FLEX(SSD) at the
        // Fig-10 batch of 16, from the reference results of this grid.
        std::map<std::pair<std::string, std::uint64_t>, double> flex, h16;
        for (std::size_t i = 0; i < grid_.size(); ++i) {
            const GridPoint &p = grid_[i];
            const RunResult &r = reference_.empty() ? results_[i]
                                                    : reference_[i];
            if (p.run.batch != 16 || !r.feasible)
                continue;
            const auto key = std::make_pair(p.run.model.name,
                                            p.run.context_len);
            if (p.kind == EngineKind::FlexSsd)
                flex[key] = r.decodeThroughput();
            if (p.kind == EngineKind::Hilos && p.hilos.num_devices == 16)
                h16[key] = r.decodeThroughput();
        }
        double peak_opt = 0, peak_all = 0;
        for (const auto &[key, t] : h16) {
            const auto it = flex.find(key);
            if (it == flex.end() || it->second <= 0)
                continue;
            const double x = t / it->second;
            peak_all = std::max(peak_all, x);
            if (key.first.rfind("OPT-", 0) == 0)
                peak_opt = std::max(peak_opt, x);
        }
        os << std::fixed << std::setprecision(2)
           << "model check: HILOS(16)/FLEX(SSD) peak decode speedup "
           << peak_opt << "x over OPT-30B/66B/175B at batch 16, 8K-128K ("
           << peak_all << "x over all six models); paper 7.86x, "
           << "EXPERIMENTS.md 7.09x\n";
        os.unsetf(std::ios::fixed);
        os << "sweep: " << grid_.size() << " points, "
           << feasibleCount() << " feasible\n";
    }

  private:
    std::size_t feasibleCount() const
    {
        const auto &rs = reference_.empty() ? results_ : reference_;
        std::size_t n = 0;
        for (const RunResult &r : rs)
            n += r.feasible;
        return n;
    }

    /** Per-point runCached reference, one PlanCache per engine kind. */
    void buildReference()
    {
        std::array<hilos::PlanCache, kKinds.size()> caches;
        reference_.assign(grid_.size(), RunResult{});
        reference_hash_.assign(grid_.size(), 0);
        std::vector<std::size_t> pos(grid_.size());
        for (std::size_t i = 0; i < grid_.size(); ++i)
            pos[order_[i]] = i;
        for (std::size_t c = 0; c < grid_.size(); ++c) {
            const std::size_t i = pos[c];  // canonical order
            const GridPoint &p = grid_[i];
            try {
                reference_[i] = hilos::makeEngine(p.kind, sys_, p.hilos)
                                    ->runCached(p.run,
                                                caches[kindIndex(p.kind)]);
                reference_hash_[i] = hashRunResult(reference_[i]);
            } catch (const std::exception &) {
                reference_hash_[i] = 0;  // no result hashes to 0
            }
        }
    }

    std::string problem(std::size_t i, const RunResult &r) const
    {
        const std::string where = "sweep point " + std::to_string(order_[i]);
        if (hashRunResult(r) != reference_hash_[i])
            return where + ": runGrid result differs from runCached";
        if (r.feasible) {
            if (!finitePositive(r.decode_step_time) ||
                !finitePositive(r.prefill_time) ||
                !finitePositive(r.total_time))
                return where + ": feasible with a non-positive step time";
        } else if (r.note.empty()) {
            return where + ": infeasible without a note";
        }
        return "";
    }

    hilos::SystemConfig sys_;
    std::vector<GridPoint> grid_;     ///< dispatch order
    std::vector<std::size_t> order_;  ///< canonical index of grid_[i]
    std::vector<RunResult> results_;  ///< last pass
    std::string error_;
    std::vector<RunResult> reference_;
    std::vector<std::uint64_t> reference_hash_;
    std::uint64_t digest_ = 0;
    std::uint64_t passes_ = 0;
    std::uint64_t layer_ops_ = 0;
    hilos::PlanCache::Stats cache_stats_;
};

}  // namespace

std::unique_ptr<Workload>
makeSweepWorkload()
{
    return std::make_unique<SweepWorkload>();
}

}  // namespace perfbench
