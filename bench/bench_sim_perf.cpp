/**
 * @file
 * Simulator hot-path microbench guarding the profile-driven fast path:
 *
 *  1. engine evaluation, cold vs warm — a fresh engine + run() per
 *     point (every plan built cold through a throwaway PlanCache)
 *     against one engine whose shared PlanCache rebuilds each plan's
 *     annotations in place;
 *  2. plan evaluation backends — analytic evaluatePlan and the
 *     event-driven simulatePlan over one HILOS decode plan, plus the
 *     HilosEventSimulator's slice-level decode step (fault-free and
 *     under a fault plan, and their ratio), the Prefill-phase plan's
 *     build/evaluate cost and the deterministic chunked-prefill
 *     overhead ratio (4 chunks vs monolithic);
 *  3. end-to-end sweep rate — cold (a fresh engine + run() per point)
 *     vs warm (runGrid, one engine and PlanCache per worker) on a
 *     Fig-10 style engine x batch x context grid, same binary.
 *
 * Deterministic workloads (fixed plans and grids); wall times
 * of course vary run to run, so the checked-in baseline is compared
 * with a wide relative tolerance (scripts/check_bench_regression.py).
 * Exits non-zero when the warm sweep speedup falls below
 * --min-speedup: the floor is the lowest ratio observed over repeated
 * runs at these settings, so a fall below it means the warm path lost
 * its plan reuse, not noise.
 *
 * Results land in BENCH_sim_perf.json via the shared bench-JSON writer.
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "bench_json.h"
#include "common/cli.h"
#include "common/table.h"
#include "core/hilos.h"
#include "runtime/event_sim.h"
#include "runtime/plan_cache.h"
#include "sim/fault.h"

using namespace hilos;

namespace {

void
check(bool ok, const std::string &what)
{
    if (!ok) {
        std::cerr << "FAILED: " << what << "\n";
        std::exit(1);
    }
}

/** Median-of-repeats wall time of fn(), in seconds. */
double
timeSeconds(const std::function<void()> &fn, int repeats)
{
    using SteadyClock = std::chrono::steady_clock;
    std::vector<double> samples;
    samples.reserve(static_cast<std::size_t>(repeats));
    for (int rep = 0; rep < repeats; rep++) {
        const auto t0 = SteadyClock::now();
        fn();
        const auto t1 = SteadyClock::now();
        samples.push_back(
            std::chrono::duration<double>(t1 - t0).count());
    }
    std::sort(samples.begin(), samples.end());
    return samples[samples.size() / 2];
}

/** Fig-10-style sweep grid: every baseline plus HILOS across batch x
 *  context, dominated (like the figure) by the storage baselines.
 *  Points are ordered engine-major — each engine sweeps its whole
 *  batch x context grid before the next, exactly how the figure is
 *  produced — which is the ordering runGrid's per-worker engine and
 *  PlanCache amortise. */
std::vector<GridPoint>
sweepGrid(const ModelConfig &model, std::size_t repeats)
{
    std::vector<GridPoint> grid;
    const std::uint64_t batches[] = {4, 8, 16, 32};
    const std::uint64_t contexts[] = {8192, 16384, 32768};
    for (const EngineKind kind :
         {EngineKind::FlexSsd, EngineKind::FlexSsd,
          EngineKind::FlexSmartSsdRaw, EngineKind::FlexDram,
          EngineKind::DeepSpeedUvm, EngineKind::VllmMultiGpu,
          EngineKind::Hilos}) {
        for (std::size_t rep = 0; rep < repeats; rep++) {
            for (const std::uint64_t batch : batches) {
                for (const std::uint64_t ctx : contexts) {
                    GridPoint p;
                    p.kind = kind;
                    p.run = RunConfig{model, batch, ctx, 64};
                    grid.push_back(p);
                }
            }
        }
    }
    return grid;
}

}  // namespace

int
main(int argc, char **argv)
{
    // This bench times the production hot path; the opt-in semantic
    // analyzer gate (HILOS_ANALYZE_PLANS, DESIGN.md section 15) adds a
    // per-applyPlan cost to both sweep arms that compresses the
    // warm-vs-cold ratio below its floor. Scrub it before
    // the first plan evaluation caches the flag.
    unsetenv("HILOS_ANALYZE_PLANS");
    ArgParser args("bench_sim_perf");
    args.addOption("grid-repeats", "3",
                   "repetitions of the base sweep grid");
    args.addOption("repeats", "5", "timing repeats (median taken)");
    args.addOption("min-speedup", "2.0",
                   "fail if the warm sweep speedup drops below this");
    args.addOption("json-dir", ".",
                   "where BENCH_sim_perf.json goes (empty = skip)");
    if (!args.parse(argc, argv) || args.helpRequested()) {
        std::cerr << args.usage();
        return args.helpRequested() ? 0 : 2;
    }
    const std::size_t grid_repeats = args.getCount("grid-repeats");
    const int repeats = static_cast<int>(args.getInt("repeats"));
    const double min_speedup = args.getDouble("min-speedup");
    if (!args.ok()) {
        std::cerr << "error: " << args.error() << "\n";
        return 2;
    }

    const SystemConfig sys = defaultSystem();
    const ModelConfig model = opt66b();
    const RunConfig headline{model, 16, 32768, 64};

    TextTable table({"case", "unit", "value"});
    bench::BenchJson json("sim_perf");
    json.meta("model", model.name)
        .meta("grid_repeats", static_cast<std::uint64_t>(grid_repeats));

    const auto report = [&](const std::string &name,
                            const std::string &unit, double value) {
        table.row().cell(name).cell(unit).num(value, 3);
        json.row().cell("case", name).cell("unit", unit).cell("value",
                                                              value);
    };

    // --- 1. engine evaluation: fresh engine + run() vs warm PlanCache ---
    const std::vector<std::uint64_t> batches = {4, 8, 16, 32};
    const int eval_iters = 20;
    const double cold_flex = timeSeconds(
        [&] {
            for (int i = 0; i < eval_iters; i++) {
                RunConfig cfg = headline;
                cfg.batch =
                    batches[static_cast<std::size_t>(i) % batches.size()];
                const auto engine =
                    makeEngine(EngineKind::FlexSsd, sys);
                const RunResult r = engine->run(cfg);
                check(r.feasible, "cold FLEX(SSD) point infeasible");
            }
        },
        repeats);
    PlanCache flex_cache;
    const auto flex_engine = makeEngine(EngineKind::FlexSsd, sys);
    flex_engine->runCached(headline, flex_cache);  // warm the cache
    const double warm_flex = timeSeconds(
        [&] {
            for (int i = 0; i < eval_iters; i++) {
                RunConfig cfg = headline;
                cfg.batch =
                    batches[static_cast<std::size_t>(i) % batches.size()];
                const RunResult r =
                    flex_engine->runCached(cfg, flex_cache);
                check(r.feasible, "warm FLEX(SSD) point infeasible");
            }
        },
        repeats);
    report("flex_ssd_cold", "us/point", 1e6 * cold_flex / eval_iters);
    report("flex_ssd_warm", "us/point", 1e6 * warm_flex / eval_iters);
    report("flex_ssd_warm_speedup", "x", cold_flex / warm_flex);

    PlanCache hilos_cache;
    const auto hilos_engine = makeEngine(EngineKind::Hilos, sys);
    hilos_engine->runCached(headline, hilos_cache);
    const double cold_hilos = timeSeconds(
        [&] {
            for (int i = 0; i < eval_iters; i++) {
                const auto engine = makeEngine(EngineKind::Hilos, sys);
                (void)engine->run(headline);
            }
        },
        repeats);
    const double warm_hilos = timeSeconds(
        [&] {
            for (int i = 0; i < eval_iters; i++)
                (void)hilos_engine->runCached(headline, hilos_cache);
        },
        repeats);
    report("hilos_cold", "us/point", 1e6 * cold_hilos / eval_iters);
    report("hilos_warm", "us/point", 1e6 * warm_hilos / eval_iters);

    // --- 2. plan evaluation backends over one HILOS decode plan ---
    const StepPlan plan =
        decodeStepPlanFor(EngineKind::Hilos, sys, headline);
    check(plan.feasible, "headline HILOS plan infeasible");
    const int eval_plan_iters = 200;
    double sink = 0.0;
    const double analytic = timeSeconds(
        [&] {
            for (int i = 0; i < eval_plan_iters; i++)
                sink += evaluatePlan(plan).decode_step_time;
        },
        repeats);
    const double event_sim = timeSeconds(
        [&] {
            for (int i = 0; i < eval_plan_iters; i++)
                sink += simulatePlan(plan).decode_step_time;
        },
        repeats);
    check(sink > 0.0, "plan evaluation produced zero time");
    report("evaluate_plan_analytic", "us/plan",
           1e6 * analytic / eval_plan_iters);
    report("simulate_plan_event", "us/plan",
           1e6 * event_sim / eval_plan_iters);

    // --- 2b. slice-level decode-step replay, fault-free and faulted ---
    // The fleet's cross-check path: one HilosEventSimulator step streams
    // 576 KV slices per layer over 64 layers at the headline config. The
    // faulted plan adds a failed device (its slices re-dispatched),
    // link/uplink derates and the seeded per-slice NAND/NVMe draws:
    // raw mt19937_64 words compared against integer thresholds, the
    // "no fault" outcome inline. event_sim_faulted_speed (fault-free
    // step / faulted step) guards what those draws cost: a ratio of two
    // steps timed in the same run, it carries over between machines
    // like the other unit-x rows.
    const HilosEventSimulator step_sim(sys, HilosOptions{});
    HilosOptions faulted_opts;
    faulted_opts.fault_plan =
        parseFaultPlan("seed=42;nand-err=1e-3;nvme-timeout=1e-4:2;"
                       "degrade@1.0=0.5:3;uplink@1.5=0.8;fail@2.0=6");
    const HilosEventSimulator faulted_sim(sys, faulted_opts);
    const int step_iters = 10;
    const double step = timeSeconds(
        [&] {
            for (int i = 0; i < step_iters; i++)
                sink += step_sim.simulateDecodeStep(headline)
                            .decode_step_time;
        },
        repeats);
    const double faulted_step = timeSeconds(
        [&] {
            for (int i = 0; i < step_iters; i++)
                sink += faulted_sim.simulateDecodeStep(headline, nullptr, 3.0)
                            .decode_step_time;
        },
        repeats);
    report("event_sim_decode_step", "us/step", 1e6 * step / step_iters);
    report("event_sim_decode_step_faulted", "us/step",
           1e6 * faulted_step / step_iters);
    report("event_sim_faulted_speed", "x", step / faulted_step);

    // --- 2c. Prefill-phase plans: build/evaluate cost + chunk ratio ---
    const double prefill_build = timeSeconds(
        [&] {
            for (int i = 0; i < eval_plan_iters; i++) {
                const StepPlan p =
                    prefillStepPlanFor(EngineKind::Hilos, sys, headline);
                sink += static_cast<double>(p.layer_ops.size());
            }
        },
        repeats);
    const StepPlan prefill_plan =
        prefillStepPlanFor(EngineKind::Hilos, sys, headline);
    check(prefill_plan.feasible, "headline HILOS prefill plan infeasible");
    const double prefill_eval = timeSeconds(
        [&] {
            for (int i = 0; i < eval_plan_iters; i++)
                sink += evaluatePlan(prefill_plan).decode_step_time;
        },
        repeats);
    report("prefill_plan_build", "us/plan",
           1e6 * prefill_build / eval_plan_iters);
    report("prefill_plan_evaluate", "us/plan",
           1e6 * prefill_eval / eval_plan_iters);
    // Deterministic model ratios: machine-portable, so enforced against
    // the baseline like the speedups. Chunking re-streams weights per
    // pass, so 4 chunks cost >= 1x the monolithic prefill.
    const Seconds mono_prefill =
        evaluatePlan(prefill_plan).decode_step_time;
    Seconds chunk4_sum = 0.0;
    for (std::uint64_t k = 0; k < 4; ++k)
        chunk4_sum += evaluatePlan(prefillStepPlanFor(
                                       EngineKind::Hilos, sys, headline,
                                       k, 4))
                          .decode_step_time;
    check(chunk4_sum >= mono_prefill,
          "chunked prefill cheaper than monolithic");
    report("prefill_chunk4_overhead", "x", chunk4_sum / mono_prefill);
    const RunResult headline_run =
        makeEngine(EngineKind::Hilos, sys)->run(headline);
    check(headline_run.feasible, "headline HILOS run infeasible");
    report("prefill_share_of_total", "x",
           headline_run.prefill_time / headline_run.total_time);

    // --- 3. end-to-end sweep: per-point cold runs vs runGrid ---
    const std::vector<GridPoint> grid = sweepGrid(model, grid_repeats);
    std::vector<RunResult> cold_results(grid.size());
    std::vector<RunResult> warm_results;
    const double sweep_cold = timeSeconds(
        [&] {
            for (std::size_t i = 0; i < grid.size(); i++)
                cold_results[i] = makeEngine(grid[i].kind, sys,
                                             grid[i].hilos)
                                      ->run(grid[i].run);
        },
        repeats);
    const double sweep_warm = timeSeconds(
        [&] { warm_results = runGrid(sys, grid, 1); }, repeats);
    check(cold_results.size() == warm_results.size(),
          "sweep result count mismatch");
    for (std::size_t i = 0; i < grid.size(); i++) {
        check(cold_results[i].decodeThroughput() ==
                  warm_results[i].decodeThroughput(),
              "warm sweep diverged from cold at point " +
                  std::to_string(i));
    }
    const double pts = static_cast<double>(grid.size());
    const double speedup = sweep_cold / sweep_warm;
    report("sweep_cold", "points/s", pts / sweep_cold);
    report("sweep_warm", "points/s", pts / sweep_warm);
    report("sweep_warm_speedup", "x", speedup);

    table.print(std::cout);
    std::cout << "sweep: " << grid.size() << " points, warm speedup "
              << bench::jsonNumber(speedup) << "x (floor "
              << bench::jsonNumber(min_speedup) << "x)\n";
    if (!args.get("json-dir").empty())
        json.write(args.get("json-dir"));
    check(speedup >= min_speedup,
          "warm sweep speedup below the floor");
    std::cout << "OK\n";
    return 0;
}
