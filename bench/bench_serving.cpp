/**
 * @file
 * Online serving saturation study (not a paper figure; the paper stops
 * at offline throughput). Sweeps Poisson arrival rate x admission
 * policy over one engine and reports the serving metrics that decide a
 * deployment: TTFT / end-to-end latency percentiles, goodput under an
 * SLO, and queue growth. Reading the sweep top to bottom shows the
 * saturation knee: below engine capacity the queue stays bounded and
 * goodput tracks the offered load; past it queue depth and tail
 * latency blow up while goodput flattens.
 *
 * Deterministic: every (rate, policy) point regenerates its arrival
 * stream from a fixed per-point seed, so the sweep is byte-identical
 * run-to-run and across --jobs. Results land in BENCH_serving.json via
 * the shared bench-JSON writer.
 */

#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_json.h"
#include "common/cli.h"
#include "common/table.h"
#include "core/hilos.h"
#include "sim/parallel.h"

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

struct SweepPoint {
    double rate = 0.0;
    ServingPolicy policy = ServingPolicy::Fcfs;
};

/** Arrival stream of one sweep point: seeded by the rate index so the
 *  same stream hits every policy at that rate. */
std::vector<Request>
pointStream(double rate, std::size_t rate_index, std::size_t count)
{
    PoissonStreamConfig pc;
    pc.arrival_rate = rate;
    pc.count = count;
    Rng rng(0x5e711 + 101 * static_cast<std::uint64_t>(rate_index));
    return makePoissonArrivals(pc, rng);
}

int
runBench(int argc, char **argv)
{
    ArgParser args("bench_serving");
    args.addOption("model", "OPT-66B", "model to serve");
    args.addOption("devices", "8", "SmartSSDs on the host");
    args.addOption("max-batch", "16", "scheduler cap on in-flight batch");
    args.addOption("requests", "48", "requests per sweep point");
    // Default SLO sits between the unloaded (~10 min) and saturated
    // (hours) end-to-end latency of the headline config, so the
    // attainment column actually separates the sweep points.
    args.addOption("slo-ms", "1800000",
                   "end-to-end latency SLO in ms (0 = no SLO)");
    args.addOption("rates", "0.002,0.01,0.05,0.25",
                   "comma-separated arrival rates (req/s)");
    args.addOption("json-dir", ".",
                   "where BENCH_serving.json goes (empty = skip)");
    args.addOption("jobs", "1",
                   "worker threads for the sweep (0 = all cores)");
    if (!args.parse(argc, argv) || args.helpRequested()) {
        std::cerr << args.usage();
        return args.helpRequested() ? 0 : 2;
    }
    const std::size_t requests = args.getCount("requests");
    const Seconds slo = msec(args.getDouble("slo-ms"));
    const unsigned jobs = static_cast<unsigned>(args.getCount("jobs"));
    HilosOptions opts;
    opts.num_devices = static_cast<unsigned>(args.getCount("devices"));
    const std::uint64_t max_batch = args.getCount("max-batch");
    if (!args.ok()) {
        std::cerr << "error: " << args.error() << "\n";
        return 2;
    }

    // Every token of the list must parse as a number in full.
    std::vector<std::string> diags;
    std::vector<double> rates;
    std::stringstream rate_list(args.get("rates"));
    std::string tok;
    while (std::getline(rate_list, tok, ',')) {
        if (tok.empty())
            continue;
        char *end = nullptr;
        const double rate = std::strtod(tok.c_str(), &end);
        if (end != tok.c_str() + tok.size())
            diags.push_back("rates: '" + tok + "' is not a number");
        else
            rates.push_back(rate);
    }
    if (rates.empty() && diags.empty())
        diags.push_back("rates: at least one arrival rate is required");

    ServingConfig base;
    base.model = modelByName(args.get("model"));
    base.max_batch = max_batch;
    base.slo = slo;
    for (const std::string &d : opts.validate())
        diags.push_back(d);
    for (const std::string &d : base.validate())
        diags.push_back(d);
    if (requests == 0)
        diags.push_back("requests 0 must be >= 1");
    for (double r : rates) {
        PoissonStreamConfig pc;
        pc.arrival_rate = r;
        for (const std::string &d : pc.validate())
            diags.push_back(d);
    }
    for (const std::string &d : diags)
        std::cerr << "error: " << d << "\n";
    if (!diags.empty())
        return 2;

    SystemConfig sys = defaultSystem();
    const HilosEngine engine(sys, opts);

    const ServingPolicy policies[] = {
        ServingPolicy::Fcfs, ServingPolicy::Sjf, ServingPolicy::SloAware};
    std::vector<SweepPoint> points;
    for (double r : rates)
        for (ServingPolicy p : policies)
            points.push_back(SweepPoint{r, p});

    SweepDriver driver(jobs);
    const std::vector<ServingResult> sweep =
        driver.map(points, [&](const SweepPoint &pt) {
            std::size_t rate_index = 0;
            while (rates[rate_index] != pt.rate)
                rate_index++;
            ServingConfig cfg = base;
            cfg.policy = pt.policy;
            const ServingSimulator sim(engine, cfg);
            return sim.run(
                pointStream(pt.rate, rate_index, requests));
        });

    printBanner(std::cout,
                "serving saturation (" + args.get("model") + ", " +
                    std::to_string(requests) + " req/point, batch cap " +
                    std::to_string(base.max_batch) + ", SLO " +
                    std::to_string(static_cast<long long>(
                        static_cast<double>(slo))) +
                    " s)");

    bench::BenchJson json("serving");
    json.meta("model", args.get("model"))
        .meta("devices", std::uint64_t{opts.num_devices})
        .meta("max_batch", base.max_batch)
        .meta("requests", std::uint64_t{requests})
        .meta("slo_s", double(slo));

    TextTable table({"rate req/s", "policy", "ttft p50 s", "ttft p99 s",
                     "e2e p99 s", "goodput r/s", "slo att",
                     "peak queue"});
    for (std::size_t i = 0; i < points.size(); ++i) {
        const ServingResult &r = sweep[i];
        const std::string policy = servingPolicyName(points[i].policy);
        check(r.feasible, "sweep point must be feasible: " + r.note);
        table.row()
            .num(points[i].rate, 3)
            .cell(policy)
            .num(r.ttft_p50, 2)
            .num(r.ttft_p99, 2)
            .num(r.latency_p99, 2)
            .num(r.goodput_rps, 4)
            .num(r.slo_attainment, 3)
            .num(static_cast<double>(r.peak_queue_depth), 0);
        json.row()
            .cell("rate", points[i].rate)
            .cell("policy", policy)
            .cell("ttft_p50_s", double(r.ttft_p50))
            .cell("ttft_p99_s", double(r.ttft_p99))
            .cell("ttft_p999_s", double(r.ttft_p999))
            .cell("latency_p50_s", double(r.latency_p50))
            .cell("latency_p99_s", double(r.latency_p99))
            .cell("latency_p999_s", double(r.latency_p999))
            .cell("goodput_rps", r.goodput_rps)
            .cell("slo_attainment", r.slo_attainment)
            .cell("tokens_per_s", r.tokens_per_second)
            .cell("mean_in_flight", r.mean_in_flight)
            .cell("peak_in_flight", r.peak_in_flight)
            .cell("mean_queue_depth", r.mean_queue_depth)
            .cell("peak_queue_depth", r.peak_queue_depth)
            .cell("makespan_s", double(r.makespan));
    }
    table.print(std::cout);

    // Saturation is visible in the sweep itself: the highest rate must
    // queue at least as deep as the lowest (same stream length, less
    // inter-arrival slack). FCFS rows only — policies reorder waits.
    double low_depth = -1.0, high_depth = -1.0;
    for (std::size_t i = 0; i < points.size(); ++i) {
        if (points[i].policy != ServingPolicy::Fcfs)
            continue;
        if (points[i].rate == rates.front())
            low_depth = sweep[i].mean_queue_depth;
        if (points[i].rate == rates.back())
            high_depth = sweep[i].mean_queue_depth;
    }
    check(high_depth >= low_depth,
          "queue depth must not shrink as offered load grows");

    // --- chunked prefill at saturation ---------------------------------
    // At the highest rate the decode flight is always populated, so a
    // monolithic prefill stalls every in-flight request for the whole
    // prompt. Splitting prefill into chunks lets decode steps run at
    // priority between chunks (counted as preemptions), which shortens
    // the TTFT tail for everyone waiting behind a long prompt.
    //
    // The comparison runs on the multi-GPU baseline, where decode steps
    // and serving-length chunks are both short, so the interleave is
    // nearly free and the decode-side relief wins. On HILOS a
    // long-context chunk dwarfs the decode step, and every mid-prefill
    // turn (costed at the slower of the two) slows the in-flight token
    // cadence to chunk granularity — that is why the headline sweep
    // above keeps prefill_chunks = 1 (see DESIGN.md section 14).
    {
        const std::size_t rate_index = rates.size() - 1;
        const std::vector<Request> stream =
            pointStream(rates.back(), rate_index, requests);
        const auto vllm = makeEngine(EngineKind::VllmMultiGpu, sys);
        ServingConfig mono_cfg = base;
        mono_cfg.policy = ServingPolicy::Fcfs;
        const ServingResult mono =
            ServingSimulator(*vllm, mono_cfg).run(stream);
        ServingConfig chunk_cfg = mono_cfg;
        chunk_cfg.prefill_chunks = 4;
        const ServingResult chunked =
            ServingSimulator(*vllm, chunk_cfg).run(stream);
        check(mono.feasible && chunked.feasible,
              "chunked-prefill comparison point infeasible");
        check(chunked.prefill_preemptions > 0,
              "saturated chunked run must preempt prefill with decode");

        printBanner(std::cout,
                    "chunked prefill at saturation (rate " +
                        std::to_string(rates.back()) + " req/s, FCFS)");
        TextTable chunk_table({"prefill chunks", "ttft p50 s",
                               "ttft p99 s", "e2e p99 s", "preemptions",
                               "makespan s"});
        const auto chunk_row = [&](const std::string &label,
                                   const ServingResult &r) {
            chunk_table.row()
                .cell(label)
                .num(r.ttft_p50, 2)
                .num(r.ttft_p99, 2)
                .num(r.latency_p99, 2)
                .num(static_cast<double>(r.prefill_preemptions), 0)
                .num(r.makespan, 2);
            json.row()
                .cell("rate", rates.back())
                .cell("policy", "fcfs/chunks=" + label)
                .cell("ttft_p50_s", double(r.ttft_p50))
                .cell("ttft_p99_s", double(r.ttft_p99))
                .cell("latency_p99_s", double(r.latency_p99))
                .cell("prefill_chunks_run", r.prefill_chunks_run)
                .cell("prefill_preemptions", r.prefill_preemptions)
                .cell("makespan_s", double(r.makespan));
        };
        chunk_row("1", mono);
        chunk_row("4", chunked);
        chunk_table.print(std::cout);
        check(chunked.ttft_p99 <= mono.ttft_p99,
              "chunked prefill must not worsen the p99 TTFT at "
              "saturation");
    }

    if (!args.get("json-dir").empty())
        json.write(args.get("json-dir"));
    return 0;
}

}  // namespace

int
main(int argc, char **argv)
{
    // HILOS_FATAL throws on names the parser cannot check (an unknown
    // --model): a usage error reported as one line, not an abort.
    try {
        return runBench(argc, argv);
    } catch (const std::exception &e) {
        std::cerr << "error: " << e.what() << "\n";
        return 2;
    }
}
