#include "harness.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <exception>
#include <fstream>
#include <iostream>
#include <sstream>

namespace perfbench {

namespace {

/** Set-ups per run; `setup_s` is their median. */
constexpr int kSetups = 15;
/** Minimum timed length of one window (and of the warm-up window). */
constexpr double kWindowSeconds = 0.5;
/** Share of `--seconds` a traced run spends in untraced windows; the
 *  rest is traced, so a traced run measures `--seconds` in all. */
constexpr double kTracedRunUntracedShare = 0.5;
/**
 * Iterations per second of the reference kernel on an idle core of the
 * 4-vCPU 2.1 GHz Xeon VM that perfbench/README.md's numbers come from.
 * It only fixes the unit of the reference-speed metrics.
 */
constexpr double kReferenceRate = 1.5e9;
/** Iterations of one reference-kernel run (about 15-30 ms). */
constexpr std::uint64_t kReferenceIterations = 20000000;
/** Passes every window loop runs at least, so repeat checks see two. */
constexpr int kMinPasses = 2;

struct MetricDef {
    std::string name;
    std::string unit;
};

/** Must match `end_to_end` in BENCHMARK.json. */
const MetricDef kEndToEnd[] = {
    {"ops_per_s", "op/s"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},
};

/** Layers that get the generic spans/busy/self trio. */
constexpr const char *kSpanLayers[] = {
    "core",  "sim.parallel", "engine",           "step_plan", "event_sim",
    "serving", "serving_workload", "fleet", "fault",
};

/** Must match `per_layer` in BENCHMARK.json (after the generic trio). */
const MetricDef kPerLayer[] = {
    {"core.run_grid.us_per_point", "us"},
    {"engine.make.us_p50", "us"},
    {"engine.run.us_p50", "us"},
    {"engine.run.us_p99", "us"},
    {"engine.run.n", "count"},
    {"engine.run.flex_dram.us_p50", "us"},
    {"engine.run.flex_ssd.us_p50", "us"},
    {"engine.run.flex_16p3.us_p50", "us"},
    {"engine.run.ds_uvm.us_p50", "us"},
    {"engine.run.vllm.us_p50", "us"},
    {"engine.run.hilos.us_p50", "us"},
    {"engine.run_cached.us_p50", "us"},
    {"engine.run_cached.us_p99", "us"},
    {"engine.run_cached.n", "count"},
    {"plan_cache.hits", "count"},
    {"plan_cache.misses", "count"},
    {"plan_cache.mismatches", "count"},
    {"plan_cache.hit_ratio", "ratio"},
    {"step_plan.build_decode.us_p50", "us"},
    {"step_plan.build_decode.us_p99", "us"},
    {"step_plan.build_decode.n", "count"},
    {"step_plan.build_prefill.us_p50", "us"},
    {"step_plan.build_prefill.us_p99", "us"},
    {"step_plan.build_prefill.n", "count"},
    {"step_plan.evaluate.us_p50", "us"},
    {"step_plan.evaluate.us_p99", "us"},
    {"step_plan.evaluate.n", "count"},
    {"step_plan.evaluate.ns_per_layer_op", "ns"},
    {"step_plan.layer_ops", "count"},
    {"sweep.feasible_share", "ratio"},
    {"event_sim.simulate_plan.us_p50", "us"},
    {"event_sim.simulate_plan.us_p99", "us"},
    {"event_sim.simulate_plan.n", "count"},
    {"serving_workload.arrivals.ms", "ms"},
    {"serving.run.s", "s"},
    {"serving.us_per_decode_step", "us"},
    {"serving.us_per_request", "us"},
    {"serving.decode_steps", "count"},
    {"serving.prefill_batches", "count"},
    {"serving.mean_queue_depth", "count"},
    {"serving.peak_queue_depth", "count"},
    {"serving.cost_cache.hits", "count"},
    {"serving.cost_cache.misses", "count"},
    {"serving.cost_cache.hit_ratio", "ratio"},
    {"fault.parse.us", "us"},
    {"fleet.make.us", "us"},
    {"fleet.run.us_p50", "us"},
    {"fleet.run.us_p95", "us"},
    {"fleet.run.n", "count"},
    {"fleet.sim_decode_step.ms_p50", "ms"},
    {"fleet.sim_decode_step.ms_p95", "ms"},
    {"fleet.sim_decode_step.n", "count"},
    {"fleet.epochs", "count"},
    {"fleet.hosts_failed", "count"},
    {"fleet.rebuild_gib", "GiB"},
    {"trace.overhead_pct", "%"},
};

/**
 * Peak resident set of this process image (VmHWM). getrusage's
 * ru_maxrss is not used: Linux carries it across fork and exec, so it
 * would report the launching process's peak when that one is larger.
 */
double
peakRssMib()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;  // kB
    return 0.0;
}

double
seconds(std::int64_t ns)
{
    return static_cast<double>(ns) / 1e9;
}

/**
 * The host's speed for this thread right now, as a share of
 * kReferenceRate. The kernel is four independent add/xor chains, which
 * is throughput-bound like the simulator: when another tenant of a
 * shared host contends for the core, both slow down together. A
 * latency-bound chain would not see that contention.
 */
double
machineSpeed()
{
    std::uint64_t a = 0, b = 0, c = 0, d = 0;
    const std::int64_t t0 = nowNs();
    for (std::uint64_t i = 0; i < kReferenceIterations; ++i) {
        a += i;
        b ^= i;
        c += i >> 1;
        d ^= i << 1;
        // Keeps the four chains live and stops the loop being folded.
        __asm__ volatile("" : "+r"(a), "+r"(b), "+r"(c), "+r"(d));
    }
    const double s = seconds(nowNs() - t0);
    return static_cast<double>(kReferenceIterations) / s / kReferenceRate;
}

struct WindowResult {
    /** Median over windows of a window's ops per timed second at
     *  reference speed: its host rate divided by the machine speed
     *  measured either side of it. */
    double rate = 0.0;
    std::vector<double> rates;       ///< per window, reference speed
    std::vector<double> host_rates;  ///< per window, host time
    std::vector<double> speeds;      ///< machine speed per window
    std::uint64_t ops = 0;
    double timed_s = 0.0;
};

/**
 * One discarded window of passes before any timing, so allocator,
 * cache and branch-predictor state from set-up has settled. Its
 * outputs are checked like any other pass's.
 */
void
warmUp(Workload &w, Checks &checks)
{
    const std::int64_t t0 = nowNs();
    do {
        (void)w.pass(nullptr);
        w.check(checks);
    } while (seconds(nowNs() - t0) < kWindowSeconds);
}

/**
 * Closed-loop windows: passes back to back until `budget_s` of timed
 * work and `min_ops` ops are done. Each pass's outputs are checked
 * after its clock stops. Each window is scaled by the machine speed
 * measured either side of it, so a phase of contention from other
 * tenants of a shared host cancels out; the median window drops the
 * bursts shorter than a window.
 */
WindowResult
runWindows(Workload &w, Tracer *tracer, double budget_s,
           std::uint64_t min_ops, Checks &checks)
{
    WindowResult res;
    const std::int64_t wall_start = nowNs();
    const double wall_cap = 3.0 * budget_s + 30.0;
    int passes = 0;
    double speed_before = machineSpeed();
    while (res.timed_s < budget_s || res.ops < min_ops ||
           passes < kMinPasses) {
        std::uint64_t window_ops = 0;
        std::int64_t window_ns = 0;
        while (seconds(window_ns) < kWindowSeconds) {
            const std::int64_t t0 = nowNs();
            const std::uint64_t ops = w.pass(tracer);
            window_ns += nowNs() - t0;
            window_ops += ops;
            passes++;
            w.check(checks);
        }
        const double speed_after = machineSpeed();
        const double speed = 0.5 * (speed_before + speed_after);
        speed_before = speed_after;
        const double host_rate =
            static_cast<double>(window_ops) / seconds(window_ns);
        res.host_rates.push_back(host_rate);
        res.rates.push_back(host_rate / speed);
        res.speeds.push_back(speed);
        res.ops += window_ops;
        res.timed_s += seconds(window_ns);
        if (seconds(nowNs() - wall_start) > wall_cap)
            break;
    }
    res.rate = median(res.rates);
    return res;
}

void
printJsonNumber(std::ostream &os, double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
    os << buf;
}

void
printResultLine(const Checks &checks, const std::vector<MetricDef> &defs,
                const LayerValues &values)
{
    std::ostringstream os;
    os << "{\"correct\": " << (checks.correct() ? "true" : "false")
       << ", \"attempted\": " << std::max<std::uint64_t>(1, checks.attempted())
       << ", \"failed\": " << checks.failed() << ", \"metrics\": {";
    for (std::size_t i = 0; i < defs.size(); ++i) {
        const auto it = values.find(defs[i].name);
        os << (i ? ", " : "") << "\"" << defs[i].name << "\": {\"value\": ";
        printJsonNumber(os, it == values.end() ? 0.0 : it->second);
        os << ", \"unit\": \"" << defs[i].unit << "\"}";
    }
    os << "}}";
    std::cout << os.str() << std::endl;
}

void
printSpanTable(const char *title, const std::vector<SpanSummary> &rows)
{
    std::printf("%s\n  %-34s %8s %12s %12s %11s %18s\n", title, "span",
                "count", "busy ms", "self ms", "p50 us", "tail us (pct)");
    for (const SpanSummary &r : rows) {
        char tail[48] = "-";
        if (r.tail_pct > 0.0)
            std::snprintf(tail, sizeof tail, "%.1f (p%g)", r.tail_us,
                          r.tail_pct);
        std::printf("  %-34s %8" PRIu64 " %12.3f %12.3f %11.2f %18s\n",
                    r.key.c_str(), r.count, r.busy_us / 1e3, r.self_us / 1e3,
                    r.p50_us, tail);
    }
}

}  // namespace

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::uint64_t
splitmix64(std::uint64_t &state)
{
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

void
putLatency(std::vector<double> us, const std::string &prefix,
           const std::string &unit, double scale, int tail, LayerValues &out)
{
    if (us.empty())
        return;
    out[prefix + ".n"] = static_cast<double>(us.size());
    out[prefix + "." + unit + "_p50"] = percentile(us, 50.0) * scale;
    out[prefix + "." + unit + "_p" + std::to_string(tail)] =
        percentile(us, tail) * scale;
}

std::uint64_t
hashRunResult(const hilos::RunResult &r)
{
    Fnv1a h;
    h.u64(r.feasible).str(r.note).u64(r.effective_batch);
    h.f64(r.prefill_time).f64(r.decode_step_time).f64(r.total_time);
    for (const auto &[name, t] : r.breakdown.stages())
        h.str(name).f64(t);
    const auto &tr = r.traffic;
    h.f64(tr.host_read_bytes).f64(tr.host_write_bytes);
    h.f64(tr.attn_host_read_bytes).f64(tr.attn_host_write_bytes);
    h.f64(tr.internal_bytes).f64(tr.storage_write_bytes);
    h.f64(r.busy.gpu).f64(r.busy.cpu).f64(r.busy.dram);
    h.f64(r.busy.storage).f64(r.busy.fpga);
    h.f64(r.energy.gpu).f64(r.energy.cpu).f64(r.energy.dram);
    h.f64(r.energy.storage).f64(r.fpga_power_watts);
    const auto &f = r.faults;
    h.u64(f.nand_read_errors).u64(f.nand_retry_steps).u64(f.nvme_timeouts);
    h.u64(f.nvme_retries).u64(f.redispatched_slices);
    h.u64(f.requests_degraded).u64(f.requests_failed);
    h.u64(f.devices_failed).u64(f.devices_surviving);
    h.f64(f.retry_time).f64(f.rebuild_time).f64(f.degraded_step_time);
    h.f64(f.availability).f64(f.slowdown);
    const auto &fl = r.fleet;
    h.u64(fl.hosts).u64(fl.devices_per_host).str(fl.policy);
    h.u64(fl.hosts_failed).u64(fl.host_stalls).u64(fl.spares_activated);
    h.f64(fl.rebuild_bytes).f64(fl.rebuild_time).f64(fl.stall_time);
    h.f64(fl.availability).f64(fl.degraded_step_time).f64(fl.slowdown);
    for (const auto &e : fl.epochs) {
        h.f64(e.start).u64(e.hosts_serving).u64(e.hosts_stalled);
        h.u64(e.hosts_failed).u64(e.placed_batch).f64(e.step_time);
        h.u64(e.tokens);
    }
    return h.value();
}

bool
finitePositive(double v)
{
    return std::isfinite(v) && v > 0.0;
}

void
Checks::note(const std::string &what)
{
    if (messages_.size() < 8)
        messages_.push_back(what);
}

void
Checks::fail(std::uint64_t n, const std::string &why)
{
    failed_ += n;
    note(why);
}

void
Checks::require(bool ok, const std::string &what)
{
    if (ok)
        return;
    problems_++;
    note(what);
}

int
runBenchmark(Workload &w, const Options &opts)
{
    Checks checks;
    Tracer tracer(opts.trace);
    Tracer *traced = opts.trace ? &tracer : nullptr;

    // 1. Set-up, repeated; the windows use the last one's state. Each
    // set-up's host seconds are scaled to reference speed by the machine
    // speed measured either side of it.
    std::vector<double> setup_times, setup_host_times;
    double speed_before = machineSpeed();
    for (int i = 0; i < kSetups; ++i) {
        const std::int64_t t0 = nowNs();
        try {
            w.setup(opts.seed, traced);
        } catch (const std::exception &e) {
            checks.require(false, std::string("set-up threw: ") + e.what());
            break;
        }
        const double host_s = seconds(nowNs() - t0);
        const double speed_after = machineSpeed();
        setup_host_times.push_back(host_s);
        setup_times.push_back(host_s * 0.5 * (speed_before + speed_after));
        speed_before = speed_after;
    }

    WindowResult untraced, traced_run;
    if (checks.correct()) {
        // 2. Timed windows, tracing off: the end-to-end numbers.
        warmUp(w, checks);
        const double untraced_s =
            opts.trace ? kTracedRunUntracedShare * opts.seconds
                       : opts.seconds;
        untraced = runWindows(w, nullptr, untraced_s, 0, checks);
        // 3. Traced windows and the per-layer pass.
        if (opts.trace) {
            traced_run = runWindows(w, traced, opts.seconds - untraced_s,
                                    w.minTracedOps(), checks);
            try {
                w.layerPass(tracer, checks);
            } catch (const std::exception &e) {
                checks.require(false,
                               std::string("layer pass threw: ") + e.what());
            }
        }
        w.selfCheck(checks);
    }

    const double rss = peakRssMib();
    const double failed_share =
        checks.attempted()
            ? static_cast<double>(checks.failed()) /
                  static_cast<double>(checks.attempted())
            : 1.0;

    std::printf("perfbench workload=%s seed=%" PRIu64 " seconds=%g trace=%d\n",
                opts.workload.c_str(), opts.seed, opts.seconds,
                opts.trace ? 1 : 0);
    std::printf("end-to-end (host time at reference speed, tracing off):\n");
    std::printf("  %-18s %14.6g op/s  (median of %zu windows; %" PRIu64
                " ops in %.2f s)\n",
                "ops_per_s", untraced.rate, untraced.rates.size(),
                untraced.ops, untraced.timed_s);
    if (!untraced.rates.empty()) {
        std::vector<double> r = untraced.rates;
        std::printf("  %-18s op/s per window: min %.6g, p25 %.6g, p50 %.6g, "
                    "p75 %.6g, max %.6g\n",
                    "", percentile(r, 0.0), percentile(r, 25.0),
                    percentile(r, 50.0), percentile(r, 75.0),
                    percentile(r, 100.0));
        std::printf("  %-18s host op/s, median window %.6g; machine speed "
                    "min %.3f, median %.3f, max %.3f\n",
                    "", median(untraced.host_rates),
                    percentile(untraced.speeds, 0.0), median(untraced.speeds),
                    percentile(untraced.speeds, 100.0));
    }
    std::printf("  %-18s %14.6g s     (median of %zu set-ups; host %.6g s)\n",
                "setup_s", median(setup_times), setup_times.size(),
                median(setup_host_times));
    std::printf("  %-18s %14.6g MiB\n", "peak_rss_mb", rss);
    std::printf("  %-18s %14.6g ratio (%" PRIu64 " of %" PRIu64
                " ops failed)\n",
                "ops_failed_share", failed_share, checks.failed(),
                checks.attempted());
    std::printf("sim_digest %s %016" PRIx64 "\n", opts.workload.c_str(),
                w.digest());
    w.report(std::cout);
    for (const std::string &m : checks.messages())
        std::printf("CHECK FAILED: %s\n", m.c_str());

    LayerValues values;
    std::vector<MetricDef> defs;
    if (!opts.trace) {
        values["ops_per_s"] = untraced.rate;
        values["setup_s"] = median(setup_times);
        values["peak_rss_mb"] = rss;
        defs.assign(std::begin(kEndToEnd), std::end(kEndToEnd));
    } else {
        const std::vector<SpanSummary> by_name = tracer.summarize(false);
        const std::vector<SpanSummary> by_layer = tracer.summarize(true);
        printSpanTable("per-call spans (traced run):", by_name);
        printSpanTable("per-layer spans (traced run):", by_layer);
        for (const SpanSummary &r : by_layer) {
            values[r.key + ".spans"] = static_cast<double>(r.count);
            values[r.key + ".busy_ms"] = r.busy_us / 1e3;
            values[r.key + ".self_ms"] = r.self_us / 1e3;
        }
        w.layerMetrics(tracer, values);
        if (untraced.rate > 0.0)
            values["trace.overhead_pct"] =
                100.0 * (untraced.rate - traced_run.rate) /
                untraced.rate;
        std::printf("traced ops_per_s %.6g (%zu windows)\n",
                    traced_run.rate, traced_run.rates.size());

        for (const char *layer : kSpanLayers) {
            defs.push_back({std::string(layer) + ".spans", "count"});
            defs.push_back({std::string(layer) + ".busy_ms", "ms"});
            defs.push_back({std::string(layer) + ".self_ms", "ms"});
        }
        defs.insert(defs.end(), std::begin(kPerLayer), std::end(kPerLayer));

        std::printf("per-layer metrics:\n");
        for (const MetricDef &d : defs) {
            const auto it = values.find(d.name);
            std::printf("  %-40s %14.6g %s%s\n", d.name.c_str(),
                        it == values.end() ? 0.0 : it->second, d.unit.c_str(),
                        it == values.end() ? "  (layer not run)" : "");
        }
        if (!opts.trace_out.empty()) {
            std::ofstream out(opts.trace_out);
            tracer.writeChromeTrace(out);
            std::printf("trace: %zu spans written to %s\n", tracer.size(),
                        opts.trace_out.c_str());
        }
    }
    printResultLine(checks, defs, values);
    return checks.correct() ? 0 : 1;
}

}  // namespace perfbench
