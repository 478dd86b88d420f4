/**
 * @file
 * Golden snapshots of the user-visible result surfaces: an analytic
 * HILOS run (fault-free and faulted), an event-sim decode step with its
 * trace summary, and the markdown evaluation report. Any behavioural
 * change to the models shows up as a unified diff against the
 * checked-in files under tests/golden/; intentional changes are
 * re-recorded with HILOS_UPDATE_GOLDENS=1.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <utility>

#include "runtime/batcher.h"
#include "runtime/deepspeed_uvm.h"
#include "runtime/event_sim.h"
#include "runtime/fleet_engine.h"
#include "runtime/flexgen.h"
#include "runtime/hilos_engine.h"
#include "runtime/report.h"
#include "runtime/serving.h"
#include "runtime/serving_workload.h"
#include "runtime/step_plan.h"
#include "runtime/vllm_multigpu.h"
#include "runtime/system_config.h"
#include "sim/fault.h"
#include "sim/trace.h"
#include "support/golden.h"
#include "support/serialize.h"

namespace hilos {
namespace test {
namespace {

RunConfig
headlineRun()
{
    RunConfig run;
    run.model = modelByName("OPT-66B");
    run.batch = 16;
    run.context_len = 32768;
    run.output_len = 64;
    return run;
}

void
expectGolden(const std::string &name, const std::string &actual)
{
    const GoldenOutcome out = compareGolden(name, actual);
    EXPECT_TRUE(out.ok) << out.message;
}

TEST(GoldenSnapshots, HilosEngineHeadlineRun)
{
    const HilosEngine engine(defaultSystem(), HilosOptions{});
    expectGolden("engine_run_opt66b.txt",
                 serialize(engine.run(headlineRun())));
}

TEST(GoldenSnapshots, HilosEngineFaultedRun)
{
    // The degraded-mode path: one device failure mid-run plus
    // probabilistic NAND errors. Pins the whole FaultSummary.
    HilosOptions opts;
    opts.fault_plan =
        parseFaultPlan("seed=7;nand-err=1e-3;fail@2.5=3;uplink@4.0=0.8");
    const HilosEngine engine(defaultSystem(), opts);
    expectGolden("engine_run_opt66b_faulted.txt",
                 serialize(engine.run(headlineRun())));
}

TEST(GoldenSnapshots, FleetRunWithNodeLoss)
{
    // The fleet surface end to end: a 4-host fleet losing host 1
    // mid-decode, with a transient stall and a degraded inter-host
    // link in the same plan. Pins FleetSummary (epochs, rebuild
    // accounting, availability) and the fleet-scope FaultSummary.
    FleetConfig fleet;
    fleet.hosts = 4;
    fleet.devices_per_host = 8;
    fleet.fault_plan = parseFaultPlan(
        "seed=7;host-fail@400=1;host-stall@350=0.02:2;"
        "host-degrade@300=0.8");
    const FleetEngine engine(defaultSystem(), fleet);
    expectGolden("fleet_run_opt66b.txt",
                 serialize(engine.run(headlineRun())));
}

TEST(GoldenSnapshots, EventSimDecodeStep)
{
    const HilosEventSimulator sim(defaultSystem(), HilosOptions{});
    expectGolden("event_sim_step_opt66b.txt",
                 serialize(sim.simulateDecodeStep(headlineRun())));
}

TEST(GoldenSnapshots, EventSimTraceSummary)
{
    const HilosEventSimulator sim(defaultSystem(), HilosOptions{});
    TraceRecorder trace;
    RunConfig run = headlineRun();
    run.batch = 4;  // keep the trace (and its summary) small
    run.context_len = 8192;
    (void)sim.simulateDecodeStep(run, &trace);
    expectGolden("event_sim_trace_opt66b.txt", traceSummary(trace));
}

/** Every EventSimResult field and layer time as an exact hex float. */
std::string
hexBits(const EventSimResult &r)
{
    std::string out;
    const auto line = [&out](const std::string &key, const char *fmt,
                             auto value) {
        char buf[96];
        std::snprintf(buf, sizeof buf, fmt, value);
        out += key + " = " + buf + "\n";
    };
    line("decode_step_time", "%a", r.decode_step_time.value());
    line("uplink_utilization", "%a", r.uplink_utilization);
    line("gds_utilization", "%a", r.gds_utilization);
    line("internal_utilization", "%a", r.internal_utilization);
    line("gpu_utilization", "%a", r.gpu_utilization);
    line("mean_layer_time", "%a", r.mean_layer_time.value());
    line("completed", "%d", static_cast<int>(r.completed));
    line("note", "%s", r.note.empty() ? "<none>" : r.note.c_str());
    line("devices_failed", "%u", r.devices_failed);
    line("redispatched_slices", "%llu",
         static_cast<unsigned long long>(r.redispatched_slices));
    line("nand_read_errors", "%llu",
         static_cast<unsigned long long>(r.nand_read_errors));
    line("nvme_timeouts", "%llu",
         static_cast<unsigned long long>(r.nvme_timeouts));
    line("nvme_retries", "%llu",
         static_cast<unsigned long long>(r.nvme_retries));
    line("retry_time", "%a", r.retry_time.value());
    for (std::size_t i = 0; i < r.layer_times.size(); i++)
        line("layer_times[" + std::to_string(i) + "]", "%a",
             r.layer_times[i].value());
    return out;
}

TEST(GoldenSnapshots, EventSimDecodeStepBits)
{
    // The exact bits of a decode-step replay, fault-free and under each
    // fault mechanism the slice loop prices: NAND/NVMe penalties with
    // exhausted commands re-dispatched to the next survivor, a failed
    // device plus a link derate, and every device-scope clause at once.
    // A traced replay must return the same bits as an untraced one.
    struct Case {
        const char *name;
        FaultPlan plan;
        Seconds start;
    };
    FaultPlan derated;
    derated.addDeviceFailure(0.0, 2).addLinkDegrade(0.0, 0.5, 5);
    const Case cases[] = {
        {"fault-free", FaultPlan{}, 0.0},
        {"nand+nvme exhaustion",
         FaultPlan{}.addNandReadError(5e-2).addNvmeTimeout(0.5), 0.0},
        {"failed device + link derate", derated, 0.0},
        {"kitchen sink",
         parseFaultPlan("seed=42;nand-err=1e-3;nvme-timeout=1e-4:2;"
                        "degrade@1.0=0.5:3;uplink@1.5=0.8;fail@2.0=6"),
         3.0},
        {"every read errs, every command exhausted",
         parseFaultPlan("nand-err=1;nvme-timeout=1"), 0.0},
    };
    std::string out;
    for (const Case &c : cases) {
        HilosOptions opts;
        opts.fault_plan = c.plan;
        const HilosEventSimulator sim(defaultSystem(), opts);
        const std::string bits = hexBits(
            sim.simulateDecodeStep(headlineRun(), nullptr, c.start));
        TraceRecorder trace;
        EXPECT_EQ(bits, hexBits(sim.simulateDecodeStep(headlineRun(),
                                                       &trace, c.start)))
            << c.name;
        out += std::string("[") + c.name + "]\n" + bits;
    }
    expectGolden("event_sim_step_bits_opt66b.txt", out);
}

TEST(GoldenSnapshots, StepPlanAllEnginesOpt66b)
{
    // The canonical StepPlan each engine emits for the headline
    // configuration: any change to op pricing, DAG shape, annotations
    // or the energy spec diffs here, localised to the op that moved.
    const SystemConfig sys = defaultSystem();
    const RunConfig run = headlineRun();
    const HilosEngine hilos(sys, HilosOptions{});
    const FlexGenEngine flex_dram(sys, FlexTier::HostDram);
    const FlexGenEngine flex_ssd(sys, FlexTier::BaselineSsds);
    const DeepSpeedUvmEngine uvm(sys);
    const VllmMultiGpuEngine vllm(sys, VllmClusterConfig{});
    const std::pair<const char *, const StepPlanSource *> engines[] = {
        {"HILOS", &hilos},          {"FlexGen(DRAM)", &flex_dram},
        {"FlexGen(SSD)", &flex_ssd}, {"DeepSpeed-UVM", &uvm},
        {"vLLM", &vllm},
    };
    std::ostringstream os;
    for (const auto &[title, engine] : engines)
        os << "==== " << title << " ====\n"
           << serialize(engine->decodeStepPlan(run));
    expectGolden("step_plan_opt66b.txt", os.str());
}

TEST(GoldenSnapshots, PrefillPhaseOpt66b)
{
    // The Prefill-phase plans behind the chunked-prefill path: each
    // plan-emitting engine's monolithic prefill plus chunk 1-of-4, so
    // chunk-range pricing, phase/chunk tags and the per-op prefill
    // energy accounting all pin here.
    const SystemConfig sys = defaultSystem();
    const RunConfig run = headlineRun();
    const HilosEngine hilos(sys, HilosOptions{});
    const FlexGenEngine flex_dram(sys, FlexTier::HostDram);
    const FlexGenEngine flex_ssd(sys, FlexTier::BaselineSsds);
    const DeepSpeedUvmEngine uvm(sys);
    const VllmMultiGpuEngine vllm(sys, VllmClusterConfig{});
    const std::pair<const char *, const StepPlanSource *> engines[] = {
        {"HILOS", &hilos},          {"FlexGen(DRAM)", &flex_dram},
        {"FlexGen(SSD)", &flex_ssd}, {"DeepSpeed-UVM", &uvm},
        {"vLLM", &vllm},
    };
    std::ostringstream os;
    for (const auto &[title, engine] : engines)
        os << "==== " << title << " (monolithic) ====\n"
           << serialize(engine->prefillStepPlan(run))
           << "==== " << title << " (chunk 1/4) ====\n"
           << serialize(engine->prefillStepPlan(run, 1, 4));
    expectGolden("prefill_phase_opt66b.txt", os.str());
}

TEST(GoldenSnapshots, ServingPoissonStreamOpt66b)
{
    // The whole serving surface: a seeded Poisson stream through the
    // continuous batcher, pinning every lifecycle timestamp, the exact
    // percentiles, and the queue-depth curve.
    const HilosEngine engine(defaultSystem(), HilosOptions{});
    ServingConfig cfg;
    cfg.model = modelByName("OPT-66B");
    cfg.max_batch = 8;
    cfg.slo = Seconds(60.0);
    const ServingSimulator sim(engine, cfg);
    PoissonStreamConfig pc;
    pc.arrival_rate = 2.0;
    pc.count = 24;
    Rng rng;  // fixed default seed
    expectGolden("serving_opt66b.txt",
                 serialize(sim.run(makePoissonArrivals(pc, rng))));
}

TEST(GoldenSnapshots, ServingPoliciesWithTiesOpt66b)
{
    // A saturated stream (arrivals far outpace service) whose arrival
    // times and output lengths are deliberately tied, served under the
    // non-FCFS policies: pins every admission tiebreak of sjf (output,
    // input, arrival, id) and slo (deadline, arrival, id) on a backlog
    // over a hundred deep.
    const HilosEngine engine(defaultSystem(), HilosOptions{});
    PoissonStreamConfig pc;
    pc.arrival_rate = 0.05;
    pc.count = 200;
    Rng rng;  // fixed default seed
    std::vector<Request> stream = makePoissonArrivals(pc, rng);
    for (std::size_t i = 0; i < stream.size(); i++) {
        Request &r = stream[i];
        // Minute-granular arrivals tie neighbours; 32-token output
        // buckets tie lengths across classes; every fifth request
        // duplicates its predecessor outright, leaving only the id.
        r.arrival = Seconds(std::floor(r.arrival.value() / 60.0) * 60.0);
        r.output_tokens = std::max<std::uint64_t>(
            32, r.output_tokens / 32 * 32);
        if (i % 5 == 4)
            r = stream[i - 1];
    }
    std::ostringstream os;
    for (ServingPolicy policy :
         {ServingPolicy::Sjf, ServingPolicy::SloAware}) {
        ServingConfig cfg;
        cfg.model = modelByName("OPT-66B");
        cfg.max_batch = 8;
        cfg.policy = policy;
        cfg.slo = Seconds(1800.0);
        os << "==== " << servingPolicyName(policy) << " ====\n"
           << serialize(ServingSimulator(engine, cfg).run(stream));
    }
    expectGolden("serving_policies_opt66b.txt", os.str());
}

Request
servingRequest(std::uint64_t input, std::uint64_t output, Seconds arrival)
{
    return Request{classifyByInputLength(input), input, output, arrival};
}

/**
 * FNV-1a over the IEEE-754 bits of every lifecycle timestamp, so a
 * last-bit drift that serialize()'s nine-digit print rounds away still
 * changes the golden.
 */
std::string
timelineBits(const ServingResult &r)
{
    std::uint64_t h = 14695981039346656037ull;
    const auto mix = [&h](Seconds s) {
        const double v = s.value();
        std::uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof(bits));
        for (int i = 0; i < 8; i++) {
            h ^= (bits >> (8 * i)) & 0xffu;
            h *= 1099511628211ull;
        }
    };
    for (const RequestRecord &rec : r.records) {
        mix(rec.admitted);
        mix(rec.first_token);
        mix(rec.completed);
    }
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

TEST(GoldenSnapshots, ServingFastForwardOpt66b)
{
    // Streams shaped around every point where the serving loop's run
    // of identical decode steps ends: an arrival landing exactly on a
    // step end, unsorted and tied arrivals, single-token requests,
    // bucket crossings mid-run, a full batch collecting arrivals under
    // sjf, and chunked prefill. Each case pins the whole result plus
    // the exact bits of every timestamp.
    const HilosEngine engine(defaultSystem(), HilosOptions{});
    ServingConfig base;
    base.model = modelByName("OPT-66B");
    base.max_batch = 8;
    std::ostringstream os;
    const auto serve = [&](const char *title, const ServingConfig &cfg,
                           const std::vector<Request> &stream) {
        const ServingResult r = ServingSimulator(engine, cfg).run(stream);
        os << "==== " << title << " ====\n"
           << serialize(r) << "timeline_bits = " << timelineBits(r) << "\n";
    };

    // The 40th decode step of a lone request ends at its completion;
    // the same request with a longer output passes that instant as a
    // step end, where the second request lands exactly (the third one
    // ulp later).
    const ServingSimulator sim(engine, base);
    const Seconds step_end =
        sim.run({servingRequest(900, 40, 0.0)}).records[0].completed;
    const Seconds after(std::nextafter(step_end.value(), 1e300));
    std::vector<Request> on_step;
    on_step.push_back(servingRequest(900, 120, 0.0));
    on_step.push_back(servingRequest(300, 30, step_end));
    on_step.push_back(servingRequest(300, 30, after));
    serve("arrival on a step end", base, on_step);

    std::vector<Request> tied;
    tied.push_back(servingRequest(700, 60, 30.0));
    tied.push_back(servingRequest(200, 90, 5.0));
    tied.push_back(servingRequest(1500, 20, 30.0));
    tied.push_back(servingRequest(400, 45, 0.0));
    tied.push_back(servingRequest(400, 45, 5.0));
    tied.push_back(servingRequest(100, 70, 30.0));
    tied.push_back(servingRequest(900, 10, 12.0));
    tied.push_back(servingRequest(250, 35, 0.0));
    ServingConfig narrow = base;
    narrow.max_batch = 3;
    serve("unsorted tied arrivals, fcfs", narrow, tied);
    narrow.policy = ServingPolicy::Sjf;
    serve("unsorted tied arrivals, sjf", narrow, tied);

    std::vector<Request> single;
    single.push_back(servingRequest(500, 1, 0.0));
    single.push_back(servingRequest(700, 50, 0.0));
    single.push_back(servingRequest(200, 1, 3.0));
    single.push_back(servingRequest(400, 1, 40.0));
    single.push_back(servingRequest(300, 2, 40.0));
    single.push_back(servingRequest(600, 1, 500.0));
    serve("single-token outputs", base, single);

    ServingConfig fine = base;
    fine.bucket_quantum = 64;
    std::vector<Request> crossing;
    crossing.push_back(servingRequest(1000, 300, 0.0));
    crossing.push_back(servingRequest(130, 200, 20.0));
    crossing.push_back(servingRequest(60, 5, 21.0));
    crossing.push_back(servingRequest(2000, 150, 90.0));
    serve("bucket quantum 64", fine, crossing);

    ServingConfig full = base;
    full.max_batch = 4;
    full.policy = ServingPolicy::Sjf;
    std::vector<Request> busy;
    for (std::uint64_t i = 0; i < 14; i++) {
        const std::uint64_t output = 20 + (i * 37) % 180;
        const Seconds arrival(3.0 * static_cast<double>(i));
        busy.push_back(servingRequest(200 + 97 * i, output, arrival));
    }
    serve("full batch, sjf", full, busy);

    ServingConfig chunked = base;
    chunked.prefill_chunks = 2;
    std::vector<Request> prefills;
    prefills.push_back(servingRequest(1200, 40, 0.0));
    prefills.push_back(servingRequest(800, 60, 2.0));
    prefills.push_back(servingRequest(300, 25, 2.0));
    prefills.push_back(servingRequest(1500, 30, 150.0));
    serve("prefill chunks 2", chunked, prefills);

    PoissonStreamConfig pc;
    pc.arrival_rate = 0.002;
    pc.count = 24;
    Rng rng;  // fixed default seed
    serve("light poisson", base, makePoissonArrivals(pc, rng));

    expectGolden("serving_fastforward_opt66b.txt", os.str());
}

TEST(GoldenSnapshots, BatcherTokenAccountingOpt66b)
{
    // Pins the corrected serve() accounting: tokens_per_second counts
    // real generated tokens, with bucket-max decode padding reported
    // separately as output_padding_overhead.
    const HilosEngine engine(defaultSystem(), HilosOptions{});
    std::vector<Request> mix = makeBatch(RequestClass::Medium, 12);
    const auto small = makeBatch(RequestClass::Small, 4);
    mix.insert(mix.end(), small.begin(), small.end());
    mix.push_back(Request{RequestClass::Medium, 1000, 40});
    const OfflineBatcher batcher(16, 1024);
    expectGolden(
        "batcher_token_accounting_opt66b.txt",
        serialize(batcher.serve(engine, modelByName("OPT-66B"), mix)));
}

TEST(GoldenSnapshots, EvaluationReportMarkdown)
{
    // One-cell grid: enough to pin the whole rendering path (headers,
    // row formatting, aggregate lines) without a minutes-long sweep.
    ReportConfig cfg;
    cfg.models = {"OPT-66B"};
    cfg.contexts = {16384};
    cfg.device_counts = {8};
    expectGolden("report_opt66b_16k.md",
                 runEvaluation(defaultSystem(), cfg).toMarkdown());
}

}  // namespace
}  // namespace test
}  // namespace hilos
