/**
 * @file
 * Tests for the slice-level event simulator and its agreement with the
 * analytic HILOS engine.
 */

#include <gtest/gtest.h>

#include "core/hilos.h"
#include "runtime/event_sim.h"

namespace hilos {
namespace {

RunConfig
makeRun(const ModelConfig &m, std::uint64_t context)
{
    RunConfig run;
    run.model = m;
    run.batch = 16;
    run.context_len = context;
    run.output_len = 64;
    return run;
}

TEST(EventSim, AgreesWithAnalyticEngine)
{
    SystemConfig sys = defaultSystem();
    HilosOptions opts;
    opts.num_devices = 8;
    const HilosEngine analytic(sys, opts);
    const HilosEventSimulator sim(sys, opts);
    for (std::uint64_t s : {8192ull, 32768ull, 131072ull}) {
        const RunConfig run = makeRun(opt66b(), s);
        const double a = analytic.run(run).decode_step_time;
        const double e = sim.simulateDecodeStep(run).decode_step_time;
        EXPECT_GT(e / a, 0.7) << "s=" << s;
        EXPECT_LT(e / a, 1.45) << "s=" << s;
    }
}

TEST(EventSim, MonotonicInContext)
{
    SystemConfig sys = defaultSystem();
    HilosOptions opts;
    opts.num_devices = 8;
    const HilosEventSimulator sim(sys, opts);
    Seconds prev = 0;
    for (std::uint64_t s : {4096ull, 16384ull, 65536ull}) {
        const Seconds t =
            sim.simulateDecodeStep(makeRun(opt66b(), s)).decode_step_time;
        EXPECT_GT(t, prev);
        prev = t;
    }
}

TEST(EventSim, MoreDevicesAreFaster)
{
    SystemConfig sys = defaultSystem();
    const RunConfig run = makeRun(opt66b(), 65536);
    HilosOptions o4, o16;
    o4.num_devices = 4;
    o16.num_devices = 16;
    const Seconds t4 = HilosEventSimulator(sys, o4)
                           .simulateDecodeStep(run)
                           .decode_step_time;
    const Seconds t16 = HilosEventSimulator(sys, o16)
                            .simulateDecodeStep(run)
                            .decode_step_time;
    EXPECT_GT(t4, 1.5 * t16);
}

TEST(EventSim, LayerTimesCoverAllLayers)
{
    SystemConfig sys = defaultSystem();
    HilosOptions opts;
    opts.num_devices = 8;
    const HilosEventSimulator sim(sys, opts);
    const EventSimResult r =
        sim.simulateDecodeStep(makeRun(opt66b(), 16384));
    EXPECT_EQ(r.layer_times.size(), opt66b().layers);
    Seconds sum = 0;
    for (Seconds t : r.layer_times) {
        EXPECT_GT(t, 0.0);
        sum += t;
    }
    // Layer intervals are measured from each layer's start, which can
    // overlap the previous layer's weight prefetch, so the sum is close
    // to (but not above) the step plus one prefetch window.
    EXPECT_NEAR(sum, r.decode_step_time, 0.15 * r.decode_step_time);
}

TEST(EventSim, InternalPathIsTheHotResource)
{
    // Under the default config the devices' internal reads dominate;
    // the uplink and GPU stay comfortably below saturation (this is
    // Fig. 4's observation at transfer granularity).
    SystemConfig sys = defaultSystem();
    HilosOptions opts;
    opts.num_devices = 8;
    opts.xcache = false;
    const HilosEventSimulator sim(sys, opts);
    const EventSimResult r =
        sim.simulateDecodeStep(makeRun(opt66b(), 65536));
    EXPECT_GT(r.internal_utilization, 0.5);
    EXPECT_LT(r.gpu_utilization, 0.2);
}

TEST(EventSim, PrefillAgreesWithAnalyticModel)
{
    SystemConfig sys = defaultSystem();
    HilosOptions opts;
    opts.num_devices = 8;
    const HilosEngine analytic(sys, opts);
    const HilosEventSimulator sim(sys, opts);
    for (std::uint64_t s : {8192ull, 32768ull}) {
        const RunConfig run = makeRun(opt66b(), s);
        const Seconds a = analytic.run(run).prefill_time;
        const Seconds e = sim.simulatePrefill(run);
        EXPECT_GT(e / a, 0.5) << "s=" << s;
        EXPECT_LT(e / a, 2.0) << "s=" << s;
    }
}

TEST(EventSim, PrefillMonotonicInContext)
{
    SystemConfig sys = defaultSystem();
    HilosOptions opts;
    opts.num_devices = 8;
    const HilosEventSimulator sim(sys, opts);
    Seconds prev = 0;
    for (std::uint64_t s : {4096ull, 16384ull, 65536ull}) {
        const Seconds t = sim.simulatePrefill(makeRun(opt66b(), s));
        EXPECT_GT(t, prev);
        prev = t;
    }
}

TEST(EventSim, PrefillChunkSizeIsSecondOrder)
{
    // Chunking granularity must not swing the total (compute and
    // writes pipeline at any chunk size).
    SystemConfig sys = defaultSystem();
    HilosOptions opts;
    opts.num_devices = 8;
    const HilosEventSimulator sim(sys, opts);
    const RunConfig run = makeRun(opt66b(), 32768);
    const Seconds coarse = sim.simulatePrefill(run, 8192);
    const Seconds fine = sim.simulatePrefill(run, 1024);
    EXPECT_NEAR(fine / coarse, 1.0, 0.25);
}

TEST(EventSim, XCacheLoadsTheGdsPath)
{
    SystemConfig sys = defaultSystem();
    HilosOptions with_x, without_x;
    with_x.num_devices = 8;
    without_x.num_devices = 8;
    without_x.xcache = false;
    const RunConfig run = makeRun(opt66b(), 65536);
    const EventSimResult rx =
        HilosEventSimulator(sys, with_x).simulateDecodeStep(run);
    const EventSimResult r0 =
        HilosEventSimulator(sys, without_x).simulateDecodeStep(run);
    EXPECT_GT(rx.gds_utilization, 0.3);
    EXPECT_LT(r0.gds_utilization, 0.01);
    EXPECT_LT(rx.decode_step_time, r0.decode_step_time);  // X-cache helps
}

bool
hasEvent(const TraceRecorder &tr, const std::string &track,
         const std::string &name)
{
    for (const TraceEvent &e : tr.events())
        if (e.name == name && (track.empty() || e.track == track))
            return true;
    return false;
}

TEST(EventSim, TracedAndUntracedFaultReplaysAgreeBitForBit)
{
    // Trace labels are built only when a recorder is attached; the
    // replay itself must not depend on it. The plan exercises every
    // device-scope fault clause (seeded NAND/NVMe retries, a P2P
    // derate, a device failure) plus an uplink derate, so the
    // re-dispatch and retry branches are covered, not just the clean
    // path.
    SystemConfig sys = defaultSystem();
    HilosOptions opts;
    opts.num_devices = 8;
    opts.fault_plan = parseFaultPlan(
        "seed=11;nand-err=1e-3;nvme-timeout=5e-4;degrade@0.5=0.5:1;"
        "uplink@0.5=0.8;fail@0.5=3");
    const HilosEventSimulator sim(sys, opts);
    const RunConfig run = makeRun(opt66b(), 32768);
    const Seconds start = 1.0;

    TraceRecorder tr;
    const EventSimResult traced = sim.simulateDecodeStep(run, &tr, start);
    const EventSimResult plain =
        sim.simulateDecodeStep(run, nullptr, start);

    // The faults really fired.
    EXPECT_EQ(plain.devices_failed, 1u);
    EXPECT_GT(plain.redispatched_slices, 0u);
    EXPECT_GT(plain.nand_read_errors, 0u);
    EXPECT_GT(plain.nvme_timeouts, 0u);

    EXPECT_EQ(traced.completed, plain.completed);
    EXPECT_EQ(traced.decode_step_time.value(),
              plain.decode_step_time.value());
    EXPECT_EQ(traced.mean_layer_time.value(),
              plain.mean_layer_time.value());
    ASSERT_EQ(traced.layer_times.size(), plain.layer_times.size());
    for (std::size_t l = 0; l < plain.layer_times.size(); ++l)
        EXPECT_EQ(traced.layer_times[l].value(),
                  plain.layer_times[l].value())
            << "layer " << l;
    EXPECT_EQ(traced.uplink_utilization, plain.uplink_utilization);
    EXPECT_EQ(traced.gds_utilization, plain.gds_utilization);
    EXPECT_EQ(traced.internal_utilization, plain.internal_utilization);
    EXPECT_EQ(traced.gpu_utilization, plain.gpu_utilization);
    EXPECT_EQ(traced.devices_failed, plain.devices_failed);
    EXPECT_EQ(traced.redispatched_slices, plain.redispatched_slices);
    EXPECT_EQ(traced.nand_read_errors, plain.nand_read_errors);
    EXPECT_EQ(traced.nvme_timeouts, plain.nvme_timeouts);
    EXPECT_EQ(traced.nvme_retries, plain.nvme_retries);
    EXPECT_EQ(traced.retry_time.value(), plain.retry_time.value());

    // The traced run still carries the same labels.
    EXPECT_TRUE(hasEvent(tr, "", "read/L0/s0"));
    EXPECT_TRUE(hasEvent(tr, "", "attn/L0/s0"));
    EXPECT_TRUE(hasEvent(tr, "", "weights/L1"));
    EXPECT_TRUE(hasEvent(tr, "uplink", "qkv/L0"));
    const auto layers = tr.track("layers");
    ASSERT_EQ(layers.size(), run.model.layers);
    EXPECT_EQ(layers.front().name, "L0");
}

}  // namespace
}  // namespace hilos
