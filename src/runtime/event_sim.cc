#include "runtime/event_sim.h"

#include <algorithm>
#include <array>
#include <optional>

#include "accel/cycle_model.h"
#include "common/logging.h"
#include "runtime/cost_model.h"
#include "runtime/writeback.h"

namespace hilos {

namespace {

/**
 * One SmartSSD's share of the KV-slice stream: its internal P2P read
 * path and its FPGA attention kernel, each a FIFO channel cut down to
 * the state the slice loop reads. The arithmetic is BandwidthResource's
 * (done = max(ready, busy_until) + service), with the per-slice service
 * time priced once per step instead of once per slice.
 */
struct SliceLane {
    Seconds p2p_service = 0.0;  ///< one slice read, latency included
    Seconds p2p_free = 0.0;     ///< P2P link busy horizon
    Seconds p2p_busy = 0.0;     ///< P2P read and stall time so far
    Seconds fpga_free = 0.0;    ///< attention kernel busy horizon

    /** Read one slice that becomes ready at `ready`. */
    Seconds read(Seconds ready)
    {
        p2p_free = std::max(ready, p2p_free) + p2p_service;
        p2p_busy += p2p_service;
        return p2p_free;
    }

    /** Hold the P2P link for a recovery stall of `duration` > 0. */
    Seconds stall(Seconds ready, Seconds duration)
    {
        p2p_free = std::max(ready, p2p_free) + duration;
        p2p_busy += duration;
        return p2p_free;
    }

    /** Run one slice through the kernel, `service` per slice. */
    Seconds attend(Seconds ready, Seconds service)
    {
        fpga_free = std::max(ready, fpga_free) + service;
        return fpga_free;
    }
};

}  // namespace

HilosEventSimulator::HilosEventSimulator(const SystemConfig &sys,
                                         const HilosOptions &opts)
    : sys_(sys), opts_(opts)
{
}

EventSimResult
HilosEventSimulator::simulateDecodeStep(const RunConfig &cfg,
                                        TraceRecorder *trace,
                                        Seconds start_time) const
{
    // Every trace label below is built under `trace != nullptr`: the
    // slice loop runs batch x kv_heads x layers times per step, and an
    // untraced replay must not format strings nobody reads.
    const ModelConfig &m = cfg.model;
    const Gpu gpu(sys_.gpu);
    const unsigned N = opts_.num_devices;
    const std::uint64_t b = cfg.batch;
    // Sliding-window variants attend (and keep) only the window — the
    // same cap the analytic engine applies to its mid-generation
    // context, so every slice/X-load size below stays comparable.
    std::uint64_t s = midGenerationContext(cfg.context_len, cfg.output_len);
    if (opts_.attention_window > 0)
        s = std::min(s, opts_.attention_window);
    const std::uint64_t d = m.headDim();
    const std::uint64_t d_group = m.dGroup();
    const std::uint64_t L = m.layers;

    // Fault conditions freeze at the step's start time: failed devices
    // drop out of the slice rotation, link derates scale the resource
    // rates, and per-slice recovery penalties are drawn from the
    // plan's seeded per-device streams in deterministic loop order.
    // An empty plan allocates no RNG state and all derates are exactly
    // 1.0, keeping this path bit-identical to the fault-free build.
    FaultInjector inj(opts_.fault_plan, N);
    std::vector<unsigned> alive;
    std::vector<std::size_t> alive_idx(N, 0);
    double min_derate = 1.0;
    for (unsigned i = 0; i < N; i++) {
        if (inj.active() && inj.deviceFailed(i, start_time))
            continue;
        alive_idx[i] = alive.size();
        alive.push_back(i);
        if (inj.active())
            min_derate = std::min(min_derate,
                                  inj.linkDerate(i, start_time));
    }
    EventSimResult res;
    if (alive.empty()) {
        res.completed = false;
        res.note = "all SmartSSDs failed; no surviving device to serve "
                   "attention slices";
        res.devices_failed = N;
        return res;
    }
    const auto n_alive = static_cast<unsigned>(alive.size());
    const double up_derate =
        inj.active() ? inj.uplinkDerate(start_time) : 1.0;

    // Alpha re-selects for the surviving fleet.
    HilosOptions eff = opts_;
    eff.fault_plan = FaultPlan{};
    eff.num_devices = n_alive;
    const HilosEngine analytic(sys_, eff);
    const double alpha = analytic.selectedAlpha(cfg);
    const WeightHome home = chooseWeightHome(m, sys_.dram.capacity);

    // --- Resources ---
    BandwidthResource uplink("uplink",
                             sys_.chassis_uplink_bw * up_derate, usec(1));
    BandwidthResource gds("gds", analytic.gdsBw() * min_derate, usec(5));
    BandwidthResource host_link("host-pcie", sys_.host_pcie_bw, usec(1));

    // --- Static per-layer quantities ---
    const double weight_bytes = m.loadedWeightBytesPerLayer(b);
    const std::uint64_t slice_bytes = 2ull * s * d * m.dtype_bytes;
    const std::uint64_t nsp_batches = static_cast<std::uint64_t>(
        (1.0 - alpha) * static_cast<double>(b) + 0.5);
    const std::uint64_t x_batches = b - nsp_batches;
    const std::uint64_t slices = nsp_batches * m.kv_heads;
    const std::uint64_t x_bytes =
        s * m.hidden * m.dtype_bytes;  // per sequence per layer
    const Seconds gpu_base =
        qkvProjTime(gpu, m, b) + mlpTime(gpu, m, b);
    const Seconds regen_per_seq =
        Flops(2.0 * static_cast<double>(s) *
              static_cast<double>(m.hidden) *
              static_cast<double>(m.kv_heads * d)) /
        (sys_.gpu.fp16_peak * sys_.gpu.gemm_efficiency);
    const Seconds gpu_xattn_per_seq =
        gpuAttentionTime(gpu, m, 1, s);
    const double qkv_up_bytes =
        static_cast<double>(b) *
        (static_cast<double>(m.hidden) +
         2.0 * static_cast<double>(m.kv_heads * d)) *
        static_cast<double>(m.dtype_bytes);
    const double out_ret_bytes =
        static_cast<double>(b * m.hidden * m.dtype_bytes);

    // Each device's P2P link and FPGA kernel: derates freeze at the
    // step's start, so one slice's service times hold for the step.
    const CycleModel cm{CycleModelConfig{}};
    const Bandwidth kernel_rate = cm.kvBytesPerSec(s, d, d_group);
    HILOS_ASSERT(kernel_rate > 0.0, "bandwidth must be positive: ",
                 kernel_rate);
    const Seconds fpga_service =
        usec(10) + Bytes(static_cast<double>(slice_bytes)) / kernel_rate;
    std::vector<SliceLane> lanes(N);
    for (unsigned i = 0; i < N; i++) {
        const double derate =
            inj.active() ? inj.linkDerate(i, start_time) : 1.0;
        const Bandwidth p2p_rate = sys_.smartssd.p2p_read_bw * derate;
        HILOS_ASSERT(p2p_rate > 0.0, "bandwidth must be positive: ",
                     p2p_rate);
        lanes[i].p2p_service =
            usec(80) + Bytes(static_cast<double>(slice_bytes)) / p2p_rate;
    }

    // Slices stripe round-robin over the fleet; one homed on a failed
    // device re-dispatches round-robin onto the survivors. Every layer
    // streams the same slices, so the map is built once per step.
    std::vector<unsigned> slice_dev(slices);
    std::uint64_t moved_per_layer = 0;
    for (std::uint64_t sl = 0; sl < slices; sl++) {
        const auto orig = static_cast<unsigned>(sl % N);
        slice_dev[sl] = orig;
        if (inj.active() && inj.deviceFailed(orig, start_time)) {
            slice_dev[sl] = alive[sl % n_alive];
            moved_per_layer++;
        }
    }
    inj.noteRedispatch(moved_per_layer * L);

    Seconds wb_crit = 0.0;
    if (opts_.delayed_writeback) {
        WritebackCostInputs win;
        win.slices = b * m.kv_heads;
        win.head_dim = d;
        win.d_group = d_group;
        win.spill_interval = opts_.spill_interval;
        win.devices = n_alive;
        win.host_link_bw = sys_.chassis_uplink_bw * up_derate;
        win.device_write_bw = sys_.smartssd.p2p_write_bw * min_derate;
        win.xrt_sync_base = sys_.xrt_sync_base;
        wb_crit = writebackCosts(win).criticalPath();
    } else {
        wb_crit = naiveWritebackTime(b * m.kv_heads, n_alive,
                                     2 * d * m.dtype_bytes,
                                     sys_.smartssd.nand.write_latency,
                                     usec(230));
    }

    // --- Simulate the layer pipeline ---
    res.layer_times.reserve(L);
    Seconds prev_done = 0.0;
    Seconds gpu_free = 0.0;
    Seconds gpu_busy = 0.0;
    std::vector<Seconds> weight_ready(L, 0.0);

    // Layer 0's weights stage before the step begins (steady state).
    weight_ready[0] = 0.0;

    for (std::uint64_t l = 0; l < L; l++) {
        const Seconds layer_start =
            std::max(prev_done, weight_ready[l]);

        // Prefetch the next layer's weights as soon as this layer
        // starts (the Weights Prefetcher's double buffering).
        if (l + 1 < L) {
            BandwidthResource &wres =
                home == WeightHome::Storage ? uplink : host_link;
            weight_ready[l + 1] = wres.transfer(
                layer_start, static_cast<std::uint64_t>(weight_bytes));
            if (trace != nullptr)
                trace->record(wres.name(), "weights/L" + std::to_string(l + 1),
                              weight_ready[l + 1] -
                                  wres.serviceTime(static_cast<std::uint64_t>(
                                      weight_bytes)),
                              weight_ready[l + 1]);
        }

        // QKV upload to the devices.
        const Seconds qkv_done = uplink.transfer(
            layer_start, static_cast<std::uint64_t>(qkv_up_bytes));
        if (trace != nullptr)
            trace->record("uplink", "qkv/L" + std::to_string(l),
                          qkv_done - uplink.serviceTime(
                                         static_cast<std::uint64_t>(
                                             qkv_up_bytes)),
                          qkv_done);

        // NSP portion: slices stream through each device's internal
        // path into its accelerator, in slice-major order (which fixes
        // the order of the seeded recovery draws).
        const Seconds slice_ready = std::max(layer_start, qkv_done);
        Seconds nsp_done = layer_start;
        for (std::uint64_t sl = 0; sl < slices; sl++) {
            unsigned dev = slice_dev[sl];
            Seconds read_done = lanes[dev].read(slice_ready);
            if (inj.active()) {
                // ECC read-retry ladder on the NAND read, then the
                // NVMe command's timeout/backoff outcome; an exhausted
                // command re-issues the read on the next survivor.
                const Seconds nand_pen = inj.nandReadPenalty(dev);
                if (nand_pen > 0.0)
                    read_done = lanes[dev].stall(read_done, nand_pen);
                const FaultInjector::NvmeOutcome nvme =
                    inj.nvmeCommand(dev);
                if (nvme.extra_latency > 0.0)
                    read_done =
                        lanes[dev].stall(read_done, nvme.extra_latency);
                if (nvme.failed) {
                    dev = alive[(alive_idx[dev] + 1) % n_alive];
                    inj.noteRedispatch();
                    read_done = lanes[dev].read(read_done);
                }
            }
            const Seconds kernel_done =
                lanes[dev].attend(read_done, fpga_service);
            if (trace != nullptr) {
                const std::string at =
                    "/L" + std::to_string(l) + "/s" + std::to_string(sl);
                const std::string id = std::to_string(dev);
                trace->record("p2p" + id, "read" + at,
                              read_done - lanes[dev].p2p_service,
                              read_done);
                trace->record("fpga" + id, "attn" + at,
                              kernel_done - fpga_service, kernel_done);
            }
            nsp_done = std::max(nsp_done, kernel_done);
        }

        // X-cache portion: per-sequence GDS load (also occupying the
        // shared uplink), then GPU regeneration + attention.
        Seconds x_done = layer_start;
        for (std::uint64_t seq = 0; seq < x_batches; seq++) {
            const Seconds loaded = gds.transfer(layer_start, x_bytes);
            uplink.transfer(layer_start, x_bytes);
            if (trace != nullptr)
                trace->record("gds", "xload/L" + std::to_string(l),
                              loaded - gds.serviceTime(x_bytes), loaded);
            const Seconds gpu_begin = std::max(gpu_free, loaded);
            gpu_free = gpu_begin + regen_per_seq + gpu_xattn_per_seq;
            if (trace != nullptr)
                trace->record("gpu", "regen/L" + std::to_string(l),
                              gpu_begin, gpu_free);
            gpu_busy += regen_per_seq + gpu_xattn_per_seq;
            x_done = std::max(x_done, gpu_free);
        }

        // Host-side projections and MLP on the GPU.
        const Seconds base_begin = std::max(gpu_free, layer_start);
        gpu_free = base_begin + gpu_base;
        if (trace != nullptr)
            trace->record("gpu", "proj+mlp/L" + std::to_string(l),
                          base_begin, gpu_free);
        gpu_busy += gpu_base;

        const Seconds out_done = uplink.transfer(
            std::max(nsp_done, x_done),
            static_cast<std::uint64_t>(out_ret_bytes));
        const Seconds layer_done =
            std::max({out_done, gpu_free, qkv_done}) + wb_crit;

        if (trace != nullptr)
            trace->record("layers", "L" + std::to_string(l), layer_start,
                          layer_done);
        res.layer_times.push_back(layer_done - layer_start);
        prev_done = layer_done;
    }

    res.decode_step_time = prev_done;
    res.mean_layer_time = prev_done / static_cast<double>(L);
    res.uplink_utilization = uplink.utilization(prev_done);
    res.gds_utilization = gds.utilization(prev_done);
    // GPU busy spans all lie within [0, prev_done]; report the true
    // ratio (utilization() would assert if accounting ever drifted).
    res.gpu_utilization = gpu_busy / prev_done;
    double internal_busy = 0.0;
    for (unsigned i = 0; i < N; i++) {
        // A link busy past the step's end means the accounting drifted
        // (the same >1 check as BandwidthResource::utilization).
        const double util =
            prev_done > 0.0 ? lanes[i].p2p_busy / prev_done : 0.0;
        HILOS_ASSERT(util <= 1.0 + 1e-9, "utilization of 'p2p", i,
                     "' exceeds 1: busy ", lanes[i].p2p_busy,
                     " s over horizon ", prev_done, " s");
        internal_busy += util;
    }
    res.internal_utilization = internal_busy / static_cast<double>(N);
    if (inj.active()) {
        const FaultStats &st = inj.stats();
        res.devices_failed = N - n_alive;
        res.redispatched_slices = st.redispatched_slices;
        res.nand_read_errors = st.nand_read_errors;
        res.nvme_timeouts = st.nvme_timeouts;
        res.nvme_retries = st.nvme_retries;
        res.retry_time = st.retry_time;
    }
    return res;
}

Seconds
HilosEventSimulator::simulatePrefill(const RunConfig &cfg,
                                     std::size_t chunk_tokens,
                                     TraceRecorder *trace,
                                     Seconds start_time) const
{
    HILOS_ASSERT(chunk_tokens >= 1, "chunk size must be >= 1");
    const ModelConfig &m = cfg.model;
    const Gpu gpu(sys_.gpu);
    const unsigned N = opts_.num_devices;
    const std::uint64_t b = cfg.batch;
    const std::uint64_t s = cfg.context_len;
    const std::uint64_t L = m.layers;

    // Prefill under faults: the surviving fleet and derates at
    // `start_time` scale the write fan-out and the uplink.
    const FaultInjector inj(opts_.fault_plan, N);
    unsigned n_alive = N;
    double min_derate = 1.0;
    double up_derate = 1.0;
    if (inj.active()) {
        n_alive = inj.survivingDevices(start_time);
        if (n_alive == 0) {
            HILOS_FATAL("all SmartSSDs failed before prefill; no "
                        "surviving fleet to receive the KV/X cache");
        }
        for (unsigned i = 0; i < N; i++) {
            if (!inj.deviceFailed(i, start_time))
                min_derate = std::min(min_derate,
                                      inj.linkDerate(i, start_time));
        }
        up_derate = inj.uplinkDerate(start_time);
    }

    HilosOptions eff = opts_;
    eff.fault_plan = FaultPlan{};
    eff.num_devices = n_alive;
    const HilosEngine analytic(sys_, eff);
    const double alpha = analytic.selectedAlpha(cfg);
    const WeightHome home = chooseWeightHome(m, sys_.dram.capacity);

    BandwidthResource uplink("uplink",
                             sys_.chassis_uplink_bw * up_derate, usec(1));
    BandwidthResource host_link("host-pcie", sys_.host_pcie_bw, usec(1));
    BandwidthResource device_write(
        "device-write",
        static_cast<double>(n_alive) * sys_.smartssd.p2p_write_bw *
            min_derate,
        usec(50));

    const double weight_bytes = m.loadedWeightBytesPerLayer(b);
    // Cache bytes per prompt token per layer across the batch: X for
    // the alpha portion, K+V for the rest.
    const double cache_tok =
        static_cast<double>(b) *
        (alpha * static_cast<double>(m.xBytesPerTokenPerLayer()) +
         (1.0 - alpha) * 2.0 *
             static_cast<double>(m.kv_heads * m.headDim() *
                                 m.dtype_bytes));

    const std::uint64_t chunks = ceilDiv(s, chunk_tokens);
    Seconds prev_done = 0.0;
    Seconds gpu_free = 0.0;
    Seconds weight_ready = 0.0;

    for (std::uint64_t l = 0; l < L; l++) {
        const Seconds layer_start = std::max(prev_done, weight_ready);
        // Prefetch the next layer's weights.
        if (l + 1 < L) {
            BandwidthResource &wres =
                home == WeightHome::Storage ? uplink : host_link;
            weight_ready = wres.transfer(
                layer_start, static_cast<std::uint64_t>(weight_bytes));
        }

        Seconds layer_done = layer_start;
        for (std::uint64_t c = 0; c < chunks; c++) {
            const std::uint64_t tokens =
                std::min<std::uint64_t>(chunk_tokens,
                                        s - c * chunk_tokens);
            // Chunk compute: GEMMs plus causal attention over the
            // prefix processed so far (prefix midpoint of the chunk).
            const double prefix = static_cast<double>(c * chunk_tokens) +
                                  static_cast<double>(tokens) / 2.0;
            const double gemm_flops =
                static_cast<double>(b * tokens) *
                m.denseFlopsPerTokenPerLayer();
            const double attn_flops =
                static_cast<double>(b * tokens) *
                m.attentionFlopsPerToken(
                    static_cast<std::uint64_t>(prefix));
            const Seconds compute = gpu.kernelTime(
                gemm_flops + attn_flops,
                static_cast<double>(m.weightBytesPerLayer()) /
                    static_cast<double>(chunks));
            const Seconds compute_begin =
                std::max(gpu_free, layer_start);
            gpu_free = compute_begin + compute;
            if (trace != nullptr) {
                trace->record("gpu",
                              "prefill/L" + std::to_string(l) + "/c" +
                                  std::to_string(c),
                              compute_begin, gpu_free);
            }

            // The chunk's cache writes ship to the devices and commit
            // to NAND, overlapping the next chunk's compute.
            const auto bytes = static_cast<std::uint64_t>(
                cache_tok * static_cast<double>(tokens));
            const Seconds shipped = uplink.transfer(gpu_free, bytes);
            const Seconds committed =
                device_write.transfer(shipped, bytes);
            if (trace != nullptr) {
                trace->record("device-write",
                              "commit/L" + std::to_string(l) + "/c" +
                                  std::to_string(c),
                              committed - device_write.serviceTime(bytes),
                              committed);
            }
            layer_done = std::max(layer_done, committed);
        }
        prev_done = std::max(layer_done, gpu_free);
    }
    return prev_done;
}

namespace {

/**
 * The pools a plan replay runs over: one BandwidthPool per referenced
 * transfer resource (with the plan's declared instance count) and one
 * single-instance pool per referenced compute unit, in slots indexed by
 * the enum so every op visit is an array access. Rates are dummies —
 * replay uses occupy(), whose durations are already engine-priced.
 */
class PlanPools
{
  public:
    explicit PlanPools(const StepPlan &plan)
    {
        auto visit = [&](const StepOpView &op) {
            if (op.offline)
                return;
            if (op.op_kind == StepOp::Kind::Transfer &&
                op.resource != PlanResource::None) {
                auto &slot = resources_[slotOf(op.resource)];
                if (!slot)
                    slot.emplace(planResourceName(op.resource),
                                 plan.instancesOf(op.resource), 1.0);
            } else if (op.op_kind == StepOp::Kind::Compute &&
                       op.unit != ComputeUnit::None) {
                auto &slot = units_[slotOf(op.unit)];
                if (!slot)
                    slot.emplace(computeUnitName(op.unit), 1, 1.0);
            }
        };
        for (const StepOpView op : plan.layer_ops)
            visit(op);
        for (const StepOpView op : plan.tail_ops)
            visit(op);
    }

    /** The pool `op` occupies, or nullptr for a pure delay. */
    BandwidthPool *poolFor(const StepOpView &op)
    {
        std::optional<BandwidthPool> *slot = nullptr;
        if (op.op_kind == StepOp::Kind::Transfer) {
            if (op.resource == PlanResource::None)
                return nullptr;
            slot = &resources_[slotOf(op.resource)];
        } else {
            if (op.unit == ComputeUnit::None)
                return nullptr;
            slot = &units_[slotOf(op.unit)];
        }
        HILOS_ASSERT(slot->has_value(), "op '", op.label,
                     "' occupies a pool no online op declared");
        return &**slot;
    }

    Seconds maxBusyUntil() const
    {
        Seconds latest = 0.0;
        for (const auto &pool : resources_)
            if (pool)
                latest = std::max(latest, pool->maxBusyUntil());
        for (const auto &pool : units_)
            if (pool)
                latest = std::max(latest, pool->maxBusyUntil());
        return latest;
    }

    /** (name, mean utilisation) per referenced resource, enum order. */
    std::vector<std::pair<std::string, double>>
    resourceUtilization(Seconds horizon) const
    {
        return utilizations(resources_, horizon);
    }

    /** (name, utilisation) per referenced compute unit, enum order. */
    std::vector<std::pair<std::string, double>>
    unitUtilization(Seconds horizon) const
    {
        return utilizations(units_, horizon);
    }

  private:
    static constexpr std::size_t kResourceSlots =
        static_cast<std::size_t>(PlanResource::InterNode) + 1;
    static constexpr std::size_t kUnitSlots =
        static_cast<std::size_t>(ComputeUnit::Fpga) + 1;

    template <typename Enum>
    static std::size_t slotOf(Enum e)
    {
        return static_cast<std::size_t>(e);
    }

    template <std::size_t N>
    static std::vector<std::pair<std::string, double>>
    utilizations(const std::array<std::optional<BandwidthPool>, N> &pools,
                 Seconds horizon)
    {
        std::vector<std::pair<std::string, double>> out;
        for (const auto &pool : pools)
            if (pool)
                out.emplace_back(pool->name(),
                                 pool->meanUtilization(horizon));
        return out;
    }

    std::array<std::optional<BandwidthPool>, kResourceSlots> resources_;
    std::array<std::optional<BandwidthPool>, kUnitSlots> units_;
};

}  // namespace

PlanSimResult
simulatePlan(const StepPlan &plan, TraceRecorder *trace)
{
    HILOS_ASSERT(plan.feasible, "cannot replay an infeasible plan: ",
                 plan.note);
    HILOS_ASSERT(plan.layers >= 1, "plan has no layers");
    PlanPools pools(plan);
    PlanSimResult out;
    out.layer_times.reserve(plan.layers);

    const std::size_t n = plan.layer_ops.size();
    std::vector<Seconds> finish(n, 0.0);
    Seconds layer_start = 0.0;
    Seconds prev_layer_start = 0.0;
    for (std::uint64_t l = 0; l < plan.layers; ++l) {
        Seconds layer_end = layer_start;
        for (std::size_t i = 0; i < n; ++i) {
            const StepOpView op = plan.layer_ops[i];
            if (op.offline) {
                finish[i] = 0.0;
                continue;
            }
            Seconds ready = op.prefetch ? prev_layer_start : layer_start;
            for (const std::size_t d : op.deps)
                ready = std::max(ready, finish[d]);
            if (op.shadow) {
                // Timing-only: bounds the layer but occupies nothing.
                finish[i] = ready + op.seconds;
                layer_end = std::max(layer_end, finish[i]);
                continue;
            }
            BandwidthPool *pool = pools.poolFor(op);
            Seconds done = ready + op.seconds;
            if (pool != nullptr) {
                done = ready;
                for (std::uint64_t k = 0; k < op.fanout; ++k) {
                    const Seconds end = pool->occupyOn(k, ready, op.seconds);
                    done = std::max(done, end);
                    if (trace != nullptr)
                        trace->record(
                            pool->instance(static_cast<unsigned>(
                                               k % pool->size()))
                                .name(),
                            "layer" + std::to_string(l) + "/" +
                                std::string(op.label),
                            end - op.seconds, end);
                }
            }
            finish[i] = done;
            layer_end = std::max(layer_end, done);
        }
        if (l == 0)
            out.first_layer_finish = finish;
        out.layer_times.push_back(layer_end - layer_start);
        prev_layer_start = layer_start;
        layer_start = layer_end;
    }
    out.layered_end = layer_start;

    Seconds tail_end = out.layered_end;
    for (const StepOpView op : plan.tail_ops) {
        BandwidthPool *pool = pools.poolFor(op);
        const Seconds begin = tail_end;
        tail_end = pool != nullptr ? pool->occupyOn(0, tail_end, op.seconds)
                                   : tail_end + op.seconds;
        if (trace != nullptr)
            trace->record(pool != nullptr ? pool->instance(0).name()
                                          : "delay",
                          "tail/" + std::string(op.label), begin, tail_end);
    }

    HILOS_ASSERT(plan.layer_time_divisor > 0.0,
                 "non-positive layer_time_divisor");
    out.decode_step_time = out.layered_end / plan.layer_time_divisor +
                           (tail_end - out.layered_end);

    // Utilisations over the pre-divisor timeline; the horizon covers
    // every pool's busy span so BandwidthResource's >1 check holds.
    const Seconds horizon =
        std::max(tail_end, pools.maxBusyUntil());
    out.resource_utilization = pools.resourceUtilization(horizon);
    out.unit_utilization = pools.unitUtilization(horizon);
    return out;
}

EventSimResult
toEventSimResult(const PlanSimResult &r)
{
    auto named = [](const std::vector<std::pair<std::string, double>> &v,
                    const char *name, bool *found) -> double {
        for (const auto &kv : v) {
            if (kv.first == name) {
                if (found != nullptr)
                    *found = true;
                return kv.second;
            }
        }
        return 0.0;
    };
    EventSimResult out;
    out.decode_step_time = r.decode_step_time;
    out.layer_times = r.layer_times;
    out.mean_layer_time =
        r.layer_times.empty()
            ? Seconds(0.0)
            : r.decode_step_time /
                  static_cast<double>(r.layer_times.size());
    bool has_uplink = false;
    out.uplink_utilization =
        named(r.resource_utilization, "uplink", &has_uplink);
    if (!has_uplink)
        out.uplink_utilization =
            named(r.resource_utilization, "host_pcie", nullptr);
    out.gds_utilization = named(r.resource_utilization, "gds", nullptr);
    double internal_sum = 0.0;
    unsigned internal_n = 0;
    for (const char *name : {"p2p", "storage", "intra_node"}) {
        bool found = false;
        const double u = named(r.resource_utilization, name, &found);
        if (found) {
            internal_sum += u;
            ++internal_n;
        }
    }
    out.internal_utilization =
        internal_n > 0 ? internal_sum / internal_n : 0.0;
    out.gpu_utilization = named(r.unit_utilization, "gpu", nullptr);
    return out;
}

}  // namespace hilos
