/**
 * @file
 * `fleet_replay`: FleetEngine fault-plan replays (4 hosts x 8
 * SmartSSDs, fault-aware placement, OPT-66B 32K, batch 64).
 *
 * Set-up generates a pool of fault plans from the seed, in the grammar
 * and the six scenario kinds of the repository's fault-plan library
 * (single and cascading host loss, all but one host, stalls that
 * recover and stalls that escalate, and a kitchen sink with NAND/NVMe
 * error rates and derates), and parses them. One op replays one plan
 * and cross-checks it: FleetEngine construction, run(), and
 * simulatedDecodeStep at the first epoch and on the degraded placement.
 * One pass replays the whole pool.
 */
#include <cinttypes>
#include <cstdarg>
#include <cmath>
#include <cstdio>
#include <exception>
#include <memory>
#include <string>
#include <vector>

#include "core/hilos.h"
#include "harness.h"
#include "runtime/event_sim.h"
#include "runtime/fleet_engine.h"

namespace perfbench {

namespace {

/** Plans per pass; the scenario kinds take turns. */
constexpr std::size_t kPoolSize = 24;
constexpr unsigned kHosts = 4;
/** Samples behind the named p95 tails (ten beyond p95 needs 200). */
constexpr std::uint64_t kMinTracedReplays = 200;
/** simulatePlan calls on the fleet host plan in the traced run. */
constexpr int kHostPlanReplays = 1000;
/** Agreement band of the event-sim and analytic fleet steps. */
constexpr double kBandLo = 0.4, kBandHi = 2.5;

/** Scenario kinds of generatePlan(). */
constexpr std::size_t kScenarioCount = 6;

class PlanGen
{
  public:
    explicit PlanGen(std::uint64_t seed) : state_(seed) {}

    double uniform(double lo, double hi)
    {
        const double u =
            static_cast<double>(splitmix64(state_) >> 11) * 0x1.0p-53;
        return lo + (hi - lo) * u;
    }
    unsigned pick(unsigned n)
    {
        return static_cast<unsigned>(splitmix64(state_) % n);
    }
    /** A host other than `not_this`. */
    unsigned other(unsigned not_this)
    {
        return (not_this + 1 + pick(kHosts - 1)) % kHosts;
    }
    std::uint64_t raw() { return splitmix64(state_); }

  private:
    std::uint64_t state_;
};

std::string
fmt(const char *format, ...) __attribute__((format(printf, 1, 2)));

std::string
fmt(const char *format, ...)
{
    char buf[256];
    va_list args;
    va_start(args, format);
    std::vsnprintf(buf, sizeof buf, format, args);
    va_end(args);
    return buf;
}

/**
 * One plan of scenario `kind`: 0 single host loss, 1 cascading host
 * loss, 2 all hosts but one lost, 3 a stall that recovers, 4 a stall
 * that escalates, 5 the kitchen sink. Event times fall in [200, 3600] s:
 * the healthy run's prefill ends near 730 s and its decode near 4,100 s,
 * so faults land in both phases.
 */
std::string
generatePlan(std::size_t kind, PlanGen &g)
{
    const double t = g.uniform(200.0, 3600.0);
    const unsigned h = g.pick(kHosts);
    switch (kind) {
      case 0:
        return fmt("host-fail@%.3f=%u", t, h);
      case 1:
        return fmt("host-fail@%.3f=%u;host-fail@%.3f=%u", t, h,
                   t + g.uniform(0.5, 5.0), g.other(h));
      case 2: {
        std::string spec;
        for (unsigned x = 0; x < kHosts; ++x)
            if (x != h)
                spec += fmt("%shost-fail@%.3f=%u", spec.empty() ? "" : ";",
                            t, x);
        return spec;
      }
      case 3:  // well inside the ~41.5 ms retry-ladder budget
        return fmt("host-stall@%.3f=%.4f:%u", t, g.uniform(0.005, 0.03), h);
      case 4:  // far past the ladder budget: escalates to a host loss
        return fmt("host-stall@%.3f=%.3f:%u", t, g.uniform(2.0, 20.0), h);
      default:
        return fmt("seed=%" PRIu64 ";nand-err=%.3g;nvme-timeout=%.3g;"
                   "degrade@%.3f=%.3f:%u;host-degrade@%.3f=%.3f;"
                   "host-fail@%.3f=%u;host-stall@%.3f=0.02:%u",
                   g.raw() % 1000000, g.uniform(1e-4, 1e-3),
                   g.uniform(1e-5, 1e-4), g.uniform(200.0, 3600.0),
                   g.uniform(0.5, 0.95), g.pick(8), g.uniform(200.0, 3600.0),
                   g.uniform(0.5, 0.9), t, h, g.uniform(200.0, 3600.0),
                   g.other(h));
    }
}

struct Replay {
    hilos::RunResult result;
    double early = 0.0;  ///< event-sim / analytic step at the first epoch
    double late = 0.0;   ///< same on the degraded placement (0 = none)
    std::string error;
};

std::uint64_t
hashReplay(const Replay &r)
{
    return Fnv1a{}
        .u64(hashRunResult(r.result))
        .f64(r.early)
        .f64(r.late)
        .str(r.error)
        .value();
}

/** The first recovery invariant `r` violates, "" when all hold. */
std::string
violation(const Replay &rep)
{
    const hilos::RunResult &a = rep.result;
    if (!rep.error.empty())
        return "threw: " + rep.error;
    if (!std::isfinite(double(a.total_time)) ||
        !std::isfinite(double(a.decode_step_time)))
        return "non-finite timing";
    if (a.fleet.availability < 0.0 || a.fleet.availability > 1.0)
        return "availability outside [0, 1]";
    if (!a.feasible)
        return a.note.empty() ? "infeasible without a note" : "";
    if (a.fleet.hosts_failed >= kHosts)
        return "feasible result with every host failed";
    if (a.fleet.hosts_failed > 0 && a.fleet.availability >= 1.0)
        return "host loss must cost availability";
    if (a.fleet.rebuild_bytes > 0.0 && !(a.fleet.rebuild_time > 0.0))
        return "rebuild bytes without rebuild time";
    if (a.fleet.slowdown < 1.0 - 1e-9)
        return "slowdown below 1";
    if (!(rep.early >= kBandLo && rep.early <= kBandHi))
        return "event-sim disagrees with analytic step at epoch 0";
    if (rep.late != 0.0 && !(rep.late >= kBandLo && rep.late <= kBandHi))
        return "event-sim disagrees with degraded analytic step";
    return "";
}

class FleetReplayWorkload : public Workload
{
  public:
    void setup(std::uint64_t seed, Tracer *tracer) override
    {
        sys_ = hilos::defaultSystem();
        shape_ = hilos::FleetConfig{};
        shape_.hosts = kHosts;
        shape_.devices_per_host = 8;
        shape_.policy = hilos::PlacementPolicy::FaultAware;
        run_ = hilos::RunConfig{};
        run_.model = hilos::opt66b();
        run_.batch = 64;
        run_.context_len = 32768;
        run_.output_len = 64;

        PlanGen gen(seed);
        specs_.clear();
        plans_.clear();
        for (std::size_t i = 0; i < kPoolSize; ++i)
            specs_.push_back(generatePlan(i % kScenarioCount, gen));
        for (const std::string &spec : specs_) {
            Span s(tracer, "fault", "fault.parse");
            plans_.push_back(hilos::parseFaultPlan(spec));
        }
        // Discarded warm-up: one plan of each scenario kind.
        for (std::size_t i = 0; i < kScenarioCount; ++i)
            (void)replay(i, nullptr);
    }

    std::uint64_t pass(Tracer *tracer) override
    {
        last_.clear();
        for (std::size_t i = 0; i < plans_.size(); ++i)
            last_.push_back(replay(i, tracer));
        return plans_.size();
    }

    void check(Checks &checks) override
    {
        checks.attempt(last_.size());
        const bool first = reference_.empty();
        for (std::size_t i = 0; i < last_.size(); ++i) {
            const std::uint64_t h = hashReplay(last_[i]);
            if (first)
                reference_.push_back(h);
            std::string why = violation(last_[i]);
            if (why.empty() && h != reference_[i])
                why = "non-deterministic replay";
            if (!why.empty())
                checks.fail(1, "fleet plan " + std::to_string(i) + " (" +
                                   specs_[i] + "): " + why);
        }
        if (first) {
            Fnv1a d;
            for (std::uint64_t h : reference_)
                d.u64(h);
            digest_ = d.value();
        }
    }

    void selfCheck(Checks &checks) override
    {
        for (std::size_t i = 0; i < last_.size(); ++i) {
            const auto &f = last_[i].result.fleet;
            checks.require(f.availability < 1.0 || f.host_stalls > 0 ||
                               f.stall_time > 0.0,
                           "fleet plan " + std::to_string(i) + " (" +
                               specs_[i] +
                               ") left no trace: availability 1, no stall");
        }
    }

    std::uint64_t digest() const override { return digest_; }

    std::uint64_t minTracedOps() const override { return kMinTracedReplays; }

    void layerPass(Tracer &tracer, Checks &checks) override
    {
        // The plan one healthy host replays: the largest per-host share.
        const hilos::FleetEngine healthy(sys_, shape_);
        const std::vector<bool> alive(kHosts, true);
        hilos::RunConfig host_run = run_;
        host_run.batch =
            healthy.scheduler().place(run_, run_.batch, alive).maxHostBatch();
        const hilos::StepPlan plan =
            hilos::HilosEngine(sys_, healthy.hostOptions())
                .decodeStepPlan(host_run);
        for (int i = 0; i < kHostPlanReplays; ++i) {
            hilos::PlanSimResult sim;
            {
                Span s(&tracer, "event_sim", "event_sim.simulate_plan", i);
                sim = hilos::simulatePlan(plan);
            }
            checks.require(finitePositive(sim.decode_step_time),
                           "fleet host plan replay is not finite and "
                           "positive");
        }
    }

    void layerMetrics(const Tracer &tracer, LayerValues &out) const override
    {
        const std::vector<double> parse = tracer.durationsUs("fault.parse");
        if (!parse.empty())
            out["fault.parse.us"] = median(parse);
        const std::vector<double> make = tracer.durationsUs("fleet.make");
        if (!make.empty())
            out["fleet.make.us"] = median(make);
        putLatency(tracer.durationsUs("fleet.run"), "fleet.run", "us", 1.0,
                   95, out);
        putLatency(tracer.durationsUs("fleet.sim_decode_step"),
                   "fleet.sim_decode_step", "ms", 1e-3, 95, out);
        putLatency(tracer.durationsUs("event_sim.simulate_plan"),
                   "event_sim.simulate_plan", "us", 1.0, 99, out);
        double epochs = 0, failed = 0, rebuild = 0;
        for (const Replay &r : last_) {
            epochs += static_cast<double>(r.result.fleet.epochs.size());
            failed += r.result.fleet.hosts_failed;
            rebuild += r.result.fleet.rebuild_bytes;
        }
        out["fleet.epochs"] = epochs;
        out["fleet.hosts_failed"] = failed;
        out["fleet.rebuild_gib"] = rebuild / static_cast<double>(1ull << 30);
    }

    void report(std::ostream &os) const override
    {
        double avail = 0;
        for (const Replay &r : last_)
            avail += r.result.fleet.availability;
        os << "fleet_replay: " << last_.size() << " plans per pass over "
           << kScenarioCount << " scenario kinds, mean availability "
           << (last_.empty() ? 0.0 : avail / last_.size()) << "\n";
    }

  private:
    Replay replay(std::size_t i, Tracer *tracer) const
    {
        const auto op = static_cast<std::int64_t>(i);
        Span op_span(tracer, "bench", "op.fleet_replay", op);
        Replay rep;
        try {
            hilos::FleetConfig fc = shape_;
            fc.fault_plan = plans_[i];
            std::unique_ptr<hilos::FleetEngine> fe;
            {
                Span s(tracer, "fleet", "fleet.make", op);
                fe = std::make_unique<hilos::FleetEngine>(sys_, fc);
            }
            {
                Span s(tracer, "fleet", "fleet.run", op);
                rep.result = fe->run(run_);
            }
            const hilos::RunResult &a = rep.result;
            const bool epochs = !a.fleet.epochs.empty();
            const double t0 =
                epochs ? double(a.fleet.epochs.front().start) : 0.0;
            const double ideal = epochs
                                     ? double(a.fleet.epochs.front().step_time)
                                     : double(a.decode_step_time);
            {
                Span s(tracer, "fleet", "fleet.sim_decode_step", op);
                rep.early = fe->simulatedDecodeStep(run_, t0) / ideal;
            }
            if (a.fleet.degraded_step_time > 0.0) {
                Span s(tracer, "fleet", "fleet.sim_decode_step", op);
                rep.late = fe->simulatedDecodeStep(run_, a.total_time + 1.0) /
                           a.fleet.degraded_step_time;
            }
        } catch (const std::exception &e) {
            rep.error = e.what();
        }
        return rep;
    }

    hilos::SystemConfig sys_;
    hilos::FleetConfig shape_;
    hilos::RunConfig run_;
    std::vector<std::string> specs_;
    std::vector<hilos::FaultPlan> plans_;
    std::vector<Replay> last_;
    std::vector<std::uint64_t> reference_;
    std::uint64_t digest_ = 0;
};

}  // namespace

std::unique_ptr<Workload>
makeFleetReplayWorkload()
{
    return std::make_unique<FleetReplayWorkload>();
}

}  // namespace perfbench
