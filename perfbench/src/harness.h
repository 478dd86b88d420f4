/**
 * @file
 * The benchmark harness: repeated set-up, closed-loop timed windows,
 * output checks outside the windows, and the result line.
 *
 * Every workload runs the same sequence in one process:
 *  1. set-up, several times; `setup_s` is the median (inputs, engine
 *     construction and a discarded warm-up);
 *  2. one discarded warm-up window, then closed-loop timed windows
 *     with tracing off: a pass starts when the previous one returns,
 *     its outputs are checked after the clock stops, and `ops_per_s`
 *     is the median over windows of ops per timed second;
 *     `setup_s` and `ops_per_s` are host time scaled to a reference
 *     machine speed, measured by a fixed kernel either side of every
 *     set-up and window, so contention from other tenants of a shared
 *     host cancels out;
 *  3. with --trace 1 only: the timed windows are split, half with
 *     spans off (for `trace.overhead_pct`) and half with spans on, then
 *     the workload's per-layer pass; the per-layer metrics come from
 *     these spans and from the simulator's own work counters.
 * Time is host time throughout, never simulated time; only `setup_s`
 * and `ops_per_s` are scaled to reference speed. Simulated results are
 * checked and hashed into `sim_digest`, never reported as metrics.
 */
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "runtime/engine.h"
#include "trace.h"

namespace perfbench {

/** Command-line options of one benchmark run. */
struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string trace_out;  ///< Chrome trace path (traced run; "" = skip)
};

/** 64-bit FNV-1a over the exact bytes fed to it. */
class Fnv1a
{
  public:
    Fnv1a &bytes(const void *p, std::size_t n)
    {
        const auto *b = static_cast<const unsigned char *>(p);
        for (std::size_t i = 0; i < n; ++i) {
            h_ ^= b[i];
            h_ *= 0x100000001b3ull;
        }
        return *this;
    }
    Fnv1a &u64(std::uint64_t v) { return bytes(&v, sizeof v); }
    Fnv1a &f64(double v)
    {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof bits);
        return u64(bits);
    }
    Fnv1a &str(const std::string &s)
    {
        u64(s.size());
        return bytes(s.data(), s.size());
    }
    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/** Hash of every canonical field of a RunResult (bit-exact doubles). */
std::uint64_t hashRunResult(const hilos::RunResult &r);

/** Finite and strictly positive. */
bool finitePositive(double v);

/** Ops attempted, ops failed, and workload-level problems. */
class Checks
{
  public:
    void attempt(std::uint64_t n) { attempted_ += n; }
    /** `n` ops failed an output check (or threw). */
    void fail(std::uint64_t n, const std::string &why);
    /** A workload-level check (self-check, digest) that is not an op. */
    void require(bool ok, const std::string &what);

    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t failed() const { return failed_; }
    bool correct() const { return failed_ == 0 && problems_ == 0; }
    /** First few failure messages, for the report. */
    const std::vector<std::string> &messages() const { return messages_; }

  private:
    void note(const std::string &what);

    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    std::uint64_t problems_ = 0;
    std::vector<std::string> messages_;
};

/** Per-layer metric values by name (missing = the layer was not run). */
using LayerValues = std::map<std::string, double>;

/** A workload as the harness drives it. */
class Workload
{
  public:
    virtual ~Workload() = default;

    /**
     * Build inputs and engines from `seed`, then run a discarded
     * warm-up. Called several times; the state of the last call is the
     * one the windows use. `tracer` is null in untraced runs.
     */
    virtual void setup(std::uint64_t seed, Tracer *tracer) = 0;

    /** One closed-loop pass (timed); returns the ops it attempted. */
    virtual std::uint64_t pass(Tracer *tracer) = 0;

    /** Check the outputs of the last pass (untimed). */
    virtual void check(Checks &checks) = 0;

    /** Checks that the workload kept its character (after all passes). */
    virtual void selfCheck(Checks &checks) = 0;

    /** FNV-1a of the canonical simulated outputs of a pass. */
    virtual std::uint64_t digest() const = 0;

    /** Traced run only: extra traced calls into the layers. */
    virtual void layerPass(Tracer &, Checks &) {}

    /** Traced run only: fill the per-layer metrics from the spans and
     *  the simulator's own counters. */
    virtual void layerMetrics(const Tracer &tracer,
                              LayerValues &out) const = 0;

    /** Traced ops needed so each named tail percentile has its
     *  samples. */
    virtual std::uint64_t minTracedOps() const { return 0; }

    /** Extra report lines (simulated-model cross-checks). */
    virtual void report(std::ostream &) const {}
};

/**
 * Record `<prefix>.<unit>_p50`, `<prefix>.<unit>_p<tail>` and
 * `<prefix>.n` from durations in microseconds, scaled by `scale` (1 for
 * us, 1e-3 for ms). Nothing is recorded when `us` is empty.
 */
void putLatency(std::vector<double> us, const std::string &prefix,
                const std::string &unit, double scale, int tail,
                LayerValues &out);

/** Median, 0 for an empty vector. */
double median(std::vector<double> v);

/** splitmix64 step: a portable seeded stream for input generation. */
std::uint64_t splitmix64(std::uint64_t &state);

/** Run the whole benchmark sequence; returns the process exit code. */
int runBenchmark(Workload &workload, const Options &opts);

/** The paper-figure grid through runGrid (sweep.cc). */
std::unique_ptr<Workload> makeSweepWorkload();
/** ServingSimulator at a saturated or a light arrival rate (serving.cc). */
std::unique_ptr<Workload> makeServingWorkload(bool saturated);
/** FleetEngine fault-plan replays (fleet.cc). */
std::unique_ptr<Workload> makeFleetReplayWorkload();

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
