/**
 * @file
 * Block-level kernel simulator.
 *
 * Replays one attention-kernel invocation block by block with
 * integer-cycle unit latencies, burst-granular DRAM transfers (with
 * command latency), periodic DDR refresh stalls, a fixed launch
 * overhead, and an optional deterministic measurement-noise model.
 * This is the "measured hardware" stand-in that validates the smooth
 * analytic estimator (§5.1's Pearson-0.93 experiment) — the two models
 * share calibration but differ structurally, so their correlation is a
 * meaningful check rather than an identity.
 */

#ifndef HILOS_ACCEL_KERNEL_SIM_H_
#define HILOS_ACCEL_KERNEL_SIM_H_

#include <cstddef>

#include "accel/cycle_model.h"
#include "common/units.h"

namespace hilos {

/** Simulator knobs beyond the shared CycleModelConfig. */
struct KernelSimConfig {
    CycleModelConfig hw;              ///< shared hardware parameters
    Seconds launch_overhead = 5e-6;   ///< kernel start / doorbell
    Seconds dram_command_latency = 200e-9;
    Seconds refresh_stall = 350e-9;   ///< per tREFI window
    Seconds refresh_interval = 3.9e-6;
    double pipeline_fill_cycles = 12; ///< per-block unit latency
    /**
     * Deterministic multiplicative run-to-run variation (0 disables);
     * models host scheduling / SSD interference on the real device.
     */
    double measurement_noise = 0.0;
};

/**
 * Block-granular replay of the attention kernel.
 */
class KernelSimulator
{
  public:
    explicit KernelSimulator(const KernelSimConfig &cfg = KernelSimConfig{});

    /** Simulated execution time of one kernel invocation. */
    Seconds simulate(std::size_t s, std::size_t d,
                     std::size_t d_group) const;

  private:
    KernelSimConfig cfg_;
};

}  // namespace hilos

#endif  // HILOS_ACCEL_KERNEL_SIM_H_
