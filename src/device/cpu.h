/**
 * @file
 * Host CPU model.
 *
 * The baselines offload decoding attention to the CPU (§6.1), and HILOS
 * uses the CPU to precompute partial QK^T scores for buffered KV entries
 * (§4.3). CPU attention is memory-bandwidth-bound; the model is a
 * roofline over DRAM bandwidth and an AVX-512 FLOPS peak.
 */

#ifndef HILOS_DEVICE_CPU_H_
#define HILOS_DEVICE_CPU_H_

#include <string>

#include "common/units.h"

namespace hilos {

/** Host CPU parameters (Xeon Gold 6342 preset). */
struct CpuConfig {
    std::string name = "xeon-6342";
    unsigned cores = 24;
    FlopRate fp32_peak = tflops(2.4);        ///< AVX-512 FMA across cores
    Bandwidth dram_bandwidth = gbps(160); ///< effective 8ch DDR4-3200
    /**
     * Achieved fraction of peak on the offloaded attention kernel. The
     * baselines' CPU attention (torch CPU kernels over per-head slices)
     * lands far below stream bandwidth in practice.
     */
    double attention_efficiency = 0.25;
    Watts tdp = 230.0;
    Watts idle_power = 80.0;
};

/** Roofline time oracle for CPU-side kernels. */
class Cpu
{
  public:
    explicit Cpu(const CpuConfig &cfg);

    /** Roofline time for `flops` over `bytes` of DRAM traffic. */
    Seconds kernelTime(Flops flops, Bytes bytes) const;

    /** Memory-bound time (streams `bytes` once). */
    Seconds memoryTime(Bytes bytes) const;

    /** Compute-bound time. */
    Seconds computeTime(Flops flops) const;

  private:
    CpuConfig cfg_;
};

/** Intel Xeon Gold 6342 (24C/48T) preset from Table 1. */
CpuConfig xeon6342Config();

}  // namespace hilos

#endif  // HILOS_DEVICE_CPU_H_
