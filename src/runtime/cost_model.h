/**
 * @file
 * Shared per-layer cost primitives used by every inference engine:
 * weight staging, GPU projection/MLP kernels, CPU attention, prefill
 * compute, and memory-footprint arithmetic (Fig. 2(a)).
 *
 * All quantities are for one transformer layer of one decoding step
 * unless stated otherwise; engines compose them (overlapped vs serial)
 * according to their execution schedule.
 */

#ifndef HILOS_RUNTIME_COST_MODEL_H_
#define HILOS_RUNTIME_COST_MODEL_H_

#include <cstdint>

#include "common/units.h"
#include "device/cpu.h"
#include "device/gpu.h"
#include "llm/model_config.h"

namespace hilos {

/**
 * The representative context length of a decode step, halfway through
 * generation: `context_len + output_len / 2` (integer halving, so odd
 * output lengths round down). Every engine prices its decode-step
 * costs at this mid-generation point; sharing the helper keeps the
 * engines agreeing by construction instead of by copy-paste.
 */
std::uint64_t midGenerationContext(std::uint64_t context_len,
                                   std::uint64_t output_len);

/** Where model weights reside between uses. */
enum class WeightHome {
    HostDram,  ///< staged host DRAM -> GPU over PCIe each layer
    Storage,   ///< streamed storage -> host -> GPU each layer
};

/**
 * Weight placement policy from §6.1: weights live in host DRAM when
 * they fit alongside a working margin; >100B-parameter models spill to
 * storage.
 */
WeightHome chooseWeightHome(const ModelConfig &model,
                            std::uint64_t dram_capacity);

/**
 * Time to stage one layer's weights to the GPU.
 *
 * @param pci_bw host->GPU link bandwidth
 * @param storage_bw storage read bandwidth (used when home == Storage;
 *        the slower of the two hops binds)
 */
Seconds weightLoadTime(const ModelConfig &model, std::uint64_t batch,
                       WeightHome home, Bandwidth pci_bw,
                       Bandwidth storage_bw);

/** GPU time of the QKV projection for `batch` decode tokens. */
Seconds qkvProjTime(const Gpu &gpu, const ModelConfig &model,
                    std::uint64_t batch);

/** GPU time of the MLP (+output projection) for `batch` decode tokens. */
Seconds mlpTime(const Gpu &gpu, const ModelConfig &model,
                std::uint64_t batch);

/**
 * CPU attention over the full KV cache of one layer: `batch` sequences
 * of `context` tokens (the baselines' decode-attention placement).
 */
Seconds cpuAttentionTime(const Cpu &cpu, const ModelConfig &model,
                         std::uint64_t batch, std::uint64_t context);

/**
 * GPU attention over one layer's KV held in device memory (vLLM-style
 * or the X-cache regenerated portion); memory-bound.
 */
Seconds gpuAttentionTime(const Gpu &gpu, const ModelConfig &model,
                         std::uint64_t batch, std::uint64_t context);

/**
 * GPU compute time of prefilling one layer: projections/MLP GEMMs over
 * `context` tokens plus FlashAttention over the prompt.
 */
// lint: reference (tests check a one-chunk prefill costs exactly this)
Seconds prefillComputeTime(const Gpu &gpu, const ModelConfig &model,
                           std::uint64_t batch, std::uint64_t context);

/**
 * GPU compute time of prefilling prompt tokens [start, end) of one
 * layer: the incremental GEMM + causal-attention flops between the two
 * prefix lengths, re-streaming the layer weights once (each chunk makes
 * its own pass over the model). `start == 0, end == context` reproduces
 * prefillComputeTime() bit-for-bit, so a single chunk is the monolithic
 * prefill.
 */
Seconds prefillChunkComputeTime(const Gpu &gpu, const ModelConfig &model,
                                std::uint64_t batch, std::uint64_t start,
                                std::uint64_t end);

/** KV bytes of one layer's full cache (batch x context). */
Bytes kvLayerBytes(const ModelConfig &model, std::uint64_t batch,
                    std::uint64_t context);

/** New KV bytes appended per decode step for one layer. */
Bytes kvStepBytes(const ModelConfig &model, std::uint64_t batch);

/** Memory-footprint summary behind Fig. 2(a). */
struct MemoryFootprint {
    Bytes weights_bytes = 0;
    Bytes kv_bytes = 0;          ///< at full context + output
    Bytes activation_bytes = 0;  ///< peak decode activations
    Bytes total() const
    {
        return weights_bytes + kv_bytes + activation_bytes;
    }
};

/** Footprint of a run at sequence length `total_seq`. */
MemoryFootprint memoryFootprint(const ModelConfig &model,
                                std::uint64_t batch,
                                std::uint64_t total_seq);

}  // namespace hilos

#endif  // HILOS_RUNTIME_COST_MODEL_H_
