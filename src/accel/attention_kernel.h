/**
 * @file
 * The full near-storage attention kernel (§4.4, Figure 7(a)).
 *
 * Composes the four pipelined hardware units — QK GEMV with online
 * transpose, softmax statistics aggregation, softmax normalisation, and
 * score-V GEMV — into the decode-time attention the FPGA executes per
 * (batch, KV head):
 *
 *   out = softmax(Q K^T / sqrt(d) ++ host_partial_scores) @ (V ++ V_buf)
 *
 * where `host_partial_scores` are the CPU-precomputed QK^T scalars for
 * KV entries still buffered in host memory (delayed writeback, §4.3) and
 * `V_buf` their value vectors, appended after the stored context.
 *
 * With group-query attention, d_group query heads share the stored K/V
 * stream; all group lanes are processed concurrently against one pass
 * over the data (native GQA support).
 */

#ifndef HILOS_ACCEL_ATTENTION_KERNEL_H_
#define HILOS_ACCEL_ATTENTION_KERNEL_H_

#include <cstdint>
#include <vector>

#include "accel/gemv.h"
#include "accel/softmax.h"
#include "common/half.h"

namespace hilos {

/** Static kernel configuration (mirrors the synthesised design). */
struct AttentionKernelConfig {
    std::size_t block_tokens = 128;  ///< temporal block height
    std::size_t d_group = 1;         ///< query heads per KV head (GQA)
    std::size_t mac_units = 128;     ///< MAC lanes (128 saturates DRAM)
    /** AXI bursts are 32 halves wide; sequences pad to multiples of 32. */
    std::size_t burst_elems = 32;
};

/** One decode-attention invocation for a single (batch, KV-head) pair. */
struct AttentionRequest {
    /** d_group x d query block (FP16). */
    HalfMatrixView queries;
    /** s x d stored keys (FP16, row-wise layout). */
    HalfMatrixView keys;
    /** s x d stored values (FP16, row-wise layout). */
    HalfMatrixView values;
    /** Number of valid context tokens (<= keys.rows; rest is padding). */
    std::size_t valid_len = 0;
    /**
     * First attended stored token (sliding-window attention variants,
     * §5.1): positions < window_start mask out. 0 = full attention.
     */
    std::size_t window_start = 0;
    /**
     * Attention sinks kept in front of the window (StreamingLLM-style
     * variants): positions < sink_tokens stay attended even when the
     * window has slid past them.
     */
    std::size_t sink_tokens = 0;
    /** 1/sqrt(d); if 0, computed from the head dimension. */
    float scale = 0.0f;

    /**
     * Host-precomputed partial QK^T scores for buffered (not yet
     * spilled) KV entries: d_group x n_buffered row-major. Already
     * scaled by 1/sqrt(d) on the host.
     */
    std::vector<float> partial_scores;
    /** Buffered value vectors: n_buffered x d (FP16). */
    HalfMatrixView buffered_values;
};

/** Kernel output plus observability counters used by tests/benches. */
struct AttentionResult {
    /** d_group x d attention outputs (FP32). */
    std::vector<float> outputs;
    /** Blocks processed (drives the cycle model). */
    std::uint64_t blocks = 0;
    /** KV bytes streamed from off-chip memory. */
    std::uint64_t kv_bytes = 0;
    /** Floating-point operations executed. */
    std::uint64_t flops = 0;
};

/**
 * Functional model of the attention accelerator.
 */
class AttentionKernel
{
  public:
    explicit AttentionKernel(const AttentionKernelConfig &cfg);

    /**
     * Execute one attention request. Validates shapes; see
     * AttentionRequest for the layout contract.
     */
    AttentionResult run(const AttentionRequest &req) const;

    /** Padded sequence length (zero-pad to burst multiples, §5.4). */
    std::size_t paddedLength(std::size_t s) const;

  private:
    AttentionKernelConfig cfg_;
    TwoPassSoftmax softmax_;
};

}  // namespace hilos

#endif  // HILOS_ACCEL_ATTENTION_KERNEL_H_
