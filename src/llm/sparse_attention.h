/**
 * @file
 * InstAttention-style lossy sparse KV retrieval (§7.1, Fig. 18(c)).
 *
 * In-storage attention offloading under tight resource budgets
 * (InstAttention, HPCA'25) retrieves only a compressed subset of the KV
 * cache: candidate tokens are ranked with a low-precision approximation
 * of the query-key scores, the top s/ratio are fetched, and exact
 * attention runs over that subset. The approximation misses relevant
 * tokens more often as context grows — the accuracy drop HILOS's
 * lossless kernel avoids.
 */

#ifndef HILOS_LLM_SPARSE_ATTENTION_H_
#define HILOS_LLM_SPARSE_ATTENTION_H_

#include <cstdint>
#include <vector>

#include "llm/tensor.h"

namespace hilos {

/** Sparse-retrieval configuration. */
struct SparseAttentionConfig {
    /** Keep s / compression_ratio tokens (InstAttention default 8). */
    std::size_t compression_ratio = 8;
    /** Bits per element of the quantised selection index. */
    unsigned selection_bits = 4;
    /** Clamp range for quantisation, in standard deviations. */
    float clip_sigma = 3.0f;
};

/** Result of one sparse-attention invocation. */
struct SparseAttentionResult {
    Matrix outputs;                     ///< g x d attention outputs
    std::vector<std::size_t> selected;  ///< retrieved token indices
};

/**
 * Lossy top-k attention: rank tokens with quantised scores, retrieve
 * the top s/ratio, run exact attention over the retrieved subset.
 */
class SparseAttention
{
  public:
    explicit SparseAttention(const SparseAttentionConfig &cfg);

    /**
     * @param queries g x d query block
     * @param keys s x d keys
     * @param values s x d values
     * @param scale score scale; 0 means 1/sqrt(d)
     */
    SparseAttentionResult run(const Matrix &queries, const Matrix &keys,
                              const Matrix &values,
                              float scale = 0.0f) const;

    /**
     * Quantise one value to `selection_bits` with symmetric clipping at
     * clip_sigma * stddev; exposed for tests.
     */
    float quantize(float v, float stddev) const;

  private:
    SparseAttentionConfig cfg_;
};

}  // namespace hilos

#endif  // HILOS_LLM_SPARSE_ATTENTION_H_
