/**
 * @file
 * Workload generators.
 *
 * Two kinds of workloads drive the evaluation:
 *  - request mixes for throughput/endurance experiments, derived from
 *    the Azure LLM-inference statistics the paper cites (Fig. 16(b)):
 *    Small (256 in / 100 out), Medium (1K/350), Long (8K/350);
 *  - synthetic long-context retrieval ("needle") tasks for the accuracy
 *    comparison (Fig. 18(c)), where ground truth is known by
 *    construction so retrieval F1 can be computed exactly.
 */

#ifndef HILOS_LLM_WORKLOAD_H_
#define HILOS_LLM_WORKLOAD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/units.h"
#include "llm/tensor.h"

namespace hilos {

/** Azure-statistics-derived request classes (Fig. 16(b)). */
enum class RequestClass {
    Small,   ///< 256 input / 100 output tokens
    Medium,  ///< 1K input / 350 output tokens
    Long,    ///< 8K input / 350 output tokens
};

/** One inference request. */
struct Request {
    RequestClass cls = RequestClass::Small;
    std::uint64_t input_tokens = 0;
    std::uint64_t output_tokens = 0;
    /** Arrival time in an online stream; 0 for offline batch sets. */
    Seconds arrival = 0.0;
};

/** Canonical (input, output) lengths of a request class. */
Request makeRequest(RequestClass cls);

/** Printable class name. */
std::string requestClassName(RequestClass cls);

/**
 * A batch of homogeneous requests (offline batching groups requests of
 * similar length).
 */
std::vector<Request> makeBatch(RequestClass cls, std::size_t count);

/**
 * Synthetic retrieval task: a long context with `needles` planted
 * relevant tokens. Exact attention recovers all planted values;
 * lossy retrieval misses some, lowering F1.
 */
struct NeedleTask {
    Matrix queries;                    ///< g x d query block
    Matrix keys;                       ///< s x d keys
    Matrix values;                     ///< s x d values
    std::vector<std::size_t> needles;  ///< planted relevant indices
};

/** Parameters of the needle-retrieval generator. */
struct NeedleTaskConfig {
    std::size_t context_len = 4096;
    std::size_t head_dim = 64;
    std::size_t d_group = 1;
    std::size_t needles = 8;
    /** Needle score margin over distractors, in key-norm units. */
    float needle_gain = 2.0f;
    /** Standard deviation of distractor keys. */
    float noise_sigma = 1.0f;
};

/**
 * Generate one needle task. Each planted needle's value vector is the
 * one-hot basis vector of its needle id, so the exact-attention output
 * carries equal probability mass on every needle dimension; a retrieval
 * scheme that misses a needle zeroes that dimension.
 */
NeedleTask makeNeedleTask(const NeedleTaskConfig &cfg, Rng &rng);

/**
 * Score a predicted needle set against ground truth.
 * @return F1 in [0, 1]
 */
double retrievalF1(const std::vector<std::size_t> &truth,
                   const std::vector<std::size_t> &predicted);

/**
 * Needle set recovered from an attention output: dimensions whose mass
 * exceeds half the ideal per-needle share count as retrieved.
 *
 * @param output g x d attention output
 * @param needles ground-truth needle indices (for id -> dim mapping)
 */
std::vector<std::size_t> recoveredNeedles(
    const Matrix &output, const std::vector<std::size_t> &needles);

}  // namespace hilos

#endif  // HILOS_LLM_WORKLOAD_H_
