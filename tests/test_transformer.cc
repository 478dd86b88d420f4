/**
 * @file
 * Tests for the functional transformer layer: the three attention
 * execution paths (reference / near-storage / X-cache) must agree step
 * by step, including under GQA, RoPE, and spill boundaries — the
 * system-level lossless claim.
 */

#include <gtest/gtest.h>

#include <ostream>
#include <tuple>

#include "common/random.h"
#include "llm/transformer.h"

namespace hilos {
namespace {

struct PathCase {
    const char *label;
    LayerShape shape;
    std::size_t batches;
    std::size_t prompt;
    std::size_t steps;
    std::size_t spill;
};

// Names the case by its label. Without it GoogleTest prints the raw
// bytes of the struct, padding included, and the ctest names found by
// gtest_discover_tests change from build to build.
void
PrintTo(const PathCase &pc, std::ostream *os)
{
    *os << pc.label;
}

class TransformerPaths : public ::testing::TestWithParam<PathCase>
{
};

TEST_P(TransformerPaths, AllPathsAgree)
{
    const PathCase pc = GetParam();
    Rng rng(1234);
    const LayerWeights weights = LayerWeights::random(pc.shape, rng);

    // Three identical layers, one per path (decode mutates cache state,
    // so each path owns its own instance fed identical inputs).
    TransformerLayer ref(pc.shape, weights, pc.batches, pc.spill);
    TransformerLayer nsp(pc.shape, weights, pc.batches, pc.spill);
    TransformerLayer xc(pc.shape, weights, pc.batches, pc.spill);

    const Matrix prompt = Matrix::random(pc.batches * pc.prompt,
                                         pc.shape.hidden, rng, 0.5f);
    ref.prefill(prompt, pc.prompt);
    nsp.prefill(prompt, pc.prompt);
    xc.prefill(prompt, pc.prompt);

    for (std::size_t step = 0; step < pc.steps; step++) {
        const Matrix x =
            Matrix::random(pc.batches, pc.shape.hidden, rng, 0.5f);
        const Matrix out_ref = ref.decode(x, AttentionPath::Reference);
        const Matrix out_nsp = nsp.decode(x, AttentionPath::NearStorage);
        const Matrix out_xc = xc.decode(x, AttentionPath::XCache);

        // FP16 storage bounds the deviation; outputs are O(1).
        EXPECT_LT(out_ref.maxAbsDiff(out_nsp), 2e-2f)
            << "step " << step << " (near-storage)";
        EXPECT_LT(out_ref.maxAbsDiff(out_xc), 2e-2f)
            << "step " << step << " (x-cache)";
    }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, TransformerPaths,
    ::testing::Values(
        // MHA, no RoPE, spills mid-run.
        PathCase{"mha", LayerShape{64, 4, 4, 128, false, 4096},
                 2, 40, 20, 16},
        // GQA (d_group 2), no RoPE.
        PathCase{"gqa", LayerShape{64, 4, 2, 128, false, 4096},
                 2, 32, 12, 8},
        // MHA with RoPE: X-cache must re-rotate regenerated keys.
        PathCase{"mha_rope", LayerShape{32, 2, 2, 64, true, 4096},
                 1, 24, 10, 4},
        // GQA with RoPE (the Qwen-style configuration).
        PathCase{"gqa_rope", LayerShape{64, 4, 2, 96, true, 4096},
                 2, 16, 18, 16},
        // Spill interval 1: every entry commits immediately.
        PathCase{"spill_every_entry", LayerShape{32, 2, 2, 64, false, 4096},
                 1, 8, 6, 1}));

TEST(Transformer, PrefillPopulatesAllCaches)
{
    LayerShape shape{32, 2, 2, 64, false, 4096};
    Rng rng(9);
    TransformerLayer layer(shape, LayerWeights::random(shape, rng), 2);
    const Matrix prompt = Matrix::random(2 * 10, 32, rng, 0.5f);
    const Matrix out = layer.prefill(prompt, 10);
    EXPECT_EQ(out.rows(), 20u);
}

TEST(Transformer, DecodeBuffersUntilSpill)
{
    LayerShape shape{32, 2, 2, 64, false, 4096};
    Rng rng(10);
    TransformerLayer layer(shape, LayerWeights::random(shape, rng), 1,
                           /*spill_interval=*/4);
    const Matrix prompt = Matrix::random(6, 32, rng, 0.5f);
    layer.prefill(prompt, 6);
    for (int step = 0; step < 3; step++) {
        const Matrix x = Matrix::random(1, 32, rng, 0.5f);
        layer.decode(x, AttentionPath::NearStorage);
        EXPECT_EQ(layer.buffered(0), static_cast<std::size_t>(step + 1));
    }
    const Matrix x = Matrix::random(1, 32, rng, 0.5f);
    layer.decode(x, AttentionPath::NearStorage);  // 4th entry spills
    EXPECT_EQ(layer.buffered(0), 0u);
}

TEST(Transformer, RopeChangesOutputs)
{
    // Sanity: enabling RoPE must actually change the computation.
    LayerShape plain{32, 2, 2, 64, false, 4096};
    LayerShape roped{32, 2, 2, 64, true, 4096};
    Rng rng(11);
    const LayerWeights weights = LayerWeights::random(plain, rng);
    TransformerLayer a(plain, weights, 1);
    TransformerLayer b(roped, weights, 1);
    const Matrix prompt = Matrix::random(8, 32, rng, 0.5f);
    a.prefill(prompt, 8);
    b.prefill(prompt, 8);
    const Matrix x = Matrix::random(1, 32, rng, 0.5f);
    const Matrix ya = a.decode(x, AttentionPath::Reference);
    const Matrix yb = b.decode(x, AttentionPath::Reference);
    EXPECT_GT(ya.maxAbsDiff(yb), 1e-4f);
}

TEST(Transformer, PathsCanAlternatePerStep)
{
    // One layer instance, switching paths step to step: the caches stay
    // in sync, so any path remains valid at any step.
    LayerShape shape{32, 2, 1, 64, false, 4096};
    Rng rng(12);
    const LayerWeights weights = LayerWeights::random(shape, rng);
    TransformerLayer layer(shape, weights, 1, 4);
    TransformerLayer oracle(shape, weights, 1, 4);
    const Matrix prompt = Matrix::random(12, 32, rng, 0.5f);
    layer.prefill(prompt, 12);
    oracle.prefill(prompt, 12);

    const AttentionPath cycle[] = {AttentionPath::NearStorage,
                                   AttentionPath::XCache,
                                   AttentionPath::Reference,
                                   AttentionPath::NearStorage};
    for (AttentionPath path : cycle) {
        const Matrix x = Matrix::random(1, 32, rng, 0.5f);
        const Matrix got = layer.decode(x, path);
        const Matrix want = oracle.decode(x, AttentionPath::Reference);
        EXPECT_LT(got.maxAbsDiff(want), 2e-2f);
    }
}

TEST(Model, TokenOutputsIdenticalAcrossPaths)
{
    // The paper artifact's functional check: greedy token ids must
    // match whichever attention path runs each step.
    LayerShape shape{32, 2, 2, 64, true, 4096};
    const std::size_t vocab = 64, batches = 2, prompt_len = 12;
    Rng seed(2026);
    TransformerModel ref(shape, 3, vocab, batches, seed, 4);
    Rng seed2(2026);
    TransformerModel nsp(shape, 3, vocab, batches, seed2, 4);
    Rng seed3(2026);
    TransformerModel xc(shape, 3, vocab, batches, seed3, 4);

    Rng prompt_rng(7);
    std::vector<std::vector<std::uint32_t>> prompt(batches);
    for (auto &seq : prompt)
        for (std::size_t t = 0; t < prompt_len; t++)
            seq.push_back(static_cast<std::uint32_t>(
                prompt_rng.uniformInt(0, vocab - 1)));
    ref.prefill(prompt);
    nsp.prefill(prompt);
    xc.prefill(prompt);

    const auto t_ref = ref.generate(16, AttentionPath::Reference);
    const auto t_nsp = nsp.generate(16, AttentionPath::NearStorage);
    const auto t_xc = xc.generate(16, AttentionPath::XCache);
    EXPECT_EQ(t_ref, t_nsp);
    EXPECT_EQ(t_ref, t_xc);
}

TEST(Model, GenerationIsDeterministic)
{
    LayerShape shape{32, 2, 1, 64, false, 4096};
    Rng a(5), b(5);
    TransformerModel m1(shape, 2, 32, 1, a);
    TransformerModel m2(shape, 2, 32, 1, b);
    const std::vector<std::vector<std::uint32_t>> prompt = {
        {1, 2, 3, 4, 5}};
    m1.prefill(prompt);
    m2.prefill(prompt);
    EXPECT_EQ(m1.generate(8, AttentionPath::Reference),
              m2.generate(8, AttentionPath::Reference));
}

TEST(Model, BadTokenIdsDie)
{
    LayerShape shape{32, 2, 1, 64, false, 4096};
    Rng rng(6);
    TransformerModel model(shape, 1, 16, 1, rng);
    EXPECT_DEATH(model.prefill({{99}}), "vocab");
}

TEST(Transformer, BadInputShapesDie)
{
    LayerShape shape{32, 2, 2, 64, false, 4096};
    Rng rng(13);
    TransformerLayer layer(shape, LayerWeights::random(shape, rng), 2);
    const Matrix wrong(1, 32);
    EXPECT_DEATH(layer.decode(wrong, AttentionPath::Reference),
                 "batches");
}

}  // namespace
}  // namespace hilos
