/**
 * @file
 * Tests for the workload generators: request classes, the retrieval-F1
 * scoring pipeline, and the needle-task construction properties.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "llm/attention_ref.h"
#include "llm/workload.h"

namespace hilos {
namespace {

TEST(Requests, AzureClassesMatchPaper)
{
    const Request s = makeRequest(RequestClass::Small);
    EXPECT_EQ(s.input_tokens, 256u);
    EXPECT_EQ(s.output_tokens, 100u);
    const Request m = makeRequest(RequestClass::Medium);
    EXPECT_EQ(m.input_tokens, 1024u);
    EXPECT_EQ(m.output_tokens, 350u);
    const Request l = makeRequest(RequestClass::Long);
    EXPECT_EQ(l.input_tokens, 8192u);
    EXPECT_EQ(l.output_tokens, 350u);
}

TEST(Requests, BatchIsHomogeneous)
{
    const auto batch = makeBatch(RequestClass::Medium, 16);
    EXPECT_EQ(batch.size(), 16u);
    for (const auto &r : batch)
        EXPECT_EQ(r.input_tokens, 1024u);
}

TEST(Requests, ClassNamesPrintable)
{
    EXPECT_NE(requestClassName(RequestClass::Long).find("8K"),
              std::string::npos);
}

TEST(RetrievalF1, PerfectMatch)
{
    EXPECT_DOUBLE_EQ(retrievalF1({1, 2, 3}, {3, 2, 1}), 1.0);
}

TEST(RetrievalF1, Disjoint)
{
    EXPECT_DOUBLE_EQ(retrievalF1({1, 2}, {3, 4}), 0.0);
}

TEST(RetrievalF1, PartialOverlap)
{
    // truth {1,2,3,4}, predicted {3,4,5,6}: tp=2, p=0.5, r=0.5 -> F1 0.5.
    EXPECT_DOUBLE_EQ(retrievalF1({1, 2, 3, 4}, {3, 4, 5, 6}), 0.5);
}

TEST(RetrievalF1, EmptyCases)
{
    EXPECT_DOUBLE_EQ(retrievalF1({}, {}), 1.0);
    EXPECT_DOUBLE_EQ(retrievalF1({1}, {}), 0.0);
    EXPECT_DOUBLE_EQ(retrievalF1({}, {1}), 0.0);
}

TEST(NeedleTask, ShapesAndPlacement)
{
    Rng rng(1);
    NeedleTaskConfig cfg;
    cfg.context_len = 512;
    cfg.head_dim = 32;
    cfg.needles = 6;
    cfg.d_group = 2;
    const NeedleTask task = makeNeedleTask(cfg, rng);
    EXPECT_EQ(task.keys.rows(), 512u);
    EXPECT_EQ(task.queries.rows(), 2u);
    EXPECT_EQ(task.needles.size(), 6u);
    EXPECT_TRUE(std::is_sorted(task.needles.begin(), task.needles.end()));
    for (auto n : task.needles)
        EXPECT_LT(n, 512u);
}

TEST(NeedleTask, NeedleScoresExceedDistractors)
{
    Rng rng(2);
    NeedleTaskConfig cfg;
    cfg.context_len = 1024;
    cfg.head_dim = 64;
    cfg.needles = 4;
    cfg.needle_gain = 6.0f;
    const NeedleTask task = makeNeedleTask(cfg, rng);
    // Needle dot products ~ gain; distractors ~ N(0, 1).
    for (auto n : task.needles) {
        float dot = 0;
        for (std::size_t c = 0; c < 64; c++)
            dot += task.queries.at(0, c) * task.keys.at(n, c);
        EXPECT_GT(dot, 4.0f);
    }
}

TEST(NeedleTask, ExactAttentionRecoversAllNeedles)
{
    Rng rng(3);
    NeedleTaskConfig cfg;
    cfg.context_len = 2048;
    cfg.head_dim = 64;
    cfg.needles = 8;
    cfg.needle_gain = 5.0f;
    const NeedleTask task = makeNeedleTask(cfg, rng);
    const Matrix out =
        naiveAttention(task.queries, task.keys, task.values, 1.0f);
    const auto predicted = recoveredNeedles(out, task.needles);
    EXPECT_DOUBLE_EQ(retrievalF1(task.needles, predicted), 1.0);
}

TEST(NeedleTask, MissedNeedleShowsUpAsFalsePositive)
{
    // Construct an output where the last needle dimension carries no
    // mass: the recovered set must contain a non-truth sentinel.
    Matrix out(1, 8);
    out.at(0, 0) = 0.5f;
    out.at(0, 1) = 0.4f;
    // dim 2 (= needle 2's id) is zero; noise dim 5 is higher.
    out.at(0, 5) = 0.1f;
    const std::vector<std::size_t> needles = {100, 200, 300};
    const auto predicted = recoveredNeedles(out, needles);
    EXPECT_EQ(predicted.size(), 3u);
    const double f1 = retrievalF1(needles, predicted);
    EXPECT_NEAR(f1, 2.0 / 3.0, 1e-9);
}

TEST(NeedleTask, TooManyNeedlesDie)
{
    Rng rng(4);
    NeedleTaskConfig cfg;
    cfg.head_dim = 8;
    cfg.needles = 9;  // > head_dim: one-hot ids impossible
    EXPECT_DEATH(makeNeedleTask(cfg, rng), "needle");
}

}  // namespace
}  // namespace hilos
