/**
 * @file
 * Tests for the KV-cache / X-cache containers and the batch-head slice
 * partitioning across NSP devices.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "common/random.h"
#include "llm/kv_cache.h"
#include "llm/tensor.h"

namespace hilos {
namespace {

std::vector<Half>
halfRow(std::size_t d, float base)
{
    std::vector<Half> row(d);
    for (std::size_t i = 0; i < d; i++)
        row[i] = Half(base + static_cast<float>(i));
    return row;
}

/** Bytes a slice holds (K + V), read through its matrix views. */
std::size_t
sliceBytes(const KvCache &cache, const SliceId &id)
{
    const HalfMatrixView k = cache.keys(id), v = cache.values(id);
    return (k.rows * k.cols + v.rows * v.cols) * sizeof(Half);
}

TEST(KvCache, AppendGrowsSlices)
{
    KvCache cache(2, 3, 4);
    const SliceId id{1, 2};
    EXPECT_EQ(cache.length(id), 0u);
    const auto k = halfRow(4, 1.0f), v = halfRow(4, 10.0f);
    cache.append(id, k.data(), v.data());
    cache.append(id, k.data(), v.data());
    EXPECT_EQ(cache.length(id), 2u);
    EXPECT_EQ(cache.length(SliceId{0, 0}), 0u);
}

TEST(KvCache, ViewsExposeRowWiseLayout)
{
    KvCache cache(1, 1, 4);
    const SliceId id{0, 0};
    cache.append(id, halfRow(4, 1.0f).data(), halfRow(4, 5.0f).data());
    cache.append(id, halfRow(4, 2.0f).data(), halfRow(4, 6.0f).data());
    const HalfMatrixView keys = cache.keys(id);
    EXPECT_EQ(keys.rows, 2u);
    EXPECT_EQ(keys.cols, 4u);
    EXPECT_FLOAT_EQ(keys.at(0, 0).toFloat(), 1.0f);
    EXPECT_FLOAT_EQ(keys.at(1, 0).toFloat(), 2.0f);
    EXPECT_FLOAT_EQ(cache.values(id).at(1, 3).toFloat(), 9.0f);
}

TEST(KvCache, ByteAccounting)
{
    KvCache cache(2, 2, 8);
    const auto k = halfRow(8, 0.0f), v = halfRow(8, 0.0f);
    cache.append(SliceId{0, 0}, k.data(), v.data());
    cache.append(SliceId{1, 1}, k.data(), v.data());
    cache.append(SliceId{1, 1}, k.data(), v.data());
    EXPECT_EQ(sliceBytes(cache, SliceId{0, 0}), 2u * 8 * 2);
    EXPECT_EQ(sliceBytes(cache, SliceId{1, 1}), 2u * 2 * 8 * 2);
    EXPECT_EQ(sliceBytes(cache, SliceId{0, 1}), 0u);
}

TEST(KvCache, OutOfRangeSliceDies)
{
    KvCache cache(2, 2, 4);
    const auto k = halfRow(4, 0.0f);
    EXPECT_DEATH(cache.append(SliceId{2, 0}, k.data(), k.data()),
                 "range");
}

TEST(XCacheStore, HoldsHalfTheKvBytes)
{
    // X (s x h) is half of K+V (2 x s x h) for MHA widths.
    const std::size_t hidden = 16;
    XCacheStore xcache(1, hidden);
    KvCache kv(1, 1, hidden);
    const auto row = halfRow(hidden, 1.0f);
    for (int i = 0; i < 10; i++) {
        xcache.append(0, row.data());
        kv.append(SliceId{0, 0}, row.data(), row.data());
    }
    const HalfMatrixView x = xcache.activations(0);
    EXPECT_EQ(2 * x.rows * x.cols * sizeof(Half),
              sliceBytes(kv, SliceId{0, 0}));
}

TEST(XCacheStore, ActivationViewHasHiddenColumns)
{
    XCacheStore xcache(2, 8);
    const auto row = halfRow(8, 3.0f);
    xcache.append(1, row.data());
    const HalfMatrixView view = xcache.activations(1);
    EXPECT_EQ(view.rows, 1u);
    EXPECT_EQ(view.cols, 8u);
    EXPECT_EQ(xcache.length(0), 0u);
}

/** Slices each of `devices` devices owns, counted through deviceOf. */
std::vector<std::size_t>
deviceLoads(const SlicePartition &part, std::uint32_t batches,
            std::uint32_t kv_heads, std::size_t devices)
{
    std::vector<std::size_t> load(devices, 0);
    for (std::uint32_t b = 0; b < batches; b++) {
        for (std::uint32_t h = 0; h < kv_heads; h++) {
            const std::size_t dev = part.deviceOf(SliceId{b, h});
            EXPECT_LT(dev, devices);
            if (dev < devices)
                load[dev]++;
        }
    }
    return load;
}

TEST(SlicePartition, CoversAllSlicesExactlyOnce)
{
    const SlicePartition part(4, 6, 5);
    const std::vector<std::size_t> load = deviceLoads(part, 4, 6, 5);
    EXPECT_EQ(std::accumulate(load.begin(), load.end(), std::size_t{0}),
              24u);
    // Round-robin in (batch, kv-head) order.
    EXPECT_EQ(part.deviceOf(SliceId{0, 4}), 4u);
    EXPECT_EQ(part.deviceOf(SliceId{0, 5}), 0u);
    EXPECT_EQ(part.deviceOf(SliceId{1, 0}), 1u);
    EXPECT_DEATH(part.deviceOf(SliceId{4, 0}), "range");
}

TEST(SlicePartition, BalancedWithinOne)
{
    const SlicePartition part(16, 96, 7);
    const std::vector<std::size_t> load = deviceLoads(part, 16, 96, 7);
    const auto [lo, hi] = std::minmax_element(load.begin(), load.end());
    EXPECT_LE(*hi - *lo, 1u);
    EXPECT_EQ(*hi, 220u);  // ceil(16 * 96 / 7)
}

TEST(SlicePartition, SingleDeviceOwnsEverything)
{
    const SlicePartition part(3, 4, 1);
    EXPECT_EQ(deviceLoads(part, 3, 4, 1).front(), 12u);
}

}  // namespace
}  // namespace hilos
