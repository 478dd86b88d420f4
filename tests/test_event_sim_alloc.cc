/**
 * @file
 * Heap-allocation budget of an untraced slice replay.
 *
 * HilosEventSimulator::simulateDecodeStep visits batch x kv_heads
 * slices per layer; without a TraceRecorder none of that per-slice work
 * may touch the heap (no label strings, no stat-registry nodes). This
 * binary replaces the global operator new with a counting one, so it
 * lives in its own executable, and checks that the allocation count of
 * a whole step does not grow with the slice count.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "core/hilos.h"
#include "runtime/event_sim.h"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

void *
countedAlloc(std::size_t size)
{
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size == 0 ? 1 : size))
        return p;
    throw std::bad_alloc();
}

}  // namespace

void *
operator new(std::size_t size)
{
    return countedAlloc(size);
}

void *
operator new[](std::size_t size)
{
    return countedAlloc(size);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace hilos {
namespace {

/** Heap allocations made by one untraced decode-step replay. */
std::uint64_t
allocationsFor(const HilosEventSimulator &sim, std::uint64_t batch)
{
    RunConfig run;
    run.model = opt66b();
    run.batch = batch;
    run.context_len = 32768;
    run.output_len = 64;
    const std::uint64_t before = g_allocations.load();
    const EventSimResult r = sim.simulateDecodeStep(run, nullptr, 1.0);
    const std::uint64_t after = g_allocations.load();
    EXPECT_GT(r.decode_step_time, 0.0) << "batch " << batch;
    return after - before;
}

TEST(EventSimAllocations, UntracedCountDoesNotGrowWithSlices)
{
    // 8x the batch is 8x the slices per layer (~4.6k at batch 64 on
    // OPT-66B's 72 KV heads) and 8x the X-cache sequences.
    const HilosEventSimulator sim(defaultSystem(), HilosOptions{});
    allocationsFor(sim, 8);  // warm-up: one-time lazy statics
    const std::uint64_t small = allocationsFor(sim, 8);
    const std::uint64_t large = allocationsFor(sim, 64);
    EXPECT_GT(small, 0u);  // the counter is live
    EXPECT_EQ(small, large);
}

TEST(EventSimAllocations, FaultedCountDoesNotGrowWithSlices)
{
    // The fault branch draws per-slice NAND/NVMe penalties and
    // re-dispatches slices off the failed device; none of that may
    // allocate per slice either.
    HilosOptions opts;
    opts.fault_plan = parseFaultPlan(
        "seed=11;nand-err=1e-3;nvme-timeout=5e-4;degrade@0.5=0.5:1;"
        "fail@0.5=3");
    const HilosEventSimulator sim(defaultSystem(), opts);
    allocationsFor(sim, 8);
    const std::uint64_t small = allocationsFor(sim, 8);
    EXPECT_EQ(small, allocationsFor(sim, 64));
}

TEST(EventSimAllocations, ExhaustedCommandsDoNotAllocatePerSlice)
{
    // Heavy recovery: at these rates about one NVMe command in thirty
    // exhausts its retries and re-issues its read on the next
    // survivor, and device 2 is down from the start, so the per-step
    // slice map re-homes an eighth of the slices. The map is one
    // allocation per step whatever the slice count.
    HilosOptions opts;
    opts.fault_plan.addNandReadError(5e-2).addNvmeTimeout(0.5)
        .addDeviceFailure(0.0, 2);
    const HilosEventSimulator sim(defaultSystem(), opts);
    allocationsFor(sim, 8);
    const std::uint64_t small = allocationsFor(sim, 8);
    EXPECT_EQ(small, allocationsFor(sim, 64));
}

TEST(EventSimAllocations, SliceLabelsPastTheSmallStringBufferAreNotBuilt)
{
    // The checks above cannot see eagerly built labels at those sizes:
    // "attn/L63/s4607" fits the 15-character small-string buffer, so
    // formatting it never reaches operator new. From layer 10 on,
    // slice 100000 and up ("attn/L10/s100000") no longer fits. With
    // the X-cache off every sequence is an NSP sequence, so batch 1400
    // gives 1400 x 72 = 100800 slices per layer; an untraced replay
    // that formatted its labels would allocate ~86k times more here.
    HilosOptions opts;
    opts.xcache = false;
    const HilosEventSimulator sim(defaultSystem(), opts);
    allocationsFor(sim, 8);
    const std::uint64_t small = allocationsFor(sim, 8);
    EXPECT_EQ(small, allocationsFor(sim, 1400));
}

}  // namespace
}  // namespace hilos
