/**
 * @file
 * Unit tests for the fault-injection subsystem: retry-policy math, the
 * plan parser, injector determinism, and the fault hooks in the
 * bandwidth resources.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <stdexcept>
#include <utility>
#include <vector>

#include "sim/bandwidth.h"
#include "sim/fault.h"

namespace hilos {
namespace {

// --- RetryPolicy ---

TEST(RetryPolicy, BackoffGrowsExponentiallyToCap)
{
    RetryPolicy rp;
    rp.backoff_base = usec(100);
    rp.backoff_multiplier = 2.0;
    rp.backoff_cap = usec(500);
    EXPECT_DOUBLE_EQ(rp.backoffDelay(1), usec(100));
    EXPECT_DOUBLE_EQ(rp.backoffDelay(2), usec(200));
    EXPECT_DOUBLE_EQ(rp.backoffDelay(3), usec(400));
    EXPECT_DOUBLE_EQ(rp.backoffDelay(4), usec(500));  // capped
    EXPECT_DOUBLE_EQ(rp.backoffDelay(10), usec(500));
}

TEST(RetryPolicy, ExpectedNvmePenaltyZeroAtZeroProbability)
{
    const RetryPolicy rp;
    EXPECT_EQ(rp.expectedNvmePenalty(0.0), 0.0);
    EXPECT_EQ(rp.expectedEccPenalty(0.0), 0.0);
}

TEST(RetryPolicy, ExpectedPenaltiesMonotonicInProbability)
{
    const RetryPolicy rp;
    Seconds prev_nvme = 0.0;
    Seconds prev_ecc = 0.0;
    for (double p : {1e-4, 1e-3, 1e-2, 1e-1}) {
        EXPECT_GT(rp.expectedNvmePenalty(p), prev_nvme);
        EXPECT_GT(rp.expectedEccPenalty(p), prev_ecc);
        prev_nvme = rp.expectedNvmePenalty(p);
        prev_ecc = rp.expectedEccPenalty(p);
    }
}

TEST(RetryPolicy, EccPenaltyIsMeanLadderDepth)
{
    RetryPolicy rp;
    rp.ecc_max_steps = 8;
    rp.ecc_step_latency = usec(70);
    // Uniform ladder depth in [1, 8] has mean 4.5.
    EXPECT_DOUBLE_EQ(rp.expectedEccPenalty(1.0), 4.5 * usec(70));
    EXPECT_DOUBLE_EQ(rp.expectedEccPenalty(0.5), 0.5 * 4.5 * usec(70));
}

TEST(NvmeFaults, RetryLatencyAddsExpectedPenalty)
{
    RetryPolicy rp;
    rp.nvme_max_attempts = 3;
    // Retry k happens when the first k attempts all time out (p^k) and
    // pays the timeout plus the k-th backoff before re-issue.
    const Seconds retry1 = rp.nvme_timeout + rp.backoffDelay(1);
    const Seconds retry2 = rp.nvme_timeout + rp.backoffDelay(2);
    EXPECT_DOUBLE_EQ(rp.expectedNvmePenalty(0.5),
                     0.5 * retry1 + 0.25 * retry2);
    EXPECT_DOUBLE_EQ(rp.expectedNvmePenalty(1.0), retry1 + retry2);
}

// --- Plan parsing ---

TEST(FaultPlanParse, ParsesEveryClauseKind)
{
    const FaultPlan plan = parseFaultPlan(
        "seed=42; nand-err=1e-3:2; nvme-timeout=5e-4; "
        "degrade@1.5=0.5:3; uplink@2.0=0.8; fail@9=1; fail@12=all");
    EXPECT_EQ(plan.seed, 42u);
    ASSERT_EQ(plan.events.size(), 6u);
    EXPECT_EQ(plan.events[0].kind, FaultKind::NandReadError);
    EXPECT_EQ(plan.events[0].device, 2u);
    EXPECT_DOUBLE_EQ(plan.events[0].probability, 1e-3);
    EXPECT_EQ(plan.events[1].kind, FaultKind::NvmeTimeout);
    EXPECT_EQ(plan.events[1].device, kAllDevices);
    EXPECT_EQ(plan.events[2].kind, FaultKind::LinkDegrade);
    EXPECT_EQ(plan.events[2].device, 3u);
    EXPECT_DOUBLE_EQ(plan.events[2].at, 1.5);
    EXPECT_DOUBLE_EQ(plan.events[2].bw_multiplier, 0.5);
    EXPECT_EQ(plan.events[3].device, kUplinkTarget);
    EXPECT_EQ(plan.events[4].kind, FaultKind::DeviceFail);
    EXPECT_EQ(plan.events[4].device, 1u);
    EXPECT_EQ(plan.events[5].device, kAllDevices);
}

TEST(FaultPlanParse, EmptySpecYieldsEmptyPlan)
{
    EXPECT_TRUE(parseFaultPlan("").empty());
    EXPECT_TRUE(parseFaultPlan(" ; , ").empty());
}

TEST(FaultPlanParse, RejectsMalformedSpecs)
{
    EXPECT_THROW(parseFaultPlan("bogus"), std::runtime_error);
    EXPECT_THROW(parseFaultPlan("nand-err=notanumber"),
                 std::runtime_error);
    EXPECT_THROW(parseFaultPlan("frobnicate=1"), std::runtime_error);
    EXPECT_THROW(parseFaultPlan("fail@2=devX"), std::runtime_error);
}

// --- FaultInjector ---

TEST(FaultInjector, EmptyPlanIsInactive)
{
    const FaultInjector inj(FaultPlan{}, 8);
    EXPECT_FALSE(inj.active());
    EXPECT_EQ(inj.survivingDevices(1e9), 8u);
    EXPECT_FALSE(inj.deviceFailed(0, 1e9));
    EXPECT_DOUBLE_EQ(inj.linkDerate(0, 1e9), 1.0);
    EXPECT_DOUBLE_EQ(inj.uplinkDerate(1e9), 1.0);
}

TEST(FaultInjector, SameSeedSamePlanReproducesDraws)
{
    const FaultPlan plan =
        FaultPlan{}.addNandReadError(0.3).addNvmeTimeout(0.2);
    FaultInjector a(plan, 4);
    FaultInjector b(plan, 4);
    for (int i = 0; i < 200; i++) {
        for (unsigned dev = 0; dev < 4; dev++) {
            EXPECT_EQ(a.nandReadPenalty(dev), b.nandReadPenalty(dev));
            const auto oa = a.nvmeCommand(dev);
            const auto ob = b.nvmeCommand(dev);
            EXPECT_EQ(oa.extra_latency, ob.extra_latency);
            EXPECT_EQ(oa.retries, ob.retries);
            EXPECT_EQ(oa.failed, ob.failed);
        }
    }
    EXPECT_EQ(a.stats().nand_read_errors, b.stats().nand_read_errors);
    EXPECT_EQ(a.stats().nvme_timeouts, b.stats().nvme_timeouts);
    EXPECT_EQ(a.stats().retry_time, b.stats().retry_time);
    EXPECT_GT(a.stats().nand_read_errors, 0u);  // p=0.3 over 800 draws
}

TEST(FaultInjector, PerDeviceStreamsAreIndependent)
{
    const FaultPlan plan = FaultPlan{}.addNandReadError(0.5);
    FaultInjector a(plan, 2);
    FaultInjector b(plan, 2);
    // Interleave extra draws on device 0 of `a` only: device 1's
    // sequence must be unaffected.
    for (int i = 0; i < 50; i++)
        a.nandReadPenalty(0);
    for (int i = 0; i < 50; i++)
        EXPECT_EQ(a.nandReadPenalty(1), b.nandReadPenalty(1));
}

TEST(FaultInjector, ZeroProbabilityDrawsNothing)
{
    // A plan whose only event targets device 1 must leave device 0's
    // stream untouched (no RNG consumption, no stats).
    const FaultPlan plan = FaultPlan{}.addNandReadError(0.9, 1);
    FaultInjector inj(plan, 2);
    for (int i = 0; i < 100; i++)
        EXPECT_EQ(inj.nandReadPenalty(0), 0.0);
    EXPECT_EQ(inj.nvmeCommand(0).retries, 0u);
    EXPECT_EQ(inj.stats().nvme_timeouts, 0u);
}

TEST(FaultInjector, FailureTimeline)
{
    const FaultPlan plan = FaultPlan{}
                               .addDeviceFailure(2.0, 1)
                               .addDeviceFailure(5.0, 3);
    const FaultInjector inj(plan, 4);
    EXPECT_EQ(inj.survivingDevices(0.0), 4u);
    EXPECT_FALSE(inj.deviceFailed(1, 1.99));
    EXPECT_TRUE(inj.deviceFailed(1, 2.0));
    EXPECT_EQ(inj.survivingDevices(2.0), 3u);
    EXPECT_EQ(inj.survivingDevices(5.0), 2u);
    EXPECT_FALSE(inj.deviceFailed(3, 4.99));
    EXPECT_TRUE(inj.deviceFailed(3, 5.0));
    EXPECT_FALSE(inj.deviceFailed(0, 1e30));  // never fails
    const auto times = inj.eventTimes();
    ASSERT_EQ(times.size(), 2u);
    EXPECT_DOUBLE_EQ(times[0], 2.0);
    EXPECT_DOUBLE_EQ(times[1], 5.0);
}

TEST(FaultInjector, DeratesCompoundAndActivateOnTime)
{
    const FaultPlan plan = FaultPlan{}
                               .addLinkDegrade(1.0, 0.5, 2)
                               .addLinkDegrade(3.0, 0.5, 2)
                               .addUplinkDegrade(2.0, 0.8);
    const FaultInjector inj(plan, 4);
    EXPECT_DOUBLE_EQ(inj.linkDerate(2, 0.5), 1.0);
    EXPECT_DOUBLE_EQ(inj.linkDerate(2, 1.0), 0.5);
    EXPECT_DOUBLE_EQ(inj.linkDerate(2, 3.0), 0.25);
    EXPECT_DOUBLE_EQ(inj.linkDerate(0, 10.0), 1.0);  // other device
    EXPECT_DOUBLE_EQ(inj.uplinkDerate(1.0), 1.0);
    EXPECT_DOUBLE_EQ(inj.uplinkDerate(2.0), 0.8);
}

TEST(FaultInjector, FleetFailureKillsEveryDevice)
{
    const FaultPlan plan = FaultPlan{}.addFleetFailure(4.0);
    const FaultInjector inj(plan, 8);
    EXPECT_EQ(inj.survivingDevices(3.9), 8u);
    EXPECT_EQ(inj.survivingDevices(4.0), 0u);
}

// --- BandwidthResource fault hooks ---

TEST(BandwidthFaults, OccupyAdvancesTheBusyHorizon)
{
    BandwidthResource res("link", 1.0 * GB, 0.0);
    const Seconds stall_end = res.occupy(0.0, 0.5);
    EXPECT_DOUBLE_EQ(stall_end, 0.5);
    // A transfer arriving during the stall waits for it.
    const Seconds done = res.transfer(0.0, 1 << 30);
    EXPECT_GE(done, 0.5 + res.serviceTime(1 << 30));
}

TEST(BandwidthFaults, ZeroDurationOccupyIsANoOp)
{
    BandwidthResource res("link", 1.0 * GB, 0.0);
    const Seconds t1 = res.transfer(0.0, 1 << 20);
    EXPECT_DOUBLE_EQ(res.occupy(0.0, 0.0), t1);
    EXPECT_DOUBLE_EQ(res.busyUntil(), t1);
}
// --- Draw path: block generator and integer thresholds ---

static_assert(BlockMt19937_64::min() == std::mt19937_64::min());
static_assert(BlockMt19937_64::max() == std::mt19937_64::max());

TEST(BlockMt19937_64, EmitsStdMt19937_64Sequence)
{
    // Five 312-word refills per seed, with ECC-ladder-style integer
    // draws interleaved so the distribution consumes words mid-block.
    for (const std::uint64_t seed :
         {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{42},
          std::numeric_limits<std::uint64_t>::max()}) {
        std::mt19937_64 ref(seed);
        BlockMt19937_64 gen(seed);
        std::uniform_int_distribution<unsigned> steps(1, 8);
        for (std::size_t i = 0; i < 5 * BlockMt19937_64::kStateWords;
             i++) {
            ASSERT_EQ(gen(), ref()) << "seed " << seed << " draw " << i;
            if (i % 7 == 0) {
                ASSERT_EQ(steps(gen), steps(ref))
                    << "seed " << seed << " draw " << i;
            }
        }
    }
}

/** std::uniform_real_distribution<double>(0, 1) of one raw draw. */
double
canonical(std::uint64_t raw)
{
    struct Fixed {
        using result_type = std::uint64_t;
        static constexpr result_type min() { return 0; }
        static constexpr result_type max()
        {
            return std::numeric_limits<result_type>::max();
        }
        result_type value;
        result_type operator()() { return value; }
    };
    std::uniform_real_distribution<double> u(0.0, 1.0);
    Fixed g{raw};
    return u(g);
}

TEST(FaultDrawLimit, AgreesWithTheDistribution)
{
    constexpr std::uint64_t top = std::numeric_limits<std::uint64_t>::max();
    // p = 0 never draws; no raw draw maps below 0 either.
    EXPECT_FALSE(canonical(0) < 0.0);
    EXPECT_FALSE(canonical(top) < 0.0);
    for (const double p : {std::ldexp(1.0, -64), 1e-4, 0.5,
                           std::nextafter(1.0, 0.0), 1.0}) {
        // A draw errs exactly when it is below T = limit + 1.
        const std::uint64_t limit = faultDrawLimit(p);
        EXPECT_LT(canonical(0), p) << p;
        EXPECT_LT(canonical(limit), p) << p;
        if (limit < top) {
            EXPECT_GE(canonical(limit + 1), p) << p;
        }
        EXPECT_EQ(canonical(top) < p, p == 1.0) << p;
        EXPECT_EQ(limit == top, p == 1.0) << p;
    }
    EXPECT_EQ(faultDrawLimit(std::ldexp(1.0, -64)), 0u);
    // Rounding to double puts the limit below p * 2^64: draws from
    // 2^63 - 512 up round to 2^63 and map to exactly 0.5.
    EXPECT_EQ(faultDrawLimit(0.5), (std::uint64_t{1} << 63) - 513);
}

/** The splitmix64 seed of device `dev`'s stream, as the injector makes it. */
std::uint64_t
deviceStreamSeed(std::uint64_t seed, unsigned dev)
{
    std::uint64_t z =
        seed + 0x9e3779b97f4a7c15ull * (static_cast<std::uint64_t>(dev) + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

/**
 * The injector's probabilistic draws as they were made before the
 * integer thresholds: std::uniform_real_distribution on
 * std::mt19937_64, the same seeding, the same bookkeeping.
 */
class ReferenceDraws
{
  public:
    ReferenceDraws(const FaultPlan &plan, double p, unsigned devices)
        : retry_(plan.retry), p_(p)
    {
        for (unsigned d = 0; d < devices; d++)
            rng_.emplace_back(deviceStreamSeed(plan.seed, d));
    }

    Seconds nandReadPenalty(unsigned dev)
    {
        std::uniform_real_distribution<double> u(0.0, 1.0);
        if (u(rng_[dev]) >= p_)
            return 0.0;
        std::uniform_int_distribution<unsigned> steps_dist(
            1, retry_.ecc_max_steps);
        const unsigned steps = steps_dist(rng_[dev]);
        const Seconds penalty =
            static_cast<double>(steps) * retry_.ecc_step_latency;
        stats.nand_read_errors++;
        stats.nand_retry_steps += steps;
        stats.retry_time += penalty;
        return penalty;
    }

    FaultInjector::NvmeOutcome nvmeCommand(unsigned dev)
    {
        FaultInjector::NvmeOutcome out;
        std::uniform_real_distribution<double> u(0.0, 1.0);
        for (unsigned attempt = 1; attempt <= retry_.nvme_max_attempts;
             attempt++) {
            if (u(rng_[dev]) >= p_)
                return out;
            stats.nvme_timeouts++;
            if (attempt == retry_.nvme_max_attempts) {
                out.failed = true;
                stats.nvme_failures++;
                return out;
            }
            const Seconds delay =
                retry_.nvme_timeout + retry_.backoffDelay(attempt);
            out.extra_latency += delay;
            out.retries++;
            stats.nvme_retries++;
            stats.retry_time += delay;
        }
        return out;
    }

    FaultStats stats;

  private:
    RetryPolicy retry_;
    double p_;
    std::vector<std::mt19937_64> rng_;
};

TEST(FaultInjector, DrawsMatchUniformRealReference)
{
    constexpr unsigned kDevices = 3;
    for (const double p : {0.05, 0.5, 1.0}) {
        for (const unsigned attempts : {1u, 3u, 5u}) {
            FaultPlan plan = FaultPlan{}.addNandReadError(p).addNvmeTimeout(p);
            plan.seed = 7;
            plan.retry.nvme_max_attempts = attempts;
            FaultInjector inj(plan, kDevices);
            ReferenceDraws ref(plan, p, kDevices);
            for (int i = 0; i < 2000; i++) {
                // The slice loop's order: NAND read, then NVMe command.
                const unsigned dev = static_cast<unsigned>(i) % kDevices;
                ASSERT_EQ(inj.nandReadPenalty(dev),
                          ref.nandReadPenalty(dev))
                    << "p " << p << " attempts " << attempts << " i " << i;
                const auto got = inj.nvmeCommand(dev);
                const auto want = ref.nvmeCommand(dev);
                ASSERT_EQ(got.extra_latency, want.extra_latency);
                ASSERT_EQ(got.retries, want.retries);
                ASSERT_EQ(got.failed, want.failed);
            }
            const FaultStats &a = inj.stats();
            const FaultStats &b = ref.stats;
            EXPECT_EQ(a.nand_read_errors, b.nand_read_errors);
            EXPECT_EQ(a.nand_retry_steps, b.nand_retry_steps);
            EXPECT_EQ(a.nvme_timeouts, b.nvme_timeouts);
            EXPECT_EQ(a.nvme_retries, b.nvme_retries);
            EXPECT_EQ(a.nvme_failures, b.nvme_failures);
            EXPECT_EQ(a.redispatched_slices, b.redispatched_slices);
            EXPECT_EQ(a.retry_time, b.retry_time);
            EXPECT_GT(a.nand_read_errors, 0u);
        }
    }
}

/**
 * Draw `k` (0-based) of device 0's stream under `seed`, checked to be
 * the largest raw value that maps to its own variate u(x).
 */
std::uint64_t
drawOnItsLimit(std::uint64_t seed, int k)
{
    std::mt19937_64 ref(deviceStreamSeed(seed, 0));
    ref.discard(static_cast<unsigned long long>(k));
    const std::uint64_t x = ref();
    EXPECT_GT(canonical(x + 1), canonical(x));
    return x;
}

TEST(FaultInjector, DrawOnTheLimitErrsAndOnePastDoesNot)
{
    // A random stream almost never lands exactly on a threshold, so the
    // seeds here were picked for a draw x that is the largest raw value
    // mapping to u(x): at p just above u(x) it sits on the limit and
    // errs, at p = u(x) it does not.
    const auto atProbability = [](std::uint64_t seed, double p) {
        FaultPlan plan = FaultPlan{}.addNandReadError(p).addNvmeTimeout(p);
        plan.seed = seed;
        return plan;
    };
    // Seed 162: the first draw, taken by the inline fast paths.
    const double u1 = canonical(drawOnItsLimit(162, 0));
    for (const auto &[p, errs] :
         {std::pair{std::nextafter(u1, 2.0), true}, std::pair{u1, false}}) {
        FaultInjector nand(atProbability(162, p), 1);
        EXPECT_EQ(nand.nandReadPenalty(0) > 0.0, errs) << p;
        FaultInjector nvme(atProbability(162, p), 1);
        EXPECT_EQ(nvme.nvmeCommand(0).retries > 0, errs) << p;
    }
    // Seed 1388: the second draw, after a first that errs at both
    // probabilities, taken by the NVMe retry loop.
    const double u2 = canonical(drawOnItsLimit(1388, 1));
    for (const auto &[p, errs] :
         {std::pair{std::nextafter(u2, 2.0), true}, std::pair{u2, false}}) {
        FaultInjector nvme(atProbability(1388, p), 1);
        EXPECT_EQ(nvme.nvmeCommand(0).retries > 1, errs) << p;
    }
}

// --- FaultPlan::validate ---

TEST(FaultPlanValidate, EmptyAndWellFormedPlansPass)
{
    EXPECT_TRUE(FaultPlan{}.validate().empty());
    const FaultPlan plan = FaultPlan{}
                               .addNandReadError(1e-3)
                               .addNvmeTimeout(1e-4, 2)
                               .addLinkDegrade(1.0, 0.5, 3)
                               .addUplinkDegrade(2.0, 0.8)
                               .addDeviceFailure(3.0, 1)
                               .addHostFailure(4.0, 0)
                               .addHostLinkDegrade(5.0, 0.6)
                               .addHostStall(6.0, 0.02, 1);
    EXPECT_TRUE(plan.validate().empty());
}

TEST(FaultPlanValidate, OneNamedDiagnosticPerViolation)
{
    FaultPlan plan;
    plan.addNandReadError(1.5);             // probability > 1
    plan.addNvmeTimeout(-0.1);              // probability < 0
    plan.addLinkDegrade(0.0, 0.0, 1);       // multiplier not in (0, 1]
    plan.addLinkDegrade(0.0, 1.5, 1);       // multiplier > 1
    plan.addDeviceFailure(-2.0, 1);         // negative activation time
    plan.addHostStall(1.0, -1.0, 0);        // negative duration
    const std::vector<std::string> diags = plan.validate();
    ASSERT_EQ(diags.size(), 6u);
    EXPECT_NE(diags[0].find("event[0] nand-read-error"), std::string::npos);
    EXPECT_NE(diags[0].find("outside [0, 1]"), std::string::npos);
    EXPECT_NE(diags[1].find("event[1] nvme-timeout"), std::string::npos);
    EXPECT_NE(diags[2].find("outside (0, 1]"), std::string::npos);
    EXPECT_NE(diags[3].find("outside (0, 1]"), std::string::npos);
    EXPECT_NE(diags[4].find("activation time"), std::string::npos);
    EXPECT_NE(diags[5].find("stall duration"), std::string::npos);
}

TEST(FaultPlanValidate, RejectsNonFiniteTimes)
{
    FaultPlan plan;
    plan.addDeviceFailure(std::numeric_limits<double>::quiet_NaN(), 0);
    plan.addHostStall(1.0, std::numeric_limits<double>::infinity(), 0);
    EXPECT_EQ(plan.validate().size(), 2u);
}

TEST(FaultPlanValidate, RejectsReservedSentinelGapTargets)
{
    FaultPlan plan;
    plan.addDeviceFailure(1.0, kMaxRealTarget);      // first gap index
    plan.addDeviceFailure(1.0, kUplinkTarget - 1);   // last gap index
    const std::vector<std::string> diags = plan.validate();
    ASSERT_EQ(diags.size(), 2u);
    EXPECT_NE(diags[0].find("reserved sentinel gap"), std::string::npos);
    // The sentinels themselves stay valid.
    EXPECT_TRUE(FaultPlan{}
                    .addDeviceFailure(1.0, kAllDevices)
                    .validate()
                    .empty());
    EXPECT_TRUE(FaultPlan{}.addUplinkDegrade(1.0, 0.5).validate().empty());
}

TEST(FaultPlanValidate, RejectsUplinkSentinelAsHostTarget)
{
    FaultPlan plan;
    plan.addHostFailure(1.0, kUplinkTarget);
    const std::vector<std::string> diags = plan.validate();
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_NE(diags[0].find("not a valid host target"), std::string::npos);
}

TEST(FaultPlanValidate, RejectsPerHostInterconnectDegrade)
{
    FaultPlan plan;
    plan.events.push_back(FaultEvent{FaultKind::HostLinkDegrade, 2u,
                                     1.0, 0.0, 0.5, 0.0});
    const std::vector<std::string> diags = plan.validate();
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_NE(diags[0].find("shared"), std::string::npos);
}

TEST(FaultPlanValidate, GatesInjectorConstruction)
{
    FaultPlan bad;
    bad.addNandReadError(2.0);
    EXPECT_THROW(FaultInjector(bad, 4), std::runtime_error);
    FaultPlan bad_host;
    bad_host.addHostStall(1.0, -5.0, 0);
    EXPECT_THROW(HostFaultView(bad_host, 4), std::runtime_error);
}

TEST(FaultPlanValidate, RejectsZeroNvmeAttempts)
{
    // Zero attempts would issue no command at all, not even a first.
    FaultPlan plan = FaultPlan{}.addNvmeTimeout(1e-3);
    plan.retry.nvme_max_attempts = 0;
    const std::vector<std::string> diags = plan.validate();
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_NE(diags[0].find("nvme_max_attempts 0"), std::string::npos);
    EXPECT_THROW(FaultInjector(plan, 4), std::runtime_error);
}

TEST(FaultPlanValidate, RejectsEmptyEccLadder)
{
    // A ladder of depth 0 has no step to draw uniformly from [1, 0].
    FaultPlan plan = FaultPlan{}.addNandReadError(1e-3);
    plan.retry.ecc_max_steps = 0;
    const std::vector<std::string> diags = plan.validate();
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_NE(diags[0].find("ecc_max_steps 0"), std::string::npos);
    EXPECT_THROW(FaultInjector(plan, 4), std::runtime_error);
}

TEST(FaultPlanValidate, RejectsNegativeOrNonFiniteRetryLatencies)
{
    using Set = void (*)(RetryPolicy &, double);
    const std::pair<const char *, Set> fields[] = {
        {"nvme_timeout", [](RetryPolicy &r, double v) { r.nvme_timeout = v; }},
        {"backoff_base", [](RetryPolicy &r, double v) { r.backoff_base = v; }},
        {"backoff_multiplier",
         [](RetryPolicy &r, double v) { r.backoff_multiplier = v; }},
        {"backoff_cap", [](RetryPolicy &r, double v) { r.backoff_cap = v; }},
        {"ecc_step_latency",
         [](RetryPolicy &r, double v) { r.ecc_step_latency = v; }},
    };
    for (const auto &[name, set] : fields) {
        for (const double bad : {-1e-6,
                                 std::numeric_limits<double>::infinity(),
                                 std::numeric_limits<double>::quiet_NaN()}) {
            FaultPlan plan;
            set(plan.retry, bad);
            const std::vector<std::string> diags = plan.validate();
            ASSERT_EQ(diags.size(), 1u) << name << " = " << bad;
            EXPECT_NE(diags[0].find(std::string("retry: ") + name),
                      std::string::npos)
                << diags[0];
            EXPECT_NE(diags[0].find("not finite and non-negative"),
                      std::string::npos)
                << diags[0];
        }
    }
    // Zero latencies are valid: a ladder or backoff that costs nothing.
    FaultPlan zero;
    zero.retry.nvme_timeout = 0.0;
    zero.retry.backoff_base = 0.0;
    zero.retry.ecc_step_latency = 0.0;
    EXPECT_TRUE(zero.validate().empty());
}

// --- Host-scope plan surface ---

TEST(FaultPlanParse, ParsesHostScopeClauses)
{
    const FaultPlan plan = parseFaultPlan(
        "host-fail@2.5=1; host-degrade@3.0=0.6; host-stall@4.0=0.02:2; "
        "host-fail@9=all");
    ASSERT_EQ(plan.events.size(), 4u);
    EXPECT_EQ(plan.events[0].kind, FaultKind::HostFail);
    EXPECT_EQ(plan.events[0].device, 1u);
    EXPECT_DOUBLE_EQ(plan.events[0].at, 2.5);
    EXPECT_EQ(plan.events[1].kind, FaultKind::HostLinkDegrade);
    EXPECT_DOUBLE_EQ(plan.events[1].bw_multiplier, 0.6);
    EXPECT_EQ(plan.events[2].kind, FaultKind::HostStall);
    EXPECT_EQ(plan.events[2].device, 2u);
    EXPECT_DOUBLE_EQ(plan.events[2].duration, 0.02);
    EXPECT_EQ(plan.events[3].device, kAllDevices);
}

TEST(FaultPlanHostScope, DeviceScopeDropsHostEventsOnly)
{
    FaultPlan plan;
    plan.seed = 77;
    plan.addNandReadError(1e-3)
        .addHostFailure(2.0, 1)
        .addNvmeTimeout(1e-4)
        .addHostStall(3.0, 0.02, 0);
    EXPECT_TRUE(HostFaultView(plan, 4).active());
    const FaultPlan dev = plan.deviceScope();
    EXPECT_EQ(dev.seed, 77u);
    ASSERT_EQ(dev.events.size(), 2u);
    EXPECT_EQ(dev.events[0].kind, FaultKind::NandReadError);
    EXPECT_EQ(dev.events[1].kind, FaultKind::NvmeTimeout);
    EXPECT_FALSE(HostFaultView(dev, 4).active());
}

TEST(FaultPlanHostScope, InjectorIgnoresHostEvents)
{
    FaultPlan plan;
    plan.addHostFailure(0.0, 0).addHostStall(0.0, 5.0, 1);
    FaultInjector inj(plan, 4);
    // Host-scope events never fail devices at device scope.
    EXPECT_EQ(inj.survivingDevices(100.0), 4u);
    EXPECT_FALSE(inj.deviceFailed(0, 100.0));
}

// --- HostFaultView ---

/** Hosts neither failed nor stalled at `now`. */
unsigned
servingHosts(const HostFaultView &view, unsigned hosts, Seconds now)
{
    unsigned serving = 0;
    for (unsigned h = 0; h < hosts; h++) {
        if (!view.hostFailed(h, now) && !view.hostStalled(h, now))
            serving++;
    }
    return serving;
}

TEST(HostFaultView, NullViewAndEmptyPlanAreInactive)
{
    // An empty plan is the null view: every host healthy forever.
    const HostFaultView empty(FaultPlan{}, 4);
    EXPECT_FALSE(empty.active());
    EXPECT_EQ(servingHosts(empty, 4, 1e9), 4u);
    EXPECT_EQ(empty.interHostDerate(1e9), 1.0);
}

TEST(HostFaultView, FailureTimeline)
{
    FaultPlan plan;
    plan.addHostFailure(5.0, 1).addHostFailure(8.0, 3);
    const HostFaultView view(plan, 4);
    EXPECT_TRUE(view.active());
    EXPECT_EQ(servingHosts(view, 4, 0.0), 4u);
    EXPECT_FALSE(view.hostFailed(1, 4.999));
    EXPECT_TRUE(view.hostFailed(1, 5.0));
    EXPECT_EQ(servingHosts(view, 4, 6.0), 3u);
    EXPECT_EQ(servingHosts(view, 4, 9.0), 2u);
    EXPECT_FALSE(view.hostFailed(3, 7.999));
    EXPECT_TRUE(view.hostFailed(3, 8.0));
    EXPECT_FALSE(view.hostFailed(0, 1e30));  // never fails
}

TEST(HostFaultView, ShortStallRecoversAtProbeBoundary)
{
    FaultPlan plan;
    plan.addHostStall(10.0, 0.015, 2);  // 15 ms, inside the ladder
    const HostFaultView view(plan, 4);
    ASSERT_EQ(view.stalls().size(), 1u);
    const HostFaultView::StallWindow &w = view.stalls().front();
    EXPECT_FALSE(w.escalated);
    EXPECT_DOUBLE_EQ(w.begin, 10.0);
    // Recovery is observed at the first timeout+backoff probe at or
    // after the stall's end, so the window outlasts the raw duration.
    EXPECT_GE(w.end, 10.015);
    EXPECT_LE(w.end - 10.0,
              HostFaultView::ladderBudget(plan.retry) + 1e-12);
    EXPECT_TRUE(view.hostStalled(2, 10.001));
    EXPECT_FALSE(view.hostStalled(2, w.end + 1e-9));
    EXPECT_FALSE(view.hostFailed(2, 1e9));
    EXPECT_EQ(servingHosts(view, 4, 10.001), 3u);
    EXPECT_EQ(view.stalledHosts(10.001), 1u);
}

TEST(HostFaultView, LongStallEscalatesToFailure)
{
    FaultPlan plan;
    plan.addHostStall(10.0, 60.0, 2);  // far past the retry ladder
    const HostFaultView view(plan, 4);
    const Seconds budget = HostFaultView::ladderBudget(plan.retry);
    EXPECT_LT(budget, 60.0);
    ASSERT_EQ(view.stalls().size(), 1u);
    EXPECT_TRUE(view.stalls().front().escalated);
    EXPECT_FALSE(view.hostFailed(2, 10.0 + budget - 1e-9));
    EXPECT_TRUE(view.hostFailed(2, 10.0 + budget + 1e-9));
    // Failed hosts are not additionally counted as stalled.
    EXPECT_EQ(view.stalledHosts(10.0 + budget + 1e-9), 0u);
}

TEST(HostFaultView, LadderBudgetIsTimeoutPlusBackoffSum)
{
    RetryPolicy rp;
    rp.nvme_max_attempts = 3;
    rp.nvme_timeout = msec(10);
    rp.backoff_base = msec(1);
    rp.backoff_multiplier = 2.0;
    rp.backoff_cap = msec(50);
    // Two retries: (10 + 1) + (10 + 2) ms.
    EXPECT_DOUBLE_EQ(HostFaultView::ladderBudget(rp), msec(23));
}

TEST(HostFaultView, InterHostDeratesCompound)
{
    FaultPlan plan;
    plan.addHostLinkDegrade(2.0, 0.5).addHostLinkDegrade(4.0, 0.8);
    const HostFaultView view(plan, 2);
    EXPECT_DOUBLE_EQ(view.interHostDerate(1.0), 1.0);
    EXPECT_DOUBLE_EQ(view.interHostDerate(3.0), 0.5);
    EXPECT_DOUBLE_EQ(view.interHostDerate(5.0), 0.4);
}

TEST(HostFaultView, EventTimesSortedAndUnique)
{
    FaultPlan plan;
    plan.addHostFailure(8.0, 1)
        .addHostLinkDegrade(2.0, 0.5)
        .addHostStall(4.0, 0.01, 0)
        .addHostLinkDegrade(2.0, 0.9);
    const HostFaultView view(plan, 4);
    const std::vector<Seconds> times = view.eventTimes();
    ASSERT_GE(times.size(), 4u);  // 2.0, 4.0, stall end, 8.0
    for (std::size_t i = 1; i < times.size(); ++i)
        EXPECT_GT(times[i], times[i - 1]);
    EXPECT_DOUBLE_EQ(times.front(), 2.0);
}

TEST(HostFaultView, RejectsHostTargetBeyondFleet)
{
    FaultPlan plan;
    plan.addHostFailure(1.0, 7);
    EXPECT_DEATH(HostFaultView(plan, 4), "host");
}

}  // namespace
}  // namespace hilos
