/**
 * @file
 * Golden snapshots of hilos_cli's stdout: the default HILOS run and a
 * --fault-plan run. The CLI is the first thing a downstream user sees,
 * so its exact output (field labels, ordering, number formatting) is a
 * behavioural surface worth pinning end-to-end — through ArgParser,
 * engine dispatch, and the table renderer, not just the library calls
 * the other golden tests cover.
 *
 * The binary path arrives via the HILOS_CLI_PATH compile definition
 * ($<TARGET_FILE:hilos_cli>), so the test is build-tree relocatable.
 *
 * The same binary also pins the input boundary: out-of-domain run,
 * HILOS and serving options, negative counts and unknown model/engine/
 * gpu names exit 2 with one named diagnostic on stderr, never an abort.
 * bench_serving and bench_fleet (paths via BENCH_SERVING_PATH and
 * BENCH_FLEET_PATH) are held to the same boundary.
 */

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <algorithm>
#include <cstdio>
#include <string>

#include "support/golden.h"

namespace hilos {
namespace test {
namespace {

/** Run a command, capture stdout, assert exit status 0. */
std::string
capture(const std::string &cmd)
{
    FILE *pipe = popen(cmd.c_str(), "r");
    if (pipe == nullptr) {
        ADD_FAILURE() << "popen failed for: " << cmd;
        return "";
    }
    std::string out;
    char buf[4096];
    std::size_t n = 0;
    while ((n = fread(buf, 1, sizeof(buf), pipe)) > 0)
        out.append(buf, n);
    const int status = pclose(pipe);
    EXPECT_EQ(status, 0) << cmd << "\n" << out;
    return out;
}

void
expectGolden(const std::string &name, const std::string &actual)
{
    const GoldenOutcome out = compareGolden(name, actual);
    EXPECT_TRUE(out.ok) << out.message;
}

TEST(CliGolden, DefaultRun)
{
    expectGolden("cli_default_run.txt",
                 capture(std::string(HILOS_CLI_PATH) + " 2>/dev/null"));
}

TEST(CliGolden, ChunkedServeRun)
{
    // The serving surface with chunked prefill: pins the report labels,
    // the chunk/preemption counter line, and the chunked TTFT table on
    // the weights-resident baseline where chunking pays off.
    expectGolden(
        "cli_chunked_serve.txt",
        capture(std::string(HILOS_CLI_PATH) +
                " --engine vllm --serve --prefill-chunks 4"
                " --requests 12 --arrival-rate 0.25 --policy fcfs"
                " 2>/dev/null"));
}

TEST(CliGolden, AnalyzePlanRun)
{
    // The semantic plan analyzer's report over every engine x phase at
    // the headline workload: pins the pass findings, the waiver
    // matching, and the slack/bottleneck annotations end-to-end.
    expectGolden(
        "cli_analyze_plan_opt66b.txt",
        capture(std::string(HILOS_CLI_PATH) +
                " --analyze-plan --plan-waivers " + goldenDir() +
                "/../plan_waivers.txt 2>/dev/null"));
}

TEST(CliGolden, FaultPlanRun)
{
    expectGolden(
        "cli_fault_plan_run.txt",
        capture(std::string(HILOS_CLI_PATH) +
                " --fault-plan 'seed=7;nand-err=1e-3;fail@2.5=3'"
                " 2>/dev/null"));
}

/** Run `binary args`; return its exit code and its stderr. */
int
runForStderr(const std::string &binary, const std::string &args,
             std::string *err)
{
    const std::string cmd = binary + " " + args + " 2>&1 >/dev/null";
    FILE *pipe = popen(cmd.c_str(), "r");
    if (pipe == nullptr) {
        ADD_FAILURE() << "popen failed for: " << cmd;
        return -1;
    }
    char buf[4096];
    std::size_t n = 0;
    while ((n = fread(buf, 1, sizeof(buf), pipe)) > 0)
        err->append(buf, n);
    const int status = pclose(pipe);
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

/**
 * Expect `binary args` to exit 2 with "error: <diagnostic>" and no
 * panic or uncaught exception.
 */
void
expectRejectedBy(const char *binary, const char *args,
                 const char *diagnostic)
{
    std::string err;
    EXPECT_EQ(runForStderr(binary, args, &err), 2) << args << "\n" << err;
    EXPECT_NE(err.find(std::string("error: ") + diagnostic),
              std::string::npos)
        << args << "\n" << err;
    EXPECT_EQ(err.find("panic"), std::string::npos) << err;
    EXPECT_EQ(err.find("terminate"), std::string::npos) << err;
}

void
expectRejected(const char *args, const char *diagnostic)
{
    expectRejectedBy(HILOS_CLI_PATH, args, diagnostic);
}

TEST(CliBoundary, ServeRejectsOutOfDomainOptions)
{
    expectRejected("--serve --arrival-rate 0", "arrivals: rate 0");
    expectRejected("--serve --arrival-rate -1", "arrivals: rate -1");
    expectRejected("--serve --slo-ms -3", "serving: SLO -0.003");
    expectRejected("--serve --batch 0", "serving: batch cap 0");
    // Bounded above by the stream's longest padded prompt: a huge count
    // used to run one empty chunk after another instead of being
    // rejected before the simulator starts.
    expectRejected("--serve --prefill-chunks 100000000 --requests 4",
                   "serving: prefill chunks 100000000 must be <= ");
}

TEST(CliBoundary, OfflineRunRejectsOutOfDomainRunConfig)
{
    expectRejected("--batch 0", "run: batch 0");
    expectRejected("--engine flex-ssd --batch 0", "run: batch 0");
    expectRejected("--prefill-chunks 0", "run: prefill chunks 0");
    // Bounded above by the prompt: a huge count used to run one
    // empty chunk after another instead of being rejected.
    expectRejected("--prefill-chunks 100000000",
                   "run: prefill chunks 100000000 must be <= 32768");
    expectRejected("--context 0 --prefill-chunks 2",
                   "run: prefill chunks 2 must be <= 1");
}

TEST(CliBoundary, UnknownNamesExitTwoNotAbort)
{
    expectRejected("--model NOPE", "fatal: unknown model: NOPE");
    expectRejected("--engine nope", "fatal: unknown engine 'nope'");
    expectRejected("--fault-plan bogus=1",
                   "fatal: fault plan: unknown clause 'bogus=1'");
    expectRejected("--gpu tpu", "unknown gpu 'tpu' (a100, h100)");
}

TEST(CliBoundary, FatalErrorsPrintOnce)
{
    // One "error:" line per user error, without the source location of
    // the HILOS_FATAL that raised it.
    for (const char *args : {"--model NOPE", "--fault-plan bogus=1"}) {
        std::string err;
        EXPECT_EQ(runForStderr(HILOS_CLI_PATH, args, &err), 2) << args;
        EXPECT_EQ(std::count(err.begin(), err.end(), '\n'), 1) << err;
        EXPECT_EQ(err.rfind("error: fatal: ", 0), 0u) << err;
        EXPECT_EQ(err.find(".cc:"), std::string::npos) << err;
    }
}

TEST(CliBoundary, RejectsOutOfRangeCounts)
{
    expectRejected("--hosts 0", "hosts 0 must be >= 1");
    expectRejected("--window -5", "window -5 must be >= 0");
    expectRejected("--spares -1", "spares -1 must be >= 0");
    // Exercised only on this rejection path: an accepted value of
    // --jobs starts that many worker threads under --report.
    expectRejected("--jobs -1", "jobs -1 must be >= 0");
    // Unsigned run fields: a negative would wrap to a huge length.
    expectRejected("--context -5", "context -5 must be >= 0");
    expectRejected("--output -1", "output -1 must be >= 0");
    expectRejected("--serve --requests -1", "requests -1 must be >= 0");
}

TEST(CliBoundary, DegenerateLengthsStayLegal)
{
    for (const char *args :
         {"--context 0", "--context 1", "--context 4 --prefill-chunks 4"})
        capture(std::string(HILOS_CLI_PATH) + " " + args + " 2>/dev/null");
}

TEST(CliBoundary, ZeroOutputTokensHaveNoPerTokenEnergy)
{
    // --output 0 is degenerate but legal: the run completes and the
    // per-token energy reads n/a rather than inf.
    const std::string out =
        capture(std::string(HILOS_CLI_PATH) + " --output 0 2>/dev/null");
    EXPECT_NE(out.find(" kJ (n/a J/token)"), std::string::npos) << out;
    EXPECT_EQ(out.find("inf J/token"), std::string::npos) << out;
}

TEST(CliBoundary, RejectsOutOfDomainHilosOptions)
{
    expectRejected("--devices 0", "hilos: devices 0 must be in 1..16");
    expectRejected("--devices 17", "hilos: devices 17 must be in 1..16");
    expectRejected("--alpha 2", "hilos: alpha 2.000000 must be negative");
    expectRejected("--spill 0", "hilos: spill interval 0 must be >= 1");
}

// The bench binaries share the boundary contract: exit 2 with one
// named diagnostic, never a wrapped count or an uncaught HILOS_FATAL.
// Every case here is rejected before any sweep (or thread pool) starts.

TEST(BenchBoundary, ServingRejectsNegativeCounts)
{
    expectRejectedBy(BENCH_SERVING_PATH, "--jobs -1",
                     "jobs -1 must be >= 0");
    expectRejectedBy(BENCH_SERVING_PATH, "--devices -1",
                     "devices -1 must be >= 0");
    expectRejectedBy(BENCH_SERVING_PATH, "--max-batch -2",
                     "max-batch -2 must be >= 0");
    expectRejectedBy(BENCH_SERVING_PATH, "--requests -1",
                     "requests -1 must be >= 0");
}

TEST(BenchBoundary, ServingRejectsOutOfDomainConfig)
{
    expectRejectedBy(BENCH_SERVING_PATH, "--devices 0",
                     "hilos: devices 0 must be in 1..16");
    expectRejectedBy(BENCH_SERVING_PATH, "--max-batch 0",
                     "serving: batch cap 0");
    expectRejectedBy(BENCH_SERVING_PATH, "--requests 0",
                     "requests 0 must be >= 1");
    expectRejectedBy(BENCH_SERVING_PATH, "--rates 0.01,0",
                     "arrivals: rate 0.000000 req/s");
}

TEST(BenchBoundary, ServingRejectsMalformedRates)
{
    // Each comma-separated token must parse as a number in full.
    expectRejectedBy(BENCH_SERVING_PATH, "--rates x",
                     "rates: 'x' is not a number");
    expectRejectedBy(BENCH_SERVING_PATH, "--rates 0.01,0.1x",
                     "rates: '0.1x' is not a number");
    expectRejectedBy(BENCH_SERVING_PATH, "--rates ,",
                     "rates: at least one arrival rate is required");
}

TEST(BenchBoundary, FleetRejectsNegativeCounts)
{
    for (const char *option :
         {"jobs", "hosts", "devices", "spares", "max-hosts",
          "batch-per-host", "context", "output"}) {
        const std::string args = std::string("--") + option + " -1";
        const std::string diag = std::string(option) + " -1 must be >= 0";
        expectRejectedBy(BENCH_FLEET_PATH, args.c_str(), diag.c_str());
    }
}

TEST(BenchBoundary, UnknownNamesExitTwoNotAbort)
{
    expectRejectedBy(BENCH_SERVING_PATH, "--model NOPE",
                     "fatal: unknown model: NOPE");
    expectRejectedBy(BENCH_FLEET_PATH, "--policy nope",
                     "fatal: unknown placement policy 'nope'");
    expectRejectedBy(BENCH_FLEET_PATH, "--hosts 0",
                     "fatal: invalid fleet config");
}

}  // namespace
}  // namespace test
}  // namespace hilos
