#include "sim/fault.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <random>
#include <utility>

#include "common/logging.h"

namespace hilos {

bool
isHostScope(FaultKind kind)
{
    return kind == FaultKind::HostFail ||
           kind == FaultKind::HostLinkDegrade ||
           kind == FaultKind::HostStall;
}

const char *
faultKindName(FaultKind kind)
{
    switch (kind) {
      case FaultKind::NandReadError:
        return "nand-read-error";
      case FaultKind::NvmeTimeout:
        return "nvme-timeout";
      case FaultKind::LinkDegrade:
        return "link-degrade";
      case FaultKind::DeviceFail:
        return "device-fail";
      case FaultKind::HostFail:
        return "host-fail";
      case FaultKind::HostLinkDegrade:
        return "host-link-degrade";
      case FaultKind::HostStall:
        return "host-stall";
    }
    return "unknown";
}

Seconds
RetryPolicy::backoffDelay(unsigned attempt) const
{
    HILOS_ASSERT(attempt >= 1, "backoff attempt is 1-based");
    Seconds delay = backoff_base;
    for (unsigned i = 1; i < attempt; i++) {
        delay *= backoff_multiplier;
        if (delay >= backoff_cap)
            return backoff_cap;
    }
    return std::min(delay, backoff_cap);
}

Seconds
RetryPolicy::expectedNvmePenalty(double timeout_prob) const
{
    if (timeout_prob <= 0.0)
        return 0.0;
    HILOS_ASSERT(timeout_prob <= 1.0, "invalid timeout probability");
    // Attempt k (1-based) happens with probability p^k of the previous
    // k attempts all timing out; each timeout pays the command timeout
    // plus the k-th backoff delay before re-issue.
    Seconds expected = 0.0;
    double p_k = 1.0;
    for (unsigned k = 1; k < nvme_max_attempts; k++) {
        p_k *= timeout_prob;
        expected += p_k * (nvme_timeout + backoffDelay(k));
    }
    return expected;
}

Seconds
RetryPolicy::expectedEccPenalty(double error_prob) const
{
    if (error_prob <= 0.0)
        return 0.0;
    HILOS_ASSERT(error_prob <= 1.0, "invalid ECC error probability");
    // Ladder depth is drawn uniformly in [1, ecc_max_steps].
    const double mean_steps =
        (1.0 + static_cast<double>(ecc_max_steps)) / 2.0;
    return error_prob * mean_steps * ecc_step_latency;
}

FaultPlan &
FaultPlan::addNandReadError(double probability, unsigned device)
{
    FaultEvent ev;
    ev.kind = FaultKind::NandReadError;
    ev.device = device;
    ev.probability = probability;
    events.push_back(ev);
    return *this;
}

FaultPlan &
FaultPlan::addNvmeTimeout(double probability, unsigned device)
{
    FaultEvent ev;
    ev.kind = FaultKind::NvmeTimeout;
    ev.device = device;
    ev.probability = probability;
    events.push_back(ev);
    return *this;
}

FaultPlan &
FaultPlan::addLinkDegrade(Seconds at, double bw_multiplier,
                          unsigned device)
{
    FaultEvent ev;
    ev.kind = FaultKind::LinkDegrade;
    ev.device = device;
    ev.at = at;
    ev.bw_multiplier = bw_multiplier;
    events.push_back(ev);
    return *this;
}

FaultPlan &
FaultPlan::addUplinkDegrade(Seconds at, double bw_multiplier)
{
    return addLinkDegrade(at, bw_multiplier, kUplinkTarget);
}

FaultPlan &
FaultPlan::addDeviceFailure(Seconds at, unsigned device)
{
    FaultEvent ev;
    ev.kind = FaultKind::DeviceFail;
    ev.device = device;
    ev.at = at;
    events.push_back(ev);
    return *this;
}

FaultPlan &
FaultPlan::addFleetFailure(Seconds at)
{
    return addDeviceFailure(at, kAllDevices);
}

FaultPlan &
FaultPlan::addHostFailure(Seconds at, unsigned host)
{
    FaultEvent ev;
    ev.kind = FaultKind::HostFail;
    ev.device = host;
    ev.at = at;
    events.push_back(ev);
    return *this;
}

FaultPlan &
FaultPlan::addHostLinkDegrade(Seconds at, double bw_multiplier)
{
    FaultEvent ev;
    ev.kind = FaultKind::HostLinkDegrade;
    ev.device = kAllDevices;
    ev.at = at;
    ev.bw_multiplier = bw_multiplier;
    events.push_back(ev);
    return *this;
}

FaultPlan &
FaultPlan::addHostStall(Seconds at, Seconds duration, unsigned host)
{
    FaultEvent ev;
    ev.kind = FaultKind::HostStall;
    ev.device = host;
    ev.at = at;
    ev.duration = duration;
    events.push_back(ev);
    return *this;
}

std::vector<std::string>
FaultPlan::validate() const
{
    std::vector<std::string> out;
    for (std::size_t i = 0; i < events.size(); ++i) {
        const FaultEvent &ev = events[i];
        const std::string ref = "event[" + std::to_string(i) + "] " +
                                faultKindName(ev.kind);
        const bool probabilistic = ev.kind == FaultKind::NandReadError ||
                                   ev.kind == FaultKind::NvmeTimeout;
        const bool degrade = ev.kind == FaultKind::LinkDegrade ||
                             ev.kind == FaultKind::HostLinkDegrade;
        if (probabilistic &&
            !(ev.probability >= 0.0 && ev.probability <= 1.0)) {
            out.push_back(ref + ": probability " +
                          std::to_string(ev.probability) +
                          " is outside [0, 1]");
        }
        if (degrade &&
            !(ev.bw_multiplier > 0.0 && ev.bw_multiplier <= 1.0)) {
            out.push_back(ref + ": bandwidth multiplier " +
                          std::to_string(ev.bw_multiplier) +
                          " is outside (0, 1]");
        }
        if (!(std::isfinite(ev.at) && ev.at >= 0.0)) {
            out.push_back(ref + ": activation time " +
                          std::to_string(ev.at) +
                          " is not finite and non-negative");
        }
        if (ev.kind == FaultKind::HostStall &&
            !(std::isfinite(ev.duration) && ev.duration >= 0.0)) {
            out.push_back(ref + ": stall duration " +
                          std::to_string(ev.duration) +
                          " is not finite and non-negative");
        }
        if (ev.device != kAllDevices && ev.device != kUplinkTarget &&
            ev.device >= kMaxRealTarget) {
            out.push_back(ref + ": target " + std::to_string(ev.device) +
                          " is inside the reserved sentinel gap [" +
                          std::to_string(kMaxRealTarget) + ", " +
                          std::to_string(kUplinkTarget) + ")");
        }
        if (isHostScope(ev.kind) && ev.device == kUplinkTarget) {
            out.push_back(ref + ": the chassis-uplink sentinel is not a "
                                "valid host target");
        }
        if (ev.kind == FaultKind::HostLinkDegrade &&
            ev.device != kAllDevices) {
            out.push_back(ref + ": the inter-host interconnect is "
                                "shared; a per-host target " +
                          std::to_string(ev.device) + " is meaningless");
        }
    }
    if (retry.nvme_max_attempts == 0) {
        out.push_back("retry: nvme_max_attempts 0 allows no NVMe "
                      "attempt; it must be >= 1");
    }
    if (retry.ecc_max_steps == 0) {
        out.push_back("retry: ecc_max_steps 0 leaves the ECC read-retry "
                      "ladder empty; it must be >= 1");
    }
    const std::pair<const char *, double> latencies[] = {
        {"nvme_timeout", retry.nvme_timeout},
        {"backoff_base", retry.backoff_base},
        {"backoff_multiplier", retry.backoff_multiplier},
        {"backoff_cap", retry.backoff_cap},
        {"ecc_step_latency", retry.ecc_step_latency},
    };
    for (const auto &[name, value] : latencies) {
        if (!(std::isfinite(value) && value >= 0.0)) {
            out.push_back(std::string("retry: ") + name + " " +
                          std::to_string(value) +
                          " is not finite and non-negative");
        }
    }
    return out;
}

FaultPlan
FaultPlan::deviceScope() const
{
    FaultPlan out;
    out.seed = seed;
    out.retry = retry;
    for (const FaultEvent &ev : events) {
        if (!isHostScope(ev.kind))
            out.events.push_back(ev);
    }
    return out;
}

namespace {

std::vector<std::string>
splitClauses(const std::string &spec)
{
    std::vector<std::string> out;
    std::string cur;
    for (char c : spec) {
        if (c == ';' || c == ',') {
            if (!cur.empty())
                out.push_back(cur);
            cur.clear();
        } else if (!std::isspace(static_cast<unsigned char>(c))) {
            cur.push_back(c);
        }
    }
    if (!cur.empty())
        out.push_back(cur);
    return out;
}

double
parseDouble(const std::string &s, const std::string &clause)
{
    char *end = nullptr;
    const double v = std::strtod(s.c_str(), &end);
    if (end == s.c_str() || *end != '\0')
        HILOS_FATAL("fault plan: bad number '", s, "' in '", clause, "'");
    return v;
}

unsigned
parseDevice(const std::string &s, const std::string &clause)
{
    if (s == "all")
        return kAllDevices;
    char *end = nullptr;
    const unsigned long v = std::strtoul(s.c_str(), &end, 10);
    if (end == s.c_str() || *end != '\0')
        HILOS_FATAL("fault plan: bad device '", s, "' in '", clause, "'");
    return static_cast<unsigned>(v);
}

/** Split "value[:dev]" into the value string and a device target. */
std::pair<std::string, unsigned>
splitDeviceSuffix(const std::string &s, const std::string &clause)
{
    const auto colon = s.find(':');
    if (colon == std::string::npos)
        return {s, kAllDevices};
    return {s.substr(0, colon),
            parseDevice(s.substr(colon + 1), clause)};
}

}  // namespace

FaultPlan
parseFaultPlan(const std::string &spec)
{
    FaultPlan plan;
    for (const std::string &clause : splitClauses(spec)) {
        const auto eq = clause.find('=');
        if (eq == std::string::npos)
            HILOS_FATAL("fault plan: missing '=' in '", clause, "'");
        std::string key = clause.substr(0, eq);
        const std::string value = clause.substr(eq + 1);
        Seconds at = 0.0;
        const auto at_pos = key.find('@');
        if (at_pos != std::string::npos) {
            at = parseDouble(key.substr(at_pos + 1), clause);
            key = key.substr(0, at_pos);
        }

        if (key == "seed") {
            plan.seed = static_cast<std::uint64_t>(
                std::strtoull(value.c_str(), nullptr, 10));
        } else if (key == "nand-err") {
            const auto [v, dev] = splitDeviceSuffix(value, clause);
            plan.addNandReadError(parseDouble(v, clause), dev);
        } else if (key == "nvme-timeout") {
            const auto [v, dev] = splitDeviceSuffix(value, clause);
            plan.addNvmeTimeout(parseDouble(v, clause), dev);
        } else if (key == "degrade") {
            const auto [v, dev] = splitDeviceSuffix(value, clause);
            plan.addLinkDegrade(at, parseDouble(v, clause), dev);
        } else if (key == "uplink") {
            plan.addUplinkDegrade(at, parseDouble(value, clause));
        } else if (key == "fail") {
            plan.addDeviceFailure(at, parseDevice(value, clause));
        } else if (key == "host-fail") {
            plan.addHostFailure(at, parseDevice(value, clause));
        } else if (key == "host-degrade") {
            plan.addHostLinkDegrade(at, parseDouble(value, clause));
        } else if (key == "host-stall") {
            const auto [v, host] = splitDeviceSuffix(value, clause);
            plan.addHostStall(at, parseDouble(v, clause), host);
        } else {
            HILOS_FATAL("fault plan: unknown clause '", clause,
                        "' (seed, nand-err, nvme-timeout, degrade, "
                        "uplink, fail, host-fail, host-degrade, "
                        "host-stall)");
        }
    }
    return plan;
}

bool
FaultStats::any() const
{
    return nand_read_errors > 0 || nvme_timeouts > 0 ||
           nvme_failures > 0 || redispatched_slices > 0 ||
           retry_time > 0.0;
}

BlockMt19937_64::BlockMt19937_64(result_type seed)
{
    // std::mersenne_twister_engine's seeding, with mt19937_64's
    // initialization multiplier.
    state_[0] = seed;
    for (std::size_t i = 1; i < kStateWords; i++) {
        const result_type prev = state_[i - 1];
        state_[i] = 6364136223846793005ull * (prev ^ (prev >> 62)) + i;
    }
}

void
BlockMt19937_64::refill()
{
    // mt19937_64's twist (m = 156, r = 31) followed by its tempering,
    // each over the whole block. The twist's carry bit selects `a` by a
    // mask, not a branch (it is a coin flip per word), and the loops
    // have even trip counts so that they vectorize at -O2.
    constexpr std::size_t n = kStateWords;
    constexpr std::size_t m = 156;
    constexpr result_type upper = ~result_type{0} << 31;
    constexpr result_type lower = ~upper;
    constexpr result_type a = 0xb5026f5aa96619e9ull;
    const auto mix = [&](result_type hi, result_type lo, result_type x) {
        const result_type y = (hi & upper) | (lo & lower);
        return x ^ (y >> 1) ^ ((result_type{0} - (y & 1)) & a);
    };
    for (std::size_t k = 0; k < n - m; k++)
        state_[k] = mix(state_[k], state_[k + 1], state_[k + m]);
    for (std::size_t k = n - m; k < n - 2; k++)
        state_[k] = mix(state_[k], state_[k + 1], state_[k - (n - m)]);
    state_[n - 2] = mix(state_[n - 2], state_[n - 1], state_[m - 2]);
    state_[n - 1] = mix(state_[n - 1], state_[0], state_[m - 1]);
    for (std::size_t k = 0; k < n; k++) {
        result_type z = state_[k];
        z ^= (z >> 29) & 0x5555555555555555ull;
        z ^= (z << 17) & 0x71d67fffeda60000ull;
        z ^= (z << 37) & 0xfff7eee000000000ull;
        z ^= z >> 43;
        out_[k] = z;
    }
    pos_ = 0;
}

namespace {

/** A generator that returns one fixed raw value and counts its calls. */
struct FixedDraw {
    using result_type = BlockMt19937_64::result_type;
    static constexpr result_type min() { return BlockMt19937_64::min(); }
    static constexpr result_type max() { return BlockMt19937_64::max(); }
    result_type value = 0;
    unsigned calls = 0;
    result_type operator()()
    {
        calls++;
        return value;
    }
};

/** u(raw) < p through the library's own uniform_real_distribution. */
bool
drawErrs(std::uint64_t raw, double p)
{
    std::uniform_real_distribution<double> u(0.0, 1.0);
    FixedDraw g{raw};
    const bool errs = u(g) < p;
    // The threshold replaces exactly one draw per uniform variate.
    HILOS_ASSERT(g.calls == 1, "uniform_real_distribution consumed ",
                 g.calls, " raw draws per variate");
    return errs;
}

}  // namespace

std::uint64_t
faultDrawLimit(double p)
{
    HILOS_ASSERT(p > 0.0 && p <= 1.0, "fault probability ", p,
                 " is outside (0, 1]");
    constexpr std::uint64_t top = std::numeric_limits<std::uint64_t>::max();
    if (drawErrs(top, p))
        return top;
    // Invariant: lo errs (u(0) = 0 < p), hi does not.
    std::uint64_t lo = 0;
    std::uint64_t hi = top;
    while (hi - lo > 1) {
        const std::uint64_t mid = lo + (hi - lo) / 2;
        if (drawErrs(mid, p))
            lo = mid;
        else
            hi = mid;
    }
    return lo;
}

FaultInjector::FaultInjector(const FaultPlan &plan, unsigned num_devices)
    : active_(!plan.empty()), num_devices_(num_devices),
      retry_(plan.retry),
      nand_prob_(num_devices, 0.0), nvme_prob_(num_devices, 0.0),
      fail_at_(num_devices, std::numeric_limits<Seconds>::infinity())
{
    HILOS_ASSERT(num_devices >= 1, "fault injector needs >= 1 device");
    const std::vector<std::string> diags = plan.validate();
    if (!diags.empty())
        HILOS_FATAL("invalid fault plan: ", diags.front());
    for (const FaultEvent &ev : plan.events) {
        // Host-scope events are HostFaultView's business; a device
        // injector sees only the device-scope subset.
        if (isHostScope(ev.kind))
            continue;
        const bool fleet_wide = ev.device == kAllDevices;
        HILOS_ASSERT(fleet_wide || ev.device == kUplinkTarget ||
                         ev.device < num_devices,
                     "fault event targets device ", ev.device,
                     " but the fleet has ", num_devices);
        switch (ev.kind) {
          case FaultKind::NandReadError:
            for (unsigned d = 0; d < num_devices; d++) {
                if (fleet_wide || ev.device == d) {
                    nand_prob_[d] = std::min(
                        1.0, nand_prob_[d] + ev.probability);
                }
            }
            break;
          case FaultKind::NvmeTimeout:
            for (unsigned d = 0; d < num_devices; d++) {
                if (fleet_wide || ev.device == d) {
                    nvme_prob_[d] = std::min(
                        1.0, nvme_prob_[d] + ev.probability);
                }
            }
            break;
          case FaultKind::LinkDegrade:
            degrades_.push_back(ev);
            break;
          case FaultKind::DeviceFail:
            for (unsigned d = 0; d < num_devices; d++) {
                if (fleet_wide || ev.device == d)
                    fail_at_[d] = std::min(fail_at_[d], ev.at);
            }
            break;
          default:
            break;
        }
    }
    const auto drawing = [](double p) { return p > 0.0; };
    if (std::none_of(nand_prob_.begin(), nand_prob_.end(), drawing) &&
        std::none_of(nvme_prob_.begin(), nvme_prob_.end(), drawing))
        return;
    // One independent stream per device: draws on one device never
    // shift another device's sequence (splitmix-style seeding).
    rng_.reserve(num_devices);
    for (unsigned d = 0; d < num_devices; d++) {
        std::uint64_t z =
            plan.seed + 0x9e3779b97f4a7c15ull *
                            (static_cast<std::uint64_t>(d) + 1);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        rng_.emplace_back(z ^ (z >> 31));
    }
    // Fleet-wide clauses give every device the same probability, so
    // search once per distinct value rather than once per device.
    const auto limits = [](const std::vector<double> &probs) {
        std::vector<std::uint64_t> out(probs.size(), 0);
        double searched = 0.0;
        std::uint64_t limit = 0;
        for (std::size_t d = 0; d < probs.size(); d++) {
            if (probs[d] <= 0.0)
                continue;
            if (probs[d] != searched) {
                searched = probs[d];
                limit = faultDrawLimit(searched);
            }
            out[d] = limit;
        }
        return out;
    };
    nand_limit_ = limits(nand_prob_);
    nvme_limit_ = limits(nvme_prob_);
}

Seconds
FaultInjector::nandReadError(unsigned dev)
{
    std::uniform_int_distribution<unsigned> steps_dist(
        1, retry_.ecc_max_steps);
    const unsigned steps = steps_dist(rng_[dev]);
    const Seconds penalty =
        static_cast<double>(steps) * retry_.ecc_step_latency;
    stats_.nand_read_errors++;
    stats_.nand_retry_steps += steps;
    stats_.retry_time += penalty;
    return penalty;
}

FaultInjector::NvmeOutcome
FaultInjector::nvmeTimedOut(unsigned dev)
{
    // Attempt 1's draw erred in the inline fast path; each retry draws
    // one more raw word.
    NvmeOutcome out;
    for (unsigned attempt = 1;; attempt++) {
        stats_.nvme_timeouts++;
        if (attempt == retry_.nvme_max_attempts) {
            out.failed = true;  // retries exhausted
            stats_.nvme_failures++;
            return out;
        }
        const Seconds delay =
            retry_.nvme_timeout + retry_.backoffDelay(attempt);
        out.extra_latency += delay;
        out.retries++;
        stats_.nvme_retries++;
        stats_.retry_time += delay;
        if (rng_[dev]() > nvme_limit_[dev])
            return out;  // the retry completed
    }
}

double
FaultInjector::nandErrorProbability(unsigned dev) const
{
    return active_ ? nand_prob_.at(dev) : 0.0;
}

double
FaultInjector::nvmeTimeoutProbability(unsigned dev) const
{
    return active_ ? nvme_prob_.at(dev) : 0.0;
}

double
FaultInjector::linkDerate(unsigned dev, Seconds now) const
{
    double derate = 1.0;
    for (const FaultEvent &ev : degrades_) {
        if (ev.device == kUplinkTarget)
            continue;
        if ((ev.device == kAllDevices || ev.device == dev) &&
            now >= ev.at) {
            derate *= ev.bw_multiplier;
        }
    }
    return derate;
}

double
FaultInjector::uplinkDerate(Seconds now) const
{
    double derate = 1.0;
    for (const FaultEvent &ev : degrades_) {
        if (ev.device == kUplinkTarget && now >= ev.at)
            derate *= ev.bw_multiplier;
    }
    return derate;
}

bool
FaultInjector::deviceFailed(unsigned dev, Seconds now) const
{
    return active_ && now >= fail_at_.at(dev);
}

unsigned
FaultInjector::survivingDevices(Seconds now) const
{
    if (!active_)
        return num_devices_;
    unsigned alive = 0;
    for (unsigned d = 0; d < num_devices_; d++) {
        if (!deviceFailed(d, now))
            alive++;
    }
    return alive;
}

std::vector<Seconds>
FaultInjector::eventTimes() const
{
    std::vector<Seconds> times;
    for (Seconds t : fail_at_) {
        if (std::isfinite(t))
            times.push_back(t);
    }
    for (const FaultEvent &ev : degrades_)
        times.push_back(ev.at);
    std::sort(times.begin(), times.end());
    times.erase(std::unique(times.begin(), times.end()), times.end());
    return times;
}

HostFaultView::HostFaultView(const FaultPlan &plan, unsigned num_hosts)
    : num_hosts_(num_hosts),
      fail_at_(num_hosts, std::numeric_limits<Seconds>::infinity())
{
    HILOS_ASSERT(num_hosts >= 1, "host fault view needs >= 1 host");
    const std::vector<std::string> diags = plan.validate();
    if (!diags.empty())
        HILOS_FATAL("invalid fault plan: ", diags.front());
    for (const FaultEvent &ev : plan.events) {
        if (!isHostScope(ev.kind))
            continue;
        active_ = true;
        const bool fleet_wide = ev.device == kAllDevices;
        HILOS_ASSERT(fleet_wide || ev.device < num_hosts,
                     "host event targets host ", ev.device,
                     " but the fleet has ", num_hosts, " hosts");
        switch (ev.kind) {
          case FaultKind::HostFail:
            for (unsigned h = 0; h < num_hosts; h++) {
                if (fleet_wide || ev.device == h)
                    fail_at_[h] = std::min(fail_at_[h], ev.at);
            }
            break;
          case FaultKind::HostLinkDegrade:
            degrades_.push_back(ev);
            break;
          case FaultKind::HostStall:
            if (ev.duration <= 0.0)
                break;  // a zero-length stall is unobservable
            for (unsigned h = 0; h < num_hosts; h++) {
                if (!fleet_wide && ev.device != h)
                    continue;
                StallWindow w;
                w.host = h;
                w.begin = ev.at;
                const Seconds budget = ladderBudget(plan.retry);
                w.escalated = ev.duration > budget;
                w.end = ev.at + (w.escalated
                                     ? budget
                                     : probeRecovery(plan.retry,
                                                     ev.duration));
                stalls_.push_back(w);
                if (w.escalated)
                    fail_at_[h] = std::min(fail_at_[h], w.end);
            }
            break;
          default:
            break;
        }
    }
}

bool
HostFaultView::hostFailed(unsigned host, Seconds now) const
{
    return active_ && now >= fail_at_.at(host);
}

bool
HostFaultView::hostStalled(unsigned host, Seconds now) const
{
    if (!active_ || hostFailed(host, now))
        return false;
    for (const StallWindow &w : stalls_) {
        if (w.host == host && now >= w.begin && now < w.end)
            return true;
    }
    return false;
}

unsigned
HostFaultView::stalledHosts(Seconds now) const
{
    if (!active_)
        return 0;
    unsigned stalled = 0;
    for (unsigned h = 0; h < num_hosts_; h++) {
        if (hostStalled(h, now))
            stalled++;
    }
    return stalled;
}

double
HostFaultView::interHostDerate(Seconds now) const
{
    double derate = 1.0;
    for (const FaultEvent &ev : degrades_) {
        if (now >= ev.at)
            derate *= ev.bw_multiplier;
    }
    return derate;
}

std::vector<Seconds>
HostFaultView::eventTimes() const
{
    std::vector<Seconds> times;
    for (Seconds t : fail_at_) {
        if (std::isfinite(t))
            times.push_back(t);
    }
    for (const StallWindow &w : stalls_) {
        times.push_back(w.begin);
        times.push_back(w.end);
    }
    for (const FaultEvent &ev : degrades_)
        times.push_back(ev.at);
    std::sort(times.begin(), times.end());
    times.erase(std::unique(times.begin(), times.end()), times.end());
    return times;
}

Seconds
HostFaultView::ladderBudget(const RetryPolicy &retry)
{
    Seconds budget = 0.0;
    for (unsigned k = 1; k < retry.nvme_max_attempts; k++)
        budget += retry.nvme_timeout + retry.backoffDelay(k);
    return budget;
}

Seconds
HostFaultView::probeRecovery(const RetryPolicy &retry, Seconds duration)
{
    Seconds probe = 0.0;
    for (unsigned k = 1; k < retry.nvme_max_attempts; k++) {
        probe += retry.nvme_timeout + retry.backoffDelay(k);
        if (probe >= duration)
            return probe;
    }
    return probe;  // ladder exhausted: caller escalates instead
}

}  // namespace hilos
