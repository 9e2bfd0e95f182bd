/**
 * @file
 * Repository benchmark program (see README.md in this directory for the
 * workloads, the metrics and the recorded trajectory).
 *
 *   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *             [--spans-dir <dir>]
 *
 * Untraced (--trace 0): replays the workload's simulation through the
 * library's public entry points (sim::runSimulation, or
 * sim::ParallelRunner::runAll for the fleet) repeatedly for the given
 * host time and prints the end-to-end metrics; host times are the
 * median of the fastest quarter of the repetitions.
 *
 * Traced (--trace 1): re-drives every simulation from outside in the
 * order sim::RequestStepper::step uses (HybridSystem::advanceTo ->
 * PlacementPolicy::selectPlacement -> HybridSystem::serve ->
 * PlacementPolicy::observeOutcome), times each call as a span, reads
 * the agent, HSS and FTL counters around the calls, and prints the
 * per-layer metrics. Spans are written to --spans-dir at exit.
 *
 * Both modes check their outputs: every issued request is served, the
 * simulated metrics repeat exactly across repetitions, the traced
 * re-drive reproduces the untraced run request for request, and the
 * fleet's 1-thread and sharded results serialize to the same bytes.
 * The last stdout line is one JSON object; a failed check makes it say
 * "correct": false and the exit code 1.
 */

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <new>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/sibyl_config.hh"
#include "core/sibyl_policy.hh"
#include "ftl/ftl.hh"
#include "hss/hybrid_system.hh"
#include "sim/experiment.hh"
#include "sim/fleet.hh"
#include "sim/parallel_runner.hh"
#include "sim/simulator.hh"
#include "trace/trace_mux.hh"
#include "trace/workloads.hh"

// ---------------------------------------------------------------------
// Heap-allocation counting for alloc.per_req. Only this binary replaces
// the global allocation functions; the library is not instrumented.
// The counter is per thread, and traced loops run on the main thread.
// ---------------------------------------------------------------------

namespace
{
thread_local std::uint64_t tAllocs = 0;

void *
countedAlloc(std::size_t n)
{
    ++tAllocs;
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

void *
countedAlignedAlloc(std::size_t n, std::align_val_t al)
{
    ++tAllocs;
    const std::size_t a = static_cast<std::size_t>(al);
    const std::size_t rounded =
        (std::max<std::size_t>(n, 1) + a - 1) / a * a;
    if (void *p = std::aligned_alloc(a, rounded))
        return p;
    throw std::bad_alloc();
}
} // namespace

void *operator new(std::size_t n) { return countedAlloc(n); }
void *operator new[](std::size_t n) { return countedAlloc(n); }
void *operator new(std::size_t n, std::align_val_t a)
{
    return countedAlignedAlloc(n, a);
}
void *operator new[](std::size_t n, std::align_val_t a)
{
    return countedAlignedAlloc(n, a);
}
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void *p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

namespace
{

using namespace sibyl;

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ---------------------------------------------------------------------
// Workloads. Every simulation is a closed-loop batch replay at queue
// depth 1 in simulated time. The seed only selects the generated
// traces; device and agent seeds keep their library defaults.
// ---------------------------------------------------------------------

struct TenantDef
{
    const char *policy;
    const char *workload;
};

struct WorkloadDef
{
    const char *name;
    std::vector<TenantDef> tenants; ///< one entry = single-tenant run
    const char *hss;
    std::size_t traceLen;           ///< requests per tenant
    bool detailedFtlOnM;            ///< tier M runs the page-mapped FTL
};

const std::vector<WorkloadDef> &
workloads()
{
    static const std::vector<WorkloadDef> defs = {
        {"c51-train-read", {{"Sibyl-C51", "prxy_1"}}, "H&M", 60000, false},
        {"dqn-serve-write-ftl",
         {{"Sibyl-DQN{trainEvery=0}", "rsrch_0"}},
         "H&M&L",
         1000000,
         true},
        {"fleet-mixed-8",
         {{"Sibyl-C51", "prxy_1"},
          {"Sibyl-DQN{trainEvery=0}", "mds_0"},
          {"CDE", "rsrch_0"},
          {"HPS", "usr_0"},
          {"Sibyl-C51", "mds_0"},
          {"Sibyl-DQN{trainEvery=0}", "rsrch_0"},
          {"CDE", "usr_0"},
          {"HPS", "prxy_1"}},
         "H&M",
         30000,
         false},
    };
    return defs;
}

/** Wear leveling on the FTL tier; no rated-P/E or grown-bad
 *  retirement, so the device never fails during the run. */
constexpr std::uint64_t kWearLevelSpread = 8;

sim::SimConfig
closedLoopQd1()
{
    sim::SimConfig c;
    c.queueDepth = 1;
    return c;
}

std::vector<device::DeviceSpec>
deviceSpecs(const WorkloadDef &w, const trace::Trace &t)
{
    auto specs = hss::makeHssConfig(w.hss, t.uniquePages());
    if (w.detailedFtlOnM) {
        specs.at(1).detailedFtl = true;
        specs.at(1).ftlWearLevelSpread = kWearLevelSpread;
    }
    return specs;
}

/** One tenant's system and policy. */
struct Stack
{
    std::unique_ptr<hss::HybridSystem> sys;
    std::unique_ptr<policies::PlacementPolicy> policy;
};

/** Device-jitter and agent seeds of a fleet tenant. */
struct StackSeeds
{
    std::uint64_t device;
    std::uint64_t agent;
};

/** Build a stack; without @p seeds the library's default seeds. */
Stack
makeStack(const WorkloadDef &w, const TenantDef &tenant,
          const trace::Trace &t, const std::optional<StackSeeds> &seeds)
{
    Stack s;
    core::SibylConfig cfg;
    if (seeds) {
        s.sys = std::make_unique<hss::HybridSystem>(deviceSpecs(w, t),
                                                    seeds->device);
        cfg.seed = seeds->agent;
    } else {
        s.sys = std::make_unique<hss::HybridSystem>(deviceSpecs(w, t));
    }
    s.policy = sim::makePolicy(tenant.policy, s.sys->numDevices(), cfg);
    return s;
}

// ---- Fleet plumbing (public ParallelRunner / FleetSpec API).

std::uint64_t
tenantTraceSeed(std::uint64_t seed, std::size_t tenant)
{
    return seed * 16 + tenant + 1; // never 0 (= generator default)
}

sim::RunSpec
fleetRunSpec(const WorkloadDef &w, std::uint64_t seed)
{
    auto fleet = std::make_shared<sim::FleetSpec>();
    for (std::size_t i = 0; i < w.tenants.size(); i++) {
        sim::FleetTenant t;
        t.policy = w.tenants[i].policy;
        t.workload = w.tenants[i].workload;
        t.traceLen = w.traceLen;
        t.traceSeed = tenantTraceSeed(seed, i);
        fleet->tenants.push_back(t);
    }
    sim::RunSpec spec;
    spec.policy = "Fleet";
    spec.workload = w.name;
    spec.hssConfig = w.hss;
    spec.traceLen = w.traceLen;
    spec.sim = closedLoopQd1();
    spec.fleet = fleet;
    return spec;
}

/** The tenant's pseudo-run spec per the tenant RNG-derivation rule in
 *  sim/fleet.hh; its run key seeds the tenant's device and agent. */
sim::RunSpec
tenantRunSpec(const sim::RunSpec &fleet, std::size_t i)
{
    const sim::FleetTenant &t = fleet.fleet->tenants[i];
    sim::RunSpec s;
    s.policy = t.policy;
    s.workload = t.workload;
    s.hssConfig = fleet.hssConfig;
    s.fastCapacityFrac = fleet.fastCapacityFrac;
    s.traceLen = t.traceLen;
    s.traceSeed = t.traceSeed;
    s.seed = fleet.seed;
    s.sim = fleet.sim;
    s.variantTag = "fleet-tenant:" + std::to_string(i);
    return s;
}

StackSeeds
tenantSeeds(const sim::RunSpec &tenantSpec)
{
    const std::uint64_t key = sim::ParallelRunner::runKey(tenantSpec);
    StackSeeds s{};
    s.device =
        sim::ParallelRunner::deriveStream(key, sim::kDeviceJitterSalt);
    s.agent = sim::ParallelRunner::deriveStream(key, sim::kAgentSalt);
    return s;
}

/** Byte image of a run's simulated metrics (writeRecordJson prints
 *  every double with %.17g, so equal bytes mean equal bits). */
std::string
metricsBytes(const sim::RunMetrics &m)
{
    sim::RunRecord r;
    r.result.metrics = m;
    std::ostringstream os;
    sim::writeRecordJson(os, r, nullptr);
    return os.str();
}

std::string
recordsBytes(const std::vector<sim::RunRecord> &records)
{
    std::ostringstream os;
    sim::writeResultsJson(os, records);
    return os.str();
}

// ---------------------------------------------------------------------
// Checks and metric output.
// ---------------------------------------------------------------------

struct Outcome
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> errors;

    void
    check(bool ok, const std::string &what)
    {
        if (!ok)
            errors.push_back(what);
    }
};

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out + "\"";
}

/** Peak resident memory of this process image. VmHWM is per address
 *  space, unlike getrusage's ru_maxrss, which on Linux keeps the
 *  high-water mark of the parent process that forked and exec'd us. */
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0; // kB -> MB
    throw std::runtime_error("no VmHWM in /proc/self/status");
}

/** Request count that a run did not serve: missing requests plus ops
 *  that hit an unhealthy device. */
std::uint64_t
unserved(const sim::RunMetrics &m, std::size_t issued,
         const hss::HybridSystem &sys)
{
    const std::uint64_t missing =
        issued > m.requests ? issued - m.requests : 0;
    return missing + std::min<std::uint64_t>(sys.counters().failedOps,
                                             m.requests);
}

// ---------------------------------------------------------------------
// Tracing: spans at each layer boundary of the request path.
// ---------------------------------------------------------------------

/** Log-linear histogram of nanosecond durations: 64 sub-buckets per
 *  power of two (about 1% resolution), fixed size, no allocation. */
class LogHist
{
  public:
    void
    add(std::int64_t ns)
    {
        const auto v =
            static_cast<std::uint64_t>(std::max<std::int64_t>(ns, 1));
        const int e = std::bit_width(v) - 1;
        const std::uint64_t sub = e >= kSubBits
            ? (v >> (e - kSubBits)) & (kSub - 1)
            : (v << (kSubBits - e)) & (kSub - 1);
        bins_[std::min<std::size_t>(e * kSub + sub, bins_.size() - 1)]++;
        count_++;
    }

    std::uint64_t count() const { return count_; }

    /** Quantile, interpolating by rank inside the bucket. */
    double
    quantile(double q) const
    {
        if (count_ == 0)
            return 0.0;
        const double rank = q * static_cast<double>(count_ - 1);
        std::uint64_t seen = 0;
        for (std::size_t i = 0; i < bins_.size(); i++) {
            if (bins_[i] == 0)
                continue;
            if (static_cast<double>(seen + bins_[i]) > rank) {
                const int e = static_cast<int>(i / kSub);
                const double sub = static_cast<double>(i % kSub);
                const double lo = std::ldexp(1.0 + sub / kSub, e);
                const double hi = std::ldexp(1.0 + (sub + 1) / kSub, e);
                const double frac = (rank - static_cast<double>(seen) + 0.5) /
                                    static_cast<double>(bins_[i]);
                return lo + (hi - lo) * std::min(frac, 1.0);
            }
            seen += bins_[i];
        }
        return 0.0;
    }

  private:
    static constexpr int kSubBits = 6;
    static constexpr std::uint64_t kSub = 1u << kSubBits;
    std::array<std::uint64_t, 48 * kSub> bins_{};
    std::uint64_t count_ = 0;
};

enum Layer : std::uint8_t
{
    kStep,    ///< one request (parent of the others)
    kAdvance, ///< HybridSystem::advanceTo
    kDecide,  ///< selectPlacement calls that ran no training round
    kTrain,   ///< selectPlacement calls that ran a training round
    kServe,   ///< HybridSystem::serve
    kObserve, ///< PlacementPolicy::observeOutcome
    kNumLayers
};

constexpr const char *kLayerNames[kNumLayers] = {
    "step", "advance", "decide", "train", "serve", "observe"};

struct Span
{
    std::int64_t startNs;
    std::int64_t endNs;
    std::uint64_t req;
    std::int32_t parent; ///< index in the run's span list, -1 = root
    Layer layer;
};

/**
 * Span store with bounded memory: whole spans for the first
 * kWindowRequests requests of each recorded run, and per-layer
 * histograms plus total and self times for every request.
 */
class Tracer
{
  public:
    static constexpr std::size_t kWindowRequests = 2048;

    struct Run
    {
        std::string label;
        std::int64_t originNs = 0;
        std::vector<Span> spans;
    };

    struct LayerTotals
    {
        LogHist hist;
        std::int64_t totalNs = 0;
        std::int64_t selfNs = 0;
    };

    /** Open a run; spans are kept only for the first @p maxRuns. */
    void
    beginRun(const std::string &label, std::int64_t originNs,
             std::size_t maxRuns)
    {
        current_ = nullptr;
        if (runs_.size() >= maxRuns)
            return;
        runs_.push_back({label, originNs, {}});
        current_ = &runs_.back();
        current_->spans.reserve(kWindowRequests * kNumLayers);
    }

    /** Record one request from its six boundary timestamps. */
    void
    step(std::uint64_t req, const std::int64_t (&t)[6], bool trained)
    {
        const Layer select = trained ? kTrain : kDecide;
        add(kAdvance, t[1] - t[0], t[1] - t[0]);
        add(select, t[2] - t[1], t[2] - t[1]);
        add(kServe, t[3] - t[2], t[3] - t[2]);
        add(kObserve, t[4] - t[3], t[4] - t[3]);
        add(kStep, t[5] - t[0], t[5] - t[4]);
        if (current_ && req < kWindowRequests) {
            auto &sp = current_->spans;
            const auto parent = static_cast<std::int32_t>(sp.size());
            sp.push_back({t[0], t[5], req, -1, kStep});
            sp.push_back({t[0], t[1], req, parent, kAdvance});
            sp.push_back({t[1], t[2], req, parent, select});
            sp.push_back({t[2], t[3], req, parent, kServe});
            sp.push_back({t[3], t[4], req, parent, kObserve});
        }
    }

    const LayerTotals &layer(Layer l) const { return layers_[l]; }

    void
    write(const std::string &path, const std::string &workload,
          std::uint64_t seed) const
    {
        std::ofstream os(path);
        if (!os)
            return;
        os << "{\"workload\": " << jsonString(workload)
           << ", \"seed\": " << seed
           << ", \"window_requests\": " << kWindowRequests
           << ",\n \"span_fields\": [\"name\", \"start_ns\", \"end_ns\", "
              "\"parent\", \"request\"],\n \"layers\": {";
        for (int l = 0; l < kNumLayers; l++) {
            const LayerTotals &t = layers_[l];
            os << (l ? ",\n  " : "\n  ") << jsonString(kLayerNames[l])
               << ": {\"calls\": " << t.hist.count()
               << ", \"total_ns\": " << t.totalNs
               << ", \"self_ns\": " << t.selfNs
               << ", \"p50_ns\": " << jsonNumber(t.hist.quantile(0.5))
               << ", \"p99_ns\": " << jsonNumber(t.hist.quantile(0.99))
               << ", \"p999_ns\": " << jsonNumber(t.hist.quantile(0.999))
               << "}";
        }
        os << "},\n \"runs\": [";
        for (std::size_t r = 0; r < runs_.size(); r++) {
            const Run &run = runs_[r];
            os << (r ? ",\n  " : "\n  ") << "{\"label\": "
               << jsonString(run.label) << ", \"spans\": [";
            for (std::size_t i = 0; i < run.spans.size(); i++) {
                const Span &s = run.spans[i];
                os << (i ? "," : "") << (i % 5 == 0 ? "\n   " : "") << "["
                   << jsonString(kLayerNames[s.layer]) << ","
                   << s.startNs - run.originNs << ","
                   << s.endNs - run.originNs << "," << s.parent << ","
                   << s.req << "]";
            }
            os << "]}";
        }
        os << "]}\n";
    }

  private:
    void
    add(Layer l, std::int64_t dur, std::int64_t self)
    {
        layers_[l].hist.add(dur);
        layers_[l].totalNs += dur;
        layers_[l].selfNs += self;
    }

    std::array<LayerTotals, kNumLayers> layers_{};
    std::vector<Run> runs_;
    Run *current_ = nullptr;
};

/** Counters and walls accumulated over every traced re-drive. */
struct TracedTotals
{
    std::int64_t tracedWallNs = 0;
    std::uint64_t requests = 0;
    std::uint64_t trainCalls = 0;
    std::uint64_t trainRounds = 0;
    std::uint64_t gradientSteps = 0;
    std::uint64_t allocs = 0;
    std::uint64_t evictedPages = 0;
    std::uint64_t promotions = 0;
    std::uint64_t mappedPages = 0;
    bool anyFtl = false;
    std::uint64_t ftlHostWrites = 0;
    std::uint64_t ftlGcCopies = 0;
    std::uint64_t ftlErases = 0;
};

/** Per-request results of one simulation, for request-by-request
 *  comparison between the traced re-drive and runSimulation. */
struct PerRequest
{
    std::vector<double> latencyUs;
    std::vector<double> finishUs;
    std::vector<std::uint8_t> action;
};

/**
 * Re-drive @p t on a fresh stack from outside, timing each call. Same
 * order and arguments as sim::RequestStepper::step at queue depth 1:
 * request i arrives at max(its timestamp, completion of request i-1).
 */
PerRequest
tracedDrive(const trace::Trace &t, Stack &stack, Tracer &tracer,
            TracedTotals &tot, Outcome &out, const std::string &label,
            std::size_t maxSpanRuns)
{
    hss::HybridSystem &sys = *stack.sys;
    policies::PlacementPolicy &policy = *stack.policy;
    policy.prepare(t, sys);
    auto *sibyl = dynamic_cast<core::SibylPolicy *>(&policy);
    const auto agentStats = [&]() -> rl::AgentStats {
        return sibyl ? sibyl->agent().stats() : rl::AgentStats{};
    };

    PerRequest pr;
    pr.latencyUs.reserve(t.size());
    pr.finishUs.reserve(t.size());
    pr.action.reserve(t.size());
    const rl::AgentStats before = agentStats();

    const std::int64_t wall0 = nowNs();
    tracer.beginRun(label, wall0, maxSpanRuns);
    const std::uint64_t allocs0 = tAllocs;
    SimTime prevFinish = 0.0;
    std::uint64_t failed = 0;
    std::int64_t ts[6];
    for (std::size_t i = 0; i < t.size(); i++) {
        const trace::Request &req = t[i];
        const std::uint64_t rounds0 =
            sibyl ? sibyl->agent().stats().trainingRounds : 0;
        const std::uint64_t failedOps0 = sys.counters().failedOps;

        ts[0] = nowNs();
        const SimTime arrival = std::max(req.timestamp, prevFinish);
        sys.advanceTo(arrival);
        ts[1] = nowNs();
        const DeviceId action = policy.selectPlacement(sys, req, i);
        ts[2] = nowNs();
        const hss::ServeResult res = sys.serve(arrival, req, action);
        ts[3] = nowNs();
        policy.observeOutcome(sys, req, action, res);
        ts[4] = nowNs();
        prevFinish = res.finishUs;
        pr.latencyUs.push_back(res.latencyUs);
        pr.finishUs.push_back(res.finishUs);
        pr.action.push_back(static_cast<std::uint8_t>(action));
        ts[5] = nowNs();

        const std::uint64_t rounds =
            (sibyl ? sibyl->agent().stats().trainingRounds : 0) - rounds0;
        tracer.step(i, ts, rounds > 0);
        if (rounds) {
            tot.trainCalls++;
            tot.trainRounds += rounds;
        }
        if (!(std::isfinite(res.latencyUs) && res.latencyUs >= 0.0) ||
            sys.counters().failedOps != failedOps0)
            failed++;
    }
    tot.allocs += tAllocs - allocs0;
    tot.tracedWallNs += nowNs() - wall0;

    tot.requests += t.size();
    tot.gradientSteps += agentStats().gradientSteps - before.gradientSteps;
    const hss::HssCounters &c = sys.counters();
    tot.evictedPages += c.evictedPages;
    tot.promotions += c.promotions;
    tot.mappedPages += sys.metadata().mappedPages();
    for (DeviceId d = 0; d < sys.numDevices(); d++) {
        if (const ftl::PageMappedFtl *f = sys.device(d).ftl()) {
            tot.anyFtl = true;
            tot.ftlHostWrites += f->stats().hostWrites;
            tot.ftlGcCopies += f->stats().gcCopies;
            tot.ftlErases += f->stats().erases;
        }
    }
    out.attempted += t.size();
    out.failed += failed;
    out.check(failed == 0, label + ": " + std::to_string(failed) +
                               " requests not served (traced)");
    return pr;
}

/** Compare the traced re-drive with runSimulation's per-request
 *  record, bit for bit. */
void
checkSameRequests(const PerRequest &traced, const sim::RunMetrics &ref,
                  Outcome &out, const std::string &label)
{
    const bool same =
        traced.latencyUs.size() == ref.perRequestLatencyUs.size() &&
        std::equal(traced.latencyUs.begin(), traced.latencyUs.end(),
                   ref.perRequestLatencyUs.begin(),
                   [](double a, double b) {
                       return std::bit_cast<std::uint64_t>(a) ==
                              std::bit_cast<std::uint64_t>(b);
                   }) &&
        std::equal(traced.finishUs.begin(), traced.finishUs.end(),
                   ref.perRequestFinishUs.begin(),
                   [](double a, double b) {
                       return std::bit_cast<std::uint64_t>(a) ==
                              std::bit_cast<std::uint64_t>(b);
                   }) &&
        traced.action == ref.perRequestAction;
    out.check(same, label + ": traced re-drive differs from "
                            "runSimulation (per-request latency, "
                            "completion or action)");
}

// ---------------------------------------------------------------------
// Runs.
// ---------------------------------------------------------------------

struct Args
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10.0;
    bool trace = false;
    std::string spansDir;
};

unsigned
fleetThreads()
{
    return std::max(1u, std::min(4u, std::thread::hardware_concurrency()));
}

/** Set-up of one repetition: the workload's traces for the seed, the
 *  fleet's merged schedule, and every tenant's system and policy.
 *  Single-tenant workloads have one trace and one stack. */
struct Setup
{
    std::vector<std::shared_ptr<const trace::Trace>> traces;
    std::vector<std::optional<StackSeeds>> seeds; ///< fleet tenants only
    std::vector<Stack> stacks;
    std::unique_ptr<sim::ParallelRunner> runner; ///< fleet only
    sim::RunSpec fleetSpec;                      ///< fleet only
    std::uint64_t requests = 0;
    double genS = 0.0;   ///< trace generation
    double totalS = 0.0; ///< the whole set-up
};

std::vector<const trace::Trace *>
traceViews(const Setup &s)
{
    std::vector<const trace::Trace *> v;
    for (const auto &t : s.traces)
        v.push_back(t.get());
    return v;
}

Setup
setUp(const WorkloadDef &w, std::uint64_t seed, Outcome &out)
{
    Setup s;
    const std::int64_t t0 = nowNs();
    if (w.tenants.size() == 1) {
        s.traces.push_back(std::make_shared<const trace::Trace>(
            trace::makeWorkload(w.tenants[0].workload, w.traceLen, seed)));
        s.seeds.push_back(std::nullopt);
    } else {
        // Through the runner's trace cache, so runAll reuses them.
        sim::ParallelConfig pc;
        pc.numThreads = fleetThreads();
        s.runner = std::make_unique<sim::ParallelRunner>(pc);
        s.fleetSpec = fleetRunSpec(w, seed);
        for (std::size_t i = 0; i < w.tenants.size(); i++) {
            const sim::RunSpec ts = tenantRunSpec(s.fleetSpec, i);
            s.traces.push_back(s.runner->traceCache().get(ts.traceKey()));
            s.seeds.push_back(tenantSeeds(ts));
        }
    }
    s.genS = static_cast<double>(nowNs() - t0) * 1e-9;
    for (const auto &t : s.traces)
        s.requests += t->size();
    if (s.traces.size() > 1) {
        const trace::TraceMultiplexer mux(traceViews(s));
        out.check(mux.size() == s.requests,
                  "the multiplexed schedule lost requests");
    }
    for (std::size_t i = 0; i < s.traces.size(); i++)
        s.stacks.push_back(
            makeStack(w, w.tenants[i], *s.traces[i], s.seeds[i]));
    s.totalS = static_cast<double>(nowNs() - t0) * 1e-9;
    return s;
}

/** Result of one untraced simulation of the whole workload. */
struct SimRun
{
    double wallS = 0.0;
    std::string bytes; ///< repeat-check image of the simulated metrics
    double avgLatencyUs = 0.0;
    double p99LatencyUs = 0.0;
    std::vector<sim::RunRecord> records; ///< fleet only
};

/** Untraced single-tenant simulation through runSimulation. */
SimRun
runSingle(Setup &s, Outcome &out)
{
    SimRun r;
    const trace::Trace &t = *s.traces.at(0);
    Stack &st = s.stacks.at(0);
    const std::int64_t t0 = nowNs();
    const sim::RunMetrics m =
        sim::runSimulation(t, *st.sys, *st.policy, closedLoopQd1());
    r.wallS = static_cast<double>(nowNs() - t0) * 1e-9;
    r.bytes = metricsBytes(m);
    r.avgLatencyUs = m.avgLatencyUs;
    r.p99LatencyUs = m.p99LatencyUs;
    const std::uint64_t bad = unserved(m, t.size(), *st.sys);
    out.attempted += t.size();
    out.failed += bad;
    out.check(bad == 0, std::to_string(bad) + " requests not served");
    return r;
}

/** Untraced fleet run through ParallelRunner::runAll. @p runner's
 *  trace cache already holds the tenant traces. */
SimRun
runFleet(const Setup &s, sim::ParallelRunner &runner, Outcome &out)
{
    SimRun r;
    const std::int64_t t0 = nowNs();
    r.records = runner.runAll({s.fleetSpec});
    r.wallS = static_cast<double>(nowNs() - t0) * 1e-9;
    const sim::RunRecord &rec = r.records.at(0);
    r.bytes = recordsBytes(r.records);
    r.avgLatencyUs = rec.result.metrics.avgLatencyUs;
    r.p99LatencyUs = rec.result.metrics.p99LatencyUs;
    const std::uint64_t served =
        rec.failed() ? 0 : rec.result.metrics.requests;
    std::uint64_t failedOps = 0;
    for (const auto &ten : rec.result.tenants)
        failedOps += ten.metrics.failedOps;
    const std::uint64_t bad =
        (s.requests > served ? s.requests - served : 0) +
        std::min(failedOps, served);
    out.attempted += s.requests;
    out.failed += bad;
    out.check(!rec.failed(), "fleet run failed: " + rec.error);
    out.check(bad == 0, std::to_string(bad) + " fleet requests not served");
    out.check(rec.result.tenants.size() == s.traces.size(),
              "fleet result lost tenants");
    return r;
}

/** Print every metric, then the result line; returns the exit code. */
int
report(const Outcome &out, const std::vector<Metric> &metrics,
       const std::vector<Metric> &info)
{
    for (const std::string &e : out.errors)
        std::fprintf(stderr, "CHECK FAILED: %s\n", e.c_str());
    for (const auto *list : {&metrics, &info})
        for (const Metric &m : *list)
            std::printf("%-34s %20.6f %s\n", m.name.c_str(), m.value,
                        m.unit.c_str());
    std::string line = "{\"correct\": ";
    line += out.errors.empty() ? "true" : "false";
    line += ", \"attempted\": " + std::to_string(out.attempted);
    line += ", \"failed\": " + std::to_string(out.failed);
    line += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); i++) {
        const Metric &m = metrics[i];
        line += (i ? ", " : "") + jsonString(m.name) + ": {\"value\": " +
                jsonNumber(m.value) + ", \"unit\": " + jsonString(m.unit) +
                "}";
    }
    line += "}}";
    std::printf("%s\n", line.c_str());
    std::fflush(stdout);
    return out.errors.empty() ? 0 : 1;
}

/** Median of the fastest quarter of @p times (about the 12th
 *  percentile). Interference from other load on a shared host only
 *  ever adds time, and it comes in spells of seconds to minutes that
 *  slow a repetition by up to 1.5x, so the fastest repetitions track
 *  the program's own cost; a slowdown of the program itself moves
 *  every repetition, and this statistic with them. */
double
fastQuarterMedian(std::vector<double> times)
{
    std::sort(times.begin(), times.end());
    times.resize((times.size() + 3) / 4);
    return median(times);
}

double
elapsedS(std::int64_t startNs)
{
    return static_cast<double>(nowNs() - startNs) * 1e-9;
}

/** End-to-end metrics: repetitions until the time budget is spent. */
int
runEndToEnd(const WorkloadDef &w, const Args &a)
{
    constexpr std::size_t kMinReps = 3;
    constexpr std::size_t kMinSetups = 15;
    Outcome out;
    std::vector<double> setupS, runS;
    std::string refBytes;
    double avgLat = 0.0, p99Lat = 0.0;
    std::uint64_t requests = 0;
    const std::int64_t start = nowNs();
    double lastRepS = 0.0;
    // Stop before a repetition (plus the set-up samples still owed)
    // would overrun the budget.
    const auto owedS = [&] {
        return lastRepS + static_cast<double>(kMinSetups -
                                              std::min(kMinSetups,
                                                       setupS.size() + 1)) *
                              median(setupS);
    };
    for (std::size_t rep = 0;
         rep < kMinReps || elapsedS(start) + owedS() <= a.seconds; rep++) {
        const std::int64_t r0 = nowNs();
        Setup s = setUp(w, a.seed, out);
        const SimRun r = s.runner ? runFleet(s, *s.runner, out)
                                     : runSingle(s, out);
        std::fprintf(stderr, "rep %zu: setup %.4f s, run %.4f s\n", rep,
                     s.totalS, r.wallS);
        setupS.push_back(s.totalS);
        runS.push_back(r.wallS);
        requests = s.requests;
        if (rep == 0) {
            refBytes = r.bytes;
            avgLat = r.avgLatencyUs;
            p99Lat = r.p99LatencyUs;
        }
        out.check(r.bytes == refBytes,
                  "simulated metrics differ between repetition 0 and " +
                      std::to_string(rep));
        lastRepS = elapsedS(r0);
    }
    while (setupS.size() < kMinSetups)
        setupS.push_back(setUp(w, a.seed, out).totalS);

    const double reqs = static_cast<double>(requests);
    const std::vector<Metric> metrics = {
        {"req_per_s", reqs / fastQuarterMedian(runS), "req/s"},
        {"setup_s", fastQuarterMedian(setupS), "s"},
        {"peak_rss_mb", peakRssMb(), "MB"},
        {"sim_avg_latency_us", avgLat, "us"},
        {"sim_p99_latency_us", p99Lat, "us"},
    };
    const double failedFrac =
        out.attempted ? static_cast<double>(out.failed) /
                            static_cast<double>(out.attempted)
                      : 1.0;
    const std::vector<Metric> info = {
        {"failed_frac", failedFrac, "frac"},
        {"repetitions", static_cast<double>(runS.size()), "count"},
        {"req_per_s.all_reps_median", reqs / median(runS), "req/s"},
        {"req_per_s.slowest_rep",
         reqs / *std::max_element(runS.begin(), runS.end()), "req/s"},
        {"setup_samples", static_cast<double>(setupS.size()), "count"},
    };
    return report(out, metrics, info);
}

/** Per-layer metrics from traced re-drives (plus the fleet's serial,
 *  sharded and tenant-alone walls). */
int
runTraced(const WorkloadDef &w, const Args &a)
{
    Outcome out;
    Tracer tracer;
    TracedTotals tot;
    const bool fleet = w.tenants.size() > 1;
    const unsigned threads = fleetThreads();
    std::vector<double> genS, muxNsPerReq, untracedWallS, tracedWallS;
    std::vector<double> serialWallS, shardedWallS, tenantMaxOverMean;
    std::vector<std::string> refBytes;
    std::string refFleetBytes;
    const std::int64_t start = nowNs();
    double lastIterS = 0.0;

    for (std::size_t rep = 0;
         rep == 0 || elapsedS(start) + lastIterS <= a.seconds; rep++) {
        const std::int64_t iter0 = nowNs();
        Setup s = setUp(w, a.seed, out);
        genS.push_back(s.genS);
        const std::size_t n = s.traces.size();

        const std::int64_t m0 = nowNs();
        const trace::TraceMultiplexer mux(traceViews(s));
        muxNsPerReq.push_back(static_cast<double>(nowNs() - m0) /
                              static_cast<double>(mux.size()));

        SimRun serial;
        if (fleet) {
            sim::ParallelConfig pc;
            pc.numThreads = 1;
            sim::ParallelRunner serialRunner(pc);
            for (std::size_t i = 0; i < n; i++)
                (void)serialRunner.traceCache().get(
                    tenantRunSpec(s.fleetSpec, i).traceKey());
            serial = runFleet(s, serialRunner, out);
            const SimRun sharded = runFleet(s, *s.runner, out);
            serialWallS.push_back(serial.wallS);
            shardedWallS.push_back(sharded.wallS);
            out.check(serial.bytes == sharded.bytes,
                      "fleet results differ between 1 and " +
                          std::to_string(threads) + " threads");
            if (rep == 0)
                refFleetBytes = serial.bytes;
            out.check(serial.bytes == refFleetBytes,
                      "fleet results differ between repetitions");
        }

        // Each simulation alone: untraced wall, then the traced
        // re-drive on a fresh stack.
        std::vector<double> tenantWall(n);
        double tracedSum = 0.0, untracedSum = 0.0;
        for (std::size_t i = 0; i < n; i++) {
            const trace::Trace &t = *s.traces[i];
            const std::string label = std::string(w.tenants[i].policy) +
                                      " on " + w.tenants[i].workload +
                                      (fleet ? " (tenant " +
                                                   std::to_string(i) + ")"
                                             : "");
            Stack &plain = s.stacks[i];
            const std::int64_t u0 = nowNs();
            const sim::RunMetrics m = sim::runSimulation(
                t, *plain.sys, *plain.policy, closedLoopQd1());
            tenantWall[i] = static_cast<double>(nowNs() - u0) * 1e-9;
            untracedSum += tenantWall[i];
            const std::string bytes = metricsBytes(m);
            if (fleet)
                // Tenant i alone is bit-identical to tenant i inside
                // the fleet (sim/fleet.hh tenant RNG-derivation rule).
                out.check(bytes == metricsBytes(serial.records.at(0)
                                                    .result.tenants.at(i)
                                                    .metrics),
                          label + ": differs from the same tenant inside "
                                  "the fleet");
            if (rep == 0)
                refBytes.push_back(bytes);
            out.check(bytes == refBytes.at(i),
                      label + ": simulated metrics differ between "
                              "repetitions");

            Stack traced = makeStack(w, w.tenants[i], t, s.seeds[i]);
            const std::int64_t tr0 = tot.tracedWallNs;
            const PerRequest pr =
                tracedDrive(t, traced, tracer, tot, out, label, n);
            tracedSum += static_cast<double>(tot.tracedWallNs - tr0) * 1e-9;

            if (rep == 0) {
                sim::SimConfig rc = closedLoopQd1();
                rc.recordPerRequest = true;
                Stack ref = makeStack(w, w.tenants[i], t, s.seeds[i]);
                const sim::RunMetrics rm =
                    sim::runSimulation(t, *ref.sys, *ref.policy, rc);
                checkSameRequests(pr, rm, out, label);
                out.check(metricsBytes(rm) == bytes,
                          label + ": recording per-request results "
                                  "changed the simulated metrics");
            }
        }
        untracedWallS.push_back(untracedSum);
        tracedWallS.push_back(tracedSum);
        double mean = 0.0, mx = 0.0;
        for (double x : tenantWall) {
            mean += x / static_cast<double>(n);
            mx = std::max(mx, x);
        }
        tenantMaxOverMean.push_back(mean > 0.0 ? mx / mean : 0.0);
        if (!fleet)
            serialWallS.push_back(untracedSum);
        lastIterS = elapsedS(iter0);
    }

    // Layer attribution. A selectPlacement call that ran a training
    // round also made a decision; charge it the decide median.
    const auto &L = [&](Layer l) -> const Tracer::LayerTotals & {
        return tracer.layer(l);
    };
    const double wall = static_cast<double>(tot.tracedWallNs);
    const double reqs = static_cast<double>(tot.requests);
    const double decideP50 = L(kDecide).hist.quantile(0.5);
    const double decideNs = static_cast<double>(L(kDecide).totalNs) +
                            decideP50 * static_cast<double>(tot.trainCalls);
    const double trainNs =
        std::max(0.0, static_cast<double>(L(kTrain).totalNs) -
                          decideP50 * static_cast<double>(tot.trainCalls));
    const LogHist &stepHist = L(kStep).hist;

    // The layers' self times (each step's own bookkeeping included)
    // must account for the traced wall; what is left is loop overhead
    // between request spans.
    double selfSum = 0.0;
    for (int l = 0; l < kNumLayers; l++)
        selfSum += static_cast<double>(L(static_cast<Layer>(l)).selfNs);
    out.check(selfSum <= wall && selfSum >= 0.75 * wall,
              "layer self times cover " + std::to_string(selfSum / wall) +
                  " of the traced wall (expected 0.75 .. 1)");

    const double serialWall = median(serialWallS);
    const double shardedWall = fleet ? median(shardedWallS) : serialWall;
    const unsigned effThreads = fleet ? threads : 1;
    const double ftlWa = tot.ftlHostWrites
        ? static_cast<double>(tot.ftlHostWrites + tot.ftlGcCopies) /
              static_cast<double>(tot.ftlHostWrites)
        : (tot.anyFtl ? 1.0 : 0.0);

    const std::vector<Metric> metrics = {
        {"trace.gen_s", median(genS), "s"},
        {"trace.mux_build_ns_per_req", median(muxNsPerReq), "ns/req"},
        {"sim.step_ns.p50", stepHist.quantile(0.5), "ns"},
        {"sim.step_ns.p99", stepHist.quantile(0.99), "ns"},
        {"sim.advance_ns_per_req",
         static_cast<double>(L(kAdvance).totalNs) / reqs, "ns/req"},
        {"sim.trace_overhead_frac",
         median(tracedWallS) / median(untracedWallS) - 1.0, "frac"},
        {"sim.unattributed_frac", (wall - selfSum) / wall, "frac"},
        {"decide.ns.p50", decideP50, "ns"},
        {"decide.ns.p99", L(kDecide).hist.quantile(0.99), "ns"},
        {"decide.share", decideNs / wall, "frac"},
        {"train.ns_per_round",
         tot.trainRounds ? trainNs / static_cast<double>(tot.trainRounds)
                         : 0.0,
         "ns"},
        {"train.rounds_per_kreq",
         1000.0 * static_cast<double>(tot.trainRounds) / reqs, "1/kreq"},
        {"train.gradient_steps_per_req",
         static_cast<double>(tot.gradientSteps) / reqs, "1/req"},
        {"train.share", trainNs / wall, "frac"},
        {"serve.ns.p50", L(kServe).hist.quantile(0.5), "ns"},
        {"serve.ns.p99", L(kServe).hist.quantile(0.99), "ns"},
        {"serve.share", static_cast<double>(L(kServe).totalNs) / wall,
         "frac"},
        {"hss.evicted_pages_per_req",
         static_cast<double>(tot.evictedPages) / reqs, "pages/req"},
        {"hss.promotions_per_kreq",
         1000.0 * static_cast<double>(tot.promotions) / reqs, "1/kreq"},
        {"hss.mapped_pages",
         static_cast<double>(tot.mappedPages) /
             static_cast<double>(tracedWallS.size()),
         "pages"},
        {"ftl.write_amplification", ftlWa, "ratio"},
        {"ftl.gc_copies_per_req",
         static_cast<double>(tot.ftlGcCopies) / reqs, "pages/req"},
        {"ftl.erases_per_kreq",
         1000.0 * static_cast<double>(tot.ftlErases) / reqs, "1/kreq"},
        {"observe.ns_per_req",
         static_cast<double>(L(kObserve).totalNs) / reqs, "ns/req"},
        {"alloc.per_req", static_cast<double>(tot.allocs) / reqs, "1/req"},
        {"fleet.serial_wall_s", serialWall, "s"},
        {"fleet.parallel_efficiency",
         serialWall / (static_cast<double>(effThreads) * shardedWall),
         "frac"},
        {"fleet.tenant_wall_max_over_mean", median(tenantMaxOverMean),
         "ratio"},
    };
    const std::vector<Metric> info = {
        {"traced_repetitions", static_cast<double>(tracedWallS.size()),
         "count"},
        {"advance.share",
         static_cast<double>(L(kAdvance).totalNs) / wall, "frac"},
        {"observe.share",
         static_cast<double>(L(kObserve).totalNs) / wall, "frac"},
        {"step_self.share", static_cast<double>(L(kStep).selfNs) / wall,
         "frac"},
        {"fleet.threads", static_cast<double>(effThreads), "count"},
    };

    if (!a.spansDir.empty())
        tracer.write(a.spansDir + "/" + w.name + "-seed" +
                         std::to_string(a.seed) + ".spans.json",
                     w.name, a.seed);
    return report(out, metrics, info);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; i++) {
        const std::string k = argv[i];
        if (i + 1 >= argc)
            throw std::invalid_argument("missing value for " + k);
        const std::string v = argv[++i];
        if (k == "--workload")
            a.workload = v;
        else if (k == "--seed")
            a.seed = std::stoull(v);
        else if (k == "--seconds")
            a.seconds = std::stod(v);
        else if (k == "--trace")
            a.trace = std::stoi(v) != 0;
        else if (k == "--spans-dir")
            a.spansDir = v;
        else
            throw std::invalid_argument("unknown flag " + k);
    }
    return a;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        const Args a = parseArgs(argc, argv);
        for (const WorkloadDef &w : workloads())
            if (a.workload == w.name)
                return a.trace ? runTraced(w, a) : runEndToEnd(w, a);
        std::string names;
        for (const WorkloadDef &w : workloads())
            names += std::string(" ") + w.name;
        throw std::invalid_argument("unknown workload '" + a.workload +
                                    "' (known:" + names + ")");
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 2;
    }
}
