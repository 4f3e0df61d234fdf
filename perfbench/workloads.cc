/**
 * @file
 * The benchmark's workloads and one untraced, timed execution of each.
 */

#include <algorithm>
#include <cmath>
#include <memory>
#include <sstream>
#include <string_view>

#include <sys/resource.h>

#include "common/json.hh"
#include "common/log.hh"
#include "common/strfmt.hh"
#include "dram/protocol_checker.hh"
#include "perfbench/perfbench.hh"
#include "workload/workload_spec.hh"

namespace perfbench
{

using namespace dasdram;

namespace
{

/** Keeps the reference kernel from being optimised away. */
volatile std::uint64_t referenceSink = 0;

/*
 * Budgets are chosen so one execution takes a fraction of a second on
 * a desktop-class core: a measurement window of ten or more seconds
 * then holds enough executions for a steady median.
 */
const std::vector<Workload> &
allWorkloads()
{
    static const std::vector<Workload> v = {
        // Memory-bound: DRAM scheduler, DAS manager and checker work.
        {"mcf_das", "mcf", {}, 2'000'000},
        // Compute-bound: trace generation, core dispatch, burst path.
        {"cactus_das", "cactusADM", {}, 4'000'000},
        // Table 2 mix M2: shared LLC/MSHR contention, lbm writebacks.
        {"mix_das", "M2", {}, 600'000},
        // Reduced Figure 7a grid: every design code path and the
        // sweep layer (baseline memo, point scheduling).
        {"fig7_sweep", "", {"mcf", "lbm", "cactusADM"}, 500'000},
    };
    return v;
}

} // namespace

const Workload &
findWorkload(const std::string &name)
{
    for (const Workload &w : allWorkloads())
        if (w.name == name)
            return w;
    std::string known;
    for (const Workload &w : allWorkloads())
        known += (known.empty() ? "" : ", ") + w.name;
    fatal("unknown workload '{}' (known: {})", name, known);
}

SimConfig
baseConfig(const Workload &w, std::uint64_t seed, InstCount instructions)
{
    SimConfig cfg;
    cfg.workload = w.spec;
    cfg.design = DesignKind::Das;
    cfg.instructionsPerCore = instructions;
    cfg.seed = seed;
    cfg.obs.workloadName = w.name;
    return cfg;
}

std::vector<std::pair<std::string, DesignKind>>
sweepPoints(const Workload &w)
{
    std::vector<std::pair<std::string, DesignKind>> points;
    for (const std::string &profile : w.sweepProfiles) {
        points.emplace_back(profile, DesignKind::Standard);
        for (DesignKind d : evaluatedDesigns())
            points.emplace_back(profile, d);
    }
    return points;
}

double
referenceSeconds()
{
    std::uint64_t x = 12345, acc = 0;
    const double t0 = nowSeconds();
    for (int i = 0; i < 10'000'000; ++i) {
        x += 0x9e3779b97f4a7c15ULL;
        std::uint64_t z = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z ^= z >> 27;
        if (z & 1)
            acc += z;
        else
            acc ^= z >> 3;
    }
    const double dt = nowSeconds() - t0;
    referenceSink = acc;
    return dt;
}

double
BusyTimer::overheadSeconds()
{
    static const double overhead = [] {
        // Median of many batches of empty timed sections.
        std::vector<double> per_call;
        for (int batch = 0; batch < 31; ++batch) {
            BusyTimer t;
            for (int i = 0; i < 2000; ++i) {
                t.start();
                t.stop();
            }
            per_call.push_back(
                std::chrono::duration<double>(t.total_).count() / 2000.0);
        }
        std::nth_element(per_call.begin(),
                         per_call.begin() + per_call.size() / 2,
                         per_call.end());
        return per_call[per_call.size() / 2];
    }();
    return overhead;
}

double
BusyTimer::seconds() const
{
    double raw = std::chrono::duration<double>(total_).count();
    return std::max(0.0, raw - static_cast<double>(calls_) *
                                   overheadSeconds());
}

StatsView::StatsView(const std::string &jsonl)
{
    std::istringstream is(jsonl);
    std::string line;
    while (std::getline(is, line)) {
        JsonValue v;
        std::string err;
        if (!parseJson(line, v, &err))
            fatal("stats JSONL: {}", err);
        const JsonValue *type = v.find("type");
        const JsonValue *name = v.find("name");
        if (!type || !name)
            continue; // meta record
        if (type->string == "counter" || type->string == "formula") {
            const JsonValue *val = v.find("value");
            values_[name->string] =
                val && val->isNumber() ? val->number : 0.0;
        } else if (type->string == "hist") {
            Hist h;
            h.count = static_cast<std::uint64_t>(v.find("count")->number);
            h.min = static_cast<std::uint64_t>(v.find("min")->number);
            h.max = static_cast<std::uint64_t>(v.find("max")->number);
            for (const JsonValue &b : v.find("buckets")->array) {
                h.lo.push_back(static_cast<std::uint64_t>(b.array[0].number));
                h.hi.push_back(static_cast<std::uint64_t>(b.array[1].number));
                h.n.push_back(static_cast<std::uint64_t>(b.array[2].number));
            }
            hists_[name->string] = std::move(h);
        }
    }
}

namespace
{

/** @p name is prefix + (digits) + suffix. */
bool
matches(const std::string &name, const std::string &prefix,
        const std::string &suffix)
{
    if (name.size() < prefix.size() + suffix.size() ||
        name.compare(0, prefix.size(), prefix) != 0 ||
        name.compare(name.size() - suffix.size(), suffix.size(),
                     suffix) != 0)
        return false;
    std::string_view mid(name);
    mid = mid.substr(prefix.size(),
                     name.size() - prefix.size() - suffix.size());
    return std::all_of(mid.begin(), mid.end(),
                       [](char c) { return c >= '0' && c <= '9'; });
}

} // namespace

double
StatsView::value(const std::string &name) const
{
    auto it = values_.find(name);
    if (it == values_.end())
        fatal("stats JSONL has no statistic '{}'", name);
    return it->second;
}

double
StatsView::sum(const std::string &prefix, const std::string &suffix) const
{
    double total = 0.0;
    bool any = false;
    for (const auto &[name, v] : values_) {
        if (matches(name, prefix, suffix)) {
            total += v;
            any = true;
        }
    }
    if (!any)
        fatal("stats JSONL has no statistic '{}*{}'", prefix, suffix);
    return total;
}

double
StatsView::percentile(const std::string &prefix, const std::string &suffix,
                      double p) const
{
    std::map<std::pair<std::uint64_t, std::uint64_t>, std::uint64_t> merged;
    std::uint64_t count = 0, lo = ~std::uint64_t{0}, hi = 0;
    bool any = false;
    for (const auto &[name, h] : hists_) {
        if (!matches(name, prefix, suffix))
            continue;
        any = true;
        for (std::size_t i = 0; i < h.n.size(); ++i)
            merged[{h.lo[i], h.hi[i]}] += h.n[i];
        if (h.count) {
            count += h.count;
            lo = std::min(lo, h.min);
            hi = std::max(hi, h.max);
        }
    }
    if (!any)
        fatal("stats JSONL has no histogram '{}*{}'", prefix, suffix);
    if (count == 0)
        return 0.0;
    auto rank = static_cast<std::uint64_t>(
        std::ceil(p / 100.0 * static_cast<double>(count)));
    rank = std::clamp<std::uint64_t>(rank, 1, count);
    std::uint64_t cum = 0;
    for (const auto &[bounds, n] : merged) {
        cum += n;
        if (cum >= rank)
            return static_cast<double>(
                std::clamp<std::uint64_t>(bounds.second - 1, lo, hi));
    }
    return static_cast<double>(hi);
}

std::uint64_t
fnv1a(const std::string &s)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (char c : s) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ULL;
    }
    return h;
}

std::uint64_t
metricsDigest(const std::vector<RunMetrics> &points)
{
    std::ostringstream os;
    os.precision(17);
    for (const RunMetrics &m : points) {
        os << m.cpuCycles << ' ' << m.instructions << ' ' << m.llcMisses
           << ' ' << m.promotions << ' ' << m.memAccesses << ' '
           << m.footprintRows << ' ' << m.locations.rowBuffer << ' '
           << m.locations.fastLevel << ' ' << m.locations.slowLevel;
        for (double ipc : m.ipc)
            os << ' ' << ipc;
        os << '\n';
    }
    return fnv1a(os.str());
}

namespace
{

RunSample
runSweepOnce(const Workload &w, SimConfig cfg, unsigned jobs)
{
    // Building the runner takes microseconds, too short to time once:
    // build it kSetupBuilds times and report the mean.
    constexpr int kSetupBuilds = 64;
    RunSample s;
    const double t0 = nowSeconds();
    std::unique_ptr<SweepRunner> sweep;
    for (int b = 0; b < kSetupBuilds; ++b) {
        sweep = std::make_unique<SweepRunner>(cfg, jobs);
        for (const auto &[profile, design] : sweepPoints(w))
            sweep->add(WorkloadSpec::single(profile), design);
    }
    const double t1 = nowSeconds();
    std::vector<ExperimentResult> results = sweep->run();
    const double t2 = nowSeconds();

    const InstCount measured =
        cfg.instructionsPerCore - cfg.warmupInstructions();
    std::vector<RunMetrics> points;
    for (const ExperimentResult &r : results) {
        const RunMetrics &m = r.metrics;
        const auto cores = static_cast<InstCount>(m.ipc.size());
        s.instructions += static_cast<double>(
            cfg.warmupInstructions() * cores + m.instructions);
        if (s.failure.empty() && m.instructions < measured * cores)
            s.failure = formatStr("point {}/{} stopped at {} instructions",
                                  r.workload, toString(r.design),
                                  m.instructions);
        points.push_back(m);
    }
    s.digest = metricsDigest(points);
    const double t3 = nowSeconds();
    s.setupS = (t1 - t0) / kSetupBuilds;
    s.simS = t2 - t1;
    s.wallS = s.setupS + (t3 - t1);
    return s;
}

} // namespace

RunSample
runOnce(const Workload &w, std::uint64_t seed, InstCount instructions,
        SimEngine engine, unsigned jobs)
{
    SimConfig cfg = baseConfig(w, seed, instructions);
    cfg.engine = engine;
    if (w.isSweep())
        return runSweepOnce(w, cfg, jobs);

    RunSample s;
    const double t0 = nowSeconds();
    WorkloadSpec spec = WorkloadSpec::parse(w.spec);
    cfg.numCores = spec.numCores();
    auto traces =
        buildTraces(spec, cfg.seed, cfg.geom.rowBytes, cfg.geom.lineBytes);
    std::vector<TraceSource *> ptrs;
    for (auto &t : traces)
        ptrs.push_back(t.get());
    // The checker is the benchmark's own, attached at the same seam
    // System uses, so a violation is counted instead of aborting.
    cfg.protocolCheck = false;
    System sys(cfg, ptrs);
    ProtocolChecker checker(
        cfg.geom, ddr3_1600Timing(designSpec(cfg.design).charmColumnOpt),
        &sys.layout());
    sys.dram().setCommandSink(&checker);
    const double t1 = nowSeconds();
    RunMetrics m = sys.run();
    const double t2 = nowSeconds();

    std::ostringstream os;
    sys.writeStatsJsonl(os);
    s.stats = os.str();
    s.digest = fnv1a(s.stats);
    StatsView stats(s.stats);
    const InstCount measured =
        cfg.instructionsPerCore - cfg.warmupInstructions();
    for (unsigned c = 0; c < cfg.numCores; ++c) {
        double retired = stats.value(formatStr("system.core{}.retired", c));
        if (s.failure.empty() && retired < static_cast<double>(measured))
            s.failure = formatStr("core {} stopped at {} of {} "
                                  "instructions",
                                  c, retired, measured);
    }
    if (checker.violationCount() > 0)
        s.failure = formatStr("protocol checker: {} violation(s); first: {}",
                              checker.violationCount(),
                              checker.firstViolation());
    s.instructions = static_cast<double>(
        cfg.warmupInstructions() * cfg.numCores + m.instructions);
    const double t3 = nowSeconds();
    s.setupS = t1 - t0;
    s.simS = t2 - t1;
    s.wallS = t3 - t0;
    return s;
}

Quartiles
quartiles(std::vector<double> v)
{
    Quartiles q;
    if (v.empty())
        return q;
    std::sort(v.begin(), v.end());
    const std::size_t m = v.size();
    if (m == 1) {
        q.q1 = q.median = q.q3 = v[0];
        return q;
    }
    // statistics.quantiles(method='exclusive'), n=4.
    auto cut = [&](long i) {
        const long n = static_cast<long>(m);
        long j = std::clamp(i * (n + 1) / 4, 1L, n - 1);
        long delta = i * (n + 1) - j * 4;
        return (v[j - 1] * static_cast<double>(4 - delta) +
                v[j] * static_cast<double>(delta)) /
               4.0;
    };
    q.q1 = cut(1);
    q.median = cut(2);
    q.q3 = cut(3);
    return q;
}

double
peakRssMiB()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

} // namespace perfbench
