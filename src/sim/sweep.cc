#include "sweep.hh"

#include <atomic>
#include <cstdlib>
#include <exception>
#include <ostream>
#include <thread>

#include "common/binfmt.hh"
#include "common/json.hh"
#include "common/log.hh"

namespace dasdram
{

namespace
{

/** Filename-safe version of a workload/design/label token. */
std::string
sanitizeToken(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                  (c >= '0' && c <= '9') || c == '-' || c == '.';
        out.push_back(ok ? c : '_');
    }
    return out;
}

} // namespace

SweepRunner::SweepRunner(SimConfig base, unsigned jobs)
    : base_(std::move(base)), jobs_(resolveJobs(jobs))
{
}

std::size_t
SweepRunner::add(SweepPoint point)
{
    if (point.workload.parts.empty())
        fatal("sweep point '{}' has no workload parts",
              point.workload.name);
    points_.push_back(std::move(point));
    return points_.size() - 1;
}

std::size_t
SweepRunner::add(WorkloadSpec workload, DesignKind design,
                 ConfigOverride override, std::string label)
{
    return add(SweepPoint{std::move(workload), design, std::move(override),
                          std::move(label)});
}

unsigned
SweepRunner::resolveJobs(unsigned requested)
{
    if (requested > 0)
        return requested;
    if (const char *env = std::getenv("DAS_JOBS")) {
        char *end = nullptr;
        unsigned long v = std::strtoul(env, &end, 10);
        if (end != env && *end == '\0' && v > 0)
            return static_cast<unsigned>(v);
        warn("ignoring invalid DAS_JOBS='{}'", env);
    }
    unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1;
}

std::uint64_t
SweepRunner::pointSeed(std::uint64_t base_seed,
                       const std::string &workload, DesignKind design)
{
    using binfmt::splitmix64;
    std::uint64_t h = splitmix64(base_seed);
    h = splitmix64(h ^ binfmt::fnv1a64(workload.data(), workload.size()));
    h = splitmix64(h ^ (static_cast<std::uint64_t>(design) + 1));
    // Keep zero out of the space: some components treat 0 specially.
    return h ? h : 1;
}

RunMetrics
SweepRunner::baselineFor(const WorkloadSpec &workload)
{
    std::promise<RunMetrics> promise;
    std::shared_future<RunMetrics> future;
    bool owner = false;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = baselines_.find(workload.name);
        if (it != baselines_.end()) {
            future = it->second;
        } else {
            future = promise.get_future().share();
            baselines_.emplace(workload.name, future);
            owner = true;
        }
    }
    if (owner) {
        // Always from the pristine base config (no point overrides),
        // so the memo content does not depend on which point won the
        // race to compute it.
        SimConfig cfg = base_;
        cfg.design = DesignKind::Standard;
        cfg.seed = pointSeed(base_.seed, workload.name,
                             DesignKind::Standard);
        if (!cfg.obs.statsDir.empty()) {
            cfg.obs.statsOut = cfg.obs.statsDir + "/baseline_" +
                               sanitizeToken(workload.name) + ".jsonl";
        }
        promise.set_value(runSimulation(workload, cfg, {}, warmDir_));
    }
    return future.get();
}

ExperimentResult
SweepRunner::runPoint(const SweepPoint &point, std::size_t index)
{
    ExperimentResult res;
    res.workload = point.workload.name;
    res.design = point.design;
    res.label = point.label;
    res.seed =
        pointSeed(base_.seed, point.workload.name, point.design);

    if (point.needBaseline && point.design == DesignKind::Standard &&
        !point.override && !(point.run && point.run->active())) {
        // Identical config and seed as the memoised baseline: reuse.
        res.metrics = baselineFor(point.workload);
        res.perfImprovement = 0.0;
    } else {
        SimConfig cfg = base_;
        if (point.override)
            point.override(cfg);
        cfg.design = point.design;
        cfg.seed = res.seed;
        cfg.obs.label = point.label;
        if (!cfg.obs.statsDir.empty()) {
            // Deterministic per-point filename: the submission index
            // disambiguates points that share workload and design.
            std::string name = "point" + std::to_string(index) + "_" +
                               sanitizeToken(point.workload.name) + "_" +
                               sanitizeToken(toString(point.design));
            if (!point.label.empty())
                name += "_" + sanitizeToken(point.label);
            cfg.obs.statsOut = cfg.obs.statsDir + "/" + name + ".jsonl";
        }
        res.metrics = runSimulation(point.workload, cfg,
                                    point.run ? *point.run : RunOptions{},
                                    warmDir_);
        if (point.needBaseline) {
            res.perfImprovement = weightedSpeedupImprovement(
                res.metrics, baselineFor(point.workload));
        }
    }
    res.energyPerAccessNj = res.metrics.energy.perAccessNj(energyParams_);
    return res;
}

std::vector<ExperimentResult>
SweepRunner::run()
{
    if (ran_)
        fatal("SweepRunner::run called twice");
    ran_ = true;

    std::vector<ExperimentResult> results(points_.size());
    if (points_.empty())
        return results;

    std::atomic<std::size_t> next{0};
    std::mutex error_mutex;
    std::exception_ptr error;

    auto worker = [&]() {
        for (;;) {
            std::size_t i = next.fetch_add(1);
            if (i >= points_.size())
                return;
            try {
                results[i] = runPoint(points_[i], i);
            } catch (...) {
                std::lock_guard<std::mutex> lock(error_mutex);
                if (!error)
                    error = std::current_exception();
                // Keep draining: other workers may block on a
                // baseline future this point was computing.
            }
        }
    };

    unsigned n = jobs_;
    if (n > points_.size())
        n = static_cast<unsigned>(points_.size());
    std::vector<std::thread> pool;
    pool.reserve(n > 0 ? n - 1 : 0);
    for (unsigned t = 1; t < n; ++t)
        pool.emplace_back(worker);
    worker(); // the calling thread is worker 0
    for (std::thread &t : pool)
        t.join();

    if (error)
        std::rethrow_exception(error);
    return results;
}

std::string
toJsonLine(const ExperimentResult &r)
{
    const RunMetrics &m = r.metrics;
    JsonWriter w;
    w.beginObject()
        .field("workload", r.workload)
        .field("design", toString(r.design))
        .field("label", r.label)
        .field("seed", r.seed)
        .field("perf_improvement", r.perfImprovement)
        .field("energy_per_access_nj", r.energyPerAccessNj);
    w.key("ipc").beginArray();
    for (double v : m.ipc)
        w.value(v);
    w.endArray();
    w.field("cpu_cycles", m.cpuCycles)
        .field("instructions", m.instructions)
        .field("llc_misses", m.llcMisses)
        .field("mem_accesses", m.memAccesses)
        .field("promotions", m.promotions)
        .field("footprint_rows", m.footprintRows)
        .field("mpki", m.mpki())
        .field("ppkm", m.ppkm());
    w.key("locations")
        .beginObject()
        .field("row_buffer", m.locations.rowBuffer)
        .field("fast_level", m.locations.fastLevel)
        .field("slow_level", m.locations.slowLevel)
        .endObject();
    w.key("energy")
        .beginObject()
        .field("acts_slow", m.energy.actsSlow)
        .field("acts_fast", m.energy.actsFast)
        .field("reads", m.energy.reads)
        .field("writes", m.energy.writes)
        .field("refreshes", m.energy.refreshes)
        .field("swaps", m.energy.swaps)
        .endObject();
    w.endObject();
    return w.str();
}

void
writeJsonLines(std::ostream &os,
               const std::vector<ExperimentResult> &results)
{
    for (const ExperimentResult &r : results)
        os << toJsonLine(r) << '\n';
}

} // namespace dasdram
