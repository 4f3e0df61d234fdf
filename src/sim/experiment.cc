#include "experiment.hh"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>

#include <sys/stat.h>

#include "common/log.hh"
#include "common/strfmt.hh"
#include "core/static_profile.hh"
#include "dram/address_mapping.hh"
#include "workload/trace_file.hh"

namespace dasdram
{

namespace
{

/** `warm_<16 hex digits>.ckpt` under @p dir for fingerprint @p fp. */
std::string
warmCheckpointPath(const std::string &dir, std::uint64_t fp)
{
    char hex[17];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(fp));
    return dir + "/warm_" + hex + ".ckpt";
}

bool
fileExists(const std::string &path)
{
    return std::ifstream(path, std::ios::binary).good();
}

} // namespace

RunMetrics
runSimulation(const WorkloadSpec &workload, const SimConfig &cfg_in,
              const RunOptions &opts, const std::string &warm_dir)
{
    SimConfig cfg = cfg_in;
    cfg.numCores = workload.numCores();
    cfg.obs.workloadName = workload.name;

    const bool recording = !opts.recordPrefix.empty();
    if (recording &&
        (!opts.restorePath.empty() || !opts.checkpoints.empty()))
        fatal("trace recording cannot be combined with snapshots "
              "(recorder file positions are not part of a snapshot)");

    // Deterministic per-(workload, core) traces.
    auto traces = buildTraces(workload, cfg.seed, cfg.geom.rowBytes,
                              cfg.geom.lineBytes);
    std::vector<std::unique_ptr<TraceRecorder>> recorders;
    std::vector<TraceSource *> trace_ptrs;
    for (unsigned i = 0; i < cfg.numCores; ++i) {
        TraceSource *src = traces[i].get();
        if (recording) {
            recorders.push_back(std::make_unique<TraceRecorder>(
                *src,
                formatStr("{}.core{}.dastrace", opts.recordPrefix, i)));
            src = recorders.back().get();
        }
        trace_ptrs.push_back(src);
    }

    System sys(cfg, trace_ptrs);

    // Warm-start: fork from the shared warmed snapshot of this config
    // fingerprint if one exists, else publish ours once warm-up
    // completes. The temp-file + rename dance keeps concurrent points
    // with the same fingerprint safe: renames are atomic and every
    // writer produces identical bytes (the snapshot is deterministic).
    // A run with RunOptions, or one exporting the Chrome trace or span
    // stream (whose files must cover the whole run), runs cold.
    std::string restore = opts.restorePath;
    std::string warm_path, warm_tmp;
    if (!warm_dir.empty() && !opts.active() && cfg.obs.traceOut.empty() &&
        cfg.obs.spansOut.empty()) {
        if (::mkdir(warm_dir.c_str(), 0777) != 0 && errno != EEXIST)
            fatal("cannot create warm-start directory '{}'", warm_dir);
        warm_path = warmCheckpointPath(warm_dir, configFingerprint(cfg));
        if (fileExists(warm_path)) {
            restore = warm_path;
        } else {
            static std::atomic<unsigned> tmp_seq{0};
            warm_tmp = formatStr("{}.tmp{}", warm_path,
                                 tmp_seq.fetch_add(1));
            sys.checkpointAtWarmup(warm_tmp);
        }
    }

    if (!restore.empty()) {
        // The snapshot holds the profiled table of a static design.
        sys.loadSnapshot(restore);
    } else if (designSpec(cfg.design).needsProfiling) {
        // Profiling pass over the same instruction window (Section 7:
        // workloads are profiled first for the static baselines).
        AddressMapper mapper(cfg.geom);
        StaticProfiler profiler(mapper, sys.layout());
        auto profile_window = static_cast<InstCount>(
            cfg.profileWindowMultiplier *
            static_cast<double>(cfg.instructionsPerCore));
        for (unsigned i = 0; i < cfg.numCores; ++i) {
            profiler.profile(*trace_ptrs[i], profile_window,
                             cfg.coreBase(i));
            trace_ptrs[i]->reset();
        }
        profiler.assign(sys.manager().table());
    }

    for (const auto &[tick, path] : opts.checkpoints) {
        if (tick == RunOptions::kAtWarmup)
            sys.checkpointAtWarmup(path);
        else
            sys.scheduleCheckpoint(tick, path);
    }
    if (opts.beforeRun)
        opts.beforeRun(sys);

    RunMetrics metrics = sys.run();
    if (!warm_tmp.empty() &&
        std::rename(warm_tmp.c_str(), warm_path.c_str()) != 0)
        fatal("cannot publish warm-start checkpoint '{}'", warm_path);
    for (auto &rec : recorders) {
        rec->close();
        inform("recorded {} trace record(s)", rec->recorded());
    }
    if (opts.afterRun)
        opts.afterRun(sys);
    return metrics;
}

double
weightedSpeedupImprovement(const RunMetrics &metrics,
                           const RunMetrics &baseline)
{
    if (metrics.ipc.empty())
        return 0.0;
    double sum = 0.0;
    for (std::size_t i = 0; i < metrics.ipc.size(); ++i) {
        double b = i < baseline.ipc.size() ? baseline.ipc[i] : 0.0;
        sum += b > 0.0 ? metrics.ipc[i] / b : 1.0;
    }
    return sum / static_cast<double>(metrics.ipc.size()) - 1.0;
}

double
gmeanImprovement(const std::vector<double> &improvements)
{
    if (improvements.empty())
        return 0.0;
    double log_sum = 0.0;
    for (double x : improvements)
        log_sum += std::log(std::max(1e-9, 1.0 + x));
    return std::exp(log_sum / static_cast<double>(improvements.size())) -
           1.0;
}

} // namespace dasdram
