/**
 * @file
 * The one run path: runSimulation builds a workload's traces (single
 * benchmarks, Table 2 mixes or trace files) and its System, runs the
 * profiling pass the static baselines need, restores or publishes a
 * snapshot, and runs. Every tool and sweep simulates through it; see
 * SweepRunner (sim/sweep.hh) for the parallel grid driver and the
 * standard-DRAM baseline memo built on top of it.
 */

#ifndef DASDRAM_SIM_EXPERIMENT_HH
#define DASDRAM_SIM_EXPERIMENT_HH

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "sim/system.hh"
#include "workload/workload_spec.hh"

namespace dasdram
{

/** One (workload, design) data point. */
struct ExperimentResult
{
    std::string workload;
    DesignKind design = DesignKind::Standard;
    std::string label;      ///< sweep tag, e.g. "th=4" (may be empty)
    std::uint64_t seed = 0; ///< effective per-point seed (0: base seed)
    RunMetrics metrics;

    /**
     * Weighted-speedup improvement over standard DRAM:
     * mean_i(IPC_i/IPC_i^std) - 1. For one core this is the plain IPC
     * improvement of Figures 7a/8a/9.
     */
    double perfImprovement = 0.0;

    /** DRAM dynamic energy per access in nJ (Section 7.7). */
    double energyPerAccessNj = 0.0;
};

/**
 * What one run does besides simulating its configuration. The default
 * is a plain cold run.
 */
struct RunOptions
{
    /** A checkpoints[] tick meaning "right after the warm-up reset". */
    static constexpr Cycle kAtWarmup = kCycleMax;

    /**
     * Non-empty: capture every core's delivered trace to
     * `<prefix>.core<i>.dastrace` (binary format) for later `file:`
     * replay. The profiling pass is excluded from the capture, so the
     * replay reproduces the measured run exactly.
     */
    std::string recordPrefix;

    /** Non-empty: resume from this snapshot (see System::loadSnapshot). */
    std::string restorePath;

    /** Snapshots to save, as (tick, path); see System::scheduleCheckpoint. */
    std::vector<std::pair<Cycle, std::string>> checkpoints;

    /** Called with the System just before and just after System::run. */
    std::function<void(System &)> beforeRun;
    std::function<void(System &)> afterRun;

    /** True when any member differs from a plain cold run. */
    bool
    active() const
    {
        return !recordPrefix.empty() || !restorePath.empty() ||
               !checkpoints.empty() || beforeRun || afterRun;
    }
};

/**
 * Run @p workload on the exact configuration @p cfg (design field
 * honoured, numCores taken from the workload): trace construction,
 * the profiling pass for static designs, and the timed run. This is a
 * pure function of its arguments — the foundation of the sweep
 * engine's determinism guarantee — and is safe to call from many
 * threads at once (each call owns its System).
 *
 * A restored run (@p opts.restorePath, or a warm-start snapshot)
 * skips the profiling pass: the profiled table is part of the
 * snapshot. A run that is not restored profiles before anything else,
 * so every checkpoint it takes holds the profiled table.
 *
 * With a non-empty @p warm_dir the run participates in warm-start
 * checkpoint sharing: the directory holds one warmed snapshot per
 * config fingerprint (`warm_<fingerprint>.ckpt`, see
 * configFingerprint()). If the snapshot for this run's fingerprint
 * exists the run restores from it — skipping trace warm-up and the
 * profiling pass — and simulates only the measured window; otherwise
 * the run executes normally and publishes its post-warm-up state for
 * later runs. Either way the metrics are bit-identical to a cold run.
 * A run with any RunOptions member set, or one exporting the Chrome
 * trace or span stream (whose files must cover the whole run), keeps
 * out of the sharing and runs as it would without @p warm_dir.
 *
 * Recording cannot be combined with restoring or checkpointing:
 * recorder file positions are not part of a snapshot.
 */
RunMetrics runSimulation(const WorkloadSpec &workload,
                         const SimConfig &cfg,
                         const RunOptions &opts = {},
                         const std::string &warm_dir = "");

/** mean_i(IPC_i / baselineIPC_i) - 1 (zero-IPC baselines count as 1). */
double weightedSpeedupImprovement(const RunMetrics &metrics,
                                  const RunMetrics &baseline);

/** Geometric mean of (1 + improvement) minus 1 over @p improvements. */
double gmeanImprovement(const std::vector<double> &improvements);

} // namespace dasdram

#endif // DASDRAM_SIM_EXPERIMENT_HH
