/**
 * @file
 * Shared declarations of the simulator benchmark: the four workloads,
 * one timed execution of a workload, the stats-tree reader, the
 * overhead-corrected host timer and the traced (per-layer) run.
 *
 * Everything here drives the simulator through its public library API
 * (System, SweepRunner, runSimulation and the standalone layer
 * classes); nothing inside src/ knows it is being measured.
 */

#ifndef PERFBENCH_PERFBENCH_HH
#define PERFBENCH_PERFBENCH_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "sim/sweep.hh"

namespace perfbench
{

/** One benchmark workload: a single simulation or a figure sweep. */
struct Workload
{
    std::string name;
    /** Workload spec of a single simulation (empty for the sweep). */
    std::string spec;
    /** SPEC profiles of the sweep grid (empty for single runs). */
    std::vector<std::string> sweepProfiles;
    /** Instruction budget per core, warm-up included. */
    dasdram::InstCount instructions = 0;

    bool isSweep() const { return !sweepProfiles.empty(); }
};

/** The workload named @p name; fatal when unknown. */
const Workload &findWorkload(const std::string &name);

/** Benchmark configuration: DAS design, event engine, checker and
 *  histograms on — dasdram_run's defaults — at the workload's budget. */
dasdram::SimConfig baseConfig(const Workload &w, std::uint64_t seed,
                              dasdram::InstCount instructions);

/** Sweep points of a sweep workload: every profile × (Standard and
 *  every evaluated design). */
std::vector<std::pair<std::string, dasdram::DesignKind>>
sweepPoints(const Workload &w);

/** Host seconds since an arbitrary epoch (steady clock). */
inline double
nowSeconds()
{
    using namespace std::chrono;
    return duration<double>(steady_clock::now().time_since_epoch())
        .count();
}

/**
 * Host seconds the fixed reference kernel (an integer hash loop that
 * touches no memory and shares no code with the simulator) takes right
 * now. Shared hosts change speed by tens of percent within minutes;
 * timings scaled by kReferenceSeconds / referenceSeconds() are host
 * seconds at a fixed reference speed and cancel that drift.
 */
double referenceSeconds();

/** The reference kernel's time at the reference speed. */
constexpr double kReferenceSeconds = 0.02;

/**
 * Accumulates host time over many short timed calls, minus the cost
 * of the clock reads themselves (calibrated once per process), so a
 * layer whose calls take tens of nanoseconds is not charged for the
 * timer around it.
 */
class BusyTimer
{
  public:
    void
    start()
    {
        t0_ = std::chrono::steady_clock::now();
    }

    void
    stop()
    {
        total_ += std::chrono::steady_clock::now() - t0_;
        ++calls_;
    }

    /** Corrected busy seconds (never negative). */
    double seconds() const;
    std::uint64_t calls() const { return calls_; }

    /** Seconds one empty start()/stop() pair measures. */
    static double overheadSeconds();

  private:
    std::chrono::steady_clock::time_point t0_{};
    std::chrono::steady_clock::duration total_{};
    std::uint64_t calls_ = 0;
};

/** Statistics of one run, read back from its stats-JSONL export. */
class StatsView
{
  public:
    explicit StatsView(const std::string &jsonl);

    /** A counter or formula; fatal when absent. */
    double value(const std::string &name) const;
    /** Sum of every counter named prefix*suffix. */
    double sum(const std::string &prefix, const std::string &suffix) const;
    /** Percentile @p p of the merge of every histogram named
     *  prefix*suffix (the same rule as Histogram::percentile). */
    double percentile(const std::string &prefix, const std::string &suffix,
                      double p) const;

  private:
    struct Hist
    {
        std::uint64_t count = 0;
        std::uint64_t min = 0;
        std::uint64_t max = 0;
        /** (bucket lo, bucket hi, count) */
        std::vector<std::uint64_t> lo, hi, n;
    };

    std::map<std::string, double> values_;
    std::map<std::string, Hist> hists_;
};

/** FNV-1a 64 of @p s. */
std::uint64_t fnv1a(const std::string &s);

/** Outcome of one timed execution of a workload. */
struct RunSample
{
    double setupS = 0.0; ///< traces + System (or runner) construction
    double simS = 0.0;   ///< System::run / SweepRunner::run
    double wallS = 0.0;  ///< setup + simulate + metric extraction
    double instructions = 0.0; ///< simulated, warm-up included
    std::uint64_t digest = 0;  ///< of the simulated statistics
    std::string failure;       ///< first failed check ("" when ok)
    std::string stats;         ///< stats JSONL (single workloads)
};

/**
 * Run @p w once, untraced: build the traces from @p seed, construct
 * the System (or SweepRunner), simulate, and extract and check the
 * statistics. @p jobs: sweep pool size.
 */
RunSample runOnce(const Workload &w, std::uint64_t seed,
                  dasdram::InstCount instructions, dasdram::SimEngine engine,
                  unsigned jobs);

/** Digest of a sweep's point metrics (every field runSimulation
 *  returns that the model determines). */
std::uint64_t metricsDigest(const std::vector<dasdram::RunMetrics> &m);

/** A metric printed by name with its unit. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** What one benchmark invocation reports: its metrics plus how many
 *  runs it attempted and which of them failed a check. */
struct Report
{
    std::vector<Metric> metrics;
    unsigned attempted = 0;
    unsigned failed = 0;
    std::vector<std::string> failures;

    /** Count one run; a non-empty @p failure marks it failed. */
    void
    account(const std::string &what, const std::string &failure)
    {
        ++attempted;
        if (!failure.empty()) {
            ++failed;
            failures.push_back(what + ": " + failure);
        }
    }
};

/**
 * The traced run: one live run with timing seams (trace decorator,
 * timing CommandSink in front of a benchmark-owned ProtocolChecker,
 * request spans at rate 1.0), replays of the captured streams into
 * standalone layer instances, the tick-vs-event comparison and the
 * serial-vs-pooled sweep timing. Phase spans are written once, at the
 * end, to @p spans_out (skipped when empty).
 */
Report tracedRun(const Workload &w, std::uint64_t seed,
                 dasdram::InstCount instructions, double seconds,
                 unsigned jobs, const std::string &spans_out);

/** Median and quartiles (Python statistics.quantiles, n=4,
 *  exclusive method) of @p v. */
struct Quartiles
{
    double q1 = 0.0, median = 0.0, q3 = 0.0;
};
Quartiles quartiles(std::vector<double> v);

/** Peak resident set of this process so far, MiB. */
double peakRssMiB();

} // namespace perfbench

#endif // PERFBENCH_PERFBENCH_HH
