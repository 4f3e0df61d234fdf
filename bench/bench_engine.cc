/**
 * @file
 * Engine throughput benchmark: runs the same workloads under the tick
 * and the event engine and reports simulated-cycles-per-second for
 * each, plus the event/tick speedup. The two runs must also agree on
 * every end-of-run metric — a last-line defence on top of the
 * `ctest -L differential` suite.
 *
 * The event engine earns its keep on idle-heavy workloads — long
 * compute gaps and full-ROB stalls where the only activity is a
 * handful of timing-legal command edges the engine can hop between
 * (and bubble stretches its burst path collapses). The set therefore
 * spans both ends: a synthetic compute-gap workload ('idle') as the
 * idle-heavy pole, mcf/milc as memory-bound SPEC profiles where
 * per-cycle activity limits skipping, and cactusADM as a busy middle
 * ground.
 *
 * Writes BENCH_engine.json (override with --out). Scale the budget
 * with --instructions N or DAS_SIM_SCALE. With --repeat N each engine
 * runs N times per workload (tick and event alternating) and every
 * row reports the median wall time with the min/max spread; the
 * speedup is the median of the N per-pair tick/event ratios.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_util.hh"

using namespace dasdram;

namespace
{

/**
 * Idle-heavy pole: long compute gaps broken by sparse uniform-random
 * misses over a large footprint. Every miss goes all the way to DRAM
 * (no streams, no hot set, no reuse) and stalls the core serially,
 * but the dominant pattern is thousands-of-instruction bubble
 * stretches — exactly what the event engine batches: the burst path
 * collapses the gaps and the horizon hop clears the stalls, while the
 * tick engine pays for every cycle.
 */
BenchmarkProfile
idleProfile()
{
    BenchmarkProfile p;
    p.name = "idle";
    p.footprintMiB = 512;
    p.memRatio = 0.0002;
    p.writeFraction = 0.0;
    p.reuseProb = 0.0;
    p.pStream = 0.0;
    p.pWork = 0.0;
    p.pHot = 0.0;
    p.pUniform = 1.0;
    p.streams = 1;
    p.runLength = 1;
    return p;
}

const BenchmarkProfile &
profileFor(const std::string &name)
{
    static const BenchmarkProfile idle = idleProfile();
    if (name == "idle")
        return idle;
    return specProfile(name);
}

struct EngineSample
{
    double seconds = 0.0;
    RunMetrics metrics;
};

double
medianOf(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

/** Wall times of one engine's repeated runs of one workload. */
struct EngineTimes
{
    std::vector<double> seconds;

    double median() const { return medianOf(seconds); }

    double
    min() const
    {
        return *std::min_element(seconds.begin(), seconds.end());
    }

    double
    max() const
    {
        return *std::max_element(seconds.begin(), seconds.end());
    }
};

/** Simulated CPU cycles per wall second. */
double
rate(std::uint64_t cycles, double seconds)
{
    return seconds > 0.0 ? static_cast<double>(cycles) / seconds : 0.0;
}

/** JSON object for one engine: median seconds and cycles/sec, and the
 *  cycles/sec range over the repeats (min rate = slowest run). */
std::string
engineJson(const EngineTimes &t, std::uint64_t cycles)
{
    std::ostringstream os;
    os << "{\"seconds\": " << t.median()
       << ", \"cycles_per_sec\": " << rate(cycles, t.median())
       << ", \"cycles_per_sec_min\": " << rate(cycles, t.max())
       << ", \"cycles_per_sec_max\": " << rate(cycles, t.min()) << "}";
    return os.str();
}

EngineSample
timeOne(const std::string &bench, SimConfig cfg, SimEngine engine)
{
    cfg.engine = engine;
    cfg.obs.workloadName = bench;
    SyntheticTrace trace(profileFor(bench), cfg.seed * 1000003 + 1,
                         cfg.geom.rowBytes, cfg.geom.lineBytes);

    System sys(cfg, {&trace});
    auto t0 = std::chrono::steady_clock::now();
    RunMetrics m = sys.run();
    auto t1 = std::chrono::steady_clock::now();

    // Throughput over the whole run: both engines simulate the exact
    // same cycle count, so the speedup below reduces to the wall-time
    // ratio; cycles/sec makes the absolute rates comparable across
    // machines.
    EngineSample s;
    s.seconds = std::chrono::duration<double>(t1 - t0).count();
    s.metrics = std::move(m);
    return s;
}

/** Cross-engine identity of the end-of-run metrics (the differential
 *  suite checks command streams and stats exports; here we only guard
 *  the fields this bench prints). */
bool
agree(const RunMetrics &a, const RunMetrics &b)
{
    return a.cpuCycles == b.cpuCycles && a.instructions == b.instructions &&
           a.llcMisses == b.llcMisses && a.memAccesses == b.memAccesses &&
           a.promotions == b.promotions && a.ipc == b.ipc;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string out_path = "BENCH_engine.json";
    InstCount instructions = 0; // 0 = default budget (scaled)
    unsigned repeat = 1;
    std::vector<std::string> benches{"idle", "mcf", "milc",
                                     "cactusADM"};

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto need_value = [&](const char *flag) -> std::string {
            if (i + 1 >= argc)
                fatal("missing value for {}", flag);
            return argv[++i];
        };
        if (arg == "--out") {
            out_path = need_value("--out");
        } else if (arg == "--instructions") {
            instructions = std::strtoull(
                need_value("--instructions").c_str(), nullptr, 10);
            if (instructions == 0)
                fatal("--instructions needs a positive integer");
        } else if (arg == "--repeat") {
            repeat = static_cast<unsigned>(std::strtoul(
                need_value("--repeat").c_str(), nullptr, 10));
            if (repeat == 0)
                fatal("--repeat needs a positive integer");
        } else if (arg == "--workload") {
            benches = {need_value("--workload")};
        } else if (arg == "--help" || arg == "-h") {
            std::printf(
                "usage: %s [--out FILE] [--instructions N] "
                "[--workload NAME] [--repeat N]\n"
                "  --out FILE        JSON report path (default "
                "BENCH_engine.json)\n"
                "  --instructions N  per-core budget (default 4M, "
                "scaled by DAS_SIM_SCALE)\n"
                "  --workload NAME   bench a single workload (a SPEC "
                "profile or 'idle')\n"
                "  --repeat N        runs per engine and workload; rows "
                "report the median and min/max (default 1)\n",
                argv[0]);
            return 0;
        } else {
            fatal("unknown argument '{}' (try --help)", arg);
        }
    }

    SimConfig cfg;
    cfg.design = DesignKind::Das;
    cfg.instructionsPerCore = 4'000'000;
    applySimScale(cfg);
    if (instructions)
        cfg.instructionsPerCore = instructions;
    // Time the engines themselves, not the observability sample path.
    cfg.obs.histograms = false;

    benchutil::Table table("Engine throughput (simulated CPU "
                           "cycles per wall-clock second)");
    std::ofstream os(out_path);
    if (!os)
        fatal("cannot open '{}' for writing", out_path);

    bool all_agree = true;
    for (const std::string &bench : benches) {
        // Warm run: charge one-time setup (profile tables, allocator
        // warm-up) to neither engine.
        {
            SimConfig warm = cfg;
            warm.instructionsPerCore =
                std::min<InstCount>(cfg.instructionsPerCore, 50'000);
            (void)timeOne(bench, warm, SimEngine::Tick);
        }
        EngineSample tick, event;
        EngineTimes tick_t, event_t;
        // tick/event wall-time ratio of each back-to-back pair: host
        // speed drifts between repeats, so a ratio taken within a pair
        // is steadier than the ratio of the two medians.
        std::vector<double> pair_speedups;
        bool same = true;
        for (unsigned r = 0; r < repeat; ++r) {
            tick = timeOne(bench, cfg, SimEngine::Tick);
            event = timeOne(bench, cfg, SimEngine::Event);
            tick_t.seconds.push_back(tick.seconds);
            event_t.seconds.push_back(event.seconds);
            pair_speedups.push_back(tick.seconds / event.seconds);
            same = same && agree(tick.metrics, event.metrics);
        }

        if (!same) {
            warn("engine metrics diverge on '{}' — run "
                 "`ctest -L differential` and dasdram_fuzz "
                 "--differential",
                 bench);
            all_agree = false;
        }

        const std::uint64_t cycles = tick.metrics.cpuCycles;
        const double speedup = medianOf(pair_speedups);
        double ipc = tick.metrics.ipc.empty() ? 0.0 : tick.metrics.ipc[0];
        auto median = [&](const EngineTimes &t) {
            return benchutil::num(rate(cycles, t.median()) / 1e6, 2);
        };
        auto range = [&](const EngineTimes &t) {
            return benchutil::num(rate(cycles, t.max()) / 1e6, 2) + "-" +
                   benchutil::num(rate(cycles, t.min()) / 1e6, 2);
        };

        table.row({bench, median(tick_t), range(tick_t), median(event_t),
                   range(event_t), benchutil::num(speedup, 2),
                   benchutil::num(tick.metrics.mpki(), 1),
                   benchutil::num(ipc, 2)});

        os << "{\"bench\": \"engine\", \"workload\": \"" << bench
           << "\", \"instructions\": " << cfg.instructionsPerCore
           << ", \"cpu_cycles\": " << cycles << ", \"repeat\": " << repeat
           << ", \"tick\": " << engineJson(tick_t, cycles)
           << ", \"event\": " << engineJson(event_t, cycles)
           << ", \"speedup\": " << speedup
           << ", \"mpki\": " << tick.metrics.mpki()
           << ", \"metrics_identical\": " << (same ? "true" : "false")
           << "}\n";
    }

    table.print({"workload", "tick Mcyc/s", "tick min-max", "event Mcyc/s",
                 "event min-max", "speedup", "MPKI", "IPC"});
    std::printf("\nwrote %s\n", out_path.c_str());
    return all_agree ? 0 : 1;
}
