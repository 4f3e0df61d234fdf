/**
 * @file
 * The simulator benchmark's command. Runs one workload repeatedly for
 * a measurement window and prints every metric by name with its unit,
 * the statistics digest and the outcome of the correctness checks.
 * With --trace 1 it makes the traced run instead and prints the
 * per-layer metrics. The last line of standard output is one JSON
 * object: {"correct", "attempted", "failed", "metrics"}.
 *
 * See README.md in this directory for the workloads and metrics.
 */

#include <algorithm>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include <malloc.h>

#include "common/cli.hh"
#include "common/json.hh"
#include "common/log.hh"
#include "common/strfmt.hh"
#include "perfbench/perfbench.hh"

using namespace dasdram;
using namespace perfbench;

namespace
{

void
printResult(const Report &report)
{
    for (const std::string &f : report.failures)
        std::printf("FAILED %s\n", f.c_str());
    std::printf("metric failed_ratio %.6g fraction (%u of %u runs "
                "failed; lower is better)\n",
                report.attempted
                    ? double(report.failed) / report.attempted
                    : 0.0,
                report.failed, report.attempted);

    JsonWriter j;
    j.beginObject()
        .field("correct", report.failed == 0)
        .field("attempted", report.attempted)
        .field("failed", report.failed)
        .key("metrics")
        .beginObject();
    for (const Metric &m : report.metrics) {
        j.key(m.name).beginObject().field("value", m.value).field(
            "unit", m.unit);
        j.endObject();
    }
    j.endObject().endObject();
    std::printf("%s\n", j.str().c_str());
}

/** --trace 0: the end-to-end metrics from untraced executions. */
void
untraced(const Workload &w, std::uint64_t seed, InstCount instructions,
         double seconds, unsigned jobs, const std::string &inject)
{
    // One untimed warm-up execution, then timed ones until the window
    // is used up (at least three). Every execution is checked. The
    // reference kernel runs between executions; each execution's
    // timings are scaled to the reference speed by the mean of the
    // kernel times just before and just after it.
    constexpr unsigned kMinTimed = 3;
    Report report;
    std::vector<double> rate, wall, setup, raw_rate, raw_wall, raw_setup;
    std::uint64_t digest = 0;
    const double start = nowSeconds();
    double ref_before = referenceSeconds();
    for (unsigned r = 0; r <= kMinTimed || nowSeconds() - start < seconds;
         ++r) {
        // Self-test fault: the third execution simulates other inputs,
        // which the digest check must catch.
        const std::uint64_t run_seed =
            inject == "digest" && r == 2 ? seed + 1 : seed;
        RunSample s =
            runOnce(w, run_seed, instructions, SimEngine::Event, jobs);
        const double ref_after = referenceSeconds();
        const double speed =
            kReferenceSeconds / (0.5 * (ref_before + ref_after));
        ref_before = ref_after;

        std::string failure = s.failure;
        if (r == 0) {
            digest = s.digest;
            if (!w.isSweep()) {
                std::printf("simulated cpu_cycles %.0f (core 0, measured "
                            "window)\n",
                            StatsView(s.stats).value("system.core0.cycles"));
            }
        } else if (failure.empty() && s.digest != digest) {
            failure = formatStr("statistics digest {:x} differs from the "
                                "first run's",
                                s.digest);
        }
        report.account(formatStr("run {}", r), failure);
        std::printf("execution %u%s: setup_s %.6g sim_s %.6g wall_s %.6g "
                    "host_speed %.4f at_s %.3f\n",
                    r, r == 0 ? " (warm-up)" : "", s.setupS, s.simS,
                    s.wallS, speed, nowSeconds() - start);
        if (r > 0) {
            raw_rate.push_back(s.instructions / s.simS / 1e6);
            raw_wall.push_back(s.wallS);
            raw_setup.push_back(s.setupS);
            rate.push_back(raw_rate.back() / speed);
            wall.push_back(s.wallS * speed);
            setup.push_back(s.setupS * speed);
        }
    }

    std::printf("digest %s %016llx\n", w.name.c_str(),
                static_cast<unsigned long long>(digest));
    auto metric = [&](const std::string &name, const std::vector<double> &v,
                      const std::vector<double> &raw,
                      const std::string &unit, const char *better) {
        Quartiles q = quartiles(v);
        std::printf("metric %s %.6g %s (median at reference speed; q1 "
                    "%.6g, q3 %.6g, %zu runs; raw median %.6g; %s is "
                    "better)\n",
                    name.c_str(), q.median, unit.c_str(), q.q1, q.q3,
                    v.size(), quartiles(raw).median, better);
        report.metrics.push_back({name, q.median, unit});
    };
    metric("sim_minst_per_s", rate, raw_rate, "Minst/s", "higher");
    metric("wall_s", wall, raw_wall, "s", "lower");
    metric("setup_s", setup, raw_setup, "s", "lower");
    const double rss = peakRssMiB();
    std::printf("metric peak_rss_mib %.6g MiB (process peak; lower is "
                "better)\n",
                rss);
    report.metrics.push_back({"peak_rss_mib", rss, "MiB"});
    printResult(report);
}

/** --trace 1: the per-layer metrics of the traced run. */
void
traced(const Workload &w, std::uint64_t seed, InstCount instructions,
       double seconds, unsigned jobs, const std::string &spans_out)
{
    const Report r =
        tracedRun(w, seed, instructions, seconds, jobs, spans_out);
    const std::string busy = ".busy_s";
    auto layer_of = [&busy](const Metric &m) {
        const std::size_t n = m.name.size() - busy.size();
        return m.name.size() > busy.size() && m.name.substr(n) == busy
                   ? m.name.substr(0, n)
                   : std::string();
    };
    double total = 0.0;
    for (const Metric &m : r.metrics) {
        std::printf("metric %s %.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
        if (!layer_of(m).empty())
            total += m.value;
    }
    std::printf("layer split (share of timed layer calls):");
    for (const Metric &m : r.metrics)
        if (!layer_of(m).empty())
            std::printf(" %s %.1f%%", layer_of(m).c_str(),
                        total > 0.0 ? 100.0 * m.value / total : 0.0);
    std::printf("\n");
    printResult(r);
}

} // namespace

int
main(int argc, char **argv)
{
    // Fixed allocator thresholds: large blocks always come from fresh
    // mappings, as in a new process, instead of from a heap whose reuse
    // depends on how many executions came before.
    mallopt(M_MMAP_THRESHOLD, 128 * 1024);
    const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    CliParser cli("perfbench",
                  "simulator host-throughput benchmark (see "
                  "perfbench/README.md)");
    cli.option("--workload", "NAME",
               "mcf_das | cactus_das | mix_das | fig7_sweep")
        .optionUInt("--seed", "N", "input seed (default 1)")
        .optionDouble("--seconds", "S",
                      "measurement window in seconds (default 10)")
        .optionUInt("--trace", "0|1",
                    "1: traced run with per-layer metrics (default 0)")
        .optionUInt("--instructions", "N",
                    "per-core instruction budget (default: the "
                    "workload's)")
        .option("--spans-out", "FILE",
                "traced run: write its phase spans as JSONL")
        .option("--inject", "FAULT",
                "self-test fault: 'digest' runs the third execution "
                "on other inputs");
    cli.parse(argc, argv);

    if (!cli.given("--workload"))
        fatal("--workload is required (see --help)");
    const Workload &w = findWorkload(cli.str("--workload"));
    const std::uint64_t seed = cli.uns("--seed", 1);
    const double seconds = cli.dbl("--seconds", 10.0);
    const std::uint64_t trace = cli.uns("--trace", 0);
    const InstCount instructions = cli.uns("--instructions", w.instructions);
    // The sweep's worker pool: every hardware thread, at most four.
    const unsigned jobs = std::min(4u, hw);
    const std::string inject = cli.str("--inject", "");
    if (trace > 1)
        fatal("--trace must be 0 or 1");
    if (instructions == 0 || !(seconds > 0.0))
        fatal("--instructions and --seconds must be positive");
    if (!inject.empty() && inject != "digest")
        fatal("unknown --inject fault '{}' (known: digest)", inject);

    std::printf("perfbench workload=%s seed=%llu window=%gs "
                "instructions/core=%llu design=DAS-DRAM engine=event "
                "jobs=%u trace=%llu\n",
                w.name.c_str(), static_cast<unsigned long long>(seed),
                seconds, static_cast<unsigned long long>(instructions),
                w.isSweep() ? jobs : 1u,
                static_cast<unsigned long long>(trace));
    if (trace)
        traced(w, seed, instructions, seconds, jobs,
               cli.str("--spans-out", ""));
    else
        untraced(w, seed, instructions, seconds, jobs, inject);
    return 0;
}
