/**
 * @file
 * Reproduces Figures 9c and 9d: sensitivity to the fast-level capacity
 * ratio (1/32, 1/16, 1/8, 1/4) under random (9c) and LRU (9d) victim
 * replacement. Expected: 1/8 captures nearly all the benefit (smaller
 * ratios hurt the large-working-set benchmarks, mcf and milc, most)
 * and the replacement policy barely matters (Section 7.6).
 *
 * Parallelise with --jobs N (or DAS_JOBS); export with --json FILE.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.hh"

using namespace dasdram;

namespace
{

const unsigned kDenoms[] = {32, 16, 8, 4};

void
printSweep(const std::vector<ExperimentResult> &results,
           std::size_t offset, const char *title)
{
    const std::vector<std::string> &benches = specBenchmarks();
    benchutil::Table perf(title);
    std::vector<std::vector<double>> imp(4);
    for (std::size_t b = 0; b < benches.size(); ++b) {
        std::vector<std::string> row{benches[b]};
        for (std::size_t i = 0; i < 4; ++i) {
            const ExperimentResult &r =
                results[offset + b * 4 + i];
            imp[i].push_back(r.perfImprovement);
            row.push_back(benchutil::pct(r.perfImprovement));
        }
        perf.row(row);
    }
    std::vector<std::string> gmean_row{"gmean"};
    for (std::size_t i = 0; i < 4; ++i)
        gmean_row.push_back(
            benchutil::pct(gmeanImprovement(imp[i])));
    perf.row(gmean_row);
    perf.print({"benchmark", "1/32", "1/16", "1/8", "1/4"});
}

} // namespace

int
main(int argc, char **argv)
{
    benchutil::BenchOptions opts = benchutil::parseBenchArgs(argc, argv);
    SimConfig base = benchutil::defaultConfig(opts);

    const std::vector<std::string> &benches = specBenchmarks();
    const FastReplPolicy kRepls[] = {FastReplPolicy::Random,
                                     FastReplPolicy::Lru};
    const char *kReplName[] = {"random", "lru"};

    // One grid over (policy × benchmark × ratio): every benchmark's
    // standard baseline is simulated once and shared by all 8 of its
    // points (the ratio and policy only exist in the DAS design).
    SweepRunner sweep(base, opts.jobs);
    benchutil::configureSweep(sweep, opts);
    for (std::size_t p = 0; p < 2; ++p) {
        FastReplPolicy repl = kRepls[p];
        for (const std::string &bench : benches) {
            for (unsigned denom : kDenoms) {
                sweep.add(
                    WorkloadSpec::single(bench), DesignKind::Das,
                    [repl, denom](SimConfig &c) {
                        c.layout.fastRatioDenom = denom;
                        c.das.replacement = repl;
                    },
                    std::string("1/") + std::to_string(denom) + " " +
                        kReplName[p]);
            }
        }
    }
    std::vector<ExperimentResult> results = sweep.run();
    benchutil::exportResults(opts, results);

    const std::size_t per_policy = benches.size() * 4;
    printSweep(results, 0,
               "Figure 9c: performance improvement (%) by fast-level "
               "ratio, RANDOM replacement");
    printSweep(results, per_policy,
               "Figure 9d: performance improvement (%) by fast-level "
               "ratio, LRU replacement");

    std::printf("\nPaper reference: ratio 1/8 (6.6%% area) maximises "
                "gain; 1/16 and below hurt mcf and milc whose working "
                "sets exceed the per-group fast capacity; LRU vs random "
                "is negligible because the fast level is large "
                "(Section 7.6).\n");
    return 0;
}
