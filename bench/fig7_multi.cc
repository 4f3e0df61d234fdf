/**
 * @file
 * Reproduces Figure 7(d)(e)(f): multi-programming evaluation of the
 * five designs over the eight 4-way mixes M1-M8 (Table 2), against
 * standard DRAM. Performance improvement is the weighted-speedup
 * improvement (mean per-core IPC ratio vs. the standard baseline).
 *
 * Per-core instruction budgets are half the single-programming runs:
 * four cores generate roughly 4x the memory traffic per instruction.
 * Parallelise with --jobs N (or DAS_JOBS); export with --json FILE.
 */

#include <cstdio>
#include <vector>

#include "bench/bench_util.hh"

using namespace dasdram;

int
main(int argc, char **argv)
{
    benchutil::BenchOptions opts = benchutil::parseBenchArgs(argc, argv);
    SimConfig cfg = benchutil::defaultConfig(opts);
    cfg.instructionsPerCore /= 2;

    const std::vector<DesignKind> &designs = evaluatedDesigns();
    const std::size_t num_mixes = specMixes().size();

    SweepRunner sweep(cfg, opts.jobs);
    benchutil::configureSweep(sweep, opts);
    for (std::size_t mi = 0; mi < num_mixes; ++mi)
        for (DesignKind d : designs)
            sweep.add(WorkloadSpec::mix(mi), d);
    std::vector<ExperimentResult> results = sweep.run();
    benchutil::exportResults(opts, results);

    benchutil::Table improvements(
        "Figure 7d: multi-programming performance improvement (%)");
    benchutil::Table behaviour(
        "Figure 7e: MPKI / PPKM / footprint (MiB) / energy per access "
        "(nJ, DAS)");
    benchutil::Table locations(
        "Figure 7f: DAS-DRAM access locations (% of DRAM accesses)");

    std::vector<std::vector<double>> imp(designs.size());

    for (std::size_t mi = 0; mi < num_mixes; ++mi) {
        std::string name = mixName(mi);
        std::vector<std::string> row{name};
        const ExperimentResult *das_res = nullptr;
        for (std::size_t d = 0; d < designs.size(); ++d) {
            const ExperimentResult &r =
                results[mi * designs.size() + d];
            imp[d].push_back(r.perfImprovement);
            row.push_back(benchutil::pct(r.perfImprovement));
            if (designs[d] == DesignKind::Das)
                das_res = &r;
        }
        improvements.row(row);

        const RunMetrics &m = das_res->metrics;
        behaviour.row({name, benchutil::num(m.mpki(), 2),
                       benchutil::num(m.ppkm(), 2),
                       benchutil::num(m.footprintMiB(cfg.geom.rowBytes),
                                      1),
                       benchutil::num(das_res->energyPerAccessNj, 2)});

        std::uint64_t total = m.locations.total();
        auto share = [total](std::uint64_t v) {
            return total ? 100.0 * static_cast<double>(v) /
                               static_cast<double>(total)
                         : 0.0;
        };
        locations.row({name,
                       benchutil::num(share(m.locations.rowBuffer), 1),
                       benchutil::num(share(m.locations.fastLevel), 1),
                       benchutil::num(share(m.locations.slowLevel), 1)});
    }

    std::vector<std::string> gmean_row{"gmean"};
    for (std::size_t d = 0; d < designs.size(); ++d)
        gmean_row.push_back(
            benchutil::pct(gmeanImprovement(imp[d])));
    improvements.row(gmean_row);

    std::vector<std::string> header{"mix"};
    for (DesignKind d : designs)
        header.push_back(toString(d));
    improvements.print(header);
    behaviour.print({"mix", "MPKI", "PPKM", "footprint", "nJ/acc"});
    locations.print({"mix", "row-buffer", "fast", "slow"});

    std::printf("\nPaper reference (gmean): SAS 3.72%%, CHARM 4.87%%, "
                "DAS 11.77%%, FS 13.79%%. Multi-programming gains exceed "
                "single-programming because mixes have higher MPKI.\n");
    return 0;
}
