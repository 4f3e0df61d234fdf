/**
 * @file
 * Reproduces Figure 7(a)(b)(c): single-programming evaluation of
 * SAS-DRAM, CHARM, DAS-DRAM, DAS-DRAM (FM) and FS-DRAM against
 * standard DRAM, over the ten Table 2 workloads.
 *
 * Prints: per-benchmark performance improvement for each design (7a);
 * MPKI, PPKM and footprint (7b); and the access-location distribution
 * of DAS-DRAM (7c). Also prints DRAM energy per access (Section 7.7).
 *
 * Scale with DAS_SIM_SCALE (e.g. 0.25 for a quick pass); parallelise
 * with --jobs N (or DAS_JOBS); export JSON lines with --json FILE.
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

    const std::vector<std::string> &benches = specBenchmarks();
    const std::vector<DesignKind> &designs = evaluatedDesigns();

    SweepRunner sweep(cfg, opts.jobs);
    benchutil::configureSweep(sweep, opts);
    for (const std::string &bench : benches)
        for (DesignKind d : designs)
            sweep.add(WorkloadSpec::single(bench), d);
    std::vector<ExperimentResult> results = sweep.run();
    benchutil::exportResults(opts, results);

    benchutil::Table improvements("Figure 7a: performance improvement "
                                  "over standard DRAM (%)");
    benchutil::Table behaviour(
        "Figure 7b: MPKI / PPKM / footprint (MiB) / energy per access "
        "(nJ, DAS)");
    benchutil::Table locations("Figure 7c: DAS-DRAM access locations "
                               "(% of DRAM accesses)");

    std::vector<std::vector<double>> imp(designs.size());

    for (std::size_t b = 0; b < benches.size(); ++b) {
        std::vector<std::string> imp_row{benches[b]};
        const ExperimentResult *das_res = nullptr;
        for (std::size_t d = 0; d < designs.size(); ++d) {
            const ExperimentResult &r =
                results[b * designs.size() + d];
            imp[d].push_back(r.perfImprovement);
            imp_row.push_back(benchutil::pct(r.perfImprovement));
            if (designs[d] == DesignKind::Das)
                das_res = &r;
        }
        improvements.row(imp_row);

        const RunMetrics &m = das_res->metrics;
        behaviour.row({benches[b], benchutil::num(m.mpki(), 2),
                       benchutil::num(m.ppkm(), 2),
                       benchutil::num(m.footprintMiB(
                                          cfg.geom.rowBytes),
                                      1),
                       benchutil::num(das_res->energyPerAccessNj, 2)});

        std::uint64_t total = m.locations.total();
        auto share = [total](std::uint64_t v) {
            return total ? 100.0 * static_cast<double>(v) /
                               static_cast<double>(total)
                         : 0.0;
        };
        locations.row({benches[b],
                       benchutil::num(share(m.locations.rowBuffer), 1),
                       benchutil::num(share(m.locations.fastLevel), 1),
                       benchutil::num(share(m.locations.slowLevel), 1)});
    }

    std::vector<std::string> gmean_row{"gmean"};
    for (std::size_t d = 0; d < designs.size(); ++d) {
        gmean_row.push_back(benchutil::pct(gmeanImprovement(imp[d])));
    }
    improvements.row(gmean_row);

    std::vector<std::string> header{"benchmark"};
    for (DesignKind d : designs)
        header.push_back(toString(d));
    improvements.print(header);
    behaviour.print({"benchmark", "MPKI", "PPKM", "footprint", "nJ/acc"});
    locations.print({"benchmark", "row-buffer", "fast", "slow"});

    std::printf("\nPaper reference (gmean): SAS 2.66%%, CHARM 4.23%%, "
                "DAS 7.25%%, FS 8.71%%; migration overhead 0.45%%, "
                "translation overhead 0.99%%.\n");
    return 0;
}
