/**
 * @file
 * Diagnostic example: run one workload on one design and dump the full
 * statistics tree (controller, cache, translation and manager stats).
 * Useful to understand where time and traffic go.
 *
 * Usage: inspect_stats [benchmark] [design] [instructions]
 */

#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>

#include "sim/experiment.hh"

using namespace dasdram;

int
main(int argc, char **argv)
{
    std::string bench = argc > 1 ? argv[1] : "cactusADM";
    std::string design = argc > 2 ? argv[2] : "das";

    SimConfig cfg;
    cfg.instructionsPerCore =
        argc > 3 ? std::strtoull(argv[3], nullptr, 0) : 2'000'000;
    applySimScale(cfg);
    cfg.design = parseDesign(design);

    // runSimulation runs the profiling pass SAS and CHARM need; the
    // after-run callback sees the System that produced the metrics.
    std::ostringstream stats;
    RunOptions opts;
    opts.afterRun = [&stats](System &sys) { sys.dumpStats(stats); };
    RunMetrics m = runSimulation(WorkloadSpec::single(bench), cfg, opts);

    std::cout << "# " << bench << " on " << toString(cfg.design) << "\n";
    std::cout << "ipc " << m.ipc[0] << "  mpki " << m.mpki() << "  ppkm "
              << m.ppkm() << "\n\n";
    std::cout << stats.str();
    return 0;
}
