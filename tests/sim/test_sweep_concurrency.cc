/**
 * @file
 * Concurrency test for SweepRunner: many workers race on one shared
 * standard-DRAM baseline memo, and the results must equal a jobs=1
 * sweep exactly.
 *
 * Run it under ThreadSanitizer to verify the locking:
 *   cmake -B build-tsan -DDAS_SANITIZE=thread
 *   cmake --build build-tsan --target concurrency_tests
 *   ctest --test-dir build-tsan -L stress
 */

#include <gtest/gtest.h>

#include <vector>

#include "sim/sweep.hh"

using namespace dasdram;

namespace
{

/**
 * Twelve points over two workloads, all needing a baseline: every
 * point of a workload asks the memo for the same baseline, so with
 * many jobs several workers wait on one future while another
 * computes it.
 */
std::vector<ExperimentResult>
runSweep(unsigned jobs)
{
    SimConfig cfg;
    cfg.instructionsPerCore = 60'000;
    SweepRunner sweep(cfg, jobs);
    for (const char *name : {"mcf", "omnetpp"}) {
        WorkloadSpec w = WorkloadSpec::single(name);
        for (DesignKind d : {DesignKind::Das, DesignKind::Fs,
                             DesignKind::Standard}) {
            sweep.add(w, d);
        }
        for (unsigned th : {2u, 4u, 8u}) {
            sweep.add(w, DesignKind::Das,
                      [th](SimConfig &c) { c.das.promotion.threshold = th; },
                      "th=" + std::to_string(th));
        }
    }
    return sweep.run();
}

} // namespace

TEST(SweepConcurrency, ParallelRunsMatchSerialRuns)
{
    std::vector<ExperimentResult> serial = runSweep(1);
    std::vector<ExperimentResult> parallel = runSweep(8);
    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        SCOPED_TRACE("point " + std::to_string(i));
        EXPECT_EQ(toJsonLine(parallel[i]), toJsonLine(serial[i]));
    }
}
