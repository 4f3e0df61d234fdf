/**
 * @file
 * The sweep engine's determinism contract: the same sweep produces
 * exactly the same results — bit-identical metrics and byte-identical
 * JSON — whatever the worker-thread count, because every point's seed
 * derives only from (base seed, workload name, design) and results
 * are collected in submission order.
 */

#include <gtest/gtest.h>

#include <cstdlib>

#include "sim/sweep.hh"

using namespace dasdram;

namespace
{

SimConfig
quickConfig()
{
    SimConfig cfg;
    cfg.instructionsPerCore = 120'000;
    return cfg;
}

/** The 3-point sweep the determinism guarantee is tested on. */
std::vector<ExperimentResult>
runSweep(unsigned jobs)
{
    SweepRunner sweep(quickConfig(), jobs);
    sweep.add(WorkloadSpec::single("mcf"), DesignKind::Das);
    sweep.add(WorkloadSpec::single("omnetpp"), DesignKind::Fs);
    sweep.add(WorkloadSpec::single("mcf"), DesignKind::Das,
              [](SimConfig &c) { c.das.promotion.threshold = 4; },
              "th=4");
    return sweep.run();
}

void
expectMetricsExactlyEqual(const RunMetrics &a, const RunMetrics &b)
{
    ASSERT_EQ(a.ipc.size(), b.ipc.size());
    for (std::size_t i = 0; i < a.ipc.size(); ++i)
        EXPECT_EQ(a.ipc[i], b.ipc[i]); // bitwise, not NEAR
    EXPECT_EQ(a.cpuCycles, b.cpuCycles);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.llcMisses, b.llcMisses);
    EXPECT_EQ(a.locations.rowBuffer, b.locations.rowBuffer);
    EXPECT_EQ(a.locations.fastLevel, b.locations.fastLevel);
    EXPECT_EQ(a.locations.slowLevel, b.locations.slowLevel);
    EXPECT_EQ(a.promotions, b.promotions);
    EXPECT_EQ(a.memAccesses, b.memAccesses);
    EXPECT_EQ(a.footprintRows, b.footprintRows);
    EXPECT_EQ(a.energy.actsSlow, b.energy.actsSlow);
    EXPECT_EQ(a.energy.actsFast, b.energy.actsFast);
    EXPECT_EQ(a.energy.reads, b.energy.reads);
    EXPECT_EQ(a.energy.writes, b.energy.writes);
    EXPECT_EQ(a.energy.refreshes, b.energy.refreshes);
    EXPECT_EQ(a.energy.swaps, b.energy.swaps);
}

} // namespace

TEST(SweepDeterminism, SameResultsWithOneAndFourJobs)
{
    std::vector<ExperimentResult> serial = runSweep(1);
    std::vector<ExperimentResult> parallel = runSweep(4);

    ASSERT_EQ(serial.size(), 3u);
    ASSERT_EQ(parallel.size(), 3u);
    for (std::size_t i = 0; i < serial.size(); ++i) {
        SCOPED_TRACE("point " + std::to_string(i));
        EXPECT_EQ(serial[i].workload, parallel[i].workload);
        EXPECT_EQ(serial[i].design, parallel[i].design);
        EXPECT_EQ(serial[i].label, parallel[i].label);
        EXPECT_EQ(serial[i].seed, parallel[i].seed);
        expectMetricsExactlyEqual(serial[i].metrics,
                                  parallel[i].metrics);
        EXPECT_EQ(serial[i].perfImprovement,
                  parallel[i].perfImprovement);
        EXPECT_EQ(serial[i].energyPerAccessNj,
                  parallel[i].energyPerAccessNj);
        // The exported form is what figure outputs are built from:
        // byte-identical, not merely numerically close.
        EXPECT_EQ(toJsonLine(serial[i]), toJsonLine(parallel[i]));
    }

    // The two mcf points differ only in the promotion threshold, so
    // they must share both seed (paired comparison) and baseline.
    EXPECT_EQ(serial[0].seed, serial[2].seed);
}

TEST(SweepDeterminism, PointSeedDependsOnAllInputs)
{
    std::uint64_t s = SweepRunner::pointSeed(42, "mcf", DesignKind::Das);
    EXPECT_EQ(s, SweepRunner::pointSeed(42, "mcf", DesignKind::Das));
    EXPECT_NE(s, SweepRunner::pointSeed(43, "mcf", DesignKind::Das));
    EXPECT_NE(s, SweepRunner::pointSeed(42, "milc", DesignKind::Das));
    EXPECT_NE(s, SweepRunner::pointSeed(42, "mcf", DesignKind::Fs));
    EXPECT_NE(SweepRunner::pointSeed(42, "mcf", DesignKind::Standard),
              s);
}

TEST(SweepDeterminism, PointSeedIsPinned)
{
    // Literal values: a change to the hash chain would silently move
    // every sweep's and dasdram_run's per-point seeds, and with them
    // every published figure.
    EXPECT_EQ(SweepRunner::pointSeed(42, "mcf", DesignKind::Das),
              0x337b83532ecafb7aULL);
    EXPECT_EQ(SweepRunner::pointSeed(42, "M2", DesignKind::Standard),
              0x3fcc608fdd1bbb1aULL);
    EXPECT_EQ(SweepRunner::pointSeed(42, "mcf", DesignKind::Sas),
              0x6be42f0f43370289ULL);
    EXPECT_EQ(SweepRunner::pointSeed(7, "omnetpp", DesignKind::Fs),
              0x42e37f5177884e6eULL);
    EXPECT_EQ(SweepRunner::pointSeed(0, "", DesignKind::Charm),
              0xdf08bff39492c6deULL);
    EXPECT_EQ(SweepRunner::pointSeed(~0ULL, "mix:spec:mcf,spec:lbm",
                                     DesignKind::DasFm),
              0xd693f87d013e17e2ULL);
}

TEST(SweepDeterminism, StandardPointsReportZeroImprovement)
{
    SweepRunner sweep(quickConfig(), 2);
    sweep.add(WorkloadSpec::single("omnetpp"), DesignKind::Standard);
    sweep.add(WorkloadSpec::single("omnetpp"), DesignKind::Fs);
    auto results = sweep.run();
    EXPECT_DOUBLE_EQ(results[0].perfImprovement, 0.0);
    EXPECT_GT(results[1].perfImprovement, 0.0);
}

TEST(SweepDeterminism, MoreJobsThanPointsIsFine)
{
    SweepRunner sweep(quickConfig(), 16);
    sweep.add(WorkloadSpec::single("omnetpp"), DesignKind::Das);
    auto results = sweep.run();
    ASSERT_EQ(results.size(), 1u);
    EXPECT_GT(results[0].metrics.ipc.at(0), 0.0);
}

TEST(SweepDeterminism, ResolveJobsHonoursEnvAndRequest)
{
    EXPECT_EQ(SweepRunner::resolveJobs(3), 3u);

    ::setenv("DAS_JOBS", "5", 1);
    EXPECT_EQ(SweepRunner::resolveJobs(0), 5u);
    EXPECT_EQ(SweepRunner::resolveJobs(2), 2u); // explicit wins

    ::setenv("DAS_JOBS", "bogus", 1);
    EXPECT_GE(SweepRunner::resolveJobs(0), 1u); // falls back, >= 1

    ::unsetenv("DAS_JOBS");
    EXPECT_GE(SweepRunner::resolveJobs(0), 1u);
}
