/**
 * @file
 * Tests for the run path: workload construction, the profiling pass,
 * RunOptions (callbacks, checkpoint and restore), baseline caching
 * and improvement arithmetic.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <limits>
#include <sstream>

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

/** One @p design point of @p workload plus its standard baseline. */
ExperimentResult
runPoint(const std::string &workload, DesignKind design)
{
    SweepRunner sweep(quickConfig(), 1);
    sweep.add(WorkloadSpec::single(workload), design);
    return sweep.run()[0];
}

} // namespace

TEST(WorkloadSpec, SingleAndMix)
{
    WorkloadSpec s = WorkloadSpec::single("mcf");
    EXPECT_EQ(s.name, "mcf");
    ASSERT_EQ(s.parts.size(), 1u);
    WorkloadSpec m = WorkloadSpec::mix(0);
    EXPECT_EQ(m.name, "M1");
    EXPECT_EQ(m.parts.size(), 4u);
    EXPECT_DEATH(WorkloadSpec::mix(8), "out of range");
}

TEST(Experiment, StandardBaselineHasZeroImprovement)
{
    ExperimentResult r = runPoint("omnetpp", DesignKind::Standard);
    EXPECT_NEAR(r.perfImprovement, 0.0, 1e-9);
    EXPECT_GT(r.energyPerAccessNj, 0.0);
}

TEST(Experiment, FsImprovementPositive)
{
    EXPECT_GT(runPoint("omnetpp", DesignKind::Fs).perfImprovement, 0.0);
}

TEST(Experiment, GmeanImprovement)
{
    EXPECT_NEAR(gmeanImprovement({0.1, 0.1}), 0.1, 1e-9);
    EXPECT_NEAR(gmeanImprovement({}), 0.0, 1e-12);
    // gmean of (1.21, 1.0) = 1.1.
    EXPECT_NEAR(gmeanImprovement({0.21, 0.0}), 0.1, 1e-3);
}

TEST(Experiment, StaticDesignGetsProfiledTable)
{
    // The profiling pass puts the hottest rows in the fast level, so a
    // SAS run serves far more fast-level accesses than the same table
    // left unprofiled (a profile window of zero instructions).
    SimConfig cfg = quickConfig();
    cfg.design = DesignKind::Sas;
    WorkloadSpec w = WorkloadSpec::single("omnetpp");
    RunMetrics profiled = runSimulation(w, cfg);
    cfg.profileWindowMultiplier = 0.0;
    RunMetrics unprofiled = runSimulation(w, cfg);
    EXPECT_GT(profiled.ipc[0], 0.0);
    EXPECT_EQ(profiled.promotions, 0u); // static never migrates
    EXPECT_GT(profiled.locations.fastLevel,
              2 * unprofiled.locations.fastLevel);
}

TEST(Experiment, ResultsDeterministicAcrossRunners)
{
    ExperimentResult ra = runPoint("mcf", DesignKind::Das);
    ExperimentResult rb = runPoint("mcf", DesignKind::Das);
    EXPECT_DOUBLE_EQ(ra.metrics.ipc[0], rb.metrics.ipc[0]);
    EXPECT_EQ(ra.metrics.promotions, rb.metrics.promotions);
}

TEST(Experiment, CallbacksSeeTheProfiledSystem)
{
    // The System handed to the callbacks is the one that ran: its
    // stats tree agrees with the metrics runSimulation returns, for a
    // profiled static design too.
    SimConfig cfg = quickConfig();
    cfg.design = DesignKind::Charm;
    unsigned before = 0, after = 0;
    std::uint64_t cycles = 0;
    RunOptions opts;
    opts.beforeRun = [&](System &) { ++before; };
    opts.afterRun = [&](System &sys) {
        ++after;
        std::ostringstream os;
        sys.dumpStats(os);
        std::istringstream in(os.str());
        std::string name;
        while (in >> name) {
            if (name == "system.core0.cycles")
                in >> cycles;
            in.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
        }
    };
    RunMetrics m = runSimulation(WorkloadSpec::single("mcf"), cfg, opts);
    EXPECT_EQ(before, 1u);
    EXPECT_EQ(after, 1u);
    EXPECT_EQ(cycles, m.cpuCycles);
}

TEST(Experiment, RestoredStaticRunMatchesColdRun)
{
    // A static design profiles before its checkpoint is taken, and
    // the restore takes the profiled table from the snapshot instead
    // of profiling again: both halves of the run agree exactly.
    SimConfig cfg = quickConfig();
    cfg.design = DesignKind::Sas;
    WorkloadSpec w = WorkloadSpec::single("mcf");
    std::string path = ::testing::TempDir() + "dasdram_restore_sas.ckpt";

    RunOptions cold;
    cold.checkpoints.emplace_back(150'000, path);
    RunMetrics straight = runSimulation(w, cfg, cold);
    RunOptions warm;
    warm.restorePath = path;
    RunMetrics restored = runSimulation(w, cfg, warm);
    std::remove(path.c_str());

    EXPECT_EQ(straight.ipc, restored.ipc);
    EXPECT_EQ(straight.cpuCycles, restored.cpuCycles);
    EXPECT_EQ(straight.locations.fastLevel, restored.locations.fastLevel);
    EXPECT_EQ(straight.locations.slowLevel, restored.locations.slowLevel);
    EXPECT_EQ(straight.cpuCycles, runSimulation(w, cfg).cpuCycles)
        << "taking a checkpoint changed the run";
}

TEST(RunMetrics, DerivedQuantities)
{
    RunMetrics m;
    m.instructions = 1'000'000;
    m.llcMisses = 20'000;
    m.promotions = 400;
    m.memAccesses = 25'000;
    m.footprintRows = 1024;
    EXPECT_DOUBLE_EQ(m.mpki(), 20.0);
    EXPECT_DOUBLE_EQ(m.ppkm(), 20.0);
    EXPECT_DOUBLE_EQ(m.promotionsPerAccess(), 0.016);
    EXPECT_DOUBLE_EQ(m.footprintMiB(8192), 8.0);
}

TEST(RunMetrics, ZeroSafe)
{
    RunMetrics m;
    EXPECT_DOUBLE_EQ(m.mpki(), 0.0);
    EXPECT_DOUBLE_EQ(m.ppkm(), 0.0);
    EXPECT_DOUBLE_EQ(m.promotionsPerAccess(), 0.0);
}
