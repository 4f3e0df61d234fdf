/**
 * @file
 * Record/replay closure test (the ISSUE 5 acceptance criterion): a
 * synthetic workload recorded with runSimulation's recordPrefix and
 * replayed through a `file:` spec must produce bit-identical metrics
 * to the live run — per design (including the static designs, whose
 * profiling pre-pass must stay out of the capture) and per engine.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "common/strfmt.hh"
#include "sim/experiment.hh"

using namespace dasdram;

namespace
{

SimConfig
tinyConfig(DesignKind design)
{
    SimConfig cfg;
    cfg.design = design;
    cfg.instructionsPerCore = 80'000;
    cfg.warmupFraction = 0.2;
    return cfg;
}

/** Every numeric field of RunMetrics, for exact comparison. */
void
expectIdentical(const RunMetrics &a, const RunMetrics &b)
{
    ASSERT_EQ(a.ipc.size(), b.ipc.size());
    for (std::size_t i = 0; i < a.ipc.size(); ++i)
        EXPECT_EQ(a.ipc[i], b.ipc[i]) << "core " << i;
    EXPECT_EQ(a.cpuCycles, b.cpuCycles);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.llcMisses, b.llcMisses);
    EXPECT_EQ(a.promotions, b.promotions);
    EXPECT_EQ(a.memAccesses, b.memAccesses);
    EXPECT_EQ(a.footprintRows, b.footprintRows);
    EXPECT_EQ(a.locations.rowBuffer, b.locations.rowBuffer);
    EXPECT_EQ(a.locations.fastLevel, b.locations.fastLevel);
    EXPECT_EQ(a.locations.slowLevel, b.locations.slowLevel);
}

/** Record a live run, then replay the captured binary traces. */
void
recordThenReplay(const std::string &workload, SimConfig cfg,
                 const std::string &tag)
{
    std::string prefix = ::testing::TempDir() + "dasdram_replay_" + tag;
    WorkloadSpec live_spec = WorkloadSpec::parse(workload);

    RunOptions record;
    record.recordPrefix = prefix;
    RunMetrics live = runSimulation(live_spec, cfg, record);

    std::string replay_text;
    for (unsigned i = 0; i < live_spec.numCores(); ++i) {
        if (i)
            replay_text += ',';
        replay_text +=
            formatStr("file:{}.core{}.dastrace", prefix, i);
    }
    if (live_spec.numCores() > 1)
        replay_text = "mix:" + replay_text;

    WorkloadSpec replay_spec = WorkloadSpec::parse(replay_text);
    RunMetrics replayed = runSimulation(replay_spec, cfg);
    expectIdentical(live, replayed);

    for (unsigned i = 0; i < live_spec.numCores(); ++i)
        std::remove(
            formatStr("{}.core{}.dastrace", prefix, i).c_str());
}

} // namespace

TEST(TraceReplay, DasSingleCoreEventEngine)
{
    SimConfig cfg = tinyConfig(DesignKind::Das);
    cfg.engine = SimEngine::Event;
    recordThenReplay("mcf", cfg, "das_event");
}

TEST(TraceReplay, DasSingleCoreTickEngine)
{
    SimConfig cfg = tinyConfig(DesignKind::Das);
    cfg.engine = SimEngine::Tick;
    recordThenReplay("mcf", cfg, "das_tick");
}

TEST(TraceReplay, StaticDesignProfilingPassStaysOutOfTheCapture)
{
    // FS-DRAM runs a profiling pre-pass over the trace before the
    // measured run; the recorder must wipe it on reset() or the replay
    // would see every record twice.
    SimConfig cfg = tinyConfig(DesignKind::Fs);
    cfg.engine = SimEngine::Event;
    recordThenReplay("lbm", cfg, "fs_event");
}

TEST(TraceReplay, MultiCoreMixReplaysPerCoreFiles)
{
    SimConfig cfg = tinyConfig(DesignKind::Das);
    cfg.engine = SimEngine::Event;
    cfg.instructionsPerCore = 50'000;
    recordThenReplay("mcf,omnetpp", cfg, "mix_event");
}

TEST(TraceReplay, StandardDesignBothEnginesAgreeOnTheReplay)
{
    // Replay the same capture under both engines: each engine must
    // reproduce its own live run exactly (the engines themselves are
    // compared by the equivalence suite, not here).
    SimConfig cfg = tinyConfig(DesignKind::Standard);
    cfg.engine = SimEngine::Tick;
    recordThenReplay("milc", cfg, "std_tick");
    cfg.engine = SimEngine::Event;
    recordThenReplay("milc", cfg, "std_event");
}
