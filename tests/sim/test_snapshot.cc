/**
 * @file
 * Snapshot/restore integration tests: failure modes of the versioned
 * checkpoint envelope (truncation, wrong magic, future version,
 * config-fingerprint mismatch) and the bit-identity guarantee — a run
 * restored from a mid-run checkpoint must reproduce the straight
 * run's stats exactly, including mid-epoch EpochSeries alignment —
 * and the pending-miss-event layout (pop order written, heap order
 * from older files accepted).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <unistd.h>

#include "common/binfmt.hh"
#include "sim/system.hh"
#include "workload/spec_profiles.hh"
#include "workload/synth_trace.hh"

using namespace dasdram;

namespace
{

SimConfig
snapConfig(DesignKind design = DesignKind::Das)
{
    SimConfig cfg;
    cfg.design = design;
    cfg.instructionsPerCore = 120'000;
    cfg.warmupFraction = 0.2;
    return cfg;
}

BenchmarkProfile
snapProfile()
{
    BenchmarkProfile p = specProfile("omnetpp");
    p.footprintMiB = 64;
    p.workingSetPages = 400;
    p.phaseInstructions = 40'000;
    return p;
}

/** A checkpoint path no other test process uses: ctest runs each test
 *  on its own and the Snapshot* suite as a whole at the same time, and
 *  the tests below delete and rewrite their files. */
std::string
uniqueTmpPath(const std::string &name)
{
    return ::testing::TempDir() + name + "_" + std::to_string(::getpid()) +
           ".ckpt";
}

/** The complete stats-JSONL dump of a finished system, as a string. */
std::string
statsDump(const System &sys)
{
    std::ostringstream os;
    sys.writeStatsJsonl(os);
    return os.str();
}

/** Run straight through, writing a checkpoint at @p tick on the way. */
std::string
runWithCheckpoint(const SimConfig &cfg, Cycle tick,
                  const std::string &path)
{
    SyntheticTrace trace(snapProfile(), 1);
    System sys(cfg, {&trace});
    sys.scheduleCheckpoint(tick, path);
    sys.run();
    return statsDump(sys);
}

/** Restore @p path into a fresh system and run it to completion. */
std::string
runRestored(const SimConfig &cfg, const std::string &path)
{
    SyntheticTrace trace(snapProfile(), 1);
    System sys(cfg, {&trace});
    sys.loadSnapshot(path);
    sys.run();
    return statsDump(sys);
}

} // namespace

TEST(SnapshotDeathTest, TruncatedFileIsFatal)
{
    std::string path = uniqueTmpPath("snap_trunc");
    SimConfig cfg = snapConfig();
    SyntheticTrace trace(snapProfile(), 1);
    System sys(cfg, {&trace});
    sys.saveSnapshot(path);

    // Chop the file mid-payload: the envelope's length framing must
    // catch it before the serde layer sees a single byte.
    std::ifstream is(path, std::ios::binary);
    std::vector<char> bytes((std::istreambuf_iterator<char>(is)),
                            std::istreambuf_iterator<char>());
    is.close();
    ASSERT_GT(bytes.size(), 64u);
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os.write(bytes.data(),
             static_cast<std::streamsize>(bytes.size() / 2));
    os.close();

    SyntheticTrace t2(snapProfile(), 1);
    System fresh(cfg, {&t2});
    EXPECT_DEATH(fresh.loadSnapshot(path), "truncated checkpoint");
    std::remove(path.c_str());
}

TEST(SnapshotDeathTest, WrongMagicIsFatal)
{
    std::string path = uniqueTmpPath("snap_magic");
    // A well-formed envelope of the wrong kind (a stats file, say)
    // must be rejected by magic, not parsed as state.
    std::string err = binfmt::writeEnvelopeFile(
        path, 0x12345678u, 1, std::vector<unsigned char>{1, 2, 3});
    ASSERT_TRUE(err.empty()) << err;

    SimConfig cfg = snapConfig();
    SyntheticTrace trace(snapProfile(), 1);
    System sys(cfg, {&trace});
    EXPECT_DEATH(sys.loadSnapshot(path), "bad magic");
    std::remove(path.c_str());
}

TEST(SnapshotDeathTest, FutureVersionIsFatal)
{
    std::string path = uniqueTmpPath("snap_future");
    std::string err = binfmt::writeEnvelopeFile(
        path, System::kSnapshotMagic,
        static_cast<std::uint16_t>(System::kSnapshotVersion + 1),
        std::vector<unsigned char>{1, 2, 3});
    ASSERT_TRUE(err.empty()) << err;

    SimConfig cfg = snapConfig();
    SyntheticTrace trace(snapProfile(), 1);
    System sys(cfg, {&trace});
    EXPECT_DEATH(sys.loadSnapshot(path), "newer than this build");
    std::remove(path.c_str());
}

TEST(SnapshotDeathTest, ConfigFingerprintMismatchIsFatal)
{
    std::string path = uniqueTmpPath("snap_fp");
    SimConfig das_cfg = snapConfig(DesignKind::Das);
    SyntheticTrace t1(snapProfile(), 1);
    System das_sys(das_cfg, {&t1});
    das_sys.saveSnapshot(path);

    // A state-shaping difference (the design) must refuse to restore;
    // engine and output differences deliberately do not.
    SimConfig std_cfg = snapConfig(DesignKind::Standard);
    SyntheticTrace t2(snapProfile(), 1);
    System std_sys(std_cfg, {&t2});
    EXPECT_DEATH(std_sys.loadSnapshot(path),
                 "config fingerprint mismatch");
    std::remove(path.c_str());
}

TEST(Snapshot, RestoredRunIsBitIdentical)
{
    std::string path = uniqueTmpPath("snap_mid");
    SimConfig cfg = snapConfig();
    std::string straight = runWithCheckpoint(cfg, 200'000, path);
    std::string restored = runRestored(cfg, path);
    EXPECT_EQ(straight, restored);
    std::remove(path.c_str());
}

TEST(Snapshot, RestoreCrossesEngine)
{
    std::string path = uniqueTmpPath("snap_cross");
    SimConfig cfg = snapConfig();
    cfg.engine = SimEngine::Event;
    std::string straight = runWithCheckpoint(cfg, 200'000, path);

    // The fingerprint admits an engine change: restoring under the
    // tick engine must still reproduce the event run bit for bit.
    SimConfig other = cfg;
    other.engine = SimEngine::Tick;
    std::string restored = runRestored(other, path);
    EXPECT_EQ(straight, restored);
    std::remove(path.c_str());
}

TEST(Snapshot, MidEpochCheckpointKeepsEpochAlignment)
{
    std::string path = uniqueTmpPath("snap_epoch");
    SimConfig cfg = snapConfig();
    cfg.obs.epochMemCycles = 2'000;
    // One epoch is 2000 mem cycles = 30000 ticks; tick 200000 lands
    // two thirds through epoch 6, so the restored run must finish the
    // partially filled epoch exactly where the straight run does.
    std::string straight = runWithCheckpoint(cfg, 200'000, path);
    std::string restored = runRestored(cfg, path);
    ASSERT_NE(straight.find("\"type\":\"epoch\""), std::string::npos);
    EXPECT_EQ(straight, restored);
    std::remove(path.c_str());
}

TEST(Snapshot, WarmupCheckpointSkipsWarmup)
{
    std::string path = uniqueTmpPath("snap_warm");
    SimConfig cfg = snapConfig();
    SyntheticTrace t1(snapProfile(), 1);
    System s1(cfg, {&t1});
    s1.checkpointAtWarmup(path);
    s1.run();
    std::string straight = statsDump(s1);
    std::string restored = runRestored(cfg, path);
    EXPECT_EQ(straight, restored);
    std::remove(path.c_str());
}

TEST(Snapshot, RepeatedWarmupCheckpointsWriteEveryPath)
{
    const std::string a = uniqueTmpPath("snap_warm_a");
    const std::string b = uniqueTmpPath("snap_warm_b");
    std::remove(a.c_str());
    std::remove(b.c_str());
    SimConfig cfg = snapConfig();
    SyntheticTrace t1(snapProfile(), 1);
    System s1(cfg, {&t1});
    s1.checkpointAtWarmup(a);
    s1.checkpointAtWarmup(b);
    s1.run();
    const std::string straight = statsDump(s1);

    // Both are taken at the same loop top, so they hold the same state.
    binfmt::EnvelopeResult ea = binfmt::readEnvelopeFile(
        a, System::kSnapshotMagic, System::kSnapshotVersion, "checkpoint");
    binfmt::EnvelopeResult eb = binfmt::readEnvelopeFile(
        b, System::kSnapshotMagic, System::kSnapshotVersion, "checkpoint");
    ASSERT_TRUE(ea.ok()) << ea.error;
    ASSERT_TRUE(eb.ok()) << eb.error;
    EXPECT_EQ(ea.payload, eb.payload);
    EXPECT_EQ(runRestored(cfg, a), straight);
    EXPECT_EQ(runRestored(cfg, b), straight);
    std::remove(a.c_str());
    std::remove(b.c_str());
}

namespace
{

/**
 * Where the pending miss events sit in a checkpoint payload: after the
 * config fingerprint, the "system" section header (name length, name,
 * section length), now, the event sequence counter and the two warm-up
 * fields comes the event count, then the events, seven 8-byte fields
 * each (at, seq, core, slot, line, isWrite, issueTick).
 */
constexpr std::size_t kEventCountAt = 8 + (8 + 6 + 8) + 4 * 8;
constexpr std::size_t kEventBytes = 7 * 8;

std::size_t
eventAt(std::size_t i)
{
    return kEventCountAt + 8 + i * kEventBytes;
}

std::vector<unsigned char>
readPayload(const std::string &path)
{
    binfmt::EnvelopeResult env = binfmt::readEnvelopeFile(
        path, System::kSnapshotMagic, System::kSnapshotVersion,
        "checkpoint");
    EXPECT_TRUE(env.ok()) << env.error;
    return env.payload;
}

void
writePayload(const std::string &path,
             const std::vector<unsigned char> &payload)
{
    std::string err = binfmt::writeEnvelopeFile(
        path, System::kSnapshotMagic, System::kSnapshotVersion, payload);
    ASSERT_TRUE(err.empty()) << err;
}

/**
 * Run straight through @p cfg, checkpointing at a series of loop tops
 * into files named after @p tag,
 * and return (straight-run stats, payload of the first checkpoint with
 * at least @p min_events pending miss events). Misses come in bursts,
 * so the candidates are ten CPU cycles apart across one (the
 * snapProfile run has five events pending at tick 200320). Every
 * candidate file is removed again.
 */
std::pair<std::string, std::vector<unsigned char>>
checkpointWithEvents(const SimConfig &cfg, const std::string &tag,
                     std::uint64_t min_events)
{
    constexpr unsigned kCandidates = 8;
    SyntheticTrace trace(snapProfile(), 1);
    System sys(cfg, {&trace});
    std::vector<std::string> paths;
    for (unsigned k = 0; k < kCandidates; ++k) {
        paths.push_back(uniqueTmpPath(tag + std::to_string(k)));
        sys.scheduleCheckpoint(200'200 + 10 * kCpuTick * k, paths.back());
    }
    sys.run();
    std::vector<unsigned char> found;
    for (const std::string &p : paths) {
        std::vector<unsigned char> payload = readPayload(p);
        std::remove(p.c_str());
        if (found.empty() && payload.size() >= eventAt(0) &&
            binfmt::getLe(payload.data() + kEventCountAt, 8) >= min_events)
            found = std::move(payload);
    }
    return {statsDump(sys), found};
}

} // namespace

/**
 * Snapshots write the pending miss events in pop order; snapshots from
 * before the events became a FIFO hold a min-heap array instead. Such
 * a file — events 1 and 2 of a sorted array swapped, which is still a
 * valid heap — must restore, pop in (at, seq) order and finish exactly
 * like the straight run.
 */
TEST(Snapshot, HeapOrderedMissEventsRestoreInDueOrder)
{
    SimConfig cfg = snapConfig();
    auto [straight, payload] = checkpointWithEvents(cfg, "snap_heap_", 3);
    ASSERT_FALSE(payload.empty()) << "no candidate had 3 pending events";

    const std::uint64_t n = binfmt::getLe(payload.data() + kEventCountAt, 8);
    for (std::size_t i = 1; i < n; ++i) {
        const std::uint64_t at0 = binfmt::getLe(&payload[eventAt(i - 1)], 8);
        const std::uint64_t at1 = binfmt::getLe(&payload[eventAt(i)], 8);
        const std::uint64_t seq0 =
            binfmt::getLe(&payload[eventAt(i - 1) + 8], 8);
        const std::uint64_t seq1 = binfmt::getLe(&payload[eventAt(i) + 8], 8);
        ASSERT_TRUE(at0 < at1 || (at0 == at1 && seq0 < seq1))
            << "events not written in pop order at " << i;
    }
    std::swap_ranges(payload.begin() + eventAt(1),
                     payload.begin() + eventAt(2),
                     payload.begin() + eventAt(2));
    const std::string path = uniqueTmpPath("snap_heap_order");
    writePayload(path, payload);
    EXPECT_EQ(runRestored(cfg, path), straight);
    std::remove(path.c_str());
}

/** The pending-event FIFO relies on every push sorting at or after
 *  the back; an event due later than any live push could be (only
 *  reachable through a doctored snapshot) must stop the run. */
TEST(SnapshotDeathTest, OutOfOrderMissEventPushPanics)
{
    SimConfig cfg = snapConfig();
    std::vector<unsigned char> payload =
        checkpointWithEvents(cfg, "snap_late_", 1).second;
    ASSERT_FALSE(payload.empty()) << "no candidate had a pending event";
    const std::uint64_t n = binfmt::getLe(payload.data() + kEventCountAt, 8);
    unsigned char *last_at = &payload[eventAt(n - 1)];
    binfmt::putLe(last_at, binfmt::getLe(last_at, 8) + 1'000'000'000, 8);
    const std::string path = uniqueTmpPath("snap_late_event");
    writePayload(path, payload);
    EXPECT_DEATH(runRestored(cfg, path), "pushed behind");
    std::remove(path.c_str());
}
