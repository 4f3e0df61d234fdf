/**
 * @file
 * Tests for the multi-channel DRAM system wrapper: routing, clock
 * domain conversion, forwarding and energy accounting.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/random.hh"
#include "core/subarray_layout.hh"
#include "dram/cmd_trace.hh"
#include "dram/dram_system.hh"

using namespace dasdram;

namespace
{

struct SystemHarness
{
    SystemHarness()
        : timing(ddr3_1600Timing()), classifier(RowClass::Slow),
          dram(geom, timing, classifier)
    {
    }

    Cycle
    readLine(Addr addr, Cycle start = 0)
    {
        Cycle done = kCycleMax;
        auto req = std::make_unique<MemRequest>(addr, false, 0);
        req->loc = dram.decode(addr);
        req->onComplete = [&done](MemRequest &, Cycle at) { done = at; };
        dram.submit(std::move(req), start);
        for (Cycle t = start; t < start + 200000 && done == kCycleMax;
             t += kMemTick) {
            dram.tick(t);
        }
        return done;
    }

    DramGeometry geom;
    DramTiming timing;
    UniformRowClassifier classifier;
    DramSystem dram;
};

} // namespace

TEST(DramSystem, CompletionReportedInTicks)
{
    SystemHarness h;
    Cycle done = h.readLine(0x10000);
    ASSERT_NE(done, kCycleMax);
    EXPECT_EQ(done % kMemTick, 0u); // mem-cycle aligned
    // Roughly tRCD + tCL + tBL memory cycles.
    Cycle expect_mem =
        h.timing.slow.tRCD + h.timing.slow.tCL + h.timing.tBL;
    EXPECT_NEAR(static_cast<double>(done) / kMemTick,
                static_cast<double>(expect_mem), 4.0);
}

TEST(DramSystem, RoutesToCorrectChannel)
{
    SystemHarness h;
    // Find two addresses in different channels.
    Addr a0 = 0;
    Addr a1 = h.geom.rowBytes; // next 8 KB block → other channel
    ASSERT_NE(h.dram.decode(a0).channel, h.dram.decode(a1).channel);
    h.readLine(a0);
    h.readLine(a1, 100000 * kMemTick);
    EXPECT_EQ(h.dram.channel(0).readCount() +
                  h.dram.channel(1).readCount(),
              2u);
    EXPECT_EQ(h.dram.channel(0).readCount(), 1u);
}

TEST(DramSystem, WriteForwardingServesReadQuickly)
{
    SystemHarness h;
    Addr addr = 0x40000;
    auto wr = std::make_unique<MemRequest>(addr, true, 0);
    wr->loc = h.dram.decode(addr);
    h.dram.submit(std::move(wr), 0);

    Cycle done = kCycleMax;
    auto rd = std::make_unique<MemRequest>(addr, false, 0);
    rd->loc = h.dram.decode(addr);
    rd->onComplete = [&done](MemRequest &r, Cycle at) {
        done = at;
        EXPECT_EQ(r.location, ServiceLocation::RowBuffer);
    };
    h.dram.submit(std::move(rd), 0);
    // Forwarded synchronously: done already set without any tick.
    ASSERT_NE(done, kCycleMax);
    EXPECT_LE(done / kMemTick,
              h.timing.slow.tCL + h.timing.tBL + 1);
}

TEST(DramSystem, BusyReflectsOutstandingWork)
{
    SystemHarness h;
    EXPECT_FALSE(h.dram.busy());
    auto req = std::make_unique<MemRequest>(0x1000, false, 0);
    req->loc = h.dram.decode(0x1000);
    h.dram.submit(std::move(req), 0);
    EXPECT_TRUE(h.dram.busy());
}

TEST(DramSystem, NextWakeTickAdvancesWhenIdle)
{
    SystemHarness h;
    // Idle system: next wake is the first refresh.
    Cycle wake = h.dram.nextWakeTick(0);
    EXPECT_EQ(wake, h.timing.tREFI * kMemTick);
}

TEST(DramSystem, EnergyBreakdownCountsOperations)
{
    SystemHarness h;
    h.readLine(0x2000);
    EnergyBreakdown e = h.dram.energyBreakdown();
    EXPECT_EQ(e.reads, 1u);
    EXPECT_EQ(e.actsSlow, 1u);
    EXPECT_EQ(e.actsFast, 0u);
    EnergyParams p;
    EXPECT_GT(e.totalNj(p), 0.0);
    EXPECT_GT(e.perAccessNj(p), 0.0);
}

TEST(DramSystem, MigrationApiCompletesInTicks)
{
    SystemHarness h;
    Cycle done = 0;
    h.dram.startMigration(0, 0, 0, 3, 9, true, 0, 32,
                          [&done](Cycle at) { done = at; });
    for (Cycle t = 0; t < 100000 && done == 0; t += kMemTick)
        h.dram.tick(t);
    ASSERT_GT(done, 0u);
    EXPECT_GE(done / kMemTick, h.timing.swapCycles);
}

TEST(EnergyModel, FastActivationCheaper)
{
    EnergyParams p;
    EnergyBreakdown slow{1000, 0, 1000, 0, 0, 0};
    EnergyBreakdown fast{0, 1000, 1000, 0, 0, 0};
    EXPECT_LT(fast.totalNj(p), slow.totalNj(p));
}

namespace
{

/** Captures every command record in arrival order. */
class RecordingCommandSink : public CommandSink
{
  public:
    void onCommand(const CmdRecord &rec) override
    {
        records.push_back(rec);
    }
    std::vector<CmdRecord> records;
};

} // namespace

// The command-order contract every external sink (Chrome trace,
// command trace, checker) relies on: cycles non-decreasing, and
// equal-cycle records in channel index order (the catch-up loop in
// DramSystem::tick visits channels in index order each cycle).
TEST(DramSystem, ThreadedCommandMergeIsStableSortedByCycle)
{
    DramGeometry geom;
    DramTiming timing = ddr3_1600Timing();
    UniformRowClassifier classifier(RowClass::Slow);
    DramSystem dram(geom, timing, classifier);
    RecordingCommandSink sink;
    dram.setCommandSink(&sink);

    unsigned completed = 0;
    unsigned submitted = 0;
    Cycle t = 0;
    // A staggered burst across both channels and several banks keeps
    // multiple channels busy in the same cycles.
    for (unsigned wave = 0; wave < 6; ++wave) {
        for (unsigned i = 0; i < 8; ++i) {
            Addr addr = (static_cast<Addr>(wave * 8 + i) * 0x4340) &
                        ~static_cast<Addr>(63);
            auto req = std::make_unique<MemRequest>(addr, false, 0);
            req->loc = dram.decode(addr);
            req->onComplete = [&completed](MemRequest &, Cycle) {
                ++completed;
            };
            if (!dram.canAccept(req->loc, false))
                continue;
            dram.submit(std::move(req), t);
            ++submitted;
        }
        for (unsigned c = 0; c < 40; ++c) {
            t += kMemTick;
            dram.tick(t);
        }
    }
    for (unsigned c = 0; c < 20000 && completed < submitted; ++c) {
        t += kMemTick;
        dram.tick(t);
    }
    ASSERT_GT(submitted, 0u);
    ASSERT_EQ(completed, submitted);
    ASSERT_GT(sink.records.size(), submitted); // ACT+RD at least

    for (std::size_t i = 1; i < sink.records.size(); ++i) {
        const CmdRecord &prev = sink.records[i - 1];
        const CmdRecord &cur = sink.records[i];
        ASSERT_LE(prev.cycle, cur.cycle)
            << "record " << i << " issued out of cycle order";
        if (prev.cycle == cur.cycle) {
            ASSERT_LE(prev.channel, cur.channel)
                << "equal-cycle records " << i - 1 << "," << i
                << " not in channel order";
        }
    }
}

/** nextWakeMemCycle is the mem-cycle primitive behind nextWakeTick. */
TEST(DramSystem, NextWakeMemCycleMatchesTickDomain)
{
    DramGeometry geom;
    const DramTiming timing = ddr3_1600Timing();
    UniformRowClassifier cls(RowClass::Slow);
    DramSystem dram(geom, timing, cls, {});
    EXPECT_EQ(dram.nextWakeMemCycle(0), timing.tREFI);
    EXPECT_EQ(dram.nextWakeTick(0), timing.tREFI * kMemTick);
}

namespace
{

/** Every command as one text line, for whole-stream comparison. */
std::string
render(const std::vector<CmdRecord> &records)
{
    std::ostringstream os;
    for (const CmdRecord &r : records) {
        os << r.cycle << ' ' << toString(r.cmd) << " ch" << r.channel
           << " ra" << r.rank << " ba" << r.bank << " row=" << r.row
           << " col=" << r.column << " cls=" << static_cast<int>(r.rowClass)
           << " id=" << r.migrationId << '\n';
    }
    return os.str();
}

/** One scheduled request or migration. */
struct WakeEvent
{
    Cycle cycle = 0;
    bool migration = false;
    bool isWrite = false;
    DramLoc loc; ///< request target; channel/rank/bank of a migration
    std::uint64_t rowA = 0, rowB = 0, rowLo = 0, rowHi = 0;
};

std::vector<WakeEvent>
wakeSchedule(std::uint64_t seed, const DramGeometry &geom, unsigned n)
{
    Rng rng(seed);
    std::vector<WakeEvent> events;
    DramLoc last; // the latest request's target
    Cycle cy = 0;
    for (unsigned i = 0; i < n; ++i) {
        // Bursts of back-to-back arrivals build queues (and push the
        // write queue past its drain watermarks); gaps let both
        // channels go idle so the catch-up loop skips cycles.
        cy += rng.chance(0.1) ? 200 + rng.nextBelow(400) : rng.nextBelow(4);
        WakeEvent e;
        e.cycle = cy;
        e.loc.channel = static_cast<unsigned>(rng.nextBelow(geom.channels));
        e.loc.rank =
            static_cast<unsigned>(rng.nextBelow(geom.ranksPerChannel));
        e.loc.bank = static_cast<unsigned>(rng.nextBelow(geom.banksPerRank));
        if (rng.chance(0.04)) {
            // Half of the swaps land on the group the latest request
            // targets, so they defer to queued demand.
            std::uint64_t base = 32 * rng.nextBelow(3);
            if (rng.chance(0.5)) {
                e.loc = last;
                base = last.row / 32 * 32;
            }
            e.migration = true;
            e.rowB = base + rng.nextBelow(4);
            e.rowA = base + 4 + rng.nextBelow(28);
            e.rowLo = base;
            e.rowHi = base + 32;
        } else {
            e.isWrite = rng.chance(0.4);
            e.loc.row = rng.nextBelow(96);
            e.loc.column = rng.nextBelow(geom.rowBytes / geom.lineBytes);
            last = e.loc;
        }
        events.push_back(e);
    }
    return events;
}

/**
 * The channels under test, driven one memory cycle at a time: either
 * a DramSystem (wake-driven catch-up) or two bare controllers ticked
 * every cycle in index order. Both run the same schedule, and the
 * completion of every third read and of every migration submits a
 * follow-up read into the other channel at its completion cycle.
 */
class WakeRig
{
  public:
    WakeRig(bool per_cycle, const DramGeometry &geom,
            const DramTiming &timing, const RowClassifier &cls,
            const ControllerConfig &cfg = {})
        : geom_(geom)
    {
        if (per_cycle) {
            for (unsigned c = 0; c < geom.channels; ++c) {
                ctrls_.push_back(std::make_unique<ChannelController>(
                    c, geom, timing, cls, cfg));
                ctrls_.back()->setCommandSink(&sink_);
            }
        } else {
            dram_ = std::make_unique<DramSystem>(geom, timing, cls, cfg);
            dram_->setCommandSink(&sink_);
        }
    }

    void
    run(const std::vector<WakeEvent> &events, Cycle end)
    {
        std::size_t next = 0;
        for (Cycle now = 1; now <= end; ++now) {
            for (; next < events.size() && events[next].cycle <= now; ++next) {
                const WakeEvent &e = events[next];
                if (e.migration)
                    migrate(e);
                else
                    submit(e.loc, e.isWrite, now, /*follow_ups=*/true);
            }
            if (dram_) {
                dram_->tick(now * kMemTick);
            } else {
                for (const auto &ctrl : ctrls_)
                    ctrl->tick(now);
            }
        }
    }

    std::string trace() const { return render(sink_.records); }

    std::vector<std::pair<std::uint64_t, Cycle>> completions;
    unsigned followUps = 0;
    unsigned submitted = 0;

  private:
    bool
    canAccept(unsigned channel, bool is_write) const
    {
        return dram_ ? dram_->canAccept(DramLoc{channel, 0, 0, 0, 0},
                                        is_write)
                     : ctrls_[channel]->canAccept(is_write);
    }

    void
    submit(const DramLoc &loc, bool is_write, Cycle now, bool follow_ups)
    {
        if (!canAccept(loc.channel, is_write))
            return;
        auto req = std::make_unique<MemRequest>();
        req->id = ++lastId_;
        // Unique lines: no read is ever forwarded from a write queue.
        req->addr = static_cast<Addr>(req->id) * geom_.lineBytes;
        req->isWrite = is_write;
        req->loc = loc;
        const std::uint64_t id = req->id;
        req->onComplete = [this, id, follow_ups](MemRequest &r, Cycle at) {
            completions.emplace_back(id, at);
            if (!r.isWrite && follow_ups && id % 3 == 0)
                followUp(r.loc.channel, id, at);
        };
        ++submitted;
        if (dram_)
            dram_->submit(std::move(req), now * kMemTick);
        else
            ctrls_[loc.channel]->enqueue(std::move(req), now);
    }

    void
    migrate(const WakeEvent &e)
    {
        const unsigned ch = e.loc.channel;
        const std::uint64_t tag = ++lastId_;
        auto done = [this, ch, tag](Cycle at) {
            completions.emplace_back(tag, at);
            followUp(ch, tag, at);
        };
        if (dram_) {
            dram_->startMigration(ch, e.loc.rank, e.loc.bank, e.rowA,
                                  e.rowB, true, e.rowLo, e.rowHi, done);
            return;
        }
        MigrationJob job;
        job.rank = e.loc.rank;
        job.bank = e.loc.bank;
        job.rowA = e.rowA;
        job.rowB = e.rowB;
        job.rowLo = e.rowLo;
        job.rowHi = e.rowHi;
        job.onDone = done;
        ctrls_[ch]->addMigration(std::move(job));
    }

    /** A read into the channel other than @p from, issued at @p at
     *  (a completion tick, which is memory-cycle aligned). */
    void
    followUp(unsigned from, std::uint64_t seed, Cycle at)
    {
        DramLoc loc;
        loc.channel = (from + 1) % geom_.channels;
        loc.rank = static_cast<unsigned>(seed % geom_.ranksPerChannel);
        loc.bank = static_cast<unsigned>((seed / 2) % geom_.banksPerRank);
        loc.row = (seed * 7) % 96;
        loc.column = seed % 128;
        ++followUps;
        submit(loc, false, at / kMemTick, /*follow_ups=*/false);
    }

    DramGeometry geom_;
    std::unique_ptr<DramSystem> dram_;
    std::vector<std::unique_ptr<ChannelController>> ctrls_;
    RecordingCommandSink sink_;
    std::uint64_t lastId_ = 0;
};

} // namespace

namespace
{

/** Run @p events through both rigs and require identical results. */
void
expectWakeRigsAgree(const std::vector<WakeEvent> &events,
                    const DramGeometry &geom, const DramTiming &timing,
                    const RowClassifier &cls, const ControllerConfig &cfg)
{
    const Cycle end = events.back().cycle + 20'000;
    WakeRig ref(/*per_cycle=*/true, geom, timing, cls, cfg);
    WakeRig sys(/*per_cycle=*/false, geom, timing, cls, cfg);
    ref.run(events, end);
    sys.run(events, end);

    const auto migrations = static_cast<std::size_t>(
        std::count_if(events.begin(), events.end(),
                      [](const WakeEvent &e) { return e.migration; }));
    EXPECT_GT(ref.followUps, 0u);
    EXPECT_EQ(ref.submitted, sys.submitted);
    EXPECT_EQ(ref.completions.size(), ref.submitted + migrations)
        << "reference did not drain";
    EXPECT_EQ(ref.completions, sys.completions);
    const std::string a = ref.trace(), b = sys.trace();
    if (a != b) {
        std::size_t i = 0;
        while (i < a.size() && i < b.size() && a[i] == b[i])
            ++i;
        const std::size_t line = a.rfind('\n', i) + 1;
        ADD_FAILURE() << "command streams diverge at\n  per-cycle: "
                      << a.substr(line, a.find('\n', i) - line)
                      << "\n  wake-driven: "
                      << b.substr(line, b.find('\n', i) - line);
    }
}

} // namespace

/**
 * The wake-driven catch-up loop ticks a channel only when its cached
 * horizon has arrived or an earlier channel's callback fed it within
 * the cycle. Against two controllers ticked every memory cycle it
 * must issue the same command stream and complete every request and
 * migration at the same tick — including reads fed by the other
 * channel's completion callbacks within a cycle, in both directions.
 * A short deferral budget makes deferred swaps reach their deadline
 * while demand still waits.
 */
TEST(DramSystemWake, MatchesPerCycleChannels)
{
    DramGeometry geom;
    const DramTiming timing = ddr3_1600Timing();
    AsymmetricLayout layout(geom, LayoutConfig{});
    ControllerConfig short_defer;
    short_defer.migrationMaxDefer = 40;
    for (const ControllerConfig &cfg : {ControllerConfig{}, short_defer}) {
        for (std::uint64_t seed : {1u, 2u, 3u}) {
            SCOPED_TRACE(testing::Message()
                         << "seed " << seed << ", migrationMaxDefer "
                         << cfg.migrationMaxDefer);
            expectWakeRigsAgree(wakeSchedule(0x3a4e + seed, geom, 1500),
                                geom, timing, layout, cfg);
        }
    }
}

/**
 * The write-drain flag of a channel that is not due still follows
 * every catch-up cycle. Channel 0's last read issues with twelve
 * writes queued and draining off; channel 1 is due two cycles later,
 * which turns channel 0's draining on; then a read arrives for
 * channel 0. Draining must stay on (twelve writes exceed the low
 * watermark), so the write wins when the write and the read are both
 * ready — as when the channel ticks every cycle.
 */
TEST(DramSystemWake, IdleChannelKeepsWriteDrainStep)
{
    DramGeometry geom;
    const DramTiming timing = ddr3_1600Timing();
    UniformRowClassifier slow(RowClass::Slow);
    std::vector<WakeEvent> events;
    auto add = [&](Cycle cycle, unsigned ch, unsigned rank, unsigned bank,
                   std::uint64_t row, std::uint64_t col, bool write) {
        WakeEvent e;
        e.cycle = cycle;
        e.isWrite = write;
        e.loc = DramLoc{ch, rank, bank, row, col};
        events.push_back(e);
    };
    add(1, 0, 1, 0, 7, 0, false);
    for (unsigned col = 0; col < 12; ++col)
        add(1, 0, 0, 0, 5, col, true);
    add(3, 1, 0, 0, 3, 0, false);
    add(16, 0, 1, 1, 9, 0, false);
    expectWakeRigsAgree(events, geom, timing, slow, ControllerConfig{});
}
