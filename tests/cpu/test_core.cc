/**
 * @file
 * Tests for the ROB-window core model: IPC behaviour under ideal and
 * stalling memory, window limits and trace completion.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/random.hh"
#include "cpu/core.hh"

using namespace dasdram;

namespace
{

/** Memory that answers every load after a fixed tick latency. */
struct FixedLatencyMemory
{
    Cycle latency = 0;
    Cycle now = 0;
    Core *core = nullptr; ///< set after the core is constructed
    std::vector<std::pair<Cycle, unsigned>> pending; ///< (ready, slot)

    Core::MemAccessFn
    fn()
    {
        return [this](Addr, bool, unsigned slot) {
            if (slot != Core::kNoSlot)
                pending.emplace_back(now + latency, slot);
        };
    }

    void
    tick(Cycle t)
    {
        now = t;
        for (std::size_t i = 0; i < pending.size();) {
            if (pending[i].first <= t) {
                core->completeLoad(pending[i].second,
                                   pending[i].first);
                pending[i] = pending.back();
                pending.pop_back();
            } else {
                ++i;
            }
        }
    }
};

std::vector<TraceEntry>
uniformTrace(std::size_t n, std::uint32_t gap, std::uint32_t stride = 64)
{
    std::vector<TraceEntry> t;
    for (std::size_t i = 0; i < n; ++i)
        t.push_back({gap, static_cast<Addr>(i) * stride, false});
    return t;
}

} // namespace

TEST(Core, IdealMemoryReachesIssueWidthIpc)
{
    // All non-memory work: IPC should approach the 4-wide limit.
    VectorTraceSource trace(uniformTrace(1000, 99));
    FixedLatencyMemory mem;
    Core core(0, {}, trace, mem.fn());
    mem.core = &core;
    for (Cycle t = 0; !core.finished() && t < 10'000'000; t += kCpuTick) {
        mem.tick(t);
        core.tick(t);
    }
    EXPECT_TRUE(core.finished());
    EXPECT_GT(core.ipc(), 3.5);
    EXPECT_EQ(core.retired(), 1000u * 100);
}

TEST(Core, SlowMemoryReducesIpc)
{
    VectorTraceSource fast_trace(uniformTrace(500, 3));
    VectorTraceSource slow_trace(uniformTrace(500, 3));
    FixedLatencyMemory fast_mem{cpuCyclesToTicks(4), 0, {}};
    FixedLatencyMemory slow_mem{cpuCyclesToTicks(400), 0, {}};
    Core fast_core(0, {}, fast_trace, fast_mem.fn());
    Core slow_core(1, {}, slow_trace, slow_mem.fn());
    fast_mem.core = &fast_core;
    slow_mem.core = &slow_core;
    for (Cycle t = 0; t < 4'000'000; t += kCpuTick) {
        fast_mem.tick(t);
        slow_mem.tick(t);
        if (!fast_core.finished())
            fast_core.tick(t);
        if (!slow_core.finished())
            slow_core.tick(t);
    }
    ASSERT_TRUE(fast_core.finished());
    ASSERT_TRUE(slow_core.finished());
    EXPECT_GT(fast_core.ipc(), 2.0 * slow_core.ipc());
}

TEST(Core, WindowAllowsMemoryLevelParallelism)
{
    // With a 192-entry window and gap 3, many loads overlap: the core
    // must finish far faster than serialized loads would.
    const Cycle lat = cpuCyclesToTicks(100);
    VectorTraceSource trace(uniformTrace(400, 3));
    FixedLatencyMemory mem{lat, 0, {}};
    Core core(0, {}, trace, mem.fn());
    mem.core = &core;
    Cycle t = 0;
    for (; !core.finished() && t < 40'000'000; t += kCpuTick) {
        mem.tick(t);
        core.tick(t);
    }
    ASSERT_TRUE(core.finished());
    // Serialized: 400 × 100 cycles = 40000 cycles. Overlapped must be
    // at least 5× better.
    EXPECT_LT(core.cycles(), 8000u);
}

TEST(Core, StoresDoNotBlockRetirement)
{
    std::vector<TraceEntry> entries;
    for (int i = 0; i < 200; ++i)
        entries.push_back({3, static_cast<Addr>(i) * 64, true});
    VectorTraceSource trace(entries);
    // Memory never answers: stores must still retire.
    Core core(0, {}, trace, [](Addr, bool, unsigned) {});
    for (Cycle t = 0; !core.finished() && t < 1'000'000; t += kCpuTick)
        core.tick(t);
    EXPECT_TRUE(core.finished());
    EXPECT_EQ(core.retired(), 200u * 4);
}

TEST(Core, UnansweredLoadStallsForever)
{
    VectorTraceSource trace(uniformTrace(10, 0));
    Core core(0, {}, trace, [](Addr, bool, unsigned) {});
    for (Cycle t = 0; t < 100000; t += kCpuTick)
        core.tick(t);
    EXPECT_FALSE(core.finished());
    EXPECT_EQ(core.retired(), 0u); // head load never completes
}

TEST(Core, ResetStatsClearsCountersOnly)
{
    VectorTraceSource trace(uniformTrace(1000, 10));
    FixedLatencyMemory mem;
    Core core(0, {}, trace, mem.fn());
    mem.core = &core;
    for (Cycle t = 0; t < 100 * kCpuTick; t += kCpuTick) {
        mem.tick(t);
        core.tick(t);
    }
    EXPECT_GT(core.retired(), 0u);
    core.resetStats();
    EXPECT_EQ(core.retired(), 0u);
    EXPECT_EQ(core.cycles(), 0u);
    // Still able to continue executing.
    for (Cycle t = 100 * kCpuTick; t < 200 * kCpuTick; t += kCpuTick) {
        mem.tick(t);
        core.tick(t);
    }
    EXPECT_GT(core.retired(), 0u);
}

namespace
{

/**
 * Reference model: the straightforward ROB, one slot per instruction,
 * retiring and dispatching one slot at a time. The optimised Core must
 * match it cycle for cycle.
 */
class ReferenceCore
{
  public:
    ReferenceCore(const CoreConfig &cfg, TraceSource &trace,
                  Core::MemAccessFn mem)
        : cfg_(cfg), trace_(&trace), mem_(std::move(mem)),
          window_(cfg.robSize)
    {}

    void
    tick(Cycle now)
    {
        ++cycles;
        unsigned retired_now = 0;
        while (retired_now < cfg_.issueWidth && count_ > 0) {
            Slot &s = window_[head_];
            if (!s.done || s.doneAtTick > now) {
                if (s.isMem && s.isLoad)
                    ++robStallCycles;
                break;
            }
            head_ = (head_ + 1) % cfg_.robSize;
            --count_;
            ++retired;
            ++retired_now;
        }
        for (unsigned d = 0; d < cfg_.issueWidth; ++d) {
            if (count_ >= cfg_.robSize)
                break;
            if (!havePending_ && !traceDone_)
                refill();
            if (!havePending_ && gapLeft_ == 0)
                break;
            dispatchOne(now);
        }
    }

    void
    completeLoad(unsigned slot, Cycle done_tick)
    {
        window_[slot].done = true;
        window_[slot].doneAtTick = done_tick;
    }

    bool finished() const { return traceDone_ && count_ == 0; }

    std::uint64_t retired = 0, cycles = 0, loads = 0, stores = 0;
    std::uint64_t robStallCycles = 0;

  private:
    struct Slot
    {
        bool isMem = false;
        bool isLoad = false;
        bool done = true;
        Cycle doneAtTick = 0;
    };

    void
    refill()
    {
        if (trace_->next(pending_)) {
            havePending_ = true;
            gapLeft_ = pending_.gap;
        } else {
            traceDone_ = true;
        }
    }

    void
    dispatchOne(Cycle now)
    {
        const unsigned slot_index = tail_;
        Slot &slot = window_[tail_];
        tail_ = (tail_ + 1) % cfg_.robSize;
        ++count_;
        if (gapLeft_ > 0) {
            --gapLeft_;
            slot = Slot{};
            slot.doneAtTick = now;
            return;
        }
        slot.isMem = true;
        slot.isLoad = !pending_.isWrite;
        slot.done = !slot.isLoad;
        slot.doneAtTick = now;
        ++(slot.isLoad ? loads : stores);
        havePending_ = false;
        mem_(pending_.addr, pending_.isWrite,
             slot.isLoad ? slot_index : Core::kNoSlot);
    }

    CoreConfig cfg_;
    TraceSource *trace_;
    Core::MemAccessFn mem_;
    std::vector<Slot> window_;
    unsigned head_ = 0, tail_ = 0, count_ = 0;
    TraceEntry pending_{};
    std::uint32_t gapLeft_ = 0;
    bool havePending_ = false;
    bool traceDone_ = false;
};

/** How the memory answers the n-th load: synchronously (a hit whose
 *  data is ready @c delay cycles later) or by a callback @c delay
 *  cycles later (a miss). */
struct LoadAnswer
{
    bool sync;
    std::uint64_t delay;
};

/** Memory driven by a shared per-load answer script, so the reference
 *  and the optimised core see identical completions. */
struct ScriptedMemory
{
    const std::vector<LoadAnswer> *script = nullptr;
    std::function<void(unsigned, Cycle)> complete;
    Cycle now = 0;
    std::size_t nextLoad = 0;
    std::vector<std::pair<Cycle, unsigned>> pending; ///< (due, slot)

    Core::MemAccessFn
    fn()
    {
        return [this](Addr, bool, unsigned slot) {
            if (slot == Core::kNoSlot)
                return;
            const LoadAnswer &a = (*script)[nextLoad++ % script->size()];
            const Cycle due = now + a.delay * kCpuTick;
            if (a.sync)
                complete(slot, due);
            else
                pending.emplace_back(due, slot);
        };
    }

    /** Fire every callback due at or before @p t. */
    void
    fire(Cycle t)
    {
        for (std::size_t i = 0; i < pending.size();) {
            if (pending[i].first <= t) {
                complete(pending[i].second, pending[i].first);
                pending[i] = pending.back();
                pending.pop_back();
            } else {
                ++i;
            }
        }
    }

    Cycle
    nextDue() const
    {
        Cycle d = kCycleMax;
        for (const auto &p : pending)
            d = std::min(d, p.first);
        return d;
    }
};

std::map<std::string, std::uint64_t>
coreCounters(Core &core)
{
    struct Collect : StatVisitor
    {
        std::map<std::string, std::uint64_t> values;
        void
        onCounter(const std::string &name, const Counter &c,
                  const std::string &) override
        {
            values[name.substr(name.rfind('.') + 1)] = c.value();
        }
    } collect;
    core.stats().visit(collect);
    return collect.values;
}

/** Drive one random trace through Core (ticks, bursts and skips, as
 *  the event engine does) and ReferenceCore (ticks only); compare all
 *  counters after every step. */
void
runOracle(const CoreConfig &cfg, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<TraceEntry> entries;
    for (int i = 0; i < 600; ++i) {
        entries.push_back({static_cast<std::uint32_t>(rng.nextRange(0, 20)),
                           rng.nextBelow(1 << 20) * 64,
                           rng.nextBelow(4) == 0});
    }
    std::vector<LoadAnswer> script;
    for (int i = 0; i < 97; ++i) {
        const bool sync = rng.nextBelow(2) == 0;
        script.push_back({sync, sync ? rng.nextRange(0, 6)
                                     : rng.nextRange(1, 300)});
    }

    VectorTraceSource dut_trace(entries), ref_trace(entries);
    ScriptedMemory dut_mem, ref_mem;
    dut_mem.script = ref_mem.script = &script;
    Core dut(0, cfg, dut_trace, dut_mem.fn());
    ReferenceCore ref(cfg, ref_trace, ref_mem.fn());
    dut_mem.complete = [&](unsigned s, Cycle t) { dut.completeLoad(s, t); };
    ref_mem.complete = [&](unsigned s, Cycle t) { ref.completeLoad(s, t); };

    auto ref_tick = [&](Cycle t) {
        ref_mem.now = t;
        ref_mem.fire(t);
        ref.tick(t);
    };
    auto expect_equal = [&](Cycle t, const char *step) {
        auto c = coreCounters(dut);
        ASSERT_EQ(c["retired"], ref.retired) << step << " @" << t;
        ASSERT_EQ(c["cycles"], ref.cycles) << step << " @" << t;
        ASSERT_EQ(c["loads"], ref.loads) << step << " @" << t;
        ASSERT_EQ(c["stores"], ref.stores) << step << " @" << t;
        ASSERT_EQ(c["robStallCycles"], ref.robStallCycles)
            << step << " @" << t;
        ASSERT_EQ(dut.finished(), ref.finished()) << step << " @" << t;
    };

    Cycle t = 0;
    bool ticked = false;
    for (int step = 0; step < 200000 && !ref.finished(); ++step) {
        const std::uint64_t action = rng.nextBelow(4);
        // Bursts and skips may not cross a pending memory callback.
        const Cycle due = dut_mem.nextDue();
        const std::uint64_t free_cycles =
            due <= t ? 0 : (due - t + kCpuTick - 1) / kCpuTick;
        if (action == 1 && free_cycles > 0) {
            const std::uint64_t max_cycles =
                std::min<std::uint64_t>(free_cycles, rng.nextRange(1, 64));
            const InstCount cap = rng.nextBelow(2)
                                      ? rng.nextRange(1, 400)
                                      : InstCount{kCycleMax};
            const std::uint64_t n =
                dut.burstCycles(t, max_cycles, cap, /*apply=*/false);
            ASSERT_EQ(dut.burstCycles(t, n, cap, /*apply=*/true), n);
            for (std::uint64_t j = 0; j < n; ++j)
                ref_tick(t + j * kCpuTick);
            t += n * kCpuTick;
            ASSERT_NO_FATAL_FAILURE(expect_equal(t, "burst"));
            continue;
        }
        if (action == 2 && ticked && free_cycles > 0) {
            const Cycle h = dut.nextEventTick(t - kCpuTick);
            const Cycle stop = std::min(h, due);
            if (stop > t) {
                const std::uint64_t n = std::min<std::uint64_t>(
                    (stop - t + kCpuTick - 1) / kCpuTick,
                    rng.nextRange(1, 500));
                dut.skipCycles(n);
                for (std::uint64_t j = 0; j < n; ++j)
                    ref_tick(t + j * kCpuTick);
                t += n * kCpuTick;
                ASSERT_NO_FATAL_FAILURE(expect_equal(t, "skip"));
                continue;
            }
        }
        dut_mem.now = t;
        dut_mem.fire(t);
        dut.tick(t);
        ref_tick(t);
        ticked = true;
        t += kCpuTick;
        ASSERT_NO_FATAL_FAILURE(expect_equal(t, "tick"));
    }
    EXPECT_TRUE(ref.finished());
}

} // namespace

TEST(CoreOracle, MatchesPerSlotReferenceUnderTicksBurstsAndSkips)
{
    const CoreConfig configs[] = {{4, 192}, {3, 7}, {2, 9}, {4, 3}};
    for (const CoreConfig &cfg : configs) {
        for (std::uint64_t seed = 1; seed <= 12; ++seed) {
            SCOPED_TRACE("width " + std::to_string(cfg.issueWidth) +
                         " rob " + std::to_string(cfg.robSize) +
                         " seed " + std::to_string(seed));
            ASSERT_NO_FATAL_FAILURE(runOracle(cfg, seed));
        }
    }
}

TEST(VectorTraceSource, LoopsWhenRequested)
{
    VectorTraceSource t({{1, 64, false}}, /*loop=*/true);
    TraceEntry e;
    for (int i = 0; i < 10; ++i)
        ASSERT_TRUE(t.next(e));
}

TEST(VectorTraceSource, ResetRestarts)
{
    VectorTraceSource t({{1, 64, false}, {2, 128, true}});
    TraceEntry e;
    ASSERT_TRUE(t.next(e));
    ASSERT_TRUE(t.next(e));
    ASSERT_FALSE(t.next(e));
    t.reset();
    ASSERT_TRUE(t.next(e));
    EXPECT_EQ(e.addr, 64u);
}
