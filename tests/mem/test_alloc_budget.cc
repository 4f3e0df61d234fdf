/**
 * @file
 * Allocation budget of the LLC-miss path. This binary replaces the
 * global operator new with a counting one and asserts that, once warm,
 * the per-miss cycles of the MSHR file, the DAS manager's retry loop,
 * row footprint and promotions, and the DRAM system's submit →
 * completion path make no heap allocation (beyond the MemRequest each
 * DRAM access carries). It is its own executable so the replacement
 * touches no other test.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "cache/mshr.hh"
#include "core/das_manager.hh"
#include "dram/dram_system.hh"

namespace
{

std::atomic<std::size_t> g_allocations{0};

void *
countedAlloc(std::size_t n)
{
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

/** Heap allocations made by @p fn. */
template <typename Fn>
std::size_t
allocationsIn(Fn &&fn)
{
    const std::size_t before = g_allocations.load();
    fn();
    return g_allocations.load() - before;
}

} // namespace

void *operator new(std::size_t n) { return countedAlloc(n); }
void *operator new[](std::size_t n) { return countedAlloc(n); }
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }

using namespace dasdram;

TEST(AllocBudget, CounterSeesAllocations)
{
    EXPECT_EQ(allocationsIn([] { auto p = std::make_unique<int>(1); }), 1u);
}

/** allocate → two waiters → complete, repeated over the whole table. */
TEST(AllocBudget, MshrMissCycleIsAllocationFree)
{
    constexpr unsigned kCapacity = 8;
    MshrFile m(kCapacity);
    std::uint64_t woken = 0;
    m.setDispatcher(
        [&woken](const Continuation &, Addr, Cycle) { ++woken; });
    auto cycles = [&m](unsigned n) {
        for (unsigned i = 0; i < n; ++i) {
            const Addr line = static_cast<Addr>(i % kCapacity) * 64;
            m.allocate(line);
            m.addWaiter(line, Continuation::coreLoad(0, 2 * i));
            m.addWaiter(line, Continuation::coreLoad(0, 2 * i + 1));
            m.complete(line, i);
        }
    };
    cycles(2 * kCapacity); // warm: slots and waiter buffers grown
    EXPECT_EQ(allocationsIn([&] { cycles(1000); }), 0u);
    EXPECT_EQ(woken, 2u * (1000 + 2 * kCapacity));
}

/** DasManager::tick re-queueing accesses that find the channel full. */
TEST(AllocBudget, DasManagerRetryTickIsAllocationFree)
{
    DramGeometry geom;
    DramTiming timing = ddr3_1600Timing();
    AsymmetricLayout layout(geom, {});
    DramSystem dram(geom, timing, layout);
    DasConfig cfg;
    cfg.mode = ManagementMode::None; // no table walks: no caches needed
    DasManager mgr(dram, nullptr, layout, cfg);

    // Fill channel 0's read queue without ever ticking the DRAM, so
    // every further access waits in the manager's retry list.
    Addr addr = 0;
    auto access_channel0 = [&] {
        while (dram.decode(addr).channel != 0)
            addr += geom.lineBytes;
        mgr.access(addr, false, 0, Continuation{}, 0);
        addr += geom.lineBytes;
    };
    while (!mgr.busy())
        access_channel0();
    for (unsigned i = 0; i < 4; ++i)
        access_channel0();
    Cycle now = 0;
    auto ticks = [&](unsigned n) {
        for (unsigned i = 0; i < n; ++i)
            mgr.tick(now += kCpuTick);
    };
    ticks(4);
    EXPECT_EQ(allocationsIn([&] { ticks(1000); }), 0u);
    EXPECT_TRUE(mgr.busy());
}

/** DramSystem::submit → tick → completion for reads and writes. */
TEST(AllocBudget, DramSubmitToCompletionIsAllocationFree)
{
    DramGeometry geom;
    DramTiming timing = ddr3_1600Timing();
    UniformRowClassifier slow(RowClass::Slow);
    DramSystem dram(geom, timing, slow);
    std::uint64_t completed = 0;
    Cycle now = 0;

    // Requests are built before the counted window: the caller's
    // MemRequest is the one allocation the path keeps.
    auto make = [&](unsigned n, std::uint64_t first) {
        std::vector<std::unique_ptr<MemRequest>> reqs;
        for (unsigned i = 0; i < n; ++i) {
            const Addr a = (first + i) * 4099 * geom.lineBytes;
            auto req = std::make_unique<MemRequest>(a, i % 4 == 3, 0);
            req->loc = dram.decode(a);
            req->onComplete = [&completed](MemRequest &, Cycle) {
                ++completed;
            };
            reqs.push_back(std::move(req));
        }
        return reqs;
    };
    auto drive = [&](std::vector<std::unique_ptr<MemRequest>> &reqs) {
        const std::uint64_t target = completed + reqs.size();
        std::size_t next = 0;
        while (completed < target) {
            while (next < reqs.size() &&
                   dram.canAccept(reqs[next]->loc, reqs[next]->isWrite))
                dram.submit(std::move(reqs[next++]), now);
            now += kCpuTick;
            dram.tick(now);
        }
    };
    // Warm until the controllers' queues and in-flight lists have
    // grown to their peak occupancy under this traffic.
    for (std::uint64_t round = 0; round < 4; ++round) {
        auto warm = make(2000, 2000 * round);
        drive(warm);
    }
    auto measured = make(2000, 8000);
    EXPECT_EQ(allocationsIn([&] { drive(measured); }), 0u);
    EXPECT_EQ(completed, 10000u);
}

namespace
{

/** Drive @p mgr and @p dram one memory cycle at a time until @p done. */
template <typename Done>
void
runUntil(DasManager &mgr, DramSystem &dram, Cycle &now, Done &&done)
{
    while (!done()) {
        now += kMemTick;
        mgr.tick(now);
        dram.tick(now);
    }
}

} // namespace

/**
 * The footprint set after the warm-up reset: touching the same rows
 * again refills it without allocating (the reset keeps its table).
 */
TEST(AllocBudget, DasFootprintAfterWarmResetIsAllocationFree)
{
    constexpr unsigned kRows = 500;
    DramGeometry geom;
    DramTiming timing = ddr3_1600Timing();
    AsymmetricLayout layout(geom, {});
    DramSystem dram(geom, timing, layout);
    DasConfig cfg;
    cfg.mode = ManagementMode::None; // no table walks: no caches needed
    DasManager mgr(dram, nullptr, layout, cfg);
    std::uint64_t completed = 0;
    mgr.setCompletionHook(
        [&completed](const Continuation &, Cycle) { ++completed; });
    Cycle now = 0;

    // One access per row, each run to completion, so no queue or
    // retry buffer grows inside the counted window.
    auto touch_rows = [&] {
        for (unsigned r = 0; r < kRows; ++r) {
            const std::uint64_t target = completed + 1;
            mgr.access(static_cast<Addr>(r) * geom.rowBytes, false, 0,
                       Continuation{}, now);
            runUntil(mgr, dram, now,
                     [&] { return completed == target; });
        }
    };
    touch_rows();
    ASSERT_EQ(mgr.footprintRows(), kRows);
    mgr.resetStats();
    ASSERT_EQ(mgr.footprintRows(), 0u);
    // kRows allocations: each access's MemRequest, nothing else.
    EXPECT_EQ(allocationsIn(touch_rows), kRows);
    EXPECT_EQ(mgr.footprintRows(), kRows);
}

/**
 * Promote → swap → swap done, over and over: the in-flight swap set,
 * the controller's migration queue and the job's callback reuse their
 * storage.
 */
TEST(AllocBudget, DasPromotionCycleIsAllocationFree)
{
    DramGeometry geom;
    DramTiming timing = ddr3_1600Timing();
    AsymmetricLayout layout(geom, {});
    DramSystem dram(geom, timing, layout);
    CacheHierarchy caches(1, HierarchyConfig{{1 * KiB, 2, 64},
                                             {4 * KiB, 4, 64},
                                             {16 * KiB, 8, 64},
                                             4,
                                             12,
                                             20});
    DasManager mgr(dram, &caches, layout, DasConfig{});
    std::uint64_t completed = 0;
    mgr.setCompletionHook(
        [&completed](const Continuation &, Cycle) { ++completed; });
    Cycle now = 0;

    // Eight slow rows of one migration group, accessed round-robin:
    // seven promotions separate two accesses to the same row, so it
    // has always been swapped back out and every access promotes.
    std::vector<Addr> rows;
    for (std::uint64_t row = 0; rows.size() < 8; ++row) {
        if (layout.classify(0, 0, 0, row) == RowClass::Slow)
            rows.push_back(dram.mapper().encode(DramLoc{0, 0, 0, row, 0}));
    }
    auto promote = [&](unsigned n) {
        for (unsigned i = 0; i < n; ++i) {
            const std::uint64_t target = completed + 1;
            mgr.access(rows[i % rows.size()], false, 0,
                       Continuation::coreLoad(0, i), now);
            runUntil(mgr, dram, now, [&] {
                return completed == target && !dram.busy();
            });
        }
    };
    promote(64); // warm: table lines cached, containers grown
    const std::uint64_t before = mgr.promotions();
    constexpr unsigned kCycles = 200;
    // kCycles allocations: each access's MemRequest, nothing else.
    EXPECT_EQ(allocationsIn([&] { promote(kCycles); }), kCycles);
    EXPECT_EQ(mgr.promotions() - before, kCycles);
}
