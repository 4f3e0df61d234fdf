/**
 * @file
 * Allocation budget of the LLC-miss path. This binary replaces the
 * global operator new with a counting one and asserts that, once warm,
 * the per-miss cycles of the MSHR file, the DAS manager's retry loop
 * and the DRAM system's submit → completion path make no heap
 * allocation (beyond the MemRequest a caller hands in). It is its own
 * executable so the replacement touches no other test.
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
