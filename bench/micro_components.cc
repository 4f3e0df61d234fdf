/**
 * @file
 * google-benchmark microbenchmarks of the simulator's hot components:
 * address decode, translation table/cache operations, cache lookups,
 * trace generation, the MSHR miss cycle, one DRAM request's submit →
 * completion, the DRAM clock when idle and under a deferred swap, and
 * raw DRAM command throughput. These guard the
 * simulator's own performance (it must sustain millions of memory
 * operations per second to make the figure sweeps practical).
 */

#include <benchmark/benchmark.h>

#include <memory>

#include "cache/cache.hh"
#include "cache/mshr.hh"
#include "core/translation_cache.hh"
#include "cpu/core.hh"
#include "core/translation_table.hh"
#include "dram/address_mapping.hh"
#include "dram/controller.hh"
#include "dram/dram_system.hh"
#include "mem/clock.hh"
#include "workload/spec_profiles.hh"
#include "workload/synth_trace.hh"

using namespace dasdram;

static void
BM_AddressDecode(benchmark::State &state)
{
    DramGeometry g;
    AddressMapper m(g);
    Addr a = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(m.decode(a));
        a += 64 * 1021;
    }
}
BENCHMARK(BM_AddressDecode);

static void
BM_TranslationTableLookup(benchmark::State &state)
{
    DramGeometry g;
    AsymmetricLayout l(g, {});
    TranslationTable t(l);
    GlobalRowId r = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(t.physicalOf(r));
        r = (r + 12345) % g.totalRows();
    }
}
BENCHMARK(BM_TranslationTableLookup);

static void
BM_TranslationTableSwap(benchmark::State &state)
{
    DramGeometry g;
    AsymmetricLayout l(g, {});
    TranslationTable t(l);
    std::uint64_t i = 0;
    for (auto _ : state) {
        std::uint64_t grp = i % l.totalGroups();
        t.swap(grp * 32 + (i % 32), grp * 32 + ((i * 7) % 32));
        ++i;
    }
}
BENCHMARK(BM_TranslationTableSwap);

static void
BM_TranslationCacheLookup(benchmark::State &state)
{
    TranslationCache tc(static_cast<std::uint64_t>(state.range(0)), 8);
    for (GlobalRowId r = 0; r < 10000; ++r)
        tc.insert(r);
    GlobalRowId r = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(tc.lookup(r % 20000));
        r += 37;
    }
}
BENCHMARK(BM_TranslationCacheLookup)
    ->Arg(32 * 1024)
    ->Arg(128 * 1024)
    ->Arg(256 * 1024);

static void
BM_CacheAccess(benchmark::State &state)
{
    Cache c({4 * MiB, 8, 64}, "llc");
    for (Addr a = 0; a < 4 * MiB; a += 64)
        c.insert(a, false);
    Addr a = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(c.access(a, false));
        a = (a + 64 * 999) % (8 * MiB);
    }
}
BENCHMARK(BM_CacheAccess);

/** LLC lookups of random lines over twice its capacity (about half
 *  miss and refill, as under a memory-bound workload): the tag scan's
 *  host-cache footprint dominates. */
static void
BM_CacheAccessRandomLlc(benchmark::State &state)
{
    Cache c({4 * MiB, 8, 64}, "llc");
    for (Addr a = 0; a < 4 * MiB; a += 64)
        c.insert(a, false);
    std::uint64_t x = 88172645463325252ull; // xorshift64 state
    for (auto _ : state) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        const Addr a = (x % (8 * MiB / 64)) * 64;
        if (!c.access(a, false))
            benchmark::DoNotOptimize(c.insert(a, false));
    }
}
BENCHMARK(BM_CacheAccessRandomLlc);

/** One core running the cactusADM profile against ideal memory (every
 *  load completes on dispatch): the ROB retire/dispatch path alone. */
static void
BM_CoreTickComputeBound(benchmark::State &state)
{
    SyntheticTrace trace(specProfile("cactusADM"), 42);
    Core *core_ptr = nullptr;
    Cycle now = 0;
    Core core(0, {}, trace, [&](Addr, bool, unsigned slot) {
        if (slot != Core::kNoSlot)
            core_ptr->completeLoad(slot, now);
    });
    core_ptr = &core;
    for (auto _ : state) {
        core.tick(now);
        now += kCpuTick;
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(core.retired()));
}
BENCHMARK(BM_CoreTickComputeBound);

// Time per trace record: the gap draw (table lookup), the pattern
// pick and the write coin. cactusADM is the compute-bound profile
// whose runs spend the largest share of host time here.
static void
BM_SyntheticTraceNext(benchmark::State &state, const char *profile)
{
    SyntheticTrace t(specProfile(profile), 42);
    TraceEntry e;
    for (auto _ : state) {
        t.next(e);
        benchmark::DoNotOptimize(e.addr);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK_CAPTURE(BM_SyntheticTraceNext, cactusADM, "cactusADM");
BENCHMARK_CAPTURE(BM_SyntheticTraceNext, mcf, "mcf");

static void
BM_ControllerRowHitThroughput(benchmark::State &state)
{
    DramGeometry g;
    DramTiming t = ddr3_1600Timing();
    UniformRowClassifier cls(RowClass::Slow);
    ControllerConfig cfg;
    cfg.refreshEnabled = false;
    auto ctrl = std::make_unique<ChannelController>(0, g, t, cls, cfg);
    Cycle now = 0;
    std::uint64_t col = 0;
    for (auto _ : state) {
        if (ctrl->canAccept(false)) {
            auto req = std::make_unique<MemRequest>(col * 64, false, 0);
            req->loc = DramLoc{0, 0, 0, 7, col % 128};
            ctrl->enqueue(std::move(req), now);
            ++col;
        }
        ctrl->tick(now++);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(ctrl->readCount()));
}
BENCHMARK(BM_ControllerRowHitThroughput);

/** One LLC miss through the MSHR file: allocate, two coalesced
 *  waiters, complete — with half of a one-core file (32 entries by
 *  default) outstanding, so the line lookups scan a busy table. */
static void
BM_MshrMissCycle(benchmark::State &state)
{
    constexpr unsigned kCapacity = 32;
    MshrFile m(kCapacity);
    std::uint64_t woken = 0;
    m.setDispatcher(
        [&woken](const Continuation &, Addr, Cycle) { ++woken; });
    for (unsigned i = 0; i < kCapacity / 2; ++i)
        m.allocate((1000 + i) * 64);
    Addr line = 0;
    Cycle now = 0;
    for (auto _ : state) {
        m.allocate(line);
        m.addWaiter(line, Continuation::coreLoad(0, 1));
        m.addWaiter(line, Continuation::coreLoad(0, 2));
        m.complete(line, ++now);
        line = (line + 64) % (64 * 64);
    }
    benchmark::DoNotOptimize(woken);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MshrMissCycle);

/** One read through the DRAM system: build the request, submit it and
 *  tick the memory clock until its completion callback fires. Rows
 *  alternate between hits and conflicts across the banks. */
static void
BM_DramSubmitComplete(benchmark::State &state)
{
    DramGeometry g;
    DramTiming t = ddr3_1600Timing();
    UniformRowClassifier cls(RowClass::Slow);
    DramSystem dram(g, t, cls);
    Cycle now = 0;
    Addr addr = 0;
    bool done = false;
    for (auto _ : state) {
        auto req = std::make_unique<MemRequest>(addr, false, 0);
        req->loc = dram.decode(addr);
        req->onComplete = [&done](MemRequest &, Cycle) { done = true; };
        done = false;
        dram.submit(std::move(req), now);
        while (!done) {
            now += kMemTick;
            dram.tick(now);
        }
        addr += 64 * 1021;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DramSubmitComplete);

/** The DRAM system's clock between requests: one tick() per CPU cycle
 *  with both channels empty and refresh on, as a compute-bound core
 *  drives it. */
static void
BM_DramIdleTick(benchmark::State &state)
{
    DramGeometry g;
    DramTiming t = ddr3_1600Timing();
    UniformRowClassifier cls(RowClass::Slow);
    DramSystem dram(g, t, cls);
    Cycle now = 0;
    for (auto _ : state) {
        now += kCpuTick;
        dram.tick(now);
    }
    benchmark::DoNotOptimize(dram.busy());
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DramIdleTick);

/** One memory cycle of a loaded channel with a swap queued behind
 *  demand: reads keep channel 0's queue full of row conflicts inside
 *  the swap's migration group, so the swap defers to them until its
 *  budget runs out, runs, and is queued again when it finishes. */
static void
BM_DramMigrationPending(benchmark::State &state)
{
    DramGeometry g;
    DramTiming t = ddr3_1600Timing();
    UniformRowClassifier cls(RowClass::Slow);
    DramSystem dram(g, t, cls);
    bool swap_done = true;
    Cycle now = 0;
    std::uint64_t n = 0;
    for (auto _ : state) {
        if (swap_done) {
            swap_done = false;
            dram.startMigration(0, 0, 0, 20, 1, true, 0, 32,
                                [&swap_done](Cycle) { swap_done = true; });
        }
        const DramLoc loc{0, 0, 0, 4 + n % 16, n % 128};
        if (dram.canAccept(loc, false)) {
            auto req = std::make_unique<MemRequest>(n * 64, false, 0);
            req->loc = loc;
            dram.submit(std::move(req), now);
            ++n;
        }
        now += kMemTick;
        dram.tick(now);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DramMigrationPending);

BENCHMARK_MAIN();
