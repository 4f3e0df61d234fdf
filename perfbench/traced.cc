/**
 * @file
 * The traced run. Host time per layer is measured around the calls the
 * benchmark makes into each layer's public functions:
 *
 *  - live, at the seams System exposes: a TraceSource decorator
 *    (workload), a timing CommandSink in front of a benchmark-owned
 *    ProtocolChecker (checker) and a RequestTraceSink receiving every
 *    request span at rate 1.0 (mem);
 *  - by replay, where System exposes no seam: the captured records,
 *    request spans and migration commands are fed into fresh
 *    standalone Core + CacheHierarchy + MshrFile (cpu, cache),
 *    DasManager (core) and DramSystem (dram) instances.
 *
 * Counts and ratios come from the stats tree of an untraced run and
 * repeat exactly; the replays only provide host time.
 */

#include <algorithm>
#include <fstream>
#include <functional>
#include <memory>
#include <queue>
#include <sstream>

#include "common/log.hh"
#include "common/strfmt.hh"
#include "dram/protocol_checker.hh"
#include "perfbench/perfbench.hh"
#include "workload/workload_spec.hh"

namespace perfbench
{

using namespace dasdram;

namespace
{

/** Times every TraceSource::next call and keeps the records. */
class TimedTrace : public TraceSource
{
  public:
    TimedTrace(TraceSource &inner, BusyTimer &timer,
               std::vector<TraceEntry> &records)
        : inner_(&inner), timer_(&timer), records_(&records)
    {}

    bool
    next(TraceEntry &out) override
    {
        timer_->start();
        bool ok = inner_->next(out);
        timer_->stop();
        if (ok)
            records_->push_back(out);
        return ok;
    }

    void
    reset() override
    {
        inner_->reset();
        records_->clear();
    }

  private:
    TraceSource *inner_;
    BusyTimer *timer_;
    std::vector<TraceEntry> *records_;
};

/** Times the protocol checker behind the command seam and keeps the
 *  MIGRATE records for the DRAM replay. */
class TimedChecker : public CommandSink
{
  public:
    TimedChecker(ProtocolChecker &checker, BusyTimer &timer,
                 std::vector<CmdRecord> &migrations)
        : checker_(&checker), timer_(&timer), migrations_(&migrations)
    {}

    void
    onCommand(const CmdRecord &rec) override
    {
        timer_->start();
        checker_->onCommand(rec);
        timer_->stop();
        if (rec.cmd == DramCommand::MIGRATE)
            migrations_->push_back(rec);
    }

  private:
    ProtocolChecker *checker_;
    BusyTimer *timer_;
    std::vector<CmdRecord> *migrations_;
};

/** Keeps every completed request span. */
class SpanCapture : public RequestTraceSink
{
  public:
    explicit SpanCapture(std::vector<RequestSpan> &spans) : spans_(&spans)
    {}

    void onSpan(const RequestSpan &span) override { spans_->push_back(span); }

  private:
    std::vector<RequestSpan> *spans_;
};

/** Everything the live traced run measured and captured. */
struct Capture
{
    std::vector<std::vector<TraceEntry>> records; ///< per core
    std::vector<RequestSpan> spans;               ///< completion order
    std::vector<CmdRecord> migrations;
    BusyTimer workload, checker;
    std::uint64_t commands = 0;
    std::uint64_t violations = 0;
    double wallS = 0.0;
    std::string failure;
};

Capture
liveTracedRun(SimConfig cfg, const WorkloadSpec &spec)
{
    Capture cap;
    const double t0 = nowSeconds();
    cfg.protocolCheck = false; // the benchmark's checker sits behind
                               // the timing sink instead
    cfg.obs.traceRequests = 1.0;
    auto traces =
        buildTraces(spec, cfg.seed, cfg.geom.rowBytes, cfg.geom.lineBytes);
    cap.records.resize(cfg.numCores);
    std::vector<std::unique_ptr<TimedTrace>> timed;
    std::vector<TraceSource *> ptrs;
    for (unsigned c = 0; c < cfg.numCores; ++c) {
        timed.push_back(std::make_unique<TimedTrace>(
            *traces[c], cap.workload, cap.records[c]));
        ptrs.push_back(timed.back().get());
    }
    System sys(cfg, ptrs);
    ProtocolChecker checker(
        cfg.geom, ddr3_1600Timing(designSpec(cfg.design).charmColumnOpt),
        &sys.layout());
    TimedChecker sink(checker, cap.checker, cap.migrations);
    SpanCapture spans(cap.spans);
    sys.dram().setCommandSink(&sink);
    sys.dram().setRequestTraceSink(&spans);
    RunMetrics m = sys.run();
    std::ostringstream os;
    sys.writeStatsJsonl(os);
    cap.wallS = nowSeconds() - t0;

    cap.commands = checker.commandCount();
    cap.violations = checker.violationCount();
    if (cap.violations > 0)
        cap.failure = formatStr("protocol checker: {} violation(s); "
                                "first: {}",
                                cap.violations, checker.firstViolation());
    const InstCount measured =
        cfg.instructionsPerCore - cfg.warmupInstructions();
    if (cap.failure.empty() && m.instructions < measured * cfg.numCores)
        cap.failure = formatStr("stopped at {} instructions",
                                m.instructions);
    return cap;
}

/** First multiple of kCpuTick at or after @p t. */
Cycle
roundUpToCpuTick(Cycle t)
{
    return (t + kCpuTick - 1) / kCpuTick * kCpuTick;
}

/** Seconds two clock reads cost the code around a timed section. */
double
pairCost(const BusyTimer &t)
{
    return 2.0 * BusyTimer::overheadSeconds() *
           static_cast<double>(t.calls());
}

struct CpuCacheReplay
{
    double cpuS = 0.0;
    double cacheS = 0.0;
    std::uint64_t instructions = 0;
    std::uint64_t accesses = 0;
};

/**
 * Replay each core's captured records through standalone Core
 * instances whose accesses go to a standalone CacheHierarchy and
 * MshrFile; memory below the LLC answers after @p miss_ticks (the live
 * run's median demand-miss latency). Cache time is the timed
 * access/fill/MSHR calls; core time is the replay loop minus them.
 */
CpuCacheReplay
replayCpuCache(const SimConfig &cfg, const Capture &cap, Cycle miss_ticks)
{
    const auto n = static_cast<unsigned>(cap.records.size());
    CacheHierarchy caches(n, cfg.caches, cfg.seed);
    MshrFile mshrs(cfg.mshrsPerCore * n);
    const CacheHierarchy::WritebackSink drop_writebacks = [](Addr) {};
    std::vector<Continuation> wakeups;
    mshrs.setDispatcher([&wakeups](const Continuation &c, Addr, Cycle) {
        wakeups.push_back(c);
    });

    struct Event
    {
        Cycle at;
        std::uint64_t seq;
        bool fill; ///< false: the miss reaches the MSHRs
        unsigned core;
        unsigned slot;
        Addr line;
        bool isWrite;
        bool operator>(const Event &o) const
        {
            return at != o.at ? at > o.at : seq > o.seq;
        }
    };
    std::priority_queue<Event, std::vector<Event>, std::greater<Event>>
        events;
    std::uint64_t seq = 0;

    CpuCacheReplay out;
    BusyTimer cache;
    Cycle now = 0;
    std::vector<std::unique_ptr<VectorTraceSource>> traces;
    std::vector<std::unique_ptr<Core>> cores;
    for (unsigned c = 0; c < n; ++c) {
        traces.push_back(
            std::make_unique<VectorTraceSource>(cap.records[c]));
        const Addr base = cfg.coreBase(c);
        cores.push_back(std::make_unique<Core>(
            static_cast<int>(c), cfg.core, *traces.back(),
            [&, c, base](Addr a, bool w, unsigned slot) {
                cache.start();
                CacheAccessResult r =
                    caches.access(c, a + base, w, drop_writebacks);
                cache.stop();
                ++out.accesses;
                if (r.level != HitLevel::Miss) {
                    if (slot != Core::kNoSlot)
                        cores[c]->completeLoad(slot, now + r.latencyTicks);
                    return;
                }
                events.push({now + r.latencyTicks, seq++, false, c, slot,
                             r.lineAddr, w});
            }));
    }

    const double t0 = nowSeconds();
    for (;;) {
        now += kCpuTick;
        while (!events.empty() && events.top().at <= now) {
            Event ev = events.top();
            events.pop();
            cache.start();
            if (ev.fill) {
                caches.fill(ev.core, ev.line, ev.isWrite, drop_writebacks);
                mshrs.complete(ev.line, now);
            } else if (mshrs.outstanding(ev.line) || !mshrs.full()) {
                if (!mshrs.outstanding(ev.line)) {
                    mshrs.allocate(ev.line);
                    events.push({now + miss_ticks, seq++, true, ev.core,
                                 Core::kNoSlot, ev.line, ev.isWrite});
                }
                mshrs.addWaiter(ev.line,
                                ev.slot != Core::kNoSlot
                                    ? Continuation::coreLoad(ev.core,
                                                             ev.slot)
                                    : Continuation{});
            } else {
                ev.at = now + kCpuTick; // MSHRs full: retry
                ev.seq = seq++;
                events.push(ev);
            }
            cache.stop();
        }
        for (const Continuation &w : wakeups)
            if (w.kind == Continuation::Kind::CoreLoad)
                cores[w.core]->completeLoad(w.slot, now);
        wakeups.clear();
        bool all_done = events.empty();
        for (auto &core : cores) {
            if (!core->finished()) {
                core->tick(now);
                all_done = false;
            }
        }
        if (all_done)
            break;
    }
    const double loop = nowSeconds() - t0;
    out.cacheS = cache.seconds();
    out.cpuS = std::max(0.0, loop - out.cacheS - pairCost(cache));
    for (auto &core : cores)
        out.instructions += core->retired();
    return out;
}

/** The standalone memory side of one configuration. */
struct MemorySide
{
    explicit MemorySide(const SimConfig &cfg)
        : spec(designSpec(cfg.design)), layout(cfg.geom, cfg.layout),
          dram(cfg.geom, ddr3_1600Timing(spec.charmColumnOpt), layout,
               [&cfg] {
                   ControllerConfig ctrl = cfg.ctrl;
                   ctrl.histograms = cfg.obs.histograms;
                   return ctrl;
               }())
    {}

    const DesignSpec &spec;
    AsymmetricLayout layout;
    DramSystem dram;
};

struct LayerReplay
{
    double busyS = 0.0;
    std::uint64_t calls = 0; ///< requests/accesses replayed
    std::uint64_t rejects = 0;
};

/**
 * Replay the LLC-miss stream (every non-walk span, in creation order,
 * at its miss tick) into a standalone DasManager over a standalone
 * DramSystem, timing only the DasManager calls.
 */
LayerReplay
replayDas(const SimConfig &cfg, const std::vector<RequestSpan> &spans)
{
    std::vector<const RequestSpan *> misses;
    for (const RequestSpan &s : spans)
        if (!s.isTableWalk)
            misses.push_back(&s);
    std::sort(misses.begin(), misses.end(),
              [](const RequestSpan *a, const RequestSpan *b) {
                  return a->sampleId < b->sampleId;
              });

    MemorySide mem(cfg);
    CacheHierarchy caches(cfg.numCores, cfg.caches, cfg.seed);
    DasConfig dcfg = cfg.das;
    dcfg.mode = mem.spec.mode;
    dcfg.zeroMigrationLatency = mem.spec.zeroMigrationLatency;
    dcfg.llcLatencyTicks = cpuCyclesToTicks(cfg.caches.llcLatencyCpu);
    DasManager das(mem.dram, &caches, mem.layout, dcfg);
    das.setCompletionHook([](const Continuation &, Cycle) {});

    LayerReplay out;
    BusyTimer timer;
    std::size_t i = 0;
    Cycle now = misses.empty() ? 0 : roundUpToCpuTick(misses[0]->missTick);
    while (i < misses.size() || das.busy() || mem.dram.busy()) {
        for (; i < misses.size() && misses[i]->missTick <= now; ++i) {
            const RequestSpan &s = *misses[i];
            Continuation cont =
                s.core >= 0 ? Continuation::demandFill(
                                  static_cast<std::uint32_t>(s.core),
                                  s.addr, false)
                            : Continuation{};
            timer.start();
            das.access(s.addr, s.isWrite, s.core, cont, now);
            timer.stop();
            ++out.calls;
        }
        timer.start();
        das.tick(now);
        timer.stop();
        mem.dram.tick(now);
        Cycle next = i < misses.size() ? misses[i]->missTick : kCycleMax;
        next = std::min({next, das.nextWakeTick(now),
                         mem.dram.nextWakeTick(now)});
        if (next == kCycleMax)
            break;
        now = std::max(now + kCpuTick, roundUpToCpuTick(next));
    }
    out.busyS = timer.seconds();
    return out;
}

/**
 * Replay the post-translation request stream (every span, at its
 * submit tick) and the migrations (at their issue cycle) into a
 * standalone DramSystem via canAccept/submit/startMigration/tick.
 */
LayerReplay
replayDram(const SimConfig &cfg, const std::vector<RequestSpan> &spans,
           const std::vector<CmdRecord> &migrations)
{
    std::vector<const RequestSpan *> reqs;
    for (const RequestSpan &s : spans)
        reqs.push_back(&s);
    std::sort(reqs.begin(), reqs.end(),
              [](const RequestSpan *a, const RequestSpan *b) {
                  return a->submitTick != b->submitTick
                             ? a->submitTick < b->submitTick
                             : a->sampleId < b->sampleId;
              });

    MemorySide mem(cfg);
    DramSystem &dram = mem.dram;
    LayerReplay out;
    BusyTimer timer;
    std::size_t i = 0, mi = 0, head = 0; // [head, i): waiting to submit
    std::uint64_t id = 0;
    Cycle now = reqs.empty() ? 0 : reqs[0]->submitTick;
    while (i < reqs.size() || head < i || mi < migrations.size() ||
           dram.busy()) {
        for (; mi < migrations.size() &&
               migrations[mi].cycle * kMemTick <= now;
             ++mi) {
            const CmdRecord &r = migrations[mi];
            timer.start();
            // DasManager swaps (exclusive cache mode) are full swaps.
            dram.startMigration(r.channel, r.rank, r.bank, r.row, r.rowB,
                                /*full_swap=*/true, r.rowLo, r.rowHi,
                                [](Cycle) {});
            timer.stop();
        }
        while (i < reqs.size() && reqs[i]->submitTick <= now)
            ++i;
        for (; head < i; ++head) {
            const RequestSpan &s = *reqs[head];
            auto req = std::make_unique<MemRequest>(s.addr, s.isWrite,
                                                    s.core);
            req->id = ++id;
            req->isTableAccess = s.isTableWalk;
            req->loc = dram.decode(s.addr);
            req->loc.channel = s.channel;
            req->loc.rank = s.rank;
            req->loc.bank = s.bank;
            req->loc.row = s.row;
            req->logicalRow = s.logicalRow;
            req->onComplete = [](MemRequest &, Cycle) {};
            timer.start();
            bool ok = dram.canAccept(req->loc, req->isWrite);
            if (ok)
                dram.submit(std::move(req), now);
            timer.stop();
            if (!ok) {
                ++out.rejects;
                break;
            }
            ++out.calls;
        }
        timer.start();
        dram.tick(now);
        timer.stop();
        Cycle next = dram.nextWakeTick(now);
        if (head < i)
            next = std::min(next, now + kMemTick);
        if (i < reqs.size())
            next = std::min(next, reqs[i]->submitTick);
        if (mi < migrations.size())
            next = std::min(next, migrations[mi].cycle * kMemTick);
        if (next == kCycleMax)
            break;
        now = std::max(now + 1, next);
    }
    out.busyS = timer.seconds();
    return out;
}

/** Median demand-read latency of the live run, LLC miss to data. */
Cycle
medianMissTicks(const std::vector<RequestSpan> &spans)
{
    std::vector<double> lat;
    for (const RequestSpan &s : spans) {
        Cycle done = s.dataCycle * kMemTick;
        if (s.core >= 0 && !s.isWrite && !s.isTableWalk && done > s.missTick)
            lat.push_back(static_cast<double>(done - s.missTick));
    }
    return lat.empty() ? 0 : static_cast<Cycle>(quartiles(lat).median);
}

/** One phase of the traced run, kept in memory until the end. */
struct Span
{
    std::string name;
    double start = 0.0, end = 0.0;
    int parent = -1;
    /** Host speed relative to the reference (see referenceSeconds),
     *  measured just before and after the phase. */
    double hostSpeed = 1.0;
};

double
median(const std::vector<double> &v)
{
    return quartiles(v).median;
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

} // namespace

Report
tracedRun(const Workload &w, std::uint64_t seed, InstCount instructions,
          double seconds, unsigned jobs, const std::string &spans_out)
{
    Report out;
    const double ref_start = referenceSeconds();
    const double start = nowSeconds();
    std::vector<Span> spans{{"traced_run", start, 0.0, -1}};
    // Runs one phase as a span; returns the host speed around it, by
    // which the phase's host times are scaled to the reference speed.
    auto phase = [&](const std::string &name, const auto &fn) {
        const double ref_before = referenceSeconds();
        spans.push_back({name, nowSeconds(), 0.0, 0});
        const std::size_t idx = spans.size() - 1;
        fn();
        spans[idx].end = nowSeconds();
        spans[idx].hostSpeed =
            kReferenceSeconds / (0.5 * (ref_before + referenceSeconds()));
        return spans[idx].hostSpeed;
    };
    auto metric = [&out](const std::string &name, double v,
                         const std::string &unit) {
        out.metrics.push_back({name, v, unit});
    };

    // Layer metrics come from one single simulation: the workload
    // itself, or for the sweep its first profile's DAS point.
    Workload rep = w;
    std::uint64_t rep_seed = seed;
    if (w.isSweep()) {
        rep.spec = w.sweepProfiles.front();
        rep.sweepProfiles.clear();
        rep_seed = SweepRunner::pointSeed(seed, rep.spec, DesignKind::Das);
    }
    const WorkloadSpec spec = WorkloadSpec::parse(rep.spec);
    SimConfig cfg = baseConfig(rep, rep_seed, instructions);
    cfg.numCores = spec.numCores();

    Capture cap;
    const double live_speed =
        phase("live", [&] { cap = liveTracedRun(cfg, spec); });
    out.account("traced run", cap.failure);

    RunSample ref;
    phase("untraced", [&] {
        ref = runOnce(rep, rep_seed, instructions, SimEngine::Event, 1);
    });
    out.account("untraced run", ref.failure);

    CpuCacheReplay cc;
    LayerReplay das, dram;
    const double cc_speed = phase("replay.cpu_cache", [&] {
        cc = replayCpuCache(cfg, cap, medianMissTicks(cap.spans));
    });
    const double das_speed =
        phase("replay.das", [&] { das = replayDas(cfg, cap.spans); });
    const double dram_speed = phase(
        "replay.dram", [&] { dram = replayDram(cfg, cap.spans, cap.migrations); });

    // Event vs tick on the same inputs, alternating which runs first,
    // until the measurement window is used up.
    std::vector<double> event_s, tick_s, point_s, pooled_s;
    double serial_total = 0.0;
    std::size_t points = 1;
    double point_speed = phase("engines", [&] {
        if (w.isSweep()) {
            // Serial runSimulation per point, under both engines.
            std::vector<RunMetrics> event_m;
            double event_sum = 0.0, tick_sum = 0.0;
            SimConfig base = baseConfig(w, seed, instructions);
            for (const auto &[profile, design] : sweepPoints(w)) {
                SimConfig pc = base;
                pc.design = design;
                pc.seed = SweepRunner::pointSeed(seed, profile, design);
                RunMetrics em, tm;
                for (SimEngine e : {SimEngine::Event, SimEngine::Tick}) {
                    pc.engine = e;
                    const double t0 = nowSeconds();
                    RunMetrics m =
                        runSimulation(WorkloadSpec::single(profile), pc);
                    const double dt = nowSeconds() - t0;
                    if (e == SimEngine::Event) {
                        em = m;
                        event_sum += dt;
                        point_s.push_back(dt);
                    } else {
                        tm = m;
                        tick_sum += dt;
                    }
                }
                out.account(formatStr("{}/{} tick vs event", profile,
                                  toString(design)),
                        metricsDigest({em}) == metricsDigest({tm})
                            ? ""
                            : "statistics differ");
                event_m.push_back(em);
            }
            event_s.push_back(event_sum);
            tick_s.push_back(tick_sum);
            serial_total = event_sum;
            points = point_s.size();
            const std::uint64_t want = metricsDigest(event_m);
            do {
                RunSample s =
                    runOnce(w, seed, instructions, SimEngine::Event, jobs);
                std::string failure = s.failure;
                if (failure.empty() && s.digest != want)
                    failure = "pooled sweep differs from serial points";
                out.account("pooled sweep", failure);
                pooled_s.push_back(s.simS);
            } while (nowSeconds() - start < seconds);
            return;
        }
        for (unsigned pair = 0;
             pair < 2 || nowSeconds() - start < seconds; ++pair) {
            for (int k = 0; k < 2; ++k) {
                const bool tick = (pair + k) % 2 == 1;
                RunSample s =
                    runOnce(rep, rep_seed, instructions,
                            tick ? SimEngine::Tick : SimEngine::Event, 1);
                std::string failure = s.failure;
                if (failure.empty() && s.digest != ref.digest)
                    failure = "statistics differ from the first run";
                out.account(tick ? "tick run" : "event run", failure);
                (tick ? tick_s : event_s).push_back(s.simS);
            }
        }
    });

    if (!w.isSweep()) {
        // A one-point sweep: the sweep layer's own cost around one
        // simulation.
        point_speed = phase("sweep", [&] {
            SimConfig pc = cfg;
            pc.seed = SweepRunner::pointSeed(rep_seed, spec.name,
                                             DesignKind::Das);
            const double t0 = nowSeconds();
            RunMetrics serial = runSimulation(spec, pc);
            point_s.push_back(nowSeconds() - t0);
            serial_total = point_s.back();
            SweepRunner sweep(cfg, 1);
            sweep.add(SweepPoint{spec, DesignKind::Das, {}, "", false});
            const double t1 = nowSeconds();
            std::vector<ExperimentResult> pooled = sweep.run();
            pooled_s.push_back(nowSeconds() - t1);
            out.account("one-point sweep",
                    metricsDigest({serial}) ==
                            metricsDigest({pooled.front().metrics})
                        ? ""
                        : "sweep point differs from runSimulation");
        });
        jobs = 1;
    }
    spans[0].end = nowSeconds();
    spans[0].hostSpeed =
        kReferenceSeconds / (0.5 * (ref_start + referenceSeconds()));

    // Host times at the reference speed, like the end-to-end metrics.
    const double workload_s = cap.workload.seconds() * live_speed;
    const double checker_s = cap.checker.seconds() * live_speed;
    cc.cpuS *= cc_speed;
    cc.cacheS *= cc_speed;
    das.busyS *= das_speed;
    dram.busyS *= dram_speed;
    for (double &t : point_s)
        t *= point_speed;

    const StatsView st(ref.stats);
    const double records = static_cast<double>(cap.workload.calls());
    metric("workload.records", records, "count");
    metric("workload.busy_s", workload_s, "s");
    metric("workload.ns_per_record", 1e9 * ratio(workload_s, records), "ns");

    const double cycles = st.value("system.core0.cycles");
    metric("cpu.retired", st.sum("system.core", ".retired"), "count");
    metric("cpu.cycles", cycles, "count");
    metric("cpu.rob_stall_frac",
           ratio(st.sum("system.core", ".robStallCycles"),
                 st.sum("system.core", ".cycles")),
           "fraction");
    metric("cpu.busy_s", cc.cpuS, "s");
    metric("cpu.ns_per_inst",
           1e9 * ratio(cc.cpuS, static_cast<double>(cc.instructions)), "ns");

    const double l1_hits = st.sum("system.caches.l1_", ".hits");
    const double accesses = l1_hits + st.sum("system.caches.l1_", ".misses");
    const double llc_hits = st.value("system.caches.llc.hits");
    const double dirty = st.sum("system.caches.l1_", ".dirtyEvictions") +
                         st.sum("system.caches.l2_", ".dirtyEvictions") +
                         st.value("system.caches.llc.dirtyEvictions");
    const double allocations = st.value("system.mshr.allocations");
    const double waiters = st.value("system.mshr.coalesced");
    metric("cache.accesses", accesses, "count");
    metric("cache.l1_hit_ratio", ratio(l1_hits, accesses), "fraction");
    metric("cache.llc_hit_ratio",
           ratio(llc_hits, llc_hits + st.value("system.caches.llc.misses")),
           "fraction");
    metric("cache.llc_misses", st.value("system.caches.demandLlcMisses"),
           "count");
    metric("cache.dirty_evictions", dirty, "count");
    metric("mshr.allocations", allocations, "count");
    // Every miss registers a waiter; all but the allocating one merged.
    metric("mshr.coalesced_ratio",
           waiters > 0.0 ? 1.0 - allocations / waiters : 0.0, "fraction");
    metric("mshr.occupancy_p50",
           st.percentile("system.mshr.occupancy", "", 50.0), "entries");
    metric("cache.busy_s", cc.cacheS, "s");
    metric("cache.ns_per_access",
           1e9 * ratio(cc.cacheS, static_cast<double>(cc.accesses)), "ns");

    const double demand = st.value("system.dasManager.demandAccesses");
    metric("das.demand_accesses", demand, "count");
    metric("das.tc_hit_ratio",
           st.value("system.dasManager.translationCache.hitRatio"),
           "fraction");
    metric("das.table_walks",
           st.value("system.dasManager.tableWalksLlc") +
               st.value("system.dasManager.tableWalksDram"),
           "count");
    metric("das.promotions", st.value("system.dasManager.promotions"),
           "count");
    metric("das.promotions_skipped_busy",
           st.value("system.dasManager.promotionsSkippedBusy"), "count");
    metric("das.fast_share",
           ratio(st.value("system.dasManager.fastAccesses"), demand),
           "fraction");
    metric("das.busy_s", das.busyS, "s");
    metric("das.ns_per_access",
           1e9 * ratio(das.busyS, static_cast<double>(das.calls)), "ns");

    const std::string ch = "system.dram.channel";
    const double reads = st.sum(ch, ".reads");
    const double writes = st.sum(ch, ".writes");
    metric("dram.reads", reads, "count");
    metric("dram.writes", writes, "count");
    metric("dram.row_hit_ratio", ratio(st.sum(ch, ".rowHits"), reads + writes),
           "fraction");
    metric("dram.acts_fast", st.sum(ch, ".actsFast"), "count");
    metric("dram.acts_slow", st.sum(ch, ".actsSlow"), "count");
    metric("dram.migrations", st.sum(ch, ".migrations"), "count");
    metric("dram.read_queue_delay_p50",
           st.percentile(ch, ".readQueueDelay", 50.0), "memcycles");
    metric("dram.read_queue_delay_p99",
           st.percentile(ch, ".readQueueDelay", 99.0), "memcycles");
    metric("dram.read_latency_p50",
           st.percentile("rollup.readLatency", "", 50.0), "memcycles");
    metric("dram.read_latency_p99",
           st.percentile("rollup.readLatency", "", 99.0), "memcycles");
    metric("dram.submit_rejects", static_cast<double>(dram.rejects),
           "count");
    metric("dram.busy_s", dram.busyS, "s");
    metric("dram.ns_per_request",
           1e9 * ratio(dram.busyS, static_cast<double>(dram.calls)), "ns");

    metric("checker.commands", static_cast<double>(cap.commands), "count");
    metric("checker.violations", static_cast<double>(cap.violations),
           "count");
    metric("checker.busy_s", checker_s, "s");
    metric("checker.ns_per_command",
           1e9 * ratio(checker_s, static_cast<double>(cap.commands)), "ns");

    metric("mem.requests", static_cast<double>(cap.spans.size()), "count");

    metric("sim.event_over_tick", ratio(median(tick_s), median(event_s)),
           "ratio");
    metric("sweep.points", static_cast<double>(points), "count");
    metric("sweep.point_s_p50", median(point_s), "s");
    metric("sweep.point_s_max",
           *std::max_element(point_s.begin(), point_s.end()), "s");
    metric("sweep.parallel_efficiency",
           ratio(serial_total, jobs * median(pooled_s)), "fraction");
    metric("trace.overhead_frac", ratio(cap.wallS, ref.wallS) - 1.0,
           "fraction");

    if (!spans_out.empty()) {
        std::ofstream os(spans_out);
        if (!os)
            fatal("cannot open '{}' for writing", spans_out);
        const std::string run_id = formatStr("{}-seed{}", w.name, seed);
        os.precision(9);
        for (std::size_t i = 0; i < spans.size(); ++i) {
            os << "{\"id\": " << i << ", \"name\": \"" << spans[i].name
               << "\", \"start_s\": " << spans[i].start - start
               << ", \"end_s\": " << spans[i].end - start
               << ", \"parent\": " << spans[i].parent
               << ", \"host_speed\": " << spans[i].hostSpeed
               << ", \"run_id\": \"" << run_id << "\"}\n";
        }
    }
    return out;
}

} // namespace perfbench
