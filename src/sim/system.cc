#include "system.hh"

#include <algorithm>
#include <limits>
#include <ostream>

#include "common/binfmt.hh"
#include "common/log.hh"
#include "common/stats_jsonl.hh"

namespace dasdram
{

System::System(const SimConfig &cfg, std::vector<TraceSource *> traces)
    : cfg_(cfg), traces_(std::move(traces)), statGroup_("system")
{
    if (traces_.size() != cfg_.numCores)
        fatal("system needs one trace per core ({} vs {})",
              traces_.size(), cfg_.numCores);

    const DesignSpec &spec = designSpec(cfg_.design);
    timing_ = ddr3_1600Timing(spec.charmColumnOpt);
    layout_ = std::make_unique<AsymmetricLayout>(cfg_.geom, cfg_.layout);

    if (spec.allFast)
        classifier_ =
            std::make_unique<UniformRowClassifier>(RowClass::Fast);
    else if (!spec.heterogeneous)
        classifier_ =
            std::make_unique<UniformRowClassifier>(RowClass::Slow);
    const RowClassifier &cls =
        classifier_ ? static_cast<const RowClassifier &>(*classifier_)
                    : static_cast<const RowClassifier &>(*layout_);

    cfg_.ctrl.histograms = cfg_.obs.histograms;
    dram_ = std::make_unique<DramSystem>(cfg_.geom, timing_, cls,
                                         cfg_.ctrl);
    if (cfg_.protocolCheck) {
        // The checker gets the same row-class oracle as the controller,
        // so the class stamped on every ACT is cross-checked, and an
        // independent copy of the reference timing.
        checker_ = std::make_unique<ProtocolChecker>(cfg_.geom, timing_,
                                                     &cls);
    }
    if (!cfg_.obs.traceOut.empty()) {
        traceFile_ = std::make_unique<std::ofstream>(cfg_.obs.traceOut);
        if (!*traceFile_)
            fatal("cannot open '{}' for writing", cfg_.obs.traceOut);
        chromeTrace_ = std::make_unique<ChromeTraceWriter>(
            *traceFile_, cfg_.geom, timing_);
    }
    rebuildCommandSinks();
    caches_ = std::make_unique<CacheHierarchy>(cfg_.numCores, cfg_.caches,
                                               cfg_.seed);

    DasConfig dcfg = cfg_.das;
    dcfg.mode = spec.mode;
    dcfg.zeroMigrationLatency = spec.zeroMigrationLatency;
    dcfg.llcLatencyTicks = cpuCyclesToTicks(cfg_.caches.llcLatencyCpu);
    das_ = std::make_unique<DasManager>(*dram_, caches_.get(), *layout_,
                                        dcfg);

    mshrs_ = std::make_unique<MshrFile>(cfg_.mshrsPerCore * cfg_.numCores);

    wbSink_ = [this](Addr line) {
        std::unique_ptr<RequestSpan> span;
        if (tracer_) {
            span = tracer_->maybeStart();
            if (span) {
                span->core = -1;
                span->addr = line;
                span->isWrite = true;
                span->issueTick = now_;
                span->missTick = now_;
            }
        }
        das_->access(line, /*is_write=*/true, /*core=*/-1,
                     Continuation{}, now_, std::move(span));
    };

    // Both asynchronous completion paths — MSHR waiters and DAS
    // demand/walk completions — deliver serialisable Continuation
    // tokens to the one interpreter, so a restored snapshot resumes
    // in-flight work by reinstalling these two hooks.
    mshrs_->setDispatcher(
        [this](const Continuation &cont, Addr, Cycle t) {
            dispatchContinuation(cont, t);
        });
    das_->setCompletionHook([this](const Continuation &cont, Cycle t) {
        dispatchContinuation(cont, t);
    });

    for (unsigned i = 0; i < cfg_.numCores; ++i) {
        Addr base = cfg_.coreBase(i);
        cores_.push_back(std::make_unique<Core>(
            static_cast<int>(i), cfg_.core, *traces_[i],
            [this, i, base](Addr a, bool w, unsigned slot) {
                handleCoreAccess(i, a + base, w, slot);
            }));
        statGroup_.addChild(&cores_.back()->stats());
    }
    statGroup_.addChild(&caches_->stats());
    statGroup_.addChild(&das_->stats());
    statGroup_.addChild(&dram_->stats());
    statGroup_.addChild(&mshrs_->stats());

    if (cfg_.obs.traceRequests > 0.0) {
        // Request-lifecycle tracing: one deterministic sampler shared
        // by every request-creation point (demand misses, writebacks,
        // table walks), completed spans fanned out to the in-sim
        // aggregator and the optional JSONL export. Registered before
        // the epoch series so its stats ride the time-series too.
        tracer_ = std::make_unique<RequestTracer>(cfg_.seed,
                                                  cfg_.obs.traceRequests);
        das_->setRequestTracer(tracer_.get());
        spanFanout_ = std::make_unique<RequestSpanFanout>();
        spanAgg_ =
            std::make_unique<CriticalPathAggregator>(cfg_.numCores);
        spanFanout_->addSink(spanAgg_.get());
        if (!cfg_.obs.spansOut.empty()) {
            spansFile_ =
                std::make_unique<std::ofstream>(cfg_.obs.spansOut);
            if (!*spansFile_)
                fatal("cannot open '{}' for writing", cfg_.obs.spansOut);
            spanWriter_ = std::make_unique<SpanJsonlWriter>(*spansFile_,
                                                            spanMeta());
            spanFanout_->addSink(spanWriter_.get());
        }
        dram_->setRequestTraceSink(spanFanout_.get());
        statGroup_.addChild(&spanAgg_->stats());
    } else if (!cfg_.obs.spansOut.empty()) {
        fatal("obs.spansOut ('{}') requires obs.traceRequests > 0",
              cfg_.obs.spansOut);
    }

    if (chromeTrace_)
        das_->setEventSink(chromeTrace_.get());
    if (cfg_.obs.epochMemCycles > 0) {
        epochs_ = std::make_unique<EpochSeries>(statGroup_,
                                                cfg_.obs.epochMemCycles);
    }
}

System::~System() = default;

SpanJsonlMeta
System::spanMeta() const
{
    SpanJsonlMeta meta;
    meta.workload = cfg_.obs.workloadName;
    meta.design = toString(cfg_.design);
    meta.label = cfg_.obs.label;
    meta.seed = cfg_.seed;
    meta.rate = cfg_.obs.traceRequests;
    return meta;
}

void
System::rebuildCommandSinks()
{
    CommandSink *single = nullptr;
    unsigned active = 0;
    for (CommandSink *s :
         {static_cast<CommandSink *>(checker_.get()),
          static_cast<CommandSink *>(cmdTrace_.get()),
          static_cast<CommandSink *>(chromeTrace_.get())}) {
        if (s) {
            single = s;
            ++active;
        }
    }
    if (active <= 1) {
        dram_->setCommandSink(single);
        return;
    }
    cmdFanout_ = std::make_unique<CommandFanout>();
    cmdFanout_->addSink(checker_.get());
    cmdFanout_->addSink(cmdTrace_.get());
    cmdFanout_->addSink(chromeTrace_.get());
    dram_->setCommandSink(cmdFanout_.get());
}

void
System::attachCommandTrace(std::ostream &os)
{
    cmdTrace_ = std::make_unique<CommandTrace>(os);
    rebuildCommandSinks();
}

void
System::attachChromeTrace(std::ostream &os)
{
    chromeTrace_ =
        std::make_unique<ChromeTraceWriter>(os, cfg_.geom, timing_);
    das_->setEventSink(chromeTrace_.get());
    rebuildCommandSinks();
}

void
System::attachRequestSpanTrace(std::ostream &os)
{
    if (!tracer_)
        fatal("attachRequestSpanTrace requires cfg.obs.traceRequests > 0");
    attachedSpanWriters_.push_back(
        std::make_unique<SpanJsonlWriter>(os, spanMeta()));
    spanFanout_->addSink(attachedSpanWriters_.back().get());
}

void
System::handleCoreAccess(unsigned core, Addr addr, bool is_write,
                         unsigned slot)
{
    CacheAccessResult res = caches_->access(core, addr, is_write, wbSink_);
    if (res.level != HitLevel::Miss) {
        if (slot != Continuation::kNoSlot)
            cores_[core]->completeLoad(slot, now_ + res.latencyTicks);
        return;
    }
    MissEvent ev;
    ev.at = now_ + res.latencyTicks;
    ev.seq = eventSeq_++;
    ev.core = core;
    ev.slot = slot;
    ev.line = res.lineAddr;
    ev.isWrite = is_write;
    ev.issueTick = now_; // core-issue stage of a sampled span
    pushMissEvent(ev);
}

void
System::pushMissEvent(const MissEvent &ev)
{
    if (hasMissEvents() && ev < events_.back()) {
        panic("miss event (at {}, seq {}) pushed behind (at {}, seq {}): "
              "the pending-event FIFO needs non-decreasing due ticks",
              ev.at, ev.seq, events_.back().at, events_.back().seq);
    }
    // Reclaim the popped prefix once it is at least half the buffer,
    // so the vector's capacity stays bounded by the peak backlog.
    if (eventHead_ > 0 && 2 * eventHead_ >= events_.size()) {
        events_.erase(events_.begin(),
                      events_.begin() +
                          static_cast<std::ptrdiff_t>(eventHead_));
        eventHead_ = 0;
    }
    events_.push_back(ev);
}

void
System::runMissEvent(const MissEvent &ev)
{
    startMiss(ev.core, ev.line, ev.isWrite, now_, ev.issueTick);
    // Register this access's waiter after startMiss ensured an MSHR
    // entry exists (or will retry below).
    if (mshrs_->outstanding(ev.line)) {
        mshrs_->addWaiter(ev.line,
                          ev.slot != Continuation::kNoSlot
                              ? Continuation::coreLoad(ev.core, ev.slot)
                              : Continuation{});
    } else {
        // MSHR file full and allocation deferred: complete the load
        // pessimistically when the retry path resolves. To keep
        // bookkeeping simple we retry the whole access.
        handleCoreAccess(ev.core, ev.line, ev.isWrite, ev.slot);
    }
}

void
System::dispatchContinuation(const Continuation &cont, Cycle at)
{
    switch (cont.kind) {
      case Continuation::Kind::None:
        return;
      case Continuation::Kind::CoreLoad:
        cores_[cont.core]->completeLoad(cont.slot, at);
        return;
      case Continuation::Kind::DemandFill:
        caches_->fill(cont.core, cont.line, cont.isWrite, wbSink_);
        mshrs_->complete(cont.line, at);
        return;
    }
    panic("unknown continuation kind {}",
          static_cast<unsigned>(cont.kind));
}

void
System::startMiss(unsigned core, Addr line, bool is_write, Cycle at,
                  Cycle issue_tick)
{
    if (mshrs_->outstanding(line))
        return; // coalesced; fill in flight
    if (mshrs_->full())
        return; // caller retries
    mshrs_->allocate(line);
    // Sample at MSHR allocation: the set of allocations (and their
    // order) is already proven identical across engines, so the
    // sampled subset is too.
    std::unique_ptr<RequestSpan> span;
    if (tracer_) {
        span = tracer_->maybeStart();
        if (span) {
            span->core = static_cast<int>(core);
            span->addr = line;
            span->issueTick = issue_tick;
            span->missTick = at;
        }
    }
    das_->access(line, /*is_write=*/false, static_cast<int>(core),
                 Continuation::demandFill(core, line, is_write), at,
                 std::move(span));
}

void
System::resetAfterWarmup()
{
    warmupDone_ = true;
    statGroup_.resetAll();
    das_->resetStats();
    warmupCycleStamp_ = now_;
    if (epochs_)
        epochs_->restart(now_ / kMemTick);
}

namespace
{

/** First multiple of kCpuTick at or after @p t (the CPU clock edge the
 *  tick loop would observe @p t on). */
Cycle
roundUpToCpuTick(Cycle t)
{
    return (t + kCpuTick - 1) / kCpuTick * kCpuTick;
}

/** Bound on one burst lookahead, so a single fastForward call stays
 *  O(bounded) even against a multi-million-instruction compute gap;
 *  the next call simply continues the burst. */
constexpr std::uint64_t kMaxBurstCycles = 1u << 16;

} // namespace

InstCount
System::retireCap(const Core &core) const
{
    const InstCount done = core.retired();
    return done < retireThreshold_ ? retireThreshold_ - done
                                   : std::numeric_limits<InstCount>::max();
}

Cycle
System::maybeFastForward(Cycle next_cpu_at)
{
    // Most probes on dense stretches fail at once, and most that
    // succeed skip a cycle or two: backing off after a failure trades
    // those short skips for the probes' cost. Long idle spans still
    // find the engine within 16 iterations.
    constexpr unsigned kMaxProbeBackoff = 15;
    if (probesToSkip_ > 0) {
        --probesToSkip_;
        return next_cpu_at;
    }
    Cycle next = fastForward(next_cpu_at);
    if (next != next_cpu_at) {
        probeBackoff_ = 0;
    } else {
        probeBackoff_ = std::min(2 * probeBackoff_ + 1, kMaxProbeBackoff);
        probesToSkip_ = probeBackoff_;
    }
    return next;
}

Cycle
System::fastForward(Cycle next_cpu_at)
{
    // Cheapest horizons first, bailing out the moment the very next
    // iteration is known to be active: on busy stretches (any core
    // dispatching a memory instruction) this costs a few comparisons,
    // and the DRAM horizon — a scan over queues and banks — is only
    // computed when a real skip is possible.
    if (hasMissEvents() && nextMissEvent().at <= next_cpu_at)
        return next_cpu_at;
    Cycle stop = kCycleMax;
    bool any_burst = false;
    for (const auto &core : cores_) {
        Cycle h = core->nextEventTick(now_);
        if (h <= next_cpu_at) {
            // Dispatch- or retire-active — but stretches of pure
            // gap-bubble flow are batchable. Probe one cycle: if even
            // that needs a real tick (a memory dispatch or a trace
            // refill is due), no skip is possible. The full burst
            // lookahead is deferred until the other horizons have
            // bounded the span, so its cost is proportional to the
            // cycles actually skipped, not to the burst's length.
            if (core->burstCycles(next_cpu_at, 1, retireCap(*core),
                                  /*apply=*/false) == 0)
                return next_cpu_at;
            any_burst = true;
            continue;
        }
        stop = std::min(stop, h);
    }
    if (hasMissEvents())
        stop = std::min(stop, nextMissEvent().at);
    // A scheduled checkpoint must be taken at its exact loop top, so
    // never skip across one.
    if (!checkpoints_.empty())
        stop = std::min(stop, roundUpToCpuTick(nextCheckpointTick()));
    if (stop <= next_cpu_at)
        return next_cpu_at;
    stop = std::min(stop, das_->nextWakeTick(now_));
    if (stop <= next_cpu_at)
        return next_cpu_at;
    stop = std::min(stop, dram_->nextWakeTick(now_));
    if (stop <= next_cpu_at)
        return next_cpu_at;
    if (stop == kCycleMax && !any_burst) {
        panic("event engine: no component has a future event at tick "
              "{} (cores blocked forever?)",
              now_);
    }
    if (any_burst)
        stop = std::min(stop, next_cpu_at + kMaxBurstCycles * kCpuTick);
    stop = roundUpToCpuTick(stop);

    // Burst-active cores bound the span to however many pure
    // gap-bubble cycles they can batch; the slicing loop then applies
    // exactly that many, so the lookahead never walks past `stop`.
    if (any_burst) {
        for (const auto &core : cores_) {
            if (core->nextEventTick(now_) > next_cpu_at)
                continue;
            std::uint64_t span = (stop - next_cpu_at) / kCpuTick;
            std::uint64_t n = core->burstCycles(
                next_cpu_at, span, retireCap(*core), /*apply=*/false);
            if (n < span)
                stop = next_cpu_at + n * kCpuTick;
        }
    }

    // Skip the iterations at [next_cpu_at, stop), slicing at every
    // epoch boundary so each epoch observes exactly the per-core
    // cycle, instruction and stall counts the tick engine would have
    // accumulated by that boundary. Each core first replays its
    // batchable gap-bubble cycles (bounded by its horizon above) and
    // accounts the rest as a stall; nothing else changes on skipped
    // cycles: there is no due event, no DAS retry, and the DRAM
    // horizon guarantees its internal catch-up would not issue a
    // command below `stop`.
    while (next_cpu_at < stop) {
        Cycle slice_end = stop; // exclusive: iteration at stop runs
        bool at_boundary = false;
        if (epochs_) {
            Cycle b_tick = roundUpToCpuTick(
                epochs_->nextBoundaryCycle() * kMemTick);
            if (b_tick < slice_end) {
                slice_end = b_tick + kCpuTick; // include the boundary
                at_boundary = true;
            }
        }
        std::uint64_t n = (slice_end - next_cpu_at) / kCpuTick;
        for (const auto &core : cores_) {
            std::uint64_t m = core->burstCycles(
                next_cpu_at, n, retireCap(*core), /*apply=*/true);
            core->skipCycles(n - m);
        }
        next_cpu_at = slice_end;
        if (at_boundary)
            epochs_->maybeSample((slice_end - kCpuTick) / kMemTick);
    }

    // Advance the DRAM clock through the skipped span, exactly as the
    // tick loop's per-iteration dram tick would have (a pure clock
    // advance: the horizon guarantees no channel has work below stop).
    // Without this, a request submitted by an event at `stop` would be
    // visible to the memory cycles of the skipped span when the next
    // dram tick catches up across it — issuing commands earlier than
    // the tick engine, which had already passed those cycles.
    dram_->tick(stop - kCpuTick);
    return stop;
}

RunMetrics
System::run()
{
    const InstCount warmup = cfg_.warmupInstructions();
    const InstCount target = cfg_.instructionsPerCore;
    const bool event_engine = cfg_.engine == SimEngine::Event;
    // A restored snapshot resumes at the loop top it was saved at;
    // warmup_retired_base is reconstructible (run() always sets it to
    // `warmup` at the reset), so it is not serialised.
    Cycle next_cpu_at = now_;
    InstCount warmup_retired_base = warmupDone_ ? warmup : 0;
    retireThreshold_ =
        warmupDone_ ? target - warmup : std::min(warmup, target);

    auto min_retired = [this]() {
        InstCount m = kCycleMax;
        for (const auto &c : cores_)
            m = std::min(m, c->retired());
        return m;
    };

    while (true) {
        now_ = next_cpu_at;

        if (!checkpoints_.empty())
            maybeCheckpoint();

        while (hasMissEvents() && nextMissEvent().at <= now_) {
            // runMissEvent may push (an MSHR-full retry), so pop first.
            const MissEvent ev = events_[eventHead_++];
            runMissEvent(ev);
        }

        das_->tick(now_);
        dram_->tick(now_);
        for (auto &core : cores_)
            core->tick(now_);
        if (epochs_)
            epochs_->maybeSample(now_ / kMemTick);

        next_cpu_at += kCpuTick;

        InstCount done = min_retired();
        if (!warmupDone_) {
            if (done >= warmup) {
                resetAfterWarmup();
                warmup_retired_base = warmup;
                retireThreshold_ = target - warmup;
                // Tick 0 is already past: the snapshots are taken at
                // the next loop top, a deterministic iteration boundary
                // just after the statistics reset.
                for (std::string &path : warmupCheckpointPaths_)
                    checkpoints_.emplace_back(0, std::move(path));
                warmupCheckpointPaths_.clear();
            }
        }
        if (done >= target - (warmupDone_ ? warmup_retired_base : 0))
            break;

        // Retirement (and hence the warm-up and completion conditions
        // above) only changes on active iterations, so fast-forwarding
        // here cannot jump over either threshold.
        if (event_engine)
            next_cpu_at = maybeFastForward(next_cpu_at);
    }

    for (const auto &cp : checkpoints_) {
        warn("checkpoint '{}' scheduled at tick {} was never taken: "
             "the run ended at tick {}",
             cp.second, cp.first, now_);
    }
    for (const std::string &path : warmupCheckpointPaths_) {
        warn("warm-up checkpoint '{}' was never taken: the run ended "
             "before warm-up completed",
             path);
    }

    RunMetrics m;
    m.cpuCycles = cores_[0]->cycles();
    for (const auto &c : cores_) {
        m.ipc.push_back(c->ipc());
        m.instructions += c->retired();
    }
    // Unique line fills, not raw lookup misses: accesses to a line
    // whose fill is already in flight coalesce in the MSHRs and are not
    // separate memory misses.
    m.llcMisses = mshrs_->allocations();
    m.locations = das_->locations();
    m.promotions = das_->promotions();
    m.memAccesses = das_->demandAccesses();
    m.footprintRows = das_->footprintRows();
    m.energy = dram_->energyBreakdown();

    if (epochs_)
        epochs_->flush(now_ / kMemTick);
    if (chromeTrace_)
        chromeTrace_->finish();
    if (spansFile_)
        spansFile_->flush();
    if (!cfg_.obs.statsOut.empty()) {
        std::ofstream os(cfg_.obs.statsOut);
        if (!os)
            fatal("cannot open '{}' for writing", cfg_.obs.statsOut);
        writeStatsJsonl(os);
    }

    if (checker_ && checker_->violationCount() > 0) {
        panic("DRAM protocol checker found {} violation(s) over {} "
              "commands; first: {}",
              checker_->violationCount(), checker_->commandCount(),
              checker_->firstViolation());
    }
    return m;
}

void
System::scheduleCheckpoint(Cycle tick, std::string path)
{
    checkpoints_.emplace_back(tick, std::move(path));
}

void
System::checkpointAtWarmup(std::string path)
{
    if (warmupDone_)
        fatal("checkpointAtWarmup: warm-up already completed");
    warmupCheckpointPaths_.push_back(std::move(path));
}

Cycle
System::nextCheckpointTick() const
{
    Cycle t = kCycleMax;
    for (const auto &[tick, path] : checkpoints_)
        t = std::min(t, tick);
    return t;
}

void
System::maybeCheckpoint()
{
    for (std::size_t i = 0; i < checkpoints_.size();) {
        if (checkpoints_[i].first <= now_) {
            saveSnapshot(checkpoints_[i].second);
            checkpoints_.erase(checkpoints_.begin() +
                               static_cast<std::ptrdiff_t>(i));
        } else {
            ++i;
        }
    }
}

void
System::serdeState(Archive &ar)
{
    ar.section("system");
    ar.io(now_);
    ar.io(eventSeq_);
    ar.io(warmupDone_);
    ar.io(warmupCycleStamp_);

    // The pending miss events are written in pop order. A sorted
    // array is also a valid min-heap, so the format is unchanged;
    // older snapshots hold a heap order instead, so the load sorts.
    std::uint64_t n_events = events_.size() - eventHead_;
    ar.io(n_events);
    if (ar.loading()) {
        events_.resize(static_cast<std::size_t>(n_events));
        eventHead_ = 0;
    }
    for (std::size_t i = eventHead_; i < events_.size(); ++i)
        events_[i].serdeState(ar);
    if (ar.loading())
        std::sort(events_.begin(), events_.end());

    ar.expectCount(traces_.size(), "trace sources");
    for (TraceSource *t : traces_)
        t->serdeState(ar);
    ar.expectCount(cores_.size(), "cores");
    for (auto &c : cores_)
        c->serdeState(ar);
    caches_->serdeState(ar);
    mshrs_->serdeState(ar);
    das_->serdeState(ar);
    dram_->serdeState(ar);

    // Optional components: presence is config-derived and already
    // pinned by the fingerprint; these gates turn a serde bug into a
    // named error instead of a desync.
    bool has_checker = checker_ != nullptr;
    ar.io(has_checker);
    if (has_checker != (checker_ != nullptr))
        fatal("checkpoint: protocol-checker presence mismatch");
    if (checker_)
        checker_->serdeState(ar);
    bool has_tracer = tracer_ != nullptr;
    ar.io(has_tracer);
    if (has_tracer != (tracer_ != nullptr))
        fatal("checkpoint: request-tracer presence mismatch");
    if (tracer_) {
        tracer_->serdeState(ar);
        spanAgg_->serdeState(ar);
    }
    bool has_epochs = epochs_ != nullptr;
    ar.io(has_epochs);
    if (has_epochs != (epochs_ != nullptr))
        fatal("checkpoint: epoch-series presence mismatch");
    if (epochs_)
        epochs_->serdeState(ar);

    // Every registered statistic (cores, caches, DAS, DRAM, MSHRs,
    // span aggregator, nested groups) in registration order.
    statGroup_.serdeTree(ar);
    ar.end();
}

void
System::saveSnapshot(const std::string &path)
{
    Archive ar;
    std::uint64_t fp = configFingerprint(cfg_);
    ar.io(fp);
    serdeState(ar);
    std::string err = binfmt::writeEnvelopeFile(
        path, kSnapshotMagic, kSnapshotVersion, ar.take());
    if (!err.empty())
        fatal("checkpoint '{}': {}", path, err);
}

void
System::loadSnapshot(const std::string &path)
{
    binfmt::EnvelopeResult env = binfmt::readEnvelopeFile(
        path, kSnapshotMagic, kSnapshotVersion, "checkpoint");
    if (!env.ok())
        fatal("checkpoint '{}': {}", path, env.error);
    Archive ar(std::move(env.payload));
    std::uint64_t fp = 0;
    ar.io(fp);
    const std::uint64_t want = configFingerprint(cfg_);
    if (fp != want) {
        fatal("checkpoint '{}': config fingerprint mismatch ({} in "
              "file, {} for this configuration) — a restore needs the "
              "same state-shaping configuration the checkpoint was "
              "taken with (export paths and engine may differ)",
              path, fp, want);
    }
    serdeState(ar);
    ar.finish();
    // Reinstall the completion callbacks of requests and migrations
    // still in flight inside the DRAM system.
    das_->rebindInFlight();
}

void
System::dumpStats(std::ostream &os) const
{
    statGroup_.dump(os);
}

void
System::writeStatsJsonl(std::ostream &os) const
{
    StatsJsonlMeta meta;
    meta.workload = cfg_.obs.workloadName;
    meta.design = toString(cfg_.design);
    meta.label = cfg_.obs.label;
    meta.seed = cfg_.seed;
    meta.instructions = cfg_.instructionsPerCore;
    meta.epochCycles = epochs_ ? epochs_->epochLength() : 0;
    dasdram::writeStatsJsonl(os, statGroup_, epochs_.get(), meta);

    // Cross-channel rollups: the per-row-class read-latency picture
    // the paper's analysis needs, without making consumers merge
    // per-channel histograms themselves.
    Histogram read_all, read_row_hit, read_fast, read_slow, write_all;
    Distribution bank_read;
    for (unsigned c = 0; c < dram_->numChannels(); ++c) {
        const ChannelController &ch = dram_->channel(c);
        read_row_hit.merge(
            ch.readLatencyHistogram(ServiceLocation::RowBuffer));
        read_fast.merge(
            ch.readLatencyHistogram(ServiceLocation::FastLevel));
        read_slow.merge(
            ch.readLatencyHistogram(ServiceLocation::SlowLevel));
        write_all.merge(ch.writeLatencyHistogram());
        bank_read.merge(ch.mergedBankReadLatency());
    }
    read_all.merge(read_row_hit);
    read_all.merge(read_fast);
    read_all.merge(read_slow);

    StatGroup rollup("rollup");
    rollup.addHistogram("readLatency", &read_all,
                        "read latency, all classes, mem cycles");
    rollup.addHistogram("readLatencyRowHit", &read_row_hit,
                        "read latency, row-buffer hits, mem cycles");
    rollup.addHistogram("readLatencyFast", &read_fast,
                        "read latency, fast subarrays, mem cycles");
    rollup.addHistogram("readLatencySlow", &read_slow,
                        "read latency, slow subarrays, mem cycles");
    rollup.addHistogram("writeLatency", &write_all,
                        "write latency, mem cycles");
    rollup.addDistribution("bankReadLatency", &bank_read,
                           "per-bank read latency merged system-wide");
    writeStatsJsonlGroup(os, rollup);
}

} // namespace dasdram
