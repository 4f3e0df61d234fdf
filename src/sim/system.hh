/**
 * @file
 * The full simulated system: cores, cache hierarchy, DAS manager and
 * DRAM, with the tick loop, warm-up handling and metric extraction.
 */

#ifndef DASDRAM_SIM_SYSTEM_HH
#define DASDRAM_SIM_SYSTEM_HH

#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cache/hierarchy.hh"
#include "cache/mshr.hh"
#include "common/continuation.hh"
#include "common/epoch_series.hh"
#include "common/serde.hh"
#include "core/das_manager.hh"
#include "core/designs.hh"
#include "cpu/core.hh"
#include "dram/dram_system.hh"
#include "dram/protocol_checker.hh"
#include "dram/trace_json.hh"
#include "sim/sim_config.hh"

namespace dasdram
{

/** End-of-run metrics of one simulation. */
struct RunMetrics
{
    std::vector<double> ipc;    ///< per core, measured window
    std::uint64_t cpuCycles = 0; ///< measured window
    InstCount instructions = 0;  ///< total retired (all cores)
    std::uint64_t llcMisses = 0; ///< demand misses
    LocationStats locations{};
    std::uint64_t promotions = 0;
    std::uint64_t memAccesses = 0; ///< requests below the LLC
    std::uint64_t footprintRows = 0;
    EnergyBreakdown energy{};

    /** Demand LLC misses per kilo-instruction. */
    double
    mpki() const
    {
        return instructions
                   ? 1000.0 * static_cast<double>(llcMisses) /
                         static_cast<double>(instructions)
                   : 0.0;
    }

    /** Promotions per kilo-miss (Figure 7b/e). */
    double
    ppkm() const
    {
        return llcMisses ? 1000.0 * static_cast<double>(promotions) /
                               static_cast<double>(llcMisses)
                         : 0.0;
    }

    /** Promotions per memory access (Figure 8c). */
    double
    promotionsPerAccess() const
    {
        return memAccesses ? static_cast<double>(promotions) /
                                 static_cast<double>(memAccesses)
                           : 0.0;
    }

    /** Footprint touched in MiB (measured window). */
    double
    footprintMiB(std::uint64_t row_bytes) const
    {
        return static_cast<double>(footprintRows * row_bytes) /
               static_cast<double>(MiB);
    }
};

/**
 * Owns and wires all components for one simulation run.
 */
class System
{
  public:
    /**
     * @param traces one per core; must outlive the system. Addresses
     *        are offset by cfg.coreBase(i).
     */
    System(const SimConfig &cfg, std::vector<TraceSource *> traces);

    ~System();

    System(const System &) = delete;
    System &operator=(const System &) = delete;

    /** Run to completion (instruction target on every core). */
    RunMetrics run();

    /** Access the manager (e.g. to program static tables) pre-run. */
    DasManager &manager() { return *das_; }
    DramSystem &dram() { return *dram_; }
    CacheHierarchy &caches() { return *caches_; }
    const AsymmetricLayout &layout() const { return *layout_; }
    const SimConfig &config() const { return cfg_; }

    /** The protocol checker (nullptr when cfg.protocolCheck is off). */
    const ProtocolChecker *protocolChecker() const { return checker_.get(); }

    /**
     * Additionally write every issued DRAM command to @p os (one line
     * per command; see dram/cmd_trace.hh). Call before run(); @p os
     * must outlive the system.
     */
    void attachCommandTrace(std::ostream &os);

    /**
     * Stream a Chrome trace_event JSON of the command stream (and
     * DasManager promotion instants) to @p os; finalised at end of
     * run(). Call before run(); @p os must outlive the system. Used
     * by tests; cfg.obs.traceOut does this against a file.
     */
    void attachChromeTrace(std::ostream &os);

    /**
     * Stream the sampled request-span JSONL (mem/request_trace.hh
     * schema) to @p os. Requires cfg.obs.traceRequests > 0 (the
     * sampler only exists then). Call before run(); @p os must
     * outlive the system. Used by tests; cfg.obs.spansOut does this
     * against a file.
     */
    void attachRequestSpanTrace(std::ostream &os);

    /** The request tracer (nullptr when cfg.obs.traceRequests == 0). */
    const RequestTracer *requestTracer() const { return tracer_.get(); }

    /** The span aggregator (nullptr when tracing is off). */
    const CriticalPathAggregator *spanAggregator() const
    {
        return spanAgg_.get();
    }

    /** Dump all statistics (post-run) to @p os. */
    void dumpStats(std::ostream &os) const;

    /**
     * Write the stats-JSONL export (schema in common/stats_jsonl.hh):
     * the full stat tree, system-level per-class read-latency rollups
     * (rollup.readLatency*), and the epoch series when enabled.
     * Call post-run; cfg.obs.statsOut does this against a file.
     */
    void writeStatsJsonl(std::ostream &os) const;

    /** The epoch series (nullptr when cfg.obs.epochMemCycles == 0). */
    const EpochSeries *epochs() const { return epochs_.get(); }

    /// @name Snapshot / restore
    /// @{

    /**
     * Serialise (or restore) every component's state through the one
     * serde visitor: cores, traces, caches, MSHRs, DAS manager, DRAM,
     * pending miss events, the clock, warm-up bookkeeping, the
     * protocol checker / tracer / epoch series when present, and the
     * full statistic tree. Symmetric — the same call drives both
     * directions.
     */
    void serdeState(Archive &ar);

    /**
     * Write a versioned checkpoint of the entire system to @p path:
     * a binfmt envelope (magic, schema version, payload length,
     * trailing checksum) whose payload opens with the configuration
     * fingerprint. Fatal on I/O error.
     */
    void saveSnapshot(const std::string &path);

    /**
     * Restore state from a checkpoint written by saveSnapshot. The
     * system must be built from a configuration whose fingerprint
     * matches the checkpoint's (export paths and engine may differ —
     * see configFingerprint); mismatches, bad magic, truncation and
     * too-new versions are fatal. A subsequent run() continues
     * bit-identically to a run that never stopped.
     */
    void loadSnapshot(const std::string &path);

    /**
     * Schedule a checkpoint: at the top of the first run() iteration
     * at or after @p tick the full state is saved to @p path. Tick 0
     * saves at the first iteration. Call before run(); repeatable.
     */
    void scheduleCheckpoint(Cycle tick, std::string path);

    /**
     * Save a checkpoint at the first iteration after the warm-up
     * statistics reset — the shared warm state that warm-start sweep
     * forking resumes from. Repeatable: every path is written.
     */
    void checkpointAtWarmup(std::string path);

    /** Checkpoint envelope identity (shared with tests and tools). */
    static constexpr std::uint32_t kSnapshotMagic = 0x504b4344u; // "DCKP"
    static constexpr std::uint16_t kSnapshotVersion = 1;
    /// @}

  private:
    /**
     * A deferred LLC-miss hand-off: the cache-latency delay between a
     * core access missing the hierarchy and the MSHR/DRAM side seeing
     * it. A POD (no closures) so the pending-event queue serialises
     * verbatim and a restored run pops events in exactly the straight
     * run's (at, seq) order.
     */
    struct MissEvent
    {
        Cycle at = 0;
        std::uint64_t seq = 0;
        unsigned core = 0;
        unsigned slot = Continuation::kNoSlot;
        Addr line = 0;
        bool isWrite = false;
        Cycle issueTick = 0;

        bool
        operator<(const MissEvent &o) const
        {
            return at != o.at ? at < o.at : seq < o.seq;
        }

        void
        serdeState(Archive &ar)
        {
            ar.io(at);
            ar.io(seq);
            ar.io(core);
            ar.io(slot);
            ar.io(line);
            ar.io(isWrite);
            ar.io(issueTick);
        }
    };

    /** Append @p ev to the pending-event FIFO; panics unless it sorts
     *  at or after the back (see events_). */
    void pushMissEvent(const MissEvent &ev);
    bool hasMissEvents() const { return eventHead_ < events_.size(); }
    const MissEvent &nextMissEvent() const { return events_[eventHead_]; }

    /**
     * @p slot: the issuing ROB slot for loads (completed via
     * Core::completeLoad), Continuation::kNoSlot for stores.
     */
    void handleCoreAccess(unsigned core, Addr addr, bool is_write,
                          unsigned slot);
    /** Run one due miss event (start the fill, register the waiter). */
    void runMissEvent(const MissEvent &ev);
    /**
     * Interpret a completed token: core-load wakeups and demand fills
     * from any component (MSHR dispatcher, DAS completion hook) funnel
     * through here.
     */
    void dispatchContinuation(const Continuation &cont, Cycle at);
    /** Save every scheduled checkpoint whose tick has been reached. */
    void maybeCheckpoint();
    /** Earliest scheduled-checkpoint tick (kCycleMax when none). */
    Cycle nextCheckpointTick() const;

    /**
     * Event engine: starting from the iteration scheduled at
     * @p next_cpu_at (the state as of the just-finished iteration at
     * now_), compute the minimum component horizon and skip every
     * provably idle CPU cycle up to it — batching the skipped cycles
     * into each core's counters and sampling the epoch series at every
     * boundary crossed, so stats are bit-identical to ticking through.
     * Returns the tick of the next iteration to execute (>= next_cpu_at).
     */
    Cycle fastForward(Cycle next_cpu_at);
    /**
     * fastForward behind the probe throttle: after a call that skips
     * nothing, the next probeBackoff_ calls are not made (their
     * iterations just tick), with probeBackoff_ growing 1, 3, 7, 15
     * over consecutive empty calls and clearing on any skip. Ticking
     * is always exact, so which calls are made never changes a result.
     */
    Cycle maybeFastForward(Cycle next_cpu_at);
    /**
     * Instructions @p core may retire inside a fast-forward span
     * before the next threshold run() observes per iteration — the
     * warm-up boundary or the completion target (retireThreshold_).
     * The crossing iteration itself must execute for real, so core
     * bursts stop short of it; a core already past the current
     * threshold (it is not the min-progress core) is unconstrained.
     */
    InstCount retireCap(const Core &core) const;
    /** @p issue_tick: the tick the core issued the access (the span's
     *  core-issue stage); @p at is when the LLC reported the miss. */
    void startMiss(unsigned core, Addr line, bool is_write, Cycle at,
                   Cycle issue_tick);
    void resetAfterWarmup();
    /** Re-point every channel at the active set of command sinks. */
    void rebuildCommandSinks();
    /** Run identity stamped into span-JSONL meta records. */
    SpanJsonlMeta spanMeta() const;

    SimConfig cfg_;
    std::vector<TraceSource *> traces_;

    std::unique_ptr<RowClassifier> classifier_;
    std::unique_ptr<AsymmetricLayout> layout_;
    DramTiming timing_;
    std::unique_ptr<ProtocolChecker> checker_;
    std::unique_ptr<CommandTrace> cmdTrace_;
    std::unique_ptr<ChromeTraceWriter> chromeTrace_;
    std::unique_ptr<std::ofstream> traceFile_; ///< backs obs.traceOut
    std::unique_ptr<CommandFanout> cmdFanout_;

    /// @name Request-lifecycle tracing (all null when traceRequests == 0)
    /// @{
    std::unique_ptr<RequestTracer> tracer_;
    std::unique_ptr<RequestSpanFanout> spanFanout_;
    std::unique_ptr<CriticalPathAggregator> spanAgg_;
    std::unique_ptr<SpanJsonlWriter> spanWriter_; ///< backs obs.spansOut
    std::unique_ptr<std::ofstream> spansFile_;
    /** Writers added via attachRequestSpanTrace (tests). */
    std::vector<std::unique_ptr<SpanJsonlWriter>> attachedSpanWriters_;
    /// @}

    std::unique_ptr<EpochSeries> epochs_;
    std::unique_ptr<DramSystem> dram_;
    std::unique_ptr<CacheHierarchy> caches_;
    std::unique_ptr<DasManager> das_;
    std::unique_ptr<MshrFile> mshrs_;
    std::vector<std::unique_ptr<Core>> cores_;

    /**
     * Pending miss events, a FIFO: the live ones are
     * events_[eventHead_..]. Every event is due a constant LLC latency
     * after the non-decreasing now_ that pushed it, so push order is
     * already (at, seq) order and no heap is needed.
     */
    std::vector<MissEvent> events_;
    std::size_t eventHead_ = 0;
    std::uint64_t eventSeq_ = 0;

    /** Scheduled (tick, path) checkpoints still to be taken. */
    std::vector<std::pair<Cycle, std::string>> checkpoints_;
    /** Checkpoints to take right after the warm-up reset. */
    std::vector<std::string> warmupCheckpointPaths_;

    Cycle now_ = 0;
    CacheHierarchy::WritebackSink wbSink_;
    std::uint64_t warmupCycleStamp_ = 0;
    bool warmupDone_ = false;

    /** Retired count run() next tests per core: min(warm-up, target)
     *  before the warm-up reset, target minus warm-up after it. Set
     *  by run() from warmupDone_, so it needs no snapshot field. */
    InstCount retireThreshold_ = 0;
    /// @name Probe throttle (host-only: not snapshotted, not in the
    /// config fingerprint; see maybeFastForward)
    /// @{
    unsigned probeBackoff_ = 0;
    unsigned probesToSkip_ = 0;
    /// @}

    StatGroup statGroup_;
};

} // namespace dasdram

#endif // DASDRAM_SIM_SYSTEM_HH
