/**
 * @file
 * Top-level simulation configuration, defaulting to the paper's
 * Table 1 system: 3 GHz 4-wide cores with 192-entry ROBs; 64 KB L1 /
 * 256 KB L2 private, 4 MB shared LLC; FR-FCFS open-page controllers
 * with 32-entry queues; two 4 GB DDR3-1600 DIMMs over 2 channels ×
 * 2 ranks; DAS layout 1/8 fast with 32-row migration groups and a
 * 128 KB translation cache.
 */

#ifndef DASDRAM_SIM_SIM_CONFIG_HH
#define DASDRAM_SIM_SIM_CONFIG_HH

#include <cstdint>
#include <limits>
#include <string>

#include "cache/hierarchy.hh"
#include "core/das_manager.hh"
#include "core/designs.hh"
#include "core/replacement_policy.hh"
#include "core/subarray_layout.hh"
#include "cpu/core.hh"
#include "dram/controller.hh"
#include "dram/geometry.hh"
#include "sim/engine.hh"

namespace dasdram
{

/**
 * Observability knobs: latency/occupancy histograms, the epoch
 * time-series, and the two export files. Everything is per-System
 * (sweep-safe); empty paths and epochMemCycles == 0 disable the
 * corresponding feature at zero cost on the sample path.
 */
struct ObservabilityConfig
{
    /** Sample latency/queue histograms and per-bank breakdowns. */
    bool histograms = true;

    /** Epoch length of the stats time-series in memory-controller
     *  cycles (1.25 ns each); 0 disables the series. */
    Cycle epochMemCycles = 0;

    /** Stats-JSONL output path (see common/stats_jsonl.hh); written at
     *  end of run. Empty = off. */
    std::string statsOut;

    /**
     * Sweep mode: when non-empty, SweepRunner derives a unique
     * per-point statsOut under this (existing) directory —
     * point<idx>_<workload>_<design>[_<label>].jsonl, plus
     * baseline_<workload>.jsonl for memoised standard baselines.
     * Ignored by a System run directly.
     */
    std::string statsDir;

    /** Chrome trace_event JSON output path (dram/trace_json.hh);
     *  streamed during the run. Empty = off. */
    std::string traceOut;

    /**
     * Request-lifecycle tracing sample rate in [0, 1]: the fraction
     * of memory requests that carry a span record through the
     * controller (mem/request_trace.hh). 0 (default) disables the
     * tracer entirely — no sampler, no per-request pointer checks
     * beyond a null test. Sampling is deterministic in (seed, rate),
     * independent of the engine.
     */
    double traceRequests = 0.0;

    /** Span-JSONL output path (schema dasdram-spans); streamed during
     *  the run. Empty = off. Requires traceRequests > 0 to emit. */
    std::string spansOut;

    /** Run identity stamped into the stats meta record. */
    std::string workloadName;
    std::string label;
};

/** Everything needed to build one System. */
struct SimConfig
{
    /**
     * Workload spec string (workload/workload_spec.hh grammar). Tools
     * parse it into the WorkloadSpec that runSimulation builds the
     * traces from (numCores comes from its part count); callers that
     * build a System from explicit traces may leave it untouched.
     */
    std::string workload = "mcf";

    unsigned numCores = 1;
    CoreConfig core{};
    HierarchyConfig caches{};
    DramGeometry geom{};
    ControllerConfig ctrl{};
    LayoutConfig layout{};
    DasConfig das{};
    DesignKind design = DesignKind::Das;

    /**
     * Main-loop engine. The event engine is the default: it is proven
     * bit-identical to the tick engine by the differential suite, and
     * the tick engine stays available (--engine=tick) as the reference
     * oracle for that proof.
     */
    SimEngine engine = SimEngine::Event;

    /** Per-core instruction target (warm-up included). */
    InstCount instructionsPerCore = 10'000'000;

    /** Leading fraction of instructions excluded from statistics. */
    double warmupFraction = 0.2;

    /**
     * Profiling window of the static baselines as a multiple of the
     * measured run: lifetime profiling spans more program phases than
     * any one measured episode (Section 7.1's static-vs-dynamic gap).
     */
    double profileWindowMultiplier = 8.0;

    /** Base of core @p i's address region. */
    Addr coreStride = 1 * GiB;

    /** Deterministic seed for workload generation etc. */
    std::uint64_t seed = 42;

    /**
     * Run the online DRAM protocol checker on every issued command and
     * panic at end-of-run on violations. On by default so every sim
     * test doubles as a protocol test; turn off to shave the (small)
     * per-command overhead of long sweeps.
     */
    bool protocolCheck = true;

    /** MSHR entries (outstanding line fills) per core. */
    unsigned mshrsPerCore = 32;

    /** Histograms, epoch series and export files. */
    ObservabilityConfig obs{};

    Addr
    coreBase(unsigned core_id) const
    {
        return static_cast<Addr>(core_id) * coreStride;
    }

    InstCount
    warmupInstructions() const
    {
        return static_cast<InstCount>(
            warmupFraction * static_cast<double>(instructionsPerCore));
    }
};

/**
 * Apply the environment scale factor DAS_SIM_SCALE (a positive double)
 * to @p cfg's instruction target; used by tests and benches to trade
 * fidelity for speed. Returns the factor applied.
 */
double applySimScale(SimConfig &cfg);

/**
 * Whether a config field shapes simulated state. Semantic fields feed
 * configFingerprint, including observability knobs that change the
 * serialised shape (histograms, epoch length, span sampling rate).
 * Inert fields — the engine, the export paths and the run-identity
 * labels — are proven not to affect state, so a checkpoint restores
 * under a different engine or output set.
 */
enum class FieldTag
{
    Semantic,
    Inert,
};

/**
 * The interval a double field accepts, beyond being finite: [lo, hi),
 * or [lo, hi] when @c closed; the default accepts every finite value.
 */
struct FieldRange
{
    double lo = -std::numeric_limits<double>::infinity();
    double hi = std::numeric_limits<double>::infinity();
    bool closed = false;
};

/** One enum value and its config spelling. */
template <typename E>
struct Spelling
{
    E value;
    const char *name;
};

/**
 * The config spellings of an enum field type: table[] gives every
 * value its canonical token (written by configToJson, listed in
 * errors); a parse() member, where the enum already has a parse
 * function, reads tokens instead of a lookup in table[].
 */
template <typename E>
struct EnumSpellings;

template <>
struct EnumSpellings<DesignKind>
{
    static constexpr Spelling<DesignKind> table[] = {
        {DesignKind::Standard, "standard"}, {DesignKind::Sas, "sas"},
        {DesignKind::Charm, "charm"},       {DesignKind::Das, "das"},
        {DesignKind::DasFm, "das-fm"},      {DesignKind::Fs, "fs"},
    };
    static DesignKind parse(const std::string &s) { return parseDesign(s); }
};

template <>
struct EnumSpellings<SimEngine>
{
    static constexpr Spelling<SimEngine> table[] = {
        {SimEngine::Tick, "tick"}, {SimEngine::Event, "event"},
    };
    static SimEngine parse(const std::string &s) { return parseEngine(s); }
};

template <>
struct EnumSpellings<FastReplPolicy>
{
    static constexpr Spelling<FastReplPolicy> table[] = {
        {FastReplPolicy::Lru, "lru"},
        {FastReplPolicy::Random, "random"},
        {FastReplPolicy::Sequential, "sequential"},
        {FastReplPolicy::PseudoRandom, "pseudorandom"},
    };
    static FastReplPolicy
    parse(const std::string &s)
    {
        return parseFastReplPolicy(s);
    }
};

template <>
struct EnumSpellings<SchedPolicy>
{
    static constexpr Spelling<SchedPolicy> table[] = {
        {SchedPolicy::FrFcfs, "frfcfs"}, {SchedPolicy::Fcfs, "fcfs"},
    };
};

template <>
struct EnumSpellings<PagePolicy>
{
    static constexpr Spelling<PagePolicy> table[] = {
        {PagePolicy::Open, "open"}, {PagePolicy::Closed, "closed"},
    };
};

template <>
struct EnumSpellings<CacheRepl>
{
    static constexpr Spelling<CacheRepl> table[] = {
        {CacheRepl::Lru, "lru"}, {CacheRepl::Random, "random"},
    };
};

/**
 * The field table: every SimConfig field a run reads, listed once as
 * v.field(path, ref, tag[, range]) — its dotted JSON path, a typed
 * reference (std::string, bool, unsigned, std::uint64_t, double or an
 * enum with EnumSpellings), its FieldTag and, for a double that must
 * lie in a range, its FieldRange. configToJson, configFromJson,
 * configFingerprint and setConfigField are visitors over this list,
 * the idiom of serde.hh's Archive::io: one list drives every
 * direction, so they cannot drift. A path is "key" or "section.key";
 * each section's fields stay contiguous.
 *
 * Not listed, because System derives them: numCores (from the
 * workload spec; configFingerprint chains it in), ctrl.histograms
 * (copied from observability.histograms), das.mode and
 * das.zeroMigrationLatency (from the design), das.llcLatencyTicks
 * (from caches.llcLatencyCpu), and the ctrl.cmdSink/ctrl.spanSink
 * pointers.
 */
template <typename Visitor>
void
visitFields(SimConfig &c, Visitor &v)
{
    constexpr FieldTag S = FieldTag::Semantic;
    constexpr FieldTag I = FieldTag::Inert;
    v.field("workload", c.workload, S);
    v.field("design", c.design, S);
    v.field("engine", c.engine, I);
    v.field("seed", c.seed, S);
    v.field("instructionsPerCore", c.instructionsPerCore, S);
    v.field("warmupFraction", c.warmupFraction, S, FieldRange{0.0, 1.0});
    v.field("profileWindowMultiplier", c.profileWindowMultiplier, S);
    v.field("coreStrideBytes", c.coreStride, S);
    v.field("protocolCheck", c.protocolCheck, S);
    v.field("mshrsPerCore", c.mshrsPerCore, S);

    v.field("core.issueWidth", c.core.issueWidth, S);
    v.field("core.robSize", c.core.robSize, S);

    v.field("caches.l1SizeBytes", c.caches.l1.sizeBytes, S);
    v.field("caches.l1Assoc", c.caches.l1.assoc, S);
    v.field("caches.l1LineBytes", c.caches.l1.lineBytes, S);
    v.field("caches.l1Repl", c.caches.l1.repl, S);
    v.field("caches.l2SizeBytes", c.caches.l2.sizeBytes, S);
    v.field("caches.l2Assoc", c.caches.l2.assoc, S);
    v.field("caches.l2LineBytes", c.caches.l2.lineBytes, S);
    v.field("caches.l2Repl", c.caches.l2.repl, S);
    v.field("caches.llcSizeBytes", c.caches.llc.sizeBytes, S);
    v.field("caches.llcAssoc", c.caches.llc.assoc, S);
    v.field("caches.llcLineBytes", c.caches.llc.lineBytes, S);
    v.field("caches.llcRepl", c.caches.llc.repl, S);
    v.field("caches.l1LatencyCpu", c.caches.l1LatencyCpu, S);
    v.field("caches.l2LatencyCpu", c.caches.l2LatencyCpu, S);
    v.field("caches.llcLatencyCpu", c.caches.llcLatencyCpu, S);

    v.field("geometry.channels", c.geom.channels, S);
    v.field("geometry.ranksPerChannel", c.geom.ranksPerChannel, S);
    v.field("geometry.banksPerRank", c.geom.banksPerRank, S);
    v.field("geometry.rowsPerBank", c.geom.rowsPerBank, S);
    v.field("geometry.rowBytes", c.geom.rowBytes, S);
    v.field("geometry.lineBytes", c.geom.lineBytes, S);

    v.field("controller.readQueueDepth", c.ctrl.readQueueDepth, S);
    v.field("controller.writeQueueDepth", c.ctrl.writeQueueDepth, S);
    v.field("controller.writeHighWatermark", c.ctrl.writeHighWatermark, S);
    v.field("controller.writeLowWatermark", c.ctrl.writeLowWatermark, S);
    v.field("controller.sched", c.ctrl.sched, S);
    v.field("controller.page", c.ctrl.page, S);
    v.field("controller.refreshEnabled", c.ctrl.refreshEnabled, S);
    v.field("controller.migrationMaxDefer", c.ctrl.migrationMaxDefer, S);

    v.field("layout.fastRatioDenom", c.layout.fastRatioDenom, S);
    v.field("layout.groupSize", c.layout.groupSize, S);

    v.field("das.translationCacheBytes", c.das.translationCacheBytes, S);
    v.field("das.translationCacheAssoc", c.das.translationCacheAssoc, S);
    v.field("das.promotionThreshold", c.das.promotion.threshold, S);
    v.field("das.promotionCounters", c.das.promotion.counters, S);
    v.field("das.replacement", c.das.replacement, S);
    v.field("das.exclusiveCache", c.das.exclusiveCache, S);

    v.field("observability.histograms", c.obs.histograms, S);
    v.field("observability.epochMemCycles", c.obs.epochMemCycles, S);
    v.field("observability.statsOut", c.obs.statsOut, I);
    v.field("observability.statsDir", c.obs.statsDir, I);
    v.field("observability.traceOut", c.obs.traceOut, I);
    v.field("observability.traceRequests", c.obs.traceRequests, S,
            FieldRange{0.0, 1.0, /*closed=*/true});
    v.field("observability.spansOut", c.obs.spansOut, I);
    v.field("observability.workloadName", c.obs.workloadName, I);
    v.field("observability.label", c.obs.label, I);
}

/** Serialise @p cfg to compact JSON (configFromJson reads it back). */
std::string configToJson(const SimConfig &cfg);

/**
 * Parse a configuration from JSON text produced by configToJson (or
 * hand-written with the same keys). Keys are optional — missing ones
 * keep the default in @p base — but unknown keys, wrong kinds and
 * numbers the field cannot hold exactly are fatal, so typos never
 * silently run the default. Returns the merged configuration.
 */
SimConfig configFromJson(const std::string &text, SimConfig base = {});

/**
 * Apply one "path=value" assignment (dasdram_run --set) to @p cfg.
 * The path is any configToJson path, e.g. das.promotionThreshold;
 * the value is read by the same typed setter as configFromJson:
 * string and enum fields take the text as-is, other fields parse it
 * as a JSON number or bool. Unknown paths are fatal and list every
 * valid one.
 */
void setConfigField(SimConfig &cfg, const std::string &assignment);

/**
 * Deterministic fingerprint of every FieldTag::Semantic field (plus
 * numCores): the hash of their JSON image, so a field added to the
 * table is fingerprinted unless tagged Inert. Stamped into
 * checkpoints and enforced at load.
 */
std::uint64_t configFingerprint(const SimConfig &cfg);

} // namespace dasdram

#endif // DASDRAM_SIM_SIM_CONFIG_HH
