/**
 * @file
 * Tests for the SimConfig field table (sim_config.hh): every field
 * survives serialise→parse and moves the fingerprint exactly when it
 * is tagged semantic, partial documents keep base defaults, enums
 * parse from their config spellings, --set assignments reach every
 * path, and unknown keys or numbers a field cannot hold fail loudly
 * instead of being silently dropped or truncated.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "sim/sim_config.hh"

using namespace dasdram;

TEST(ConfigJson, DefaultConfigRoundTripsExactly)
{
    SimConfig cfg;
    std::string json = configToJson(cfg);
    SimConfig back = configFromJson(json);
    EXPECT_EQ(configToJson(back), json);
}

TEST(ConfigJson, ModifiedFieldsSurviveTheRoundTrip)
{
    SimConfig cfg;
    cfg.workload = "mix:spec:mcf,spec:lbm";
    cfg.design = DesignKind::Charm;
    cfg.engine = SimEngine::Tick;
    cfg.seed = 1234;
    cfg.instructionsPerCore = 777'000;
    cfg.warmupFraction = 0.35;
    cfg.caches.l2.sizeBytes = 512 * 1024;
    cfg.geom.rowsPerBank = 16384;
    cfg.ctrl.readQueueDepth = 48;
    cfg.layout.fastRatioDenom = 4;
    cfg.das.promotion.threshold = 9;
    cfg.obs.histograms = false;
    cfg.obs.label = "roundtrip";

    SimConfig back = configFromJson(configToJson(cfg));
    EXPECT_EQ(back.workload, cfg.workload);
    EXPECT_EQ(back.design, DesignKind::Charm);
    EXPECT_EQ(back.engine, SimEngine::Tick);
    EXPECT_EQ(back.seed, 1234u);
    EXPECT_EQ(back.instructionsPerCore, 777'000u);
    EXPECT_DOUBLE_EQ(back.warmupFraction, 0.35);
    EXPECT_EQ(back.caches.l2.sizeBytes, 512u * 1024u);
    EXPECT_EQ(back.geom.rowsPerBank, 16384u);
    EXPECT_EQ(back.ctrl.readQueueDepth, 48u);
    EXPECT_EQ(back.layout.fastRatioDenom, 4u);
    EXPECT_EQ(back.das.promotion.threshold, 9u);
    EXPECT_FALSE(back.obs.histograms);
    EXPECT_EQ(back.obs.label, "roundtrip");
    EXPECT_EQ(configToJson(back), configToJson(cfg));
}

TEST(ConfigJson, EveryDesignAndEngineSpellingParses)
{
    for (DesignKind d :
         {DesignKind::Standard, DesignKind::Sas, DesignKind::Charm,
          DesignKind::Das, DesignKind::DasFm, DesignKind::Fs}) {
        SimConfig cfg;
        cfg.design = d;
        EXPECT_EQ(configFromJson(configToJson(cfg)).design, d);
    }
    for (SimEngine e : {SimEngine::Tick, SimEngine::Event}) {
        SimConfig cfg;
        cfg.engine = e;
        EXPECT_EQ(configFromJson(configToJson(cfg)).engine, e);
    }
}

TEST(ConfigJson, PartialDocumentKeepsBaseDefaults)
{
    SimConfig base;
    base.instructionsPerCore = 123'456;
    SimConfig out = configFromJson(R"({"seed": 7})", base);
    EXPECT_EQ(out.seed, 7u);
    EXPECT_EQ(out.instructionsPerCore, 123'456u);
    EXPECT_EQ(out.design, base.design);

    SimConfig nested =
        configFromJson(R"({"core": {"issueWidth": 2}})", base);
    EXPECT_EQ(nested.core.issueWidth, 2u);
    EXPECT_EQ(nested.core.robSize, base.core.robSize);
}

TEST(ConfigJson, UnknownKeysAreFatal)
{
    EXPECT_DEATH(configFromJson(R"({"sedd": 7})"), "sedd");
    EXPECT_DEATH(configFromJson(R"({"caches": {"l9SizeBytes": 1}})"),
                 "l9SizeBytes");
}

// Per-channel threading was removed: a config file written before
// that still names the key and must fail loudly, not run silently.
TEST(ConfigJson, RemovedChannelThreadsKeyIsFatal)
{
    EXPECT_DEATH(configFromJson(R"({"channelThreads": 4})"),
                 "channelThreads");
}

TEST(ConfigJson, MalformedJsonIsFatal)
{
    EXPECT_DEATH(configFromJson("{nope"), "");
    EXPECT_DEATH(configFromJson(R"({"design": "warp-drive"})"),
                 "warp-drive");
}

namespace
{

/** Counts the table's fields. */
struct FieldCounter
{
    std::size_t n = 0;

    template <typename T>
    void
    field(std::string_view, T &, FieldTag, FieldRange = {})
    {
        ++n;
    }
};

/** Changes the target-th field of the table to a different value. */
struct FieldPerturber
{
    explicit FieldPerturber(std::size_t t) : target(t) {}

    std::size_t target;
    std::size_t index = 0;
    std::string path;
    FieldTag tag = FieldTag::Semantic;

    template <typename T>
    void
    field(std::string_view p, T &v, FieldTag t, FieldRange = {})
    {
        if (index++ != target)
            return;
        path = p;
        tag = t;
        if constexpr (std::is_same_v<T, std::string>) {
            v += "x";
        } else if constexpr (std::is_same_v<T, bool>) {
            v = !v;
        } else if constexpr (std::is_enum_v<T>) {
            const auto &table = EnumSpellings<T>::table;
            const std::size_t n = std::size(table);
            for (std::size_t i = 0; i < n; ++i) {
                if (table[i].value == v) {
                    v = table[(i + 1) % n].value;
                    return;
                }
            }
        } else if constexpr (std::is_floating_point_v<T>) {
            v += 0.25;
        } else {
            v += 1;
        }
    }
};

} // namespace

TEST(ConfigJson, EveryFieldRoundTripsAndFingerprints)
{
    const SimConfig base;
    const std::string base_json = configToJson(base);
    const std::uint64_t base_fp = configFingerprint(base);
    // The only fields proven not to shape simulated state; pinned here
    // so that tagging a state-shaping field Inert fails.
    const std::set<std::string> inert = {
        "engine",
        "observability.statsOut",
        "observability.statsDir",
        "observability.traceOut",
        "observability.spansOut",
        "observability.workloadName",
        "observability.label",
    };
    FieldCounter counter;
    SimConfig scratch;
    visitFields(scratch, counter);
    ASSERT_GT(counter.n, 50u);
    for (std::size_t i = 0; i < counter.n; ++i) {
        SimConfig cfg = base;
        FieldPerturber p{i};
        visitFields(cfg, p);
        SCOPED_TRACE(p.path);
        const std::string json = configToJson(cfg);
        EXPECT_NE(json, base_json) << "perturbation not serialised";
        EXPECT_EQ(configToJson(configFromJson(json)), json);
        EXPECT_EQ(p.tag == FieldTag::Inert, inert.count(p.path) == 1);
        EXPECT_EQ(configFingerprint(cfg) != base_fp,
                  p.tag == FieldTag::Semantic);
    }

    // The fields the hand-kept lists had left out, set directly rather
    // than through the table, so dropping one from the table fails.
    const std::vector<void (*)(SimConfig &)> dropped_before = {
        [](SimConfig &c) { c.ctrl.sched = SchedPolicy::Fcfs; },
        [](SimConfig &c) { c.ctrl.page = PagePolicy::Closed; },
        [](SimConfig &c) { c.caches.llc.repl = CacheRepl::Random; },
        [](SimConfig &c) { c.caches.l2.lineBytes = 128; },
    };
    for (auto set : dropped_before) {
        SimConfig cfg = base;
        set(cfg);
        const std::string json = configToJson(cfg);
        EXPECT_NE(json, base_json);
        EXPECT_EQ(configToJson(configFromJson(json)), json);
        EXPECT_NE(configFingerprint(cfg), base_fp);
    }
}

// A --dump-config file written before the table existed: every key it
// names must still load, at the same nesting, to the same values.
TEST(ConfigJson, PreTableDumpLoadsToTheDefault)
{
    std::ifstream is(std::string(DASDRAM_TEST_DATA_DIR) +
                     "/config_pr14.json");
    ASSERT_TRUE(is);
    std::ostringstream text;
    text << is.rdbuf();
    SimConfig expected;
    expected.instructionsPerCore = 4'000'000; // dasdram_run's default
    EXPECT_EQ(configToJson(configFromJson(text.str())),
              configToJson(expected));
}

TEST(ConfigJson, NumbersThatDoNotFitTheFieldAreFatal)
{
    EXPECT_DEATH(configFromJson(R"({"mshrsPerCore": 2.5})"),
                 "'mshrsPerCore' must be an integer");
    EXPECT_DEATH(configFromJson(R"({"core": {"robSize": 4294967296}})"),
                 "'core.robSize' must be an integer");
    EXPECT_DEATH(
        configFromJson(R"({"das": {"promotionThreshold": 1e12}})"),
        "'das.promotionThreshold' must be an integer");
    EXPECT_DEATH(configFromJson(R"({"seed": -1})"),
                 "'seed' must be an integer");
    EXPECT_DEATH(configFromJson(R"({"seed": 18446744073709551616})"),
                 "'seed' must be an integer");
    EXPECT_DEATH(configFromJson(R"({"warmupFraction": 1e400})"),
                 "'warmupFraction' must be finite");
    EXPECT_DEATH(configFromJson(R"({"warmupFraction": NaN})"),
                 "'warmupFraction' must be finite");
    EXPECT_DEATH(configFromJson(R"({"protocolCheck": 1})"),
                 "'protocolCheck' must be a bool");
    EXPECT_DEATH(configFromJson(R"({"core": 4})"),
                 "'core' must be an object");
}

TEST(ConfigJson, WarmupFractionOutsideZeroToOneIsFatal)
{
    // A negative fraction made warmupInstructions() cast a negative
    // double to an unsigned count; 1 or more never starts the measured
    // window.
    EXPECT_DEATH(configFromJson(R"({"warmupFraction": -0.5})"),
                 "'warmupFraction' must be in \\[0, 1\\), got -0.5");
    EXPECT_DEATH(configFromJson(R"({"warmupFraction": 1.0})"),
                 "'warmupFraction' must be in \\[0, 1\\), got 1");
    EXPECT_DEATH(configFromJson(R"({"warmupFraction": 2})"),
                 "'warmupFraction' must be in \\[0, 1\\), got 2");
    SimConfig cfg;
    EXPECT_DEATH(setConfigField(cfg, "warmupFraction=-0.5"),
                 "'warmupFraction' must be in");
    EXPECT_DEATH(setConfigField(cfg, "warmupFraction=1"),
                 "'warmupFraction' must be in");
    setConfigField(cfg, "warmupFraction=0");
    EXPECT_EQ(cfg.warmupFraction, 0.0);
    setConfigField(cfg, "warmupFraction=0.999");
    EXPECT_EQ(cfg.warmupFraction, 0.999);
}

TEST(ConfigJson, TraceRequestsOutsideClosedZeroToOneIsFatal)
{
    // A sampling rate: both ends are meaningful (0 = off, 1 = every
    // request), anything outside them is not, as for --trace-requests.
    SimConfig cfg;
    EXPECT_DEATH(setConfigField(cfg, "observability.traceRequests=5"),
                 "'observability.traceRequests' must be in \\[0, 1\\], "
                 "got 5");
    EXPECT_DEATH(setConfigField(cfg, "observability.traceRequests=-0.1"),
                 "'observability.traceRequests' must be in \\[0, 1\\], "
                 "got -0.1");
    EXPECT_DEATH(
        configFromJson(R"({"observability": {"traceRequests": 1.5}})"),
        "'observability.traceRequests' must be in");
    for (double rate : {0.0, 0.25, 1.0}) {
        setConfigField(cfg, "observability.traceRequests=" +
                                std::to_string(rate));
        EXPECT_EQ(cfg.obs.traceRequests, rate);
    }
}

TEST(ConfigJson, SeedsAbove2To53RoundTripExactly)
{
    for (std::uint64_t seed :
         {std::uint64_t{9007199254740993ULL}, ~std::uint64_t{0}}) {
        SimConfig cfg;
        cfg.seed = seed;
        const std::string json = configToJson(cfg);
        EXPECT_EQ(configFromJson(json).seed, seed);
        SimConfig set;
        setConfigField(set, "seed=" + std::to_string(seed));
        EXPECT_EQ(set.seed, seed);
    }
}

TEST(ConfigJson, EnumSpellingsOfTheNewFieldsParse)
{
    SimConfig out = configFromJson(
        R"({"controller": {"sched": "fcfs", "page": "closed"},)"
        R"( "caches": {"llcRepl": "random"}})");
    EXPECT_EQ(out.ctrl.sched, SchedPolicy::Fcfs);
    EXPECT_EQ(out.ctrl.page, PagePolicy::Closed);
    EXPECT_EQ(out.caches.llc.repl, CacheRepl::Random);
    EXPECT_DEATH(configFromJson(R"({"controller": {"sched": "lifo"}})"),
                 "'controller.sched' must be one of frfcfs\\|fcfs");
}

TEST(ConfigSet, AssignsAnyJsonPath)
{
    SimConfig cfg;
    setConfigField(cfg, "das.promotionThreshold=4");
    setConfigField(cfg, "controller.sched=fcfs");
    setConfigField(cfg, "das.exclusiveCache=false");
    setConfigField(cfg, "warmupFraction=0.3");
    setConfigField(cfg, "workload=mix:spec:mcf,spec:lbm");
    setConfigField(cfg, "observability.label=123");
    EXPECT_EQ(cfg.das.promotion.threshold, 4u);
    EXPECT_EQ(cfg.ctrl.sched, SchedPolicy::Fcfs);
    EXPECT_FALSE(cfg.das.exclusiveCache);
    EXPECT_DOUBLE_EQ(cfg.warmupFraction, 0.3);
    EXPECT_EQ(cfg.workload, "mix:spec:mcf,spec:lbm");
    EXPECT_EQ(cfg.obs.label, "123");

    // The last assignment to a path wins, like repeated flags.
    setConfigField(cfg, "das.promotionThreshold=7");
    EXPECT_EQ(cfg.das.promotion.threshold, 7u);
}

TEST(ConfigSet, UnknownPathsAndBadValuesAreFatal)
{
    SimConfig cfg;
    // Spellings of the old hand-kept --set list are unknown keys.
    EXPECT_DEATH(setConfigField(cfg, "das.threshold=5"),
                 "unknown key 'das.threshold'.*das.promotionThreshold");
    EXPECT_DEATH(setConfigField(cfg, "sim.warmup=0.1"),
                 "unknown key 'sim.warmup'");
    EXPECT_DEATH(setConfigField(cfg, "das=5"), "unknown key 'das'");
    EXPECT_DEATH(setConfigField(cfg, "das.promotionThreshold"),
                 "need path=value");
    EXPECT_DEATH(setConfigField(cfg, "warmupFraction=1e400"),
                 "'warmupFraction' must be finite");
    EXPECT_DEATH(setConfigField(cfg, "das.promotionThreshold=2.5"),
                 "'das.promotionThreshold' must be an integer");
    EXPECT_DEATH(setConfigField(cfg, "das.promotionThreshold=four"),
                 "'das.promotionThreshold' must be a number");
    EXPECT_DEATH(setConfigField(cfg, "das.exclusiveCache=yes"),
                 "'das.exclusiveCache' must be a bool");
}
