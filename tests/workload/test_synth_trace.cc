/**
 * @file
 * Tests for the synthetic trace generator: determinism, address bounds,
 * calibration properties (memory ratio, write fraction, locality), the
 * gap table's exactness against direct evaluation, pinned stream
 * digests and snapshot continuity.
 *
 * Built with DASDRAM_GAP_SWEEP_FULL the gap-table sweep checks ±3000
 * draws around every bucket edge and rounding boundary plus 20 M
 * random draws per profile (`ctest -L stress`); the default build
 * checks ±256 draws and 200 k random ones.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <unordered_map>

#include "common/serde.hh"
#include "workload/spec_profiles.hh"
#include "workload/synth_trace.hh"

namespace dasdram
{

/** White-box access to SyntheticTrace's gap table (a friend). */
struct SyntheticTraceProbe
{
    static std::uint32_t
    tabled(const SyntheticTrace &t, std::uint64_t m)
    {
        return t.gapFor(m);
    }

    static std::uint32_t
    exact(const SyntheticTrace &t, std::uint64_t m)
    {
        return t.gapOf(m);
    }

    static bool
    untabled(const SyntheticTrace &t, std::uint64_t m)
    {
        return t.gapTable_[m >> (53 - SyntheticTrace::kGapTableBits)] ==
               SyntheticTrace::kGapUntabled;
    }

    static unsigned
    untabledBuckets(const SyntheticTrace &t)
    {
        unsigned n = 0;
        for (std::uint16_t g : t.gapTable_)
            n += g == SyntheticTrace::kGapUntabled ? 1 : 0;
        return n;
    }

    static double gapMean(const SyntheticTrace &t) { return t.gapMean_; }
};

} // namespace dasdram

using namespace dasdram;

TEST(SynthTrace, DeterministicForSameSeed)
{
    const BenchmarkProfile &p = specProfile("mcf");
    SyntheticTrace a(p, 99), b(p, 99);
    TraceEntry ea, eb;
    for (int i = 0; i < 5000; ++i) {
        ASSERT_TRUE(a.next(ea));
        ASSERT_TRUE(b.next(eb));
        ASSERT_EQ(ea.addr, eb.addr);
        ASSERT_EQ(ea.gap, eb.gap);
        ASSERT_EQ(ea.isWrite, eb.isWrite);
    }
}

TEST(SynthTrace, ResetReproducesStream)
{
    const BenchmarkProfile &p = specProfile("omnetpp");
    SyntheticTrace t(p, 5);
    std::vector<Addr> first;
    TraceEntry e;
    for (int i = 0; i < 1000; ++i) {
        t.next(e);
        first.push_back(e.addr);
    }
    t.reset();
    for (int i = 0; i < 1000; ++i) {
        t.next(e);
        ASSERT_EQ(e.addr, first[i]) << "at " << i;
    }
}

TEST(SynthTrace, DifferentSeedsDiffer)
{
    const BenchmarkProfile &p = specProfile("mcf");
    SyntheticTrace a(p, 1), b(p, 2);
    TraceEntry ea, eb;
    int same = 0;
    for (int i = 0; i < 1000; ++i) {
        a.next(ea);
        b.next(eb);
        same += (ea.addr == eb.addr) ? 1 : 0;
    }
    EXPECT_LT(same, 100);
}

class TraceProfileSweep : public ::testing::TestWithParam<std::string>
{
};

TEST_P(TraceProfileSweep, AddressesWithinFootprint)
{
    const BenchmarkProfile &p = specProfile(GetParam());
    SyntheticTrace t(p, 3);
    Addr limit = static_cast<Addr>(p.footprintMiB * MiB);
    TraceEntry e;
    for (int i = 0; i < 20000; ++i) {
        t.next(e);
        ASSERT_LT(e.addr, limit);
    }
}

TEST_P(TraceProfileSweep, MemRatioMatchesProfile)
{
    const BenchmarkProfile &p = specProfile(GetParam());
    SyntheticTrace t(p, 3);
    TraceEntry e;
    std::uint64_t mem = 0, inst = 0;
    for (int i = 0; i < 50000; ++i) {
        t.next(e);
        ++mem;
        inst += e.gap + 1;
    }
    double ratio = static_cast<double>(mem) / static_cast<double>(inst);
    EXPECT_NEAR(ratio, p.memRatio, 0.05 * p.memRatio + 0.01);
}

TEST_P(TraceProfileSweep, WriteFractionMatchesProfile)
{
    const BenchmarkProfile &p = specProfile(GetParam());
    SyntheticTrace t(p, 3);
    TraceEntry e;
    int writes = 0;
    const int n = 50000;
    for (int i = 0; i < n; ++i) {
        t.next(e);
        writes += e.isWrite ? 1 : 0;
    }
    EXPECT_NEAR(static_cast<double>(writes) / n, p.writeFraction, 0.02);
}

TEST_P(TraceProfileSweep, ShortTermReuseVisible)
{
    // With reuseProb ~0.9+, a large share of accesses repeat one of the
    // recent lines.
    const BenchmarkProfile &p = specProfile(GetParam());
    SyntheticTrace t(p, 3);
    TraceEntry e;
    std::vector<Addr> recent;
    int reuse_hits = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        t.next(e);
        Addr line = e.addr / 64;
        for (Addr r : recent)
            if (r == line) {
                ++reuse_hits;
                break;
            }
        recent.push_back(line);
        if (recent.size() > 16)
            recent.erase(recent.begin());
    }
    EXPECT_GT(static_cast<double>(reuse_hits) / n, p.reuseProb * 0.7);
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, TraceProfileSweep,
                         ::testing::ValuesIn(specBenchmarks()));

TEST(SynthTrace, WorkingSetConcentration)
{
    // Accesses concentrate on a resident working set far smaller than
    // the footprint — the property dynamic migration exploits.
    const BenchmarkProfile &p = specProfile("mcf");
    SyntheticTrace t(p, 7);
    TraceEntry e;
    std::unordered_map<std::uint64_t, int> page_counts;
    const int n = 300000;
    for (int i = 0; i < n; ++i) {
        t.next(e);
        ++page_counts[e.addr / 8192];
    }
    double footprint_pages = p.footprintMiB * MiB / 8192.0;
    EXPECT_LT(static_cast<double>(page_counts.size()),
              0.3 * footprint_pages);
    EXPECT_GT(static_cast<double>(n) /
                  static_cast<double>(page_counts.size()),
              5.0); // mean accesses per touched page
}

TEST(SynthTrace, PhaseAdvancesWithInstructions)
{
    BenchmarkProfile p = specProfile("milc");
    p.phaseInstructions = 10000;
    SyntheticTrace t(p, 11);
    TraceEntry e;
    while (t.generatedInstructions() < 100000)
        t.next(e);
    EXPECT_GE(t.phaseCount(), 5u);
}

TEST(SynthTrace, MixValidationIsFatal)
{
    BenchmarkProfile p = specProfile("mcf");
    p.pStream = 0.9; // breaks the sum
    EXPECT_DEATH(SyntheticTrace(p, 1), "must sum to 1");
}

TEST(SpecProfiles, TableTwoContents)
{
    EXPECT_EQ(specBenchmarks().size(), 10u);
    EXPECT_EQ(specMixes().size(), 8u);
    for (const auto &mix : specMixes()) {
        EXPECT_EQ(mix.size(), 4u);
        for (const auto &b : mix)
            EXPECT_NO_FATAL_FAILURE(specProfile(b));
    }
    // Spot-check Table 2's M8 = lbm, libquantum, mcf, soplex.
    const auto &m8 = specMixes()[7];
    EXPECT_EQ(m8[0], "lbm");
    EXPECT_EQ(m8[1], "libquantum");
    EXPECT_EQ(m8[2], "mcf");
    EXPECT_EQ(m8[3], "soplex");
    EXPECT_EQ(mixName(7), "M8");
}

TEST(SpecProfiles, UnknownNameIsFatal)
{
    EXPECT_DEATH(specProfile("nonexistent"), "unknown");
}

TEST(SpecProfiles, DensityBudgetRespectsFastLevel)
{
    // Simultaneously-hot rows per migration group (ring + hot set) must
    // stay near or below the 4 fast slots of a 32-row group at ratio
    // 1/8 — the calibration invariant behind Figure 7.
    for (const std::string &name : specBenchmarks()) {
        const BenchmarkProfile &p = specProfile(name);
        double active = std::min(
            p.footprintMiB * MiB / 8192.0,
            p.activeRegionFactor *
                static_cast<double>(p.workingSetPages));
        double density =
            32.0 *
            (static_cast<double>(p.workingSetPages) +
             p.hotFraction * active) /
            active;
        EXPECT_LE(density, 4.6) << name;
    }
}

namespace
{

using Probe = SyntheticTraceProbe;

#ifdef DASDRAM_GAP_SWEEP_FULL
constexpr std::uint64_t kSweepWindow = 3000;
constexpr int kSweepRandomDraws = 20'000'000;
#else
constexpr std::uint64_t kSweepWindow = 256;
constexpr int kSweepRandomDraws = 200'000;
#endif

/** One past the largest 53-bit gap draw. */
constexpr std::uint64_t kDrawLimit = std::uint64_t{1} << 53;

struct GapSweep
{
    std::uint64_t checked = 0;
    std::uint64_t mismatches = 0;
    std::uint64_t firstMismatch = 0;

    void
    check(const SyntheticTrace &t, std::uint64_t m)
    {
        ++checked;
        if (Probe::tabled(t, m) != Probe::exact(t, m) && mismatches++ == 0)
            firstMismatch = m;
    }

    /** Every draw within kSweepWindow of @p center (clamped to the
     *  draw range). Windows lying wholly in untabled buckets are
     *  skipped: there the lookup is gapOf itself. */
    void
    around(const SyntheticTrace &t, double center)
    {
        const std::uint64_t c =
            center >= static_cast<double>(kDrawLimit - 1)
                ? kDrawLimit - 1
                : static_cast<std::uint64_t>(center);
        const std::uint64_t lo = c > kSweepWindow ? c - kSweepWindow : 0;
        const std::uint64_t hi =
            std::min(c + kSweepWindow, kDrawLimit - 1);
        if (Probe::untabled(t, lo) && Probe::untabled(t, hi))
            return;
        for (std::uint64_t m = lo; m <= hi; ++m)
            check(t, m);
    }
};

/**
 * Table lookup vs gapOf on random draws, around all 1025 bucket edges
 * and around every rounding boundary m*_k = -expm1(-(k-1/2)/mean)·2^53
 * (where the exact gap steps from k-1 to k).
 */
GapSweep
sweepGapTable(const BenchmarkProfile &p)
{
    SyntheticTrace t(p, 1);
    GapSweep sweep;
    Rng rng(0x5eed);
    for (int i = 0; i < kSweepRandomDraws; ++i)
        sweep.check(t, rng.next() >> 11);
    for (unsigned k = 0; k <= 1024; ++k)
        sweep.around(t, static_cast<double>(k) * 0x1.0p43);
    const double mean = Probe::gapMean(t);
    for (std::uint32_t k = 1; mean > 0.0 && k < 0xffff; ++k) {
        double m = -std::expm1(-(k - 0.5) / mean) * 0x1.0p53;
        if (m >= 0x1.0p53)
            break;
        sweep.around(t, m);
    }
    return sweep;
}

const double kSweptMemRatios[] = {0.0002, 0.01, 0.05, 0.5, 0.9, 0.99, 1.0};

} // namespace

TEST(GapTable, MatchesGapOfOnEverySpecProfile)
{
    for (const std::string &name : specBenchmarks()) {
        GapSweep sweep = sweepGapTable(specProfile(name));
        EXPECT_GT(sweep.checked, static_cast<std::uint64_t>(
                                     kSweepRandomDraws))
            << name;
        EXPECT_EQ(sweep.mismatches, 0u)
            << name << ": first mismatch at draw " << sweep.firstMismatch;
    }
}

TEST(GapTable, MatchesGapOfAcrossMemRatios)
{
    for (double ratio : kSweptMemRatios) {
        BenchmarkProfile p = specProfile("mcf");
        p.memRatio = ratio;
        GapSweep sweep = sweepGapTable(p);
        EXPECT_EQ(sweep.mismatches, 0u)
            << "memRatio " << ratio << ": first mismatch at draw "
            << sweep.firstMismatch;
    }
}

TEST(GapTable, TabulatesAlmostEverySpecDraw)
{
    // Only buckets straddling a rounding boundary fall back to gapOf:
    // a few dozen at SPEC gap means, every bucket when the mean gap
    // is thousands of instructions.
    for (const std::string &name : specBenchmarks()) {
        SyntheticTrace t(specProfile(name), 1);
        EXPECT_LE(Probe::untabledBuckets(t), 32u) << name;
        EXPECT_GE(Probe::untabledBuckets(t), 1u) << name; // u -> 1
    }
    BenchmarkProfile sparse = specProfile("mcf");
    sparse.memRatio = 0.0002;
    EXPECT_EQ(Probe::untabledBuckets(SyntheticTrace(sparse, 1)), 1024u);
}

namespace
{

std::uint64_t
fnv1a(std::uint64_t h, std::uint64_t v, int bytes)
{
    for (int i = 0; i < bytes; ++i) {
        h ^= (v >> (8 * i)) & 0xff;
        h *= 0x100000001b3ULL;
    }
    return h;
}

/** FNV-1a over (gap u32, addr u64, isWrite u8) little-endian. */
std::uint64_t
streamDigest(const BenchmarkProfile &p, std::uint64_t seed, int records)
{
    SyntheticTrace t(p, seed);
    TraceEntry e;
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (int i = 0; i < records; ++i) {
        t.next(e);
        h = fnv1a(h, e.gap, 4);
        h = fnv1a(h, e.addr, 8);
        h = fnv1a(h, e.isWrite ? 1 : 0, 1);
    }
    return h;
}

std::uint64_t
bytesDigest(const std::vector<unsigned char> &bytes)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (unsigned char c : bytes)
        h = fnv1a(h, c, 1);
    return h;
}

} // namespace

TEST(SynthTrace, FirstRecordsMatchPinnedDigests)
{
    // Digests of the first 100 k records (seed 42) as generated by the
    // direct log() gap sampler the table replaced. Any change here is
    // a change to every simulated result.
    const std::pair<const char *, std::uint64_t> spec[] = {
        {"astar", 0x832993ccb4f12130ULL},
        {"cactusADM", 0x62fbcc5e1d86f862ULL},
        {"GemsFDTD", 0x47354b42581bc4f2ULL},
        {"lbm", 0xdaa397d0cc7c0173ULL},
        {"leslie3d", 0x31b9698586621749ULL},
        {"libquantum", 0x81bbf17380cf3525ULL},
        {"mcf", 0xd7b500b961b9027eULL},
        {"milc", 0x9a86068b3d87c7c8ULL},
        {"omnetpp", 0xbc1b03fd4cfa69a6ULL},
        {"soplex", 0x001e2947e1b5093eULL},
    };
    for (const auto &[name, digest] : spec)
        EXPECT_EQ(streamDigest(specProfile(name), 42, 100000), digest)
            << name;

    const std::uint64_t by_ratio[] = {
        0x59a8f9bbf34b0fc3ULL, 0x2ae5eb508d0a8f3dULL,
        0xc309b7fc311c71c3ULL, 0x135a50bde491fdecULL,
        0xa1afb27137f8280bULL, 0xaacdafbcefe1797fULL,
        0xaacdafbcefe1797fULL,
    };
    for (std::size_t i = 0; i < std::size(kSweptMemRatios); ++i) {
        BenchmarkProfile p = specProfile("mcf");
        p.memRatio = kSweptMemRatios[i];
        EXPECT_EQ(streamDigest(p, 42, 100000), by_ratio[i])
            << "memRatio " << p.memRatio;
    }
}

TEST(SynthTrace, SnapshotMidStreamContinuesIdentically)
{
    SyntheticTrace straight(specProfile("mcf"), 42);
    TraceEntry a, b;
    for (int i = 0; i < 5000; ++i)
        straight.next(a);
    Archive out;
    straight.serdeState(out);
    std::vector<unsigned char> bytes = out.take();
    // The v1 snapshot layout, pinned by size and digest.
    EXPECT_EQ(bytes.size(), 35138u);
    EXPECT_EQ(bytesDigest(bytes), 0x0f2be09d4bc1a3acULL);

    // Restore into a trace built with another memory ratio: the
    // snapshot's gap mean must take over, table included.
    BenchmarkProfile other = specProfile("mcf");
    other.memRatio = 0.05;
    SyntheticTrace restored(other, 42);
    Archive in(bytes);
    restored.serdeState(in);
    in.finish();
    for (int i = 0; i < 50000; ++i) {
        straight.next(a);
        restored.next(b);
        ASSERT_EQ(a.gap, b.gap) << "record " << i;
        ASSERT_EQ(a.addr, b.addr) << "record " << i;
        ASSERT_EQ(a.isWrite, b.isWrite) << "record " << i;
    }
}
