/**
 * @file
 * Unit tests for the deterministic PRNG.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <vector>

#include "common/random.hh"

using namespace dasdram;

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(123), b(123);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += (a.next() == b.next()) ? 1 : 0;
    EXPECT_LT(same, 5);
}

TEST(Rng, NextBelowStaysInRange)
{
    Rng r(7);
    for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 17ULL, 1000ULL}) {
        for (int i = 0; i < 200; ++i)
            EXPECT_LT(r.nextBelow(bound), bound);
    }
}

TEST(Rng, NextRangeInclusive)
{
    Rng r(9);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 1000; ++i) {
        std::uint64_t v = r.nextRange(5, 8);
        EXPECT_GE(v, 5u);
        EXPECT_LE(v, 8u);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 4u); // all four values hit
}

TEST(Rng, NextDoubleInUnitInterval)
{
    Rng r(11);
    double sum = 0.0;
    const int n = 10000;
    for (int i = 0; i < n; ++i) {
        double v = r.nextDouble();
        ASSERT_GE(v, 0.0);
        ASSERT_LT(v, 1.0);
        sum += v;
    }
    EXPECT_NEAR(sum / n, 0.5, 0.02); // mean of uniform(0,1)
}

TEST(Rng, ChanceExtremes)
{
    Rng r(13);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(r.chance(0.0));
        EXPECT_TRUE(r.chance(1.0));
    }
}

TEST(Rng, ChanceProbabilityRoughlyRespected)
{
    Rng r(17);
    int hits = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        hits += r.chance(0.3) ? 1 : 0;
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Rng, ZipfInRange)
{
    Rng r(19);
    for (int i = 0; i < 5000; ++i)
        EXPECT_LT(r.nextZipf(100, 0.8), 100u);
}

TEST(Rng, ZipfSkewsTowardLowRanks)
{
    Rng r(23);
    const std::uint64_t n = 1000;
    std::vector<int> counts(n, 0);
    for (int i = 0; i < 100000; ++i)
        ++counts[r.nextZipf(n, 1.1)];
    // Rank 0 must be much more popular than rank n/2.
    EXPECT_GT(counts[0], 10 * std::max(1, counts[n / 2]));
    // Head (top 10%) should hold the majority of mass at s=1.1.
    long head = 0, total = 0;
    for (std::uint64_t i = 0; i < n; ++i) {
        total += counts[i];
        if (i < n / 10)
            head += counts[i];
    }
    EXPECT_GT(head, total / 2);
}

TEST(Rng, ZipfSingleElement)
{
    Rng r(29);
    EXPECT_EQ(r.nextZipf(1, 0.8), 0u);
}

class RngZipfSweep : public ::testing::TestWithParam<double>
{
};

TEST_P(RngZipfSweep, MonotonicHeadMass)
{
    // Property: mass on the top decile never decreases as s grows.
    double s = GetParam();
    Rng r(31);
    const std::uint64_t n = 500;
    long head = 0;
    const int draws = 50000;
    for (int i = 0; i < draws; ++i)
        head += (r.nextZipf(n, s) < n / 10) ? 1 : 0;
    // At s = 0 the head should hold ~10%; it only grows with s.
    double share = static_cast<double>(head) / draws;
    EXPECT_GT(share, 0.08);
    if (s >= 1.0) {
        EXPECT_GT(share, 0.45);
    }
}

INSTANTIATE_TEST_SUITE_P(Skews, RngZipfSweep,
                         ::testing::Values(0.0, 0.5, 0.8, 1.0, 1.2));

namespace
{

/** nextZipf as it was before its (n, s) invariants were hoisted:
 *  every pow and divide evaluated per draw. */
std::uint64_t
perCallZipf(Rng &r, std::uint64_t n, double s)
{
    if (n <= 1)
        return 0;
    double u = r.nextDouble();
    if (s == 1.0)
        s = 1.0000001;
    double exponent = 1.0 - s;
    double hi = std::pow(static_cast<double>(n) + 1.0, exponent);
    double x = std::pow(u * (hi - 1.0) + 1.0, 1.0 / exponent);
    std::uint64_t rank = static_cast<std::uint64_t>(x) - 1;
    return (rank >= n) ? n - 1 : rank;
}

} // namespace

TEST(Rng, ZipfShapeIsBitIdenticalToPerCallFormula)
{
    const std::uint64_t sizes[] = {1, 2, 17, 1000, 4300, 1u << 20};
    const double skews[] = {0.5, 0.8, 1.0, 1.05, 1.1, 2.0};
    std::uint64_t seed = 1;
    for (std::uint64_t n : sizes) {
        for (double s : skews) {
            const ZipfShape shape(n, s);
            Rng hoisted(seed), direct(seed), reference(seed);
            ++seed;
            for (int i = 0; i < 5000; ++i) {
                std::uint64_t want = perCallZipf(reference, n, s);
                ASSERT_EQ(hoisted.nextZipf(shape), want)
                    << "n " << n << " s " << s << " draw " << i;
                ASSERT_EQ(direct.nextZipf(n, s), want)
                    << "n " << n << " s " << s << " draw " << i;
            }
            // Same number of draws consumed: the streams stay aligned.
            EXPECT_EQ(hoisted.next(), reference.next());
        }
    }
}
