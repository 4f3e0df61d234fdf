/**
 * @file
 * Unit and property tests for the set-associative cache.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "cache/cache.hh"
#include "common/random.hh"
#include "common/serde.hh"

using namespace dasdram;

TEST(Cache, MissThenInsertThenHit)
{
    Cache c({1024, 2, 64}, "c");
    EXPECT_FALSE(c.access(0x100, false));
    c.insert(0x100, false);
    EXPECT_TRUE(c.access(0x100, false));
    EXPECT_EQ(c.hits(), 1u);
    EXPECT_EQ(c.misses(), 1u);
}

TEST(Cache, LineGranularity)
{
    Cache c({1024, 2, 64}, "c");
    c.insert(0x100, false);
    EXPECT_TRUE(c.access(0x100 + 63, false)); // same line
    EXPECT_FALSE(c.access(0x100 + 64, false)); // next line
}

TEST(Cache, LruEvictsLeastRecentlyUsed)
{
    // 2-way, 1 set: 128 B cache with 64 B lines.
    Cache c({128, 2, 64}, "c");
    c.insert(0 * 64, false);
    c.insert(1 * 64, false);
    c.access(0 * 64, false); // touch line 0 → line 1 is LRU
    Cache::Eviction ev = c.insert(2 * 64, false);
    ASSERT_TRUE(ev.valid);
    EXPECT_EQ(ev.line, 1u * 64);
    EXPECT_TRUE(c.probe(0 * 64));
    EXPECT_FALSE(c.probe(1 * 64));
}

TEST(Cache, DirtyTrackingThroughWriteAccess)
{
    Cache c({128, 2, 64}, "c");
    c.insert(0, false);
    c.insert(64, false);
    c.access(0, true); // dirties and refreshes line 0 → 64 is LRU
    Cache::Eviction ev = c.insert(128, false);
    ASSERT_TRUE(ev.valid);
    EXPECT_EQ(ev.line, 64u);
    EXPECT_FALSE(ev.dirty);
    // Now {0 (dirty, older), 128}: next insert evicts the dirty line.
    ev = c.insert(192, false);
    ASSERT_TRUE(ev.valid);
    EXPECT_EQ(ev.line, 0u);
    EXPECT_TRUE(ev.dirty);
}

TEST(Cache, InsertExistingRefreshesWithoutEviction)
{
    Cache c({128, 2, 64}, "c");
    c.insert(0, false);
    c.insert(64, false);
    Cache::Eviction ev = c.insert(0, true); // refresh + dirty
    EXPECT_FALSE(ev.valid);
    ev = c.insert(128, false); // evicts 64, not 0
    ASSERT_TRUE(ev.valid);
    EXPECT_EQ(ev.line, 64u);
}

TEST(Cache, InvalidateReportsDirtiness)
{
    Cache c({1024, 2, 64}, "c");
    c.insert(0x40, true);
    EXPECT_TRUE(c.invalidate(0x40));
    EXPECT_FALSE(c.probe(0x40));
    EXPECT_FALSE(c.invalidate(0x40)); // already gone
}

TEST(Cache, OccupancyGrowsToFull)
{
    Cache c({1024, 4, 64}, "c"); // 16 lines
    EXPECT_DOUBLE_EQ(c.occupancy(), 0.0);
    for (Addr a = 0; a < 1024; a += 64)
        c.insert(a, false);
    EXPECT_DOUBLE_EQ(c.occupancy(), 1.0);
}

class CacheGeometrySweep
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, unsigned>>
{
};

TEST_P(CacheGeometrySweep, WorkingSetSmallerThanCacheAlwaysHitsAfterWarm)
{
    auto [size, assoc] = GetParam();
    Cache c({size, assoc, 64}, "c");
    std::uint64_t lines = size / 64;
    // Warm exactly the cache capacity with a stride-1 set.
    for (std::uint64_t i = 0; i < lines; ++i)
        c.insert(i * 64, false);
    for (std::uint64_t i = 0; i < lines; ++i)
        EXPECT_TRUE(c.access(i * 64, false)) << "line " << i;
}

TEST_P(CacheGeometrySweep, CapacityNeverExceeded)
{
    auto [size, assoc] = GetParam();
    Cache c({size, assoc, 64}, "c");
    for (std::uint64_t i = 0; i < 4 * size / 64; ++i)
        c.insert(i * 64, false);
    EXPECT_DOUBLE_EQ(c.occupancy(), 1.0);
    // Evictions = inserts - capacity.
    EXPECT_EQ(c.evictions(), 4 * size / 64 - size / 64);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheGeometrySweep,
    ::testing::Values(std::make_tuple(4 * KiB, 1u),
                      std::make_tuple(4 * KiB, 4u),
                      std::make_tuple(64 * KiB, 8u),
                      std::make_tuple(256 * KiB, 16u)));

TEST(Cache, RandomReplacementStillBoundsCapacity)
{
    Cache c({4 * KiB, 4, 64, CacheRepl::Random}, "c");
    for (std::uint64_t i = 0; i < 500; ++i)
        c.insert(i * 64, false);
    EXPECT_DOUBLE_EQ(c.occupancy(), 1.0);
}

TEST(Cache, MatchesReferenceLruModel)
{
    // Property: under random traffic, Cache agrees exactly with a
    // straightforward list-based LRU reference model.
    const std::uint64_t size = 2 * KiB, assoc = 4, line = 64;
    const std::uint64_t sets = size / (line * assoc);
    Cache c({size, static_cast<unsigned>(assoc), line}, "dut");
    // reference[set] = lines most-recent-first
    std::vector<std::vector<Addr>> ref(sets);
    Rng rng(99);
    for (int i = 0; i < 20000; ++i) {
        Addr a = rng.nextBelow(4 * size / line) * line;
        std::uint64_t set = (a / line) % sets;
        auto &v = ref[set];
        auto it = std::find(v.begin(), v.end(), a);
        bool ref_hit = it != v.end();
        bool dut_hit = c.access(a, false);
        ASSERT_EQ(dut_hit, ref_hit) << "access " << i;
        if (ref_hit) {
            v.erase(it);
            v.insert(v.begin(), a);
        } else {
            // Fill like the hierarchy would.
            c.insert(a, false);
            v.insert(v.begin(), a);
            if (v.size() > assoc)
                v.pop_back();
        }
    }
}

namespace
{

/**
 * Naive reference cache: one vector of ways per set, each way a
 * (tag, valid, dirty, stamp) record, replacement exactly as specified
 * (first empty way, else LRU stamp or a random way from the same RNG
 * stream).
 */
class ReferenceCache
{
  public:
    struct Way
    {
        Addr tag = kAddrInvalid;
        bool valid = false;
        bool dirty = false;
        std::uint64_t stamp = 0;
    };

    ReferenceCache(const CacheConfig &cfg, std::uint64_t seed)
        : cfg_(cfg), sets_(cfg.numSets(), std::vector<Way>(cfg.assoc)),
          rng_(seed)
    {}

    bool
    access(Addr addr, bool is_write)
    {
        if (Way *w = find(addr)) {
            w->stamp = ++stampCounter_;
            w->dirty = w->dirty || is_write;
            ++hits;
            return true;
        }
        ++misses;
        return false;
    }

    Cache::Eviction
    insert(Addr addr, bool dirty)
    {
        Cache::Eviction ev;
        if (Way *w = find(addr)) {
            w->stamp = ++stampCounter_;
            w->dirty = w->dirty || dirty;
            return ev;
        }
        std::vector<Way> &set = setOf(addr);
        auto victim = std::find_if(set.begin(), set.end(),
                                   [](const Way &w) { return !w.valid; });
        if (victim == set.end()) {
            if (cfg_.repl == CacheRepl::Random) {
                victim = set.begin() + static_cast<std::ptrdiff_t>(
                                           rng_.nextBelow(cfg_.assoc));
            } else {
                victim = std::min_element(
                    set.begin(), set.end(), [](const Way &a, const Way &b) {
                        return a.stamp < b.stamp;
                    });
            }
            ev = {true, victim->tag, victim->dirty};
            ++evictions;
            dirtyEvictions += victim->dirty ? 1 : 0;
        }
        *victim = {lineOf(addr), true, dirty, ++stampCounter_};
        return ev;
    }

    bool probe(Addr addr) { return find(addr) != nullptr; }

    bool
    invalidate(Addr addr)
    {
        Way *w = find(addr);
        if (!w)
            return false;
        const bool was_dirty = w->dirty;
        w->tag = kAddrInvalid;
        w->valid = false;
        w->dirty = false;
        return was_dirty;
    }

    double
    occupancy() const
    {
        std::uint64_t valid = 0, total = 0;
        for (const auto &set : sets_) {
            for (const Way &w : set) {
                valid += w.valid ? 1 : 0;
                ++total;
            }
        }
        return static_cast<double>(valid) / static_cast<double>(total);
    }

    /** The snapshot layout: per line (tag, valid, dirty, stamp). */
    std::vector<unsigned char>
    snapshot()
    {
        Archive ar;
        ar.section("cache");
        ar.expectCount(sets_.size() * cfg_.assoc, "cache lines");
        for (auto &set : sets_) {
            for (Way &w : set) {
                ar.io(w.tag);
                ar.io(w.valid);
                ar.io(w.dirty);
                ar.io(w.stamp);
            }
        }
        ar.io(stampCounter_);
        rng_.serdeState(ar);
        ar.end();
        return ar.take();
    }

    std::uint64_t hits = 0, misses = 0, evictions = 0, dirtyEvictions = 0;

  private:
    Addr lineOf(Addr a) const { return a - a % cfg_.lineBytes; }

    std::vector<Way> &
    setOf(Addr a)
    {
        return sets_[(a / cfg_.lineBytes) % sets_.size()];
    }

    Way *
    find(Addr a)
    {
        for (Way &w : setOf(a)) {
            if (w.valid && w.tag == lineOf(a))
                return &w;
        }
        return nullptr;
    }

    CacheConfig cfg_;
    std::vector<std::vector<Way>> sets_;
    std::uint64_t stampCounter_ = 0;
    Rng rng_;
};

bool
sameEviction(const Cache::Eviction &a, const Cache::Eviction &b)
{
    return a.valid == b.valid && a.line == b.line && a.dirty == b.dirty;
}

std::vector<unsigned char>
snapshotOf(Cache &c)
{
    Archive ar;
    c.serdeState(ar);
    return ar.take();
}

/** Drive Cache and ReferenceCache with one random access / insert /
 *  invalidate stream over twice the cache's capacity. */
void
compareWithReference(const CacheConfig &cfg, std::uint64_t ops,
                     std::uint64_t seed)
{
    Cache dut(cfg, "dut", seed);
    ReferenceCache ref(cfg, seed);
    Rng rng(seed * 7919 + 1);
    const std::uint64_t span_lines = 2 * cfg.sizeBytes / cfg.lineBytes;
    for (std::uint64_t i = 0; i < ops; ++i) {
        // Unaligned addresses: the cache must truncate them to lines.
        const Addr a = rng.nextBelow(span_lines) * cfg.lineBytes +
                       rng.nextBelow(cfg.lineBytes);
        const bool w = rng.nextBelow(3) == 0;
        const std::uint64_t op = rng.nextBelow(16);
        if (op < 11) {
            const bool hit = ref.access(a, w);
            ASSERT_EQ(dut.access(a, w), hit) << "op " << i;
            if (hit)
                continue; // a miss is filled like the hierarchy would
        }
        if (op < 14) {
            // Fill, or writeback of a line that may already be present.
            ASSERT_TRUE(sameEviction(dut.insert(a, w), ref.insert(a, w)))
                << "op " << i;
        } else if (op < 15) {
            ASSERT_EQ(dut.invalidate(a), ref.invalidate(a)) << "op " << i;
        } else {
            ASSERT_EQ(dut.probe(a), ref.probe(a)) << "op " << i;
        }
    }
    EXPECT_EQ(dut.hits(), ref.hits);
    EXPECT_EQ(dut.misses(), ref.misses);
    EXPECT_EQ(dut.evictions(), ref.evictions);
    EXPECT_EQ(dut.dirtyEvictions(), ref.dirtyEvictions);
    EXPECT_GT(dut.evictions(), 0u);
    EXPECT_GT(dut.dirtyEvictions(), 0u);
    EXPECT_DOUBLE_EQ(dut.occupancy(), ref.occupancy());
    EXPECT_LT(dut.occupancy(), 1.0); // invalidations left holes

    // Snapshots keep the v1 per-line (tag, valid, dirty, stamp) layout,
    // and a restored copy continues exactly like the original.
    const std::vector<unsigned char> bytes = snapshotOf(dut);
    ASSERT_EQ(bytes, ref.snapshot());
    Cache restored(cfg, "restored", seed + 1);
    Archive in(bytes);
    restored.serdeState(in);
    EXPECT_EQ(snapshotOf(restored), bytes);
    EXPECT_DOUBLE_EQ(restored.occupancy(), dut.occupancy());
    for (std::uint64_t i = 0; i < 2000; ++i) {
        const Addr a = rng.nextBelow(span_lines) * cfg.lineBytes;
        const bool hit = dut.access(a, false);
        ASSERT_EQ(restored.access(a, false), hit);
        if (!hit) {
            ASSERT_TRUE(
                sameEviction(restored.insert(a, true), dut.insert(a, true)));
        }
    }
}

} // namespace

TEST(CacheReference, L1GeometryLru)
{
    compareWithReference({64 * KiB, 8, 64, CacheRepl::Lru}, 200000, 3);
}

TEST(CacheReference, L1GeometryRandom)
{
    compareWithReference({64 * KiB, 8, 64, CacheRepl::Random}, 200000, 4);
}

TEST(CacheReference, LlcGeometryLru)
{
    compareWithReference({4 * MiB, 8, 64, CacheRepl::Lru}, 600000, 5);
}

TEST(CacheReference, LlcGeometryRandom)
{
    compareWithReference({4 * MiB, 8, 64, CacheRepl::Random}, 600000, 6);
}
