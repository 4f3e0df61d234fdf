/**
 * @file
 * FlatU64Set against a std::set model: random inserts, erases (the
 * backward shift), lookups and clears over a key range small enough
 * to crowd the probe runs.
 */

#include <gtest/gtest.h>

#include <set>

#include "common/flat_set.hh"
#include "common/random.hh"

using namespace dasdram;

TEST(FlatU64Set, MatchesStdSetModel)
{
    Rng rng(0xf1a7);
    FlatU64Set set;
    std::set<std::uint64_t> model;
    for (unsigned step = 0; step < 200000; ++step) {
        // Keys clustered in a narrow range plus strided ones, so
        // homes collide and erases must shift whole runs back.
        const std::uint64_t key = rng.chance(0.5)
                                      ? rng.nextBelow(300)
                                      : rng.nextBelow(64) << 20;
        const std::uint64_t op = rng.nextBelow(100);
        if (op < 50) {
            EXPECT_EQ(set.insert(key), model.insert(key).second);
        } else if (op < 90) {
            EXPECT_EQ(set.erase(key), model.erase(key) == 1);
        } else if (op < 99) {
            EXPECT_EQ(set.contains(key), model.count(key) == 1);
        } else if (rng.chance(0.05)) {
            set.clear();
            model.clear();
        }
        ASSERT_EQ(set.size(), model.size()) << "step " << step;
    }
    const std::vector<std::uint64_t> keys(model.begin(), model.end());
    EXPECT_EQ(set.sorted(), keys);
    for (std::uint64_t k = 0; k < 300; ++k)
        EXPECT_EQ(set.contains(k), model.count(k) == 1) << k;
}

TEST(FlatU64Set, ClearKeepsKeysOut)
{
    FlatU64Set set;
    set.reserve(100);
    for (std::uint64_t k = 0; k < 100; ++k)
        EXPECT_TRUE(set.insert(k * 7919));
    EXPECT_FALSE(set.insert(7919));
    set.clear();
    EXPECT_EQ(set.size(), 0u);
    EXPECT_FALSE(set.contains(7919));
    EXPECT_FALSE(set.erase(7919));
    EXPECT_TRUE(set.insert(7919));
    EXPECT_EQ(set.sorted(), std::vector<std::uint64_t>{7919});
}
