/**
 * @file
 * Unit tests for the MSHR file, including a randomised check of the
 * dense table against a std::map reference model.
 */

#include <gtest/gtest.h>

#include <map>
#include <random>
#include <utility>
#include <vector>

#include "cache/mshr.hh"

using namespace dasdram;

TEST(Mshr, AllocateAndComplete)
{
    MshrFile m(4);
    EXPECT_FALSE(m.outstanding(0x100));
    m.allocate(0x100);
    EXPECT_TRUE(m.outstanding(0x100));
    int fired = 0;
    m.setDispatcher([&](const Continuation &c, Addr line, Cycle at) {
        EXPECT_EQ(c.kind, Continuation::Kind::CoreLoad);
        EXPECT_EQ(c.slot, 7u);
        EXPECT_EQ(line, 0x100u);
        EXPECT_EQ(at, 77u);
        ++fired;
    });
    m.addWaiter(0x100, Continuation::coreLoad(0, 7));
    m.complete(0x100, 77);
    EXPECT_EQ(fired, 1);
    EXPECT_FALSE(m.outstanding(0x100));
}

TEST(Mshr, MultipleWaitersAllFire)
{
    MshrFile m(4);
    m.allocate(0x40);
    int fired = 0;
    m.setDispatcher(
        [&](const Continuation &, Addr, Cycle) { ++fired; });
    for (unsigned i = 0; i < 5; ++i)
        m.addWaiter(0x40, Continuation::coreLoad(0, i));
    m.complete(0x40, 1);
    EXPECT_EQ(fired, 5);
    EXPECT_EQ(m.coalesced(), 5u);
}

TEST(Mshr, CapacityEnforced)
{
    MshrFile m(2);
    m.allocate(0x0);
    EXPECT_FALSE(m.full());
    m.allocate(0x40);
    EXPECT_TRUE(m.full());
    m.complete(0x0, 1);
    EXPECT_FALSE(m.full());
}

TEST(Mshr, AllocationsCounted)
{
    MshrFile m(8);
    m.allocate(0);
    m.allocate(64);
    m.complete(0, 1);
    m.allocate(128);
    EXPECT_EQ(m.allocations(), 3u);
    EXPECT_EQ(m.size(), 2u);
}

TEST(MshrDeathTest, DoubleAllocatePanics)
{
    MshrFile m(4);
    m.allocate(0x100);
    EXPECT_DEATH(m.allocate(0x100), "already outstanding");
}

TEST(MshrDeathTest, CompleteWithoutEntryPanics)
{
    MshrFile m(4);
    EXPECT_DEATH(m.complete(0x100, 0), "without outstanding");
}

namespace
{

/** Snapshot bytes of @p m (an MshrFile, or anything with serdeState). */
template <typename T>
std::vector<unsigned char>
snapshotBytes(T &m)
{
    Archive ar;
    m.serdeState(ar);
    return ar.take();
}

using WaiterMap = std::map<Addr, std::vector<Continuation>>;

/** The snapshot layout serdeState promises: entries sorted by line. */
std::vector<unsigned char>
sortedLayout(WaiterMap &model)
{
    Archive ar;
    ar.section("mshr");
    std::uint64_t n = model.size();
    ar.io(n);
    for (auto &[line, waiters] : model) {
        Addr l = line;
        ar.io(l);
        std::uint64_t w = waiters.size();
        ar.io(w);
        for (Continuation &c : waiters)
            c.serdeState(ar);
    }
    ar.end();
    return ar.take();
}

} // namespace

/**
 * Random allocate/addWaiter/complete sequences against a std::map
 * reference: the dense table must agree on outstanding/size/full at
 * every step, dispatch each fill's waiters in insertion order, write
 * the sorted snapshot layout, and restore from it.
 */
TEST(Mshr, MatchesMapReferenceModel)
{
    constexpr unsigned kCapacity = 6;
    constexpr unsigned kLines = 10; // more lines than slots: full() hits
    std::mt19937_64 rng(20251019);
    MshrFile m(kCapacity);
    WaiterMap model;
    std::vector<std::pair<Addr, std::uint32_t>> got, want;
    m.setDispatcher([&got](const Continuation &c, Addr line, Cycle) {
        got.emplace_back(line, c.slot);
    });
    std::uint32_t next_slot = 0;

    for (unsigned step = 0; step < 20000; ++step) {
        const Addr line = (rng() % kLines) * 64;
        const bool live = model.count(line) != 0;
        switch (rng() % 3) {
          case 0:
            if (!live && model.size() < kCapacity) {
                m.allocate(line);
                model[line];
            }
            break;
          case 1:
            if (live) {
                Continuation c = Continuation::coreLoad(0, next_slot++);
                m.addWaiter(line, c);
                model[line].push_back(c);
            }
            break;
          default:
            if (live) {
                for (const Continuation &c : model[line])
                    want.emplace_back(line, c.slot);
                model.erase(line);
                m.complete(line, step);
            }
            break;
        }
        ASSERT_EQ(m.size(), model.size()) << "step " << step;
        ASSERT_EQ(m.full(), model.size() >= kCapacity) << "step " << step;
        for (Addr l = 0; l < kLines * 64; l += 64)
            ASSERT_EQ(m.outstanding(l), model.count(l) != 0) << step;
        ASSERT_EQ(got, want) << "step " << step;
        if (step % 97 == 0) {
            ASSERT_EQ(snapshotBytes(m), sortedLayout(model)) << step;
            MshrFile restored(kCapacity);
            Archive in(snapshotBytes(m));
            restored.serdeState(in);
            ASSERT_EQ(snapshotBytes(restored), sortedLayout(model));
        }
    }
    EXPECT_GT(m.coalesced(), 0u);
}

/** A dispatcher may re-enter the file: allocate the line it was just
 *  woken for and complete another fill, without disturbing the
 *  waiters still being dispatched. */
TEST(Mshr, DispatcherMayReenter)
{
    MshrFile m(2);
    std::vector<std::uint32_t> order;
    m.setDispatcher([&](const Continuation &c, Addr line, Cycle t) {
        order.push_back(c.slot);
        if (c.slot == 0) {
            m.allocate(line); // the freed slot, reused at once
            m.complete(0x80, t);
        }
    });
    m.allocate(0x40);
    m.allocate(0x80);
    m.addWaiter(0x40, Continuation::coreLoad(0, 0));
    m.addWaiter(0x40, Continuation::coreLoad(0, 1));
    m.addWaiter(0x80, Continuation::coreLoad(0, 2));
    m.complete(0x40, 5);
    EXPECT_EQ(order, (std::vector<std::uint32_t>{0, 2, 1}));
    EXPECT_TRUE(m.outstanding(0x40));
    EXPECT_FALSE(m.outstanding(0x80));
    EXPECT_EQ(m.size(), 1u);
}
