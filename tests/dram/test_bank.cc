/**
 * @file
 * Unit tests for the bank state machine, including row-class-dependent
 * timing and migration reservations.
 */

#include <gtest/gtest.h>

#include "dram/bank.hh"

using namespace dasdram;

class BankTest : public ::testing::Test
{
  protected:
    BankTest() : timing(ddr3_1600Timing()), bank(timing) {}

    DramTiming timing;
    Bank bank;
};

TEST_F(BankTest, PowerUpIdle)
{
    EXPECT_FALSE(bank.hasOpenRow());
    EXPECT_TRUE(bank.canActivate(0, 5));
    EXPECT_FALSE(bank.canPrecharge(0));
    EXPECT_FALSE(bank.canColumn(0));
}

TEST_F(BankTest, ActivateOpensRowAfterTrcd)
{
    bank.activate(0, 42, RowClass::Slow);
    EXPECT_TRUE(bank.hasOpenRow());
    EXPECT_EQ(bank.openRow(), 42u);
    EXPECT_EQ(bank.openRowClass(), RowClass::Slow);
    EXPECT_FALSE(bank.canColumn(timing.slow.tRCD - 1));
    EXPECT_TRUE(bank.canColumn(timing.slow.tRCD));
}

TEST_F(BankTest, FastRowUsesFastTiming)
{
    bank.activate(0, 7, RowClass::Fast);
    EXPECT_FALSE(bank.canColumn(timing.fast.tRCD - 1));
    EXPECT_TRUE(bank.canColumn(timing.fast.tRCD));
    // Precharge allowed at fast tRAS, before slow tRAS.
    EXPECT_FALSE(bank.canPrecharge(timing.fast.tRAS - 1));
    EXPECT_TRUE(bank.canPrecharge(timing.fast.tRAS));
}

TEST_F(BankTest, TrasGatesPrecharge)
{
    bank.activate(0, 1, RowClass::Slow);
    EXPECT_FALSE(bank.canPrecharge(timing.slow.tRAS - 1));
    EXPECT_TRUE(bank.canPrecharge(timing.slow.tRAS));
}

TEST_F(BankTest, TrcGatesNextActivate)
{
    bank.activate(0, 1, RowClass::Slow);
    bank.precharge(timing.slow.tRAS);
    EXPECT_FALSE(bank.hasOpenRow());
    // Next ACT gated by tRAS + tRP == tRC.
    EXPECT_FALSE(bank.canActivate(timing.slow.tRC - 1, 2));
    EXPECT_TRUE(bank.canActivate(timing.slow.tRC, 2));
}

TEST_F(BankTest, LatePrechargeDelaysActivate)
{
    bank.activate(0, 1, RowClass::Slow);
    Cycle pre_at = timing.slow.tRAS + 10;
    bank.precharge(pre_at);
    EXPECT_FALSE(bank.canActivate(pre_at + timing.slow.tRP - 1, 2));
    EXPECT_TRUE(bank.canActivate(pre_at + timing.slow.tRP, 2));
}

TEST_F(BankTest, ReadReturnsBurstEndAndGatesPrecharge)
{
    bank.activate(0, 1, RowClass::Slow);
    Cycle rd_at = timing.slow.tRCD;
    Cycle end = bank.read(rd_at);
    EXPECT_EQ(end, rd_at + timing.slow.tCL + timing.tBL);
    // tRTP pushes precharge but never below tRAS.
    EXPECT_GE(bank.preAllowedAt(), rd_at + timing.tRTP);
}

TEST_F(BankTest, WriteRecoveryGatesPrecharge)
{
    bank.activate(0, 1, RowClass::Slow);
    Cycle wr_at = timing.slow.tRCD;
    Cycle end = bank.write(wr_at);
    EXPECT_EQ(end, wr_at + timing.tCWL + timing.tBL);
    EXPECT_FALSE(bank.canPrecharge(end + timing.tWR - 1));
    EXPECT_TRUE(bank.canPrecharge(end + timing.tWR));
}

TEST_F(BankTest, ReservationBlocksOnlyRange)
{
    bank.reserve(0, 100, 32, 64);
    EXPECT_TRUE(bank.reserved(50));
    EXPECT_TRUE(bank.rowBlocked(50, 40));
    EXPECT_FALSE(bank.rowBlocked(50, 10));
    EXPECT_FALSE(bank.rowBlocked(50, 64));
    EXPECT_FALSE(bank.canActivate(50, 40));
    EXPECT_TRUE(bank.canActivate(50, 10));
    // After expiry everything is accessible again.
    EXPECT_FALSE(bank.reserved(100));
    EXPECT_TRUE(bank.canActivate(100, 40));
}

TEST_F(BankTest, ReservationExemptsSwapRows)
{
    bank.reserve(0, 100, 32, 64, 40, 50);
    EXPECT_FALSE(bank.rowBlocked(10, 40));
    EXPECT_FALSE(bank.rowBlocked(10, 50));
    EXPECT_TRUE(bank.rowBlocked(10, 41));
}

TEST_F(BankTest, OpenRowOutsideRangeSurvivesReservation)
{
    bank.activate(0, 5, RowClass::Slow);
    bank.reserve(1, 100, 32, 64);
    EXPECT_TRUE(bank.hasOpenRow());
    EXPECT_TRUE(bank.canColumn(timing.slow.tRCD));
}

TEST_F(BankTest, ResetRestoresPowerUpState)
{
    bank.activate(0, 1, RowClass::Fast);
    bank.reset();
    EXPECT_FALSE(bank.hasOpenRow());
    EXPECT_TRUE(bank.canActivate(0, 1));
}

using BankDeathTest = BankTest;

TEST_F(BankDeathTest, DoubleActivatePanics)
{
    bank.activate(0, 1, RowClass::Slow);
    EXPECT_DEATH(bank.activate(1, 2, RowClass::Slow), "timing violation");
}

TEST_F(BankDeathTest, EarlyColumnPanics)
{
    bank.activate(0, 1, RowClass::Slow);
    EXPECT_DEATH(bank.read(0), "timing violation");
}

TEST_F(BankDeathTest, ReserveOverOpenRowInRangePanics)
{
    bank.activate(0, 40, RowClass::Slow);
    EXPECT_DEATH(bank.reserve(1, 100, 32, 64), "open row");
}

// The readiness cache in the controller keys on the bank version: every
// mutator must bump it, and non-mutating queries must not, or a cached
// earliest-ready cycle would survive a state transition it depends on.
TEST_F(BankTest, VersionBumpsOnEveryMutator)
{
    std::uint64_t v = bank.version();

    bank.activate(0, 5, RowClass::Slow);
    EXPECT_GT(bank.version(), v);
    v = bank.version();

    bank.read(timing.slow.tRCD);
    EXPECT_GT(bank.version(), v);
    v = bank.version();

    bank.write(timing.slow.tRCD + 10);
    EXPECT_GT(bank.version(), v);
    v = bank.version();

    Cycle pre_at = bank.preAllowedAt();
    bank.precharge(pre_at);
    EXPECT_GT(bank.version(), v);
    v = bank.version();

    bank.reserve(pre_at, 100, 32, 64, 40, 50);
    EXPECT_GT(bank.version(), v);
    v = bank.version();

    bank.refresh(pre_at + 200 + timing.tRFC);
    EXPECT_GT(bank.version(), v);
    v = bank.version();

    bank.reset();
    EXPECT_GT(bank.version(), v);
}

TEST_F(BankTest, VersionStableAcrossQueries)
{
    bank.activate(0, 5, RowClass::Fast);
    const std::uint64_t v = bank.version();
    (void)bank.hasOpenRow();
    (void)bank.openRow();
    (void)bank.canColumn(timing.fast.tRCD);
    (void)bank.canPrecharge(timing.fast.tRAS);
    (void)bank.canActivate(0, 9);
    (void)bank.rowBlocked(0, 5);
    (void)bank.reserved(0);
    EXPECT_EQ(bank.version(), v);
}

// Each version bump also counts in the owning channel's mutation
// counter (the channel's O(1) state signature), and only in that one.
TEST_F(BankTest, EveryMutatorCountsInItsOwnChannelOnly)
{
    std::uint64_t chan = 0, other_chan = 0;
    Bank b(timing, &chan);
    Bank other(timing, &other_chan);
    auto expect_counted = [&](const char *what) {
        EXPECT_EQ(chan, b.version()) << what;
        EXPECT_EQ(other_chan, 0u) << what;
    };

    b.activate(0, 5, RowClass::Slow);
    expect_counted("activate");
    b.read(timing.slow.tRCD);
    expect_counted("read");
    b.write(timing.slow.tRCD + 10);
    expect_counted("write");
    const Cycle pre_at = b.preAllowedAt();
    b.precharge(pre_at);
    expect_counted("precharge");
    b.reserve(pre_at, 100, 32, 64, 40, 50);
    expect_counted("reserve");
    b.refresh(pre_at + 200 + timing.tRFC);
    expect_counted("refresh");
    b.reset();
    expect_counted("reset");
    EXPECT_EQ(chan, 7u);

    // Queries count nothing; a bank outside any channel still versions.
    (void)b.canActivate(0, 9);
    (void)b.rowBlocked(0, 5);
    EXPECT_EQ(chan, 7u);
    bank.activate(0, 5, RowClass::Slow);
    EXPECT_EQ(chan, 7u);
    EXPECT_EQ(other_chan, 0u);
}

// Reset is an invalidation edge of its own: any cached ready cycle
// derived from pre-reset state must be discarded even though the bank
// looks "idle" again afterwards.
TEST_F(BankTest, ResetInvalidatesDespiteIdleLookalike)
{
    const std::uint64_t v0 = bank.version();
    bank.activate(0, 1, RowClass::Slow);
    bank.reset();
    EXPECT_FALSE(bank.hasOpenRow());
    EXPECT_GT(bank.version(), v0);
}
