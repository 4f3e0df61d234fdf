/**
 * @file
 * Per-bank DRAM state machine enforcing row-class-dependent core-array
 * timing (tRCD/tRAS/tRP/tRC/tCL) plus column/precharge constraints.
 *
 * All times here are in memory-bus cycles (tCK = 1.25 ns).
 */

#ifndef DASDRAM_DRAM_BANK_HH
#define DASDRAM_DRAM_BANK_HH

#include <cstdint>

#include "common/serde.hh"
#include "common/types.hh"
#include "dram/timing.hh"

namespace dasdram
{

/**
 * One DRAM bank. The owning channel controller is responsible for
 * rank-level (tRRD/tFAW/refresh) and channel-level (bus) constraints;
 * the bank tracks only its own state and earliest-allowed times.
 *
 * Every state transition (ACT/PRE/RD/WR, reservation, refresh, reset)
 * bumps a monotone version counter. The controller keys its cached
 * earliest-command-ready cycles on these versions, so a cache entry is
 * valid exactly while the bank state it was derived from is unchanged.
 * Each bump also increments the owning channel's mutation counter, so
 * the channel can tell in O(1) whether any bank or rank changed.
 */
class Bank
{
  public:
    /** @p mutations is the owning channel's mutation counter; null
     *  for a bank outside any channel. */
    explicit Bank(const DramTiming &timing,
                  std::uint64_t *mutations = nullptr)
        : timing_(&timing), mutations_(mutations)
    {}

    /**
     * Monotone state-version counter: incremented by every mutator
     * (activate, precharge, read, write, reserve, refresh, reset).
     * Readiness caches derived from this bank's state are valid iff
     * the version they were computed at still matches.
     */
    std::uint64_t version() const { return version_; }

    /** True iff a row is latched in the row buffer. */
    bool hasOpenRow() const { return hasOpenRow_; }

    /** The open row. @pre hasOpenRow(). */
    std::uint64_t openRow() const { return openRow_; }

    /** Row class of the open row. @pre hasOpenRow(). */
    RowClass openRowClass() const { return openClass_; }

    /** True iff a migration/swap currently holds some row range. */
    bool reserved(Cycle now) const { return now < reservedUntil_; }

    /** Cycle the current reservation ends (0 when none). */
    Cycle reservedUntil() const { return reservedUntil_; }

    /**
     * Cumulative cycles this bank has spent reserved by migrations up
     * to cycle @p t (the part of an in-flight reservation past @p t
     * is excluded). Monotone in @p t; the difference of two snapshots
     * is exactly the reservation busy time inside the window, which
     * is what the request tracer uses for migration blame. @p t must
     * not precede the start of the current reservation (queries are
     * always made at the controller's current cycle).
     */
    Cycle
    reservedBusyUpTo(Cycle t) const
    {
        Cycle pending = reservedUntil_ > t ? reservedUntil_ - t : 0;
        return reservedBusyTotal_ - pending;
    }

    /**
     * True iff @p row is inside the row range held by an active
     * migration (its two subarrays). Rows outside the range stay
     * accessible: the migration uses the subarray-local row buffers
     * and per-subarray row logic (Section 4.1). The two rows being
     * swapped are exempt — their contents sit in the shared half row
     * buffers throughout the procedure (Figure 3d) and remain
     * serviceable at column-access cost.
     */
    bool
    rowBlocked(Cycle now, std::uint64_t row) const
    {
        return reserved(now) && row >= resRowLo_ && row < resRowHi_ &&
               row != resExemptA_ && row != resExemptB_;
    }

    /**
     * Absolute (now-free) form of rowBlocked: the cycle until which
     * @p row is held by the bank's reservation range, 0 when the row
     * is outside it or exempt. Once the reservation has expired the
     * returned cycle is in the past, so callers clamping against
     * "now + 1" need no freshness check — the stale bound is harmless.
     */
    Cycle
    blockedUntil(std::uint64_t row) const
    {
        return (row >= resRowLo_ && row < resRowHi_ &&
                row != resExemptA_ && row != resExemptB_)
                   ? reservedUntil_
                   : 0;
    }

    /// @name Command legality (bank-local constraints only)
    /// @{
    bool
    canActivate(Cycle now, std::uint64_t row) const
    {
        return !hasOpenRow_ && now >= actAllowedAt_ &&
               !rowBlocked(now, row);
    }

    bool
    canPrecharge(Cycle now) const
    {
        return hasOpenRow_ && now >= preAllowedAt_;
    }

    bool
    canColumn(Cycle now) const
    {
        return hasOpenRow_ && now >= colAllowedAt_;
    }

    /** Earliest cycle a column command could issue (kCycleMax if closed). */
    Cycle
    columnAllowedAt() const
    {
        return hasOpenRow_ ? colAllowedAt_ : kCycleMax;
    }

    Cycle actAllowedAt() const { return actAllowedAt_; }
    Cycle preAllowedAt() const { return preAllowedAt_; }

    /** Earliest cycle the open row could be precharged (kCycleMax when
     *  no row is open) — the bank-local PRE horizon. */
    Cycle
    prechargeReadyAt() const
    {
        return hasOpenRow_ ? preAllowedAt_ : kCycleMax;
    }
    /// @}

    /// @name Command application
    /// @{

    /** Open @p row of class @p cls at cycle @p now.
     *  @pre canActivate(now, row). */
    void activate(Cycle now, std::uint64_t row, RowClass cls);

    /** Close the open row. @pre canPrecharge(now). */
    void precharge(Cycle now);

    /**
     * Issue a read to the open row. @pre canColumn(now).
     * @return cycle the data burst completes.
     */
    Cycle read(Cycle now);

    /**
     * Issue a write to the open row. @pre canColumn(now).
     * @return cycle the write burst completes on the bus.
     */
    Cycle write(Cycle now);

    /**
     * Reserve rows [row_lo, row_hi) for an internal migration/swap of
     * @p duration cycles starting at @p now. The open row (if any)
     * must be outside the range; rows outside it stay serviceable.
     * @pre !reserved(now).
     */
    void reserve(Cycle now, Cycle duration, std::uint64_t row_lo,
                 std::uint64_t row_hi,
                 std::uint64_t exempt_a = kAddrInvalid,
                 std::uint64_t exempt_b = kAddrInvalid);

    /** Apply an all-bank refresh ending at @p done_at. */
    void refresh(Cycle done_at);
    /// @}

    /** Restore power-up state (testing). */
    void reset();

    /** Checkpoint the full bank state machine, including the version
     *  counter (restored caches keyed on it stay consistent) and the
     *  reservation busy-time accumulator blame attribution reads. */
    void
    serdeState(Archive &ar)
    {
        ar.io(version_);
        ar.io(hasOpenRow_);
        ar.io(openRow_);
        ar.io(openClass_);
        ar.io(actAllowedAt_);
        ar.io(preAllowedAt_);
        ar.io(colAllowedAt_);
        ar.io(reservedUntil_);
        ar.io(reservedBusyTotal_);
        ar.io(resRowLo_);
        ar.io(resRowHi_);
        ar.io(resExemptA_);
        ar.io(resExemptB_);
    }

  private:
    /** Record a state transition (every mutator calls this once). */
    void
    bump()
    {
        ++version_;
        if (mutations_)
            ++*mutations_;
    }

    const DramTiming *timing_;
    std::uint64_t *mutations_;

    std::uint64_t version_ = 0;

    bool hasOpenRow_ = false;
    std::uint64_t openRow_ = 0;
    RowClass openClass_ = RowClass::Slow;

    Cycle actAllowedAt_ = 0;
    Cycle preAllowedAt_ = 0;
    Cycle colAllowedAt_ = 0;
    Cycle reservedUntil_ = 0;
    Cycle reservedBusyTotal_ = 0;
    std::uint64_t resRowLo_ = 0;
    std::uint64_t resRowHi_ = 0;
    std::uint64_t resExemptA_ = kAddrInvalid;
    std::uint64_t resExemptB_ = kAddrInvalid;
};

} // namespace dasdram

#endif // DASDRAM_DRAM_BANK_HH
