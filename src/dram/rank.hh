/**
 * @file
 * Per-rank DRAM constraints: tRRD, the four-activate window (tFAW),
 * write-to-read turnaround and periodic refresh.
 */

#ifndef DASDRAM_DRAM_RANK_HH
#define DASDRAM_DRAM_RANK_HH

#include <array>
#include <vector>

#include "common/types.hh"
#include "dram/bank.hh"
#include "dram/timing.hh"

namespace dasdram
{

/**
 * One rank: a set of banks plus the rank-wide timing windows. Time unit
 * is memory-bus cycles.
 */
class Rank
{
  public:
    /** @p mutations is the owning channel's mutation counter, shared
     *  with every bank; null for a rank outside any channel. */
    Rank(const DramTiming &timing, unsigned num_banks,
         std::uint64_t *mutations = nullptr);

    Bank &bank(unsigned i) { return banks_[i]; }
    const Bank &bank(unsigned i) const { return banks_[i]; }
    unsigned numBanks() const { return static_cast<unsigned>(banks_.size()); }

    /**
     * Monotone version counter over the rank-wide timing state
     * (tRRD/tFAW window, tWTR, refresh schedule). Does not cover the
     * banks — each Bank carries its own version(). Every bump also
     * increments the channel's mutation counter.
     */
    std::uint64_t version() const { return version_; }

    /// @name Activation window (tRRD / tFAW)
    /// @{
    bool canActivate(Cycle now) const;
    /** Earliest cycle the rank-level ACT constraints are satisfied. */
    Cycle activateAllowedAt() const;
    /** Record an ACT at @p now. @pre canActivate(now). */
    void recordActivate(Cycle now);
    /// @}

    /// @name Write-to-read turnaround (tWTR)
    /// @{
    /** Earliest cycle a read column command may issue in this rank. */
    Cycle readAllowedAt() const { return readAllowedAt_; }
    /** Record a write burst ending at @p burst_end. */
    void recordWriteBurst(Cycle burst_end);
    /// @}

    /// @name Refresh
    /// @{
    /** True when a refresh is due at @p now (must drain this rank). */
    bool refreshDue(Cycle now) const { return now >= nextRefreshAt_; }

    /** True iff all banks are precharged and idle. */
    bool allBanksIdle(Cycle now) const;

    /**
     * Issue an all-bank refresh. @pre allBanksIdle(now) and each bank's
     * actAllowedAt has passed. Banks become usable at now + tRFC.
     */
    void refresh(Cycle now);

    /** Cycle of the next scheduled refresh. */
    Cycle nextRefreshAt() const { return nextRefreshAt_; }

    /** Total refreshes performed. */
    std::uint64_t refreshCount() const { return refreshCount_; }

    /**
     * Cumulative cycles this rank has spent refreshing (tRFC windows)
     * up to cycle @p t; the part of an in-flight refresh past @p t is
     * excluded. Monotone in @p t; the difference of two snapshots is
     * exactly the refresh busy time inside the window — the request
     * tracer's "refresh shadow" blame. Refresh and migration
     * reservations are provably disjoint per rank (refresh() requires
     * all banks unreserved), so bank reservation blame and rank
     * refresh blame never double-count a cycle.
     */
    Cycle
    refreshBusyUpTo(Cycle t) const
    {
        Cycle pending = refreshingUntil_ > t ? refreshingUntil_ - t : 0;
        return refreshBusyTotal_ - pending;
    }
    /// @}

    /** Checkpoint the rank windows, refresh schedule and every bank. */
    void
    serdeState(Archive &ar)
    {
        ar.section("rank");
        ar.expectCount(banks_.size(), "banks");
        for (Bank &b : banks_)
            b.serdeState(ar);
        for (Cycle &t : actTimes_)
            ar.io(t);
        ar.io(actHead_);
        ar.io(actCount_);
        ar.io(lastActAt_);
        ar.io(readAllowedAt_);
        ar.io(nextRefreshAt_);
        ar.io(refreshingUntil_);
        ar.io(refreshBusyTotal_);
        ar.io(refreshCount_);
        ar.io(version_);
        ar.end();
    }

  private:
    /** Record a rank-wide state transition. */
    void
    bump()
    {
        ++version_;
        if (mutations_)
            ++*mutations_;
    }

    const DramTiming *timing_;
    std::uint64_t *mutations_;
    std::vector<Bank> banks_;

    /** Times of the most recent four activates (ring buffer). */
    std::array<Cycle, 4> actTimes_{};
    unsigned actHead_ = 0;
    std::uint64_t actCount_ = 0;
    Cycle lastActAt_ = 0;

    Cycle readAllowedAt_ = 0;
    Cycle nextRefreshAt_;
    Cycle refreshingUntil_ = 0;
    Cycle refreshBusyTotal_ = 0;
    std::uint64_t refreshCount_ = 0;
    std::uint64_t version_ = 0;
};

} // namespace dasdram

#endif // DASDRAM_DRAM_RANK_HH
