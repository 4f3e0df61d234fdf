/**
 * @file
 * Miss-status holding registers: coalesce outstanding misses to the
 * same cache line so one DRAM request serves all waiters.
 */

#ifndef DASDRAM_CACHE_MSHR_HH
#define DASDRAM_CACHE_MSHR_HH

#include <functional>
#include <vector>

#include "common/continuation.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace dasdram
{

/**
 * Tracks in-flight line fills. Capacity-limited; callers must check
 * full() before allocating and stall otherwise.
 *
 * Waiters are serialisable Continuation tokens, not closures: the
 * owner installs one dispatcher that interprets every completed token,
 * so entries in flight at checkpoint time round-trip through a
 * snapshot and resume under the restored owner's dispatcher.
 *
 * Entries live in a dense table of at most `capacity` lines, found by
 * a linear scan. Each slot keeps its waiter buffer across fills, so
 * once the table has reached its peak occupancy and waiter counts the
 * allocate/addWaiter/complete cycle allocates nothing.
 */
class MshrFile
{
  public:
    /** Dispatcher: (waiter token, line address, completion tick). */
    using Dispatcher =
        std::function<void(const Continuation &, Addr, Cycle)>;

    explicit MshrFile(unsigned capacity, std::string name = "mshr");

    /** Install the waiter interpreter (required before complete()). */
    void setDispatcher(Dispatcher d) { dispatch_ = std::move(d); }

    /** True iff a miss to @p line is already outstanding. */
    bool outstanding(Addr line) const { return find(line) != kNone; }

    /** True iff no new entry can be allocated. */
    bool full() const { return used_ >= capacity_; }

    /**
     * Allocate an entry for @p line. @pre !outstanding(line) && !full().
     */
    void allocate(Addr line);

    /** Add a waiter to an outstanding entry. @pre outstanding(line). */
    void addWaiter(Addr line, Continuation w);

    /**
     * Complete the fill for @p line at @p tick: frees the entry, then
     * runs its waiters in the order they were added.
     * @pre outstanding(line).
     */
    void complete(Addr line, Cycle tick);

    std::size_t size() const { return used_; }
    std::uint64_t coalesced() const { return coalesced_.value(); }

    /** Unique line fills started (the paper-style miss count). */
    std::uint64_t allocations() const { return allocations_.value(); }

    StatGroup &stats() { return statGroup_; }

    /**
     * Checkpoint outstanding entries and their waiter tokens. Entries
     * are written sorted by line address — the table's slot order
     * never affects behaviour (complete() is per-line), so sorting
     * keeps snapshot bytes independent of it.
     */
    void serdeState(Archive &ar);

  private:
    static constexpr std::size_t kNone = ~std::size_t{0};

    /** Slot index of @p line among the used slots, or kNone. */
    std::size_t
    find(Addr line) const
    {
        for (std::size_t i = 0; i < used_; ++i) {
            if (lines_[i] == line)
                return i;
        }
        return kNone;
    }

    /** Take the first free slot for @p line (no checks, no stats). */
    std::size_t claimSlot(Addr line);

    unsigned capacity_;
    /** Slots [0, used_) are live; lines_[i] owns waiters_[i]. Both
     *  grow on demand up to capacity_ and never shrink. */
    std::vector<Addr> lines_;
    std::vector<std::vector<Continuation>> waiters_;
    std::size_t used_ = 0;
    /** complete() hands a fill's waiters over here before dispatching,
     *  so a dispatcher may allocate the freed slot again. */
    std::vector<Continuation> completing_;
    Dispatcher dispatch_;

    StatGroup statGroup_;
    Counter allocations_, coalesced_;
    Histogram occupancy_; ///< sampled after each allocation
};

} // namespace dasdram

#endif // DASDRAM_CACHE_MSHR_HH
