/**
 * @file
 * ROB-window out-of-order core model (Table 1: 3 GHz, 4-wide issue,
 * 192-entry ROB).
 *
 * Every instruction occupies a window slot; non-memory instructions and
 * stores complete immediately, loads complete when the memory system
 * calls back. Retirement is in order, up to issue-width per cycle, so
 * a long-latency load at the head stalls the core exactly as a ROB
 * does. This converts memory latency into IPC the same way detailed
 * cores do for memory-bound workloads.
 *
 * Only loads carry per-slot state: everything else is ready to retire
 * from the cycle after its dispatch, so retirement walks the window's
 * loads (not its slots) and runs of gap bubbles dispatch by moving the
 * tail cursor alone.
 */

#ifndef DASDRAM_CPU_CORE_HH
#define DASDRAM_CPU_CORE_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "cpu/trace.hh"
#include "mem/clock.hh"

namespace dasdram
{

/** Core tunables (Table 1 defaults). */
struct CoreConfig
{
    unsigned issueWidth = 4;
    unsigned robSize = 192;
};

/**
 * One core bound to one trace. The owner provides a memory-access
 * functor; the core hands it loads/stores and, for loads, the ROB
 * slot index the owner must wake through completeLoad() when the
 * data arrives. The slot index is plain data, so in-flight accesses
 * survive a checkpoint (the owner serialises the token, not a
 * closure).
 */
class Core
{
  public:
    /** Slot argument passed for accesses needing no completion
     *  (stores retire via the store buffer). */
    static constexpr unsigned kNoSlot = ~0u;

    /**
     * Memory access hook. Arguments: address, is_write, slot — for
     * loads the owner must call @c completeLoad(slot, tick) when the
     * data arrives (possibly synchronously, for cache hits); for
     * stores @c slot is kNoSlot and no completion is expected.
     */
    using MemAccessFn = std::function<void(Addr, bool, unsigned)>;

    Core(int id, const CoreConfig &cfg, TraceSource &trace,
         MemAccessFn mem);

    /** Advance one CPU cycle ending at tick @p now. */
    void tick(Cycle now);

    /**
     * Wake the load in ROB slot @p slot: its data arrived at
     * @p done_tick. @p slot is the index handed to the MemAccessFn
     * when the load dispatched; the slot is guaranteed still to hold
     * that load (in-order retirement cannot pass an incomplete load).
     */
    void completeLoad(unsigned slot, Cycle done_tick);

    /**
     * Event horizon: the earliest tick at which tick() could retire or
     * dispatch anything, given the state at @p now (a tick at which
     * this core already ticked). Returns kCycleMax when only an
     * external memory callback can unblock the core (ROB head is an
     * outstanding load, or the core is finished) — the owner's DRAM /
     * event horizons bound that case. The result is not necessarily
     * aligned to the CPU clock; the caller rounds up to a multiple of
     * kCpuTick. Never late: ticking earlier than the horizon is a
     * no-op, ticking later than it would diverge from per-cycle
     * execution.
     */
    Cycle nextEventTick(Cycle now) const;

    /**
     * Account @p n skipped CPU cycles during which this core provably
     * did nothing: cycles elapse, and if the ROB head is a blocked
     * load the stall counter advances, exactly as @p n tick() calls
     * would have done. @pre nextEventTick() is more than @p n cycles
     * away.
     */
    void skipCycles(std::uint64_t n);

    /**
     * Batch-execute up to @p max_cycles of pure gap-bubble flow —
     * cycles whose dispatch consumes only non-memory bubbles and
     * whose retirement needs no new completion — starting with the
     * tick at @p first_tick, replicating per-cycle tick() exactly but
     * without per-cycle system overhead. Stops before any cycle that
     * would dispatch a memory instruction, refill from the trace,
     * retire across @p max_retire instructions, or do nothing at all
     * (a pure stall, which skipCycles() accounts in bulk). Returns
     * the number of cycles consumed.
     *
     * With @p apply false this is a pure lookahead (no state
     * changes) — the event engine's dispatch horizon. With @p apply
     * true the cycles are executed. Both passes share one code path,
     * so a lookahead of n guarantees an apply of up to n consumes
     * exactly the requested amount.
     *
     * @pre No memory completion callback fires during the burst (the
     * caller's event/DRAM horizons must bound it) and, when applying,
     * the same precondition held since the lookahead.
     */
    std::uint64_t burstCycles(Cycle first_tick, std::uint64_t max_cycles,
                              InstCount max_retire, bool apply);

    /** Retired instruction count. */
    InstCount retired() const { return retired_.value(); }

    /** Elapsed CPU cycles. */
    std::uint64_t cycles() const { return cycles_.value(); }

    /** Retired / cycles. */
    double
    ipc() const
    {
        return cycles() ? static_cast<double>(retired()) /
                              static_cast<double>(cycles())
                        : 0.0;
    }

    /** True iff the trace ran out and the window drained. */
    bool finished() const { return traceDone_ && windowCount_ == 0; }

    int id() const { return id_; }

    /** Zero statistics (end of warm-up) without touching window state. */
    void resetStats();

    /**
     * Checkpoint the window, dispatch cursor and pending trace record
     * (stats ride the owner's StatGroup tree; the trace source is
     * serialised by its owner). Slot done-ness round-trips, so loads
     * still in flight at save time resume waiting after a load.
     */
    void serdeState(Archive &ar);

    StatGroup &stats() { return statGroup_; }

  private:
    /** Completion state of a load slot; other slots are never read. */
    struct Slot
    {
        bool done = true;
        Cycle doneAtTick = 0;
    };

    /** Fetch the next trace record into pending state. */
    void refill();

    /** Dispatch the pending record's memory instruction. */
    void dispatchOne(Cycle now);

    /** Slot index @p i (< 2 * robSize) wrapped into the window. */
    unsigned
    wrap(unsigned i) const
    {
        return i >= cfg_.robSize ? i - cfg_.robSize : i;
    }

    /**
     * In-order retirement at tick @p now from a window of @p count
     * entries whose oldest is slot @p head with sequence number
     * @p seq: the number of entries that retire this cycle (at most
     * issueWidth). Only loads can block, so only the loads from
     * loadSeq(@p li) on are inspected; @p li advances past the loads
     * that retire. @p stalled is set iff a load that has not
     * completed by @p now stops retirement.
     */
    unsigned retireReady(Cycle now, unsigned head, unsigned count,
                         std::uint64_t seq, unsigned &li,
                         bool &stalled) const;

    /** Sequence number of the @p i-th oldest load in the window. */
    std::uint64_t
    loadSeq(unsigned i) const
    {
        return loadSeqs_[wrap(loadHead_ + i)];
    }

    /** Drop the @p n oldest loads (they retired). */
    void
    popLoads(unsigned n)
    {
        loadHead_ = wrap(loadHead_ + n);
        loadCount_ -= n;
    }

    /** True iff the oldest window entry is a load. */
    bool
    headIsLoad() const
    {
        return loadCount_ > 0 && loadSeq(0) == retiredAbs_;
    }

    int id_;
    CoreConfig cfg_;
    TraceSource *trace_;
    MemAccessFn mem_;

    std::vector<Slot> window_;
    unsigned head_ = 0;
    unsigned tail_ = 0;
    unsigned windowCount_ = 0;

    /** Pending trace record being dispatched. */
    TraceEntry pending_{};
    std::uint32_t gapLeft_ = 0;
    bool havePending_ = false;
    bool traceDone_ = false;

    /**
     * Lifetime retired count (never reset) and the absolute sequence
     * numbers of the loads in the window, oldest first: a ring of
     * robSize entries from loadHead_, loadCount_ long (an entry is
     * popped when its load retires). Retirement visits only these
     * loads, and an empty ring proves in O(1) that the whole window
     * is retire-ready, unlocking burstCycles()'s closed-form
     * steady-state path.
     */
    std::uint64_t retiredAbs_ = 0;
    std::vector<std::uint64_t> loadSeqs_;
    unsigned loadHead_ = 0;
    unsigned loadCount_ = 0;

    StatGroup statGroup_;
    Counter retired_, cycles_, loads_, stores_, robStallCycles_;
};

} // namespace dasdram

#endif // DASDRAM_CPU_CORE_HH
