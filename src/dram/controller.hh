/**
 * @file
 * Per-channel DRAM memory controller: FR-FCFS scheduling, open-page row
 * policy, separate read/write queues with drain watermarks, refresh
 * management, and bank reservation for DAS-DRAM migrations/swaps.
 *
 * Time unit throughout is memory-bus cycles (tCK = 1.25 ns), except
 * the times passed to completion callbacks (MemRequest::onComplete,
 * MigrationJob::onDone), which are global ticks (mem/clock.hh): the
 * conversion happens once, where the callback fires, so callers never
 * wrap their callbacks to change clock domain.
 */

#ifndef DASDRAM_DRAM_CONTROLLER_HH
#define DASDRAM_DRAM_CONTROLLER_HH

#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "dram/bank.hh"
#include "dram/cmd_trace.hh"
#include "dram/geometry.hh"
#include "dram/rank.hh"
#include "dram/row_class.hh"
#include "dram/timing.hh"
#include "mem/clock.hh"
#include "mem/request.hh"

namespace dasdram
{

class RequestTraceSink; // mem/request_trace.hh

/** Request scheduling policy. */
enum class SchedPolicy
{
    FrFcfs, ///< first-ready, first-come-first-served (Table 1)
    Fcfs,   ///< strict arrival order (baseline for tests/ablations)
};

/** Row-buffer management policy. */
enum class PagePolicy
{
    Open,   ///< leave rows open (Table 1)
    Closed, ///< precharge after every column access
};

/** Controller tunables. */
struct ControllerConfig
{
    unsigned readQueueDepth = 32; ///< Table 1: 32-entry request queue
    unsigned writeQueueDepth = 32;
    unsigned writeHighWatermark = 24;
    unsigned writeLowWatermark = 8;
    SchedPolicy sched = SchedPolicy::FrFcfs;
    PagePolicy page = PagePolicy::Open;
    bool refreshEnabled = true;

    /**
     * Migrations are background work: they wait for the target bank to
     * have no queued demand requests, but at most this many cycles
     * (then they force their way in to avoid starvation).
     */
    Cycle migrationMaxDefer = 1600; // 2 us at 800 MHz

    /**
     * Observer for every issued command (protocol checker, trace
     * writer). Zero cost when null: no record is even built. Must
     * outlive the controller. Also settable post-construction via
     * ChannelController::setCommandSink().
     */
    CommandSink *cmdSink = nullptr;

    /**
     * Sample per-class latency/queue-delay histograms and per-bank
     * breakdown stats. The stats are always registered (dumps stay
     * shape-stable); this only gates the sampling on the hot path.
     */
    bool histograms = true;

    /**
     * Observer for completed request spans (sampled lifecycle
     * tracing). Zero cost when no request carries a span: every touch
     * point is gated on the request's span pointer. Must outlive the
     * controller. Also settable post-construction via
     * ChannelController::setSpanSink().
     */
    RequestTraceSink *spanSink = nullptr;
};

/** An internal row migration or swap to run in one bank. */
struct MigrationJob
{
    /** group value for jobs with no owner-side identity. */
    static constexpr std::uint64_t kNoGroup = ~std::uint64_t{0};

    unsigned rank = 0;
    unsigned bank = 0;
    std::uint64_t rowA = 0; ///< e.g. promotee (slow) row
    std::uint64_t rowB = 0; ///< e.g. victim (fast) row
    bool fullSwap = true;   ///< swap (3 tRC) vs single migration (1.5 tRC)
    /** Row range blocked while the swap runs (the two subarrays /
     *  migration group). Defaults to just the two rows. */
    std::uint64_t rowLo = 0;
    std::uint64_t rowHi = 0;
    Cycle enqueuedAt = kCycleMax; ///< stamped by the controller
    /** Nonzero per-channel job id, stamped by addMigration(). */
    std::uint64_t id = 0;
    /**
     * Serialisable owner-side identity (the DAS migration-group id),
     * kNoGroup for untagged jobs. What a restored owner uses to
     * reconstruct onDone via DramSystem::rebindMigrations().
     */
    std::uint64_t group = kNoGroup;
    /** Called at completion with the finish time in ticks. */
    std::function<void(Cycle)> onDone;

    /** Checkpoint all data fields; onDone is left null on load (the
     *  owner rebinds it from @c group). */
    void
    serdeState(Archive &ar)
    {
        ar.io(rank);
        ar.io(bank);
        ar.io(rowA);
        ar.io(rowB);
        ar.io(fullSwap);
        ar.io(rowLo);
        ar.io(rowHi);
        ar.io(enqueuedAt);
        ar.io(id);
        ar.io(group);
    }
};

/**
 * One DDR3 channel: command/data bus, ranks, queues and scheduler.
 */
class ChannelController
{
  public:
    ChannelController(unsigned channel_id, const DramGeometry &geom,
                      const DramTiming &timing,
                      const RowClassifier &classifier,
                      const ControllerConfig &cfg);

    /** Banks and ranks point at this controller's mutation counter,
     *  so it must stay where it was built. */
    ChannelController(const ChannelController &) = delete;
    ChannelController &operator=(const ChannelController &) = delete;

    /// @name Request interface
    /// @{

    /** True iff a request of this kind can be accepted now. */
    bool canAccept(bool is_write) const;

    /**
     * Hand a request to the controller. @pre canAccept(req->isWrite).
     * The controller takes ownership; onComplete fires (with the time
     * in ticks) when the data burst finishes (reads) or the WR command
     * issues (writes), then the request is destroyed.
     */
    void enqueue(std::unique_ptr<MemRequest> req, Cycle now);

    /**
     * True iff a write to @p line_addr is queued (read forwarding).
     */
    bool writeQueued(Addr line_addr) const;
    /// @}

    /** Queue a migration/swap job. Jobs run FIFO per bank. */
    void addMigration(MigrationJob job);

    /** Number of migration jobs not yet completed. */
    std::size_t pendingMigrations() const { return migrations_.size(); }

    /** Advance to cycle @p now: retire completions, issue ≤1 command. */
    void tick(Cycle now);

    /**
     * The write-drain hysteresis step tick() takes before it issues:
     * start draining the write queue at the high watermark (or when
     * no read waits), stop at the low watermark (or when it is empty).
     * It is the one part of a tick below the horizon that is not a
     * no-op: tick() evaluates it before an issue changes the queues,
     * so the flag can lag the queue sizes until the next tick, and a
     * later enqueue may then see a different flag than a tick in
     * between would have left. DramSystem applies it on every
     * catch-up cycle to the channels it does not tick, exactly as
     * ticking them did.
     */
    void updateWriteDrain();

    /**
     * Earliest cycle at which tick() could do useful work, for
     * fast-forwarding an idle system. Returns kCycleMax when fully idle
     * with refresh disabled.
     *
     * This is the channel's event horizon: a lower bound on the next
     * state change, computed from the same per-bank/per-rank allowed-at
     * times the scheduler itself consults (tRCD/tRAS/tRP/tCCD, tRRD /
     * tFAW / tWTR, refresh deadlines, bus occupancy, reservations).
     * The bound may be early — waking the controller on a cycle where
     * nothing issues is a no-op — but is never late: skipping every
     * cycle below the horizon is indistinguishable from ticking them,
     * apart from updateWriteDrain(). Both DramSystem::tick, which ticks
     * only the channels whose horizon has arrived, and the event
     * engine's outer loop rely on exactly that property, which the
     * differential suite (ctest -L differential) enforces.
     *
     * A migration job that has not started contributes the first
     * cycle serviceMigrations could act on it: for the first job of
     * each bank, max(now + 1, reservedUntil, actAllowedAt), raised to
     * enqueuedAt + migrationMaxDefer while the job is stamped and
     * queued demand targets its rows, and to preAllowedAt while its
     * rows hold the bank's open row. Later jobs of a bank add nothing:
     * they wait for the first to start, which is a tick.
     */
    Cycle nextWakeCycle(Cycle now) const;

    /** Outstanding work (queues, in-flight, migrations)? */
    bool busy() const;

    /** Attach (or detach with nullptr) the command observer. */
    void setCommandSink(CommandSink *sink) { sink_ = sink; }

    /** Attach (or detach with nullptr) the completed-span observer. */
    void setSpanSink(RequestTraceSink *sink) { spanSink_ = sink; }

    /// @name Introspection & statistics
    /// @{
    Rank &rank(unsigned i) { return ranks_[i]; }
    const Rank &rank(unsigned i) const { return ranks_[i]; }

    /**
     * Monotone signature of every piece of state the cached queue and
     * precharge horizons depend on: the channel version (queue
     * membership), the bus version, and the rank/bank mutation
     * counter (the sum of all rank and bank versions, kept by the
     * ranks and banks themselves). Each term only ever increments, so
     * the sum strictly increases on any transition — two distinct
     * states never alias. O(1).
     */
    std::uint64_t stateSignature() const;

    StatGroup &stats() { return statGroup_; }

    std::uint64_t actCountFast() const { return actsFast_.value(); }
    std::uint64_t actCountSlow() const { return actsSlow_.value(); }
    std::uint64_t rowHits() const { return rowHits_.value(); }
    std::uint64_t readCount() const { return reads_.value(); }
    std::uint64_t writeCount() const { return writes_.value(); }
    std::uint64_t migrationCount() const { return migrationsDone_.value(); }

    /**
     * Read-latency histogram (enqueue → data, memory cycles) for
     * requests serviced at @p loc: RowBuffer (row hit), FastLevel or
     * SlowLevel. Unknown aliases to RowBuffer.
     */
    const Histogram &readLatencyHistogram(ServiceLocation loc) const;
    const Histogram &writeLatencyHistogram() const { return writeLat_; }

    /** Per-bank read-latency distributions merged channel-wide. */
    Distribution mergedBankReadLatency() const;
    /// @}

    /// @name Checkpointing
    /// @{

    /**
     * Checkpoint the channel: ranks and banks, both queues, in-flight
     * reads, the completion heap (raw array, preserving exact
     * tie-break pop order), migrations and bus/scheduler bookkeeping.
     * Stats are not stored here — they ride the owner's StatGroup
     * serdeTree pass. On load every request's onComplete and every
     * job's onDone is null until the owner rebinds them.
     */
    void serdeState(Archive &ar);

    /** Visit every owned request (queued and in-flight) — the rebind
     *  hook a restored owner uses to reinstall onComplete. */
    void forEachRequest(const std::function<void(MemRequest &)> &fn);

    /** Visit every migration job (pending and active) — the rebind
     *  hook a restored owner uses to reinstall onDone. */
    void forEachMigration(const std::function<void(MigrationJob &)> &fn);
    /// @}

  private:
    struct Completion
    {
        Cycle at;
        MemRequest *req;
        bool operator>(const Completion &o) const { return at > o.at; }
    };

    Bank &bankOf(const MemRequest &r);
    const Bank &bankOf(const MemRequest &r) const;

    /** Run completion callbacks due at or before @p now. */
    void retireCompletions(Cycle now);

    /** Returns true if a command was issued (consumes the cmd bus). */
    bool serviceRefresh(Cycle now);
    bool serviceMigrations(Cycle now);
    bool issueFromQueue(std::vector<std::unique_ptr<MemRequest>> &queue,
                        Cycle now);

    /**
     * True iff a queued demand request targets @p job's rows
     * [@p row_lo, @p row_hi) other than the two it moves: the job
     * defers to it until its deferral budget runs out.
     */
    bool demandTargets(const MigrationJob &job, std::uint64_t row_lo,
                       std::uint64_t row_hi) const;

    /**
     * If queue[i] is a ready row hit, issue its column command, retire
     * or track it, and return true.
     */
    bool issueColumnFor(std::vector<std::unique_ptr<MemRequest>> &queue,
                        std::size_t i, Cycle now);

    /** Try to issue the column command for @p req. */
    bool tryColumn(MemRequest &req, Cycle now);
    /** Try to issue ACT or PRE on behalf of @p req. */
    bool tryRowCommand(MemRequest &req, Cycle now);

    /**
     * Absolute lower bound on the cycle at which @p req could issue its
     * next command — column, ACT or conflict PRE — derived from the
     * current bank/rank/bus state. Cached in req.sched keyed on the
     * three state versions; any command touching them recomputes it.
     * The bound is now-free: callers clamp with max(now + 1, bound),
     * which provably equals the per-cycle evaluation at every now while
     * the state is unchanged.
     */
    Cycle requestReadyAt(const MemRequest &req) const;

    /**
     * Lower bound (> @p now) on the cycle at which @p req could issue
     * its next command — column, ACT or conflict PRE — assuming no
     * other command issues first (any such issue re-runs the horizon).
     */
    Cycle requestWakeCycle(const MemRequest &req, Cycle now) const;

    /**
     * Cheap necessary condition for @p req issuing any command at
     * @p now: not reservation-blocked and its cached absolute ready
     * cycle has arrived. False lets the batched queue scan skip the
     * request without re-running the full scheduling checks — sound
     * because the bound is never late, exact because the full checks
     * still run when it passes.
     */
    bool requestMaybeIssuable(const MemRequest &req, Cycle now) const;

    /**
     * Recompute the rollup horizon caches if stateSignature() moved or
     * the earliest reservation blocking a queued request expired: the
     * minimum absolute ready cycle over unblocked requests of both
     * queues (reusing every per-request cache whose versions still
     * match), the earliest end of a reservation blocking a queued
     * request, and the earliest closed-page precharge. O(1) when
     * nothing changed. Like nextWakeCycle, assumes @p now does not
     * decrease between state transitions.
     */
    void refreshHorizonCaches(Cycle now) const;

    /** Fire callback and destroy @p req (ownership in @p owner). */
    void finish(std::unique_ptr<MemRequest> req, Cycle at,
                ServiceLocation fallback_loc);

    /// @name Request-span stamping (no-ops unless req.span is set)
    /// @{

    /** Queue-admit stamp: coordinates, row class, readiness lower
     *  bound and the busy-accumulator snapshots blame is charged
     *  against. Call from enqueue(), after arrivalTick is set. */
    void stampSpanAdmit(MemRequest &req, Cycle now);

    /**
     * First-command stamp: closes the wait window [admit, now) and
     * charges its reservation/refresh overlap from the accumulator
     * deltas. Idempotent — later commands for the same request leave
     * the window closed. @pre req.span.
     */
    void stampSpanFirstCommand(MemRequest &req, Cycle now);
    /// @}

    /**
     * Report a PRE closing @p bank's open row (call before
     * Bank::precharge, while the row is still visible).
     */
    void emitPrecharge(Cycle now, unsigned rank_id, unsigned bank_id,
                       const Bank &bank);

    unsigned channelId_;
    DramGeometry geom_;
    const DramTiming *timing_;
    const RowClassifier *classifier_;
    ControllerConfig cfg_;

    /** Incremented by every Rank/Bank version bump in this channel. */
    std::uint64_t rankBankMutations_ = 0;
    std::vector<Rank> ranks_;

    std::vector<std::unique_ptr<MemRequest>> readQueue_;
    std::vector<std::unique_ptr<MemRequest>> writeQueue_;
    bool drainingWrites_ = false;

    /**
     * In-flight reads awaiting data completion: a min-heap on `at`
     * kept with push_heap/pop_heap over an explicit vector (identical
     * pop order to the std::priority_queue it replaces), so a
     * checkpoint can serialise the raw heap array verbatim and restore
     * the exact tie-break order.
     */
    std::vector<Completion> completions_;
    std::vector<std::unique_ptr<MemRequest>> inflight_;

    CommandSink *sink_ = nullptr;
    RequestTraceSink *spanSink_ = nullptr;
    std::uint64_t nextMigrationId_ = 1;

    std::deque<MigrationJob> migrations_;
    /** Migration completion events: (cycle, index into migrations_). */
    std::vector<std::pair<Cycle, MigrationJob>> activeMigrations_;

    /** Channel data-bus bookkeeping. */
    Cycle dataBusFreeAt_ = 0;
    Cycle nextColAllowedAt_ = 0;
    int lastBusRank_ = -1;
    bool lastBusWasWrite_ = false;

    /// @name Readiness-cache bookkeeping
    /// @{

    /** Bumped whenever the bus state above changes (column issue). */
    std::uint64_t busVer_ = 0;
    /** Bumped whenever queue membership changes (enqueue/dequeue). */
    std::uint64_t chanVer_ = 0;

    /** Signature the rollup caches below were computed at. */
    mutable std::uint64_t horizonSig_ = ~std::uint64_t{0};
    /** Min absolute ready cycle over queued requests not blocked by a
     *  reservation (kCycleMax: none). */
    mutable Cycle queuePathMin_ = kCycleMax;
    /** Min reservation end over blocked queued requests (kCycleMax:
     *  none). Doubles as the caches' validity horizon: when now
     *  reaches it the blocked/unblocked partition changes without a
     *  version bump, so the caches are recomputed. */
    mutable Cycle queueBlockedMin_ = kCycleMax;
    /** Earliest closed-page PRE over open banks (kCycleMax: none). */
    mutable Cycle preMinReady_ = kCycleMax;
    /// @}

    /// @name Statistics
    /// @{
    StatGroup statGroup_;
    Counter reads_, writes_, rowHits_, actsFast_, actsSlow_, precharges_;
    Counter refreshes_, migrationsDone_, readForwards_;
    Distribution readLatency_; ///< enqueue → data, in memory cycles

    /** Per-row-class latency and queue histograms (memory cycles /
     *  queue entries). Sampling gated by ControllerConfig::histograms. */
    Histogram readLatRowHit_, readLatFast_, readLatSlow_, writeLat_;
    Histogram readQueueDelay_, writeQueueDelay_;
    Histogram readQueueOcc_, writeQueueOcc_;
    Histogram migrationStartDelay_; ///< first consideration → start

    /** Row-buffer behaviour broken down per bank (global bank index
     *  = rank * banksPerRank + bank), rolled up via merge(). */
    struct BankStats
    {
        explicit BankStats(const std::string &name) : group(name) {}
        StatGroup group;
        Counter rowHits;
        Counter rowConflicts;   ///< PRE issued for a conflicting row
        Counter classConflicts; ///< conflict where the classes differ
        Distribution readLatency;
    };
    std::vector<std::unique_ptr<BankStats>> bankStats_;

    BankStats &bankStatsOf(unsigned rank_id, unsigned bank_id);
    /// @}
};

} // namespace dasdram

#endif // DASDRAM_DRAM_CONTROLLER_HH
