#include "core.hh"

#include <algorithm>

#include "common/log.hh"

namespace dasdram
{

Core::Core(int id, const CoreConfig &cfg, TraceSource &trace,
           MemAccessFn mem)
    : id_(id), cfg_(cfg), trace_(&trace), mem_(std::move(mem)),
      window_(cfg.robSize), loadSeqs_(cfg.robSize),
      statGroup_("core" + std::to_string(id))
{
    if (cfg.robSize == 0 || cfg.issueWidth == 0)
        fatal("core{}: ROB size and issue width must be positive", id);
    statGroup_.addCounter("retired", &retired_, "retired instructions");
    statGroup_.addCounter("cycles", &cycles_, "elapsed CPU cycles");
    statGroup_.addCounter("loads", &loads_);
    statGroup_.addCounter("stores", &stores_);
    statGroup_.addCounter("robStallCycles", &robStallCycles_,
                          "cycles retirement blocked on a load");
    statGroup_.addFormula(
        "ipc", [this] { return ipc(); }, "instructions per cycle");
}

void
Core::refill()
{
    if (trace_->next(pending_)) {
        havePending_ = true;
        gapLeft_ = pending_.gap;
    } else {
        traceDone_ = true;
        havePending_ = false;
        gapLeft_ = 0;
    }
}

void
Core::dispatchOne(Cycle now)
{
    const unsigned slot_index = tail_;
    tail_ = wrap(tail_ + 1);
    ++windowCount_;

    const Addr addr = pending_.addr;
    const bool is_write = pending_.isWrite;
    havePending_ = false;
    if (is_write) {
        stores_.inc(); // stores retire via the store buffer
        mem_(addr, true, kNoSlot);
        return;
    }
    loads_.inc();
    window_[slot_index] = Slot{false, now};
    // The slot just written is the newest window entry.
    loadSeqs_[wrap(loadHead_ + loadCount_)] =
        retiredAbs_ + windowCount_ - 1;
    ++loadCount_;
    mem_(addr, false, slot_index);
}

void
Core::completeLoad(unsigned slot, Cycle done_tick)
{
    if (slot >= window_.size())
        panic("core{}: completeLoad slot {} out of range", id_, slot);
    Slot &s = window_[slot];
    s.done = true;
    s.doneAtTick = done_tick;
}

unsigned
Core::retireReady(Cycle now, unsigned head, unsigned count,
                  std::uint64_t seq, unsigned &li, bool &stalled) const
{
    const unsigned width = std::min(cfg_.issueWidth, count);
    for (; li < loadCount_; ++li) {
        const std::uint64_t pos = loadSeq(li) - seq;
        if (pos >= width)
            break;
        const Slot &s = window_[wrap(head + static_cast<unsigned>(pos))];
        if (!s.done || s.doneAtTick > now) {
            stalled = true;
            return static_cast<unsigned>(pos);
        }
    }
    return width;
}

void
Core::tick(Cycle now)
{
    cycles_.inc();

    // In-order retirement, up to issueWidth per cycle.
    unsigned li = 0;
    bool stalled = false;
    const unsigned n =
        retireReady(now, head_, windowCount_, retiredAbs_, li, stalled);
    popLoads(li);
    head_ = wrap(head_ + n);
    windowCount_ -= n;
    retiredAbs_ += n;
    retired_.inc(n);
    if (stalled)
        robStallCycles_.inc();

    // Dispatch up to issueWidth new instructions: a run of gap bubbles
    // in one step, each memory instruction on its own.
    unsigned room = std::min(cfg_.issueWidth, cfg_.robSize - windowCount_);
    while (room > 0) {
        if (!havePending_) {
            if (traceDone_)
                break;
            refill();
            if (!havePending_)
                break; // trace exhausted
        }
        if (gapLeft_ > 0) {
            const unsigned k = std::min<std::uint32_t>(gapLeft_, room);
            tail_ = wrap(tail_ + k);
            windowCount_ += k;
            gapLeft_ -= k;
            room -= k;
            continue;
        }
        dispatchOne(now);
        --room;
    }
}

Cycle
Core::nextEventTick(Cycle now) const
{
    // Anything dispatchable makes the very next cycle active. (A
    // havePending_ == false, gapLeft_ > 0 state cannot occur: gap
    // bubbles drain before the pending record's memory instruction.)
    if (windowCount_ < cfg_.robSize && (havePending_ || !traceDone_))
        return now + kCpuTick;
    if (windowCount_ == 0)
        return kCycleMax; // finished: only cycles_ keeps counting
    if (!headIsLoad())
        return now + kCpuTick; // retirable next cycle (width-limited)
    const Slot &s = window_[head_];
    if (!s.done)
        return kCycleMax; // a memory callback will set doneAtTick
    if (s.doneAtTick <= now)
        return now + kCpuTick;
    return s.doneAtTick;
}

std::uint64_t
Core::burstCycles(Cycle first_tick, std::uint64_t max_cycles,
                  InstCount max_retire, bool apply)
{
    // Locals mirror the mutable state; written back only when
    // applying, so the peek and apply passes share one code path and
    // cannot disagree. Bubbles carry no slot state, so the window
    // itself is never written.
    unsigned head = head_;
    unsigned count = windowCount_;
    std::uint32_t gap = gapLeft_;
    std::uint64_t consumed = 0, dispatched_total = 0;
    std::uint64_t retired = 0, stalls = 0;
    unsigned li = 0; // loadSeq(li) is the oldest unretired load
    Cycle now = first_tick;

    while (consumed < max_cycles) {
        // The cycle must provably dispatch nothing but gap bubbles: a
        // memory dispatch or a trace refill needs a real tick().
        if (havePending_ ? gap < cfg_.issueWidth : !traceDone_)
            break;
        // Never reach an instruction threshold (warm-up reset or the
        // completion target): the crossing iteration must execute for
        // real so the system observes it — and resets or stops — on
        // exactly the same iteration as the tick engine.
        if (retired + cfg_.issueWidth >= max_retire)
            break;

        // Steady-state fast path: with no unretired load anywhere in
        // the window and at least a retire-width of entries, every
        // cycle retires issueWidth and dispatches issueWidth bubbles —
        // the window occupancy is invariant and the whole stretch
        // collapses to arithmetic.
        if (havePending_ && count >= cfg_.issueWidth &&
            li == loadCount_) {
            std::uint64_t k = max_cycles - consumed;
            k = std::min<std::uint64_t>(k, gap / cfg_.issueWidth);
            k = std::min<std::uint64_t>(
                k, (max_retire - retired - 1) / cfg_.issueWidth);
            const std::uint64_t insts = k * cfg_.issueWidth;
            head = static_cast<unsigned>((head + insts) % cfg_.robSize);
            gap -= static_cast<std::uint32_t>(insts);
            dispatched_total += insts;
            retired += insts;
            consumed += k;
            now += k * kCpuTick;
            continue;
        }

        // In-order retirement, replicating tick() under the caller's
        // guarantee that no memory callback fires during the burst
        // (load done-ness is frozen; only `now` advances).
        bool stalled = false;
        const unsigned retired_now = retireReady(
            now, head, count, retiredAbs_ + retired, li, stalled);
        head = wrap(head + retired_now);
        count -= retired_now;

        // Bubble dispatch: full width unless the window limits it
        // (gap >= issueWidth was checked above).
        unsigned dispatched = 0;
        if (havePending_)
            dispatched = std::min(cfg_.issueWidth, cfg_.robSize - count);

        if (retired_now == 0 && dispatched == 0)
            break; // pure stall: skipCycles() accounts it in bulk

        count += dispatched;
        gap -= dispatched;
        dispatched_total += dispatched;
        retired += retired_now;
        if (stalled)
            ++stalls;
        ++consumed;
        now += kCpuTick;
    }

    if (apply && consumed) {
        head_ = head;
        tail_ = static_cast<unsigned>((tail_ + dispatched_total) %
                                      cfg_.robSize);
        windowCount_ = count;
        gapLeft_ = gap;
        cycles_.inc(consumed);
        retired_.inc(retired);
        retiredAbs_ += retired;
        robStallCycles_.inc(stalls);
        popLoads(li);
    }
    return consumed;
}

void
Core::skipCycles(std::uint64_t n)
{
    cycles_.inc(n);
    // Nothing retires on a skipped cycle, so a load at the head is
    // blocked on every one of them.
    if (headIsLoad())
        robStallCycles_.inc(n);
}

void
Core::serdeState(Archive &ar)
{
    ar.section("core");
    ar.expectCount(window_.size(), "ROB slots");
    for (Slot &s : window_) {
        // The v1 layout records an instruction kind per slot. Only
        // load slots carry state, so the kind is written as a load's
        // and ignored on restore.
        bool is_mem = true, is_load = true;
        ar.io(is_mem);
        ar.io(is_load);
        ar.io(s.done);
        ar.io(s.doneAtTick);
    }
    ar.io(head_);
    ar.io(tail_);
    ar.io(windowCount_);
    ar.io(pending_.gap);
    ar.io(pending_.addr);
    ar.io(pending_.isWrite);
    ar.io(gapLeft_);
    ar.io(havePending_);
    ar.io(traceDone_);
    ar.io(retiredAbs_);
    // The window's loads, oldest first. Older snapshots may still
    // list loads that have retired; they are dropped on restore.
    std::vector<std::uint64_t> loads;
    for (unsigned i = 0; i < loadCount_; ++i)
        loads.push_back(loadSeq(i));
    ar.io(loads);
    if (ar.loading()) {
        loadHead_ = 0;
        loadCount_ = 0;
        for (std::uint64_t seq : loads) {
            if (seq < retiredAbs_)
                continue;
            if (loadCount_ == loadSeqs_.size())
                fatal("checkpoint: core{} lists more loads than its "
                      "{}-entry ROB",
                      id_, loadSeqs_.size());
            loadSeqs_[loadCount_++] = seq;
        }
    }
    ar.end();
}

void
Core::resetStats()
{
    retired_.reset();
    cycles_.reset();
    loads_.reset();
    stores_.reset();
    robStallCycles_.reset();
}

} // namespace dasdram
