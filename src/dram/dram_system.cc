#include "dram_system.hh"

#include <algorithm>

#include "mem/request_trace.hh"

namespace dasdram
{

DramSystem::DramSystem(const DramGeometry &geom, const DramTiming &timing,
                       const RowClassifier &classifier,
                       const ControllerConfig &ctrl_cfg,
                       MappingScheme scheme)
    : timing_(timing), mapper_(geom, scheme),
      spanSink_(ctrl_cfg.spanSink), statGroup_("dram")
{
    channels_.reserve(geom.channels);
    for (unsigned c = 0; c < geom.channels; ++c) {
        channels_.push_back(std::make_unique<ChannelController>(
            c, geom, timing_, classifier, ctrl_cfg));
        statGroup_.addChild(&channels_.back()->stats());
    }
    wakes_.resize(channels_.size());
    statGroup_.addCounter("forwardedReads", &forwardedReads_,
                          "reads served from a channel write queue");
}

bool
DramSystem::canAccept(const DramLoc &loc, bool is_write) const
{
    return channels_[loc.channel]->canAccept(is_write);
}

void
DramSystem::submit(std::unique_ptr<MemRequest> req, Cycle now_tick)
{
    const Cycle mem_now = now_tick / kMemTick;
    ChannelController &ch = *channels_[req->loc.channel];

    if (!req->isWrite && ch.writeQueued(req->addr)) {
        // Read-after-write forwarding from the write queue: the data is
        // still in the controller; serve it at roughly CAS latency
        // without touching the banks.
        forwardedReads_.inc();
        req->location = ServiceLocation::RowBuffer;
        Cycle done = mem_now + timing_.slow.tCL + timing_.tBL;
        req->completionTick = done;
        if (req->span) {
            // Forwarded reads never reach a channel controller, so
            // the span is closed (and emitted) here: the whole
            // latency is service time, no queue/row stages.
            RequestSpan &s = *req->span;
            s.forwarded = true;
            s.channel = req->loc.channel;
            s.rank = req->loc.rank;
            s.bank = req->loc.bank;
            s.row = req->loc.row;
            s.logicalRow = req->logicalRow;
            s.location = ServiceLocation::RowBuffer;
            s.admitCycle = mem_now;
            s.readyCycle = mem_now;
            s.hasFirstCmd = true;
            s.firstCmdCycle = mem_now;
            s.colCycle = mem_now;
            s.dataCycle = done;
            if (spanSink_)
                spanSink_->onSpan(s);
        }
        if (req->onComplete)
            req->onComplete(*req, memCyclesToTicks(done));
        return;
    }

    const unsigned c = req->loc.channel;
    ch.enqueue(std::move(req), mem_now);
    markStale(c);
}

void
DramSystem::startMigration(unsigned channel, unsigned rank, unsigned bank,
                           std::uint64_t row_a, std::uint64_t row_b,
                           bool full_swap, std::uint64_t row_lo,
                           std::uint64_t row_hi,
                           std::function<void(Cycle)> on_done,
                           std::uint64_t group)
{
    MigrationJob job;
    job.rank = rank;
    job.bank = bank;
    job.rowA = row_a;
    job.rowB = row_b;
    job.fullSwap = full_swap;
    job.rowLo = row_lo;
    job.rowHi = row_hi;
    job.group = group;
    job.onDone = std::move(on_done);
    channels_[channel]->addMigration(std::move(job));
    markStale(channel);
}

void
DramSystem::serdeState(Archive &ar)
{
    ar.section("dramSystem");
    ar.io(lastMemCycle_);
    ar.expectCount(channels_.size(), "channels");
    for (const auto &ch : channels_)
        ch->serdeState(ar);
    ar.end();
    if (ar.loading()) {
        for (unsigned c = 0; c < channels_.size(); ++c)
            markStale(c);
    }
}

void
DramSystem::rebindRequests(
    const std::function<MemRequest::Callback(const MemRequest &)> &binder)
{
    for (const auto &ch : channels_) {
        ch->forEachRequest(
            [&](MemRequest &req) { req.onComplete = binder(req); });
    }
}

void
DramSystem::rebindMigrations(
    const std::function<std::function<void(Cycle)>(const MigrationJob &)>
        &binder)
{
    for (const auto &ch : channels_) {
        ch->forEachMigration(
            [&](MigrationJob &job) { job.onDone = binder(job); });
    }
}

void
DramSystem::setCommandSink(CommandSink *sink)
{
    for (const auto &ch : channels_)
        ch->setCommandSink(sink);
}

void
DramSystem::setRequestTraceSink(RequestTraceSink *sink)
{
    spanSink_ = sink;
    for (const auto &ch : channels_)
        ch->setSpanSink(sink);
}

void
DramSystem::catchUp(Cycle target)
{
    // Each catch-up cycle is the earliest wake (or the next cycle),
    // exactly as when every channel ticked on every one of them. A
    // tick below a channel's horizon changes nothing but its
    // write-drain flag, so the channels not due get just that step.
    // Every wake is fresh when a cycle starts; one that goes stale
    // before its channel's turn was fed by an earlier channel's
    // callback in this cycle, and ticks now, as before.
    while (lastMemCycle_ < target) {
        const Cycle next = refreshWakes();
        if (next > target) {
            lastMemCycle_ = target;
            return;
        }
        const Cycle now = std::max(lastMemCycle_ + 1, next);
        lastMemCycle_ = now;
        for (unsigned c = 0; c < channels_.size(); ++c) {
            if (wakes_[c].stale || wakes_[c].at <= now) {
                markStale(c);
                channels_[c]->tick(now);
            } else {
                channels_[c]->updateWriteDrain();
            }
        }
    }
}

Cycle
DramSystem::refreshWakes() const
{
    Cycle min = kCycleMax;
    for (unsigned c = 0; c < channels_.size(); ++c) {
        ChannelWake &w = wakes_[c];
        if (w.stale) {
            w.at = channels_[c]->nextWakeCycle(lastMemCycle_);
            w.stale = false;
        }
        min = std::min(min, w.at);
    }
    wakeMin_ = min;
    return min;
}

Cycle
DramSystem::nextWakeMemCycle(Cycle mem_now) const
{
    // A wake cached at an earlier cycle is what a fresh query returns
    // at any later cycle below it: every term is either absolute or
    // max(now + 1, absolute).
    if (mem_now >= lastMemCycle_) {
        const Cycle cached = refreshWakes();
        if (mem_now == lastMemCycle_ || cached > mem_now)
            return cached;
    }
    Cycle next = kCycleMax;
    for (const auto &ch : channels_)
        next = std::min(next, ch->nextWakeCycle(mem_now));
    return next;
}

Cycle
DramSystem::nextWakeTick(Cycle now_tick) const
{
    const Cycle next = nextWakeMemCycle(now_tick / kMemTick);
    if (next == kCycleMax)
        return kCycleMax;
    return next * kMemTick;
}

bool
DramSystem::busy() const
{
    return std::any_of(channels_.begin(), channels_.end(),
                       [](const auto &ch) { return ch->busy(); });
}

EnergyBreakdown
DramSystem::energyBreakdown() const
{
    EnergyBreakdown e;
    for (const auto &ch : channels_) {
        e.actsSlow += ch->actCountSlow();
        e.actsFast += ch->actCountFast();
        e.reads += ch->readCount();
        e.writes += ch->writeCount();
        e.swaps += ch->migrationCount();
        for (unsigned r = 0; r < geometry().ranksPerChannel; ++r)
            e.refreshes += ch->rank(r).refreshCount();
    }
    return e;
}

} // namespace dasdram
