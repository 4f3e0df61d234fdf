#include "das_manager.hh"

#include <algorithm>

#include "common/log.hh"

namespace dasdram
{

namespace
{

/** Base address of the in-memory translation table region. */
constexpr Addr kTableBase = 7ULL * GiB + 512 * MiB;

} // namespace

DasManager::DasManager(DramSystem &dram, CacheHierarchy *caches,
                       const AsymmetricLayout &layout,
                       const DasConfig &cfg)
    : dram_(&dram), caches_(caches), layout_(&layout), cfg_(cfg),
      statGroup_("dasManager")
{
    table_ = std::make_unique<TranslationTable>(layout);
    if (cfg.mode == ManagementMode::Dynamic && !cfg.exclusiveCache)
        incl_ = std::make_unique<InclusiveDirectory>(layout);
    if (cfg.mode == ManagementMode::Dynamic) {
        if (!caches_)
            fatal("dynamic DAS management requires a cache hierarchy "
                  "(table walks spill into the LLC)");
        tc_ = std::make_unique<TranslationCache>(
            cfg.translationCacheBytes, cfg.translationCacheAssoc);
        filter_ = std::make_unique<PromotionFilter>(cfg.promotion);
        repl_ = std::make_unique<FastSlotReplacement>(
            cfg.replacement, layout.fastSlotsPerGroup(),
            layout.totalGroups());
        statGroup_.addChild(&tc_->stats());
        statGroup_.addChild(&filter_->stats());
    }

    statGroup_.addCounter("demandAccesses", &demandAccesses_,
                          "memory accesses below the LLC");
    statGroup_.addCounter("rowBufferHits", &rowBufferHits_);
    statGroup_.addCounter("fastAccesses", &fastAccesses_,
                          "accesses activating a fast subarray");
    statGroup_.addCounter("slowAccesses", &slowAccesses_,
                          "accesses activating a slow subarray");
    statGroup_.addCounter("promotions", &promotions_, "row swaps started");
    statGroup_.addCounter("promotionsSkippedBusy", &promotionsSkippedBusy_,
                          "promotions dropped: group swap in flight");
    statGroup_.addCounter("tableWalksLlc", &tableWalksLlc_,
                          "translation misses served by the LLC");
    statGroup_.addCounter("tableWalksDram", &tableWalksDram_,
                          "translation misses served by DRAM");
    statGroup_.addCounter("writebacks", &writebacks_);
    statGroup_.addCounter("cleanPromotions", &cleanPromotions_,
                          "inclusive promotions with a clean victim");
    statGroup_.addCounter("dirtyPromotions", &dirtyPromotions_,
                          "inclusive promotions needing a write-back");
}

GlobalRowId
DasManager::physicalFor(GlobalRowId logical) const
{
    if (cfg_.mode == ManagementMode::None)
        return logical;
    if (cfg_.mode == ManagementMode::Dynamic && !cfg_.exclusiveCache) {
        // Inclusive: slow rows stay home; a valid copy redirects the
        // access to its fast slot.
        InclusiveDirectory::Copy c = incl_->find(logical);
        if (!c.valid)
            return logical;
        return layout_->globalGroupOf(logical) * layout_->groupSize() +
               c.fastSlot;
    }
    return table_->physicalOf(logical);
}

LocationStats
DasManager::locations() const
{
    LocationStats l;
    l.rowBuffer = rowBufferHits_.value();
    l.fastLevel = fastAccesses_.value();
    l.slowLevel = slowAccesses_.value();
    return l;
}

std::uint64_t
DasManager::footprintRows() const
{
    return touchedRows_.size();
}

void
DasManager::resetStats()
{
    demandAccesses_.reset();
    rowBufferHits_.reset();
    fastAccesses_.reset();
    slowAccesses_.reset();
    promotions_.reset();
    promotionsSkippedBusy_.reset();
    tableWalksLlc_.reset();
    tableWalksDram_.reset();
    writebacks_.reset();
    touchedRows_.clear();
}

void
DasManager::access(Addr addr, bool is_write, int core, Continuation cont,
                   Cycle now, std::unique_ptr<RequestSpan> span)
{
    DramLoc loc = dram_->decode(addr);
    PendingAccess acc;
    acc.addr = addr;
    acc.isWrite = is_write;
    acc.core = core;
    acc.logical = makeGlobalRowId(dram_->geometry(), loc.channel, loc.rank,
                                  loc.bank, loc.row);
    acc.readyTick = now;
    acc.cont = cont;
    acc.span = std::move(span);

    demandAccesses_.inc();
    if (is_write)
        writebacks_.inc();
    touchedRows_.insert(acc.logical);

    if (cfg_.mode != ManagementMode::Dynamic) {
        if (acc.span)
            acc.span->transDoneTick = now;
        trySubmit(std::move(acc), now);
        return;
    }

    // Dynamic: resolve the translation. The tag-cache lookup overlaps
    // the LLC access that produced this miss, so a hit costs nothing.
    if (tc_->lookup(acc.logical)) {
        if (acc.span) {
            acc.span->trans = TranslationPath::TagCache;
            acc.span->transDoneTick = now;
        }
        trySubmit(std::move(acc), now);
        return;
    }

    Addr tline = TranslationTable::entryAddr(kTableBase, acc.logical) &
                 ~(dram_->geometry().lineBytes - 1);
    if (caches_->llcSideAccess(tline)) {
        tableWalksLlc_.inc();
        // Cache the resolved entry whatever its level: the tag cache is
        // large enough here that restricting it to fast-level entries
        // (the paper's capacity optimisation) would only cause repeat
        // walks for bursts to newly touched rows.
        tc_->insert(acc.logical);
        acc.readyTick = now + cfg_.llcLatencyTicks;
        if (acc.span) {
            acc.span->trans = TranslationPath::LlcWalk;
            acc.span->transDoneTick = acc.readyTick;
        }
        trySubmit(std::move(acc), now);
        return;
    }

    if (acc.span)
        acc.span->trans = TranslationPath::DramWalk;

    // Full walk: fetch the table line from DRAM, then proceed. Walks
    // to the same table line coalesce on the in-flight fetch.
    if (auto it = walksInFlight_.find(tline); it != walksInFlight_.end()) {
        it->second.push_back(std::move(acc));
        return;
    }
    tableWalksDram_.inc();
    DramLoc tloc = dram_->decode(tline);
    if (!dram_->canAccept(tloc, /*is_write=*/false)) {
        // Channel full: retry the whole translation from tick(). The
        // walk latency of this rare case is under-charged; acceptable
        // (the span's transDoneTick is stamped now, matching the
        // timing model's undercharge).
        if (acc.span)
            acc.span->transDoneTick = now;
        pending_.push_back(std::move(acc));
        return;
    }
    walksInFlight_[tline].push_back(std::move(acc));
    auto req = std::make_unique<MemRequest>(tline, /*write=*/false, -1);
    req->isTableAccess = true;
    req->loc = tloc;
    if (tracer_) {
        // The walk is controller-visible traffic of its own: give it
        // its own sampling decision so rate-1.0 span streams cover
        // every request the latency histograms cover.
        req->span = tracer_->maybeStart();
        if (req->span) {
            RequestSpan &ts = *req->span;
            ts.isTableWalk = true;
            ts.core = -1;
            ts.addr = tline;
            ts.issueTick = now;
            ts.missTick = now;
            ts.transDoneTick = now;
            ts.submitTick = now;
        }
    }
    req->onComplete = [this](MemRequest &treq, Cycle at) {
        onWalkComplete(treq, at);
    };
    dram_->submit(std::move(req), now);
}

void
DasManager::onWalkComplete(MemRequest &treq, Cycle at)
{
    // Install the table line in the LLC for later walks and release
    // every access waiting on it. The table line is the request's own
    // address, so this path is fully reconstructible after a restore.
    caches_->fillLlcOnly(treq.addr, nullptr);
    auto node = walksInFlight_.extract(treq.addr);
    if (node.empty())
        panic("table walk completed with no waiting accesses");
    for (PendingAccess &waiting : node.mapped()) {
        tc_->insert(waiting.logical);
        waiting.readyTick = at;
        if (waiting.span)
            waiting.span->transDoneTick = at;
        pending_.push_back(std::move(waiting));
    }
}

void
DasManager::trySubmit(PendingAccess &&acc, Cycle now)
{
    if (acc.readyTick > now) {
        pending_.push_back(std::move(acc));
        return;
    }
    submitReady(std::move(acc), now);
}

void
DasManager::submitReady(PendingAccess &&acc, Cycle now)
{
    GlobalRowId physical = physicalFor(acc.logical);
    DramLoc loc = decodeGlobalRowId(dram_->geometry(), physical);
    loc.column = dram_->decode(acc.addr).column;

    if (!dram_->canAccept(loc, acc.isWrite)) {
        pending_.push_back(std::move(acc));
        return;
    }

    auto req = std::make_unique<MemRequest>(acc.addr, acc.isWrite,
                                            acc.core);
    req->loc = loc;
    req->logicalRow = acc.logical;
    req->span = std::move(acc.span);
    if (req->span)
        req->span->submitTick = now;
    req->cont = acc.cont;
    req->onComplete = [this](MemRequest &r, Cycle at) {
        onDataComplete(r, at);
    };
    dram_->submit(std::move(req), now);
}

void
DasManager::onDataComplete(MemRequest &req, Cycle at)
{
    switch (req.location) {
      case ServiceLocation::RowBuffer:
        rowBufferHits_.inc();
        break;
      case ServiceLocation::FastLevel:
        fastAccesses_.inc();
        break;
      case ServiceLocation::SlowLevel:
        slowAccesses_.inc();
        break;
      case ServiceLocation::Unknown:
        panic("request completed without service classification");
    }

    if (cfg_.mode == ManagementMode::Dynamic) {
        unsigned phys_slot = layout_->slotOf(req.loc.row);
        std::uint64_t group = layout_->globalGroupOf(req.logicalRow);
        tc_->insert(req.logicalRow);
        if (cfg_.exclusiveCache) {
            if (layout_->slotIsFast(phys_slot)) {
                repl_->onFastAccess(group, phys_slot);
            } else if (filter_->onSlowAccess(req.logicalRow)) {
                maybePromote(req.logicalRow, at);
            }
        } else {
            unsigned home_slot = static_cast<unsigned>(
                req.logicalRow % layout_->groupSize());
            if (layout_->slotIsFast(home_slot)) {
                // Natively fast row: nothing to manage.
            } else if (InclusiveDirectory::Copy c =
                           incl_->find(req.logicalRow);
                       c.valid) {
                repl_->onFastAccess(group, c.fastSlot);
                if (req.isWrite)
                    incl_->markDirty(req.logicalRow);
            } else if (filter_->onSlowAccess(req.logicalRow)) {
                maybePromoteInclusive(req.logicalRow, at);
            }
        }
    }

    if (completionHook_)
        completionHook_(req.cont, at);
}

void
DasManager::maybePromote(GlobalRowId logical, Cycle now)
{
    std::uint64_t group = layout_->globalGroupOf(logical);
    if (swapsInFlight_.contains(group)) {
        promotionsSkippedBusy_.inc();
        return;
    }
    if (table_->isFast(logical))
        return; // raced with an earlier promotion

    unsigned victim_slot = repl_->chooseVictim(group);
    GlobalRowId victim = table_->logicalInFastSlot(group, victim_slot);
    if (victim == logical)
        return;

    GlobalRowId phys_promotee = table_->physicalOf(logical);
    GlobalRowId phys_victim =
        group * layout_->groupSize() + victim_slot;

    // Update the mapping at swap start: later requests target the new
    // locations and are naturally held back by the bank reservation.
    table_->swap(logical, victim);
    tc_->insert(logical);
    tc_->invalidate(victim);
    filter_->clear(logical);
    repl_->onFastAccess(group, victim_slot);
    promotions_.inc();
    if (events_) {
        TraceInstant ev;
        ev.name = "promote";
        ev.tick = now;
        ev.row = logical;
        ev.victim = victim;
        ev.group = group;
        ev.cause = "threshold";
        events_->onInstant(ev);
    }

    if (cfg_.zeroMigrationLatency)
        return; // DAS-DRAM (FM): free swaps

    swapsInFlight_.insert(group);
    DramLoc a = decodeGlobalRowId(dram_->geometry(), phys_promotee);
    DramLoc b = decodeGlobalRowId(dram_->geometry(), phys_victim);
    if (!a.sameBank(b))
        panic("swap rows not in the same bank");
    // The swap occupies the migration group's subarrays only; the rest
    // of the bank keeps serving requests.
    std::uint64_t row_lo =
        layout_->groupBaseRow(layout_->groupOf(a.row));
    dram_->startMigration(a.channel, a.rank, a.bank, a.row, b.row,
                          /*full_swap=*/true, row_lo,
                          row_lo + layout_->groupSize(),
                          [this, group](Cycle) {
                              swapsInFlight_.erase(group);
                          },
                          group);
}

void
DasManager::maybePromoteInclusive(GlobalRowId logical, Cycle now)
{
    std::uint64_t group = layout_->globalGroupOf(logical);
    if (swapsInFlight_.contains(group)) {
        promotionsSkippedBusy_.inc();
        return;
    }
    if (incl_->find(logical).valid)
        return; // raced with an earlier promotion

    unsigned victim_slot = repl_->chooseVictim(group);
    GlobalRowId victim = incl_->occupant(group, victim_slot);
    bool dirty_victim = incl_->dirty(group, victim_slot);
    GlobalRowId phys_home = logical;
    GlobalRowId phys_fast =
        group * layout_->groupSize() + victim_slot;

    if (victim != kAddrInvalid) {
        tc_->invalidate(victim);
        incl_->evict(group, victim_slot);
    }
    incl_->install(logical, victim_slot);
    tc_->insert(logical);
    filter_->clear(logical);
    repl_->onFastAccess(group, victim_slot);
    promotions_.inc();
    (dirty_victim ? dirtyPromotions_ : cleanPromotions_).inc();
    if (events_) {
        TraceInstant ev;
        ev.name = "promote";
        ev.tick = now;
        ev.row = logical;
        ev.victim = victim;
        ev.group = group;
        ev.cause = dirty_victim ? "inclusive-dirty" : "inclusive-clean";
        events_->onInstant(ev);
    }

    if (cfg_.zeroMigrationLatency)
        return;

    swapsInFlight_.insert(group);
    DramLoc a = decodeGlobalRowId(dram_->geometry(), phys_home);
    DramLoc b = decodeGlobalRowId(dram_->geometry(), phys_fast);
    std::uint64_t row_lo = layout_->groupBaseRow(layout_->groupOf(a.row));
    // Clean victim: a single 1.5 tRC migration copies the promotee in.
    // Dirty victim: write the victim back first — cost of a full swap.
    dram_->startMigration(a.channel, a.rank, a.bank, a.row, b.row,
                          /*full_swap=*/dirty_victim, row_lo,
                          row_lo + layout_->groupSize(),
                          [this, group](Cycle) {
                              swapsInFlight_.erase(group);
                          },
                          group);
}

void
DasManager::tick(Cycle now)
{
    if (pending_.empty())
        return;
    // Retried accesses that stay pending go back in order; so do
    // accesses submitReady pushes re-entrantly (a completion's dirty
    // writeback), interleaved exactly where they arrive.
    retry_.swap(pending_);
    for (PendingAccess &acc : retry_) {
        if (acc.readyTick > now)
            pending_.push_back(std::move(acc));
        else
            submitReady(std::move(acc), now);
    }
    retry_.clear();
}

Cycle
DasManager::nextWakeTick(Cycle now) const
{
    if (pending_.empty())
        return kCycleMax;
    Cycle next = kCycleMax;
    for (const PendingAccess &acc : pending_)
        next = std::min(next, std::max(acc.readyTick, now + 1));
    return next;
}

void
DasManager::serdeState(Archive &ar)
{
    ar.section("dasManager");
    table_->serdeState(ar);
    bool has_incl = incl_ != nullptr;
    ar.io(has_incl);
    if (has_incl != (incl_ != nullptr))
        fatal("checkpoint: inclusive-directory presence mismatch "
              "(mode/exclusivity changed?)");
    if (incl_)
        incl_->serdeState(ar);
    bool dynamic = tc_ != nullptr;
    ar.io(dynamic);
    if (dynamic != (tc_ != nullptr))
        fatal("checkpoint: management-mode mismatch");
    if (tc_) {
        tc_->serdeState(ar);
        filter_->serdeState(ar);
        repl_->serdeState(ar);
    }

    // Retry queue, in original order.
    std::uint64_t n = pending_.size();
    ar.io(n);
    if (ar.loading())
        pending_.resize(static_cast<std::size_t>(n));
    for (PendingAccess &acc : pending_)
        acc.serdeState(ar);

    // In-flight walks: iterate table lines in sorted order so the
    // byte stream does not depend on hash-table layout. Waiter order
    // within a line is the coalescing order and is preserved.
    std::uint64_t walks = walksInFlight_.size();
    ar.io(walks);
    if (ar.saving()) {
        std::vector<Addr> lines;
        lines.reserve(walksInFlight_.size());
        for (const auto &kv : walksInFlight_)
            lines.push_back(kv.first);
        std::sort(lines.begin(), lines.end());
        for (Addr line : lines) {
            Addr key = line;
            ar.io(key);
            auto &waiters = walksInFlight_[line];
            std::uint64_t w = waiters.size();
            ar.io(w);
            for (PendingAccess &acc : waiters)
                acc.serdeState(ar);
        }
    } else {
        walksInFlight_.clear();
        for (std::uint64_t i = 0; i < walks; ++i) {
            Addr key = 0;
            ar.io(key);
            std::uint64_t w = 0;
            ar.io(w);
            auto &waiters = walksInFlight_[key];
            waiters.resize(static_cast<std::size_t>(w));
            for (PendingAccess &acc : waiters)
                acc.serdeState(ar);
        }
    }

    auto serde_u64_set = [&ar](FlatU64Set &set) {
        std::uint64_t count = set.size();
        ar.io(count);
        if (ar.saving()) {
            for (std::uint64_t v : set.sorted())
                ar.io(v);
        } else {
            set.clear();
            set.reserve(static_cast<std::size_t>(count));
            for (std::uint64_t i = 0; i < count; ++i) {
                std::uint64_t v = 0;
                ar.io(v);
                set.insert(v);
            }
        }
    };
    serde_u64_set(swapsInFlight_);
    serde_u64_set(touchedRows_);
    ar.end();
}

void
DasManager::rebindInFlight()
{
    dram_->rebindRequests(
        [this](const MemRequest &req) -> MemRequest::Callback {
            if (req.isTableAccess)
                return [this](MemRequest &r, Cycle at) {
                    onWalkComplete(r, at);
                };
            return [this](MemRequest &r, Cycle at) {
                onDataComplete(r, at);
            };
        });
    dram_->rebindMigrations(
        [this](const MigrationJob &job) -> std::function<void(Cycle)> {
            if (job.group == MigrationJob::kNoGroup)
                return nullptr;
            const std::uint64_t group = job.group;
            return [this, group](Cycle) { swapsInFlight_.erase(group); };
        });
}

} // namespace dasdram
