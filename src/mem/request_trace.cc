/**
 * @file
 * Request-lifecycle tracing implementation: sampler, JSONL exporter
 * and critical-path aggregator.
 */

#include "mem/request_trace.hh"

#include <cmath>

#include "common/binfmt.hh"
#include "common/json.hh"
#include "common/log.hh"

namespace dasdram
{

const char *
toString(TranslationPath path)
{
    switch (path) {
    case TranslationPath::None:
        return "none";
    case TranslationPath::TagCache:
        return "tc";
    case TranslationPath::LlcWalk:
        return "llc";
    case TranslationPath::DramWalk:
        return "dram";
    }
    return "?";
}

const char *
RequestSpan::outcome() const
{
    if (forwarded)
        return "forwarded";
    if (hasPre)
        return "conflict";
    if (hasAct)
        return "miss";
    return "hit";
}

RequestTracer::RequestTracer(std::uint64_t seed, double rate)
    : seed_(seed), rate_(rate)
{
    if (rate_ >= 1.0)
        threshold_ = ~std::uint64_t{0};
    else if (rate_ <= 0.0 || std::isnan(rate_))
        threshold_ = 0;
    else
        threshold_ = static_cast<std::uint64_t>(
            rate_ * 18446744073709551616.0 /* 2^64 */);
}

std::unique_ptr<RequestSpan>
RequestTracer::maybeStart()
{
    std::uint64_t decision = decisions_++;
    bool take;
    if (threshold_ == ~std::uint64_t{0})
        take = true;
    else if (threshold_ == 0)
        take = false;
    else
        take = binfmt::splitmix64(seed_ ^
                                  binfmt::splitmix64(decision)) <
               threshold_;
    if (!take)
        return nullptr;
    auto span = std::make_unique<RequestSpan>();
    span->sampleId = decision;
    ++sampled_;
    return span;
}

SpanJsonlWriter::SpanJsonlWriter(std::ostream &os, const SpanJsonlMeta &meta)
    : os_(os)
{
    JsonWriter w;
    w.beginObject()
        .field("type", "meta")
        .field("schema", kSpanJsonlSchema)
        .field("version", kSpanJsonlVersion)
        .field("workload", meta.workload)
        .field("design", meta.design)
        .field("label", meta.label)
        .field("seed", meta.seed)
        .field("rate", meta.rate)
        .endObject();
    os_ << w.str() << '\n';
}

void
SpanJsonlWriter::onSpan(const RequestSpan &s)
{
    JsonWriter w;
    w.beginObject()
        .field("type", "span")
        .field("id", s.sampleId)
        .field("kind", s.isTableWalk ? "walk" : (s.isWrite ? "write" : "read"))
        .field("core", std::int64_t(s.core))
        .field("addr", s.addr)
        .field("channel", s.channel)
        .field("rank", s.rank)
        .field("bank", s.bank)
        .field("row", s.row)
        .field("logicalRow", s.logicalRow)
        .field("class", s.rowClass == RowClass::Fast ? "fast" : "slow")
        .field("outcome", s.outcome())
        .field("trans", toString(s.trans))
        .field("issueTick", s.issueTick)
        .field("missTick", s.missTick)
        .field("transDoneTick", s.transDoneTick)
        .field("submitTick", s.submitTick)
        .field("admit", s.admitCycle)
        .field("ready", s.readyCycle)
        .field("firstCmd", s.firstCmdCycle);
    if (s.hasPre)
        w.field("pre", s.preCycle);
    if (s.hasAct)
        w.field("act", s.actCycle);
    w.field("col", s.colCycle)
        .field("data", s.dataCycle)
        .field("waitQueue", s.waitQueue())
        .field("waitBlock", s.waitBlock)
        .field("waitRefresh", s.waitRefresh)
        .field("fawStall", s.fawStall);
    if (s.blockedUntilCycle)
        w.field("blockedUntil", s.blockedUntilCycle);
    w.field("rowLat", s.rowLatency())
        .field("service", s.serviceLatency())
        .field("total", s.totalLatency())
        .endObject();
    os_ << w.str() << '\n';
    ++spans_;
}

void
CriticalPathAggregator::Breakdown::registerIn(StatGroup &g)
{
    g.addDistribution("total", &total,
                      "admit->data latency (mem cycles)");
    g.addDistribution("waitQueue", &waitQueue,
                      "queue wait not blamed on refresh/reservations");
    g.addDistribution("waitBlock", &waitBlock,
                      "wait overlapping a migration reservation");
    g.addDistribution("waitRefresh", &waitRefresh,
                      "wait overlapping a rank refresh");
    g.addDistribution("rowLatency", &rowLatency,
                      "first command -> column issue");
    g.addDistribution("service", &service,
                      "column issue -> data return");
    g.addDistribution("fawStall", &fawStall,
                      "tFAW/tRRD delay on the ACT (inside waitQueue)");
}

void
CriticalPathAggregator::Breakdown::sample(const RequestSpan &s)
{
    total.sample(double(s.totalLatency()));
    waitQueue.sample(double(s.waitQueue()));
    waitBlock.sample(double(s.waitBlock));
    waitRefresh.sample(double(s.waitRefresh));
    rowLatency.sample(double(s.rowLatency()));
    service.sample(double(s.serviceLatency()));
    fawStall.sample(double(s.fawStall));
}

CriticalPathAggregator::CriticalPathAggregator(unsigned num_tenants)
{
    group_.addCounter("spans", &spans_, "completed spans aggregated");
    rowHit_.registerIn(rowHitGroup_);
    fast_.registerIn(fastGroup_);
    slow_.registerIn(slowGroup_);
    writes_.registerIn(writeGroup_);
    walks_.registerIn(walkGroup_);
    forwarded_.registerIn(forwardGroup_);
    group_.addChild(&rowHitGroup_);
    group_.addChild(&fastGroup_);
    group_.addChild(&slowGroup_);
    group_.addChild(&writeGroup_);
    group_.addChild(&walkGroup_);
    group_.addChild(&forwardGroup_);
    tenants_.reserve(num_tenants);
    for (unsigned t = 0; t < num_tenants; ++t) {
        auto tenant = std::make_unique<Tenant>(formatStr("tenant{}", t));
        tenant->reads.registerIn(tenant->group);
        group_.addChild(&tenant->group);
        tenants_.push_back(std::move(tenant));
    }
}

void
CriticalPathAggregator::onSpan(const RequestSpan &s)
{
    spans_.inc();
    ++spansSeen_;
    if (s.forwarded) {
        forwarded_.sample(s);
        return;
    }
    if (s.isWrite) {
        writes_.sample(s);
        return;
    }
    // Reads through the controller: classify by how the data was
    // serviced, mirroring the per-class rollup histograms.
    if (s.location == ServiceLocation::RowBuffer)
        rowHit_.sample(s);
    else if (s.location == ServiceLocation::FastLevel)
        fast_.sample(s);
    else
        slow_.sample(s);
    if (s.isTableWalk) {
        walks_.sample(s);
    } else if (s.core >= 0 &&
               static_cast<unsigned>(s.core) < tenants_.size()) {
        tenants_[s.core]->reads.sample(s);
    }
}

} // namespace dasdram
