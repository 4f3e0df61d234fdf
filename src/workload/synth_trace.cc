#include "synth_trace.hh"

#include <cmath>

#include "common/log.hh"

namespace dasdram
{

SyntheticTrace::SyntheticTrace(const BenchmarkProfile &profile,
                               std::uint64_t seed,
                               std::uint64_t page_bytes,
                               std::uint64_t line_bytes)
    : prof_(profile), seed_(seed), pageBytes_(page_bytes),
      lineBytes_(line_bytes), rng_(seed),
      gapMean_(profile.memRatio > 0.0
                   ? (1.0 - profile.memRatio) / profile.memRatio
                   : 0.0)
{
    if (page_bytes % line_bytes != 0)
        fatal("page size must be a multiple of the line size");
    linesPerPage_ = pageBytes_ / lineBytes_;
    footprintPages_ = static_cast<std::uint64_t>(
        prof_.footprintMiB * static_cast<double>(MiB) /
        static_cast<double>(pageBytes_));
    if (footprintPages_ < 16)
        fatal("footprint of '{}' too small ({} pages)", prof_.name,
              footprintPages_);
    activeRegionPages_ = std::min<std::uint64_t>(
        footprintPages_,
        std::max<std::uint64_t>(
            prof_.workingSetPages + 1,
            static_cast<std::uint64_t>(
                prof_.activeRegionFactor *
                static_cast<double>(prof_.workingSetPages))));
    hotPages_ = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(
               prof_.hotFraction *
               static_cast<double>(activeRegionPages_)));
    hotZipf_ = ZipfShape(hotPages_, prof_.zipfS);
    double mix =
        prof_.pStream + prof_.pWork + prof_.pHot + prof_.pUniform;
    if (mix < 0.999 || mix > 1.001)
        fatal("pattern mix of '{}' must sum to 1 (got {})", prof_.name,
              mix);
    buildGapTable();
    reset();
}

void
SyntheticTrace::reset()
{
    rng_ = Rng(seed_);
    streamPos_.assign(std::max(1u, prof_.streams), 0);
    for (std::size_t s = 0; s < streamPos_.size(); ++s) {
        // Spread stream start points across the footprint, staggered by
        // a few pages so concurrent streams land in different banks
        // instead of conflicting in lockstep.
        std::uint64_t page = (footprintPages_ * s) / streamPos_.size() +
                             5 * s;
        streamPos_[s] = (page % footprintPages_) * linesPerPage_;
    }
    nextStream_ = 0;
    sliceSalt_.assign(64, 0);
    workSet_.assign(std::max<std::uint64_t>(1, prof_.workingSetPages), 0);
    for (std::uint64_t &page : workSet_)
        page = rng_.nextBelow(activeRegionPages_);
    workHead_ = 0;
    recent_.fill(0);
    recentCount_ = 0;
    runLeft_ = 0;
    runLine_ = 0;
    instCount_ = 0;
    nextPhaseAt_ = prof_.phaseInstructions;
    phase_ = 0;
}

std::uint32_t
SyntheticTrace::gapOf(std::uint64_t m) const
{
    // Geometric-ish gap with mean (1-r)/r for memory ratio r, via
    // exponential sampling; rounding (not flooring) keeps the realised
    // memory ratio unbiased.
    double u = static_cast<double>(m) * 0x1.0p-53;
    double g = -gapMean_ * std::log(1.0 - u);
    return static_cast<std::uint32_t>(std::min(g + 0.5, 100000.0));
}

void
SyntheticTrace::buildGapTable()
{
    // gapOf is monotone in m, so a bucket maps to one gap iff its two
    // edges round to the same integer. Each edge is gapOf's expression
    // at the edge draw (1 - u is exact there) and must clear a margin
    // of 1e-9 relative: log errs by under one ULP, so such a bucket
    // cannot hold a draw gapOf rounds differently. The last edge
    // (u = 1) is infinite, or NaN when gapMean_ is 0, so that bucket
    // always falls back to gapOf.
    constexpr unsigned kBuckets = 1u << kGapTableBits;
    auto edge = [this](unsigned k) {
        return -gapMean_ * std::log(1.0 - static_cast<double>(k) /
                                              static_cast<double>(kBuckets)) +
               0.5;
    };
    double lo_edge = edge(0);
    for (unsigned k = 0; k < kBuckets; ++k) {
        const double hi_edge = edge(k + 1);
        const double top = std::max(lo_edge, hi_edge);
        const double margin = 1e-9 * (top + 1.0);
        const double lo = std::min(lo_edge, hi_edge) - margin;
        const double hi = top + margin;
        // On [0, kGapUntabled) a truncating cast is floor (and far
        // cheaper than std::floor without SSE4.1).
        const bool single =
            std::isfinite(lo_edge) && std::isfinite(hi_edge) &&
            lo >= 0.0 && hi < kGapUntabled &&
            static_cast<std::uint16_t>(lo) == static_cast<std::uint16_t>(hi);
        gapTable_[k] =
            single ? static_cast<std::uint16_t>(lo) : kGapUntabled;
        lo_edge = hi_edge;
    }
}

void
SyntheticTrace::maybeAdvancePhase()
{
    if (prof_.phaseInstructions == 0 || instCount_ < nextPhaseAt_)
        return;
    ++phase_;
    nextPhaseAt_ += prof_.phaseInstructions;
    // Hot-set drift: each slice of the popularity ranks re-salts with
    // probability phaseDrift and KEEPS its new salt, so the hot layout
    // random-walks. Per-phase churn stays bounded (≈ drift · hotPages
    // promotions) while the lifetime union of hot locations keeps
    // growing — which is what dilutes lifetime-based static profiling
    // (Section 7.1's static-vs-dynamic discussion).
    for (std::uint64_t &salt : sliceSalt_) {
        if (rng_.chance(prof_.phaseDrift))
            salt = rng_.next() % footprintPages_;
    }
}

Addr
SyntheticTrace::pickLine()
{
    const std::uint64_t footprint_lines = footprintPages_ * linesPerPage_;

    // Short-term reuse applies to every access, including mid-run:
    // spatial runs model new-line touches, reuse models the register/
    // stack locality interleaved with them. This keeps the LLC miss
    // rate ≈ (1 - reuseProb) · memRatio, the calibration handle.
    if (recentCount_ > 0 && rng_.chance(prof_.reuseProb)) {
        return recent_[rng_.nextBelow(
            std::min<std::uint64_t>(recentCount_, recent_.size()))];
    }

    if (runLeft_ > 0) {
        --runLeft_;
        runLine_ = (runLine_ + 1) % footprint_lines;
        return runLine_;
    }

    double sel = rng_.nextDouble();
    if (sel < prof_.pStream) {
        std::uint64_t &pos = streamPos_[nextStream_];
        nextStream_ = (nextStream_ + 1) % streamPos_.size();
        std::uint64_t line = pos;
        pos = (pos + 1) % footprint_lines;
        return line;
    }
    if (sel < prof_.pStream + prof_.pWork) {
        // Wandering working set: uniform over a FIFO ring of resident
        // pages. Lifetime reference counts are flat (profiling can't
        // rank these rows) but recency is strong (dynamic migration
        // keeps the residents fast). Slow turnover bounds promotion
        // churn to ≈ churn per working-set access.
        std::uint64_t line =
            workSet_[rng_.nextBelow(workSet_.size())] * linesPerPage_ +
            rng_.nextBelow(linesPerPage_);
        if (rng_.chance(prof_.workingSetChurn)) {
            workSet_[workHead_] = rng_.nextBelow(activeRegionPages_);
            workHead_ = (workHead_ + 1) % workSet_.size();
        }
        if (prof_.runLength > 1)
            runLeft_ = prof_.runLength - 1;
        runLine_ = line;
        return line;
    }
    if (sel < prof_.pStream + prof_.pWork + prof_.pHot) {
        // The hot set is hotPages_ pages scattered over the WHOLE
        // footprint by a multiplicative permutation: real hot rows are
        // sprinkled across the address space (heap allocation order),
        // so each migration group sees ≈ hotFraction of its rows hot —
        // the quantity the fast-level ratio competes with. Each rank
        // slice carries a salt that drifts across phases.
        std::uint64_t rank = rng_.nextZipf(hotZipf_);
        std::uint64_t salt = sliceSalt_[rank % sliceSalt_.size()];
        std::uint64_t page =
            (rank * 2147483647ULL + salt) % activeRegionPages_;
        std::uint64_t line =
            page * linesPerPage_ + rng_.nextBelow(linesPerPage_);
        // Spatial run within/after the chosen line (row locality).
        if (prof_.runLength > 1)
            runLeft_ = prof_.runLength - 1;
        runLine_ = line;
        return line;
    }
    // Uniform pointer chase: single-line touch, no run.
    std::uint64_t page = rng_.nextBelow(footprintPages_);
    return page * linesPerPage_ + rng_.nextBelow(linesPerPage_);
}

bool
SyntheticTrace::next(TraceEntry &out)
{
    // One 53-bit draw, the same one nextDouble() would make.
    const std::uint32_t gap = gapFor(rng_.next() >> 11);
    instCount_ += gap + 1;
    maybeAdvancePhase();

    std::uint64_t line = pickLine();
    recent_[recentCount_ % recent_.size()] = line;
    ++recentCount_;

    out.gap = gap;
    out.addr = line * lineBytes_;
    out.isWrite = rng_.chance(prof_.writeFraction);
    return true;
}

} // namespace dasdram
