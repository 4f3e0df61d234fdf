/**
 * @file
 * Synthetic trace generator driven by a BenchmarkProfile.
 *
 * Produces a deterministic, infinite stream of (gap, address, is_write)
 * records combining: short-term reuse (upper-cache locality), multiple
 * sequential streams, a skewed hot region that moves at phase
 * boundaries, and uniform-random pointer chasing — the behaviours the
 * paper's evaluation depends on.
 */

#ifndef DASDRAM_WORKLOAD_SYNTH_TRACE_HH
#define DASDRAM_WORKLOAD_SYNTH_TRACE_HH

#include <array>
#include <vector>

#include "common/random.hh"
#include "common/types.hh"
#include "cpu/trace.hh"
#include "workload/spec_profiles.hh"

namespace dasdram
{

/** TraceSource synthesising a SPEC-like reference stream. */
class SyntheticTrace : public TraceSource
{
  public:
    /**
     * @param profile generator knobs (copied).
     * @param seed    deterministic stream identity; the same (profile,
     *                seed) always produces the same trace.
     * @param page_bytes must match the DRAM row size for row-level
     *                locality to be meaningful.
     */
    SyntheticTrace(const BenchmarkProfile &profile, std::uint64_t seed,
                   std::uint64_t page_bytes = 8192,
                   std::uint64_t line_bytes = 64);

    bool next(TraceEntry &out) override;
    void reset() override;

    /** Footprint in pages (rows). */
    std::uint64_t footprintPages() const { return footprintPages_; }

    /** Hot-region size in pages. */
    std::uint64_t hotPages() const { return hotPages_; }

    /** Instructions generated so far (gaps included). */
    InstCount generatedInstructions() const { return instCount_; }

    /** Number of phase transitions so far. */
    std::uint64_t phaseCount() const { return phase_; }

    /** Checkpoint the generator's dynamic state (stream cursors, hot
     *  salts, working set, reuse window, RNG). Knobs derived from the
     *  (profile, seed) constructor arguments are not stored — the
     *  snapshot fingerprint guarantees they match on restore. */
    void
    serdeState(Archive &ar) override
    {
        ar.section("synthTrace");
        ar.io(streamPos_);
        ar.io(nextStream_);
        ar.io(sliceSalt_);
        ar.io(workSet_);
        ar.io(workHead_);
        for (Addr &a : recent_)
            ar.io(a);
        ar.io(recentCount_);
        ar.io(runLeft_);
        ar.io(runLine_);
        ar.io(instCount_);
        ar.io(nextPhaseAt_);
        ar.io(phase_);
        ar.io(gapMean_);
        rng_.serdeState(ar);
        ar.end();
        if (ar.loading())
            buildGapTable();
    }

  private:
    friend struct SyntheticTraceProbe; // tests: gap table vs gapOf

    /** Gap-table index bits: the top bits of a 53-bit gap draw. */
    static constexpr unsigned kGapTableBits = 10;
    /** Table entry meaning "no single gap: call gapOf". */
    static constexpr std::uint16_t kGapUntabled = 0xffff;

    Addr pickLine();
    void maybeAdvancePhase();
    /** The gap drawn by 53-bit uniform @p m: exponential with mean
     *  gapMean_, rounded to the nearest integer. */
    std::uint32_t gapOf(std::uint64_t m) const;
    /** Fill gapTable_ for the current gapMean_. */
    void buildGapTable();

    /** gapOf(m), by table lookup wherever the bucket holds one gap. */
    std::uint32_t
    gapFor(std::uint64_t m) const
    {
        std::uint32_t gap = gapTable_[m >> (53 - kGapTableBits)];
        return gap != kGapUntabled ? gap : gapOf(m);
    }

    BenchmarkProfile prof_;
    std::uint64_t seed_;
    std::uint64_t pageBytes_;
    std::uint64_t lineBytes_;
    std::uint64_t linesPerPage_;
    std::uint64_t footprintPages_;
    std::uint64_t activeRegionPages_ = 0;
    std::uint64_t hotPages_;

    Rng rng_;
    std::vector<std::uint64_t> streamPos_; ///< line indices
    unsigned nextStream_ = 0;
    std::vector<std::uint64_t> sliceSalt_; ///< per-rank-slice hot salts
    std::vector<std::uint64_t> workSet_;   ///< resident pages (FIFO ring)
    std::size_t workHead_ = 0;
    std::array<Addr, 8> recent_{};
    unsigned recentCount_ = 0;
    std::uint64_t runLeft_ = 0;
    std::uint64_t runLine_ = 0;
    InstCount instCount_ = 0;
    InstCount nextPhaseAt_ = 0;
    std::uint64_t phase_ = 0;
    double gapMean_ = 1.0;
    ZipfShape hotZipf_;
    /**
     * gapOf by the draw's top kGapTableBits bits: the gap every draw
     * in that bucket maps to, or kGapUntabled where the bucket spans a
     * rounding boundary (or the gap does not fit). Derived from
     * gapMean_, so rebuilt whenever a snapshot restores it.
     */
    std::array<std::uint16_t, 1u << kGapTableBits> gapTable_{};
};

} // namespace dasdram

#endif // DASDRAM_WORKLOAD_SYNTH_TRACE_HH
