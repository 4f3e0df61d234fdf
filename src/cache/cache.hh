/**
 * @file
 * A functional set-associative write-back cache with pluggable
 * replacement, used for L1/L2/LLC and for the DAS translation cache.
 * Timing is handled by the owner; this class models contents only.
 */

#ifndef DASDRAM_CACHE_CACHE_HH
#define DASDRAM_CACHE_CACHE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/random.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace dasdram
{

/** Replacement policy for Cache. */
enum class CacheRepl
{
    Lru,
    Random,
};

/** Geometry and policy of one cache. */
struct CacheConfig
{
    std::uint64_t sizeBytes = 64 * KiB;
    unsigned assoc = 8;
    std::uint64_t lineBytes = 64;
    CacheRepl repl = CacheRepl::Lru;

    std::uint64_t
    numSets() const
    {
        return sizeBytes / (lineBytes * assoc);
    }
};

/**
 * Set-associative cache directory. Addresses passed in may be unaligned;
 * they are truncated to lines internally.
 */
class Cache
{
  public:
    /** Result of an insertion: the victim line, if one was evicted. */
    struct Eviction
    {
        bool valid = false;
        Addr line = kAddrInvalid;
        bool dirty = false;
    };

    Cache(const CacheConfig &cfg, std::string name,
          std::uint64_t seed = 1);

    /**
     * Look up @p addr; on hit update recency (and dirty when
     * @p is_write). Misses do NOT allocate — use insert() on fill.
     * @return true on hit.
     */
    bool access(Addr addr, bool is_write);

    /** Hit check without state update. */
    bool probe(Addr addr) const;

    /**
     * Allocate a line (e.g. on fill or writeback from an upper level).
     * If the line is already present it is refreshed (dirty OR-ed in)
     * and no eviction happens.
     */
    Eviction insert(Addr addr, bool dirty);

    /** Remove a line. @return true iff it was present and dirty. */
    bool invalidate(Addr addr);

    /** Line-align an address. */
    Addr
    lineAddr(Addr addr) const
    {
        return addr & ~(cfg_.lineBytes - 1);
    }

    const CacheConfig &config() const { return cfg_; }
    const std::string &name() const { return name_; }

    std::uint64_t hits() const { return hits_.value(); }
    std::uint64_t misses() const { return misses_.value(); }
    std::uint64_t evictions() const { return evictions_.value(); }
    std::uint64_t dirtyEvictions() const { return dirtyEvictions_.value(); }

    /** Fraction of lines currently valid (for warm-up checks). */
    double occupancy() const;

    /** Checkpoint directory contents, recency stamps and the
     *  replacement RNG (stats ride the owner's StatGroup tree). */
    void serdeState(Archive &ar);

    StatGroup &stats() { return statGroup_; }

  private:
    /** Index of the first way of @p line's set in the tag arrays. */
    std::size_t
    setBase(Addr line) const
    {
        return static_cast<std::size_t>((line >> lineShift_) & setMask_) *
               cfg_.assoc;
    }

    /** Way index of @p line in the tag arrays, or kNoWay on a miss. */
    std::size_t find(Addr line) const;

    static constexpr std::size_t kNoWay = ~std::size_t{0};

    CacheConfig cfg_;
    std::string name_;
    unsigned lineShift_ = 0;    ///< log2(lineBytes)
    std::uint64_t setMask_ = 0; ///< numSets - 1

    /**
     * Per-way state as parallel arrays indexed [set * assoc + way], so
     * a lookup scans only the set's tags. A tag of kAddrInvalid marks
     * an empty way (line addresses are aligned, so never equal it).
     */
    std::vector<Addr> tags_;
    std::vector<std::uint64_t> stamps_; ///< LRU recency
    std::vector<std::uint8_t> dirty_;
    std::uint64_t stampCounter_ = 0;
    Rng rng_;

    StatGroup statGroup_;
    Counter hits_, misses_, evictions_, dirtyEvictions_;
};

} // namespace dasdram

#endif // DASDRAM_CACHE_CACHE_HH
