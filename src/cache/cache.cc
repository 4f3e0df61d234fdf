#include "cache.hh"

#include <algorithm>

#include "common/bitutil.hh"
#include "common/log.hh"

namespace dasdram
{

Cache::Cache(const CacheConfig &cfg, std::string name, std::uint64_t seed)
    : cfg_(cfg), name_(std::move(name)), rng_(seed), statGroup_(name_)
{
    if (!isPowerOfTwo(cfg.lineBytes))
        fatal("cache '{}': line size must be a power of two", name_);
    if (cfg.assoc == 0 || cfg.sizeBytes % (cfg.lineBytes * cfg.assoc) != 0)
        fatal("cache '{}': size not divisible by assoc*line", name_);
    if (!isPowerOfTwo(cfg.numSets()))
        fatal("cache '{}': number of sets must be a power of two", name_);

    lineShift_ = log2Exact(cfg.lineBytes);
    setMask_ = cfg.numSets() - 1;
    const std::size_t ways = cfg.numSets() * cfg.assoc;
    tags_.assign(ways, kAddrInvalid);
    stamps_.assign(ways, 0);
    dirty_.assign(ways, 0);

    statGroup_.addCounter("hits", &hits_);
    statGroup_.addCounter("misses", &misses_);
    statGroup_.addCounter("evictions", &evictions_);
    statGroup_.addCounter("dirtyEvictions", &dirtyEvictions_);
}

std::size_t
Cache::find(Addr line) const
{
    const std::size_t base = setBase(line);
    const Addr *tags = &tags_[base];
    for (unsigned w = 0; w < cfg_.assoc; ++w) {
        if (tags[w] == line)
            return base + w;
    }
    return kNoWay;
}

bool
Cache::access(Addr addr, bool is_write)
{
    const std::size_t i = find(lineAddr(addr));
    if (i != kNoWay) {
        stamps_[i] = ++stampCounter_;
        if (is_write)
            dirty_[i] = 1;
        hits_.inc();
        return true;
    }
    misses_.inc();
    return false;
}

bool
Cache::probe(Addr addr) const
{
    return find(lineAddr(addr)) != kNoWay;
}

Cache::Eviction
Cache::insert(Addr addr, bool dirty)
{
    const Addr line = lineAddr(addr);
    Eviction ev;
    // One pass over the set: a present line is refreshed, otherwise
    // the first empty way takes it.
    const std::size_t base = setBase(line);
    std::size_t victim = kNoWay;
    for (std::size_t i = base; i < base + cfg_.assoc; ++i) {
        if (tags_[i] == line) {
            stamps_[i] = ++stampCounter_;
            dirty_[i] |= dirty ? 1 : 0;
            return ev;
        }
        if (tags_[i] == kAddrInvalid && victim == kNoWay)
            victim = i;
    }
    if (victim == kNoWay) {
        if (cfg_.repl == CacheRepl::Random) {
            victim = base + rng_.nextBelow(cfg_.assoc);
        } else {
            victim = base;
            for (unsigned w = 1; w < cfg_.assoc; ++w) {
                if (stamps_[base + w] < stamps_[victim])
                    victim = base + w;
            }
        }
        ev.valid = true;
        ev.line = tags_[victim];
        ev.dirty = dirty_[victim] != 0;
        evictions_.inc();
        if (ev.dirty)
            dirtyEvictions_.inc();
    }

    tags_[victim] = line;
    dirty_[victim] = dirty ? 1 : 0;
    stamps_[victim] = ++stampCounter_;
    return ev;
}

bool
Cache::invalidate(Addr addr)
{
    const std::size_t i = find(lineAddr(addr));
    if (i == kNoWay)
        return false;
    const bool was_dirty = dirty_[i] != 0;
    tags_[i] = kAddrInvalid;
    dirty_[i] = 0;
    return was_dirty;
}

void
Cache::serdeState(Archive &ar)
{
    // Per-line (tag, valid, dirty, stamp) records: the v1 layout.
    ar.section("cache");
    ar.expectCount(tags_.size(), "cache lines");
    for (std::size_t i = 0; i < tags_.size(); ++i) {
        bool valid = tags_[i] != kAddrInvalid;
        bool dirty = dirty_[i] != 0;
        ar.io(tags_[i]);
        ar.io(valid);
        ar.io(dirty);
        ar.io(stamps_[i]);
        if (!valid)
            tags_[i] = kAddrInvalid;
        dirty_[i] = dirty ? 1 : 0;
    }
    ar.io(stampCounter_);
    rng_.serdeState(ar);
    ar.end();
}

double
Cache::occupancy() const
{
    const auto valid = static_cast<std::uint64_t>(
        std::count_if(tags_.begin(), tags_.end(),
                      [](Addr t) { return t != kAddrInvalid; }));
    return tags_.empty() ? 0.0
                         : static_cast<double>(valid) /
                               static_cast<double>(tags_.size());
}

} // namespace dasdram
