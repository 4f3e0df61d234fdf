/**
 * @file
 * Open-addressing hash set of 64-bit keys for hot paths that insert
 * and erase often: no node per element, and clear() keeps the table.
 */

#ifndef DASDRAM_COMMON_FLAT_SET_HH
#define DASDRAM_COMMON_FLAT_SET_HH

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/log.hh"

namespace dasdram
{

/**
 * Set of std::uint64_t keys in one flat table: linear probing,
 * Fibonacci hashing, a power-of-two capacity kept at most half full,
 * and backward-shift erase (no tombstones). It allocates only when it
 * grows; clear() and erase() keep the capacity. One key, kEmpty, marks
 * a free slot and cannot be stored.
 */
class FlatU64Set
{
  public:
    static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};

    std::size_t size() const { return size_; }

    bool
    contains(std::uint64_t key) const
    {
        if (slots_.empty())
            return false;
        for (std::size_t i = home(key);; i = (i + 1) & mask()) {
            if (slots_[i] == key)
                return true;
            if (slots_[i] == kEmpty)
                return false;
        }
    }

    /** Add @p key; true iff it was not present. */
    bool
    insert(std::uint64_t key)
    {
        if (key == kEmpty)
            panic("FlatU64Set cannot store its empty-slot key");
        if (2 * (size_ + 1) > slots_.size())
            rehash(std::max<std::size_t>(16, 2 * slots_.size()));
        std::size_t i = home(key);
        for (; slots_[i] != kEmpty; i = (i + 1) & mask()) {
            if (slots_[i] == key)
                return false;
        }
        slots_[i] = key;
        ++size_;
        return true;
    }

    /** Remove @p key; true iff it was present. */
    bool
    erase(std::uint64_t key)
    {
        if (slots_.empty())
            return false;
        std::size_t hole = home(key);
        for (; slots_[hole] != key; hole = (hole + 1) & mask()) {
            if (slots_[hole] == kEmpty)
                return false;
        }
        // Shift back every later key of the probe run whose home does
        // not lie cyclically in (hole, j]: it was probed past the hole.
        for (std::size_t j = (hole + 1) & mask(); slots_[j] != kEmpty;
             j = (j + 1) & mask()) {
            const std::size_t h = home(slots_[j]);
            if (((j - h) & mask()) >= ((j - hole) & mask())) {
                slots_[hole] = slots_[j];
                hole = j;
            }
        }
        slots_[hole] = kEmpty;
        --size_;
        return true;
    }

    /** Remove every key, keeping the capacity. */
    void
    clear()
    {
        std::fill(slots_.begin(), slots_.end(), kEmpty);
        size_ = 0;
    }

    /** Grow (once) to hold @p n keys without a further rehash. */
    void
    reserve(std::size_t n)
    {
        const std::size_t want =
            std::bit_ceil(std::max<std::size_t>(16, 2 * n));
        if (want > slots_.size())
            rehash(want);
    }

    /** The keys in ascending order. */
    std::vector<std::uint64_t>
    sorted() const
    {
        std::vector<std::uint64_t> keys;
        keys.reserve(size_);
        for (std::uint64_t k : slots_) {
            if (k != kEmpty)
                keys.push_back(k);
        }
        std::sort(keys.begin(), keys.end());
        return keys;
    }

  private:
    std::size_t mask() const { return slots_.size() - 1; }

    std::size_t
    home(std::uint64_t key) const
    {
        return static_cast<std::size_t>((key * 0x9e3779b97f4a7c15ULL) >>
                                        shift_);
    }

    void
    rehash(std::size_t capacity)
    {
        std::vector<std::uint64_t> old(capacity, kEmpty);
        old.swap(slots_);
        shift_ = 64 - static_cast<unsigned>(std::countr_zero(capacity));
        for (std::uint64_t k : old) {
            if (k == kEmpty)
                continue;
            std::size_t i = home(k);
            while (slots_[i] != kEmpty)
                i = (i + 1) & mask();
            slots_[i] = k;
        }
    }

    std::vector<std::uint64_t> slots_;
    std::size_t size_ = 0;
    unsigned shift_ = 64;
};

} // namespace dasdram

#endif // DASDRAM_COMMON_FLAT_SET_HH
