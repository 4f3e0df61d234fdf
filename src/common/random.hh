/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * A small, fast xoshiro256** generator is used instead of <random> engines
 * so that simulation results are bit-identical across standard libraries.
 */

#ifndef DASDRAM_COMMON_RANDOM_HH
#define DASDRAM_COMMON_RANDOM_HH

#include <cstdint>

#include "common/serde.hh"

namespace dasdram
{

/**
 * The per-(n, s) invariants of Rng::nextZipf: the two pow/divide
 * results that do not depend on the draw.
 */
struct ZipfShape
{
    ZipfShape() = default; ///< the n = 0 shape: every draw is rank 0
    ZipfShape(std::uint64_t n, double s);

    std::uint64_t n = 0;
    double hi = 0.0;          ///< (n + 1)^(1 - s)
    double invExponent = 0.0; ///< 1 / (1 - s)
};

/**
 * xoshiro256** PRNG (Blackman & Vigna). Deterministic given a seed,
 * regardless of platform or standard library.
 */
class Rng
{
  public:
    /** Construct from a 64-bit seed via splitmix64 expansion. */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

    /** Next raw 64-bit value. */
    std::uint64_t
    next()
    {
        const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
        const std::uint64_t t = s_[1] << 17;
        s_[2] ^= s_[0];
        s_[3] ^= s_[1];
        s_[1] ^= s_[2];
        s_[0] ^= s_[3];
        s_[2] ^= t;
        s_[3] = rotl(s_[3], 45);
        return result;
    }

    /** Uniform integer in [0, bound). @pre bound > 0. */
    std::uint64_t
    nextBelow(std::uint64_t bound)
    {
        // Lemire's multiply-shift rejection-free mapping is fine here:
        // the slight modulo bias of (next() % bound) is irrelevant for
        // workload synthesis, but the multiply-shift is also faster.
        unsigned __int128 m =
            static_cast<unsigned __int128>(next()) * bound;
        return static_cast<std::uint64_t>(m >> 64);
    }

    /** Uniform integer in [lo, hi] inclusive. @pre lo <= hi. */
    std::uint64_t nextRange(std::uint64_t lo, std::uint64_t hi);

    /** Uniform double in [0, 1): the top 53 bits of one next(). */
    double
    nextDouble()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** Bernoulli trial with probability p of true. */
    bool
    chance(double p)
    {
        if (p <= 0.0)
            return false;
        if (p >= 1.0)
            return true;
        return nextDouble() < p;
    }

    /**
     * Sample from a truncated Zipf-like distribution over [0, n):
     * rank r has weight 1 / (r + 1)^s. Used for hot-set skew.
     * Implemented by a continuous inverse CDF. Equivalent to
     * nextZipf(ZipfShape(n, s)); callers drawing repeatedly from one
     * (n, s) should hoist the shape.
     */
    std::uint64_t nextZipf(std::uint64_t n, double s);

    /** nextZipf over precomputed (n, s) invariants; bit-identical. */
    std::uint64_t nextZipf(const ZipfShape &z);

    /** Checkpoint the full generator state. */
    void
    serdeState(Archive &ar)
    {
        for (std::uint64_t &s : s_)
            ar.io(s);
    }

  private:
    static std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::uint64_t s_[4];
};

} // namespace dasdram

#endif // DASDRAM_COMMON_RANDOM_HH
