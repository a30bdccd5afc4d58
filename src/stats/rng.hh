/**
 * @file
 * Deterministic pseudo-random number generation for all simulators.
 *
 * Every stochastic element in the repository (packet arrivals, offload
 * noise, workload memory addresses, request mixes) draws from an
 * explicitly seeded Rng so that simulations are reproducible
 * bit-for-bit. The generator is xoshiro256** seeded via SplitMix64,
 * which has far better statistical behaviour than std::minstd and is
 * much cheaper than std::mt19937_64.
 */

#ifndef XUI_STATS_RNG_HH
#define XUI_STATS_RNG_HH

#include <bit>
#include <cstdint>

namespace xui
{

/**
 * xoshiro256** pseudo-random generator with SplitMix64 seeding.
 *
 * Satisfies the std uniform_random_bit_generator concept so it can be
 * used with standard distributions, although the distributions in
 * distributions.hh are preferred since they are reproducible across
 * standard library implementations.
 */
class Rng
{
  public:
    using result_type = std::uint64_t;

    /** Construct from a 64-bit seed; any value (including 0) is fine. */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull);

    /** Return the next 64-bit pseudo-random value. */
    std::uint64_t
    next()
    {
        const std::uint64_t result = std::rotl(s_[1] * 5, 7) * 9;
        const std::uint64_t t = s_[1] << 17;

        s_[2] ^= s_[0];
        s_[3] ^= s_[1];
        s_[1] ^= s_[2];
        s_[0] ^= s_[3];
        s_[2] ^= t;
        s_[3] = std::rotl(s_[3], 45);

        return result;
    }

    /** std URBG interface. */
    result_type operator()() { return next(); }

    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~0ull; }

    /** Uniform double in [0, 1). */
    double nextDouble();

    /**
     * Uniform integer in [0, bound) by Lemire's multiply-shift with
     * rejection. The threshold (2^64 mod bound) needs a division,
     * and the low product word can only fall below it when that
     * word is below `bound`, so the division runs only then. The
     * accepted draws, and the draws consumed, are those of testing
     * every draw against the threshold. Bound 0 returns 0 and
     * draws nothing.
     */
    std::uint64_t
    nextBounded(std::uint64_t bound)
    {
        if (bound == 0)
            return 0;
        unsigned __int128 m =
            static_cast<unsigned __int128>(next()) * bound;
        if (static_cast<std::uint64_t>(m) < bound) {
            const std::uint64_t threshold = (-bound) % bound;
            while (static_cast<std::uint64_t>(m) < threshold)
                m = static_cast<unsigned __int128>(next()) * bound;
        }
        return static_cast<std::uint64_t>(m >> 64);
    }

    /** Uniform integer in [lo, hi] inclusive. */
    std::int64_t nextRange(std::int64_t lo, std::int64_t hi);

    /** Bernoulli draw with probability p of returning true. */
    bool nextBool(double p);

    /**
     * Split off an independent child generator. Each call produces a
     * stream decorrelated from the parent and from other children,
     * allowing per-component seeding from one master seed.
     */
    Rng split();

    /**
     * Checkpoint archive visit (ckpt/codec.hh). The four xoshiro256**
     * words ARE the complete generator state; restoring them resumes
     * the stream bit-exactly.
     */
    template <class Ar>
    void visit(Ar &ar)
    {
        for (std::uint64_t &w : s_)
            ar.u64(w);
    }

  private:
    std::uint64_t s_[4];
};

} // namespace xui

#endif // XUI_STATS_RNG_HH
