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
    std::uint64_t next();

    /** std URBG interface. */
    result_type operator()() { return next(); }

    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~0ull; }

    /** Uniform double in [0, 1). */
    double nextDouble();

    /** Uniform integer in [0, bound) using Lemire rejection. */
    std::uint64_t nextBounded(std::uint64_t bound);

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
