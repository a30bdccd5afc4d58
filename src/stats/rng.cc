#include "stats/rng.hh"

namespace xui
{

namespace
{

std::uint64_t
splitMix64(std::uint64_t &state)
{
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

} // namespace

Rng::Rng(std::uint64_t seed)
{
    std::uint64_t sm = seed;
    for (auto &word : s_)
        word = splitMix64(sm);
}

double
Rng::nextDouble()
{
    // 53 high bits -> uniform in [0, 1).
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

std::int64_t
Rng::nextRange(std::int64_t lo, std::int64_t hi)
{
    std::uint64_t span =
        static_cast<std::uint64_t>(hi - lo) + 1;
    return lo + static_cast<std::int64_t>(nextBounded(span));
}

bool
Rng::nextBool(double p)
{
    return nextDouble() < p;
}

Rng
Rng::split()
{
    return Rng(next() ^ 0xdeadbeefcafef00dull);
}

} // namespace xui
