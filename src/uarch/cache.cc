#include "uarch/cache.hh"

#include <algorithm>
#include <bit>
#include <cassert>

namespace xui
{

Cache::Cache(std::uint64_t size_bytes, unsigned assoc,
             unsigned line_bytes, unsigned hit_latency, Cache *next,
             unsigned miss_latency)
    : assoc_(assoc),
      lineShift_(static_cast<unsigned>(std::countr_zero(
          static_cast<std::uint64_t>(line_bytes)))),
      numSets_(size_bytes / (static_cast<std::uint64_t>(assoc) *
                             line_bytes)),
      hitLatency_(hit_latency),
      missLatency_(miss_latency),
      next_(next),
      tags_(std::make_unique_for_overwrite<std::uint64_t[]>(
          numSets_ * assoc)),
      stamps_(std::make_unique_for_overwrite<std::uint64_t[]>(
          numSets_ * assoc)),
      valid_(std::make_unique_for_overwrite<std::uint64_t[]>(numSets_)),
      live_(std::make_unique<std::uint64_t[]>((numSets_ + 63) / 64)),
      stamp_(0),
      hits_(0),
      misses_(0)
{
    assert(std::has_single_bit(static_cast<std::uint64_t>(line_bytes)));
    assert(std::has_single_bit(numSets_));
    assert(numSets_ >= 1);
    assert(assoc >= 1 && assoc <= 64);
}

std::uint64_t
Cache::setIndex(std::uint64_t addr) const
{
    return (addr >> lineShift_) & (numSets_ - 1);
}

std::uint64_t
Cache::tagOf(std::uint64_t addr) const
{
    return addr >> lineShift_;
}

std::uint64_t
Cache::hitMask(std::uint64_t set, std::uint64_t tag) const
{
    const std::uint64_t *tags = &tags_[set * assoc_];
    std::uint64_t match = 0;
    for (unsigned w = 0; w < assoc_; ++w)
        match |= std::uint64_t{tags[w] == tag} << w;
    return match & valid_[set];
}

unsigned
Cache::access(std::uint64_t addr)
{
    const std::uint64_t set = setIndex(addr);
    const std::uint64_t tag = tagOf(addr);
    touchSet(set);
    const std::uint64_t first = set * assoc_;

    // Compare only valid ways, lowest first, and stop at the hit:
    // fast-forward memory ops mostly hit, and comparing every way
    // (hitMask) made them ~30% slower.
    for (std::uint64_t m = valid_[set]; m != 0; m &= m - 1) {
        const unsigned w = static_cast<unsigned>(std::countr_zero(m));
        if (tags_[first + w] == tag) {
            stamps_[first + w] = ++stamp_;
            ++hits_;
            return hitLatency_;
        }
    }

    // Victim: the highest-numbered invalid way, else the lowest-
    // numbered way with the smallest stamp.
    const std::uint64_t all = ~std::uint64_t{0} >> (64 - assoc_);
    const std::uint64_t invalid = ~valid_[set] & all;
    unsigned victim = 0;
    if (invalid != 0) {
        victim = 63 - static_cast<unsigned>(std::countl_zero(invalid));
    } else {
        const std::uint64_t *stamps = &stamps_[first];
        for (unsigned w = 1; w < assoc_; ++w) {
            if (stamps[w] < stamps[victim])
                victim = w;
        }
    }

    ++misses_;
    unsigned below = next_ ? next_->access(addr) : missLatency_;
    valid_[set] |= std::uint64_t{1} << victim;
    tags_[first + victim] = tag;
    stamps_[first + victim] = ++stamp_;
    return hitLatency_ + below;
}

bool
Cache::contains(std::uint64_t addr) const
{
    const std::uint64_t set = setIndex(addr);
    return isLive(set) && hitMask(set, tagOf(addr)) != 0;
}

void
Cache::invalidate(std::uint64_t addr)
{
    const std::uint64_t set = setIndex(addr);
    if (!isLive(set))
        return;
    valid_[set] &= ~hitMask(set, tagOf(addr));
}

void
Cache::zeroSet(std::uint64_t set)
{
    const std::uint64_t first = set * assoc_;
    std::fill_n(&tags_[first], assoc_, 0);
    std::fill_n(&stamps_[first], assoc_, 0);
    valid_[set] = 0;
    live_[set >> 6] |= std::uint64_t{1} << (set & 63);
}

void
Cache::flushAll()
{
    // Live sets stay live: their tags and LRU stamps survive a flush
    // (only the valid mask clears), and the checkpoint encodes them.
    const std::uint64_t words = (numSets_ + 63) / 64;
    for (std::uint64_t i = 0; i < words; ++i) {
        for (std::uint64_t bits = live_[i]; bits != 0; bits &= bits - 1) {
            const std::uint64_t set =
                i * 64 + static_cast<unsigned>(std::countr_zero(bits));
            valid_[set] = 0;
        }
    }
}

MemHierarchy::MemHierarchy(const MemHierarchyParams &params)
    : params_(params),
      llc_(params.llcSize, params.llcAssoc, params.lineBytes,
           params.llcLatency, nullptr, params.memLatency),
      l2_(params.l2Size, params.l2Assoc, params.lineBytes,
          params.l2Latency, &llc_),
      l1_(params.l1Size, params.l1Assoc, params.lineBytes,
          params.l1Latency, &l2_)
{}

unsigned
MemHierarchy::remoteAccess(std::uint64_t addr)
{
    // The line was modified remotely: it cannot be valid locally.
    l1_.invalidate(addr);
    l2_.invalidate(addr);
    // Source from the remote core's cache via the LLC; the transfer
    // costs an LLC round trip. The line becomes locally cached.
    unsigned latency = params_.llcLatency + l1_.access(addr) -
        params_.l1Latency;
    return latency;
}

} // namespace xui
