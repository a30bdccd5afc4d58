#include "uarch/cache.hh"

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
      lines_(std::make_unique_for_overwrite<Line[]>(numSets_ * assoc)),
      live_(std::make_unique<std::uint64_t[]>((numSets_ + 63) / 64)),
      stamp_(0),
      hits_(0),
      misses_(0)
{
    assert(std::has_single_bit(static_cast<std::uint64_t>(line_bytes)));
    assert(std::has_single_bit(numSets_));
    assert(numSets_ >= 1);
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

unsigned
Cache::access(std::uint64_t addr)
{
    std::uint64_t set = setIndex(addr);
    std::uint64_t tag = tagOf(addr);
    Line *base = touchSet(set);

    Line *victim = base;
    for (unsigned w = 0; w < assoc_; ++w) {
        Line &line = base[w];
        if (line.valid && line.tag == tag) {
            line.lruStamp = ++stamp_;
            ++hits_;
            return hitLatency_;
        }
        if (!line.valid) {
            victim = &line;
        } else if (victim->valid &&
                   line.lruStamp < victim->lruStamp) {
            victim = &line;
        }
    }

    ++misses_;
    unsigned below = next_ ? next_->access(addr) : missLatency_;
    victim->valid = true;
    victim->tag = tag;
    victim->lruStamp = ++stamp_;
    return hitLatency_ + below;
}

bool
Cache::contains(std::uint64_t addr) const
{
    std::uint64_t set = setIndex(addr);
    if (!isLive(set))
        return false;
    std::uint64_t tag = tagOf(addr);
    const Line *base = &lines_[set * assoc_];
    for (unsigned w = 0; w < assoc_; ++w) {
        if (base[w].valid && base[w].tag == tag)
            return true;
    }
    return false;
}

void
Cache::invalidate(std::uint64_t addr)
{
    std::uint64_t set = setIndex(addr);
    if (!isLive(set))
        return;
    std::uint64_t tag = tagOf(addr);
    Line *base = &lines_[set * assoc_];
    for (unsigned w = 0; w < assoc_; ++w) {
        if (base[w].valid && base[w].tag == tag)
            base[w].valid = false;
    }
}

void
Cache::zeroSet(std::uint64_t set)
{
    Line *base = &lines_[set * assoc_];
    for (unsigned w = 0; w < assoc_; ++w)
        base[w] = Line{};
    live_[set >> 6] |= std::uint64_t{1} << (set & 63);
}

void
Cache::flushAll()
{
    // Live sets stay live: their tags and LRU stamps survive a flush
    // (only valid drops), and the checkpoint encodes them.
    const std::uint64_t words = (numSets_ + 63) / 64;
    for (std::uint64_t i = 0; i < words; ++i) {
        for (std::uint64_t bits = live_[i]; bits != 0; bits &= bits - 1) {
            const std::uint64_t set =
                i * 64 + static_cast<unsigned>(std::countr_zero(bits));
            Line *base = &lines_[set * assoc_];
            for (unsigned w = 0; w < assoc_; ++w)
                base[w].valid = false;
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
