#include "net/lpm.hh"

#include <algorithm>
#include <cassert>

namespace xui
{

LpmTable::LpmTable(unsigned max_tbl8_groups)
    : tbl24_(1u << 24, 0),
      tbl24Depth_(1u << 24, 0),
      tbl8_(static_cast<std::size_t>(max_tbl8_groups) * 256),
      maxTbl8_(max_tbl8_groups),
      tbl8Next_(0),
      routeCount_(0)
{}

bool
LpmTable::addRoute(std::uint32_t prefix, unsigned depth,
                   NextHop next_hop)
{
    if (depth < 1 || depth > 32 || next_hop > kValueMask)
        return false;
    // Mask host bits so callers can pass any address in the prefix.
    std::uint32_t mask =
        depth == 32 ? 0xffffffffu : ~(0xffffffffu >> depth);
    prefix &= mask;

    bool ok = depth <= 24 ? addShallowRoute(prefix, depth, next_hop)
                          : addDeepRoute(prefix, depth, next_hop);
    if (ok)
        ++routeCount_;
    return ok;
}

namespace
{

// Slots a shallow route paints per step. Spans this wide or wider
// are aligned to it.
constexpr std::uint32_t kBlock = 16;

/**
 * Paint one aligned block of non-extended tbl24 slots: a slot takes
 * the route when its depth is at most `depth`. Written as selects
 * over non-aliasing pointers so the compiler can vectorize it.
 */
void
paintBlock(std::uint16_t *__restrict entry,
           std::uint8_t *__restrict depth_of, std::uint16_t fresh,
           std::uint8_t depth)
{
    for (std::uint32_t k = 0; k < kBlock; ++k) {
        const bool w = depth_of[k] <= depth;
        entry[k] = w ? fresh : entry[k];
        depth_of[k] = w ? depth : depth_of[k];
    }
}

} // namespace

bool
LpmTable::addShallowRoute(std::uint32_t prefix, unsigned depth,
                          NextHop next_hop)
{
    const std::uint32_t start = prefix >> 8;
    const std::uint32_t end = start + (1u << (24 - depth));
    const std::uint16_t fresh = static_cast<std::uint16_t>(
        kValid | (next_hop & kValueMask));
    const auto d = static_cast<std::uint8_t>(depth);

    if (end - start < kBlock) {
        for (std::uint32_t i = start; i < end; ++i)
            paintSlot(i, fresh, d);
        return true;
    }
    // Spans of kBlock or more are kBlock-aligned. A block holding an
    // extended slot takes the per-slot path, which propagates into
    // that slot's tbl8 group.
    for (std::uint32_t b = start; b < end; b += kBlock) {
        const std::uint8_t *depth_of = &tbl24Depth_[b];
        std::uint8_t deepest = 0;
        for (std::uint32_t k = 0; k < kBlock; ++k)
            deepest = std::max(deepest, depth_of[k]);
        if (deepest == kExtendedDepth) {
            for (std::uint32_t i = b; i < b + kBlock; ++i)
                paintSlot(i, fresh, d);
        } else {
            paintBlock(&tbl24_[b], &tbl24Depth_[b], fresh, d);
        }
    }
    return true;
}

void
LpmTable::paintSlot(std::uint32_t i, std::uint16_t fresh,
                    std::uint8_t depth)
{
    const std::uint16_t cur = tbl24_[i];
    if (cur & kExtended) {
        // Propagate into the existing tbl8 group where this route is
        // the longest match.
        paintTbl8(cur & kValueMask, 0, 256, fresh, depth);
    } else if (tbl24Depth_[i] <= depth) {
        // An invalid slot has depth 0, so this also claims it.
        tbl24_[i] = fresh;
        tbl24Depth_[i] = depth;
    }
}

void
LpmTable::paintTbl8(std::uint32_t group, unsigned lo, unsigned hi,
                    std::uint16_t fresh, std::uint8_t depth)
{
    Tbl8Entry *g = &tbl8_[static_cast<std::size_t>(group) * 256];
    for (unsigned j = lo; j < hi; ++j) {
        if (!(g[j].entry & kValid) || g[j].depth <= depth) {
            g[j].entry = fresh;
            g[j].depth = depth;
        }
    }
}

int
LpmTable::allocateTbl8(std::uint16_t inherited_entry,
                       std::uint8_t inherited_depth)
{
    if (tbl8Next_ >= maxTbl8_)
        return -1;
    unsigned group = tbl8Next_++;
    Tbl8Entry *g = &tbl8_[static_cast<std::size_t>(group) * 256];
    for (unsigned j = 0; j < 256; ++j) {
        g[j].entry = inherited_entry;
        g[j].depth = inherited_depth;
    }
    return static_cast<int>(group);
}

bool
LpmTable::addDeepRoute(std::uint32_t prefix, unsigned depth,
                       NextHop next_hop)
{
    std::uint32_t idx = prefix >> 8;
    std::uint16_t cur = tbl24_[idx];
    std::uint32_t group;

    if (cur & kExtended) {
        group = cur & kValueMask;
    } else {
        // Expand: new group inherits the covering shallow route.
        std::uint16_t inherited =
            (cur & kValid)
                ? static_cast<std::uint16_t>(kValid |
                                             (cur & kValueMask))
                : std::uint16_t{0};
        int alloc = allocateTbl8(inherited, tbl24Depth_[idx]);
        if (alloc < 0)
            return false;
        group = static_cast<std::uint32_t>(alloc);
        tbl24_[idx] = static_cast<std::uint16_t>(
            kValid | kExtended | (group & kValueMask));
        // Deeper than any shallow route: no later tbl24 paint takes
        // this slot.
        tbl24Depth_[idx] = kExtendedDepth;
    }

    const unsigned low = prefix & 0xff;
    paintTbl8(group, low, low + (1u << (32 - depth)),
              static_cast<std::uint16_t>(kValid |
                                         (next_hop & kValueMask)),
              static_cast<std::uint8_t>(depth));
    return true;
}

LpmTable::NextHop
LpmTable::lookup(std::uint32_t ip) const
{
    std::uint16_t e = tbl24_[ip >> 8];
    if (e & kExtended) {
        const Tbl8Entry &t =
            tbl8_[static_cast<std::size_t>(e & kValueMask) * 256 +
                  (ip & 0xff)];
        if (t.entry & kValid)
            return t.entry & kValueMask;
        return kNoRoute;
    }
    if (e & kValid)
        return e & kValueMask;
    return kNoRoute;
}

} // namespace xui
