#include "net/lpm.hh"

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <new>

namespace xui
{

namespace
{

// Entry encoding, shared by tbl24 and tbl8: bit 15 valid; bit 14
// extended (tbl24 only), the low 14 bits then index a tbl8 group;
// otherwise bits 13..8 hold the depth that wrote the entry and bits
// 7..0 the next hop. An invalid entry is 0.
constexpr std::uint16_t kValid = 0x8000;
constexpr std::uint16_t kExtended = 0x4000;
constexpr std::uint16_t kGroupMask = 0x3fff;
constexpr std::uint16_t kHopMask = 0xff;
constexpr unsigned kMaxTbl8Groups = kGroupMask + 1;

// Slots a shallow route paints per step. Spans this wide or wider
// are aligned to it.
constexpr std::uint32_t kBlock = 16;

/**
 * Whether a route writing `fresh` takes an entry holding `cur`:
 * `cur` is invalid or no deeper than the route. An extended slot
 * (>= 0xc000) is above every limit.
 */
bool
takes(std::uint16_t fresh, std::uint16_t cur)
{
    return cur <= (fresh | kHopMask);
}

/** Paint one aligned block of non-extended tbl24 slots. */
void
paintBlock(std::uint16_t *entry, std::uint16_t fresh)
{
    for (std::uint32_t k = 0; k < kBlock; ++k)
        entry[k] = takes(fresh, entry[k]) ? fresh : entry[k];
}

constexpr std::size_t kTbl24Slots = std::size_t{1} << 24;
constexpr std::size_t kTbl24Bytes = kTbl24Slots * sizeof(std::uint16_t);
constexpr std::size_t kHugePage = std::size_t{2} << 20;

/** The PROT_NONE page kept after tbl24. */
std::size_t
guardBytes()
{
    return static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
}

/**
 * Map a zeroed tbl24 on a 2 MiB boundary with a guard page after it:
 * over-map by one huge page, trim the head and the tail past the
 * guard, then ask for huge pages and prefault the table. The madvise
 * calls are hints; when either fails the kernel still zero-fills
 * each page on first touch.
 */
std::uint16_t *
mapTbl24()
{
    const std::size_t guard = guardBytes();
    void *raw = mmap(nullptr, kTbl24Bytes + kHugePage,
                     PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS,
                     -1, 0);
    if (raw == MAP_FAILED)
        throw std::bad_alloc();
    auto *base = static_cast<char *>(raw);
    const auto addr = reinterpret_cast<std::uintptr_t>(raw);
    const std::size_t head = (kHugePage - addr % kHugePage) % kHugePage;
    char *table = base + head;
    // head is a whole number of pages below kHugePage, so the tail
    // (kHugePage - head) holds at least the guard page.
    if (head)
        munmap(base, head);
    if (kHugePage - head > guard)
        munmap(table + kTbl24Bytes + guard, kHugePage - head - guard);
    if (mprotect(table + kTbl24Bytes, guard, PROT_NONE) != 0) {
        munmap(table, kTbl24Bytes + guard);
        throw std::bad_alloc();
    }
    madvise(table, kTbl24Bytes, MADV_HUGEPAGE);
    madvise(table, kTbl24Bytes, MADV_POPULATE_WRITE);
    return reinterpret_cast<std::uint16_t *>(table);
}

} // namespace

LpmTable::LpmTable(unsigned max_tbl8_groups)
    : tbl24Map_(mapTbl24()), tbl24_(tbl24Map_.get(), kTbl24Slots),
      tbl8_(static_cast<std::size_t>(
                std::min(max_tbl8_groups, kMaxTbl8Groups)) *
            256),
      tbl8Next_(0),
      routeCount_(0)
{}

void
LpmTable::Unmap::operator()(std::uint16_t *table) const
{
    munmap(table, kTbl24Bytes + guardBytes());
}

bool
LpmTable::addRoute(std::uint32_t prefix, unsigned depth,
                   NextHop next_hop)
{
    if (depth < 1 || depth > 32 || next_hop > kHopMask)
        return false;
    // Mask host bits so callers can pass any address in the prefix.
    std::uint32_t mask =
        depth == 32 ? 0xffffffffu : ~(0xffffffffu >> depth);
    prefix &= mask;

    const auto fresh =
        static_cast<std::uint16_t>(kValid | depth << 8 | next_hop);
    if (depth <= 24)
        addShallowRoute(prefix, depth, fresh);
    else if (!addDeepRoute(prefix, depth, fresh))
        return false;
    ++routeCount_;
    return true;
}

void
LpmTable::addShallowRoute(std::uint32_t prefix, unsigned depth,
                          std::uint16_t fresh)
{
    const std::uint32_t start = prefix >> 8;
    const std::uint32_t end = start + (1u << (24 - depth));

    if (end - start < kBlock) {
        for (std::uint32_t i = start; i < end; ++i)
            paintSlot(i, fresh);
        return;
    }
    // Spans of kBlock or more are kBlock-aligned. A block holding an
    // extended slot takes the per-slot path, which propagates into
    // that slot's tbl8 group.
    for (std::uint32_t b = start; b < end; b += kBlock) {
        std::uint16_t *block = &tbl24_[b];
        std::uint16_t any = 0;
        for (std::uint32_t k = 0; k < kBlock; ++k)
            any |= block[k];
        if (any & kExtended) {
            for (std::uint32_t i = b; i < b + kBlock; ++i)
                paintSlot(i, fresh);
        } else {
            paintBlock(block, fresh);
        }
    }
}

void
LpmTable::paintSlot(std::uint32_t i, std::uint16_t fresh)
{
    const std::uint16_t cur = tbl24_[i];
    if (cur & kExtended) {
        // Propagate into the existing tbl8 group where this route is
        // the longest match.
        paintTbl8(cur & kGroupMask, 0, 256, fresh);
    } else if (takes(fresh, cur)) {
        tbl24_[i] = fresh;
    }
}

void
LpmTable::paintTbl8(std::uint32_t group, unsigned lo, unsigned hi,
                    std::uint16_t fresh)
{
    std::uint16_t *g = &tbl8_[static_cast<std::size_t>(group) * 256];
    for (unsigned j = lo; j < hi; ++j)
        g[j] = takes(fresh, g[j]) ? fresh : g[j];
}

int
LpmTable::allocateTbl8(std::uint16_t inherited)
{
    if (tbl8Next_ == tbl8_.size() / 256)
        return -1;
    unsigned group = tbl8Next_++;
    std::fill_n(&tbl8_[static_cast<std::size_t>(group) * 256], 256,
                inherited);
    return static_cast<int>(group);
}

bool
LpmTable::addDeepRoute(std::uint32_t prefix, unsigned depth,
                       std::uint16_t fresh)
{
    const std::uint32_t idx = prefix >> 8;
    std::uint16_t cur = tbl24_[idx];

    if (!(cur & kExtended)) {
        // Expand: the new group inherits the covering shallow route,
        // depth included.
        int group = allocateTbl8(cur);
        if (group < 0)
            return false;
        cur = static_cast<std::uint16_t>(kValid | kExtended | group);
        tbl24_[idx] = cur;
    }

    const unsigned low = prefix & 0xff;
    paintTbl8(cur & kGroupMask, low, low + (1u << (32 - depth)),
              fresh);
    return true;
}

LpmTable::NextHop
LpmTable::lookup(std::uint32_t ip) const
{
    std::uint16_t e = tbl24_[ip >> 8];
    if (e & kExtended)
        e = tbl8_[static_cast<std::size_t>(e & kGroupMask) * 256 +
                  (ip & 0xff)];
    return (e & kValid) ? (e & kHopMask) : kNoRoute;
}

} // namespace xui
