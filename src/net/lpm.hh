/**
 * @file
 * DIR-24-8 longest-prefix-match table — the same algorithm as DPDK's
 * librte_lpm, which l3fwd uses (§5.4): a 2^24-entry direct-indexed
 * table for the first 24 bits, overflowing into 256-entry "tbl8"
 * groups for prefixes longer than /24. Lookup is one or two array
 * reads. As in DPDK's original rte_lpm, every entry is one 16-bit
 * word that carries the depth of the route that wrote it, so
 * insertions keep longest-prefix semantics regardless of insertion
 * order.
 *
 * A route of depth d takes an entry when the entry is at most the
 * word the route would write with next hop 0xff. That one compare
 * takes an invalid entry (0) and any entry of depth <= d, and never
 * an extended tbl24 slot (one that points at a tbl8 group), which
 * sorts above every valid route word. Routes of /20 or shorter span
 * whole 16-slot blocks and paint them branch-free, 16 slots per
 * step; a block holding an extended slot, and the 1..8 slots of a
 * /21../24, go slot by slot and propagate into the slot's tbl8
 * group.
 *
 * The 32 MiB tbl24 is its own anonymous mapping on a 2 MiB
 * boundary, as DPDK keeps rte_lpm in hugepage memory. The kernel
 * hands it out zeroed, and the constructor asks for transparent huge
 * pages and prefaults the table in one madvise call: 16 huge-page
 * faults and no memset pass, where a zero-filled vector takes 8192
 * 4 KiB faults in its memset. Huge pages also cut the TLB misses of
 * random lookups. Without THP the same call prefaults 4 KiB
 * pages; on a kernel without MADV_POPULATE_WRITE (Linux < 5.14)
 * each page faults in on first touch. A PROT_NONE guard page
 * follows the table, so a paint that runs past the end faults in
 * every build. Building the Fig. 8 table (16,000 routes) takes
 * ~8 ms on a 4-vCPU Xeon VM, ~13 ms with THP off.
 */

#ifndef XUI_NET_LPM_HH
#define XUI_NET_LPM_HH

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

namespace xui
{

/** IPv4 longest-prefix-match table (DIR-24-8); move-only. */
class LpmTable
{
  public:
    /** Next-hop identifier; kNoRoute when a lookup misses. */
    using NextHop = std::uint16_t;
    static constexpr NextHop kNoRoute = 0xffff;

    /**
     * @param max_tbl8_groups capacity for >/24 prefix groups; at most
     *        0x4000 are used, since an extended slot holds the group
     *        index in 14 bits.
     */
    explicit LpmTable(unsigned max_tbl8_groups = 256);

    /**
     * Install a route.
     * @param prefix network address (host byte order)
     * @param depth prefix length 1..32
     * @param next_hop forwarding target, 0..255
     * @return false when depth or next_hop is out of range or tbl8
     *         space is exhausted.
     */
    bool addRoute(std::uint32_t prefix, unsigned depth,
                  NextHop next_hop);

    /** Longest-prefix lookup. */
    NextHop lookup(std::uint32_t ip) const;

    /**
     * Hint that lookup(ip) follows soon: start loading its tbl24
     * entry into the cache. It changes no result.
     */
    void
    prefetch(std::uint32_t ip) const
    {
        __builtin_prefetch(&tbl24_[ip >> 8]);
    }

    /** Number of installed routes. */
    std::size_t routeCount() const { return routeCount_; }

    /** tbl8 groups in use (tests). */
    unsigned tbl8InUse() const { return tbl8Next_; }

  private:
    void addShallowRoute(std::uint32_t prefix, unsigned depth,
                         std::uint16_t fresh);
    bool addDeepRoute(std::uint32_t prefix, unsigned depth,
                      std::uint16_t fresh);
    /** New tbl8 group with every entry `inherited`; -1 when full. */
    int allocateTbl8(std::uint16_t inherited);
    /** Paint one tbl24 slot, propagating into its tbl8 group. */
    void paintSlot(std::uint32_t i, std::uint16_t fresh);
    /** Paint entries [lo, hi) of one tbl8 group. */
    void paintTbl8(std::uint32_t group, unsigned lo, unsigned hi,
                   std::uint16_t fresh);

    /** Unmaps tbl24 and its guard page. */
    struct Unmap
    {
        void operator()(std::uint16_t *table) const;
    };

    std::unique_ptr<std::uint16_t[], Unmap> tbl24Map_;
    std::span<std::uint16_t> tbl24_;
    std::vector<std::uint16_t> tbl8_;
    unsigned tbl8Next_;
    std::size_t routeCount_;
};

} // namespace xui

#endif // XUI_NET_LPM_HH
