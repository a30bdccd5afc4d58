/**
 * @file
 * DIR-24-8 longest-prefix-match table — the same algorithm as DPDK's
 * librte_lpm, which l3fwd uses (§5.4): a 2^24-entry direct-indexed
 * table for the first 24 bits, overflowing into 256-entry "tbl8"
 * groups for prefixes longer than /24. Lookup is one or two array
 * reads. Insertions keep longest-prefix semantics regardless of
 * insertion order by tracking the depth that wrote each entry.
 *
 * An extended tbl24 slot (one that points at a tbl8 group) has depth
 * 0xff and an invalid slot depth 0, so "slot depth <= route depth"
 * alone decides whether a /1../24 route takes a non-extended slot.
 * Routes of /20 or shorter span whole 16-slot blocks and paint them
 * branch-free, 16 slots per step; a block holding an extended slot,
 * and the 1..8 slots of a /21../24, go slot by slot and propagate
 * into the slot's tbl8 group. Building the Fig. 8 table (16,000
 * routes) takes ~30-45 ms on a 4-vCPU Xeon VM, most of it first-touch
 * page faults on the 48 MiB of tables.
 */

#ifndef XUI_NET_LPM_HH
#define XUI_NET_LPM_HH

#include <cstdint>
#include <vector>

namespace xui
{

/** IPv4 longest-prefix-match table (DIR-24-8). */
class LpmTable
{
  public:
    /** Next-hop identifier; kNoRoute when a lookup misses. */
    using NextHop = std::uint16_t;
    static constexpr NextHop kNoRoute = 0xffff;

    /** @param max_tbl8_groups capacity for >/24 prefix groups. */
    explicit LpmTable(unsigned max_tbl8_groups = 256);

    /**
     * Install a route.
     * @param prefix network address (host byte order)
     * @param depth prefix length 1..32
     * @param next_hop forwarding target (< 0x8000)
     * @return false when depth is invalid or tbl8 space is
     *         exhausted.
     */
    bool addRoute(std::uint32_t prefix, unsigned depth,
                  NextHop next_hop);

    /** Longest-prefix lookup. */
    NextHop lookup(std::uint32_t ip) const;

    /** Number of installed routes. */
    std::size_t routeCount() const { return routeCount_; }

    /** tbl8 groups in use (tests). */
    unsigned tbl8InUse() const { return tbl8Next_; }

  private:
    // Entry encoding: bit15 = valid, bit14 = extended (tbl24 only:
    // low bits index a tbl8 group), low 14 bits = next hop / group.
    static constexpr std::uint16_t kValid = 0x8000;
    static constexpr std::uint16_t kExtended = 0x4000;
    static constexpr std::uint16_t kValueMask = 0x3fff;
    // tbl24Depth_ of an extended slot: deeper than any shallow
    // route, so a shallow paint's depth test never takes the slot.
    static constexpr std::uint8_t kExtendedDepth = 0xff;

    struct Tbl8Entry
    {
        std::uint16_t entry = 0;
        std::uint8_t depth = 0;
    };

    bool addShallowRoute(std::uint32_t prefix, unsigned depth,
                         NextHop next_hop);
    bool addDeepRoute(std::uint32_t prefix, unsigned depth,
                      NextHop next_hop);
    int allocateTbl8(std::uint16_t inherited_entry,
                     std::uint8_t inherited_depth);
    /** Paint one tbl24 slot, propagating into its tbl8 group. */
    void paintSlot(std::uint32_t i, std::uint16_t fresh,
                   std::uint8_t depth);
    /** Paint entries [lo, hi) of one tbl8 group. */
    void paintTbl8(std::uint32_t group, unsigned lo, unsigned hi,
                   std::uint16_t fresh, std::uint8_t depth);

    std::vector<std::uint16_t> tbl24_;
    std::vector<std::uint8_t> tbl24Depth_;
    std::vector<Tbl8Entry> tbl8_;
    unsigned maxTbl8_;
    unsigned tbl8Next_;
    std::size_t routeCount_;
};

} // namespace xui

#endif // XUI_NET_LPM_HH
