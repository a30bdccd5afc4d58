/**
 * @file
 * Set-associative timing cache hierarchy for the core model.
 *
 * Tags and LRU state are modeled exactly; data is not (the simulator
 * is timing-only). Each access returns the total latency to the first
 * level that hits, and allocates the line on the way back (write-
 * allocate, writeback is not modeled since only timing matters).
 *
 * The tag store is three arrays: tags and LRU stamps, one per line
 * and contiguous per set, and one valid mask per set (bit w is way
 * w), so a line costs 16 bytes and a hit scans packed tags. It is
 * initialised lazily: tags and stamps are allocated uninitialised and
 * a per-set live bit records which sets have been zeroed. A set is
 * zeroed on its first access, and a set that is not live reads as
 * empty. Construction and checkpointing therefore cost the sets a run
 * touched, not the modelled capacity (a Table-3 LLC has 32768 sets; a
 * short run touches a few hundred).
 */

#ifndef XUI_UARCH_CACHE_HH
#define XUI_UARCH_CACHE_HH

#include <cstddef>
#include <cstdint>
#include <memory>

namespace xui
{

/** One level of set-associative cache, timing-only, true LRU. */
class Cache
{
  public:
    /**
     * @param size_bytes total capacity
     * @param assoc ways per set
     * @param line_bytes line size (power of two)
     * @param hit_latency cycles for a hit in this level
     * @param next next level, or nullptr for the last cache level
     * @param miss_latency latency charged beyond the last level
     *        (memory access time), used only when next == nullptr
     */
    Cache(std::uint64_t size_bytes, unsigned assoc,
          unsigned line_bytes, unsigned hit_latency, Cache *next,
          unsigned miss_latency = 0);

    /**
     * Access an address; allocate on miss.
     * @return total latency in cycles including lower levels.
     */
    unsigned access(std::uint64_t addr);

    /** Probe without modifying state. */
    bool contains(std::uint64_t addr) const;

    /** Invalidate one line if present (cross-core write model). */
    void invalidate(std::uint64_t addr);

    /** Drop all lines. */
    void flushAll();

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }
    unsigned hitLatency() const { return hitLatency_; }

    /**
     * Checkpoint archive visit of the mutable state (tags, LRU
     * stamps, counters). Geometry comes from the constructor, so the
     * line count is a guard, not configuration. The payload is dense
     * (every line, live or not); a set that is not live is a run of
     * zero bytes, which zeroRun writes and skips in bulk. A set the
     * Reader decodes becomes live.
     */
    template <class Ar>
    void visit(Ar &ar)
    {
        ar.expect(std::uint64_t{numSets_ * assoc_});
        for (std::uint64_t set = 0; set < numSets_; ++set) {
            if (ar.zeroRun(!isLive(set), assoc_ * kLineCkptBytes))
                continue;
            touchSet(set);
            const std::uint64_t first = set * assoc_;
            std::uint64_t mask = 0;
            for (unsigned w = 0; w < assoc_; ++w) {
                bool valid = (valid_[set] >> w) & 1;
                ar.b(valid);
                mask |= std::uint64_t{valid} << w;
                ar.u64(tags_[first + w]);
                ar.u64(stamps_[first + w]);
            }
            valid_[set] = mask;
        }
        ar.u64(stamp_);
        ar.u64(hits_);
        ar.u64(misses_);
    }

  private:
    /** Encoded size of one line: valid byte, tag, LRU stamp. */
    static constexpr std::size_t kLineCkptBytes = 1 + 8 + 8;

    std::uint64_t setIndex(std::uint64_t addr) const;
    std::uint64_t tagOf(std::uint64_t addr) const;

    bool isLive(std::uint64_t set) const
    {
        return (live_[set >> 6] >> (set & 63)) & 1;
    }

    /** Zero the set and mark it live on first touch. */
    void touchSet(std::uint64_t set)
    {
        if (!isLive(set)) [[unlikely]]
            zeroSet(set);
    }

    /** Ways of a live set whose line is valid and holds `tag`. */
    std::uint64_t hitMask(std::uint64_t set, std::uint64_t tag) const;

    /** First touch, kept out of line so its loop does not bloat
     *  access's hit path. */
    [[gnu::noinline]] void zeroSet(std::uint64_t set);

    unsigned assoc_;
    unsigned lineShift_;
    std::uint64_t numSets_;
    unsigned hitLatency_;
    unsigned missLatency_;
    Cache *next_;
    std::unique_ptr<std::uint64_t[]> tags_;   ///< numSets x assoc
    std::unique_ptr<std::uint64_t[]> stamps_; ///< numSets x assoc
    std::unique_ptr<std::uint64_t[]> valid_;  ///< one mask per set
    std::unique_ptr<std::uint64_t[]> live_;   ///< one bit per set
    std::uint64_t stamp_;
    std::uint64_t hits_;
    std::uint64_t misses_;
};

/** Parameters for the three-level hierarchy. */
struct MemHierarchyParams
{
    std::uint64_t l1Size = 32 * 1024;    ///< Table 3: 32 KB
    unsigned l1Assoc = 8;                ///< Table 3: 8-way
    unsigned l1Latency = 4;
    std::uint64_t l2Size = 2 * 1024 * 1024;
    unsigned l2Assoc = 16;
    unsigned l2Latency = 14;
    std::uint64_t llcSize = 32 * 1024 * 1024;
    unsigned llcAssoc = 16;
    unsigned llcLatency = 42;
    unsigned memLatency = 160;
    unsigned lineBytes = 64;
};

/** L1 + L2 + LLC + memory, presented as a single access() call. */
class MemHierarchy
{
  public:
    explicit MemHierarchy(const MemHierarchyParams &params = {});

    /** Data access through the hierarchy. */
    unsigned access(std::uint64_t addr) { return l1_.access(addr); }

    /**
     * Cross-core transfer: the line was last written by another
     * core, so it misses the local L1/L2 and is sourced from the
     * remote cache at LLC-ish latency. Models the UPID read during
     * UIPI notification processing.
     */
    unsigned remoteAccess(std::uint64_t addr);

    Cache &l1() { return l1_; }
    Cache &l2() { return l2_; }
    Cache &llc() { return llc_; }
    const Cache &l1() const { return l1_; }
    const Cache &l2() const { return l2_; }
    const Cache &llc() const { return llc_; }

    const MemHierarchyParams &params() const { return params_; }

    template <class Ar>
    void visit(Ar &ar)
    {
        llc_.visit(ar);
        l2_.visit(ar);
        l1_.visit(ar);
    }

  private:
    MemHierarchyParams params_;
    Cache llc_;
    Cache l2_;
    Cache l1_;
};

} // namespace xui

#endif // XUI_UARCH_CACHE_HH
