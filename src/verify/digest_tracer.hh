/**
 * @file
 * DigestTracer — folds every pipeline trace event into an
 * order-sensitive 64-bit digest (FNV-1a over the packed event
 * words). Two runs of the simulator are cycle-identical iff their
 * digests match, which turns "is the model deterministic?" into a
 * single integer comparison instead of a gigabyte trace diff.
 *
 * Alongside the full timing digest it maintains an *architectural*
 * digest folding only the commit-order program PC stream (microcode
 * commits excluded). The architectural digest is the
 * timing-independent fingerprint used by the cross-mode differential
 * checks: flush, drain, and tracked delivery may commit the same
 * program on wildly different cycles, but the main-code PC sequence
 * they retire must be identical.
 */

#ifndef XUI_VERIFY_DIGEST_TRACER_HH
#define XUI_VERIFY_DIGEST_TRACER_HH

#include <cstdint>
#include <vector>

#include "stats/digest.hh"
#include "uarch/trace.hh"

namespace xui
{

/** Digesting trace sink (attach via OooCore/UarchSystem setTracer). */
class DigestTracer : public Tracer
{
  public:
    void event(TraceEvent ev, Cycles cycle, std::uint64_t seq,
               std::uint32_t pc, OpClass cls) override;

    /** Digest over every event including cycle timestamps. */
    std::uint64_t fullDigest() const { return full_.value(); }

    /**
     * Digest over the commit-order program PC stream only (no
     * cycles, no microcode): equal across runs that retire the same
     * architectural instruction sequence regardless of timing.
     */
    std::uint64_t archDigest() const { return arch_.value(); }

    std::uint64_t eventCount() const { return events_; }

    /** Commits with a program PC (i.e. excluding microcode uops). */
    std::uint64_t programCommitCount() const { return commits_; }

    /** Per-event-kind counts, indexed by TraceEvent. */
    const std::uint64_t *eventCounts() const { return counts_; }

    /**
     * Optional sink collecting the commit-order program PC stream
     * (one entry per committed non-microcode uop). Not owned;
     * nullptr (default) disables collection.
     */
    void collectCommitPcs(std::vector<std::uint32_t> *sink)
    {
        commitPcs_ = sink;
    }

    void reset();

    /**
     * Checkpoint archive visit of the digest mid-stream (FNV-1a is
     * resumable from (hash, bytes)). The commit-PC sink pointer is
     * harness-owned and reattached after load; its *contents* are
     * visited by the harness alongside this state.
     */
    template <class Ar>
    void visit(Ar &ar)
    {
        full_.visit(ar);
        arch_.visit(ar);
        ar.u64(events_);
        ar.u64(commits_);
        for (std::uint64_t &c : counts_)
            ar.u64(c);
    }

  private:
    static constexpr std::uint32_t kUcodePc = 0xffffffff;

    Fnv1a full_;
    Fnv1a arch_;
    std::uint64_t events_ = 0;
    std::uint64_t commits_ = 0;
    std::uint64_t counts_[kNumTraceEvents] = {};
    std::vector<std::uint32_t> *commitPcs_ = nullptr;
};

} // namespace xui

#endif // XUI_VERIFY_DIGEST_TRACER_HH
