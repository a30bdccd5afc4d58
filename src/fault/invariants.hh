/**
 * @file
 * End-to-end delivery accounting for fault-injected runs.
 *
 * Every notification-bearing protocol in the repo is at-least-once
 * with coalescing: posting the same vector twice before the receiver
 * scans collapses into one delivery (UPID PIR, DUPID, SIGALRM
 * pending-signal semantics all coalesce by design). The ledger
 * therefore tracks per-key post/delivery counts and checks:
 *
 *  - no phantom delivery: a key is never delivered more times than
 *    it was posted (catches duplicated notifications leaking through
 *    the dedup logic, and handler invocations for vectors that were
 *    never raised);
 *  - no loss: every key posted at least once is delivered at least
 *    once, unless it was explicitly accounted as dropped-with-
 *    fallback (e.g. an in-flight timer fire cancelled by a re-arm);
 *  - no stranding: at check() time no key has posts newer than its
 *    last delivery/abandonment — coalescing only collapses posts
 *    that *precede* a delivery, so a trailing undelivered post is a
 *    loss even on a key that delivered earlier in the run;
 *  - violations carry the decoded key so a failing chaos cell
 *    reports *which* thread/vector was lost or duplicated.
 *
 * Keys are opaque 64-bit values; keyFor() packs (source, thread,
 * vector) so the DES-tier kernel's four notification channels share
 * one ledger without colliding.
 *
 * The ledger is an IntrLifecycleObserver: attached to a Kernel
 * (Kernel::setIntrObserver, alone or through an IntrObserverTee) it
 * books Raise as a post, Return as a delivery, Abandon and Drop as
 * abandonments, keyed by (source, receiving thread, vector).
 */

#ifndef XUI_FAULT_INVARIANTS_HH
#define XUI_FAULT_INVARIANTS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "intr/intr_observer.hh"

namespace xui::fault
{

/** Pack a (source, thread, vector) into a ledger key. */
std::uint64_t keyFor(IntrSource source, std::uint32_t thread,
                     unsigned vector);

/** Human-readable decoding of a ledger key. */
std::string describeKey(std::uint64_t key);

/** Per-run delivery accounting (see file comment). */
class DeliveryLedger : public IntrLifecycleObserver
{
  public:
    /** Book one lifecycle stage (see file comment); others ignored. */
    void intrStage(IntrStage stage, std::uint64_t span_id,
                   IntrSource source, std::uint8_t vector,
                   Cycles cycle, unsigned receiver) override;

    /** A vector was posted/raised toward a receiver. */
    void onPosted(std::uint64_t key);

    /** The receiver's handler ran for the vector. */
    void onDelivered(std::uint64_t key);

    /**
     * The vector will never be delivered, and that is the intended
     * outcome (e.g. an in-flight fire cancelled by re-arm, or a
     * sender that exhausted retries against a receiver that never
     * resumes). Counts toward accounting, not toward loss.
     */
    void onAbandoned(std::uint64_t key);

    /**
     * Exactly one post was intentionally dropped (NEXT_ONLY: the
     * post never reached the pending state). Unlike onAbandoned it
     * leaves earlier posts outstanding — they are still pending for
     * a later delivery to consume.
     */
    void onAbandonedOne(std::uint64_t key);

    std::uint64_t posted() const { return posted_; }
    std::uint64_t delivered() const { return delivered_; }
    std::uint64_t abandoned() const { return abandoned_; }

    /**
     * Posts satisfied by a delivery they shared with earlier posts
     * (PIR / DUPID / moderation-window coalescing): each delivery
     * that finds k>1 outstanding posts adds k-1 here. The
     * generalized no-loss invariant is then
     *   posted == (delivered's own posts) + coalescedSatisfied
     *           + abandoned + outstanding
     * i.e. every post is delivered, coalesced into a delivery, or
     * explicitly abandoned — never silently lost.
     */
    std::uint64_t coalescedSatisfied() const
    {
        return coalescedSatisfied_;
    }

    /** Posts not yet covered by any delivery/abandonment. */
    std::uint64_t outstanding() const;

    /**
     * Evaluate the invariants over everything recorded so far.
     * @return one message per violation (empty = all invariants
     *         hold). Phantom deliveries are also recorded eagerly at
     *         onDelivered() time so they survive later posts.
     */
    std::vector<std::string> check() const;

    bool ok() const { return check().empty(); }

  private:
    struct Entry
    {
        std::uint64_t posted = 0;
        std::uint64_t delivered = 0;
        std::uint64_t abandoned = 0;
        /** Posts since the last delivery/abandonment: must be zero
         *  at check() time or the notification is stranded. */
        std::uint64_t outstanding = 0;
    };
    /** Ordered map: violation lists render deterministically. */
    std::map<std::uint64_t, Entry> entries_;
    std::vector<std::string> eager_;
    std::uint64_t posted_ = 0;
    std::uint64_t delivered_ = 0;
    std::uint64_t abandoned_ = 0;
    std::uint64_t coalescedSatisfied_ = 0;
};

} // namespace xui::fault

#endif // XUI_FAULT_INVARIANTS_HH
