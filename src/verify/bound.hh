/**
 * @file
 * Worst-case delivery-bound engine for mixed-criticality delivery.
 *
 * Two halves, matching the checked-bound methodology:
 *
 *  - computeDeliveryBounds() derives an *analytical* per-priority
 *    worst-case raise -> handler-start latency from the CostModel
 *    and a static description of the co-tenant vectors, via the
 *    classic response-time-analysis fixed point
 *
 *        R(P) = C + B(P) + sum_{higher prio H} ceil(R / T_H) *
 *               (save + C_H + restore)
 *
 *    where B(P) is the blocking term: the longest lower-or-equal
 *    priority non-preemptible section (one whole handler frame —
 *    the occupancy engine only preempts *running* frames, and the
 *    save/restore windows themselves are non-preemptible) plus the
 *    vector's own moderation window and the wire/receive costs.
 *
 *  - BoundChecker is an online IntrLifecycleObserver attached to
 *    the kernel (Kernel::setIntrObserver): it FIFO-matches every
 *    occupancy-engine arrival (Accept) to its handler start
 *    (Deliver) per vector and asserts the observed latency never
 *    exceeds the bound configured for that vector. Violations are
 *    collected (not fatal) so drivers can report
 *    observed-vs-analytical headroom and exit nonzero.
 *
 * The header is os-free: the observer interface lives in src/intr,
 * so xui_verify_lib needs no link against xui_os.
 */

#ifndef XUI_VERIFY_BOUND_HH
#define XUI_VERIFY_BOUND_HH

#include <cstdint>
#include <deque>
#include <string>
#include <unordered_map>
#include <vector>

#include "intr/intr_observer.hh"
#include "os/cost_model.hh"

namespace xui
{

/** Static description of one co-tenant vector for the analysis. */
struct VectorProfile
{
    unsigned vector = 0;
    /** DeliveryPolicy::priority configured for the vector. */
    unsigned priority = 0;
    /** Handler occupancy (Kernel::setHandlerCost) in cycles. */
    Cycles handlerCost = 0;
    /**
     * Minimum inter-arrival gap in cycles (the sporadic-task
     * period). 0 = the vector fires at most once per busy window.
     */
    Cycles minInterArrival = 0;
    /** ITR moderation window delaying the notification (cycles). */
    Cycles moderationWindow = 0;
};

/** Analytical worst case for one profiled vector. */
struct DeliveryBound
{
    unsigned vector = 0;
    unsigned priority = 0;
    /** Worst-case raise -> handler-start latency (cycles). */
    Cycles bound = 0;
    /** Blocking term B(P) folded into the bound (reporting). */
    Cycles blocking = 0;
    /** Total higher-priority interference folded in (reporting). */
    Cycles interference = 0;
    /** False when the fixed point diverged (overload: no bound). */
    bool converged = true;
};

/**
 * Derive the analytical delivery bound for every profiled vector.
 * Pure function of (costs, profiles); deterministic.
 */
std::vector<DeliveryBound>
computeDeliveryBounds(const CostModel &costs,
                      const std::vector<VectorProfile> &profiles);

/**
 * Online raise -> deliver latency checker. Attached as the kernel's
 * observer, Accept (engine arrival) calls onRaise and Deliver
 * (frame start) calls onDeliver; every other stage is ignored.
 * Every vector with a configured bound is checked, others are
 * tracked (at priority 0) but never flagged.
 */
class BoundChecker : public IntrLifecycleObserver
{
  public:
    /** Configure the checked bound for a vector. */
    void setBound(unsigned vector, unsigned priority, Cycles bound);

    void intrStage(IntrStage stage, std::uint64_t span_id,
                   IntrSource source, std::uint8_t vector,
                   Cycles cycle, unsigned receiver) override;

    /** An arrival was raised toward the receiver. */
    void onRaise(unsigned vector, Cycles now);

    /** The handler for `vector` started (FIFO-matched to raises). */
    void onDeliver(unsigned vector, Cycles now);

    /** Largest observed latency among vectors at `priority`. */
    Cycles maxObserved(unsigned priority) const;

    /** Largest observed latency for one vector. */
    Cycles maxObservedVector(unsigned vector) const;

    /** Deliveries matched so far. */
    std::uint64_t matched() const { return matched_; }

    /** Human-readable violation descriptions (empty = clean). */
    const std::vector<std::string> &violations() const
    {
        return violations_;
    }

    bool ok() const { return violations_.empty(); }

  private:
    struct PerVector
    {
        unsigned priority = 0;
        Cycles bound = 0;
        bool bounded = false;
        Cycles maxObserved = 0;
        std::deque<Cycles> outstanding;
    };

    std::unordered_map<unsigned, PerVector> vectors_;
    std::vector<std::string> violations_;
    std::uint64_t matched_ = 0;
};

} // namespace xui

#endif // XUI_VERIFY_BOUND_HH
