#include "verify/bound.hh"

#include <algorithm>
#include <sstream>

namespace xui
{

namespace
{

/** Fixed-point iteration cap: past this the system is overloaded. */
constexpr unsigned kMaxIterations = 256;
/** Response-time ceiling: past this the recurrence diverged. */
constexpr Cycles kDivergenceCap = Cycles(1) << 40;

} // namespace

std::vector<DeliveryBound>
computeDeliveryBounds(const CostModel &costs,
                      const std::vector<VectorProfile> &profiles)
{
    std::vector<DeliveryBound> out;
    out.reserve(profiles.size());

    for (const VectorProfile &p : profiles) {
        DeliveryBound b;
        b.vector = p.vector;
        b.priority = p.priority;

        // Blocking term B(P): the longest lower-priority frame the
        // arrival can find occupying the core (conservative: the
        // whole frame, which dominates the engine's actual
        // save-window blocking and any in-flight restore), plus one
        // full frame per equal-priority co-tenant (FIFO, never
        // preempted; sporadic assumption — at most one pending
        // arrival each), plus the save/restore non-preemptible
        // windows, the vector's own moderation window, and the
        // wire/receive path upstream of the engine.
        Cycles max_lower = 0;
        Cycles equal_sum = 0;
        for (const VectorProfile &q : profiles) {
            if (q.vector == p.vector)
                continue;
            if (q.priority < p.priority)
                max_lower = std::max(max_lower, q.handlerCost);
            else if (q.priority == p.priority)
                equal_sum += q.handlerCost;
        }
        Cycles blocking = max_lower + equal_sum +
            costs.preemptSave + costs.preemptRestore +
            p.moderationWindow + costs.ipiWire +
            costs.uipiTrackedReceive;
        b.blocking = blocking;

        // Response-time recurrence: each strictly-higher-priority
        // co-tenant preempts (save + handler + restore) once per
        // release inside the busy window; sporadic releases are
        // 1 + floor(R / T) (a release just before the arrival plus
        // one per min-gap), or exactly one when no gap is declared.
        Cycles r = blocking;
        bool converged = false;
        for (unsigned iter = 0; iter < kMaxIterations; ++iter) {
            Cycles interference = 0;
            for (const VectorProfile &q : profiles) {
                if (q.vector == p.vector ||
                    q.priority <= p.priority)
                    continue;
                Cycles releases = q.minInterArrival > 0
                    ? 1 + r / q.minInterArrival
                    : 1;
                interference += releases *
                    (costs.preemptSave + q.handlerCost +
                     costs.preemptRestore);
            }
            Cycles next = blocking + interference;
            if (next == r) {
                converged = true;
                break;
            }
            r = next;
            if (r > kDivergenceCap)
                break;
        }
        b.bound = r;
        b.interference = r - blocking;
        b.converged = converged && r <= kDivergenceCap;
        out.push_back(b);
    }
    return out;
}

void
BoundChecker::setBound(unsigned vector, unsigned priority,
                       Cycles bound)
{
    PerVector &v = vectors_[vector];
    v.priority = priority;
    v.bound = bound;
    v.bounded = true;
}

void
BoundChecker::intrStage(IntrStage stage, std::uint64_t, IntrSource,
                        std::uint8_t vector, Cycles cycle, unsigned)
{
    if (stage == IntrStage::Accept)
        onRaise(vector, cycle);
    else if (stage == IntrStage::Deliver)
        onDeliver(vector, cycle);
}

void
BoundChecker::onRaise(unsigned vector, Cycles now)
{
    vectors_[vector].outstanding.push_back(now);
}

void
BoundChecker::onDeliver(unsigned vector, Cycles now)
{
    auto it = vectors_.find(vector);
    if (it == vectors_.end() || it->second.outstanding.empty())
        return;  // replayed continuation or unobserved raise
    PerVector &v = it->second;
    Cycles raised = v.outstanding.front();
    v.outstanding.pop_front();
    Cycles latency = now - raised;
    v.maxObserved = std::max(v.maxObserved, latency);
    ++matched_;
    if (v.bounded && latency > v.bound) {
        std::ostringstream os;
        os << "vector " << vector << " (priority " << v.priority
           << "): observed latency " << latency
           << " exceeds bound " << v.bound << " (raised at "
           << raised << ", delivered at " << now << ")";
        violations_.push_back(os.str());
    }
}

Cycles
BoundChecker::maxObserved(unsigned priority) const
{
    Cycles m = 0;
    for (const auto &[vec, v] : vectors_) {
        if (v.priority == priority)
            m = std::max(m, v.maxObserved);
    }
    return m;
}

Cycles
BoundChecker::maxObservedVector(unsigned vector) const
{
    auto it = vectors_.find(vector);
    return it == vectors_.end() ? 0 : it->second.maxObserved;
}

} // namespace xui
