/**
 * @file
 * Interrupt-lifecycle observation interface, shared by both tiers.
 *
 * Cycle tier: every interrupt raised toward an InterruptUnit is
 * stamped with a monotonically increasing per-unit correlation id
 * (its *span id*). An IntrLifecycleObserver attached to a core
 * receives one callback per lifecycle stage transition carrying that
 * id, so an external tracker (src/obs/span.hh) can reassemble
 * per-interrupt timelines — raise -> accept -> inject
 * (-> re-inject)* -> deliver -> return — without the core keeping
 * any extra state.
 *
 * DES tier: the Kernel reports the same stages with span id 0 and
 * the receiving thread as receiver (Kernel::setIntrObserver says
 * what each stage means there).
 *
 * Like the pipeline Tracer, observation is off (null pointer, zero
 * cost) unless attached.
 */

#ifndef XUI_INTR_INTR_OBSERVER_HH
#define XUI_INTR_INTR_OBSERVER_HH

#include <cstdint>
#include <vector>

#include "des/time.hh"

namespace xui
{

/** Where a user interrupt came from. */
enum class IntrSource : std::uint8_t
{
    UserIpi,    ///< UIPI: notification + delivery microcode
    KbTimer,    ///< xUI KB timer: delivery microcode only
    Forwarded,  ///< xUI forwarded device interrupt: delivery only
    Signal,     ///< DES-tier interval-timer signal (no cycle tier)
};

/** Lifecycle stage transition of one interrupt span. */
enum class IntrStage : std::uint8_t
{
    /** Posted toward the unit (APIC arrival / timer expiry). */
    Raise,
    /** Popped from the pending queue; tracker leaves Idle. */
    Accept,
    /** Delivery microcode began streaming from the MSROM. */
    Inject,
    /** A squash killed uncommitted microcode; injected again. */
    Reinject,
    /** Delivery jump committed: the handler is architectural. */
    Deliver,
    /** uiret committed: the span is complete. */
    Return,
    /**
     * A higher-priority vector preempted the running handler: the
     * preempt-save microcode began spilling the handler frame. The
     * preempting span's save window runs from here to its Inject.
     */
    PreemptSave,
    /**
     * The preempt-restore microcode's redirect committed: the
     * preempted outer handler is running again. For a preempting
     * span this — not Return — completes the span (Return only
     * marks its uiret; the restore cost still belongs to it).
     */
    PreemptResume,
    /** DES: one post is missed by design; earlier ones stay due. */
    Drop,
    /** DES: every outstanding post is cancelled by design. */
    Abandon,
};

/** Receives interrupt-lifecycle stage transitions. */
class IntrLifecycleObserver
{
  public:
    virtual ~IntrLifecycleObserver() = default;

    /**
     * One stage transition.
     * @param stage which transition happened
     * @param span_id correlation id assigned at raise() (0 on the
     *        DES tier)
     * @param source where the interrupt came from
     * @param vector its user vector
     * @param cycle when (core-local cycle; DES: simulation time)
     * @param core_id which core observed it (DES: the receiving
     *        thread)
     */
    virtual void intrStage(IntrStage stage, std::uint64_t span_id,
                           IntrSource source, std::uint8_t vector,
                           Cycles cycle, unsigned core_id) = 0;
};

/**
 * Fans one core-side observer slot out to several observers (the
 * lifecycle analog of TeeTracer): a core carries a single observer
 * pointer, but a session may want both span reassembly and
 * pipeline-pressure profiling on the same stream.
 */
class IntrObserverTee : public IntrLifecycleObserver
{
  public:
    /** Append a sink (ignored when null). Order is call order. */
    void add(IntrLifecycleObserver *obs)
    {
        if (obs != nullptr)
            sinks_.push_back(obs);
    }

    void
    intrStage(IntrStage stage, std::uint64_t span_id,
              IntrSource source, std::uint8_t vector, Cycles cycle,
              unsigned core_id) override
    {
        for (IntrLifecycleObserver *obs : sinks_)
            obs->intrStage(stage, span_id, source, vector, cycle,
                           core_id);
    }

  private:
    std::vector<IntrLifecycleObserver *> sinks_;
};

} // namespace xui

#endif // XUI_INTR_INTR_OBSERVER_HH
