/**
 * @file
 * Kernel model for the DES tier.
 *
 * Implements the protocol surface the paper's mechanisms need from
 * the OS, with faithful state machines over the architectural
 * structures in src/intr:
 *  - UIPI registration (register_handler / register_sender), the SN
 *    bit on context switch, and slow-path reposting when a thread
 *    resumes (§3.2);
 *  - KB-timer access control and save/restore multiplexing across
 *    context switches, including missed-deadline delivery on resume
 *    (§4.3);
 *  - interrupt-forwarding registration, the per-thread
 *    forwarded_active mask written on context switch, and DUPID
 *    slow-path parking (§4.5);
 *  - signal delivery and timer syscalls as calibrated costs.
 *
 * The kernel does not execute code; it mutates state and reports the
 * cycle cost of each operation so callers (runtime, benches) can
 * account for time on the right core.
 */

#ifndef XUI_OS_KERNEL_HH
#define XUI_OS_KERNEL_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "des/simulation.hh"
#include "fault/fault.hh"
#include "intr/forwarding.hh"
#include "intr/intr_observer.hh"
#include "intr/kb_timer.hh"
#include "intr/policy.hh"
#include "intr/uitt.hh"
#include "intr/upid.hh"
#include "obs/metrics.hh"
#include "os/cost_model.hh"

namespace xui
{
class KernelCounterTrace;
}

namespace xui
{

/** Kernel thread identifier. */
using ThreadId = std::uint32_t;

/** Core identifier in the DES tier. */
using CoreId = std::uint32_t;

constexpr ThreadId kNoThread = 0xffffffff;

/** How a user interrupt reached (or failed to reach) its target. */
enum class DeliveryPath : std::uint8_t
{
    /** Receiver was running: delivered directly to user code. */
    Fast,
    /** Receiver descheduled: parked for delivery at next resume. */
    Deferred,
    /** Sender-side suppressed (SN): posted, no IPI sent. */
    Suppressed,
};

/**
 * The kernel's delivery counters, one per `kernel.*` metric. Rows of
 * kKernelStats below name each one and say whether it also streams
 * as a per-vector counter track (obs/kernel_trace.hh).
 */
enum class KernelStat : std::uint8_t
{
    ContextSwitches, Reposts, SignalsDelivered,
    SenduipiFast, SenduipiDeferred, SenduipiSuppressed,
    ForwardFast, ForwardSlow, KbTimerFired,
    // kernel.fault.*: injections applied to kernel channels.
    FaultIpiDropped, FaultIpiDelayed, FaultIpiDuplicated,
    FaultIpiReordered, FaultIpiStorm,
    FaultKbTimerMisfire, FaultKbTimerDelayed, FaultKbTimerSpurious,
    FaultForwardDropped, FaultForwardDelayed,
    // kernel.recovery.*: graceful-degradation outcomes.
    RecoveryUpidRescan, RecoveryRescanRetry, RecoveryParkedFallback,
    RecoveryKbTimerLate, RecoveryKbTimerCancelled,
    RecoveryForwardParked, RecoveryForwardDelayed,
    RecoverySpuriousScans,
    RecoveryRollbackRetries, RecoveryRollbackEventsReplayed,
    // kernel.moderation.*: delivery-policy and moderation outcomes.
    ModerationCoalesced, ModerationSuppressed,
    ModerationFlushes, ModerationFlushDropped, ModerationFlushDelayed,
    ModerationMissed, ModerationMissedThenDelivered,
    ModerationLevelRedeliver,
    // kernel.preempt.*: occupancy-engine outcomes.
    PreemptPreemptions, PreemptDeferred, PreemptCompletions,
    PreemptResumes, PreemptSaveDropped, PreemptDoubleSave,
    PreemptResumeReplayed,
    kCount,
};

constexpr std::size_t kNumKernelStats =
    static_cast<std::size_t>(KernelStat::kCount);

/** One KernelStat: its metric name and whether it is traced. */
struct KernelStatRow
{
    const char *name;
    bool traced;
};

/**
 * Indexed by KernelStat, in the same order; the KernelStats.* tests
 * in test_os pin every name and value.
 */
inline constexpr KernelStatRow kKernelStats[] = {
    {"kernel.context_switches", false},
    {"kernel.reposts", false},
    {"kernel.signals_delivered", false},
    {"kernel.senduipi.fast", false},
    {"kernel.senduipi.deferred", false},
    {"kernel.senduipi.suppressed", false},
    {"kernel.forward.fast", false},
    {"kernel.forward.slow", false},
    {"kernel.kbtimer.fired", false},
    {"kernel.fault.ipi_dropped", false},
    {"kernel.fault.ipi_delayed", false},
    {"kernel.fault.ipi_duplicated", false},
    {"kernel.fault.ipi_reordered", false},
    {"kernel.fault.ipi_storm", false},
    {"kernel.fault.kbtimer_misfire", false},
    {"kernel.fault.kbtimer_delayed", false},
    {"kernel.fault.kbtimer_spurious", false},
    {"kernel.fault.forward_dropped", false},
    {"kernel.fault.forward_delayed", false},
    {"kernel.recovery.upid_rescan", true},
    {"kernel.recovery.rescan_retry", true},
    {"kernel.recovery.parked_fallback", true},
    {"kernel.recovery.kbtimer_late", true},
    {"kernel.recovery.kbtimer_cancelled", true},
    {"kernel.recovery.forward_parked", true},
    {"kernel.recovery.forward_delayed", true},
    {"kernel.recovery.spurious_scans", true},
    {"kernel.recovery.rollback_retries", true},
    // A total of replayed events, not one delivery event.
    {"kernel.recovery.rollback_events_replayed", false},
    {"kernel.moderation.coalesced", true},
    {"kernel.moderation.suppressed", true},
    {"kernel.moderation.flushes", true},
    {"kernel.moderation.flush_dropped", true},
    {"kernel.moderation.flush_delayed", true},
    {"kernel.moderation.missed", true},
    {"kernel.moderation.missed_then_delivered", true},
    {"kernel.moderation.level_redeliver", true},
    {"kernel.preempt.preemptions", true},
    {"kernel.preempt.deferred", true},
    {"kernel.preempt.completions", true},
    {"kernel.preempt.resumes", true},
    {"kernel.preempt.save_dropped", true},
    {"kernel.preempt.double_save", true},
    {"kernel.preempt.resume_replayed", true},
};
static_assert(sizeof(kKernelStats) / sizeof(kKernelStats[0]) ==
              kNumKernelStats);

/** The kernel. */
class Kernel
{
  public:
    /**
     * @param sim owning simulation (for timestamps)
     * @param costs calibrated cost table
     * @param num_cores number of physical cores
     */
    Kernel(Simulation &sim, const CostModel &costs,
           unsigned num_cores);

    const CostModel &costs() const { return costs_; }
    unsigned numCores() const { return cores_.size(); }

    // ----- threads and scheduling ------------------------------------

    /** Create a kernel thread (descheduled). */
    ThreadId createThread();

    /** The thread currently running on a core (kNoThread if idle). */
    ThreadId runningOn(CoreId core) const;

    /**
     * Context switch `thread` onto `core` (descheduling whatever ran
     * there). Applies the full protocol: SN-bit management, KB-timer
     * save/restore, forwarded_active update, and reposting of any
     * user interrupts that arrived while the thread was out.
     * @return the cycle cost of the switch (including any reposts).
     */
    Cycles scheduleOn(ThreadId thread, CoreId core);

    /** Deschedule a thread (sets SN, saves timer state). */
    Cycles deschedule(ThreadId thread);

    /** True when the thread is running on some core. */
    bool isRunning(ThreadId thread) const;

    // ----- UIPI -------------------------------------------------------

    /**
     * register_handler(): allocate a UPID for the thread and
     * associate its user handler.
     */
    void registerHandler(ThreadId thread,
                         std::function<void(unsigned uv)> handler);

    /**
     * register_sender(): allocate a UITT entry routing to `target`.
     * @return the UITT index for senduipi.
     */
    int registerSender(ThreadId target, std::uint8_t user_vector);

    /**
     * senduipi: post through the UITT/UPID protocol. When the target
     * thread is running, its handler is invoked (fast path); when
     * descheduled, the vector is left posted and will be redelivered
     * by scheduleOn (slow path); when SN is set, no IPI is emitted.
     */
    DeliveryPath senduipi(int uitt_index);

    // ----- delivery policies & moderation (src/intr/policy.hh) ------

    /**
     * Set the delivery policy for one (thread, vector). Unset
     * vectors keep the legacy protocol (NEXT_OR_MISSED, edge) and
     * pay nothing: the policy lookup is guarded by an empty-map
     * check, so an unconfigured kernel is bit-identical.
     *
     * NEXT_ONLY drops posts toward a descheduled receiver (stages
     * Raise then Drop, counted in kernel.moderation.missed) — they
     * are never parked in the PIR/DUPID. Level trigger rescans the
     * UPID on a post that finds ON already set, recovering from a
     * lost notification IPI without the rescan backoff.
     */
    void setDeliveryPolicy(ThreadId thread, unsigned vector,
                           DeliveryPolicy policy);

    /**
     * Configure ITR-style moderation for one (thread, vector):
     * posts land in the PIR immediately, but the notification is
     * batched — at most one per `itr` gap, and posts within
     * `coalesceWindow` of the first collapse into one flush.
     * Disabled params remove the moderator. Posts pending when the
     * receiver deschedules take the normal resume-drain slow path.
     */
    void setModeration(ThreadId thread, unsigned vector,
                       ModerationParams params);

    // ----- priority preemption (occupancy engine) --------------------

    /**
     * Declare that the thread's handler occupies the core for `cost`
     * cycles when invoked for `vector`, enabling the occupancy
     * engine for that vector. The engine models mixed-criticality
     * delivery: while a handler frame runs, a higher-priority
     * arrival (DeliveryPolicy::priority for the vector) preempts it
     * — the kernel pays preemptSave, runs the nested handler to
     * completion, then pays preemptRestore and resumes the
     * preempted frame's remaining cycles. Equal/lower priorities
     * queue in arrival order behind the running frame.
     *
     * Vectors without a declared cost keep the legacy immediate
     * (zero-occupancy) delivery, and a kernel with no costs declared
     * anywhere pays exactly one empty-map check — bit-identical to
     * the engine-less kernel. The engine is not scheduling-aware:
     * descheduling a thread mid-frame is unsupported (scenarios keep
     * the receiver resident while frames are in flight).
     */
    void setHandlerCost(ThreadId thread, unsigned vector,
                        Cycles cost);

    /** Nested depth of in-flight handler frames (tests). */
    std::size_t enginePreemptDepth(ThreadId thread) const;
    /** Arrivals queued behind the running frame (tests). */
    std::size_t engineDeferredCount(ThreadId thread) const;
    /** True when no frame is running or queued (tests). */
    bool engineIdle(ThreadId thread) const;

    // ----- KB timer (§4.3) ---------------------------------------------

    /** enable_kb_timer(): grant the thread timer access. */
    void enableKbTimer(ThreadId thread, std::uint8_t vector);

    /** disable_kb_timer(). */
    void disableKbTimer(ThreadId thread);

    /**
     * set_timer executed by the running thread.
     * @return false when the thread has no timer access.
     */
    bool setTimer(ThreadId thread, Cycles cycles, KbTimerMode mode);

    /** clear_timer executed by the running thread. */
    void clearTimer(ThreadId thread);

    /** The core's physical KB timer (tests / wiring). */
    KbTimer &coreTimer(CoreId core);

    /**
     * Check whether the running thread's timer on `core` expired by
     * the simulation clock; if so acknowledge and invoke the
     * thread's handler.
     * @return true when an interrupt fired.
     */
    bool pollKbTimer(CoreId core);

    // ----- interrupt forwarding (§4.5) -----------------------------------

    /**
     * Register the running thread to receive device interrupts on a
     * vector of this core.
     * @return the assigned vector, or -1 when exhausted.
     */
    int registerForwarding(ThreadId thread, CoreId core);

    /**
     * A device interrupt arrives at `core`. Fast path invokes the
     * owning thread's handler; slow path parks in the DUPID.
     */
    DeliveryPath deviceInterrupt(CoreId core, unsigned vector);

    /** The owner thread of a forwarded vector (kNoThread if none). */
    ThreadId forwardOwner(CoreId core, unsigned vector) const;

    // ----- classic services ----------------------------------------------

    /**
     * setitimer(): deliver a periodic signal to `thread` every
     * `interval` cycles. While the thread is descheduled, firings
     * collapse into one pending signal delivered at the next resume
     * (SIGALRM semantics). The signal handler is the same callback
     * registered via registerHandler, invoked with `signo`.
     * @return a timer id for cancelInterval, or -1 on error.
     */
    int setInterval(ThreadId thread, Cycles interval,
                    unsigned signo = 14 /* SIGALRM */);

    /** Cancel a setInterval() timer. */
    void cancelInterval(int timer_id);

    /** Signals delivered so far via interval timers (tests). */
    std::uint64_t signalsDelivered() const
    {
        return signalsDelivered_;
    }

    /** Per-thread pending-repost count (tests). */
    unsigned pendingReposts(ThreadId thread) const;

    // ----- fault injection & graceful degradation (src/fault) -------

    /**
     * Attach the fault fabric. With no injector (the default) every
     * fault branch is one null check and delivery is byte-identical
     * to the unfaulted kernel.
     */
    void setFaultInjector(fault::Injector *inj) { fault_ = inj; }

    /**
     * Attach one interrupt-lifecycle observer (nullptr detaches; a
     * detached kernel pays one null check per stage). The four
     * channels (UIPI, KB timer, forwarding, signals) report as
     * IntrSource UserIpi/KbTimer/Forwarded/Signal, with span id 0
     * and the receiving thread as the receiver argument:
     *  - Raise: a post toward the thread;
     *  - Accept: the occupancy engine took the arrival;
     *  - Deliver: the handler is invoked (engine: at frame start,
     *    never again for a replayed continuation);
     *  - Return: the delivery is accounted (engine: the frame
     *    completed; never for a KB fire whose expiry was unobserved);
     *  - Drop: one post missed by design (NEXT_ONLY);
     *  - Abandon: an observed KB-timer expiry cancelled.
     * The DeliveryLedger (invariant checking) and the BoundChecker
     * (engine latency bounds) attach here, alone or through an
     * IntrObserverTee.
     */
    void setIntrObserver(IntrLifecycleObserver *obs)
    {
        observer_ = obs;
    }

    /**
     * Enable the graceful-degradation paths (UPID rescan with
     * bounded backoff after a lost/reordered notification). On by
     * default; chaos turns it off to prove the invariants catch
     * unrecovered loss.
     */
    void setRecoveryEnabled(bool v) { recoveryEnabled_ = v; }

    /** Tune the rescan backoff (base doubles per attempt). */
    void setRecoveryParams(Cycles backoff_base,
                           unsigned max_attempts)
    {
        recoveryBackoff_ = backoff_base;
        maxRecoveryAttempts_ = max_attempts;
    }

    /**
     * Record one rollback-retry: the run was rolled back
     * to a checkpoint and `eventsReplayed` events were re-driven to
     * reach it. Called by the chaos harness on the surviving cell
     * (checkpoint recovery rebuilds the kernel, so the totals are
     * accumulated outside and applied to the final instance).
     */
    void noteRollback(std::uint64_t eventsReplayed);

    /**
     * Register the kernel's counters ("kernel.*", one per
     * kKernelStats row) with a metrics registry. Without this call
     * every counter pointer stays null and the hot paths pay
     * nothing.
     */
    void attachMetrics(MetricsRegistry &registry);

    /** A counter's value; 0 when no registry is attached. */
    std::uint64_t count(KernelStat stat) const
    {
        const Counter *c = stats_[static_cast<std::size_t>(stat)];
        return c != nullptr ? c->value() : 0;
    }

    /**
     * Mirror the traced counters (kKernelStats rows with `traced`
     * set) into per-vector Perfetto counter tracks
     * (obs/kernel_trace.hh); nullptr detaches. Same null-guarded
     * zero-cost convention as attachMetrics.
     */
    void attachCounterTrace(KernelCounterTrace *trace)
    {
        ktrace_ = trace;
    }

    /** Vector argument of note() for events with no vector. */
    static constexpr unsigned kNoVector = 256;

  private:
    /** Occupancy-engine automaton states (per thread). */
    enum class EngState : std::uint8_t
    {
        Idle,
        /** Spilling the preempted frame (preemptSave cycles). */
        Saving,
        /** Reloading a preempted frame (preemptRestore cycles). */
        Restoring,
        /** A handler frame occupies the core. */
        Running,
    };

    /** One in-flight (running or preempted) handler frame. */
    struct EngFrame
    {
        unsigned vector = 0;
        unsigned prio = 0;
        /** Source of the Return emitted on completion (`booked`). */
        IntrSource source = IntrSource::UserIpi;
        bool booked = false;
        /** Cycles still owed when preempted. */
        Cycles remaining = 0;
    };

    /** One arrival waiting for the core. */
    struct EngDeferred
    {
        unsigned vector = 0;
        unsigned prio = 0;
        Cycles cost = 0;
        IntrSource source = IntrSource::UserIpi;
        bool booked = false;
        /** Arrival order; ties within a priority resolve FIFO. */
        std::uint64_t seq = 0;
        /** Replayed continuation: skip the handler invocation. */
        bool alreadyStarted = false;
    };

    struct Thread
    {
        bool exists = false;
        CoreId core = 0;
        bool running = false;
        Upid upid;
        bool hasUpid = false;
        std::function<void(unsigned)> handler;
        KbTimerSave timerSave;
        bool timerEnabled = false;
        std::uint8_t timerVector = 0;
        Bitset256 fwdMask;
        Dupid dupid;
        /** Pending (collapsed) interval-timer signal. */
        bool pendingSignal = false;
        unsigned pendingSigno = 0;
        /**
         * A KB-timer expiry was observed (and raised) for this
         * thread but not yet delivered when it descheduled; the
         * restore-missed path completes the accounting.
         */
        bool timerDuePosted = false;
        /** Per-vector delivery policies (empty = all legacy). */
        std::unordered_map<unsigned, DeliveryPolicy> policies;
        /** Per-vector moderators (empty = no moderation). */
        std::unordered_map<unsigned, VectorModerator> moderators;
        /** Per-vector handler occupancy (empty = engine off). */
        std::unordered_map<unsigned, Cycles> handlerCosts;
        /** Occupancy-engine automaton state. */
        EngState engState = EngState::Idle;
        /** When the current Saving/Restoring/Running state ends. */
        Cycles engStateEnd = 0;
        /** Bumped to invalidate superseded advance events. */
        std::uint64_t engGen = 0;
        /** In-flight frames, innermost (running) last. */
        std::vector<EngFrame> engFrames;
        /** Queued arrivals, sorted (priority desc, seq asc). */
        std::vector<EngDeferred> engDeferred;
    };

    struct Core
    {
        ThreadId running = kNoThread;
        KbTimer timer;
        ForwardingUnit fwd;
        std::uint8_t nextFwdVector = 64;  // above the UV space
        /** An observed KB-timer expiry awaits delivery (fault). */
        bool timerDue = false;
        /** The awaited expiry was dropped/delayed by a fault. */
        bool timerMisfired = false;
    };

    Thread &thread(ThreadId id);
    const Thread &thread(ThreadId id) const;
    /** Deliver every vector parked for a thread; returns count. */
    unsigned drainParked(ThreadId id);
    /** Notification-processing scan: drain PIR to the handler. */
    unsigned scanUpid(ThreadId id);
    /** A (delayed/duplicated) notification IPI arrives. */
    void notifyArrived(ThreadId id);
    /** Bounded rescan-with-backoff after a lost notification. */
    void scheduleUpidRecovery(ThreadId id, unsigned attempt);
    /** In-flight (fault-delayed) KB-timer fire lands. */
    void delayedKbTimerFire(CoreId core_id);
    /** Deliver an acknowledged KB-timer fire to the running thread. */
    void deliverKbTimerFired(CoreId core_id);
    /** In-flight (fault-delayed) forwarded interrupt lands. */
    void delayedForwardDeliver(CoreId core_id, unsigned vector,
                               ThreadId posted_to);
    /** Abandon an observed-but-cancelled KB-timer expiry. */
    void abandonTimerDue(CoreId core_id);
    /** The policy for a vector, or null when unset (fast check). */
    const DeliveryPolicy *policyFor(const Thread &t,
                                    unsigned vector) const;
    /** A scheduled moderation-window flush fires. */
    void moderationFlush(ThreadId id, unsigned vector);

    /**
     * The delivery funnel: every delivery of a posted vector runs
     * here. The occupancy engine takes the vector when the thread
     * declared a handler cost for it, and emits Return when the
     * frame completes; otherwise it emits Deliver, runs the handler
     * now and emits Return. With `booked` false nothing is
     * accounted: no Return (a KB fire whose expiry was never
     * observed, so never raised).
     */
    void deliver(IntrSource source, ThreadId id, unsigned vector,
                 bool booked = true);

    /**
     * Report one lifecycle stage to the observer, if any: the only
     * place the kernel reads observer_.
     */
    void emit(IntrStage stage, IntrSource source, ThreadId id,
              unsigned vector)
    {
        if (observer_ != nullptr)
            observer_->intrStage(stage, 0, source,
                                 static_cast<std::uint8_t>(vector),
                                 sim_.now(), id);
    }

    // ----- occupancy engine (priority preemption) --------------------

    /**
     * Route one delivery through the occupancy engine. @return false
     * (and touch nothing) when the engine is off for this vector —
     * deliver() falls through to the immediate delivery. When
     * `booked`, the frame emits Return on completion.
     */
    bool deliverViaEngine(ThreadId id, unsigned vector,
                          IntrSource source, bool booked);
    /** The vector's priority (policy, or 0 when unset). */
    unsigned enginePriority(const Thread &t, unsigned vector) const;
    /** Insert into engDeferred keeping (prio desc, seq asc). */
    void engineEnqueue(Thread &t, const EngDeferred &d);
    /** React to a fresh arrival: start, preempt, or defer. */
    void engineArrival(ThreadId id, unsigned vector);
    /** Preempt the running frame for a higher-priority arrival. */
    void enginePreempt(ThreadId id);
    /** Pop the highest-priority deferred arrival and run it. */
    void engineStartFrame(ThreadId id);
    /** Schedule the state-end advance for the current state. */
    void scheduleEngineAdvance(ThreadId id);
    /** A state (save/run/restore) ran to its end. */
    void engineAdvance(ThreadId id, std::uint64_t gen);

    Simulation &sim_;
    CostModel costs_;
    /** Deque: UPID pointers stored in the UITT must stay stable. */
    std::deque<Thread> threads_;
    std::vector<Core> cores_;
    Uitt uitt_;
    /** UPID -> thread back-map for senduipi delivery. */
    std::unordered_map<const Upid *, ThreadId> upidOwner_;

    struct IntervalTimer
    {
        ThreadId thread = kNoThread;
        unsigned signo = 0;
        std::unique_ptr<PeriodicEvent> event;
    };
    std::vector<IntervalTimer> intervalTimers_;
    std::uint64_t signalsDelivered_ = 0;

    /**
     * Count `n` events on `stat`. A traced row with a counter trace
     * attached also emits the new cumulative value on series
     * `vector` (kNoVector: "all") — unless `n` is 0, which emits
     * nothing. Untraced rows fold to one null-checked increment.
     */
    void note(KernelStat stat, unsigned vector = kNoVector,
              std::uint64_t n = 1)
    {
        const auto i = static_cast<std::size_t>(stat);
        if (stats_[i] != nullptr)
            stats_[i]->inc(n);
        if (kKernelStats[i].traced && ktrace_ != nullptr && n != 0)
            traceSample(stat, vector, n);
    }

    /** The counter-track half of note(). */
    void traceSample(KernelStat stat, unsigned vector,
                     std::uint64_t n);

    /** Null until attachMetrics. */
    std::array<Counter *, kNumKernelStats> stats_{};
    KernelCounterTrace *ktrace_ = nullptr;

    // Fault fabric (null = perfect delivery, zero-cost).
    fault::Injector *fault_ = nullptr;
    IntrLifecycleObserver *observer_ = nullptr;
    bool recoveryEnabled_ = true;
    Cycles recoveryBackoff_ = 256;
    unsigned maxRecoveryAttempts_ = 6;

    /** Global arrival sequence for deferred FIFO tie-breaks. */
    std::uint64_t engSeq_ = 0;
    /** True while drainParked delivers resume-drain backlog. */
    bool inResumeDrain_ = false;
};

} // namespace xui

#endif // XUI_OS_KERNEL_HH
