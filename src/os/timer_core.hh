/**
 * @file
 * Dedicated-timer-core model for Figure 6 ("The Cost of a Timer").
 *
 * User-level runtimes without xUI dedicate a kernel thread (often a
 * whole core) to timing: it wakes every interval through an OS timer
 * interface (setitimer signal or nanosleep) or by spinning on rdtsc,
 * then notifies each application core with senduipi. This model
 * accounts the timer core's busy cycles and the achieved firing rate
 * so the bench can sweep interval x core-count, and contrasts with
 * xUI where each core's KB timer makes the timer core disappear.
 */

#ifndef XUI_OS_TIMER_CORE_HH
#define XUI_OS_TIMER_CORE_HH

#include <cstdint>

#include "des/simulation.hh"
#include "obs/metrics.hh"
#include "os/cost_model.hh"

namespace xui
{

/** How the timer core learns that the interval elapsed. */
enum class TimerInterface : std::uint8_t
{
    /** setitimer(): the kernel delivers a signal each interval. */
    Setitimer,
    /** nanosleep(): sleep + kernel wakeup each interval. */
    Nanosleep,
    /** Busy-spin on rdtsc: burns the core, no OS involvement. */
    RdtscSpin,
    /** xUI: no timer core exists; each core has a KB timer. */
    XuiKbTimer,
};

/** DES model of one timer core driving N application cores. */
class TimerCoreModel
{
  public:
    /**
     * @param sim simulation context
     * @param costs calibrated costs
     * @param iface wake-up mechanism
     * @param interval preemption interval in cycles
     * @param num_app_cores cores to notify each interval
     */
    TimerCoreModel(Simulation &sim, const CostModel &costs,
                   TimerInterface iface, Cycles interval,
                   unsigned num_app_cores);

    /** Schedule the firing events over [now, now + duration). */
    void run(Cycles duration);

    /** Fraction of the timer core's cycles spent busy (0..1). */
    double utilization() const;

    /** Intervals that fired (an overloaded core fires fewer). */
    std::uint64_t eventsFired() const { return eventsFired_; }

    /**
     * Achieved firing rate relative to the requested rate (1.0 when
     * the timer core keeps up).
     */
    double achievedRateFraction() const;

    /** Per-interval busy cost of the chosen interface. */
    Cycles perEventCost() const;

    /**
     * Register this model's counters/gauges ("timer_core.*") with a
     * metrics registry; run() bumps them, utilization is published
     * by publish().
     */
    void attachMetrics(MetricsRegistry &registry);

    /** Push the derived gauges (utilization, achieved rate). */
    void publish();

  private:
    Simulation &sim_;
    CostModel costs_;
    TimerInterface iface_;
    Cycles interval_;
    unsigned numAppCores_;

    Cycles duration_ = 0;
    Cycles busyCycles_ = 0;
    std::uint64_t eventsFired_ = 0;

    /** Null until attachMetrics. */
    Counter *mFired_ = nullptr;
    Counter *mSent_ = nullptr;
    Gauge *mUtilization_ = nullptr;
    Gauge *mAchievedRate_ = nullptr;
};

} // namespace xui

#endif // XUI_OS_TIMER_CORE_HH
