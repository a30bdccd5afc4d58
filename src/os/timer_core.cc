#include "os/timer_core.hh"

#include <algorithm>
#include <cassert>

namespace xui
{

TimerCoreModel::TimerCoreModel(Simulation &sim,
                               const CostModel &costs,
                               TimerInterface iface, Cycles interval,
                               unsigned num_app_cores)
    : sim_(sim), costs_(costs), iface_(iface), interval_(interval),
      numAppCores_(num_app_cores)
{
    assert(interval > 0);
}

Cycles
TimerCoreModel::perEventCost()  const
{
    switch (iface_) {
      case TimerInterface::Setitimer:
        return costs_.setitimerEvent;
      case TimerInterface::Nanosleep:
        return costs_.nanosleepEvent;
      case TimerInterface::RdtscSpin:
        return costs_.rdtscSpinCheck;
      case TimerInterface::XuiKbTimer:
        return 0;
    }
    return 0;
}

void
TimerCoreModel::run(Cycles duration)
{
    duration_ += duration;
    if (iface_ == TimerInterface::XuiKbTimer) {
        // No timer core: each application core owns a KB timer.
        return;
    }

    // Discrete event loop over intervals; if the per-interval work
    // exceeds the interval the next firing slips (overload).
    Cycles now = sim_.now();
    Cycles end = now + duration;
    Cycles next_fire = now + interval_;
    Cycles busy_until = now;

    while (next_fire < end) {
        Cycles start = std::max(next_fire, busy_until);
        if (start >= end)
            break;
        Cycles work = perEventCost() +
            static_cast<Cycles>(numAppCores_) * costs_.senduipiCost;
        busy_until = start + work;
        busyCycles_ += work;
        ++eventsFired_;
        if (mFired_ != nullptr)
            mFired_->inc();
        if (mSent_ != nullptr)
            mSent_->inc(numAppCores_);
        next_fire += interval_;
        // A saturated core fires back-to-back (start is clamped to
        // busy_until above); missed deadlines are skipped, not
        // queued, so eventsFired reflects the achieved rate.
        if (busy_until > next_fire)
            next_fire = busy_until;
    }

    if (iface_ == TimerInterface::RdtscSpin) {
        // The spin loop burns every remaining cycle polling rdtsc.
        busyCycles_ = duration_;
    }
}

double
TimerCoreModel::utilization() const
{
    if (duration_ == 0 || iface_ == TimerInterface::XuiKbTimer)
        return 0.0;
    return std::min(1.0, static_cast<double>(busyCycles_) /
                             static_cast<double>(duration_));
}

void
TimerCoreModel::attachMetrics(MetricsRegistry &registry)
{
    mFired_ = &registry.counter("timer_core.events_fired");
    mSent_ = &registry.counter("timer_core.notifications_sent");
    mUtilization_ = &registry.gauge("timer_core.utilization");
    mAchievedRate_ = &registry.gauge("timer_core.achieved_rate");
}

void
TimerCoreModel::publish()
{
    if (mUtilization_ != nullptr)
        mUtilization_->set(utilization());
    if (mAchievedRate_ != nullptr)
        mAchievedRate_->set(achievedRateFraction());
}

double
TimerCoreModel::achievedRateFraction() const
{
    if (iface_ == TimerInterface::XuiKbTimer)
        return 1.0;
    double expected = static_cast<double>(duration_) /
        static_cast<double>(interval_);
    if (expected <= 0.0)
        return 1.0;
    return std::min(1.0, static_cast<double>(eventsFired_) / expected);
}

} // namespace xui
