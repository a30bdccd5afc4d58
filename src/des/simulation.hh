/**
 * @file
 * Simulation context: event queue + master RNG + periodic-event
 * helper. Every DES-tier model (kernel, runtime, NIC, accelerator)
 * holds a reference to one Simulation.
 */

#ifndef XUI_DES_SIMULATION_HH
#define XUI_DES_SIMULATION_HH

#include <functional>

#include "des/event_queue.hh"
#include "des/time.hh"
#include "stats/rng.hh"

namespace xui
{

/** Owns the event queue and the master random stream for one run. */
class Simulation
{
  public:
    explicit Simulation(std::uint64_t seed = 1);

    /** The event queue driving this simulation. */
    EventQueue &queue() { return queue_; }

    /** Current simulated time. */
    Cycles now() const { return queue_.now(); }

    /** Derive an independent RNG stream for a component. */
    Rng makeRng() { return master_.split(); }

    /** Run until the given absolute time. */
    void runUntil(Cycles limit) { queue_.runUntil(limit); }

    /**
     * Absolute time of the earliest pending event, or
     * EventQueue::kNoPending when the queue is idle. The coarse
     * wakeup primitive for hybrid co-simulation: a fast-forwarding
     * cycle tier can bulk-advance to just short of this time instead
     * of interleaving with an idle DES tier every cycle. O(1) and
     * const: the queue's heap holds pending events only.
     */
    Cycles nextEventAt() const { return queue_.peekNextTime(); }

  private:
    EventQueue queue_;
    Rng master_;
};

/**
 * Self-rescheduling periodic event. The callback runs every `period`
 * cycles from `start` until stop() is called or the callback returns
 * false.
 */
class PeriodicEvent
{
  public:
    /** Callback; return false to stop the series. */
    using Callback = std::function<bool()>;

    PeriodicEvent(EventQueue &queue, Cycles period, Callback cb);
    ~PeriodicEvent();

    PeriodicEvent(const PeriodicEvent &) = delete;
    PeriodicEvent &operator=(const PeriodicEvent &) = delete;

    /** Begin firing at absolute time `start`. */
    void start(Cycles start);

    /** Begin firing one period from now. */
    void startAfterPeriod();

    /** Cancel any pending firing. */
    void stop();

    /** True while a firing is scheduled. */
    bool running() const { return pending_ != kInvalidEventId; }

    /** Change the period; applies from the next rescheduling. */
    void setPeriod(Cycles period) { period_ = period; }

    Cycles period() const { return period_; }

  private:
    void fire();

    EventQueue &queue_;
    Cycles period_;
    Callback cb_;
    EventId pending_;
};

} // namespace xui

#endif // XUI_DES_SIMULATION_HH
