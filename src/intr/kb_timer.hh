/**
 * @file
 * Kernel Bypass Timer (KB_Timer) architectural state (paper §4.3).
 *
 * One KB_Timer exists per physical core and is multiplexed among
 * kernel threads by the OS. User code programs it with two new
 * instructions, set_timer(cycles, mode) and clear_timer(); the kernel
 * gates access and assigns the delivery vector through kb_config_MSR
 * and saves/restores timer state across context switches through
 * kb_timer_state_MSR. Delivery bypasses the UPID entirely, entering
 * the interrupt_delivery microcode directly (~105 cycles).
 */

#ifndef XUI_INTR_KB_TIMER_HH
#define XUI_INTR_KB_TIMER_HH

#include <cstdint>

#include "des/time.hh"

namespace xui
{

/** Timer operating mode (the 1-bit mode flag of set_timer). */
enum class KbTimerMode : std::uint8_t
{
    OneShot = 0,   ///< `cycles` operand is an absolute deadline
    Periodic = 1,  ///< `cycles` operand is a period
};

/** Saved timer image the kernel keeps per kernel thread. */
struct KbTimerSave
{
    bool armed = false;
    KbTimerMode mode = KbTimerMode::OneShot;
    /** Absolute deadline at save time. */
    Cycles deadline = 0;
    /** Period (periodic mode only). */
    Cycles period = 0;
    /** Vector assigned by the kernel at enable time. */
    std::uint8_t vector = 0;
};

/** Architectural state of one per-core KB timer. */
class KbTimer
{
  public:
    KbTimer() = default;

    /** kb_config_MSR: kernel enables the timer and sets the vector. */
    void configure(bool enabled, std::uint8_t vector);

    bool enabled() const { return enabled_; }
    std::uint8_t vector() const { return vector_; }

    /**
     * set_timer(cycles, mode) — user-level instruction.
     * One-shot mode interprets `cycles` as an absolute deadline (as
     * the paper specifies, mirroring APIC TSC-deadline mode);
     * periodic mode interprets it as a period with the first firing
     * one period from `now`.
     * @return false when the timer is not enabled by the kernel
     *         (treated as #UD / no-op for unauthorized threads).
     */
    bool setTimer(Cycles now, Cycles cycles, KbTimerMode mode);

    /** clear_timer() — disarm without disabling. */
    void clearTimer();

    bool armed() const { return armed_; }
    KbTimerMode mode() const { return mode_; }
    Cycles deadline() const { return deadline_; }
    Cycles period() const { return period_; }

    /** True when the deadline has been reached. */
    bool expired(Cycles now) const
    {
        return enabled_ && armed_ && now >= deadline_;
    }

    /**
     * Acknowledge a firing: advance the deadline (periodic) or
     * disarm (one-shot). Call exactly once per delivered interrupt,
     * immediately after observing expired() — if user code can run
     * in between (a delayed in-flight fire), use consumeExpiry()
     * instead: acknowledge() after a one-shot re-arm disarms the
     * *new* programming (the arm-while-firing edge, pinned by
     * KbTimer.AcknowledgeAfterRearmDisarmsNewProgramming).
     */
    void acknowledge();

    /**
     * Consume an expiry only if the timer is still expired at `now`:
     * advance the deadline (periodic) or disarm (one-shot) and
     * return true. A clear_timer() or a re-arm to a future deadline
     * between the expiry observation and this call makes it a no-op,
     * so an in-flight fire cancelled by newer programming cannot
     * corrupt that programming.
     * @return true when an expiry was consumed (deliver the
     *         interrupt); false when the fire was cancelled.
     */
    bool consumeExpiry(Cycles now);

    /**
     * kb_timer_state_MSR read: capture state for a context switch.
     * Disarms the live timer so it will not fire for the next thread.
     */
    KbTimerSave saveAndDisarm();

    /**
     * Restore a previously saved image when its thread resumes.
     * @return true when the saved deadline already passed, in which
     *         case the kernel must deliver the missed interrupt via
     *         the slow path (paper §4.3).
     */
    bool restore(const KbTimerSave &save, Cycles now);

    /**
     * Checkpoint archive visit (ckpt/codec.hh). Unlike restore(),
     * loading applies no missed-deadline policy — the bits come back
     * exactly as they were saved.
     */
    template <class Ar>
    void visit(Ar &ar)
    {
        ar.b(enabled_);
        ar.u8(vector_);
        ar.b(armed_);
        ar.enumU8(mode_, KbTimerMode::Periodic);
        ar.u64(deadline_);
        ar.u64(period_);
    }

  private:
    bool enabled_ = false;
    std::uint8_t vector_ = 0;
    bool armed_ = false;
    KbTimerMode mode_ = KbTimerMode::OneShot;
    Cycles deadline_ = 0;
    Cycles period_ = 0;
};

} // namespace xui

#endif // XUI_INTR_KB_TIMER_HH
