/**
 * @file
 * Interrupt forwarding — the xUI local-APIC extension that routes
 * device interrupts destined for a core (APICID/vector) to the
 * user-level thread currently running there (paper §4.5).
 *
 * Two new 256-bit APIC registers control routing:
 *   - forwarding_enabled: which vectors are forwarded at all on this
 *     core;
 *   - forwarded_active: which of those belong to the thread currently
 *     running (written by the kernel on every context switch).
 *
 * When a forwarded vector arrives, its bit is set in the UIRR MSR;
 * then either the fast path (bit also in forwarded_active: deliver
 * straight to the user thread) or the slow path (kernel trap; vector
 * parked in the owner's DUPID for delivery at next resume) is taken.
 */

#ifndef XUI_INTR_FORWARDING_HH
#define XUI_INTR_FORWARDING_HH

#include <cstdint>

#include "intr/bitset256.hh"

namespace xui
{

/**
 * Device User Interrupt Posted Descriptor — the per-thread slow-path
 * parking area for forwarded device interrupts, analogous to the
 * UPID's PIR but written by the kernel trap handler rather than a
 * sending core.
 */
class Dupid
{
  public:
    /** Park a vector for later delivery. */
    void post(unsigned vector) { pending_.set(vector); }

    /** True when any vector is parked. */
    bool hasPending() const { return pending_.any(); }

    /** Fetch and clear all parked vectors. */
    Bitset256 fetchAndClear();

    const Bitset256 &pending() const { return pending_; }

    /** Checkpoint archive visit (ckpt/codec.hh). */
    template <class Ar>
    void visit(Ar &ar)
    {
        pending_.visit(ar);
    }

  private:
    Bitset256 pending_;
};

/** Outcome of a device interrupt hitting the forwarding logic. */
enum class ForwardOutcome : std::uint8_t
{
    /** Vector not in forwarding_enabled: conventional interrupt. */
    NotForwarded,
    /** Forwarded straight to the running user thread. */
    FastPath,
    /**
     * Forwarded but the owner thread is not running: conventional
     * interrupt to the kernel, which parks the vector in the DUPID.
     */
    SlowPath,
};

/** The forwarding extension state of one local APIC. */
class ForwardingUnit
{
  public:
    /** Kernel-programmed: enable forwarding of a vector on this core. */
    void enableVector(unsigned vector) { enabled_.set(vector); }

    /** Kernel-programmed: stop forwarding a vector. */
    void disableVector(unsigned vector) { enabled_.clear(vector); }

    /**
     * Written by the kernel on context switch: the full set of
     * vectors owned by the thread now running on this core.
     */
    void setActiveMask(const Bitset256 &mask) { active_ = mask; }

    const Bitset256 &activeMask() const { return active_; }
    const Bitset256 &enabledMask() const { return enabled_; }

    /**
     * Process an arriving interrupt. Sets UIRR for forwarded vectors
     * and classifies the delivery path.
     */
    ForwardOutcome onInterrupt(unsigned vector);

    /** UIRR MSR: requested (forwarded) user interrupts. */
    const Bitset256 &uirr() const { return uirr_; }

    /**
     * Consume the highest-priority requested vector (delivery
     * microcode / kernel trap handler reading UIRR).
     * @return the vector, or 256 when none pending.
     */
    unsigned takeHighestUirr();

    /** Checkpoint archive visit (ckpt/codec.hh): all three
     *  registers, raw. */
    template <class Ar>
    void visit(Ar &ar)
    {
        enabled_.visit(ar);
        active_.visit(ar);
        uirr_.visit(ar);
    }

  private:
    Bitset256 enabled_;
    Bitset256 active_;
    Bitset256 uirr_;
};

} // namespace xui

#endif // XUI_INTR_FORWARDING_HH
