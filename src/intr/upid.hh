/**
 * @file
 * User Posted Interrupt Descriptor (UPID) — the per-thread in-memory
 * descriptor at the heart of Intel UIPI routing (paper Table 1).
 *
 * Layout (128 bits):
 *   bit 0       ON    outstanding notification
 *   bit 1       SN    suppressed notification
 *   bits 23:16  NV    notification vector (conventional IPI vector)
 *   bits 63:32  NDST  APIC ID of the core the thread runs on
 *   bits 127:64 PIR   posted interrupt requests, one bit per user
 *                     vector (UV, 6-bit space)
 *
 * The struct stores the two raw 64-bit words exactly as hardware
 * would, with accessors implementing the field encodings, so tests
 * can validate the bit-level layout against Table 1.
 */

#ifndef XUI_INTR_UPID_HH
#define XUI_INTR_UPID_HH

#include <cstdint>

namespace xui
{

/** Number of user interrupt vectors (6-bit UV space). */
constexpr unsigned kNumUserVectors = 64;

/** Per-thread posted-interrupt descriptor. */
class Upid
{
  public:
    Upid() : low_(0), pir_(0) {}

    /** Result of posting a user vector via senduipi. */
    struct PostResult
    {
        /** The PIR bit was newly set (always true currently). */
        bool posted;
        /**
         * A notification IPI must be sent: SN was clear and this
         * post transitioned ON from 0 to 1.
         */
        bool sendIpi;
    };

    /** ON: a notification is outstanding for one or more UIs. */
    bool outstanding() const { return low_ & 1ull; }
    void setOutstanding(bool v);

    /** SN: senders should not notify (receiver descheduled). */
    bool suppressed() const { return (low_ >> 1) & 1ull; }
    void setSuppressed(bool v);

    /** NV: the conventional vector used for the notification IPI. */
    std::uint8_t notificationVector() const;
    void setNotificationVector(std::uint8_t nv);

    /** NDST: APIC ID of the core the owner thread is running on. */
    std::uint32_t destination() const;
    void setDestination(std::uint32_t apic_id);

    /** PIR: pending user vectors. */
    std::uint64_t pir() const { return pir_; }

    /** True when any user vector is posted. */
    bool hasPending() const { return pir_ != 0; }

    /**
     * Post a user vector, applying the senduipi protocol: set the
     * PIR bit; when SN is clear and ON was clear, set ON and request
     * an IPI. When SN is set, the post is recorded but no IPI is
     * requested. When ON is already set an IPI is already in flight,
     * so none is requested.
     */
    PostResult post(unsigned user_vector);

    /**
     * Atomically fetch and clear the PIR, as the notification
     * processing microcode does when moving posted vectors to UIRR.
     */
    std::uint64_t fetchAndClearPir();

    /** Clear ON (done during notification processing). */
    void clearOutstanding() { setOutstanding(false); }

    /** Raw low word (ON/SN/NV/NDST) for layout validation; pir()
     *  is the high word. */
    std::uint64_t rawLow() const { return low_; }

    /** Checkpoint archive visit (ckpt/codec.hh): the raw words. */
    template <class Ar>
    void visit(Ar &ar)
    {
        ar.u64(low_);
        ar.u64(pir_);
    }

  private:
    std::uint64_t low_;
    std::uint64_t pir_;
};

} // namespace xui

#endif // XUI_INTR_UPID_HH
