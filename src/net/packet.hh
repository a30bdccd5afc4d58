/**
 * @file
 * Packet and NIC models for the l3fwd reproduction (§5.4): 64-byte
 * IPv4/UDP packets, per-NIC RX descriptor rings, and interrupt
 * generation hooks for xUI interrupt forwarding.
 */

#ifndef XUI_NET_PACKET_HH
#define XUI_NET_PACKET_HH

#include <cstdint>
#include <functional>

#include "des/time.hh"
#include "net/ring.hh"

namespace xui
{

/** One 64-byte IPv4 UDP packet (headers only; timing-relevant). */
struct Packet
{
    std::uint64_t id = 0;
    std::uint32_t srcIp = 0;
    std::uint32_t dstIp = 0;
    std::uint16_t size = 64;
    /** Wire arrival time at the NIC. */
    Cycles arrival = 0;
};

/** A NIC with one RX queue and an optional interrupt callback. */
class Nic
{
  public:
    /**
     * @param queue_depth RX descriptor ring capacity (power of two)
     */
    explicit Nic(std::size_t queue_depth = 1024)
        : rx_(queue_depth)
    {}

    /**
     * A packet arrives from the wire. Enqueued to the RX ring; when
     * the ring is full the packet is dropped (tail drop). Fires the
     * interrupt callback (if armed) on the empty->non-empty edge.
     * @return false when dropped.
     */
    bool
    deliver(Packet pkt)
    {
        bool was_empty = rx_.empty();
        if (!rx_.push(pkt)) {
            ++dropped_;
            return false;
        }
        ++received_;
        if (was_empty && intrArmed_ && onInterrupt_)
            onInterrupt_();
        return true;
    }

    /** Driver-side RX poll. @return false when the queue is empty. */
    bool poll(Packet &out) { return rx_.pop(out); }

    /** Arm/disarm RX interrupts (xUI handler protocol: disarm on
     * entry, drain, rearm before uiret). */
    void armInterrupt(bool armed) { intrArmed_ = armed; }

    /** Callback invoked on an interrupt-worthy arrival. */
    void setInterruptHandler(std::function<void()> cb)
    {
        onInterrupt_ = std::move(cb);
    }

    std::size_t queueDepth() const { return rx_.size(); }
    bool queueEmpty() const { return rx_.empty(); }
    std::uint64_t received() const { return received_; }
    std::uint64_t dropped() const { return dropped_; }

  private:
    DescRing<Packet> rx_;
    bool intrArmed_ = false;
    std::function<void()> onInterrupt_;
    std::uint64_t received_ = 0;
    std::uint64_t dropped_ = 0;
};

} // namespace xui

#endif // XUI_NET_PACKET_HH
