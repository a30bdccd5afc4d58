/**
 * @file
 * Layer-3 forwarding application (DPDK l3fwd reproduction, Fig. 8):
 * one core serving 1..8 NIC RX queues, routing 64-byte packets
 * through a real DIR-24-8 LPM table, comparing spin-polling RX
 * against xUI interrupt forwarding.
 */

#ifndef XUI_NET_L3FWD_HH
#define XUI_NET_L3FWD_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "des/simulation.hh"
#include "intr/policy.hh"
#include "net/lpm.hh"
#include "net/packet.hh"
#include "net/traffic.hh"
#include "os/cost_model.hh"
#include "stats/histogram.hh"

namespace xui
{

class MetricsRegistry;
class TraceJsonWriter;

/** RX notification mode. */
enum class RxMode : std::uint8_t
{
    /** DPDK default: busy-spin over every RX queue. */
    Polling,
    /** xUI: tracked interrupts via interrupt forwarding. */
    XuiForwarded,
    /**
     * umwait on queue 0's cache line (§2: "processors offer no way
     * to idle on more than a single queue"): with one NIC the core
     * sleeps between packets; with more it must spin-poll the other
     * queues and can never sleep.
     */
    MwaitSingleQueue,
};

/** Configuration for one l3fwd run. */
struct L3FwdConfig
{
    CostModel costs;
    RxMode mode = RxMode::Polling;
    unsigned numNics = 1;
    /** Offered load as a fraction of the core's forwarding capacity
     * (capacity = clock / packetProcess). */
    double load = 0.4;
    Cycles duration = 100 * kCyclesPerMs;
    std::size_t routeCount = 16000;
    std::size_t queueDepth = 1024;
    std::uint64_t seed = 1;
    /** Optional observability sinks (null = off, zero cost). */
    MetricsRegistry *metrics = nullptr;
    TraceJsonWriter *traceOut = nullptr;

    // ----- delivery policy & moderation (XuiForwarded only) ------
    /**
     * When set, model the interrupt rearm race explicitly: leaving
     * the service loop takes `rearmGap` cycles during which RX
     * edges cannot raise the handler. NEXT_ONLY + edge misses those
     * wakeups outright (the queue strands until another NIC's edge
     * rescues it — the failure mode NEXT_OR_MISSED exists to fix);
     * NEXT_OR_MISSED rechecks the queues after the rearm; level
     * trigger additionally refires on any arrival that finds
     * pending packets with the handler idle. Off (the default) the
     * run is bit-identical to the pre-policy model.
     */
    bool policyEnabled = false;
    DeliveryPolicy policy{};
    /** Rearm race window (cycles), used when policyEnabled. */
    Cycles rearmGap = 100;
    /** Per-NIC ITR moderation (disabled params = off). */
    ModerationParams moderation{};
};

/** Results of one l3fwd run. */
struct L3FwdResult
{
    std::uint64_t offered = 0;
    std::uint64_t forwarded = 0;
    std::uint64_t dropped = 0;
    std::uint64_t interrupts = 0;
    /** Per-packet latency (wire arrival -> forwarded). */
    Histogram latency;
    /** Cycle-accounting fractions (sum with freeFrac to 1). */
    double networkingFrac = 0.0;
    double pollingFrac = 0.0;
    double notificationFrac = 0.0;
    double freeFrac = 0.0;
    double throughputMpps = 0.0;

    // Delivery-policy / moderation outcomes (zero when off).
    /** Interrupts batched into an already-pending flush. */
    std::uint64_t coalesced = 0;
    /** Flush windows opened (notifications deferred). */
    std::uint64_t suppressedWindows = 0;
    /** NEXT_ONLY wakeups missed in the rearm gap. */
    std::uint64_t missed = 0;
    /** NEXT_OR_MISSED post-rearm recheck recoveries. */
    std::uint64_t missedRecovered = 0;
    /** Level-trigger refires without an RX edge. */
    std::uint64_t levelRedeliveries = 0;

    /** DES event-pool slots at the end: the run's peak of
     *  simultaneously pending events. */
    std::size_t eventPoolSlots = 0;
};

/** The l3fwd application simulation. */
class L3Fwd
{
  public:
    explicit L3Fwd(const L3FwdConfig &config);

    /** Run to completion and collect results. */
    L3FwdResult run();

    /** The routing table (available for inspection / examples). */
    LpmTable &table() { return table_; }

  private:
    void onArrival(unsigned nic, Packet pkt);
    void serviceLoop();
    /** Pick the next non-empty queue round-robin; -1 when idle. */
    int nextQueue();
    /** Any RX queue holds packets. */
    bool anyPending() const;
    /** An RX interrupt reached the core (edge or level refire). */
    void onNicInterrupt(unsigned nic);
    /** Pay the notification cost and enter the service loop. */
    void fireService();
    /** A scheduled moderation flush fires for one NIC. */
    void moderationFlush(unsigned nic);
    /** The post-service interrupt rearm window closed. */
    void rearmDone();

    L3FwdConfig config_;
    Simulation sim_;
    LpmTable table_;
    std::vector<RouteSpec> routes_;
    std::vector<std::unique_ptr<Nic>> nics_;
    /** Per-NIC moderators (null = unmoderated). */
    std::vector<std::unique_ptr<VectorModerator>> mods_;
    Rng rng_;

    bool serviceActive_ = false;
    bool handling_ = false;
    unsigned rrNext_ = 0;

    Cycles networkingCycles_ = 0;
    Cycles notificationCycles_ = 0;
    L3FwdResult result_;
};

/** Convenience wrapper. */
L3FwdResult runL3Fwd(const L3FwdConfig &config);

} // namespace xui

#endif // XUI_NET_L3FWD_HH
