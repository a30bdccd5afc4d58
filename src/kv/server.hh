/**
 * @file
 * End-to-end KV server simulation (Fig. 7): open-loop load generator
 * feeding a KV store served by the user-level runtime under a chosen
 * preemption mechanism. Records per-type latency distributions.
 */

#ifndef XUI_KV_SERVER_HH
#define XUI_KV_SERVER_HH

#include <cstdint>

#include "des/simulation.hh"
#include "kv/kvstore.hh"
#include "os/cost_model.hh"
#include "runtime/runtime.hh"
#include "stats/histogram.hh"

namespace xui
{

class MetricsRegistry;
class TraceJsonWriter;

/** Configuration for one server run. */
struct KvServerConfig
{
    KvWorkloadParams workload;
    CostModel costs;
    PreemptMode mode = PreemptMode::XuiKbTimer;
    Cycles quantum = usToCycles(5);
    /**
     * Optional adaptive quantum: tighten the preemption interval
     * while the arrival rate crosses the high watermark (see
     * AdaptiveQuantumConfig). Disabled by default — the run is then
     * bit-identical to a fixed-quantum server.
     */
    AdaptiveQuantumConfig adaptive{};
    unsigned workerCores = 1;
    double offeredLoadRps = 50000.0;
    /** Simulated duration. */
    Cycles duration = 200 * kCyclesPerMs;
    /** Warmup fraction excluded from the histograms. */
    double warmupFraction = 0.1;
    std::uint64_t seed = 1;
    /** Optional observability sinks (null = off, zero cost). */
    MetricsRegistry *metrics = nullptr;
    TraceJsonWriter *traceOut = nullptr;
};

/** Results of one run. */
struct KvServerResult
{
    Histogram getLatency;
    Histogram scanLatency;
    std::uint64_t offered = 0;
    std::uint64_t completed = 0;
    double achievedRps = 0.0;
    /** Worker busy fraction (app + overheads). */
    double workerUtilization = 0.0;
    /** Timer-core utilization implied by UipiSwTimer (else 0). */
    double timerCoreUtilization = 0.0;
    /** DES event-pool slots at the end: the run's peak of
     *  simultaneously pending events. */
    std::size_t eventPoolSlots = 0;
};

/** Run the Fig. 7 experiment once. */
KvServerResult runKvServer(const KvServerConfig &config);

} // namespace xui

#endif // XUI_KV_SERVER_HH
