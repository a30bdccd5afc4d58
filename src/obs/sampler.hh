/**
 * @file
 * Pipeline-pressure profiling: sampled counter tracks and the
 * interrupt-tax attribution engine.
 *
 * PipelinePressureProfiler attaches one CycleHook probe per core
 * and listens to the interrupt-lifecycle stream (via the same
 * observer path the span tracker uses). It produces two artifacts:
 *
 *  1. **Counter tracks** (`--counter-stride N`): every N executed
 *     cycles the probe samples ROB/IQ/LQ/SQ occupancy, fetch/issue/
 *     retire rates, cache MPKI, and branch mispredicts into Perfetto
 *     counter tracks ("C" events) next to the lifecycle spans.
 *     Inside a window around every raise -> deliver span the stride
 *     drops to 1 (burst mode, SMARTS-style): full-resolution detail
 *     exactly where the paper's claims live, cheap strided coverage
 *     everywhere else. The burst starts at Raise and ends
 *     `burstWindow` cycles after the last Deliver.
 *
 *  2. **Interrupt tax** (`--tax`): every cycle during which at
 *     least one interrupt span is open is attributed to exactly one
 *     bucket per open span, by the span's current lifecycle phase:
 *
 *       shadow  raise  -> accept   pending at the unit (queueing /
 *                                  moderation shadow)
 *       flush   accept -> inject   pipeline disruption: squash
 *                                  penalty (Flush), ROB drain
 *                                  (Drain), boundary wait (Tracked)
 *       refill  inject -> deliver  frontend-stalled share (fetch
 *                                  blocked on microcode entry /
 *                                  post-squash refill)
 *       ucode   inject -> deliver  remaining share (MSROM streaming
 *                                  through the backend)
 *       handler deliver-> return   user handler until uiret
 *
 *     Because each cycle of an open span falls in exactly one
 *     phase, the buckets *telescope*: flush + refill + ucode +
 *     handler + shadow == end-to-end span cycles, per span and
 *     therefore per source. Rollups land in MetricsRegistry under
 *     `core<N>.tax.src.<source>.*` and `core<N>.tax.vec<V>.*`.
 *
 * Digest neutrality: the profiler only reads core state from the
 * end-of-tick hook and never touches the simulation; the golden
 * corpus re-runs with a profiler attached and pins bit-identical
 * digests.
 */

#ifndef XUI_OBS_SAMPLER_HH
#define XUI_OBS_SAMPLER_HH

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/metrics.hh"
#include "obs/trace_export.hh"
#include "uarch/cycle_hook.hh"
#include "intr/intr_observer.hh"
#include "uarch/ooo_core.hh"

namespace xui
{

/** Profiling knobs (bench flags `--counter-stride`, `--tax`). */
struct ProfileConfig
{
    /** Sample every N executed cycles (0 = counter tracks off). */
    std::uint64_t counterStride = 0;
    /** Attribute interrupt-span cycles into tax buckets. */
    bool tax = false;
    /** Burst tail: stride-1 cycles kept after a Deliver. */
    Cycles burstWindow = 64;
};

/** Per-span cycle attribution (see file comment for the model). */
struct TaxCounts
{
    std::uint64_t flush = 0;
    std::uint64_t refill = 0;
    std::uint64_t ucode = 0;
    std::uint64_t handler = 0;
    std::uint64_t shadow = 0;

    std::uint64_t total() const
    {
        return flush + refill + ucode + handler + shadow;
    }
};

/** Samples counter tracks and attributes interrupt tax. */
class PipelinePressureProfiler : public IntrLifecycleObserver
{
  public:
    /**
     * @param cfg profiling knobs
     * @param metrics tax rollup target (may be null: tax off)
     * @param trace counter-track target (may be null: tracks off)
     */
    PipelinePressureProfiler(const ProfileConfig &cfg,
                             MetricsRegistry *metrics,
                             TraceJsonWriter *trace);
    ~PipelinePressureProfiler() override;

    PipelinePressureProfiler(const PipelinePressureProfiler &) =
        delete;
    PipelinePressureProfiler &
    operator=(const PipelinePressureProfiler &) = delete;

    /**
     * Hook one core (call once per core, before it runs). The
     * probe stays owned by the profiler; the profiler must outlive
     * the core's run.
     */
    void attachCore(OooCore &core);

    /** Lifecycle stream (drives bursts and tax phases). */
    void intrStage(IntrStage stage, std::uint64_t span_id,
                   IntrSource source, std::uint8_t vector,
                   Cycles cycle, unsigned core_id) override;

    /** Counter-track samples emitted across all cores. */
    std::uint64_t samplesEmitted() const;

    /** Cycles sampled at stride 1 inside burst windows. */
    std::uint64_t burstSamples() const;

    /** Publish profiler summary counters (obs.sampler.*). */
    void publish(MetricsRegistry &registry) const;

  private:
    /** Lifecycle phase an open span is currently in. */
    enum class Phase : std::uint8_t
    {
        Pend,       ///< raise observed, accept not yet
        InjectWait, ///< accept observed, inject not yet
        Ucode,      ///< inject observed, deliver not yet
        Handler,    ///< deliver observed, return not yet
    };

    struct OpenSpan
    {
        Phase phase = Phase::Pend;
        IntrSource source{};
        std::uint8_t vector = 0;
        TaxCounts tax;
    };

    /** One hooked core: sampling state + open-span table. */
    struct CoreProbe : CycleHook
    {
        PipelinePressureProfiler *owner = nullptr;
        unsigned coreId = 0;

        // Deltas since the previous sample.
        Cycles prevCycle = 0;
        std::uint64_t prevFetched = 0;
        std::uint64_t prevIssued = 0;
        std::uint64_t prevRetired = 0;
        std::uint64_t prevInsts = 0;
        std::uint64_t prevL1Miss = 0;
        std::uint64_t prevL2Miss = 0;
        std::uint64_t prevLlcMiss = 0;
        std::uint64_t prevMispred = 0;

        // Burst window: live while any span is pre-Deliver, plus a
        // tail after the last Deliver.
        unsigned pendingRaises = 0;
        Cycles burstUntil = 0;

        std::uint64_t samples = 0;
        std::uint64_t burstSamples = 0;

        /** Open spans on this core (span ids are per-unit). */
        std::unordered_map<std::uint64_t, OpenSpan> open;

        // Cached track names ("coreN occupancy" etc.).
        std::string occTrack;
        std::string rateTrack;
        std::string memTrack;

        void onCycle(const OooCore &core, bool sampled,
                     bool live) override;
    };

    /** Interned per-(core, stream) tax counter handles. */
    struct TaxIds
    {
        MetricId flush;
        MetricId refill;
        MetricId ucode;
        MetricId handler;
        MetricId shadow;
        MetricId spans;
    };

    CoreProbe *probeFor(unsigned core_id);
    bool inBurst(const CoreProbe &p, Cycles now) const;
    void sample(CoreProbe &p, const OooCore &core);
    void rollup(CoreProbe &p, const OpenSpan &span);
    TaxIds &taxIds(const std::string &stream);

    ProfileConfig cfg_;
    MetricsRegistry *metrics_;
    TraceJsonWriter *trace_;
    std::vector<std::unique_ptr<CoreProbe>> probes_;
    /** core id -> probe (ids are small and dense in practice). */
    std::vector<CoreProbe *> byCore_;
    std::unordered_map<std::string, TaxIds> taxIds_;
};

} // namespace xui

#endif // XUI_OBS_SAMPLER_HH
