/**
 * @file
 * Chrome trace-event JSON export (Perfetto-loadable).
 *
 * TraceJsonWriter buffers events and serializes the array-of-events
 * form of the Chrome trace format: every event carries `ph` (phase),
 * `ts` (microseconds), `pid` and `tid`, so `chrome://tracing` and
 * https://ui.perfetto.dev load the output directly. Three adapters
 * feed it:
 *
 *  - PipelineTraceSink: a Tracer that renders one instant event per
 *    pipeline stage event on its core's track;
 *  - DesTraceHook: attaches to an EventQueue fire hook and renders
 *    one instant event per DES event fired (its "id" arg is a
 *    pool-slot handle, not a stable identity);
 *  - IntrSpanTracker (src/obs/span.hh) exports lifecycle stages as
 *    complete ("X") duration events.
 *
 * Track convention: pid 0 = the cycle tier (tid = core id), pid 1 =
 * the DES tier (tid = chosen by the caller, 0 by default).
 */

#ifndef XUI_OBS_TRACE_EXPORT_HH
#define XUI_OBS_TRACE_EXPORT_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "des/event_queue.hh"
#include "des/time.hh"
#include "uarch/trace.hh"

namespace xui
{

/** Track-naming convention: the cycle tier. */
constexpr unsigned kTracePidUarch = 0;
/** Track-naming convention: the DES tier. */
constexpr unsigned kTracePidDes = 1;

/** Buffers Chrome trace events and writes the JSON array form. */
class TraceJsonWriter
{
  public:
    /**
     * @param max_events buffered-event cap; events beyond it are
     *        dropped (and counted) so a long run cannot exhaust
     *        memory. Metadata events are never dropped, and at the
     *        cap counter-track samples are sacrificed before span /
     *        instant events: samples are a periodic signal whose
     *        loss degrades resolution, spans are the scarce signal
     *        whose loss deletes an interrupt from the timeline. An
     *        incoming sample at the cap is dropped outright; an
     *        incoming span evicts the oldest buffered sample (and
     *        only when no samples remain is the span itself
     *        dropped). The two cases are counted separately
     *        (droppedSamples() / droppedSpans()).
     */
    explicit TraceJsonWriter(std::size_t max_events = 1000000);

    /** Instant event ("i", thread scope). */
    void instant(const std::string &name, const char *category,
                 Cycles cycle, unsigned pid, unsigned tid,
                 const std::string &args_json = "");

    /** Complete event ("X") spanning [start, end] cycles. */
    void complete(const std::string &name, const char *category,
                  Cycles start, Cycles end, unsigned pid,
                  unsigned tid,
                  const std::string &args_json = "");

    /**
     * Counter-track sample ("C"): `args_json` carries one key per
     * series on the track named `name`. Perfetto renders one
     * stacked counter track per (pid, name).
     */
    void counter(const std::string &name, Cycles cycle,
                 unsigned pid, unsigned tid,
                 const std::string &args_json);

    /** Metadata: name a process or thread track. */
    void nameProcess(unsigned pid, const std::string &name);
    void nameThread(unsigned pid, unsigned tid,
                    const std::string &name);

    /** Buffered events (including metadata). */
    std::size_t size() const { return events_.size(); }

    /** Events discarded after the cap was reached (all kinds). */
    std::size_t dropped() const
    {
        return droppedSamples_ + droppedSpans_;
    }

    /** Counter-track samples dropped (or evicted) at the cap. */
    std::size_t droppedSamples() const { return droppedSamples_; }

    /** Span/instant events dropped at the cap (no sample left). */
    std::size_t droppedSpans() const { return droppedSpans_; }

    /** Serialize the JSON array. */
    void write(std::ostream &os) const;

    /**
     * Write the JSON rendering to a file.
     * @return false when the file cannot be written.
     */
    bool writeFile(const std::string &path) const;

  private:
    struct Event
    {
        std::string name;
        const char *category;
        char phase;
        /** Start time in cycles (converted to us at write time). */
        Cycles ts;
        /** Duration in cycles ("X" events only). */
        Cycles dur;
        unsigned pid;
        unsigned tid;
        /** Pre-rendered JSON object for "args" (may be empty). */
        std::string args;
    };

    /** Append a span/instant event, evicting a sample at the cap. */
    void push(Event &&ev);
    void writeEvent(std::ostream &os, const Event &ev) const;

    std::vector<Event> events_;
    std::size_t maxEvents_;
    std::size_t droppedSamples_ = 0;
    std::size_t droppedSpans_ = 0;

    /**
     * Buffer indices of admitted counter samples, in admission
     * order; entries before sampleHead_ were already evicted.
     * Samples are only appended while under the cap and eviction
     * overwrites a sample slot with the incoming span, so every
     * live entry always points at a sample event.
     */
    std::vector<std::size_t> sampleIdx_;
    std::size_t sampleHead_ = 0;
};

/**
 * Tracer rendering pipeline events as instant trace events on one
 * core's track. Attach one sink per core (the Tracer interface does
 * not carry a core id).
 */
class PipelineTraceSink : public Tracer
{
  public:
    PipelineTraceSink(TraceJsonWriter &out, unsigned tid,
                      unsigned pid = kTracePidUarch)
        : out_(out), pid_(pid), tid_(tid)
    {}

    void event(TraceEvent ev, Cycles cycle, std::uint64_t seq,
               std::uint32_t pc, OpClass cls) override;

  private:
    TraceJsonWriter &out_;
    unsigned pid_;
    unsigned tid_;
};

/**
 * Renders every DES event fired as an instant trace event. Install
 * with attach(); detaches (restores a null hook) on destruction.
 *
 * An instant's `"id"` arg is the event's pool-slot handle (EventId:
 * generation and slot), not a stable event identity: slots are
 * reused as events fire, so the same event stream can carry
 * different ids when the queue allocates slots in another order.
 * Compare traces by name, time and order, not by id.
 */
class DesTraceHook
{
  public:
    explicit DesTraceHook(TraceJsonWriter &out, unsigned tid = 0,
                          unsigned pid = kTracePidDes)
        : out_(&out), pid_(pid), tid_(tid)
    {}

    ~DesTraceHook();

    DesTraceHook(const DesTraceHook &) = delete;
    DesTraceHook &operator=(const DesTraceHook &) = delete;

    /** Install on a queue (replaces any existing fire hook). */
    void attach(EventQueue &queue);

  private:
    TraceJsonWriter *out_;
    EventQueue *queue_ = nullptr;
    unsigned pid_;
    unsigned tid_;
};

} // namespace xui

#endif // XUI_OBS_TRACE_EXPORT_HH
