#include "obs/trace_export.hh"

#include <fstream>

#include "obs/json.hh"

namespace xui
{

TraceJsonWriter::TraceJsonWriter(std::size_t max_events)
    : maxEvents_(max_events)
{}

void
TraceJsonWriter::push(Event &&ev)
{
    if (events_.size() < maxEvents_) {
        events_.push_back(std::move(ev));
        return;
    }
    // At the cap a span/instant event evicts the oldest buffered
    // counter sample: samples lose resolution gracefully, a lost
    // span deletes an interrupt from the timeline. Overwriting the
    // slot perturbs buffer order, which the trace format allows
    // (viewers sort by ts).
    if (sampleHead_ < sampleIdx_.size()) {
        events_[sampleIdx_[sampleHead_++]] = std::move(ev);
        ++droppedSamples_;
        return;
    }
    ++droppedSpans_;
}

void
TraceJsonWriter::instant(const std::string &name,
                         const char *category, Cycles cycle,
                         unsigned pid, unsigned tid,
                         const std::string &args_json)
{
    push(Event{name, category, 'i', cycle, 0, pid, tid, args_json});
}

void
TraceJsonWriter::complete(const std::string &name,
                          const char *category, Cycles start,
                          Cycles end, unsigned pid, unsigned tid,
                          const std::string &args_json)
{
    Cycles dur = end >= start ? end - start : 0;
    push(Event{name, category, 'X', start, dur, pid, tid,
               args_json});
}

void
TraceJsonWriter::counter(const std::string &name, Cycles cycle,
                         unsigned pid, unsigned tid,
                         const std::string &args_json)
{
    if (events_.size() >= maxEvents_) {
        ++droppedSamples_;
        return;
    }
    sampleIdx_.push_back(events_.size());
    events_.push_back(
        Event{name, "counter", 'C', cycle, 0, pid, tid, args_json});
}

void
TraceJsonWriter::nameProcess(unsigned pid, const std::string &name)
{
    events_.push_back(Event{"process_name", "__metadata", 'M', 0, 0,
                            pid, 0,
                            "{\"name\": \"" + jsonEscape(name) +
                                "\"}"});
}

void
TraceJsonWriter::nameThread(unsigned pid, unsigned tid,
                            const std::string &name)
{
    events_.push_back(Event{"thread_name", "__metadata", 'M', 0, 0,
                            pid, tid,
                            "{\"name\": \"" + jsonEscape(name) +
                                "\"}"});
}

void
TraceJsonWriter::writeEvent(std::ostream &os, const Event &ev) const
{
    os << "{\"name\": \"" << jsonEscape(ev.name) << "\", \"cat\": \""
       << ev.category << "\", \"ph\": \"" << ev.phase
       << "\", \"ts\": " << jsonNumber(cyclesToUs(ev.ts))
       << ", \"pid\": " << ev.pid << ", \"tid\": " << ev.tid;
    if (ev.phase == 'X')
        os << ", \"dur\": " << jsonNumber(cyclesToUs(ev.dur));
    if (ev.phase == 'i')
        os << ", \"s\": \"t\"";
    if (!ev.args.empty())
        os << ", \"args\": " << ev.args;
    os << "}";
}

void
TraceJsonWriter::write(std::ostream &os) const
{
    os << "[";
    bool first = true;
    for (const Event &ev : events_) {
        os << (first ? "\n" : ",\n");
        writeEvent(os, ev);
        first = false;
    }
    os << "\n]\n";
}

bool
TraceJsonWriter::writeFile(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        return false;
    write(out);
    return static_cast<bool>(out);
}

void
PipelineTraceSink::event(TraceEvent ev, Cycles cycle,
                         std::uint64_t seq, std::uint32_t pc,
                         OpClass cls)
{
    std::string args;
    if (seq != 0) {
        args = "{\"seq\": " + std::to_string(seq) + ", \"pc\": " +
            std::to_string(pc) + ", \"cls\": " +
            std::to_string(static_cast<unsigned>(cls)) + "}";
    }
    out_.instant(traceEventName(ev), "pipeline", cycle, pid_, tid_,
                 args);
}

DesTraceHook::~DesTraceHook()
{
    if (queue_ != nullptr)
        queue_->setFireHook(nullptr);
}

void
DesTraceHook::attach(EventQueue &queue)
{
    queue_ = &queue;
    TraceJsonWriter *out = out_;
    unsigned pid = pid_;
    unsigned tid = tid_;
    // The id is the event's pool-slot handle; see the class comment.
    queue.setFireHook([out, pid, tid](EventId id, Cycles when) {
        out->instant("event", "des", when, pid, tid,
                     "{\"id\": " + std::to_string(id) + "}");
    });
}

} // namespace xui
