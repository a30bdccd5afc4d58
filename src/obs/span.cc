#include "obs/span.hh"

#include "obs/trace_export.hh"

namespace xui
{

const char *
intrSourceName(IntrSource source)
{
    switch (source) {
      case IntrSource::UserIpi:
        return "useripi";
      case IntrSource::KbTimer:
        return "kbtimer";
      case IntrSource::Forwarded:
        return "forwarded";
      case IntrSource::Signal:
        return "signal";
    }
    return "?";
}

IntrSpanTracker::IntrSpanTracker(MetricsRegistry &registry,
                                 std::string prefix)
    : registry_(registry), prefix_(std::move(prefix))
{}

void
IntrSpanTracker::intrStage(IntrStage stage, std::uint64_t span_id,
                           IntrSource source, std::uint8_t vector,
                           Cycles cycle, unsigned core_id)
{
    std::uint64_t k = key(core_id, span_id);
    switch (stage) {
      case IntrStage::Raise: {
        IntrSpan &span = open_[k];
        span.id = span_id;
        span.core = core_id;
        span.source = source;
        span.vector = vector;
        span.raisedAt = cycle;
        return;
      }
      case IntrStage::Accept: {
        auto it = open_.find(k);
        if (it != open_.end())
            it->second.acceptedAt = cycle;
        return;
      }
      case IntrStage::Inject: {
        auto it = open_.find(k);
        if (it != open_.end())
            it->second.injectedAt = cycle;
        return;
      }
      case IntrStage::Reinject: {
        auto it = open_.find(k);
        if (it != open_.end())
            ++it->second.reinjections;
        return;
      }
      case IntrStage::Deliver: {
        auto it = open_.find(k);
        if (it != open_.end())
            it->second.deliveredAt = cycle;
        return;
      }
      case IntrStage::Return: {
        auto it = open_.find(k);
        if (it == open_.end())
            return;
        if (it->second.preempting) {
            // Preempting span: uiret is not the end — the restore
            // cost still belongs to it (closed at PreemptResume).
            it->second.returnedAt = cycle;
            return;
        }
        IntrSpan span = it->second;
        open_.erase(it);
        span.returnedAt = cycle;
        span.complete = true;
        finish(span);
        spans_.push_back(span);
        return;
      }
      case IntrStage::PreemptSave: {
        auto it = open_.find(k);
        if (it != open_.end()) {
            it->second.preempting = true;
            it->second.saveStartAt = cycle;
        }
        return;
      }
      case IntrStage::PreemptResume: {
        auto it = open_.find(k);
        if (it == open_.end())
            return;
        IntrSpan span = it->second;
        open_.erase(it);
        span.restoredAt = cycle;
        span.complete = true;
        finish(span);
        spans_.push_back(span);
        return;
      }
      case IntrStage::Drop:
      case IntrStage::Abandon:
        return;  // DES-tier stages; a core never emits them
    }
}

IntrSpanTracker::StreamIds &
IntrSpanTracker::streamIds(unsigned core, IntrSource source)
{
    std::uint64_t k = (static_cast<std::uint64_t>(core) << 8) |
        static_cast<std::uint64_t>(source);
    auto it = streams_.find(k);
    if (it != streams_.end())
        return it->second;
    std::string base = prefix_ + "core" + std::to_string(core) +
        ".intr." + intrSourceName(source) + ".";
    StreamIds ids;
    ids.pend = registry_.internLatency(base + "pend");
    ids.injectWait = registry_.internLatency(base + "inject_wait");
    ids.ucode = registry_.internLatency(base + "ucode");
    ids.handler = registry_.internLatency(base + "handler");
    ids.e2e = registry_.internLatency(base + "e2e");
    ids.delivered = registry_.internCounter(base + "delivered");
    ids.reinjections = kNoId;
    ids.preemptSave = kNoId;
    ids.preemptRestore = kNoId;
    return streams_.emplace(k, ids).first->second;
}

void
IntrSpanTracker::finish(IntrSpan &span)
{
    StreamIds &ids = streamIds(span.core, span.source);
    registry_.latencyAt(ids.pend).record(span.pend());
    registry_.latencyAt(ids.injectWait).record(span.injectWait());
    registry_.latencyAt(ids.ucode).record(span.ucode());
    registry_.latencyAt(ids.handler).record(span.handler());
    registry_.latencyAt(ids.e2e).record(span.endToEnd());
    registry_.counterAt(ids.delivered).inc();
    if (span.reinjections > 0) {
        if (ids.reinjections == kNoId)
            ids.reinjections = registry_.internCounter(
                prefix_ + "core" + std::to_string(span.core) +
                ".intr." + intrSourceName(span.source) +
                ".reinjections");
        registry_.counterAt(ids.reinjections).inc(span.reinjections);
    }
    if (span.preempting) {
        if (ids.preemptSave == kNoId) {
            std::string base = prefix_ + "core" +
                std::to_string(span.core) + ".intr." +
                intrSourceName(span.source) + ".";
            ids.preemptSave =
                registry_.internLatency(base + "preempt_save");
            ids.preemptRestore =
                registry_.internLatency(base + "preempt_restore");
        }
        registry_.latencyAt(ids.preemptSave)
            .record(span.preemptSave());
        registry_.latencyAt(ids.preemptRestore)
            .record(span.preemptRestore());
    }
}

void
IntrSpanTracker::exportTo(TraceJsonWriter &out) const
{
    for (const IntrSpan &span : spans_) {
        std::string src = intrSourceName(span.source);
        std::string args = "{\"span\": " + std::to_string(span.id) +
            ", \"vector\": " + std::to_string(span.vector) +
            ", \"reinjections\": " +
            std::to_string(span.reinjections) +
            (span.preempting ? ", \"preempting\": true" : "") + "}";
        out.instant("raise " + src, "intr", span.raisedAt,
                    kTracePidUarch, span.core, args);
        out.complete("pend " + src, "intr", span.raisedAt,
                     span.acceptedAt, kTracePidUarch, span.core,
                     args);
        if (span.preempting) {
            out.complete("inject_wait " + src, "intr",
                         span.acceptedAt, span.saveStartAt,
                         kTracePidUarch, span.core, args);
            out.complete("preempt_save " + src, "intr",
                         span.saveStartAt, span.injectedAt,
                         kTracePidUarch, span.core, args);
        } else {
            out.complete("inject_wait " + src, "intr",
                         span.acceptedAt, span.injectedAt,
                         kTracePidUarch, span.core, args);
        }
        out.complete("ucode " + src, "intr", span.injectedAt,
                     span.deliveredAt, kTracePidUarch, span.core,
                     args);
        out.complete("handler " + src, "intr", span.deliveredAt,
                     span.returnedAt, kTracePidUarch, span.core,
                     args);
        if (span.preempting)
            out.complete("preempt_restore " + src, "intr",
                         span.returnedAt, span.restoredAt,
                         kTracePidUarch, span.core, args);
    }
}

} // namespace xui
