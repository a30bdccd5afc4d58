#include "obs/sampler.hh"

#include <algorithm>

#include "obs/json.hh"
#include "obs/span.hh"

namespace xui
{

PipelinePressureProfiler::PipelinePressureProfiler(
    const ProfileConfig &cfg, MetricsRegistry *metrics,
    TraceJsonWriter *trace)
    : cfg_(cfg), metrics_(metrics), trace_(trace)
{}

PipelinePressureProfiler::~PipelinePressureProfiler() = default;

void
PipelinePressureProfiler::attachCore(OooCore &core)
{
    if (probeFor(core.id()) != nullptr)
        return;  // one probe per core id; re-attach is a no-op
    auto probe = std::make_unique<CoreProbe>();
    probe->owner = this;
    probe->coreId = core.id();
    probe->prevCycle = core.now();
    const CoreStats &s = core.stats();
    probe->prevFetched = s.fetchedUops;
    probe->prevIssued = s.issuedUops;
    probe->prevRetired = s.committedUops;
    probe->prevInsts = s.committedInsts;
    probe->prevL1Miss = core.mem().l1().misses();
    probe->prevL2Miss = core.mem().l2().misses();
    probe->prevLlcMiss = core.mem().llc().misses();
    probe->prevMispred = s.branchMispredicts;
    std::string id = std::to_string(core.id());
    probe->occTrack = "core" + id + " occupancy";
    probe->rateTrack = "core" + id + " rates";
    probe->memTrack = "core" + id + " mem";
    // Counter tracks need both a stride and a trace sink; the tax
    // engine needs the registry. With neither the probe is inert
    // (and ObsSession does not attach one).
    bool sampling = cfg_.counterStride > 0 && trace_ != nullptr;
    probe->nextSampleAt = sampling
                              ? core.now() + cfg_.counterStride
                              : CycleHook::kNeverSample;
    if (byCore_.size() <= core.id())
        byCore_.resize(core.id() + 1, nullptr);
    byCore_[core.id()] = probe.get();
    core.setCycleHook(probe.get());
    probes_.push_back(std::move(probe));
}

PipelinePressureProfiler::CoreProbe *
PipelinePressureProfiler::probeFor(unsigned core_id)
{
    if (core_id >= byCore_.size())
        return nullptr;
    return byCore_[core_id];
}

bool
PipelinePressureProfiler::inBurst(const CoreProbe &p,
                                  Cycles now) const
{
    return p.pendingRaises > 0 || now <= p.burstUntil;
}

void
PipelinePressureProfiler::intrStage(IntrStage stage,
                                    std::uint64_t span_id,
                                    IntrSource source,
                                    std::uint8_t vector,
                                    Cycles cycle, unsigned core_id)
{
    CoreProbe *p = probeFor(core_id);
    if (p == nullptr)
        return;
    bool sampling = cfg_.counterStride > 0 && trace_ != nullptr;
    bool tax = cfg_.tax && metrics_ != nullptr;
    switch (stage) {
      case IntrStage::Raise:
        if (tax) {
            OpenSpan s;
            s.phase = Phase::Pend;
            s.source = source;
            s.vector = vector;
            p->open.emplace(span_id, s);
            ++p->liveSpans;
        }
        if (sampling) {
            // Burst: sample at the end of this very cycle and every
            // cycle until `burstWindow` past the last Deliver. The
            // detail demand keeps a fast-forwarding core in full
            // detail at least as long as the burst could run.
            ++p->pendingRaises;
            p->nextSampleAt = cycle;
            p->wantDetailUntil = std::max(
                p->wantDetailUntil, cycle + cfg_.burstWindow);
        }
        break;
      case IntrStage::Accept:
        if (tax) {
            auto it = p->open.find(span_id);
            if (it != p->open.end())
                it->second.phase = Phase::InjectWait;
        }
        break;
      case IntrStage::Inject:
      case IntrStage::Reinject:
        if (tax) {
            auto it = p->open.find(span_id);
            if (it != p->open.end())
                it->second.phase = Phase::Ucode;
        }
        break;
      case IntrStage::Deliver:
        if (tax) {
            auto it = p->open.find(span_id);
            if (it != p->open.end())
                it->second.phase = Phase::Handler;
        }
        if (sampling) {
            if (p->pendingRaises > 0)
                --p->pendingRaises;
            p->burstUntil = std::max(p->burstUntil,
                                     cycle + cfg_.burstWindow);
            // Sampled-detail runs must not fast-forward through the
            // burst tail: full fidelity through the window.
            p->wantDetailUntil =
                std::max(p->wantDetailUntil, p->burstUntil);
        }
        break;
      case IntrStage::PreemptSave:
        // Preempting delivery: the frame spill is microcode on the
        // nested span's critical path — bucket it with ucode.
        if (tax) {
            auto it = p->open.find(span_id);
            if (it != p->open.end())
                it->second.phase = Phase::Ucode;
        }
        break;
      case IntrStage::Return:
      case IntrStage::PreemptResume:
        // Tax rolls up at the first of Return / PreemptResume (the
        // map erase makes the second a no-op): a preempting span's
        // restore tail is not tax-attributed, which keeps the
        // telescoping guarantee for the default (no-preemption)
        // configuration untouched.
        if (tax) {
            auto it = p->open.find(span_id);
            if (it != p->open.end()) {
                rollup(*p, it->second);
                p->open.erase(it);
                --p->liveSpans;
            }
        }
        break;
      case IntrStage::Drop:
      case IntrStage::Abandon:
        break;  // DES-tier stages; a core never emits them
    }
}

void
PipelinePressureProfiler::CoreProbe::onCycle(const OooCore &core,
                                             bool sampled,
                                             bool live)
{
    PipelinePressureProfiler &prof = *owner;
    if (live) {
        // Attribute this cycle to every open span, by phase. Each
        // cycle of a span's life lands in exactly one bucket, so
        // the buckets telescope to the span's end-to-end cycles.
        bool stalled = core.frontendStalled();
        for (auto &[id, s] : open) {
            switch (s.phase) {
              case Phase::Pend:
                ++s.tax.shadow;
                break;
              case Phase::InjectWait:
                ++s.tax.flush;
                break;
              case Phase::Ucode:
                if (stalled)
                    ++s.tax.refill;
                else
                    ++s.tax.ucode;
                break;
              case Phase::Handler:
                ++s.tax.handler;
                break;
            }
        }
    }
    if (sampled) {
        if (prof.cfg_.counterStride > 0 && prof.trace_ != nullptr) {
            prof.sample(*this, core);
            nextSampleAt = core.now() +
                           (prof.inBurst(*this, core.now())
                                ? 1
                                : prof.cfg_.counterStride);
        } else {
            nextSampleAt = kNeverSample;
        }
    }
}

void
PipelinePressureProfiler::sample(CoreProbe &p, const OooCore &core)
{
    Cycles now = core.now();
    const CoreStats &s = core.stats();

    std::string occ = "{\"rob\": " +
        std::to_string(core.robOccupancy()) + ", \"iq\": " +
        std::to_string(core.iqOccupancy()) + ", \"lq\": " +
        std::to_string(core.lqOccupancy()) + ", \"sq\": " +
        std::to_string(core.sqOccupancy()) + ", \"fetchbuf\": " +
        std::to_string(core.fetchBufferDepth()) + "}";
    trace_->counter(p.occTrack, now, kTracePidUarch, p.coreId, occ);

    // Per-cycle rates over the sampling interval. With tick
    // skipping the interval includes skipped (idle) cycles, so
    // rates read as utilization of simulated wall time.
    Cycles dt = now > p.prevCycle ? now - p.prevCycle : 1;
    double inv = 1.0 / static_cast<double>(dt);
    double fetch =
        static_cast<double>(s.fetchedUops - p.prevFetched) * inv;
    double issue =
        static_cast<double>(s.issuedUops - p.prevIssued) * inv;
    double retire =
        static_cast<double>(s.committedUops - p.prevRetired) * inv;
    double ipc =
        static_cast<double>(s.committedInsts - p.prevInsts) * inv;
    std::string rate = "{\"fetch\": " + jsonNumber(fetch) +
        ", \"issue\": " + jsonNumber(issue) + ", \"retire\": " +
        jsonNumber(retire) + ", \"ipc\": " + jsonNumber(ipc) + "}";
    trace_->counter(p.rateTrack, now, kTracePidUarch, p.coreId,
                    rate);

    // MPKI over the interval (0 when nothing committed).
    std::uint64_t d_insts = s.committedInsts - p.prevInsts;
    auto mpki = [d_insts](std::uint64_t d_miss) {
        if (d_insts == 0)
            return 0.0;
        return static_cast<double>(d_miss) * 1000.0 /
               static_cast<double>(d_insts);
    };
    std::uint64_t l1 = core.mem().l1().misses();
    std::uint64_t l2 = core.mem().l2().misses();
    std::uint64_t llc = core.mem().llc().misses();
    std::string mem = "{\"l1_mpki\": " +
        jsonNumber(mpki(l1 - p.prevL1Miss)) + ", \"l2_mpki\": " +
        jsonNumber(mpki(l2 - p.prevL2Miss)) + ", \"llc_mpki\": " +
        jsonNumber(mpki(llc - p.prevLlcMiss)) +
        ", \"mispredicts\": " +
        std::to_string(s.branchMispredicts - p.prevMispred) + "}";
    trace_->counter(p.memTrack, now, kTracePidUarch, p.coreId, mem);

    p.prevCycle = now;
    p.prevFetched = s.fetchedUops;
    p.prevIssued = s.issuedUops;
    p.prevRetired = s.committedUops;
    p.prevInsts = s.committedInsts;
    p.prevL1Miss = l1;
    p.prevL2Miss = l2;
    p.prevLlcMiss = llc;
    p.prevMispred = s.branchMispredicts;
    ++p.samples;
    if (inBurst(p, now))
        ++p.burstSamples;
}

PipelinePressureProfiler::TaxIds &
PipelinePressureProfiler::taxIds(const std::string &stream)
{
    auto it = taxIds_.find(stream);
    if (it != taxIds_.end())
        return it->second;
    TaxIds ids;
    ids.flush = metrics_->internCounter(stream + ".flush");
    ids.refill = metrics_->internCounter(stream + ".refill");
    ids.ucode = metrics_->internCounter(stream + ".ucode");
    ids.handler = metrics_->internCounter(stream + ".handler");
    ids.shadow = metrics_->internCounter(stream + ".shadow");
    ids.spans = metrics_->internCounter(stream + ".spans");
    return taxIds_.emplace(stream, ids).first->second;
}

void
PipelinePressureProfiler::rollup(CoreProbe &p, const OpenSpan &span)
{
    std::string base = "core" + std::to_string(p.coreId) + ".tax.";
    const TaxCounts &t = span.tax;
    for (const std::string &stream :
         {base + "src." + intrSourceName(span.source),
          base + "vec" + std::to_string(span.vector)}) {
        TaxIds &ids = taxIds(stream);
        metrics_->counterAt(ids.flush).inc(t.flush);
        metrics_->counterAt(ids.refill).inc(t.refill);
        metrics_->counterAt(ids.ucode).inc(t.ucode);
        metrics_->counterAt(ids.handler).inc(t.handler);
        metrics_->counterAt(ids.shadow).inc(t.shadow);
        metrics_->counterAt(ids.spans).inc();
    }
}

std::uint64_t
PipelinePressureProfiler::samplesEmitted() const
{
    std::uint64_t n = 0;
    for (const auto &p : probes_)
        n += p->samples;
    return n;
}

std::uint64_t
PipelinePressureProfiler::burstSamples() const
{
    std::uint64_t n = 0;
    for (const auto &p : probes_)
        n += p->burstSamples;
    return n;
}

void
PipelinePressureProfiler::publish(MetricsRegistry &registry) const
{
    registry.counter("obs.sampler.samples").inc(samplesEmitted());
    registry.counter("obs.sampler.burst_samples")
        .inc(burstSamples());
}

} // namespace xui
