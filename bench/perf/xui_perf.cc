/**
 * @file
 * xui_perf: same-host, repeated, layer-attributed simulator benchmark.
 *
 * One invocation runs one workload closed-loop for `--seconds` of
 * timed work and prints every metric by name with its unit; the last
 * stdout line is one JSON object {correct, attempted, failed,
 * metrics}. Without `--trace` the metrics are the end-to-end set;
 * with `--trace FILE` every other op is traced (spans around the
 * calls into each simulator layer, kept in memory and written as
 * Chrome-trace JSON at exit) and the metrics are the per-layer set,
 * computed from those spans.
 *
 * Ops are grouped into episodes: an episode starts from freshly
 * built simulators (timed as set-up) and op k of every episode has
 * the inputs of op k of the first one, so every repeated op must
 * reproduce the first episode's output digest bit for bit. The first
 * episode's outputs form the workload's fingerprint, pinned per seed
 * in expected.txt. See README.md for the workloads and metrics.
 */

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.hh"
#include "ckpt/build_info.hh"
#include "ckpt/codec.hh"
#include "des/simulation.hh"
#include "exec/sweep.hh"
#include "fault/chaos.hh"
#include "kv/server.hh"
#include "net/l3fwd.hh"
#include "obs/metrics.hh"
#include "obs/span.hh"
#include "os/cost_model.hh"
#include "os/kernel.hh"
#include "stats/digest.hh"
#include "uarch/cosim.hh"
#include "uarch/uarch_system.hh"
#include "verify/roundtrip.hh"
#include "verify/scenario_run.hh"
#include "workloads/kernels.hh"

using namespace xui;

namespace
{

// ----------------------------------------------------------------------
// Clock, statistics, small helpers
// ----------------------------------------------------------------------

using Clock = std::chrono::steady_clock;
const Clock::time_point kOrigin = Clock::now();

/** Seconds since process start (steady clock). */
double
now()
{
    return std::chrono::duration<double>(Clock::now() - kOrigin)
        .count();
}

/** Linear-interpolated percentile (p in [0, 100]); 0 when empty. */
double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = p / 100.0 * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double
median(const std::vector<double> &v)
{
    return percentile(v, 50.0);
}

/** splitmix64 of (a, b): derives independent per-op seeds. */
std::uint64_t
mix(std::uint64_t a, std::uint64_t b)
{
    std::uint64_t z = a * 0x9e3779b97f4a7c15ull + b + 0x632be59bd9b4e019ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

std::string
hex(std::uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof buf, "0x%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

/** A JSON number with all its digits (non-finite values print 0). */
std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        v = 0.0;
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.10g", v);
    return buf;
}

// ----------------------------------------------------------------------
// Spans
// ----------------------------------------------------------------------

/** Small stable id of the calling thread (Chrome-trace tid). */
unsigned
threadTag()
{
    static std::atomic<unsigned> next{0};
    thread_local const unsigned tag = next++;
    return tag;
}

/** One timed call into a layer, with the work it did as args. */
struct Span
{
    const char *name = "";
    std::uint64_t id = 0;
    /** The span that caused this one (0 = none). */
    std::uint64_t parent = 0;
    double t0 = 0.0;
    double t1 = 0.0;
    unsigned tid = 0;
    std::vector<std::pair<const char *, double>> args;

    double dur() const { return t1 - t0; }

    Span &arg(const char *key, double v)
    {
        args.emplace_back(key, v);
        return *this;
    }
};

/**
 * In-memory span log. Disabled, begin() returns 0 and end() records
 * nothing, so untraced ops pay two branches per call site. One log
 * per thread: sweep jobs fill their own and the reducer absorbs them.
 */
class SpanLog
{
  public:
    void setEnabled(bool on) { enabled_ = on; }
    bool enabled() const { return enabled_; }

    /** Reserve the id of a span about to start (0 when disabled). */
    std::uint64_t begin() { return enabled_ ? nextId_++ : 0; }

    /** Close span `id` started at `t0`; nullptr when disabled. */
    Span *end(std::uint64_t id, const char *name, std::uint64_t parent,
              double t0)
    {
        if (!enabled_)
            return nullptr;
        Span s;
        s.name = name;
        s.id = id;
        s.parent = parent;
        s.t0 = t0;
        s.t1 = now();
        s.tid = threadTag();
        spans_.push_back(std::move(s));
        return &spans_.back();
    }

    /** Time `fn` as one span; returns it for args (nullptr if off). */
    template <typename F>
    Span *timed(const char *name, std::uint64_t parent, F &&fn)
    {
        if (!enabled_) {
            fn();
            return nullptr;
        }
        const std::uint64_t id = begin();
        const double t0 = now();
        fn();
        return end(id, name, parent, t0);
    }

    /** Take over `child`'s spans; its root spans get `parent`. */
    void absorb(SpanLog &&child, std::uint64_t parent)
    {
        const std::uint64_t base = nextId_ - 1;
        for (Span &s : child.spans_) {
            s.id += base;
            s.parent = s.parent == 0 ? parent : s.parent + base;
            spans_.push_back(std::move(s));
        }
        nextId_ += child.nextId_ - 1;
        child.spans_.clear();
    }

    const std::vector<Span> &spans() const { return spans_; }

  private:
    bool enabled_ = false;
    std::uint64_t nextId_ = 1;
    std::vector<Span> spans_;
};

/** Summed durations and args of the spans with the given names. */
struct SpanTotal
{
    double seconds = 0.0;
    std::map<std::string, double> args;

    double arg(const char *key) const
    {
        auto it = args.find(key);
        return it == args.end() ? 0.0 : it->second;
    }
};

SpanTotal
total(const std::vector<Span> &spans,
      std::initializer_list<const char *> names)
{
    SpanTotal t;
    for (const Span &s : spans) {
        bool match = false;
        for (const char *n : names)
            match = match || std::strcmp(s.name, n) == 0;
        if (!match)
            continue;
        t.seconds += s.dur();
        for (const auto &a : s.args)
            t.args[a.first] += a.second;
    }
    return t;
}

/** work / seconds / scale; 0 when nothing was timed. */
double
rate(double work, double seconds, double scale)
{
    return seconds > 0.0 ? work / seconds / scale : 0.0;
}

double
pct(double part, double whole)
{
    return whole > 0.0 ? part / whole * 100.0 : 0.0;
}

// ----------------------------------------------------------------------
// Workload interface and shared output checks
// ----------------------------------------------------------------------

/** Ordered (field, value) list: the pinned fingerprint. */
using Fields = std::vector<std::pair<std::string, std::string>>;
/** Named per-layer values (counts, ratios) a workload reports. */
using Counts = std::map<std::string, double>;

/** What one op did. */
struct OpResult
{
    /** Simulated cycles advanced, summed over cores / DES clocks. */
    double simCycles = 0.0;
    /** Per-job host ms of a sweep op (empty: the op is one job). */
    std::vector<double> jobMs;
    /** Digest of the op's simulated output (repeat oracle). */
    std::uint64_t digest = 0;
    /** First invariant violation ("" = none). */
    std::string violation;
};

class Workload
{
  public:
    virtual ~Workload() = default;

    /** Ops per episode. */
    virtual std::size_t episodeOps() const = 0;

    /**
     * Build what op `k` of the episode needs before it runs. Timed
     * as set-up. @return false when op `k` needs nothing new.
     */
    virtual bool prepare(std::size_t k, SpanLog &log,
                         std::uint64_t parent) = 0;

    /** Run op `k` of the current episode. */
    virtual OpResult op(std::size_t k, SpanLog &log,
                        std::uint64_t parent) = 0;

    /** After the first episode: its fingerprint and layer counts. */
    virtual void fingerprint(Fields &out) const = 0;
    virtual void layerCounts(Counts &out) const = 0;

    /** Extra traced-run measurements (after the op loop). */
    virtual void traceExtras(const std::vector<Span> &, Counts &) {}

    /** Worker threads the workload uses. */
    virtual unsigned threads() const { return 1; }
};

/** Simulated per-core counters, summed over cores or jobs. */
struct UarchCounts
{
    double cycles = 0, committed = 0, fetched = 0, squashed = 0;
    double delivered = 0, reinjections = 0;
    double l1Hits = 0, l1Misses = 0, l2Hits = 0, l2Misses = 0;
    double ffCycles = 0, ffEntries = 0;

    void add(const OooCore &c)
    {
        const CoreStats &s = c.stats();
        cycles += static_cast<double>(c.now());
        committed += static_cast<double>(s.committedUops);
        fetched += static_cast<double>(s.fetchedUops);
        squashed += static_cast<double>(s.squashedUops);
        delivered += static_cast<double>(s.interruptsDelivered);
        reinjections += static_cast<double>(s.reinjections);
        l1Hits += static_cast<double>(c.mem().l1().hits());
        l1Misses += static_cast<double>(c.mem().l1().misses());
        l2Hits += static_cast<double>(c.mem().l2().hits());
        l2Misses += static_cast<double>(c.mem().l2().misses());
        ffCycles += static_cast<double>(s.ffCycles);
        ffEntries += static_cast<double>(s.ffEntries);
    }

    void add(const UarchCounts &o)
    {
        cycles += o.cycles;
        committed += o.committed;
        fetched += o.fetched;
        squashed += o.squashed;
        delivered += o.delivered;
        reinjections += o.reinjections;
        l1Hits += o.l1Hits;
        l1Misses += o.l1Misses;
        l2Hits += o.l2Hits;
        l2Misses += o.l2Misses;
        ffCycles += o.ffCycles;
        ffEntries += o.ffEntries;
    }

    static double ratio(double a, double b) { return b > 0 ? a / b : 0; }

    void put(Counts &out) const
    {
        out["uarch.cycles"] = cycles;
        out["uarch.committed_uops"] = committed;
        out["uarch.squashed_uops"] = squashed;
        out["uarch.useful_uop_ratio"] = ratio(committed, fetched);
        out["uarch.intr_delivered"] = delivered;
        out["uarch.reinjections"] = reinjections;
        out["uarch.l1d_miss_ratio"] = ratio(l1Misses, l1Hits + l1Misses);
        out["uarch.l2_miss_ratio"] = ratio(l2Misses, l2Hits + l2Misses);
        out["uarch.ff.cycle_fraction"] = ratio(ffCycles, cycles);
        out["uarch.ff.entries"] = ffEntries;
    }
};

/**
 * Incremental checker of one core's closed interrupt records, with
 * the timeline rules of verify/scenario.cc: accept >= raise, inject
 * >= accept, delivery commit >= first handler commit, uiret after
 * delivery, records in uiret order, and delivered <= raised.
 */
struct CoreWatch
{
    std::size_t seen = 0;
    Cycles prevUiret = 0;
    /** Every closed record so far, in order. */
    Fnv1a records;

    std::string scan(const OooCore &core)
    {
        const CoreStats &s = core.stats();
        if (s.interruptsDelivered > s.interruptsRaised)
            return "core " + std::to_string(core.id()) + ": delivered " +
                   std::to_string(s.interruptsDelivered) + " > raised " +
                   std::to_string(s.interruptsRaised);
        for (; seen < s.intrRecords.size(); ++seen) {
            const IntrRecord &r = s.intrRecords[seen];
            const bool ordered = r.preempting || s.preemptions > 0 ||
                                 r.injectedAt >= prevUiret;
            if (!(r.acceptedAt >= r.raisedAt &&
                  r.injectedAt >= r.acceptedAt &&
                  r.deliveryCommitAt >= r.firstUopCommitAt &&
                  r.uiretCommitAt > r.deliveryCommitAt && ordered))
                return "core " + std::to_string(core.id()) + " record " +
                       std::to_string(seen) + ": timeline not monotonic";
            prevUiret = r.uiretCommitAt;
            for (Cycles c : {r.raisedAt, r.acceptedAt, r.injectedAt,
                             r.firstUopCommitAt, r.deliveryExecAt,
                             r.deliveryCommitAt, r.uiretCommitAt})
                records.update(c);
            records.update((static_cast<std::uint64_t>(r.source) << 8) |
                           r.vector);
        }
        return "";
    }
};

/** Fold a core's run-visible counters into `h`. */
void
foldCore(Fnv1a &h, const OooCore &c, const CoreWatch &w)
{
    const CoreStats &s = c.stats();
    for (std::uint64_t v :
         {c.now(), s.committedInsts, s.committedUops, s.fetchedUops,
          s.squashedUops, s.branchMispredicts, s.interruptsRaised,
          s.interruptsDelivered, s.reinjections, s.ffCycles,
          static_cast<std::uint64_t>(s.sendRecords.size()),
          c.mem().l1().misses(), c.mem().l2().misses(),
          w.records.value()})
        h.update(v);
}

void
coreFields(Fields &out, const std::string &prefix, const OooCore &c,
           const CoreWatch &w)
{
    const CoreStats &s = c.stats();
    const std::pair<const char *, std::uint64_t> kv[] = {
        {"cycles", c.now()},
        {"committed_insts", s.committedInsts},
        {"committed_uops", s.committedUops},
        {"fetched_uops", s.fetchedUops},
        {"squashed_uops", s.squashedUops},
        {"branch_mispredicts", s.branchMispredicts},
        {"intr_raised", s.interruptsRaised},
        {"intr_delivered", s.interruptsDelivered},
        {"reinjections", s.reinjections},
        {"senduipi", s.sendRecords.size()},
        {"ff_cycles", s.ffCycles},
        {"l1d_misses", c.mem().l1().misses()},
        {"l2_misses", c.mem().l2().misses()},
    };
    for (const auto &[k, v] : kv)
        out.emplace_back(prefix + k, std::to_string(v));
    out.emplace_back(prefix + "records", hex(w.records.value()));
}

/** Span args of one call that advanced `cores` (deltas vs before). */
struct CoreDelta
{
    std::vector<const OooCore *> cores;
    double cycles = 0, uops = 0, ff = 0;

    explicit CoreDelta(std::vector<const OooCore *> cs)
        : cores(std::move(cs))
    {
        for (const OooCore *c : cores) {
            cycles -= static_cast<double>(c->now());
            uops -= static_cast<double>(c->stats().committedUops);
            ff -= static_cast<double>(c->stats().ffCycles);
        }
    }

    /** Close the delta and attach it to `span` (when traced). */
    double finish(Span *span)
    {
        for (const OooCore *c : cores) {
            cycles += static_cast<double>(c->now());
            uops += static_cast<double>(c->stats().committedUops);
            ff += static_cast<double>(c->stats().ffCycles);
        }
        if (span)
            span->arg("cycles", cycles).arg("uops", uops).arg("ff_cycles",
                                                               ff);
        return cycles;
    }
};

// ----------------------------------------------------------------------
// uarch_detail: one 4-core full-detail UarchSystem
// ----------------------------------------------------------------------

/**
 * Pointer chase over 4 MiB (> 2 MiB L2, < LLC) under Flush; fib under
 * Tracked receiving senduipi from a sender-loop core; base64 under
 * Drain. Every receiver runs a periodic 5 us KB timer. No DES, no
 * fast-forward: host time goes to the pipeline stages, caches,
 * branch predictor and interrupt unit.
 */
class UarchDetail : public Workload
{
  public:
    explicit UarchDetail(std::uint64_t seed)
        : seed_(seed), chase_(makePointerChase(16, 4ull << 20, false)),
          fib_(makeFib()), base64_(makeBase64())
    {
    }

    std::size_t episodeOps() const override { return 50; }

    bool prepare(std::size_t k, SpanLog &, std::uint64_t) override
    {
        if (k != 0)
            return false;
        sys_.reset();
        sys_ = std::make_unique<UarchSystem>(mix(seed_, 1));
        CoreParams p;
        p.strategy = DeliveryStrategy::Flush;
        OooCore &chase = sys_->addCore(p, &chase_);
        p.strategy = DeliveryStrategy::Tracked;
        OooCore &fib = sys_->addCore(p, &fib_);
        sender_ = makeSenderLoop(
            static_cast<unsigned>(sys_->registerRoute(fib, 0x22)));
        p.strategy = DeliveryStrategy::Flush;
        sys_->addCore(p, &sender_);
        p.strategy = DeliveryStrategy::Drain;
        OooCore &b64 = sys_->addCore(p, &base64_);
        for (OooCore *c : {&chase, &fib, &b64}) {
            c->kbTimer().configure(true, 0x21);
            c->kbTimer().setTimer(0, usToCycles(5), KbTimerMode::Periodic);
        }
        watch_.assign(sys_->numCores(), CoreWatch{});
        return true;
    }

    OpResult op(std::size_t, SpanLog &log, std::uint64_t parent) override
    {
        std::vector<const OooCore *> cores;
        for (std::size_t i = 0; i < sys_->numCores(); ++i)
            cores.push_back(&sys_->core(i));
        CoreDelta d(cores);
        Span *s = log.timed("UarchSystem::run", parent,
                            [&] { sys_->run(kCyclesPerOp); });
        OpResult r;
        r.simCycles = d.finish(s);
        Fnv1a h;
        for (std::size_t i = 0; i < sys_->numCores(); ++i) {
            std::string v = watch_[i].scan(sys_->core(i));
            if (r.violation.empty())
                r.violation = v;
            foldCore(h, sys_->core(i), watch_[i]);
        }
        r.digest = h.value();
        return r;
    }

    void fingerprint(Fields &out) const override
    {
        for (std::size_t i = 0; i < sys_->numCores(); ++i)
            coreFields(out, "core" + std::to_string(i) + ".",
                       sys_->core(i), watch_[i]);
    }

    void layerCounts(Counts &out) const override
    {
        UarchCounts u;
        for (std::size_t i = 0; i < sys_->numCores(); ++i)
            u.add(sys_->core(i));
        u.put(out);
    }

  private:
    static constexpr Cycles kCyclesPerOp = 40000;

    std::uint64_t seed_;
    Program chase_, fib_, base64_, sender_;
    std::unique_ptr<UarchSystem> sys_;
    std::vector<CoreWatch> watch_;
};

// ----------------------------------------------------------------------
// uarch_sampled: fast-forward co-sim + timer core
// ----------------------------------------------------------------------

/**
 * One round = 2M cycles of the l3fwd co-sim shape (base64, Tracked,
 * DES arrivals every 48-80k cycles over a 600-cycle wire) and 2M
 * cycles of timer_core (fib, 20 us KB timer), both fast-forwarding:
 * ~98% of cycles are functional, the rest short detail bursts.
 */
class UarchSampled : public Workload
{
  public:
    explicit UarchSampled(std::uint64_t seed)
        : seed_(seed), base64_(makeBase64()), fib_(makeFib())
    {
    }

    std::size_t episodeOps() const override { return 40; }

    bool prepare(std::size_t k, SpanLog &, std::uint64_t) override
    {
        if (k != 0)
            return false;
        shapes_.reset();
        shapes_ = std::make_unique<Shapes>(*this, true);
        watch_.assign(2, CoreWatch{});
        return true;
    }

    OpResult op(std::size_t k, SpanLog &log, std::uint64_t parent) override
    {
        Shapes &sh = *shapes_;
        OooCore &fwd = sh.cosim.core(0);
        OooCore &tc = sh.timer.core(0);
        OpResult r;
        CoreDelta d1({&fwd});
        const std::uint64_t fired0 = sh.sim.queue().firedCount();
        Span *s1 = log.timed("runCoSim", parent, [&] {
            runCoSim(sh.sim, sh.cosim, (k + 1) * kCyclesPerPart);
        });
        r.simCycles += d1.finish(s1);
        if (s1)
            s1->arg("events", static_cast<double>(sh.sim.queue().firedCount() -
                                                  fired0));
        CoreDelta d2({&tc});
        Span *s2 = log.timed("UarchSystem::run", parent,
                             [&] { sh.timer.run(kCyclesPerPart); });
        r.simCycles += d2.finish(s2);

        Fnv1a h;
        const OooCore *cores[] = {&fwd, &tc};
        for (std::size_t i = 0; i < 2; ++i) {
            std::string v = watch_[i].scan(*cores[i]);
            if (r.violation.empty())
                r.violation = v;
            if (r.violation.empty() &&
                cores[i]->stats().ffCycles > cores[i]->now())
                r.violation = "ff cycles exceed cycles";
            foldCore(h, *cores[i], watch_[i]);
        }
        h.update(sh.sim.queue().firedCount());
        r.digest = h.value();
        return r;
    }

    void fingerprint(Fields &out) const override
    {
        coreFields(out, "l3fwd.", shapes_->cosim.core(0), watch_[0]);
        out.emplace_back("l3fwd.des_events",
                         std::to_string(shapes_->sim.queue().firedCount()));
        coreFields(out, "timer_core.", shapes_->timer.core(0), watch_[1]);
    }

    void layerCounts(Counts &out) const override
    {
        UarchCounts u;
        u.add(shapes_->cosim.core(0));
        u.add(shapes_->timer.core(0));
        u.put(out);
        out["des.events_fired"] =
            static_cast<double>(shapes_->sim.queue().firedCount());
        out["des.pool_slots_peak"] =
            static_cast<double>(shapes_->sim.queue().poolSize());
    }

    /**
     * Detail/FF split of the traced calls' host time. Every call has
     * nearly the same detail/FF mix, so a regression over calls is
     * ill-conditioned; instead each shape's detail cost per cycle is
     * measured on its own program and core with fastForward off, and
     * charged for the detail cycles the sampled calls ran. The rest
     * of the calls' time is the FF loop's.
     */
    void traceExtras(const std::vector<Span> &spans, Counts &out) override
    {
        Shapes detail(*this, false);
        double t0 = now();
        runCoSim(detail.sim, detail.cosim, kCalibCycles);
        const double cosimNs = (now() - t0) * 1e9 / kCalibCycles;
        t0 = now();
        detail.timer.run(kCalibCycles);
        const double timerNs = (now() - t0) * 1e9 / kCalibCycles;

        const SpanTotal cosim = total(spans, {"runCoSim"});
        const SpanTotal timer = total(spans, {"UarchSystem::run"});
        const double cosimDetail =
            cosim.arg("cycles") - cosim.arg("ff_cycles");
        const double timerDetail =
            timer.arg("cycles") - timer.arg("ff_cycles");
        const double detailS =
            (cosimDetail * cosimNs + timerDetail * timerNs) * 1e-9;
        const double hostS = cosim.seconds + timer.seconds;
        out["uarch.detail.host_mcycles_per_s"] =
            rate(cosimDetail + timerDetail, detailS, 1e6);
        out["uarch.detail.host_pct"] = pct(detailS, hostS);
        out["uarch.ff.host_mcycles_per_s"] =
            rate(cosim.arg("ff_cycles") + timer.arg("ff_cycles"),
                 hostS - detailS, 1e6);
    }

  private:
    static constexpr Cycles kCyclesPerPart = 2'000'000;
    static constexpr Cycles kCalibCycles = 200'000;

    /** Both simulated systems of the workload. */
    struct Shapes
    {
        UarchSystem cosim;
        Simulation sim;
        Rng arrivals;
        std::function<void()> arm;
        UarchSystem timer;

        Shapes(const UarchSampled &w, bool ff)
            : cosim(mix(w.seed_, 2)), sim(mix(w.seed_, 3)),
              arrivals(sim.makeRng()), timer(mix(w.seed_, 4))
        {
            CoreParams p;
            p.strategy = DeliveryStrategy::Tracked;
            p.fastForward = ff;
            OooCore &fwd = cosim.addCore(p, &w.base64_);
            arm = [this, &fwd] {
                sim.queue().scheduleAfter(
                    48000 + arrivals.nextBounded(32000), [this, &fwd] {
                        fwd.receiveIpi(fwd.uinv(), sim.now() + 600);
                        arm();
                    });
            };
            arm();
            OooCore &t = timer.addCore(p, &w.fib_);
            t.kbTimer().configure(true, 0x21);
            t.kbTimer().setTimer(0, usToCycles(20), KbTimerMode::Periodic);
        }
    };

    std::uint64_t seed_;
    Program base64_, fib_;
    std::unique_ptr<Shapes> shapes_;
    std::vector<CoreWatch> watch_;
};

// ----------------------------------------------------------------------
// des_apps: event queue, os, runtime/kv and net, no cycle tier
// ----------------------------------------------------------------------

/**
 * Re-arms a rarely-firing timeout every 50-150 cycles, cancelling the
 * previous one: the schedule/cancel churn of timeout-driven servers.
 */
struct Watchdog
{
    EventQueue &q;
    Rng rng;
    EventId timeout = kInvalidEventId;
    std::uint64_t rearms = 0;
    std::uint64_t cancels = 0;

    Watchdog(EventQueue &queue, std::uint64_t seed) : q(queue), rng(seed) {}

    void arm()
    {
        if (timeout != kInvalidEventId && q.cancel(timeout))
            ++cancels;
        timeout = q.scheduleAfter(500 + rng.nextBounded(1000), [] {});
        q.scheduleAfter(50 + rng.nextBounded(100), [this] {
            ++rearms;
            arm();
        });
    }
};

/**
 * One round = (a) 1 ms of 8 watchdogs (the event queue alone),
 * (b) 1 ms of an 8-core Kernel with 2-9 us interval timers, (c) a
 * Fig. 7 KV point (xUI KB-timer preemption, 0.8x saturation, 20 ms),
 * (d) a Fig. 8 l3fwd point (XuiForwarded, 4 NICs, 0.7 load, 5 ms).
 * Set-up builds (a), (b) and (d), including the l3fwd LPM table;
 * runKvServer builds its server inside the call.
 */
class DesApps : public Workload
{
  public:
    explicit DesApps(std::uint64_t seed) : seed_(seed) {}

    std::size_t episodeOps() const override { return 32; }

    bool prepare(std::size_t k, SpanLog &log, std::uint64_t parent) override
    {
        const std::uint64_t s = mix(seed_, 100 + k);
        if (k == 0)
            episode_ = Episode{};

        churnSim_.reset();
        dogs_.clear();
        churnSim_ = std::make_unique<Simulation>(mix(s, 1));
        for (unsigned i = 0; i < 8; ++i) {
            dogs_.push_back(std::make_unique<Watchdog>(churnSim_->queue(),
                                                       mix(s, 10 + i)));
            dogs_.back()->arm();
        }

        kernel_.reset();
        kernSim_.reset();
        kernSim_ = std::make_unique<Simulation>(mix(s, 2));
        kernel_ = std::make_unique<Kernel>(*kernSim_, CostModel{}, 8);
        for (unsigned c = 0; c < 8; ++c) {
            ThreadId t = kernel_->createThread();
            kernel_->registerHandler(t, [](unsigned) {});
            kernel_->scheduleOn(t, c);
            kernel_->setInterval(t, usToCycles(2 + c));
        }

        kv_ = KvServerConfig{};
        kv_.mode = PreemptMode::XuiKbTimer;
        kv_.offeredLoadRps = 0.8 * kKvSaturationRps;
        kv_.duration = 20 * kCyclesPerMs;
        kv_.seed = mix(s, 3);

        L3FwdConfig net;
        net.mode = RxMode::XuiForwarded;
        net.numNics = 4;
        net.load = 0.7;
        net.duration = 5 * kCyclesPerMs;
        net.seed = mix(s, 4);
        l3fwd_.reset();
        log.timed("L3Fwd::L3Fwd", parent,
                  [&] { l3fwd_ = std::make_unique<L3Fwd>(net); });
        return true;
    }

    OpResult op(std::size_t, SpanLog &log, std::uint64_t parent) override
    {
        OpResult r;
        Fnv1a h;
        auto fail = [&r](bool bad, const char *what) {
            if (bad && r.violation.empty())
                r.violation = what;
        };

        EventQueue &cq = churnSim_->queue();
        Span *s = log.timed("Simulation::runUntil[churn]", parent,
                            [&] { churnSim_->runUntil(kChurnCycles); });
        std::uint64_t cancels = 0;
        for (const auto &d : dogs_) {
            fail(d->rearms == 0, "watchdog never re-armed");
            cancels += d->cancels;
            h.update(d->rearms);
        }
        if (s)
            s->arg("events", static_cast<double>(cq.firedCount()));
        h.update(cq.firedCount());
        episode_.churnFired += cq.firedCount();
        episode_.cancels += cancels;
        episode_.poolPeak = std::max<std::uint64_t>(episode_.poolPeak,
                                                    cq.poolSize());

        EventQueue &kq = kernSim_->queue();
        s = log.timed("Simulation::runUntil[kernel]", parent,
                      [&] { kernSim_->runUntil(kKernelCycles); });
        if (s)
            s->arg("events", static_cast<double>(kq.firedCount()));
        fail(kernel_->signalsDelivered() == 0, "no interval signals");
        h.update(kq.firedCount());
        h.update(kernel_->signalsDelivered());
        episode_.kernelFired += kq.firedCount();
        episode_.signals += kernel_->signalsDelivered();
        episode_.poolPeak = std::max<std::uint64_t>(episode_.poolPeak,
                                                    kq.poolSize());

        KvServerResult kv;
        s = log.timed("runKvServer", parent, [&] { kv = runKvServer(kv_); });
        if (s)
            s->arg("requests", static_cast<double>(kv.completed));
        fail(kv.completed == 0 || kv.completed > kv.offered,
             "kv completed outside (0, offered]");
        for (std::uint64_t v :
             {kv.offered, kv.completed, kv.getLatency.count(),
              static_cast<std::uint64_t>(kv.getLatency.p99()),
              static_cast<std::uint64_t>(kv.scanLatency.p99())})
            h.update(v);
        episode_.kvOffered += kv.offered;
        episode_.kvCompleted += kv.completed;
        episode_.kvGetP99 += static_cast<std::uint64_t>(kv.getLatency.p99());

        L3FwdResult net;
        s = log.timed("L3Fwd::run", parent, [&] { net = l3fwd_->run(); });
        if (s)
            s->arg("packets", static_cast<double>(net.forwarded));
        fail(net.forwarded == 0 ||
                 net.forwarded + net.dropped > net.offered,
             "l3fwd forwarded+dropped outside (0, offered]");
        for (std::uint64_t v :
             {net.offered, net.forwarded, net.dropped, net.interrupts,
              static_cast<std::uint64_t>(net.latency.p99())})
            h.update(v);
        episode_.netOffered += net.offered;
        episode_.netForwarded += net.forwarded;
        episode_.netDropped += net.dropped;
        episode_.netInterrupts += net.interrupts;

        r.simCycles = static_cast<double>(kChurnCycles + kKernelCycles +
                                          kv_.duration + 5 * kCyclesPerMs);
        r.digest = h.value();
        episode_.digest.update(r.digest);
        return r;
    }

    void fingerprint(Fields &out) const override
    {
        const Episode &e = episode_;
        const std::pair<const char *, std::uint64_t> kv[] = {
            {"churn.events", e.churnFired},
            {"churn.cancels", e.cancels},
            {"kernel.events", e.kernelFired},
            {"kernel.signals", e.signals},
            {"kv.offered", e.kvOffered},
            {"kv.completed", e.kvCompleted},
            {"kv.get_p99_cycles_sum", e.kvGetP99},
            {"l3fwd.offered", e.netOffered},
            {"l3fwd.forwarded", e.netForwarded},
            {"l3fwd.dropped", e.netDropped},
            {"l3fwd.interrupts", e.netInterrupts},
        };
        for (const auto &[k, v] : kv)
            out.emplace_back(k, std::to_string(v));
        out.emplace_back("rounds.digest", hex(e.digest.value()));
    }

    void layerCounts(Counts &out) const override
    {
        const Episode &e = episode_;
        out["des.events_fired"] =
            static_cast<double>(e.churnFired + e.kernelFired);
        out["des.cancels"] = static_cast<double>(e.cancels);
        out["des.pool_slots_peak"] = static_cast<double>(e.poolPeak);
        out["os.signals_delivered"] = static_cast<double>(e.signals);
        out["kv.requests_completed"] = static_cast<double>(e.kvCompleted);
        out["net.packets_forwarded"] = static_cast<double>(e.netForwarded);
    }

  private:
    /** Nominal Fig. 7 saturation (requests/s), as in the fig7 bench. */
    static constexpr double kKvSaturationRps = 250000.0;
    static constexpr Cycles kChurnCycles = 1 * kCyclesPerMs;
    static constexpr Cycles kKernelCycles = 1 * kCyclesPerMs;

    /** First-episode totals (the fingerprint). */
    struct Episode
    {
        std::uint64_t churnFired = 0, cancels = 0, poolPeak = 0;
        std::uint64_t kernelFired = 0, signals = 0;
        std::uint64_t kvOffered = 0, kvCompleted = 0, kvGetP99 = 0;
        std::uint64_t netOffered = 0, netForwarded = 0, netDropped = 0;
        std::uint64_t netInterrupts = 0;
        Fnv1a digest;
    };

    std::uint64_t seed_;
    std::unique_ptr<Simulation> churnSim_;
    std::vector<std::unique_ptr<Watchdog>> dogs_;
    std::unique_ptr<Simulation> kernSim_;
    std::unique_ptr<Kernel> kernel_;
    KvServerConfig kv_;
    std::unique_ptr<L3Fwd> l3fwd_;
    Episode episode_;
};

// ----------------------------------------------------------------------
// verify_sweep: many short simulations through exec::sweepReduce
// ----------------------------------------------------------------------

/**
 * The cell chaos::runGrid builds for (kind, seed) with its default
 * grid options (snapshots kept in memory), so each cell is the one
 * xui_chaos runs.
 */
chaos::CellConfig
chaosCell(chaos::ScenarioKind kind, std::uint64_t seed)
{
    using chaos::ScenarioKind;
    chaos::CellConfig cc;
    cc.kind = kind;
    cc.seed = seed;
    fault::ScheduleOptions so;
    switch (kind) {
      case ScenarioKind::CoalesceDrop:
        so.dropModerationFlush = true;
        break;
      case ScenarioKind::ItrMisfire:
        so.delayModerationFlush = true;
        break;
      case ScenarioKind::PreemptStorm:
        so.dropPreemptSave = true;
        so.duplicatePreemptSave = true;
        break;
      case ScenarioKind::FfBoundary:
        so.dropNotification = so.delayNotification = false;
        so.duplicateNotification = so.reorderUpid = false;
        so.stormNotification = so.timerMisfire = false;
        so.timerDelay = so.timerSpurious = false;
        so.dropForward = so.delayForward = so.descheduleWindow = false;
        so.delayFfDetail = so.dropFfRaise = true;
        break;
      case ScenarioKind::CkptCrash:
        so.dropCkptWrite = so.tearCkptWrite = true;
        so.flipCkptWrite = so.truncateCkptWrite = true;
        so.stormDeschedule = true;
        cc.ckptEvery = 512;
        cc.crashAtEvent = 256 + chaos::cellScheduleSeed(kind, seed) % 2048;
        cc.eventBudget = std::min<std::uint64_t>(cc.eventBudget, 64000);
        break;
      default:
        break;
    }
    cc.schedule =
        fault::generateSchedule(chaos::cellScheduleSeed(kind, seed), so);
    return cc;
}

/**
 * An episode sweeps 1696 jobs at min(nproc, 4) threads: golden-corpus
 * rows (seeds x Flush/Drain/Tracked) run through ScenarioRun with an
 * IntrSpanTracker attached, in-memory checkpoint round-trips
 * (construct, advance half, save, load into a fresh run, finish), and
 * chaos jobs (one seed across every ScenarioKind). Op k is one
 * exec::sweepReduce over the jobs j with j % 4 == k, so every op has
 * the same mix. Construction, checkpoint, fault, obs and exec costs
 * dominate.
 */
class VerifySweep : public Workload
{
  public:
    explicit VerifySweep(std::uint64_t seed)
        : seed_(seed), threads_(std::min(exec::hardwareJobs(), 4u))
    {
    }

    std::size_t episodeOps() const override { return kOpsPerSweep; }
    unsigned threads() const override { return threads_; }

    bool prepare(std::size_t k, SpanLog &, std::uint64_t) override
    {
        if (k != 0)
            return false;
        episode_ = Totals{};
        static constexpr DeliveryStrategy kStrategies[] = {
            DeliveryStrategy::Flush, DeliveryStrategy::Drain,
            DeliveryStrategy::Tracked};
        const std::uint64_t rowBase = (seed_ - 1) * kGoldenSeeds;
        rows_.clear();
        for (std::uint64_t s = 1; s <= kGoldenSeeds; ++s)
            for (DeliveryStrategy st : kStrategies)
                rows_.push_back(goldenCorpusConfig(rowBase + s, st));
        // Chaos seeds stay inside 1..512, where every cell passes:
        // xui_chaos itself fails ff_boundary seeds 735 and 882
        // ("fast-forward never engaged"), and a benchmark op must not.
        cells_.clear();
        const std::uint64_t cellBase = (seed_ - 1) % 8 * kChaosJobs;
        for (std::uint64_t j = 1; j <= kChaosJobs; ++j)
            for (std::size_t k = 0; k < chaos::kNumScenarios; ++k)
                cells_.push_back(chaosCell(
                    static_cast<chaos::ScenarioKind>(k), cellBase + j));
        return true;
    }

    OpResult op(std::size_t k, SpanLog &log, std::uint64_t parent) override
    {
        const bool traced = log.enabled();
        const std::size_t jobs = kRoundTrips + kChaosJobs + rows_.size();
        const std::size_t n = (jobs - k + kOpsPerSweep - 1) / kOpsPerSweep;
        Totals t;
        OpResult r;
        exec::sweepReduce(
            n, threads_,
            [&](std::size_t i) { return runJob(k + i * kOpsPerSweep, traced); },
            [&](std::size_t i, JobOut &&o) {
                t.add(o);
                episode_.add(o);
                r.jobMs.push_back(o.ms);
                if (r.violation.empty() && !o.violation.empty())
                    r.violation = "job " +
                                  std::to_string(k + i * kOpsPerSweep) +
                                  ": " + o.violation;
                log.absorb(std::move(o.spans), parent);
            });
        r.simCycles = t.uarch.cycles;
        r.digest = t.golden.value() ^ mix(t.roundTrip.value(),
                                          t.chaos.value());
        return r;
    }

    void fingerprint(Fields &out) const override
    {
        const Totals &t = episode_;
        out.emplace_back("golden.rows", std::to_string(rows_.size()));
        out.emplace_back("golden.digest", hex(t.golden.value()));
        out.emplace_back("golden.cycles", std::to_string(t.goldenCycles));
        out.emplace_back("golden.obs_spans", std::to_string(t.obsSpans));
        out.emplace_back("roundtrip.rows", std::to_string(kRoundTrips));
        out.emplace_back("roundtrip.digest", hex(t.roundTrip.value()));
        out.emplace_back("roundtrip.snapshot_bytes",
                         std::to_string(t.snapshotBytes));
        out.emplace_back("chaos.cells", std::to_string(t.cells));
        out.emplace_back("chaos.digest", hex(t.chaos.value()));
        out.emplace_back("chaos.injected", std::to_string(t.injected));
        out.emplace_back("chaos.rollback_retries",
                         std::to_string(t.rollbackRetries));
    }

    void layerCounts(Counts &out) const override
    {
        const Totals &t = episode_;
        t.uarch.put(out);
        out["verify.jobs"] = static_cast<double>(
            kRoundTrips + kChaosJobs + rows_.size());
        out["ckpt.snapshot_bytes"] =
            static_cast<double>(t.snapshotBytes) / kRoundTrips;
        out["fault.cells"] = static_cast<double>(t.cells);
        out["fault.injected"] = static_cast<double>(t.injected);
        out["fault.rollback_retries"] =
            static_cast<double>(t.rollbackRetries);
        out["obs.spans"] = static_cast<double>(t.obsSpans);
    }

    /**
     * Tracker cost: 32 golden rows run serially with the span
     * tracker detached and attached, order alternating per row; the
     * median per-row slowdown in percent.
     */
    void traceExtras(const std::vector<Span> &, Counts &out) override
    {
        std::vector<double> pct;
        for (std::size_t i = 0; i < 32; ++i) {
            const ScenarioConfig &cfg = rows_[i * 3 + 2];
            double ms[2] = {0, 0};
            for (int pass = 0; pass < 2; ++pass) {
                const bool attached = (pass ^ static_cast<int>(i & 1)) != 0;
                MetricsRegistry reg;
                IntrSpanTracker tracker(reg);
                const double t0 = now();
                ScenarioRun run(cfg, attached ? &tracker : nullptr);
                run.runToEnd();
                ms[attached] = now() - t0;
            }
            pct.push_back((ms[1] / ms[0] - 1.0) * 100.0);
        }
        out["obs.tracker_overhead_pct"] = median(pct);
    }

  private:
    static constexpr std::uint64_t kGoldenSeeds = 512;
    static constexpr std::size_t kRoundTrips = 96;
    static constexpr std::size_t kChaosJobs = 64;
    static constexpr std::size_t kOpsPerSweep = 4;

    struct JobOut
    {
        double ms = 0.0;
        std::string violation;
        SpanLog spans;
        UarchCounts uarch;
        /** Which digest chain the job feeds (0 rt, 1 chaos, 2 golden). */
        int kind = 0;
        std::uint64_t digest = 0;
        std::uint64_t obsSpans = 0, snapshotBytes = 0;
        std::uint64_t cells = 0, injected = 0, rollbackRetries = 0;
    };

    /** Sweep totals, reduced in job order. */
    struct Totals
    {
        Fnv1a roundTrip, chaos, golden;
        UarchCounts uarch;
        std::uint64_t goldenCycles = 0, obsSpans = 0, snapshotBytes = 0;
        std::uint64_t cells = 0, injected = 0, rollbackRetries = 0;

        void add(const JobOut &o)
        {
            (o.kind == 0 ? roundTrip : o.kind == 1 ? chaos : golden)
                .update(o.digest);
            uarch.add(o.uarch);
            if (o.kind == 2)
                goldenCycles += static_cast<std::uint64_t>(o.uarch.cycles);
            obsSpans += o.obsSpans;
            snapshotBytes += o.snapshotBytes;
            cells += o.cells;
            injected += o.injected;
            rollbackRetries += o.rollbackRetries;
        }
    };

    /** Job i: round-trips first, then chaos, then golden rows. */
    JobOut runJob(std::size_t i, bool traced) const
    {
        JobOut o;
        o.spans.setEnabled(traced);
        const std::uint64_t job = o.spans.begin();
        const double t0 = now();
        if (i < kRoundTrips) {
            roundTrip(rows_[i], o, job);
        } else if (i < kRoundTrips + kChaosJobs) {
            o.kind = 1;
            chaosJob(i - kRoundTrips, o, job);
        } else {
            o.kind = 2;
            golden(rows_[i - kRoundTrips - kChaosJobs], o, job);
        }
        o.ms = (now() - t0) * 1e3;
        o.spans.end(job, "job", 0, t0);
        return o;
    }

    static void golden(const ScenarioConfig &cfg, JobOut &o,
                       std::uint64_t job)
    {
        MetricsRegistry reg;
        IntrSpanTracker tracker(reg);
        std::unique_ptr<ScenarioRun> run;
        o.spans.timed("ScenarioRun::ScenarioRun", job, [&] {
            run = std::make_unique<ScenarioRun>(cfg, &tracker);
        });
        CoreDelta d({&run->core()});
        d.finish(o.spans.timed("ScenarioRun::runToEnd", job,
                               [&] { run->runToEnd(); }));
        const ScenarioResult res = run->finish();
        o.uarch.add(run->core());
        if (!res.ok())
            o.violation = res.violations.front();
        for (const IntrSpan &s : tracker.spans())
            if (s.pend() + s.injectWait() + s.preemptSave() + s.ucode() +
                    s.handler() + s.preemptRestore() !=
                s.endToEnd())
                o.violation = "span stages do not telescope to e2e";
        o.obsSpans = tracker.spans().size();
        o.digest = mix(res.fullDigest, o.obsSpans);
    }

    static void roundTrip(const ScenarioConfig &cfg, JobOut &o,
                          std::uint64_t job)
    {
        ScenarioRun ref(cfg);
        ref.runToEnd();
        const ScenarioResult want = ref.finish();
        const Cycles split = want.cycles / 2;

        std::unique_ptr<ScenarioRun> a, b;
        o.spans.timed("ScenarioRun::ScenarioRun", job,
                      [&] { a = std::make_unique<ScenarioRun>(cfg); });
        CoreDelta da({&a->core()});
        da.finish(o.spans.timed("ScenarioRun::advance", job, [&] {
            while (!a->done() && a->now() < split)
                a->advance(split - a->now());
        }));
        ckpt::Writer w;
        o.spans.timed("ScenarioRun::saveState", job,
                      [&] { a->saveState(w); });
        const std::string bytes = w.take();
        o.snapshotBytes = bytes.size();
        a.reset();

        o.spans.timed("ScenarioRun::ScenarioRun", job,
                      [&] { b = std::make_unique<ScenarioRun>(cfg); });
        bool loaded = false;
        o.spans.timed("ScenarioRun::loadState", job, [&] {
            ckpt::Reader r(bytes);
            loaded = b->loadState(r);
        });
        if (!loaded) {
            o.violation = "snapshot did not load";
            return;
        }
        CoreDelta db({&b->core()});
        db.finish(o.spans.timed("ScenarioRun::runToEnd", job,
                                [&] { b->runToEnd(); }));
        const ScenarioResult got = b->finish();
        o.uarch.add(ref.core());
        if (got.fullDigest != want.fullDigest ||
            got.archDigest != want.archDigest ||
            got.eventCount != want.eventCount || got.cycles != want.cycles)
            o.violation = "checkpoint round-trip is not bit-identical";
        else if (!got.ok())
            o.violation = got.violations.front();
        o.digest = mix(got.fullDigest, o.snapshotBytes);
    }

    void chaosJob(std::size_t j, JobOut &o, std::uint64_t job) const
    {
        Fnv1a h;
        for (std::size_t k = 0; k < chaos::kNumScenarios; ++k) {
            const chaos::CellConfig &cc =
                cells_[j * chaos::kNumScenarios + k];
            chaos::CellResult res;
            o.spans.timed("chaos::runCell", job,
                          [&] { res = chaos::runCell(cc); });
            if (!res.passed && o.violation.empty())
                o.violation = std::string("chaos cell ") +
                              chaos::scenarioName(cc.kind) + " seed " +
                              std::to_string(cc.seed) + " failed";
            for (std::uint64_t v :
                 {res.posted, res.delivered, res.abandoned, res.injected,
                  res.handlerRuns, res.rollbackRetries,
                  static_cast<std::uint64_t>(res.passed)})
                h.update(v);
            ++o.cells;
            o.injected += res.injected;
            o.rollbackRetries += res.rollbackRetries;
        }
        o.digest = h.value();
    }

    std::uint64_t seed_;
    unsigned threads_;
    std::vector<ScenarioConfig> rows_;
    std::vector<chaos::CellConfig> cells_;
    /** First-episode totals (the fingerprint). */
    Totals episode_;
};

const char *const kWorkloads[] = {"uarch_detail", "uarch_sampled",
                                  "des_apps", "verify_sweep"};

std::unique_ptr<Workload>
makeWorkload(const std::string &name, std::uint64_t seed)
{
    if (name == "uarch_detail")
        return std::make_unique<UarchDetail>(seed);
    if (name == "uarch_sampled")
        return std::make_unique<UarchSampled>(seed);
    if (name == "des_apps")
        return std::make_unique<DesApps>(seed);
    if (name == "verify_sweep")
        return std::make_unique<VerifySweep>(seed);
    return nullptr;
}

// ----------------------------------------------------------------------
// Metric catalogue (names and units must match BENCHMARK.json)
// ----------------------------------------------------------------------

struct MetricDef
{
    const char *name;
    const char *unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"sim_mcycles_per_s", "Mcycle/s"},
    {"jobs_per_s", "1/s"},
    {"job_ms_p10", "ms"},
    {"peak_rss_mb", "MiB"},
};

constexpr MetricDef kPerLayer[] = {
    {"op_ms_p50", "ms"},
    {"op_ms_p95", "ms"},
    {"ops", "count"},
    {"bench.trace_overhead_pct", "%"},
    {"uarch.cycles", "count"},
    {"uarch.committed_uops", "count"},
    {"uarch.squashed_uops", "count"},
    {"uarch.useful_uop_ratio", "ratio"},
    {"uarch.intr_delivered", "count"},
    {"uarch.reinjections", "count"},
    {"uarch.l1d_miss_ratio", "ratio"},
    {"uarch.l2_miss_ratio", "ratio"},
    {"uarch.host_mcycles_per_s", "Mcycle/s"},
    {"uarch.host_muops_per_s", "Muop/s"},
    {"uarch.host_pct", "%"},
    {"uarch.ff.cycle_fraction", "ratio"},
    {"uarch.ff.entries", "count"},
    {"uarch.ff.host_mcycles_per_s", "Mcycle/s"},
    {"uarch.detail.host_mcycles_per_s", "Mcycle/s"},
    {"uarch.detail.host_pct", "%"},
    {"des.events_fired", "count"},
    {"des.cancels", "count"},
    {"des.pool_slots_peak", "count"},
    {"des.churn.host_mevents_per_s", "Mevent/s"},
    {"os.signals_delivered", "count"},
    {"os.timers.host_mevents_per_s", "Mevent/s"},
    {"kv.requests_completed", "count"},
    {"kv.host_kreq_per_s", "kreq/s"},
    {"net.packets_forwarded", "count"},
    {"net.host_mpkts_per_s", "Mpkt/s"},
    {"net.lpm_build_setup_pct", "%"},
    {"verify.jobs", "count"},
    {"verify.construct_pct", "%"},
    {"verify.run_pct", "%"},
    {"ckpt.save_pct", "%"},
    {"ckpt.load_pct", "%"},
    {"ckpt.snapshot_bytes", "B"},
    {"fault.cells", "count"},
    {"fault.injected", "count"},
    {"fault.rollback_retries", "count"},
    {"fault.cell_pct", "%"},
    {"obs.spans", "count"},
    {"obs.tracker_overhead_pct", "%"},
    {"exec.threads", "count"},
    {"exec.parallel_efficiency", "ratio"},
};

/** Per-layer metrics from the traced ops' spans. */
void
layerMetrics(const std::vector<Span> &spans, unsigned threads, Counts &out)
{
    // Denominator of the "% of work time" shares: summed job time in
    // a sweep, op time otherwise.
    const SpanTotal ops = total(spans, {"op"});
    SpanTotal work = total(spans, {"job"});
    if (work.seconds > 0.0)
        out["exec.parallel_efficiency"] =
            work.seconds / (ops.seconds * threads);
    else
        work = ops;

    const SpanTotal uarch = total(
        spans, {"UarchSystem::run", "runCoSim", "ScenarioRun::runToEnd",
                "ScenarioRun::advance"});
    out["uarch.host_mcycles_per_s"] =
        rate(uarch.arg("cycles"), uarch.seconds, 1e6);
    out["uarch.host_muops_per_s"] =
        rate(uarch.arg("uops"), uarch.seconds, 1e6);
    out["uarch.host_pct"] = pct(uarch.seconds, work.seconds);

    const SpanTotal churn = total(spans, {"Simulation::runUntil[churn]"});
    out["des.churn.host_mevents_per_s"] =
        rate(churn.arg("events"), churn.seconds, 1e6);
    const SpanTotal timers = total(spans, {"Simulation::runUntil[kernel]"});
    out["os.timers.host_mevents_per_s"] =
        rate(timers.arg("events"), timers.seconds, 1e6);
    const SpanTotal kv = total(spans, {"runKvServer"});
    out["kv.host_kreq_per_s"] = rate(kv.arg("requests"), kv.seconds, 1e3);
    const SpanTotal net = total(spans, {"L3Fwd::run"});
    out["net.host_mpkts_per_s"] = rate(net.arg("packets"), net.seconds, 1e6);
    out["net.lpm_build_setup_pct"] =
        pct(total(spans, {"L3Fwd::L3Fwd"}).seconds,
            total(spans, {"setup"}).seconds);

    out["verify.construct_pct"] =
        pct(total(spans, {"ScenarioRun::ScenarioRun"}).seconds,
            work.seconds);
    out["verify.run_pct"] =
        pct(total(spans, {"ScenarioRun::runToEnd", "ScenarioRun::advance"})
                .seconds,
            work.seconds);
    out["ckpt.save_pct"] =
        pct(total(spans, {"ScenarioRun::saveState"}).seconds, work.seconds);
    out["ckpt.load_pct"] =
        pct(total(spans, {"ScenarioRun::loadState"}).seconds, work.seconds);
    out["fault.cell_pct"] =
        pct(total(spans, {"chaos::runCell"}).seconds, work.seconds);
}

// ----------------------------------------------------------------------
// Command line, provenance, pins
// ----------------------------------------------------------------------

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    std::uint64_t seconds = 10;
    /** Chrome-trace output; non-empty switches to the traced run. */
    std::string trace;
    /** Full result JSON (provenance + metrics). */
    std::string result;
    /** Pinned fingerprints to check against. */
    std::string expected;
    /** Append this run's fingerprint to FILE instead of checking. */
    std::string pin;
    std::string argv;
};

[[noreturn]] void
usage(const char *prog, const std::string &error)
{
    std::fprintf(stderr, "%s: %s\n", prog, error.c_str());
    std::fprintf(stderr,
                 "usage: %s --workload NAME [--seed N] [--seconds N]\n"
                 "          [--trace FILE] [--result FILE]\n"
                 "          [--expected FILE] [--pin FILE]\n"
                 "workloads: uarch_detail uarch_sampled des_apps "
                 "verify_sweep\n",
                 prog);
    std::exit(2);
}

Options
parseOptions(int argc, char **argv)
{
    Options o;
    for (int i = 0; i < argc; ++i)
        o.argv += (i ? " " : "") + std::string(argv[i]);
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(argv[0], flag.rfind("--", 0) == 0
                               ? flag + " needs a value"
                               : "unexpected argument '" + flag + "'");
        const char *v = argv[++i];
        std::string *text = nullptr;
        if (flag == "--workload") {
            text = &o.workload;
        } else if (flag == "--trace") {
            text = &o.trace;
        } else if (flag == "--result") {
            text = &o.result;
        } else if (flag == "--expected") {
            text = &o.expected;
        } else if (flag == "--pin") {
            text = &o.pin;
        } else if (flag == "--seed") {
            if (!bench::parseU64Strict(v, o.seed) || o.seed == 0 ||
                o.seed > (1ull << 32))
                usage(argv[0], "--seed needs an integer in [1, 2^32]");
        } else if (flag == "--seconds") {
            if (!bench::parseU64Strict(v, o.seconds) || o.seconds == 0 ||
                o.seconds > 3600)
                usage(argv[0], "--seconds needs an integer in [1, 3600]");
        } else {
            usage(argv[0], "unknown flag '" + flag + "'");
        }
        if (text) {
            if (*v == '\0')
                usage(argv[0], flag + " needs a non-empty value");
            *text = v;
        }
    }
    if (o.workload.empty())
        usage(argv[0], "--workload is required");
    return o;
}

/** Host state that shows a noisy run: load and stolen CPU time. */
struct HostSample
{
    double load1 = 0.0;
    std::uint64_t stealTicks = 0;
};

HostSample
sampleHost()
{
    HostSample h;
    double load[1] = {0.0};
    if (getloadavg(load, 1) == 1)
        h.load1 = load[0];
    // /proc/stat "cpu user nice system idle iowait irq softirq steal".
    std::ifstream stat("/proc/stat");
    std::string cpu;
    std::uint64_t v[8] = {};
    if (stat >> cpu)
        for (std::uint64_t &x : v)
            stat >> x;
    h.stealTicks = v[7];
    return h;
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            return colon == std::string::npos ? line
                                              : line.substr(colon + 2);
        }
    return "unknown";
}

/**
 * Pinned fields for (workload, seed) from an expected.txt-format file
 * ("workload seed field value" lines, '#' comments).
 */
Fields
loadPins(const std::string &path, const std::string &workload,
         std::uint64_t seed)
{
    Fields out;
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream ls(line);
        std::string w, field, value;
        std::uint64_t s = 0;
        if ((ls >> w >> s >> field >> value) && w == workload && s == seed)
            out.emplace_back(field, value);
    }
    return out;
}

/** "" when equal, else the first differing field. */
std::string
comparePins(const Fields &want, const Fields &got)
{
    for (std::size_t i = 0; i < std::max(want.size(), got.size()); ++i) {
        const std::string wn = i < want.size() ? want[i].first : "<none>";
        const std::string gn = i < got.size() ? got[i].first : "<none>";
        const std::string wv = i < want.size() ? want[i].second : "-";
        const std::string gv = i < got.size() ? got[i].second : "-";
        if (wn != gn)
            return "field " + std::to_string(i) + ": expected '" + wn +
                   "', got '" + gn + "'";
        if (wv != gv)
            return wn + ": expected " + wv + ", got " + gv;
    }
    return "";
}

// ----------------------------------------------------------------------
// The run
// ----------------------------------------------------------------------

/** Set-ups timed before the first op, so every run has several. */
constexpr int kSetupReps = 5;

struct RunOutcome
{
    std::vector<double> setupS;
    /** Timed ops (the warm-up op is checked but not timed). */
    std::vector<double> opS, tracedOpS, untracedOpS, cyclesPerS, jobsPerS;
    std::vector<double> jobMs;
    std::uint64_t attempted = 0, failed = 0;
    std::string firstFailure;
    Fields fingerprint;
    Counts counts;
    SpanLog log;
};

RunOutcome
runWorkload(Workload &w, const Options &opt)
{
    RunOutcome r;
    const bool trace = !opt.trace.empty();
    for (int i = 0; i < kSetupReps; ++i) {
        const double t0 = now();
        w.prepare(0, r.log, 0);
        r.setupS.push_back(now() - t0);
    }

    const std::size_t P = w.episodeOps();
    std::vector<std::uint64_t> digests(P);
    double timedStart = 0.0;
    for (std::size_t k = 0;; ++k) {
        const std::size_t kk = k % P;
        // Trace every other timed op; the rest give the untraced
        // baseline of bench.trace_overhead_pct.
        const bool traced = trace && k % 2 == 1;
        r.log.setEnabled(traced);
        if (k > 0) {
            const std::uint64_t id = r.log.begin();
            const double t0 = now();
            if (w.prepare(kk, r.log, id)) {
                r.setupS.push_back(now() - t0);
                r.log.end(id, "setup", 0, t0);
            }
        }

        const std::uint64_t id = r.log.begin();
        const double t0 = now();
        OpResult res = w.op(kk, r.log, id);
        const double dt = now() - t0;
        r.log.end(id, "op", 0, t0);

        ++r.attempted;
        std::string bad = res.violation;
        if (k < P)
            digests[kk] = res.digest;
        else if (bad.empty() && res.digest != digests[kk])
            bad = "output differs from the same op in the first episode "
                  "(" + hex(res.digest) + " vs " + hex(digests[kk]) + ")";
        if (!bad.empty()) {
            ++r.failed;
            if (r.firstFailure.empty())
                r.firstFailure = "op " + std::to_string(k) + ": " + bad;
        }
        if (k + 1 == P) {
            w.fingerprint(r.fingerprint);
            w.layerCounts(r.counts);
        }

        if (k == 0) {
            timedStart = now();
            continue;
        }
        r.opS.push_back(dt);
        (traced ? r.tracedOpS : r.untracedOpS).push_back(dt);
        r.cyclesPerS.push_back(res.simCycles / dt);
        if (res.jobMs.empty())
            res.jobMs.push_back(dt * 1e3);
        r.jobsPerS.push_back(static_cast<double>(res.jobMs.size()) / dt);
        r.jobMs.insert(r.jobMs.end(), res.jobMs.begin(), res.jobMs.end());
        if (k + 1 >= P &&
            now() - timedStart >= static_cast<double>(opt.seconds))
            break;
    }
    r.log.setEnabled(false);
    return r;
}

double
peakRssMiB()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/** Chrome-trace JSON of every recorded span, one pid per workload. */
bool
writeTrace(const std::string &path, const std::string &workload,
           const std::vector<Span> &spans)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    int pid = 0;
    for (std::size_t i = 0; i < std::size(kWorkloads); ++i)
        if (workload == kWorkloads[i])
            pid = static_cast<int>(i);
    std::fprintf(f,
                 "{\"traceEvents\": [\n  {\"name\": \"process_name\", "
                 "\"ph\": \"M\", \"pid\": %d, \"args\": {\"name\": %s}}",
                 pid, jsonString(workload).c_str());
    for (const Span &s : spans) {
        std::fprintf(f,
                     ",\n  {\"name\": %s, \"ph\": \"X\", \"pid\": %d, "
                     "\"tid\": %u, \"ts\": %.3f, \"dur\": %.3f, "
                     "\"args\": {\"id\": %llu, \"parent\": %llu",
                     jsonString(s.name).c_str(), pid, s.tid, s.t0 * 1e6,
                     s.dur() * 1e6, static_cast<unsigned long long>(s.id),
                     static_cast<unsigned long long>(s.parent));
        for (const auto &a : s.args)
            std::fprintf(f, ", %s: %s", jsonString(a.first).c_str(),
                         jsonNumber(a.second).c_str());
        std::fprintf(f, "}}");
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parseOptions(argc, argv);
    std::unique_ptr<Workload> w = makeWorkload(opt.workload, opt.seed);
    if (!w)
        usage(argv[0], "unknown workload '" + opt.workload + "'");
    Fields pins;
    if (!opt.expected.empty()) {
        if (!std::ifstream(opt.expected))
            usage(argv[0], "cannot read --expected " + opt.expected);
        pins = loadPins(opt.expected, opt.workload, opt.seed);
    }
    const bool traced = !opt.trace.empty();

    const HostSample before = sampleHost();
    RunOutcome run = runWorkload(*w, opt);
    const HostSample after = sampleHost();

    // Fingerprint: pinned seeds compare field by field; a mismatch
    // fails every op, since any of them may have produced it.
    std::string pinStatus;
    if (!opt.pin.empty()) {
        std::FILE *f = std::fopen(opt.pin.c_str(), "a");
        if (!f) {
            std::fprintf(stderr, "xui_perf: cannot write %s\n",
                         opt.pin.c_str());
            return 1;
        }
        for (const auto &[k, v] : run.fingerprint)
            std::fprintf(f, "%s %llu %s %s\n", opt.workload.c_str(),
                         static_cast<unsigned long long>(opt.seed),
                         k.c_str(), v.c_str());
        std::fclose(f);
        pinStatus = "written to " + opt.pin;
    } else if (pins.empty()) {
        pinStatus = "unpinned seed: invariants and repeat checks only";
    } else if (std::string diff = comparePins(pins, run.fingerprint);
               diff.empty()) {
        pinStatus = "matches expected.txt";
    } else {
        pinStatus = "MISMATCH at " + diff;
        run.failed = run.attempted;
        if (run.firstFailure.empty())
            run.firstFailure = "fingerprint " + diff;
    }

    Counts m;
    if (!traced) {
        // Host times take the fastest decile: co-tenant noise on a
        // shared host only ever slows a sample down, and comes in
        // bursts that move medians by tens of percent (README.md).
        m["setup_s"] = percentile(run.setupS, 10.0);
        m["sim_mcycles_per_s"] = percentile(run.cyclesPerS, 90.0) / 1e6;
        m["jobs_per_s"] = percentile(run.jobsPerS, 90.0);
        m["job_ms_p10"] = percentile(run.jobMs, 10.0);
        m["peak_rss_mb"] = peakRssMiB();
    } else {
        m = run.counts;
        w->traceExtras(run.log.spans(), m);
        layerMetrics(run.log.spans(), w->threads(), m);
        m["op_ms_p50"] = median(run.opS) * 1e3;
        m["op_ms_p95"] = percentile(run.opS, 95.0) * 1e3;
        m["ops"] = static_cast<double>(run.opS.size());
        m["bench.trace_overhead_pct"] =
            pct(median(run.tracedOpS) - median(run.untracedOpS),
                median(run.untracedOpS));
        m["exec.threads"] = w->threads();
    }
    const auto &defs = traced ? std::vector<MetricDef>(std::begin(kPerLayer),
                                                       std::end(kPerLayer))
                              : std::vector<MetricDef>(std::begin(kEndToEnd),
                                                       std::end(kEndToEnd));

    std::printf("xui_perf %s seed %llu: %zu ops (1 warm-up), %zu set-ups, "
                "%s run\n",
                opt.workload.c_str(),
                static_cast<unsigned long long>(opt.seed),
                static_cast<std::size_t>(run.attempted), run.setupS.size(),
                traced ? "traced" : "untraced");
    std::printf("  build %s (%s), %u threads, cpu %s\n", ckpt::kBuildGitSha,
                ckpt::kBuildType, exec::hardwareJobs(), cpuModel().c_str());
    std::printf("  load1 %.2f -> %.2f, steal ticks +%llu\n", before.load1,
                after.load1,
                static_cast<unsigned long long>(after.stealTicks -
                                                before.stealTicks));
    std::printf("  fingerprint: %s\n", pinStatus.c_str());
    std::printf("  error_rate %.4f (%llu failed / %llu attempted)\n",
                run.attempted ? static_cast<double>(run.failed) /
                                    static_cast<double>(run.attempted)
                              : 0.0,
                static_cast<unsigned long long>(run.failed),
                static_cast<unsigned long long>(run.attempted));
    if (!run.firstFailure.empty())
        std::printf("  FIRST FAILURE: %s\n", run.firstFailure.c_str());
    for (const MetricDef &d : defs)
        std::printf("  %-34s %16.6g %s\n", d.name, m[d.name], d.unit);

    std::string metrics;
    for (const MetricDef &d : defs)
        metrics += std::string(metrics.empty() ? "" : ", ") +
                   jsonString(d.name) + ": {\"value\": " +
                   jsonNumber(m[d.name]) + ", \"unit\": " +
                   jsonString(d.unit) + "}";
    const bool correct = run.failed == 0;

    if (!opt.result.empty()) {
        std::FILE *f = std::fopen(opt.result.c_str(), "w");
        if (!f) {
            std::fprintf(stderr, "xui_perf: cannot write %s\n",
                         opt.result.c_str());
            return 1;
        }
        std::fprintf(
            f,
            "{\"workload\": %s, \"seed\": %llu, \"seconds\": %llu, "
            "\"traced\": %s,\n \"provenance\": {\"git_sha\": %s, "
            "\"build_type\": %s, \"argv\": %s, \"nproc\": %u, "
            "\"cpu\": %s, \"load1_before\": %s, \"load1_after\": %s, "
            "\"steal_ticks_before\": %llu, \"steal_ticks_after\": %llu},\n"
            " \"fingerprint\": %s, \"first_failure\": %s,\n"
            " \"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
            "\"error_rate\": %s,\n \"metrics\": {%s}}\n",
            jsonString(opt.workload).c_str(),
            static_cast<unsigned long long>(opt.seed),
            static_cast<unsigned long long>(opt.seconds),
            traced ? "true" : "false", jsonString(ckpt::kBuildGitSha).c_str(),
            jsonString(ckpt::kBuildType).c_str(), jsonString(opt.argv).c_str(),
            exec::hardwareJobs(), jsonString(cpuModel()).c_str(),
            jsonNumber(before.load1).c_str(), jsonNumber(after.load1).c_str(),
            static_cast<unsigned long long>(before.stealTicks),
            static_cast<unsigned long long>(after.stealTicks),
            jsonString(pinStatus).c_str(),
            jsonString(run.firstFailure).c_str(), correct ? "true" : "false",
            static_cast<unsigned long long>(run.attempted),
            static_cast<unsigned long long>(run.failed),
            jsonNumber(run.attempted ? static_cast<double>(run.failed) /
                                           static_cast<double>(run.attempted)
                                     : 0.0)
                .c_str(),
            metrics.c_str());
        std::fclose(f);
    }
    if (traced && !writeTrace(opt.trace, opt.workload, run.log.spans())) {
        std::fprintf(stderr, "xui_perf: cannot write %s\n",
                     opt.trace.c_str());
        return 1;
    }

    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {%s}}\n",
                correct ? "true" : "false",
                static_cast<unsigned long long>(run.attempted),
                static_cast<unsigned long long>(run.failed), metrics.c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
}
