/**
 * @file
 * Tests of the observability subsystem (src/obs): the metrics
 * registry, interrupt-lifecycle span tracker (stage telescoping per
 * source, tracked re-injection), the Chrome trace-event exporter,
 * the zero-cost-when-detached guarantee, and the strict bench
 * argument parser.
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "../bench/bench_util.hh"
#include "obs/metrics.hh"
#include "obs/sampler.hh"
#include "obs/span.hh"
#include "obs/trace_export.hh"
#include "uarch/intr_observer.hh"
#include "uarch/uarch_system.hh"
#include "verify/digest_tracer.hh"
#include "workloads/kernels.hh"

using namespace xui;

namespace
{

/**
 * Minimal JSON syntax checker: validates string/escape handling and
 * bracket balance without pulling in a JSON library. Catches the
 * classes of bug an exporter can realistically have (unescaped
 * quotes, trailing garbage, unbalanced containers).
 */
bool
isValidJsonShape(const std::string &s)
{
    std::vector<char> stack;
    bool in_string = false;
    bool escaped = false;
    bool saw_value = false;
    for (char c : s) {
        if (in_string) {
            if (escaped)
                escaped = false;
            else if (c == '\\')
                escaped = true;
            else if (c == '"')
                in_string = false;
            else if (static_cast<unsigned char>(c) < 0x20)
                return false; // raw control char inside a string
            continue;
        }
        switch (c) {
          case '"':
            in_string = true;
            saw_value = true;
            break;
          case '{':
          case '[':
            stack.push_back(c);
            saw_value = true;
            break;
          case '}':
            if (stack.empty() || stack.back() != '{')
                return false;
            stack.pop_back();
            break;
          case ']':
            if (stack.empty() || stack.back() != '[')
                return false;
            stack.pop_back();
            break;
          default:
            break;
        }
    }
    return !in_string && stack.empty() && saw_value;
}

Program
handlerLoop()
{
    ProgramBuilder b("loop");
    std::uint32_t top = b.here();
    for (int i = 0; i < 4; ++i)
        b.intAlu(reg::kGpr0 + 1 + i, reg::kGpr0 + 1 + i);
    b.jump(top);
    b.beginHandler();
    b.intAlu(reg::kGpr0 + 12, reg::kGpr0 + 12);
    b.uiret();
    return b.build();
}

/** Every completed span must telescope: stages sum to end-to-end. */
void
expectTelescoping(const IntrSpanTracker &spans, IntrSource source)
{
    ASSERT_FALSE(spans.spans().empty());
    for (const IntrSpan &s : spans.spans()) {
        EXPECT_TRUE(s.complete);
        EXPECT_EQ(s.source, source);
        EXPECT_GE(s.acceptedAt, s.raisedAt);
        EXPECT_GE(s.injectedAt, s.acceptedAt);
        EXPECT_GE(s.deliveredAt, s.injectedAt);
        EXPECT_GT(s.returnedAt, s.deliveredAt);
        EXPECT_EQ(s.pend() + s.injectWait() + s.ucode() +
                      s.handler(),
                  s.endToEnd());
    }
}

} // namespace

// ----------------------------------------------------------------------
// MetricsRegistry
// ----------------------------------------------------------------------

TEST(MetricsRegistry, CounterGaugeLatencyRoundTrip)
{
    MetricsRegistry reg;
    Counter &c = reg.counter("core0.cycles");
    c.inc();
    c.inc(41);
    EXPECT_EQ(c.value(), 42u);
    // Same name returns the same object: register once, bump often.
    EXPECT_EQ(&reg.counter("core0.cycles"), &c);
    EXPECT_EQ(reg.findCounter("core0.cycles")->value(), 42u);
    EXPECT_EQ(reg.findCounter("nope"), nullptr);

    reg.gauge("core0.ipc").set(2.5);
    EXPECT_DOUBLE_EQ(reg.findGauge("core0.ipc")->value(), 2.5);

    LatencyRecorder &lat = reg.latency("core0.intr.e2e");
    for (int i = 1; i <= 100; ++i)
        lat.record(i);
    EXPECT_EQ(lat.hist().count(), 100u);
    EXPECT_EQ(reg.size(), 3u);
}

TEST(MetricsRegistry, JsonSnapshotIsWellFormed)
{
    MetricsRegistry reg;
    reg.counter("a.b.count").inc(7);
    reg.gauge("a.b.frac").set(0.25);
    reg.latency("a.b.lat").record(100);
    // Hostile name: must be escaped, not break the document.
    reg.counter("weird\"name\\with\njunk").inc();

    std::ostringstream os;
    reg.writeJson(os);
    std::string json = os.str();
    EXPECT_TRUE(isValidJsonShape(json)) << json;
    EXPECT_NE(json.find("\"a.b.count\""), std::string::npos);
    EXPECT_NE(json.find("\"counters\""), std::string::npos);
    EXPECT_NE(json.find("\"gauges\""), std::string::npos);
    EXPECT_NE(json.find("\"latencies\""), std::string::npos);
}

TEST(MetricsRegistry, MergeCombinesPerJobRegistries)
{
    // Two per-job registries as produced by a parallel sweep, plus
    // a metric unique to each side.
    MetricsRegistry a;
    a.counter("sweep.runs").inc(3);
    a.counter("only.in.a").inc(1);
    a.gauge("sweep.last_ratio").set(0.5);
    a.latency("sweep.lat").record(100);
    a.latency("sweep.lat").record(200);

    MetricsRegistry b;
    b.counter("sweep.runs").inc(4);
    b.gauge("sweep.last_ratio").set(0.75);
    b.latency("sweep.lat").record(300);
    b.latency("only.in.b.lat").record(50);

    MetricsRegistry total;
    total.merge(a);
    total.merge(b);

    EXPECT_EQ(total.findCounter("sweep.runs")->value(), 7u);
    EXPECT_EQ(total.findCounter("only.in.a")->value(), 1u);
    // Gauges are last-merge-wins.
    EXPECT_DOUBLE_EQ(total.findGauge("sweep.last_ratio")->value(),
                     0.75);
    const Histogram &h = total.findLatency("sweep.lat")->hist();
    EXPECT_EQ(h.count(), 3u);
    EXPECT_DOUBLE_EQ(h.sum(), 600.0);
    EXPECT_EQ(total.findLatency("only.in.b.lat")->hist().count(),
              1u);
}

TEST(MetricsRegistry, MergeOrderIndependentForFixedShape)
{
    // Sweep jobs emit a fixed metric shape; merging job registries
    // in 0..n-1 order must be reproducible — equal JSON snapshots
    // from two identically-ordered merges.
    auto job = [](std::uint64_t i) {
        auto r = std::make_unique<MetricsRegistry>();
        r->counter("j.runs").inc(1);
        r->latency("j.lat").record(10 * (i + 1));
        return r;
    };
    MetricsRegistry m1, m2;
    for (std::uint64_t i = 0; i < 5; ++i) {
        auto r = job(i);
        m1.merge(*r);
        m2.merge(*r);
    }
    std::ostringstream s1, s2;
    m1.writeJson(s1);
    m2.writeJson(s2);
    EXPECT_EQ(s1.str(), s2.str());
}

// ----------------------------------------------------------------------
// Interrupt-lifecycle spans: stage sums telescope per source
// ----------------------------------------------------------------------

TEST(IntrSpans, KbTimerStagesSumToEndToEnd)
{
    Program p = handlerLoop();
    MetricsRegistry reg;
    IntrSpanTracker spans(reg);
    CoreParams params;
    params.strategy = DeliveryStrategy::Tracked;
    UarchSystem sys(42);
    OooCore &core = sys.addCore(params, &p);
    sys.setIntrObserver(&spans);
    core.kbTimer().configure(true, 0x21);
    core.kbTimer().setTimer(0, usToCycles(5), KbTimerMode::Periodic);
    core.runCycles(100000);

    expectTelescoping(spans, IntrSource::KbTimer);
    EXPECT_EQ(spans.spans().size(),
              core.stats().interruptsDelivered);
    // Registry got the per-stage recorders under the span prefix.
    const LatencyRecorder *e2e =
        reg.findLatency("core0.intr.kbtimer.e2e");
    ASSERT_NE(e2e, nullptr);
    EXPECT_EQ(e2e->hist().count(), spans.spans().size());
}

TEST(IntrSpans, UserIpiStagesSumToEndToEnd)
{
    Program p = handlerLoop();
    MetricsRegistry reg;
    IntrSpanTracker spans(reg);
    CoreParams params;
    params.strategy = DeliveryStrategy::Tracked;
    UarchSystem sys(7);
    OooCore &core = sys.addCore(params, &p);
    sys.setIntrObserver(&spans);
    core.upid().setNotificationVector(core.uinv());
    core.upid().setDestination(core.id());
    for (int i = 0; i < 10; ++i) {
        sys.run(usToCycles(5));
        sys.injectUipi(core, 3);
    }
    sys.run(usToCycles(20));

    expectTelescoping(spans, IntrSource::UserIpi);
    EXPECT_GE(spans.spans().size(), 5u);
}

TEST(IntrSpans, ForwardedStagesSumToEndToEnd)
{
    Program p = handlerLoop();
    MetricsRegistry reg;
    IntrSpanTracker spans(reg);
    CoreParams params;
    params.strategy = DeliveryStrategy::Tracked;
    UarchSystem sys(23);
    OooCore &core = sys.addCore(params, &p);
    sys.setIntrObserver(&spans);
    core.forwarding().enableVector(0x80);
    Bitset256 mask;
    mask.set(0x80);
    core.forwarding().setActiveMask(mask);
    core.runCycles(2000);
    core.deviceInterrupt(0x80);
    core.runCycles(5000);

    expectTelescoping(spans, IntrSource::Forwarded);
    EXPECT_EQ(spans.spans().size(), 1u);
}

TEST(IntrSpans, TrackedReinjectionKeepsTelescoping)
{
    // Mispredict-heavy program under Tracked delivery: injected
    // microcode is repeatedly squashed and re-injected. Spans must
    // survive re-injection (counted, first-inject kept) and still
    // telescope exactly.
    ProgramBuilder b("noisy");
    std::uint32_t top = b.here();
    b.intAlu(reg::kGpr0 + 1, reg::kGpr0 + 1);
    b.randomBranch(top, 0.5);
    b.intAlu(reg::kGpr0 + 2, reg::kGpr0 + 2);
    b.jump(top);
    b.beginHandler();
    b.intAlu(reg::kGpr0 + 12, reg::kGpr0 + 12);
    b.uiret();
    Program p = b.build();

    MetricsRegistry reg;
    IntrSpanTracker spans(reg);
    CoreParams params;
    params.strategy = DeliveryStrategy::Tracked;
    UarchSystem sys(42);
    OooCore &core = sys.addCore(params, &p);
    sys.setIntrObserver(&spans);
    core.kbTimer().configure(true, 0x21);
    core.kbTimer().setTimer(0, usToCycles(2), KbTimerMode::Periodic);
    core.runUntilCommitted(200000, 200000000);

    expectTelescoping(spans, IntrSource::KbTimer);
    std::uint64_t reinjections = 0;
    for (const IntrSpan &s : spans.spans())
        reinjections += s.reinjections;
    EXPECT_GT(reinjections, 0u);
    EXPECT_EQ(reinjections, core.stats().reinjections);
    // At most the one in-flight span is still open at the end.
    EXPECT_LE(spans.openCount(), 1u);
}

// ----------------------------------------------------------------------
// No observer effect: detached runs are cycle-identical
// ----------------------------------------------------------------------

TEST(IntrSpans, ObserverDoesNotPerturbTiming)
{
    auto digest_with = [](bool observed) {
        Program p = handlerLoop();
        MetricsRegistry reg;
        IntrSpanTracker spans(reg);
        CoreParams params;
        params.strategy = DeliveryStrategy::Tracked;
        UarchSystem sys(42);
        OooCore &core = sys.addCore(params, &p);
        DigestTracer digest;
        core.setTracer(&digest);
        if (observed)
            sys.setIntrObserver(&spans);
        core.kbTimer().configure(true, 0x21);
        core.kbTimer().setTimer(0, usToCycles(5),
                                KbTimerMode::Periodic);
        core.runCycles(50000);
        return digest.fullDigest();
    };
    EXPECT_EQ(digest_with(false), digest_with(true));
}

// ----------------------------------------------------------------------
// Chrome trace-event exporter
// ----------------------------------------------------------------------

TEST(TraceExport, SpanExportIsValidChromeTraceJson)
{
    Program p = handlerLoop();
    MetricsRegistry reg;
    IntrSpanTracker spans(reg);
    CoreParams params;
    params.strategy = DeliveryStrategy::Tracked;
    UarchSystem sys(42);
    OooCore &core = sys.addCore(params, &p);
    sys.setIntrObserver(&spans);
    core.kbTimer().configure(true, 0x21);
    core.kbTimer().setTimer(0, usToCycles(5), KbTimerMode::Periodic);
    core.runCycles(50000);
    ASSERT_FALSE(spans.spans().empty());

    TraceJsonWriter out;
    out.nameProcess(kTracePidUarch, "uarch");
    out.nameThread(kTracePidUarch, 0, "core0");
    spans.exportTo(out);
    std::ostringstream os;
    out.write(os);
    std::string json = os.str();

    EXPECT_TRUE(isValidJsonShape(json)) << json.substr(0, 400);
    // Array-form Chrome trace: leading '[', events carry the
    // required ph/ts/pid/tid fields.
    EXPECT_EQ(json[0], '[');
    EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\": \"i\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\": \"M\""), std::string::npos);
    EXPECT_NE(json.find("\"ts\": "), std::string::npos);
    EXPECT_NE(json.find("\"pid\": 0"), std::string::npos);
    EXPECT_NE(json.find("\"tid\": 0"), std::string::npos);
    EXPECT_NE(json.find("\"dur\": "), std::string::npos);
    // One X event per stage per completed span.
    std::size_t x_events = 0;
    for (std::size_t at = json.find("\"ph\": \"X\"");
         at != std::string::npos;
         at = json.find("\"ph\": \"X\"", at + 1))
        ++x_events;
    EXPECT_EQ(x_events, 4 * spans.spans().size());
}

TEST(TraceExport, WriterCapsAndCountsDrops)
{
    TraceJsonWriter out(10);
    for (int i = 0; i < 25; ++i)
        out.instant("e", "test", static_cast<Cycles>(i), 0, 0);
    EXPECT_EQ(out.size(), 10u);
    EXPECT_EQ(out.dropped(), 15u);
    std::ostringstream os;
    out.write(os);
    EXPECT_TRUE(isValidJsonShape(os.str()));
}

// ----------------------------------------------------------------------
// Strict bench argument parsing
// ----------------------------------------------------------------------

namespace
{

bench::Options
parse(std::vector<std::string> argv_strings)
{
    std::vector<char *> argv;
    argv.push_back(const_cast<char *>("bench"));
    for (std::string &s : argv_strings)
        argv.push_back(s.data());
    return bench::parseArgs(static_cast<int>(argv.size()),
                            argv.data(), bench::kAllFlags);
}

} // namespace

TEST(BenchArgs, KnownFlagsParse)
{
    bench::Options o =
        parse({"--quick", "--seed", "9", "--metrics-json", "m.json",
               "--trace-json", "t.json"});
    EXPECT_TRUE(o.quick);
    EXPECT_EQ(o.seed, 9u);
    EXPECT_EQ(o.metricsJson, "m.json");
    EXPECT_EQ(o.traceJson, "t.json");
    EXPECT_EQ(o.jobs, 0u) << "--jobs unset must default to auto";
}

TEST(BenchArgs, JobsFlagParses)
{
    EXPECT_EQ(parse({"--jobs", "1"}).jobs, 1u);
    EXPECT_EQ(parse({"--jobs", "8"}).jobs, 8u);
}

TEST(BenchArgsDeathTest, JobsZeroExitsTwo)
{
    EXPECT_EXIT(parse({"--jobs", "0"}),
                ::testing::ExitedWithCode(2),
                "--jobs needs an integer >= 1, got '0'");
}

TEST(BenchArgsDeathTest, JobsGarbageExitsTwo)
{
    EXPECT_EXIT(parse({"--jobs", "fast"}),
                ::testing::ExitedWithCode(2),
                "--jobs needs an integer >= 1, got 'fast'");
    EXPECT_EXIT(parse({"--jobs", "-2"}),
                ::testing::ExitedWithCode(2),
                "--jobs needs an integer >= 1, got '-2'");
    EXPECT_EXIT(parse({"--jobs", "4x"}),
                ::testing::ExitedWithCode(2),
                "--jobs needs an integer >= 1, got '4x'");
}

TEST(BenchArgsDeathTest, JobsMissingValueExitsTwo)
{
    EXPECT_EXIT(parse({"--jobs"}),
                ::testing::ExitedWithCode(2),
                "--jobs needs a value");
}

TEST(BenchArgsDeathTest, UnknownArgumentExitsTwo)
{
    EXPECT_EXIT(parse({"--bogus"}),
                ::testing::ExitedWithCode(2),
                "unknown argument '--bogus'");
}

TEST(BenchArgsDeathTest, MissingValueExitsTwo)
{
    EXPECT_EXIT(parse({"--metrics-json"}),
                ::testing::ExitedWithCode(2),
                "--metrics-json needs a file");
    EXPECT_EXIT(parse({"--seed"}),
                ::testing::ExitedWithCode(2),
                "--seed needs a value");
}

TEST(BenchArgs, PolicyFlagParses)
{
    bench::Options o = parse({"--policy", "next_or_missed_level"});
    EXPECT_TRUE(o.policyGiven);
    EXPECT_TRUE(o.policy.enabled);
    EXPECT_EQ(o.policy.policy.behavior,
              DeliveryBehavior::NextOrMissed);
    EXPECT_EQ(o.policy.policy.trigger, TriggerMode::Level);

    o = parse({"--policy", "off"});
    EXPECT_TRUE(o.policyGiven)
        << "--policy off still narrows the frontier to one policy";
    EXPECT_FALSE(o.policy.enabled);

    o = parse({"--policy", "moderated"});
    EXPECT_TRUE(o.policy.moderated);
    o = parse({"--policy", "adaptive"});
    EXPECT_TRUE(o.policy.adaptive);
}

TEST(BenchArgs, OverloadFlagsParse)
{
    bench::Options o =
        parse({"--itr-ns", "1500", "--offered-load", "2.5"});
    EXPECT_EQ(o.itrNs, 1500u);
    EXPECT_DOUBLE_EQ(o.offeredLoad, 2.5);
    EXPECT_DOUBLE_EQ(parse({}).offeredLoad, 0.0)
        << "--offered-load unset must leave the figure path active";
}

TEST(BenchArgsDeathTest, PolicyGarbageExitsTwo)
{
    EXPECT_EXIT(parse({"--policy", "bogus"}),
                ::testing::ExitedWithCode(2),
                "unknown --policy 'bogus'");
    EXPECT_EXIT(parse({"--policy", "NEXT_ONLY_EDGE"}),
                ::testing::ExitedWithCode(2),
                "unknown --policy");
    EXPECT_EXIT(parse({"--policy"}),
                ::testing::ExitedWithCode(2),
                "--policy needs a value");
}

TEST(BenchArgsDeathTest, ItrNsGarbageExitsTwo)
{
    EXPECT_EXIT(parse({"--itr-ns", "fast"}),
                ::testing::ExitedWithCode(2),
                "--itr-ns needs a non-negative integer, got 'fast'");
    EXPECT_EXIT(parse({"--itr-ns", "-5"}),
                ::testing::ExitedWithCode(2),
                "--itr-ns needs a non-negative integer, got '-5'");
    EXPECT_EXIT(parse({"--itr-ns", "10ns"}),
                ::testing::ExitedWithCode(2),
                "--itr-ns needs a non-negative integer, got '10ns'");
    EXPECT_EXIT(parse({"--itr-ns"}),
                ::testing::ExitedWithCode(2),
                "--itr-ns needs a value");
}

TEST(BenchArgsDeathTest, OfferedLoadGarbageExitsTwo)
{
    EXPECT_EXIT(parse({"--offered-load", "lots"}),
                ::testing::ExitedWithCode(2),
                "--offered-load needs a positive number, "
                "got 'lots'");
    EXPECT_EXIT(parse({"--offered-load", "0"}),
                ::testing::ExitedWithCode(2),
                "--offered-load needs a positive number, got '0'");
    EXPECT_EXIT(parse({"--offered-load", "-1.5"}),
                ::testing::ExitedWithCode(2),
                "--offered-load needs a positive number, "
                "got '-1.5'");
    EXPECT_EXIT(parse({"--offered-load", "2.0x"}),
                ::testing::ExitedWithCode(2),
                "--offered-load needs a positive number, "
                "got '2.0x'");
    EXPECT_EXIT(parse({"--offered-load"}),
                ::testing::ExitedWithCode(2),
                "--offered-load needs a value");
}

TEST(BenchArgsDeathTest, HelpExitsZero)
{
    EXPECT_EXIT(parse({"--help"}), ::testing::ExitedWithCode(0),
                "");
}

TEST(BenchArgs, ProfilingFlagsParse)
{
    bench::Options o = parse({"--counter-stride", "128", "--tax"});
    EXPECT_EQ(o.counterStride, 128u);
    EXPECT_TRUE(o.tax);
    o = parse({});
    EXPECT_EQ(o.counterStride, 0u);
    EXPECT_FALSE(o.tax);
}

TEST(BenchArgsDeathTest, CounterStrideGarbageExitsTwo)
{
    EXPECT_EXIT(parse({"--counter-stride", "fast"}),
                ::testing::ExitedWithCode(2),
                "--counter-stride needs a non-negative integer, "
                "got 'fast'");
    EXPECT_EXIT(parse({"--counter-stride", "-1"}),
                ::testing::ExitedWithCode(2),
                "--counter-stride needs a non-negative integer");
    EXPECT_EXIT(parse({"--counter-stride", "10k"}),
                ::testing::ExitedWithCode(2),
                "--counter-stride needs a non-negative integer");
    EXPECT_EXIT(parse({"--counter-stride"}),
                ::testing::ExitedWithCode(2),
                "--counter-stride needs a value");
}

// ----------------------------------------------------------------------
// Pipeline-pressure profiler: counter tracks + interrupt tax
// ----------------------------------------------------------------------

TEST(PipelineProfiler, CounterTracksEmitValidPerfettoShape)
{
    Program p = handlerLoop();
    TraceJsonWriter out;
    out.nameProcess(kTracePidUarch, "uarch");
    out.nameThread(kTracePidUarch, 0, "core0");
    ProfileConfig cfg;
    cfg.counterStride = 500;
    PipelinePressureProfiler prof(cfg, nullptr, &out);
    CoreParams params;
    params.strategy = DeliveryStrategy::Tracked;
    UarchSystem sys(42);
    OooCore &core = sys.addCore(params, &p);
    sys.setIntrObserver(&prof);
    prof.attachCore(core);
    core.kbTimer().configure(true, 0x21);
    core.kbTimer().setTimer(0, usToCycles(5), KbTimerMode::Periodic);
    core.runCycles(50000);

    // Strided coverage plus full-resolution bursts around the timer
    // spans: strictly more samples than the stride alone explains,
    // strictly fewer than every cycle.
    EXPECT_GT(prof.samplesEmitted(), 50000u / 500u);
    EXPECT_LT(prof.samplesEmitted(), 50000u);
    EXPECT_GT(prof.burstSamples(), 0u);

    std::ostringstream os;
    out.write(os);
    std::string json = os.str();
    EXPECT_TRUE(isValidJsonShape(json)) << json.substr(0, 400);
    // Perfetto counter tracks: 'C' events on the core's pid with
    // one series per args key.
    EXPECT_NE(json.find("\"ph\": \"C\""), std::string::npos);
    EXPECT_NE(json.find("\"name\": \"core0 occupancy\""),
              std::string::npos);
    EXPECT_NE(json.find("\"name\": \"core0 rates\""),
              std::string::npos);
    EXPECT_NE(json.find("\"name\": \"core0 mem\""),
              std::string::npos);
    for (const char *series :
         {"\"rob\"", "\"iq\"", "\"lq\"", "\"sq\"", "\"fetchbuf\"",
          "\"fetch\"", "\"issue\"", "\"retire\"", "\"ipc\"",
          "\"l1_mpki\"", "\"l2_mpki\"", "\"llc_mpki\"",
          "\"mispredicts\""})
        EXPECT_NE(json.find(series), std::string::npos) << series;
}

TEST(PipelineProfiler, SamplingOffEmitsNothing)
{
    Program p = handlerLoop();
    TraceJsonWriter out;
    ProfileConfig cfg; // stride 0, tax off
    PipelinePressureProfiler prof(cfg, nullptr, &out);
    CoreParams params;
    params.strategy = DeliveryStrategy::Tracked;
    UarchSystem sys(42);
    OooCore &core = sys.addCore(params, &p);
    sys.setIntrObserver(&prof);
    prof.attachCore(core);
    core.kbTimer().configure(true, 0x21);
    core.kbTimer().setTimer(0, usToCycles(5), KbTimerMode::Periodic);
    core.runCycles(50000);
    EXPECT_EQ(prof.samplesEmitted(), 0u);
    EXPECT_EQ(out.size(), 0u);
}

TEST(PipelineProfiler, TaxBucketsTelescopeToSpanEndToEnd)
{
    for (DeliveryStrategy strategy :
         {DeliveryStrategy::Tracked, DeliveryStrategy::Flush,
          DeliveryStrategy::Drain}) {
        SCOPED_TRACE(static_cast<int>(strategy));
        Program p = handlerLoop();
        MetricsRegistry reg;
        IntrSpanTracker spans(reg);
        ProfileConfig cfg;
        cfg.tax = true;
        PipelinePressureProfiler prof(cfg, &reg, nullptr);
        IntrObserverTee tee;
        tee.add(&spans);
        tee.add(&prof);
        CoreParams params;
        params.strategy = strategy;
        UarchSystem sys(42);
        OooCore &core = sys.addCore(params, &p);
        sys.setIntrObserver(&tee);
        prof.attachCore(core);
        core.kbTimer().configure(true, 0x21);
        core.kbTimer().setTimer(0, usToCycles(5),
                                KbTimerMode::Periodic);
        core.runCycles(100000);

        // Each closed span's counted cycles partition into exactly
        // one bucket per cycle, so per source the buckets telescope
        // to the summed end-to-end span length.
        std::uint64_t e2e_sum = 0, closed = 0;
        for (const IntrSpan &s : spans.spans()) {
            if (!s.complete)
                continue;
            e2e_sum += s.endToEnd();
            ++closed;
        }
        ASSERT_GT(closed, 0u);
        auto tax = [&reg](const std::string &stream,
                          const char *leaf) {
            const Counter *c = reg.findCounter(
                "core0.tax." + stream + "." + leaf);
            return c != nullptr ? c->value() : 0;
        };
        EXPECT_EQ(tax("src.kbtimer", "spans"), closed);
        EXPECT_EQ(tax("src.kbtimer", "flush") +
                      tax("src.kbtimer", "refill") +
                      tax("src.kbtimer", "ucode") +
                      tax("src.kbtimer", "handler") +
                      tax("src.kbtimer", "shadow"),
                  e2e_sum);
        // The per-vector stream mirrors the per-source stream (the
        // scenario has a single source on a single vector).
        for (const char *leaf :
             {"flush", "refill", "ucode", "handler", "shadow",
              "spans"})
            EXPECT_EQ(tax("vec33", leaf),
                      tax("src.kbtimer", leaf))
                << leaf;
    }
}

TEST(PipelineProfiler, TaxOnlyRunEmitsNoTraceEvents)
{
    // Tax attribution must not need (or touch) a trace writer.
    Program p = handlerLoop();
    MetricsRegistry reg;
    ProfileConfig cfg;
    cfg.tax = true;
    PipelinePressureProfiler prof(cfg, &reg, nullptr);
    CoreParams params;
    params.strategy = DeliveryStrategy::Tracked;
    UarchSystem sys(9);
    OooCore &core = sys.addCore(params, &p);
    sys.setIntrObserver(&prof);
    prof.attachCore(core);
    core.kbTimer().configure(true, 0x21);
    core.kbTimer().setTimer(0, usToCycles(5), KbTimerMode::Periodic);
    core.runCycles(50000);
    EXPECT_EQ(prof.samplesEmitted(), 0u);
    EXPECT_NE(reg.findCounter("core0.tax.src.kbtimer.spans"),
              nullptr);
}

// ----------------------------------------------------------------------
// Drop accounting: samples are sacrificed before spans at the cap
// ----------------------------------------------------------------------

TEST(TraceExport, SamplesDropBeforeSpansAtTheCap)
{
    TraceJsonWriter out(4);
    // Fill the buffer with counter samples; a fifth is dropped
    // outright (it is itself a sample).
    for (int i = 0; i < 5; ++i)
        out.counter("track", static_cast<Cycles>(i), 0, 0,
                    "{\"v\": 1}");
    EXPECT_EQ(out.size(), 4u);
    EXPECT_EQ(out.droppedSamples(), 1u);
    EXPECT_EQ(out.droppedSpans(), 0u);

    // Span events now evict buffered samples (oldest first); only
    // once no samples remain does a span itself get dropped.
    for (int i = 0; i < 6; ++i)
        out.instant("evt", "test", static_cast<Cycles>(10 + i), 0,
                    0);
    EXPECT_EQ(out.size(), 4u);
    EXPECT_EQ(out.droppedSamples(), 5u);
    EXPECT_EQ(out.droppedSpans(), 2u);
    EXPECT_EQ(out.dropped(), 7u);

    std::ostringstream os;
    out.write(os);
    std::string json = os.str();
    EXPECT_TRUE(isValidJsonShape(json)) << json;
    // Every surviving payload event is a span; all samples went.
    EXPECT_EQ(json.find("\"ph\": \"C\""), std::string::npos);
    std::size_t instants = 0;
    for (std::size_t at = json.find("\"ph\": \"i\"");
         at != std::string::npos;
         at = json.find("\"ph\": \"i\"", at + 1))
        ++instants;
    EXPECT_EQ(instants, 4u);
}

TEST(TraceExport, MetadataBypassesTheCap)
{
    TraceJsonWriter out(2);
    out.counter("t", 0, 0, 0, "{\"v\": 1}");
    out.counter("t", 1, 0, 0, "{\"v\": 2}");
    out.nameProcess(0, "uarch");
    out.nameThread(0, 0, "core0");
    EXPECT_EQ(out.dropped(), 0u);
    std::ostringstream os;
    out.write(os);
    EXPECT_NE(os.str().find("\"ph\": \"M\""), std::string::npos);
}

// ----------------------------------------------------------------------
// CSV snapshot
// ----------------------------------------------------------------------

TEST(MetricsRegistry, CsvSnapshotHasHeaderAndEscapes)
{
    MetricsRegistry reg;
    reg.counter("plain.counter").inc(3);
    reg.counter("weird,\"name\"").inc(7);
    reg.gauge("g").set(1.5);
    reg.latency("lat").record(10);

    std::string path = ::testing::TempDir() + "obs_metrics.csv";
    ASSERT_TRUE(reg.writeCsvFile(path));
    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::string header;
    std::getline(in, header);
    EXPECT_EQ(header,
              "kind,name,value,count,mean,min,max,p50,p95,p99,p999");
    std::string rest((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    EXPECT_NE(rest.find("counter,plain.counter,3"),
              std::string::npos);
    // RFC 4180: the whole field quoted, embedded quotes doubled.
    EXPECT_NE(rest.find("\"weird,\"\"name\"\"\""),
              std::string::npos)
        << rest;
    EXPECT_NE(rest.find("gauge,g,1.5"), std::string::npos);
    EXPECT_NE(rest.find("latency,lat,"), std::string::npos);
}

TEST(MetricsRegistry, CsvSnapshotReportsUnwritablePath)
{
    MetricsRegistry reg;
    reg.counter("c").inc(1);
    EXPECT_FALSE(
        reg.writeCsvFile("/nonexistent-dir/sub/metrics.csv"));
}
