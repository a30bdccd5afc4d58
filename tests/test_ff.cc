/**
 * @file
 * Fast-forward (sampled-detail) mode tests.
 *
 * Exact mode is digest-guarded elsewhere (the golden corpus in
 * test_determinism.cc never enables fastForward, so any FF state
 * leaking into the exact path breaks those digests). This file
 * covers the sampled mode itself:
 *
 *  - the controller engages, accounts its cycles, and hands off
 *    cleanly (spans telescope, insts sum);
 *  - adversarial detail-window schedules (windows of 1 and 64
 *    cycles, warmup cut to a few cycles) force mode boundaries into
 *    every legal gap — mid-handler-tail, during tracked
 *    re-injection — and the architectural commit stream still
 *    matches a full-detail run for every deterministic-control
 *    golden-corpus row;
 *  - preemption lifecycles (save/restore) complete under the same
 *    adversarial schedule;
 *  - the sampler's burst-detail demand (CycleHook::wantDetailUntil)
 *    vetoes fast-forward;
 *  - delivery-latency distributions of a sampled run stay within
 *    tolerance of full detail (statcheck);
 *  - the hybrid co-sim driver bulk-advances a fast-forwarding core
 *    between DES events.
 */

#include <gtest/gtest.h>

#include "des/simulation.hh"
#include "uarch/cosim.hh"
#include "uarch/uarch_system.hh"
#include "verify/roundtrip.hh"
#include "verify/scenario.hh"
#include "verify/statcheck.hh"
#include "workloads/kernels.hh"

namespace xui
{
namespace
{

constexpr DeliveryStrategy kStrategies[] = {
    DeliveryStrategy::Flush,
    DeliveryStrategy::Drain,
    DeliveryStrategy::Tracked,
};

TEST(FastForward, EngagesAndAccountsCycles)
{
    ScenarioConfig cfg = goldenCorpusConfig(2, DeliveryStrategy::Tracked);
    cfg.timerPeriod = 4000;  // room for FF between handler runs
    cfg.fastForward = true;
    ScenarioResult r = runScenario(cfg);
    EXPECT_TRUE(r.ok()) << r.violations.front();
    EXPECT_GT(r.ffEntries, 0u);
    EXPECT_GE(r.ffEntries, r.ffExits);
    EXPECT_LE(r.ffEntries - r.ffExits, 1u);  // run may end in FF
    EXPECT_GT(r.ffCycles, 0u);
    EXPECT_LT(r.ffCycles, r.cycles);
    EXPECT_GT(r.ffInsts, 0u);
    EXPECT_LE(r.ffInsts, r.committedInsts);
    EXPECT_GE(r.committedInsts, cfg.targetInsts);
    EXPECT_GT(r.delivered, 0u);
}

TEST(FastForward, SpanAccountingTelescopes)
{
    Program p = makeSpinLoop();
    CoreParams params;
    params.strategy = DeliveryStrategy::Tracked;
    params.fastForward = true;
    params.detailWindow = 128;
    params.ffWarmup = 32;
    UarchSystem sys(3);
    OooCore &core = sys.addCore(params, &p);
    core.kbTimer().configure(true, 0x21);
    core.kbTimer().setTimer(0, 2000, KbTimerMode::Periodic);
    core.runCycles(50000);

    const CoreStats &s = core.stats();
    ASSERT_GT(s.ffEntries, 0u);
    ASSERT_EQ(s.ffSpans.size(), s.ffEntries);
    std::uint64_t insts = 0;
    Cycles ff_cycles = 0;
    for (std::size_t i = 0; i < s.ffSpans.size(); ++i) {
        const FfSpan &span = s.ffSpans[i];
        Cycles end =
            span.exitedAt != 0 ? span.exitedAt : core.now();
        EXPECT_GE(end, span.enteredAt) << "span " << i;
        if (i > 0)
            EXPECT_GE(span.enteredAt, s.ffSpans[i - 1].exitedAt)
                << "span " << i << " overlaps predecessor";
        insts += span.insts;
        ff_cycles += end - span.enteredAt;
    }
    // The still-open span (if any) has not rolled its insts up yet.
    if (s.ffExits == s.ffEntries)
        EXPECT_EQ(insts, s.ffInsts);
    EXPECT_EQ(ff_cycles, s.ffCycles);
}

/**
 * Adversarial window schedules over the deterministic-control half
 * of the golden corpus (even seeds: branch outcomes are pure
 * functions of the program, so the main-code commit-PC stream must
 * be identical across modes; odd seeds draw branch outcomes from
 * the core RNG, whose consumption legitimately differs when
 * wrong-path fetch is skipped). Windows of 1 and 64 cycles with a
 * short warmup force mode transitions into every gap the
 * controller can legally use, including the cycles right after
 * handler returns and during tracked re-injection.
 */
TEST(FastForward, AdversarialWindowsPreserveArchStream)
{
    std::uint64_t total_ff_entries = 0;
    std::uint64_t tracked_reinjections = 0;
    for (std::uint64_t seed = 0; seed < 32; seed += 2) {
        for (DeliveryStrategy strategy : kStrategies) {
            ScenarioConfig base = goldenCorpusConfig(seed, strategy);
            ScenarioResult detail = runScenario(base);
            ASSERT_TRUE(detail.ok())
                << "seed " << seed << ": "
                << detail.violations.front();
            for (Cycles window : {Cycles(1), Cycles(64)}) {
                ScenarioConfig cfg = base;
                cfg.fastForward = true;
                cfg.detailWindow = window;
                cfg.ffWarmup = 8;
                ScenarioResult ff = runScenario(cfg);
                std::string at = "seed " + std::to_string(seed) +
                    " window " + std::to_string(window);
                ASSERT_TRUE(ff.ok())
                    << at << ": " << ff.violations.front();
                ArchEquivalenceReport rep =
                    checkArchEquivalence(detail, ff, 1000);
                EXPECT_TRUE(rep.ok) << at << ": " << rep.message;
                total_ff_entries += ff.ffEntries;
                if (strategy == DeliveryStrategy::Tracked)
                    tracked_reinjections += ff.reinjections;
            }
        }
    }
    // The schedules must actually have exercised mode boundaries —
    // a controller that never engages trivially passes equivalence.
    EXPECT_GT(total_ff_entries, 100u);
    EXPECT_GT(tracked_reinjections, 0u);
}

/**
 * Preemption save/restore lifecycles complete under an adversarial
 * window schedule: a high-priority vector raised whenever a handler
 * is architecturally committed, with a 1-cycle detail window
 * pushing fast-forward entry attempts right up against the
 * save/restore microcode.
 */
TEST(FastForward, PreemptionSurvivesAdversarialWindows)
{
    Program p = makePointerChase(30, 256ull << 10, false);
    CoreParams params;
    params.strategy = DeliveryStrategy::Tracked;
    params.fastForward = true;
    params.detailWindow = 1;
    params.ffWarmup = 8;
    UarchSystem sys(11);
    OooCore &core = sys.addCore(params, &p);
    core.kbTimer().configure(true, 0x21);
    core.kbTimer().setTimer(0, 2000, KbTimerMode::Periodic);
    core.intrUnit().setVectorPriority(0x40, 3);

    Cycles lastRaise = 0;
    for (int step = 0;
         step < 20000 && core.stats().preemptions == 0; ++step) {
        core.runCycles(25);
        if (core.intrUnit().state() == TrackerState::Committed &&
            core.now() - lastRaise > 1500) {
            core.intrUnit().raise(IntrSource::UserIpi, 0x40,
                                  core.now());
            lastRaise = core.now();
        }
    }
    ASSERT_GE(core.stats().preemptions, 1u);
    core.runCycles(30000);
    EXPECT_GE(core.stats().preemptRestores, 1u);
    EXPECT_GT(core.stats().ffEntries, 0u);
    EXPECT_GE(core.stats().interruptsRaised,
              core.stats().interruptsDelivered);
}

/** A cycle hook demanding detail (the sampler in a burst) vetoes
 *  fast-forward entry for as long as the demand stands. */
TEST(FastForward, WantDetailUntilVetoesEntry)
{
    struct DemandHook : CycleHook
    {
        void onCycle(const OooCore &, bool, bool) override {}
    };

    Program p = makeSpinLoop();
    CoreParams params;
    params.strategy = DeliveryStrategy::Tracked;
    params.fastForward = true;
    params.detailWindow = 64;
    params.ffWarmup = 16;

    UarchSystem vetoed(7);
    OooCore &core = vetoed.addCore(params, &p);
    core.kbTimer().configure(true, 0x21);
    core.kbTimer().setTimer(0, 8000, KbTimerMode::Periodic);
    DemandHook hook;
    hook.wantDetailUntil = ~Cycles(0);
    core.setCycleHook(&hook);
    core.runCycles(40000);
    EXPECT_EQ(core.stats().ffEntries, 0u);

    UarchSystem control(7);
    OooCore &free_core = control.addCore(params, &p);
    free_core.kbTimer().configure(true, 0x21);
    free_core.kbTimer().setTimer(0, 8000, KbTimerMode::Periodic);
    free_core.runCycles(40000);
    EXPECT_GT(free_core.stats().ffEntries, 0u);
}

TEST(FastForward, SampledLatenciesWithinTolerance)
{
    // Fixed simulated-cycle horizon (targetInsts trivially met, the
    // run is all extraCycles): both modes see the same wall of
    // simulated time and hence the same periodic-timer raise
    // schedule, so delivery counts and latency distributions are
    // directly comparable. Fixed-instruction runs are not — the IPC
    // model's error changes how many timer periods fit.
    ScenarioConfig cfg = goldenCorpusConfig(4, DeliveryStrategy::Tracked);
    cfg.timerPeriod = 2000;
    cfg.targetInsts = 1;
    cfg.extraCycles = 100000;
    ScenarioResult detail = runScenario(cfg);
    cfg.fastForward = true;
    ScenarioResult sampled = runScenario(cfg);
    ASSERT_TRUE(detail.ok());
    ASSERT_TRUE(sampled.ok());
    ASSERT_GT(sampled.ffCycles, 0u);
    StatEquivalenceReport rep = checkStatEquivalence(
        detail.intrRecords, sampled.intrRecords, 5.0);
    EXPECT_TRUE(rep.ok) << rep.message;
}

TEST(StatCheck, PercentilesAreNearestRank)
{
    std::vector<IntrRecord> recs;
    for (std::uint64_t i = 1; i <= 100; ++i) {
        IntrRecord r;
        r.source = IntrSource::KbTimer;
        r.raisedAt = 0;
        r.deliveryCommitAt = i;
        recs.push_back(r);
    }
    LatencyDist d = deliveryLatencyDist(recs, IntrSource::KbTimer);
    EXPECT_EQ(d.count, 100u);
    EXPECT_DOUBLE_EQ(d.p50, 50.0);
    EXPECT_DOUBLE_EQ(d.p99, 99.0);
    EXPECT_DOUBLE_EQ(d.mean, 50.5);
    // Other sources see none of these records.
    EXPECT_EQ(deliveryLatencyDist(recs, IntrSource::UserIpi).count,
              0u);
}

TEST(StatCheck, DriftBeyondToleranceFails)
{
    auto mkRecs = [](Cycles lat, std::uint64_t n) {
        std::vector<IntrRecord> recs;
        for (std::uint64_t i = 0; i < n; ++i) {
            IntrRecord r;
            r.source = IntrSource::KbTimer;
            r.raisedAt = 100 * i;
            r.deliveryCommitAt = 100 * i + lat;
            recs.push_back(r);
        }
        return recs;
    };
    std::vector<IntrRecord> detail = mkRecs(100, 20);
    EXPECT_TRUE(
        checkStatEquivalence(detail, mkRecs(104, 20), 5.0).ok);
    EXPECT_FALSE(
        checkStatEquivalence(detail, mkRecs(110, 20), 5.0).ok);
    // Source present in detail but missing from the sampled run.
    EXPECT_FALSE(checkStatEquivalence(detail, {}, 5.0).ok);
    // Delivered-count drift beyond 2x tolerance.
    EXPECT_FALSE(
        checkStatEquivalence(detail, mkRecs(100, 10), 5.0).ok);
    // Nothing to compare at all.
    EXPECT_FALSE(checkStatEquivalence({}, {}, 5.0).ok);
}

TEST(CoSim, BulkAdvancesBetweenDesEvents)
{
    Program p = makeSpinLoop();
    CoreParams params;
    params.strategy = DeliveryStrategy::Tracked;
    params.fastForward = true;
    params.detailWindow = 256;
    params.ffWarmup = 128;
    UarchSystem sys(5);
    OooCore &core = sys.addCore(params, &p);
    sys.registerRoute(core, 0x5);

    Simulation sim(9);
    std::uint64_t injected = 0;
    PeriodicEvent inj(sim.queue(), 3000, [&] {
        ++injected;
        sys.injectUipi(core, 0x5);
        return true;
    });
    inj.start(1000);

    runCoSim(sim, sys, 60000);
    EXPECT_EQ(sys.now(), 60000u);
    EXPECT_EQ(injected, 20u);  // 1000, 4000, ..., 58000
    EXPECT_GE(core.stats().interruptsDelivered, 15u);
    EXPECT_GT(core.stats().ffEntries, 0u);
    // The DES tier never ran ahead of the cycle tier.
    EXPECT_LE(sim.now(), sys.now());
}

TEST(CoSim, IdleDesQueueStillReachesTheLimit)
{
    Program p = makeSpinLoop();
    CoreParams params;
    params.strategy = DeliveryStrategy::Tracked;
    UarchSystem sys(1);
    sys.addCore(params, &p);
    Simulation sim(1);
    runCoSim(sim, sys, 5000);
    EXPECT_EQ(sys.now(), 5000u);
}

} // namespace
} // namespace xui
