/**
 * @file
 * Mixed-criticality delivery tests: the per-vector priority layer
 * on both tiers.
 *
 *  - InterruptUnit arbitration differentially tested against a
 *    brute-force highest-priority/oldest-first reference (and the
 *    FIFO degeneration with an all-default table);
 *  - the uarch preempt -> nested-deliver -> resume state machine,
 *    both on the unit in isolation and end to end through a real
 *    OooCore run;
 *  - the kernel occupancy engine differentially tested against an
 *    independent event-stepping reference across random arrival
 *    interleavings x all four (behavior x trigger) policy combos,
 *    with DeliveryLedger conservation attached;
 *  - the analytical bound engine (computeDeliveryBounds) and the
 *    BoundChecker observer, including the negative test proving a
 *    deliberately mis-set bound is caught;
 *  - strict exit-2 death tests for the --rt-vector / --priority
 *    bench flags (test_obs.cc flag-battery style).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "../bench/bench_util.hh"
#include "des/simulation.hh"
#include "fault/invariants.hh"
#include "intr/policy.hh"
#include "obs/metrics.hh"
#include "os/cost_model.hh"
#include "os/kernel.hh"
#include "stats/digest.hh"
#include "stats/rng.hh"
#include "uarch/interrupt_unit.hh"
#include "uarch/uarch_system.hh"
#include "verify/bound.hh"
#include "workloads/kernels.hh"

using namespace xui;

namespace
{

std::uint64_t
counterOf(const MetricsRegistry &m, const char *name)
{
    const Counter *c = m.findCounter(name);
    return c != nullptr ? c->value() : 0;
}

// ----- InterruptUnit arbitration vs brute force ---------------------

/** Mirror of one pending raise for the reference model. */
struct RefRaise
{
    std::uint8_t vector;
    std::uint8_t prio;
    std::uint64_t order;
};

/**
 * Brute-force pick: highest priority wins, the oldest entry breaks
 * ties. Written as a plain linear argmax so it shares no structure
 * with the unit's deque scan.
 */
std::size_t
refPick(const std::vector<RefRaise> &pending)
{
    std::size_t best = 0;
    for (std::size_t i = 1; i < pending.size(); ++i) {
        if (pending[i].prio > pending[best].prio ||
            (pending[i].prio == pending[best].prio &&
             pending[i].order < pending[best].order))
            best = i;
    }
    return best;
}

void
runUnitDifferential(std::uint64_t seed, bool withPriorities)
{
    Rng rng(seed * 0x9e3779b97f4a7c15ull + 5);
    InterruptUnit u;
    std::uint8_t prio[8] = {};
    if (withPriorities) {
        for (unsigned v = 0; v < 8; ++v) {
            prio[v] = static_cast<std::uint8_t>(
                rng.nextBounded(kNumPriorityLevels));
            u.setVectorPriority(static_cast<std::uint8_t>(v),
                                prio[v]);
        }
    }

    std::vector<RefRaise> ref;
    std::uint64_t order = 0;
    Cycles now = 0;
    unsigned raisesLeft = 12 + static_cast<unsigned>(
        rng.nextBounded(24));

    while (raisesLeft > 0 || !ref.empty()) {
        bool doRaise = raisesLeft > 0 &&
            (ref.empty() || rng.nextBounded(2) == 0);
        if (doRaise) {
            auto v = static_cast<std::uint8_t>(rng.nextBounded(8));
            now += 1 + rng.nextBounded(50);
            ASSERT_NE(u.raise(IntrSource::UserIpi, v, now), 0u);
            ref.push_back(RefRaise{v, prio[v], order++});
            --raisesLeft;
            continue;
        }
        ASSERT_TRUE(u.canAccept());
        std::size_t want = refPick(ref);
        PendingIntr got = u.accept();
        EXPECT_EQ(got.vector, ref[want].vector)
            << "seed " << seed << " after "
            << (order - ref.size()) << " accepts";
        ref.erase(ref.begin() + static_cast<std::ptrdiff_t>(want));
        // Drive one full delivery so the tracker returns to Idle.
        u.onInjected();
        u.onFirstIntrCommit();
        u.onHandlerReturn();
    }
    EXPECT_FALSE(u.pendingAvailable());
}

} // namespace

TEST(PriorityArbitration, UnitDifferentialVsBruteForce)
{
    // Random raise/accept interleavings across 8 vectors spread over
    // all 4 priority levels: the unit must agree with the reference
    // pick on every accept.
    for (std::uint64_t seed = 1; seed <= 32; ++seed)
        runUnitDifferential(seed, true);
}

TEST(PriorityArbitration, AllDefaultTableDegeneratesToFifo)
{
    // With no vector above level 0 the reference argmax always
    // lands on the oldest entry, so the same differential doubles
    // as the FIFO-compatibility pin.
    for (std::uint64_t seed = 1; seed <= 16; ++seed)
        runUnitDifferential(seed, false);
}

TEST(PriorityArbitration, UnitPreemptAndNestedReturn)
{
    InterruptUnit u;
    u.setVectorPriority(9, 2);

    // Deliver a best-effort vector up to the Committed state.
    ASSERT_NE(u.raise(IntrSource::UserIpi, 1, 10), 0u);
    ASSERT_TRUE(u.canAccept());
    EXPECT_EQ(u.accept().vector, 1);
    u.onInjected();
    u.onFirstIntrCommit();
    ASSERT_EQ(u.state(), TrackerState::Committed);
    EXPECT_FALSE(u.shouldPreempt()) << "nothing pending";

    // An equal-priority pending vector must never preempt.
    ASSERT_NE(u.raise(IntrSource::UserIpi, 3, 20), 0u);
    EXPECT_FALSE(u.shouldPreempt());

    // A strictly higher one must.
    ASSERT_NE(u.raise(IntrSource::UserIpi, 9, 30), 0u);
    ASSERT_TRUE(u.shouldPreempt());
    PendingIntr nested = u.beginPreempt();
    EXPECT_EQ(nested.vector, 9);
    EXPECT_EQ(u.state(), TrackerState::Pending);
    EXPECT_TRUE(u.inNestedDelivery());
    EXPECT_EQ(u.preemptDepth(), 1u);

    // The nested delivery runs like any other; a best-effort raise
    // mid-nested stays pending.
    u.onInjected();
    u.onFirstIntrCommit();
    ASSERT_NE(u.raise(IntrSource::UserIpi, 4, 40), 0u);
    EXPECT_FALSE(u.shouldPreempt());
    u.onHandlerReturn();
    u.onNestedReturn();

    // The preempted delivery is current again, still architecturally
    // committed, and finishes normally.
    EXPECT_EQ(u.state(), TrackerState::Committed);
    EXPECT_EQ(u.current().vector, 1);
    EXPECT_FALSE(u.inNestedDelivery());
    u.onHandlerReturn();

    // The two parked best-effort vectors drain FIFO.
    ASSERT_TRUE(u.canAccept());
    EXPECT_EQ(u.accept().vector, 3);
    u.onInjected();
    u.onFirstIntrCommit();
    u.onHandlerReturn();
    ASSERT_TRUE(u.canAccept());
    EXPECT_EQ(u.accept().vector, 4);
}

TEST(PriorityPreemption, UarchNestedDeliveryPreemptsRunningHandler)
{
    // End to end through a real core: periodic KB-timer handlers at
    // the default level, and a level-3 vector raised whenever a
    // handler is architecturally committed. At least one raise must
    // land in the preemption gate, save the running handler, deliver
    // nested, and resume.
    Program p = makePointerChase(30, 256ull << 10, false);
    CoreParams params;
    params.strategy = DeliveryStrategy::Tracked;
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

    // Let the nested handler return and the preempted one resume.
    core.runCycles(30000);
    EXPECT_GE(core.stats().preemptRestores, 1u);
    EXPECT_FALSE(core.intrUnit().inNestedDelivery());

    bool found = false;
    for (const IntrRecord &r : core.stats().intrRecords) {
        if (!r.preempting)
            continue;
        found = true;
        EXPECT_EQ(r.vector, 0x40);
        // Save window precedes the nested injection; the restore
        // window follows the nested uiret and closes the record.
        EXPECT_NE(r.saveStartAt, 0u);
        EXPECT_LE(r.saveStartAt, r.injectedAt);
        EXPECT_LE(r.deliveryExecAt, r.uiretCommitAt);
        EXPECT_GE(r.restoredAt, r.uiretCommitAt);
    }
    EXPECT_TRUE(found) << "no preempting IntrRecord captured";
}

// ----- kernel occupancy engine vs event-stepping reference ----------

namespace
{

/** One engine arrival, as the kernel reports it (Accept). */
struct RefArrival
{
    Cycles at;
    unsigned vector;
    unsigned prio;
    Cycles cost;
};

/** (vector, handler-start time): the kernel's Deliver stage. */
using RefDelivery = std::pair<unsigned, Cycles>;

/**
 * Independent reference for the kernel occupancy engine: a two-event
 * time-stepping interpreter (next arrival vs. next state-transition)
 * over the same semantics — non-preemptible save/restore windows,
 * (prio desc, arrival asc) deferred order, strictly-higher deferred
 * beats the resumable frame at completion, and an arrival that
 * outranks a frame resumed during its restore window preempts the
 * moment the frame is live.
 *
 * @return false when an arrival collides to the cycle with a state
 *         transition: the DES event order for that tie depends on
 *         insertion history, so the trial is skipped rather than
 *         guessed (the caller asserts skips stay rare).
 */
bool
referenceEngine(const std::vector<RefArrival> &arrivals, Cycles save,
                Cycles restore, std::vector<RefDelivery> &out)
{
    enum class St : std::uint8_t { Idle, Saving, Restoring, Running };
    struct Frame
    {
        unsigned vector;
        unsigned prio;
        Cycles remaining;
    };
    struct Waiting
    {
        unsigned vector;
        unsigned prio;
        Cycles cost;
    };

    constexpr Cycles kNever = ~Cycles(0);
    St st = St::Idle;
    Cycles stateEnd = 0;
    std::vector<Frame> stack;
    std::vector<Waiting> waiting;  // prio desc, arrival order asc
    std::size_t next = 0;

    auto enqueue = [&waiting](const RefArrival &a) {
        std::size_t i = 0;
        while (i < waiting.size() && waiting[i].prio >= a.prio)
            ++i;
        waiting.insert(waiting.begin() +
                           static_cast<std::ptrdiff_t>(i),
                       Waiting{a.vector, a.prio, a.cost});
    };
    auto startBest = [&](Cycles now) {
        Waiting w = waiting.front();
        waiting.erase(waiting.begin());
        stack.push_back(Frame{w.vector, w.prio, 0});
        st = St::Running;
        stateEnd = now + w.cost;
        out.emplace_back(w.vector, now);
    };
    auto preempt = [&](Cycles now) {
        stack.back().remaining = stateEnd - now;
        st = St::Saving;
        stateEnd = now + save;
    };

    while (next < arrivals.size() || st != St::Idle) {
        Cycles tArr = next < arrivals.size() ? arrivals[next].at
                                             : kNever;
        Cycles tAdv = st != St::Idle ? stateEnd : kNever;
        if (tArr == tAdv)
            return false;  // ambiguous same-cycle ordering
        if (tArr < tAdv) {
            enqueue(arrivals[next++]);
            if (st == St::Idle)
                startBest(tArr);
            else if (st == St::Running &&
                     waiting.front().prio > stack.back().prio)
                preempt(tArr);
            continue;
        }
        Cycles now = tAdv;
        switch (st) {
          case St::Saving:
            startBest(now);
            break;
          case St::Running: {
            stack.pop_back();
            bool startNext = !waiting.empty() &&
                (stack.empty() ||
                 waiting.front().prio > stack.back().prio);
            if (startNext) {
                startBest(now);
            } else if (!stack.empty()) {
                st = St::Restoring;
                stateEnd = now + restore;
            } else {
                st = St::Idle;
            }
            break;
          }
          case St::Restoring:
            st = St::Running;
            stateEnd = now + stack.back().remaining;
            if (!waiting.empty() &&
                waiting.front().prio > stack.back().prio)
                preempt(now);
            break;
          case St::Idle:
            break;
        }
    }
    return true;
}

struct EngineTrial
{
    std::vector<RefArrival> arrivals;
    std::vector<RefDelivery> deliveries;
    /**
     * FNV-1a over the ordered engine stream: a raise folds
     * (0, vector, prio, cycle), a deliver folds (1, vector, cycle).
     */
    Fnv1a hookStream;
    bool ledgerOk = false;
    bool drainedIdle = false;
};

/**
 * Records the kernel's occupancy-engine stream into a trial: Accept
 * is an arrival, with the priority and handler cost the test
 * configured for its vector; Deliver is a handler start.
 */
struct EngineRecorder : IntrLifecycleObserver
{
    EngineTrial &trial;
    /** Per-vector DeliveryPolicy::priority the test set. */
    unsigned prio[64] = {};
    /** Per-vector handler cost the test set. */
    Cycles cost[64] = {};

    explicit EngineRecorder(EngineTrial &t) : trial(t) {}

    void intrStage(IntrStage stage, std::uint64_t, IntrSource,
                   std::uint8_t v, Cycles now, unsigned) override
    {
        if (stage == IntrStage::Accept) {
            trial.arrivals.push_back(
                RefArrival{now, v, prio[v], cost[v]});
            trial.hookStream.update(0);
            trial.hookStream.update(v);
            trial.hookStream.update(prio[v]);
            trial.hookStream.update(now);
        } else if (stage == IntrStage::Deliver) {
            trial.deliveries.emplace_back(v, now);
            trial.hookStream.update(1);
            trial.hookStream.update(v);
            trial.hookStream.update(now);
        }
    }
};

/**
 * One kernel run: four vectors spread over the priority levels with
 * random handler costs and random send times into an
 * always-scheduled receiver, every delivery routed through the
 * occupancy engine. Arrival times come from the engine's Accept
 * stage, so the reference is decoupled from the notification-path
 * costs and tests exactly the engine.
 */
EngineTrial
runEngineTrial(std::uint64_t seed, const CostModel &costs,
               DeliveryBehavior behavior, TriggerMode trigger)
{
    EngineTrial trial;
    Simulation sim(seed);
    Kernel kernel(sim, costs, 2);
    fault::DeliveryLedger ledger;
    EngineRecorder rec(trial);
    IntrObserverTee tee;
    tee.add(&ledger);
    tee.add(&rec);
    kernel.setIntrObserver(&tee);

    Rng rng(seed * 0x2545f4914f6cdd1dull + 99);

    ThreadId recv = kernel.createThread();
    kernel.registerHandler(recv, [](unsigned) {});
    kernel.scheduleOn(recv, 1);

    for (unsigned v = 1; v <= 4; ++v) {
        int route = kernel.registerSender(
            recv, static_cast<std::uint8_t>(v));
        EXPECT_GE(route, 0);
        DeliveryPolicy p;
        p.behavior = behavior;
        p.trigger = trigger;
        p.priority = clampPriority(
            static_cast<unsigned>(rng.nextBounded(
                kNumPriorityLevels)));
        kernel.setDeliveryPolicy(recv, v, p);
        rec.prio[v] = p.priority;
        rec.cost[v] = 200 + rng.nextBounded(2500);
        kernel.setHandlerCost(recv, v, rec.cost[v]);

        unsigned sends = 4 + static_cast<unsigned>(
            rng.nextBounded(8));
        for (unsigned s = 0; s < sends; ++s) {
            Cycles at = 1000 + rng.nextBounded(40000);
            sim.queue().scheduleAt(at, [&kernel, route] {
                kernel.senduipi(route);
            });
        }
    }

    for (;;) {
        Cycles nextAt = sim.queue().peekNextTime();
        if (nextAt == EventQueue::kNoPending)
            break;
        sim.runUntil(nextAt);
    }

    trial.ledgerOk = ledger.ok();
    trial.drainedIdle = kernel.engineIdle(recv) &&
        kernel.enginePreemptDepth(recv) == 0 &&
        kernel.engineDeferredCount(recv) == 0;
    return trial;
}

} // namespace

TEST(PriorityPreemption, KernelEngineDifferentialVsReference)
{
    // Random interleavings across 4 priority levels x edge/level
    // triggers x NEXT_ONLY/NEXT_OR_MISSED: with the receiver always
    // scheduled, all four policy combos must produce the identical
    // delivery timeline, and each must match the independent
    // reference exactly — vector and cycle.
    const CostModel costs;
    const struct
    {
        DeliveryBehavior behavior;
        TriggerMode trigger;
    } combos[] = {
        {DeliveryBehavior::NextOrMissed, TriggerMode::Edge},
        {DeliveryBehavior::NextOrMissed, TriggerMode::Level},
        {DeliveryBehavior::NextOnly, TriggerMode::Edge},
        {DeliveryBehavior::NextOnly, TriggerMode::Level},
    };

    unsigned compared = 0;
    unsigned skippedTies = 0;
    for (std::uint64_t seed = 1; seed <= 24; ++seed) {
        std::vector<RefDelivery> firstCombo;
        for (std::size_t c = 0; c < std::size(combos); ++c) {
            EngineTrial t = runEngineTrial(seed, costs,
                                           combos[c].behavior,
                                           combos[c].trigger);
            ASSERT_FALSE(t.arrivals.empty()) << "seed " << seed;
            EXPECT_TRUE(t.ledgerOk) << "seed " << seed;
            EXPECT_TRUE(t.drainedIdle) << "seed " << seed;

            if (c == 0)
                firstCombo = t.deliveries;
            else
                EXPECT_EQ(t.deliveries, firstCombo)
                    << "seed " << seed << " combo " << c
                    << ": policy combo changed the engine timeline";

            std::vector<RefDelivery> expected;
            if (!referenceEngine(t.arrivals, costs.preemptSave,
                                 costs.preemptRestore, expected)) {
                ++skippedTies;
                continue;
            }
            ++compared;
            ASSERT_EQ(t.deliveries.size(), expected.size())
                << "seed " << seed << " combo " << c;
            for (std::size_t i = 0; i < expected.size(); ++i) {
                EXPECT_EQ(t.deliveries[i].first,
                          expected[i].first)
                    << "seed " << seed << " combo " << c
                    << " delivery " << i;
                EXPECT_EQ(t.deliveries[i].second,
                          expected[i].second)
                    << "seed " << seed << " combo " << c
                    << " delivery " << i;
            }
        }
    }
    // Same-cycle ties are skipped, not guessed — but they must stay
    // the rare exception or the differential is vacuous.
    EXPECT_GT(compared, skippedTies * 4)
        << compared << " compared vs " << skippedTies << " skipped";
}

TEST(PriorityPreemption, KernelEngineHookStreamPinned)
{
    // The engine's raise/deliver stream, in order, for every policy
    // combo at three seeds: any change to arrival order, priority,
    // or handler-start cycle moves the digest.
    const CostModel costs;
    const DeliveryBehavior behaviors[] = {
        DeliveryBehavior::NextOrMissed, DeliveryBehavior::NextOnly};
    const TriggerMode triggers[] = {TriggerMode::Edge,
                                    TriggerMode::Level};
    Fnv1a all;
    std::uint64_t events = 0;
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        for (DeliveryBehavior b : behaviors) {
            for (TriggerMode tm : triggers) {
                EngineTrial t = runEngineTrial(seed, costs, b, tm);
                all.update(t.hookStream.value());
                events += t.arrivals.size() + t.deliveries.size();
            }
        }
    }
    EXPECT_EQ(events, 648u);
    EXPECT_EQ(all.value(), 0xd6ecd6935acbee9dull);
}

TEST(PriorityPreemption, KernelEngineNestedTimelineExact)
{
    // Deterministic two-vector co-tenancy: the level-3 arrival lands
    // mid-frame, pays exactly the preempt-save window, runs nested,
    // and the best-effort frame resumes after a restore window.
    Simulation sim(7);
    CostModel costs;
    Kernel kernel(sim, costs, 2);
    MetricsRegistry metrics;
    kernel.attachMetrics(metrics);

    EngineTrial trial;
    EngineRecorder rec(trial);
    kernel.setIntrObserver(&rec);
    const std::vector<RefArrival> &arrivals = trial.arrivals;
    const std::vector<RefDelivery> &deliveries = trial.deliveries;

    ThreadId recv = kernel.createThread();
    kernel.registerHandler(recv, [](unsigned) {});
    kernel.scheduleOn(recv, 1);

    int lo = kernel.registerSender(recv, 5);
    int hi = kernel.registerSender(recv, 9);
    ASSERT_GE(lo, 0);
    ASSERT_GE(hi, 0);
    DeliveryPolicy ploHi;
    ploHi.priority = 3;
    kernel.setDeliveryPolicy(recv, 9, ploHi);
    rec.prio[9] = ploHi.priority;
    kernel.setHandlerCost(recv, 5, 5000);
    kernel.setHandlerCost(recv, 9, 300);

    sim.queue().scheduleAt(1000, [&kernel, lo] {
        kernel.senduipi(lo);
    });
    sim.queue().scheduleAt(3000, [&kernel, hi] {
        kernel.senduipi(hi);
    });
    for (;;) {
        Cycles nextAt = sim.queue().peekNextTime();
        if (nextAt == EventQueue::kNoPending)
            break;
        sim.runUntil(nextAt);
    }

    ASSERT_EQ(arrivals.size(), 2u);
    ASSERT_EQ(deliveries.size(), 2u);
    EXPECT_EQ(deliveries[0].first, 5u);
    EXPECT_EQ(deliveries[0].second, arrivals[0].at);
    EXPECT_EQ(deliveries[1].first, 9u);
    EXPECT_EQ(deliveries[1].second,
              arrivals[1].at + costs.preemptSave);

    EXPECT_EQ(counterOf(metrics, "kernel.preempt.preemptions"), 1u);
    EXPECT_EQ(counterOf(metrics, "kernel.preempt.resumes"), 1u);
    EXPECT_EQ(counterOf(metrics, "kernel.preempt.completions"), 2u);
    EXPECT_TRUE(kernel.engineIdle(recv));
    EXPECT_EQ(kernel.enginePreemptDepth(recv), 0u);
}

// ----- analytical bounds + BoundChecker ------------------------------

namespace
{

std::vector<VectorProfile>
coTenantProfiles()
{
    // Mirrors the bench co-tenancy mix: three best-effort levels
    // plus a level-3 RT vector.
    std::vector<VectorProfile> profiles(4);
    profiles[0] = {1, 0, 5000, 20000, 0};
    profiles[1] = {2, 1, 2500, 15000, 0};
    profiles[2] = {3, 2, 1200, 12000, 0};
    profiles[3] = {9, 3, 200, 6000, 0};
    return profiles;
}

} // namespace

TEST(DeliveryBounds, StructureOfBlockingAndInterference)
{
    CostModel costs;
    std::vector<DeliveryBound> bounds =
        computeDeliveryBounds(costs, coTenantProfiles());
    ASSERT_EQ(bounds.size(), 4u);
    Cycles path = costs.preemptSave + costs.preemptRestore +
        costs.ipiWire + costs.uipiTrackedReceive;
    for (const DeliveryBound &b : bounds) {
        EXPECT_TRUE(b.converged) << "vector " << b.vector;
        // The bound always decomposes as blocking + interference.
        EXPECT_EQ(b.bound, b.blocking + b.interference)
            << "vector " << b.vector;
        EXPECT_GE(b.blocking, path) << "vector " << b.vector;
    }
    // The top level is never preempted: no interference, and its
    // blocking carries the longest lower-priority frame (5000).
    EXPECT_EQ(bounds[3].interference, 0u);
    EXPECT_EQ(bounds[3].blocking, Cycles(5000) + path);
    // The bottom level has nothing below it to block on (its
    // blocking is the bare path cost) but everyone above preempts:
    // strictly positive, growing as priority drops.
    EXPECT_EQ(bounds[0].blocking, path);
    EXPECT_GT(bounds[0].interference, bounds[1].interference);
    EXPECT_GT(bounds[1].interference, bounds[2].interference);
    EXPECT_GT(bounds[2].interference, bounds[3].interference);
    // NOTE: bound(P) is deliberately NOT monotone in P — a low
    // level with no frames beneath it trades blocking for
    // interference. The checked artifact is the per-vector bound,
    // not a cross-level ordering.
}

TEST(DeliveryBounds, OverloadedProfileReportsDivergence)
{
    CostModel costs;
    std::vector<VectorProfile> profiles(2);
    // A higher-priority tenant whose cost exceeds its period can
    // never admit a fixed point for the level below it.
    profiles[0] = {1, 3, 2000, 1000, 0};
    profiles[1] = {2, 0, 500, 100000, 0};
    std::vector<DeliveryBound> bounds =
        computeDeliveryBounds(costs, profiles);
    ASSERT_EQ(bounds.size(), 2u);
    EXPECT_TRUE(bounds[0].converged);
    EXPECT_FALSE(bounds[1].converged);
}

TEST(BoundChecker, MisSetBoundIsCaught)
{
    // The negative test: a deliberately absurd 1-cycle bound must
    // produce a violation for the matching raise/deliver pair.
    BoundChecker checker;
    checker.setBound(9, 3, 1);
    checker.onRaise(9, 1000);
    checker.onDeliver(9, 1180);
    EXPECT_FALSE(checker.ok());
    ASSERT_EQ(checker.violations().size(), 1u);
    EXPECT_NE(checker.violations()[0].find("exceeds bound"),
              std::string::npos);
    EXPECT_EQ(checker.maxObservedVector(9), 180u);
    EXPECT_EQ(checker.maxObserved(3), 180u);
    EXPECT_EQ(checker.matched(), 1u);
}

TEST(BoundChecker, MeasuresFromEngineArrivalNotPost)
{
    // Attached to the kernel, the checker starts the clock at the
    // engine's Accept, not at the post (Raise): a vector posted to a
    // descheduled receiver at 1000 and drained by the resume at 5000
    // arrives, and starts its frame, at 5000.
    Simulation sim(3);
    CostModel costs;
    Kernel kernel(sim, costs, 2);
    BoundChecker checker;
    checker.setBound(9, 3, 100);
    kernel.setIntrObserver(&checker);

    ThreadId recv = kernel.createThread();
    kernel.registerHandler(recv, [](unsigned) {});
    int idx = kernel.registerSender(recv, 9);
    ASSERT_GE(idx, 0);
    kernel.setHandlerCost(recv, 9, 300);

    sim.queue().scheduleAt(1000, [&kernel, idx] {
        kernel.senduipi(idx);
    });
    sim.queue().scheduleAt(5000, [&kernel, recv] {
        kernel.scheduleOn(recv, 1);
    });
    sim.runUntil(10000);

    EXPECT_EQ(checker.matched(), 1u);
    EXPECT_EQ(checker.maxObservedVector(9), 0u);
    EXPECT_TRUE(checker.ok());
}

namespace
{

/**
 * Feeds a BoundChecker from the post (Raise) rather than the engine
 * arrival (Accept), so the lag a moderation window adds between the
 * two counts toward the observed latency.
 */
struct PostToFrameFeed : IntrLifecycleObserver
{
    explicit PostToFrameFeed(BoundChecker &c) : checker(c) {}

    void intrStage(IntrStage stage, std::uint64_t, IntrSource,
                   std::uint8_t vector, Cycles cycle,
                   unsigned) override
    {
        if (stage == IntrStage::Raise)
            checker.onRaise(vector, cycle);
        else if (stage == IntrStage::Deliver)
            checker.onDeliver(vector, cycle);
    }

    BoundChecker &checker;
};

} // namespace

TEST(BoundChecker, ModerationWindowIsPartOfTheBound)
{
    // A resident receiver with a costed handler behind a 2000-cycle
    // coalescing window: each post waits out the window, so it
    // starts its frame 2000 cycles after the post. The bound covers
    // that lag only through the profile's moderation term.
    constexpr unsigned kVec = 9;
    constexpr Cycles kWindow = 2000;
    auto run = [&](Cycles profiledWindow) {
        Simulation sim(3);
        CostModel costs;
        Kernel kernel(sim, costs, 2);
        VectorProfile profile{kVec, 0, 300, 0, profiledWindow};
        std::vector<DeliveryBound> bounds =
            computeDeliveryBounds(costs, {profile});
        BoundChecker checker;
        checker.setBound(kVec, 0, bounds[0].bound);
        PostToFrameFeed feed(checker);
        kernel.setIntrObserver(&feed);

        ThreadId recv = kernel.createThread();
        kernel.registerHandler(recv, [](unsigned) {});
        kernel.scheduleOn(recv, 0);
        int idx = kernel.registerSender(recv, kVec);
        kernel.setHandlerCost(recv, kVec, profile.handlerCost);
        ModerationParams mp;
        mp.coalesceWindow = kWindow;
        kernel.setModeration(recv, kVec, mp);

        for (Cycles at : {Cycles(1000), Cycles(20000)})
            sim.queue().scheduleAt(at, [&kernel, idx] {
                kernel.senduipi(idx);
            });
        sim.runUntil(50000);
        EXPECT_EQ(checker.matched(), 2u);
        EXPECT_EQ(checker.maxObservedVector(kVec), kWindow);
        return checker.violations();
    };

    EXPECT_TRUE(run(kWindow).empty());
    // Without the window the bound is the bare path cost, shorter
    // than the moderation lag: both deliveries violate it.
    std::vector<std::string> violations = run(0);
    ASSERT_EQ(violations.size(), 2u);
    EXPECT_NE(violations[0].find("exceeds bound"), std::string::npos);
}

TEST(BoundChecker, WithinBoundStaysClean)
{
    BoundChecker checker;
    checker.setBound(9, 3, 500);
    checker.onRaise(9, 1000);
    checker.onDeliver(9, 1180);
    // FIFO matching: a second raise pairs with the next delivery.
    checker.onRaise(9, 2000);
    checker.onDeliver(9, 2499);
    EXPECT_TRUE(checker.ok());
    EXPECT_EQ(checker.matched(), 2u);
    EXPECT_EQ(checker.maxObservedVector(9), 499u);

    // A delivery with no outstanding raise (a replayed continuation)
    // is ignored, never treated as a zero-latency observation.
    checker.onDeliver(9, 9000);
    EXPECT_TRUE(checker.ok());
    EXPECT_EQ(checker.matched(), 2u);

    // An unbounded vector is tracked but never flagged.
    checker.onRaise(4, 100);
    checker.onDeliver(4, 90000);
    EXPECT_TRUE(checker.ok());
    EXPECT_EQ(checker.maxObservedVector(4), 89900u);
}

// ----- --rt-vector / --priority flag battery -------------------------

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

TEST(PriorityBenchArgs, DefaultsLeaveCoTenancyOff)
{
    bench::Options o = parse({});
    EXPECT_EQ(o.rtVector, 256u) << "256 is the unset sentinel";
    EXPECT_EQ(o.rtPriority, kNumPriorityLevels - 1);
}

TEST(PriorityBenchArgs, RtVectorAndPriorityParse)
{
    bench::Options o = parse({"--rt-vector", "9", "--priority", "2"});
    EXPECT_EQ(o.rtVector, 9u);
    EXPECT_EQ(o.rtPriority, 2u);
    EXPECT_EQ(parse({"--rt-vector", "0"}).rtVector, 0u);
    EXPECT_EQ(parse({"--rt-vector", "63"}).rtVector, 63u);
    EXPECT_EQ(parse({"--priority", "0"}).rtPriority, 0u);
}

TEST(PriorityBenchArgsDeathTest, RtVectorOutOfRangeExitsTwo)
{
    EXPECT_EXIT(parse({"--rt-vector", "64"}),
                ::testing::ExitedWithCode(2),
                "--rt-vector needs an integer in \\[0, 63\\], "
                "got '64'");
    EXPECT_EXIT(parse({"--rt-vector", "256"}),
                ::testing::ExitedWithCode(2),
                "--rt-vector needs an integer in \\[0, 63\\], "
                "got '256'");
}

TEST(PriorityBenchArgsDeathTest, RtVectorGarbageExitsTwo)
{
    EXPECT_EXIT(parse({"--rt-vector", "fast"}),
                ::testing::ExitedWithCode(2),
                "--rt-vector needs an integer in \\[0, 63\\], "
                "got 'fast'");
    EXPECT_EXIT(parse({"--rt-vector", "-1"}),
                ::testing::ExitedWithCode(2),
                "--rt-vector needs an integer in \\[0, 63\\], "
                "got '-1'");
    EXPECT_EXIT(parse({"--rt-vector", "9x"}),
                ::testing::ExitedWithCode(2),
                "--rt-vector needs an integer in \\[0, 63\\], "
                "got '9x'");
}

TEST(PriorityBenchArgsDeathTest, RtVectorMissingValueExitsTwo)
{
    EXPECT_EXIT(parse({"--rt-vector"}),
                ::testing::ExitedWithCode(2),
                "--rt-vector needs a value");
}

TEST(PriorityBenchArgsDeathTest, PriorityOutOfRangeExitsTwo)
{
    EXPECT_EXIT(parse({"--priority", "4"}),
                ::testing::ExitedWithCode(2),
                "--priority needs an integer in \\[0, 3\\], "
                "got '4'");
    EXPECT_EXIT(parse({"--priority", "nope"}),
                ::testing::ExitedWithCode(2),
                "--priority needs an integer in \\[0, 3\\], "
                "got 'nope'");
}

TEST(PriorityBenchArgsDeathTest, PriorityMissingValueExitsTwo)
{
    EXPECT_EXIT(parse({"--priority"}),
                ::testing::ExitedWithCode(2),
                "--priority needs a value");
}
