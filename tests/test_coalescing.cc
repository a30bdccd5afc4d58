/**
 * @file
 * The overload-survival battery's core property tests:
 *
 *  - VectorModerator differential-tested against an independent
 *    reference model over randomized post/flush/cancel streams, plus
 *    a conservation identity (every post is delivered immediately,
 *    flushed in a batch, parked by a cancelled flush, or still
 *    pending — never dropped by the moderator itself);
 *  - DeliveryLedger differential-tested against a brute-force
 *    per-key reference over randomized posted/delivered/abandoned
 *    streams, including the coalesced-satisfied accounting;
 *  - randomized post/deliver/deschedule interleavings across all
 *    four kernel channels (UIPI, KB timer, forwarding, signals)
 *    under randomly drawn delivery policies and moderation configs,
 *    asserting the generalized invariant: every post is delivered,
 *    coalesced into a delivery, or explicitly abandoned — never
 *    silently lost — and the ledger's conservation identity
 *    posted == delivered + coalescedSatisfied + abandoned +
 *    outstanding holds at the end of every run.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "des/simulation.hh"
#include "fault/invariants.hh"
#include "intr/policy.hh"
#include "intr_stream_digest.hh"
#include "obs/metrics.hh"
#include "os/kernel.hh"
#include "stats/rng.hh"

using namespace xui;

// ----------------------------------------------------------------------
// VectorModerator vs reference model
// ----------------------------------------------------------------------

namespace
{

/**
 * Independent restatement of the moderator contract:
 *  - while a flush is scheduled, every post coalesces;
 *  - a post inside the ITR gap opens a window that ends no earlier
 *    than the gap AND a full coalescing window from the post;
 *  - with no rate limit but a coalescing window, every batch opens
 *    with a full window;
 *  - otherwise the post is delivered now and the gap restarts.
 */
struct RefModerator
{
    ModerationParams p;
    bool windowOpen = false;
    Cycles windowEnd = 0;
    Cycles gapEnd = 0;
    std::uint64_t pending = 0;

    explicit RefModerator(ModerationParams params) : p(params) {}

    VectorModerator::Verdict post(Cycles now)
    {
        if (windowOpen) {
            ++pending;
            return VectorModerator::Verdict::Coalesced;
        }
        if (p.itr != 0 && now < gapEnd) {
            windowOpen = true;
            windowEnd = gapEnd;
            if (p.coalesceWindow != 0 &&
                now + p.coalesceWindow > windowEnd)
                windowEnd = now + p.coalesceWindow;
            pending = 1;
            return VectorModerator::Verdict::OpenWindow;
        }
        if (p.itr == 0 && p.coalesceWindow != 0) {
            windowOpen = true;
            windowEnd = now + p.coalesceWindow;
            pending = 1;
            return VectorModerator::Verdict::OpenWindow;
        }
        gapEnd = now + p.itr;
        return VectorModerator::Verdict::Deliver;
    }

    std::uint64_t flush(Cycles now)
    {
        std::uint64_t n = pending;
        windowOpen = false;
        pending = 0;
        gapEnd = now + p.itr;
        return n;
    }

    std::uint64_t cancel()
    {
        std::uint64_t n = pending;
        windowOpen = false;
        pending = 0;
        return n;
    }
};

} // namespace

TEST(Moderator, MatchesReferenceModelOnRandomStreams)
{
    for (std::uint64_t trial = 0; trial < 24; ++trial) {
        Rng rng(0xC0A1E5CEull + trial);
        ModerationParams mp;
        switch (trial % 4) {
          case 0:
            mp.itr = 50 + rng.nextBounded(400);
            mp.coalesceWindow = mp.itr / 2;
            break;
          case 1:
            mp.itr = 50 + rng.nextBounded(400);
            break;
          case 2:
            mp.coalesceWindow = 30 + rng.nextBounded(300);
            break;
          case 3:  // both zero: moderation must be a pass-through
            break;
        }
        VectorModerator mod(mp);
        RefModerator ref(mp);

        std::uint64_t immediate = 0;
        std::uint64_t flushed = 0;
        std::uint64_t cancelled = 0;
        std::uint64_t posts = 0;
        Cycles now = 0;
        for (int op = 0; op < 300; ++op) {
            now += 1 + rng.nextBounded(120);
            if (mod.flushPending() && now >= mod.flushAt() &&
                rng.nextBool(0.7)) {
                if (rng.nextBool(0.15)) {
                    std::uint64_t a = mod.cancelFlush();
                    std::uint64_t b = ref.cancel();
                    EXPECT_EQ(a, b);
                    cancelled += a;
                } else {
                    std::uint64_t a = mod.onFlush(now);
                    std::uint64_t b = ref.flush(now);
                    EXPECT_EQ(a, b);
                    flushed += a;
                }
                continue;
            }
            ++posts;
            auto got = mod.onPost(now);
            auto want = ref.post(now);
            ASSERT_EQ(got, want)
                << "trial " << trial << " op " << op << " now "
                << now;
            if (got == VectorModerator::Verdict::Deliver)
                ++immediate;
            if (got == VectorModerator::Verdict::OpenWindow) {
                EXPECT_EQ(mod.flushAt(), ref.windowEnd);
            }
        }
        // Conservation: the moderator never loses a post.
        std::uint64_t pending =
            mod.flushPending() ? mod.onFlush(now) : 0;
        EXPECT_EQ(posts,
                  immediate + flushed + cancelled + pending)
            << "trial " << trial;
        EXPECT_EQ(mod.posts(), posts);
        if (!mp.enabled()) {
            EXPECT_EQ(posts, immediate)
                << "disabled moderation must pass every post";
        }
    }
}

// ----------------------------------------------------------------------
// DeliveryLedger vs brute-force reference
// ----------------------------------------------------------------------

namespace
{

struct RefKey
{
    std::uint64_t posted = 0;
    std::uint64_t delivered = 0;
    std::uint64_t abandoned = 0;
    std::uint64_t outstanding = 0;
    std::uint64_t phantoms = 0;
    std::uint64_t coalesced = 0;
};

} // namespace

TEST(Ledger, DifferentialAgainstBruteForceReference)
{
    for (std::uint64_t trial = 0; trial < 24; ++trial) {
        Rng rng(0x1ED6E4ull * (trial + 1));
        fault::DeliveryLedger ledger;
        std::map<std::uint64_t, RefKey> ref;

        const IntrSource chans[] = {
            IntrSource::UserIpi, IntrSource::KbTimer,
            IntrSource::Forwarded, IntrSource::Signal};
        for (int op = 0; op < 400; ++op) {
            std::uint64_t key = fault::keyFor(
                chans[rng.nextBounded(4)],
                static_cast<std::uint32_t>(rng.nextBounded(3)),
                static_cast<unsigned>(1 + rng.nextBounded(3)));
            RefKey &rk = ref[key];
            double roll = rng.nextDouble();
            if (roll < 0.55) {
                ledger.onPosted(key);
                ++rk.posted;
                ++rk.outstanding;
            } else if (roll < 0.92) {
                ledger.onDelivered(key);
                ++rk.delivered;
                if (rk.outstanding > 1)
                    rk.coalesced += rk.outstanding - 1;
                rk.outstanding = 0;
                if (rk.delivered > rk.posted)
                    ++rk.phantoms;
            } else {
                ledger.onAbandoned(key);
                ++rk.abandoned;
                rk.outstanding = 0;
            }
        }

        std::uint64_t posted = 0, delivered = 0, abandoned = 0;
        std::uint64_t outstanding = 0, coalesced = 0;
        std::uint64_t expect_violations = 0;
        for (const auto &[key, rk] : ref) {
            posted += rk.posted;
            delivered += rk.delivered;
            abandoned += rk.abandoned;
            outstanding += rk.outstanding;
            coalesced += rk.coalesced;
            expect_violations += rk.phantoms;
            if (rk.delivered > rk.posted)
                continue;  // phantom keys counted eagerly above
            if (rk.posted > 0 && rk.delivered == 0 &&
                rk.abandoned == 0)
                ++expect_violations;  // lost
            else if (rk.outstanding > 0)
                ++expect_violations;  // stranded
        }
        EXPECT_EQ(ledger.posted(), posted);
        EXPECT_EQ(ledger.delivered(), delivered);
        EXPECT_EQ(ledger.abandoned(), abandoned);
        EXPECT_EQ(ledger.outstanding(), outstanding);
        EXPECT_EQ(ledger.coalescedSatisfied(), coalesced);
        EXPECT_EQ(ledger.check().size(), expect_violations)
            << "trial " << trial;
    }
}

TEST(Ledger, CoalescedConservationIdentityOnCleanStream)
{
    // Post/deliver streams with no phantoms or abandons must satisfy
    // posted == delivered-consumed + coalescedSatisfied +
    // outstanding, where each delivery consumes at least one post.
    for (std::uint64_t trial = 0; trial < 8; ++trial) {
        Rng rng(0xACC0ull + trial);
        fault::DeliveryLedger ledger;
        std::uint64_t key = fault::keyFor(IntrSource::UserIpi, 0,
                                          1 + trial % 3);
        std::uint64_t pending = 0;
        for (int op = 0; op < 200; ++op) {
            if (pending == 0 || rng.nextBool(0.6)) {
                ledger.onPosted(key);
                ++pending;
            } else {
                ledger.onDelivered(key);
                pending = 0;
            }
        }
        EXPECT_EQ(ledger.posted(),
                  ledger.delivered() +
                      ledger.coalescedSatisfied() +
                      ledger.outstanding());
        EXPECT_TRUE(ledger.check().empty() ||
                    ledger.outstanding() > 0);
    }
}

// ----------------------------------------------------------------------
// Randomized interleavings across all four kernel channels
// ----------------------------------------------------------------------

namespace
{

/** One randomized kernel run; mirrors the chaos cell shape but with
 *  all four channels active at once and policy/moderation drawn
 *  from the trial seed. */
struct FourChannelRun
{
    std::uint64_t handlerRuns = 0;
    fault::DeliveryLedger ledger;
    /** The whole stage stream, beside the ledger. */
    test::IntrStreamDigest stream;
    MetricsRegistry metrics;
    bool moderated = false;
    bool nextOnly = false;
};

std::uint64_t
counterValue(const MetricsRegistry &m, const char *name)
{
    const Counter *c = m.findCounter(name);
    return c != nullptr ? c->value() : 0;
}

void
runFourChannels(std::uint64_t seed, FourChannelRun &out)
{
    Simulation sim(seed);
    CostModel costs;
    Kernel kernel(sim, costs, 2);
    kernel.attachMetrics(out.metrics);
    IntrObserverTee tee;
    tee.add(&out.ledger);
    tee.add(&out.stream);
    kernel.setIntrObserver(&tee);

    Rng rng(0xF0C4ull ^ (seed * 0x9e3779b97f4a7c15ull));

    // Receiver with all four channels attached.
    ThreadId recv = kernel.createThread();
    kernel.registerHandler(recv,
                           [&out](unsigned) { ++out.handlerRuns; });
    kernel.scheduleOn(recv, 0);

    std::uint8_t uipi_vec =
        static_cast<std::uint8_t>(1 + rng.nextBounded(3));
    int sender = kernel.registerSender(recv, uipi_vec);
    ASSERT_GE(sender, 0);
    int fwd_vec = kernel.registerForwarding(recv, 0);
    ASSERT_GE(fwd_vec, 0);
    kernel.enableKbTimer(recv, 0x21);
    Cycles timer_period = 500 + rng.nextBounded(1500);
    kernel.setTimer(recv, timer_period, KbTimerMode::Periodic);
    int interval_id =
        kernel.setInterval(recv, 900 + rng.nextBounded(1100), 14);
    ASSERT_GE(interval_id, 0);

    // Random policy / moderation on the UIPI vector only: the other
    // channels exercise their legacy coalescing (DUPID park, missed
    // timer, SIGALRM collapse) against the same ledger.
    out.nextOnly = rng.nextBool(0.4);
    DeliveryPolicy pol;
    pol.behavior = out.nextOnly ? DeliveryBehavior::NextOnly
                                : DeliveryBehavior::NextOrMissed;
    pol.trigger = rng.nextBool(0.5) ? TriggerMode::Level
                                    : TriggerMode::Edge;
    kernel.setDeliveryPolicy(recv, uipi_vec, pol);
    out.moderated = rng.nextBool(0.6);
    if (out.moderated) {
        ModerationParams mp;
        mp.itr = 200 + rng.nextBounded(800);
        mp.coalesceWindow = rng.nextBool(0.5) ? mp.itr / 2 : 0;
        kernel.setModeration(recv, uipi_vec, mp);
    }

    const Cycles horizon = 100000;

    // KB timer needs its core polled; tick fast enough to observe
    // every firing window.
    PeriodicEvent poll(sim.queue(), 97, [&] {
        kernel.pollKbTimer(0);
        return true;
    });
    poll.startAfterPeriod();

    // Random deschedule windows (always with a scheduled resume).
    auto openWindow = [&](Cycles len) {
        if (!kernel.isRunning(recv))
            return;
        kernel.deschedule(recv);
        sim.queue().scheduleAfter(len, [&kernel, recv] {
            if (!kernel.isRunning(recv))
                kernel.scheduleOn(recv, 0);
        });
    };
    for (int i = 0; i < 6; ++i) {
        Cycles at = 1 + rng.nextBounded(horizon * 3 / 4);
        Cycles len = 200 + rng.nextBounded(2400);
        sim.queue().scheduleAt(at, [&openWindow, len] {
            openWindow(len);
        });
    }
    // Random posts on the two externally driven channels.
    for (int i = 0; i < 48; ++i) {
        Cycles at = 1 + rng.nextBounded(horizon * 3 / 4);
        sim.queue().scheduleAt(at, [&kernel, sender] {
            kernel.senduipi(sender);
        });
    }
    for (int i = 0; i < 24; ++i) {
        Cycles at = 1 + rng.nextBounded(horizon * 3 / 4);
        sim.queue().scheduleAt(at, [&kernel, fwd_vec] {
            kernel.deviceInterrupt(
                0, static_cast<unsigned>(fwd_vec));
        });
    }

    sim.runUntil(horizon);
    // Stop the sources, then drain everything in flight (moderation
    // flushes, recovery rescans, pending resumes).
    poll.stop();
    kernel.cancelInterval(interval_id);
    for (;;) {
        Cycles next = sim.queue().peekNextTime();
        if (next == EventQueue::kNoPending)
            break;
        sim.runUntil(next);
    }
    // Final drain: bounce the receiver so parked vectors deliver.
    if (kernel.isRunning(recv))
        kernel.deschedule(recv);
    kernel.scheduleOn(recv, 0);
    kernel.deschedule(recv);
    for (;;) {
        Cycles next = sim.queue().peekNextTime();
        if (next == EventQueue::kNoPending)
            break;
        sim.runUntil(next);
    }
}

} // namespace

TEST(Coalescing, RandomInterleavingsNeverSilentlyLosePosts)
{
    std::uint64_t sawCoalesced = 0;
    std::uint64_t sawMissed = 0;
    std::uint64_t sawFlushes = 0;
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        FourChannelRun run;
        runFourChannels(seed, run);

        // The generalized invariant: delivered, coalesced into a
        // delivery, or explicitly abandoned — never silently lost.
        std::vector<std::string> v = run.ledger.check();
        EXPECT_TRUE(v.empty())
            << "seed " << seed << ": "
            << (v.empty() ? "" : v[0]);
        EXPECT_EQ(run.ledger.outstanding(), 0u)
            << "seed " << seed
            << ": final drain left posts stranded";

        // Conservation identity over the whole run.
        EXPECT_EQ(run.ledger.posted(),
                  run.ledger.delivered() +
                      run.ledger.coalescedSatisfied() +
                      run.ledger.abandoned() +
                      run.ledger.outstanding())
            << "seed " << seed;
        EXPECT_GT(run.handlerRuns, 0u) << "seed " << seed;

        if (!run.nextOnly) {
            EXPECT_EQ(run.ledger.abandoned(), 0u)
                << "seed " << seed
                << ": only NEXT_ONLY may abandon posts";
        }
        sawCoalesced += run.ledger.coalescedSatisfied();
        sawMissed += counterValue(run.metrics,
                                  "kernel.moderation.missed");
        sawFlushes += counterValue(run.metrics,
                                   "kernel.moderation.flushes");
    }
    // The trial mix must actually exercise the new machinery.
    EXPECT_GT(sawCoalesced, 0u);
    EXPECT_GT(sawMissed, 0u);
    EXPECT_GT(sawFlushes, 0u);
}

TEST(Coalescing, InterleavingsAreDeterministic)
{
    FourChannelRun a;
    runFourChannels(5, a);
    FourChannelRun b;
    runFourChannels(5, b);
    EXPECT_EQ(a.ledger.posted(), b.ledger.posted());
    EXPECT_EQ(a.ledger.delivered(), b.ledger.delivered());
    EXPECT_EQ(a.ledger.coalescedSatisfied(),
              b.ledger.coalescedSatisfied());
    EXPECT_EQ(a.ledger.abandoned(), b.ledger.abandoned());
    EXPECT_EQ(a.handlerRuns, b.handlerRuns);
    EXPECT_EQ(a.stream.digest.value(), b.stream.digest.value());
}

TEST(Coalescing, FourChannelStreamsArePinned)
{
    // The ordered stage stream of every seed the tests above run,
    // folded into one digest: a change to any post, delivery,
    // abandonment, or its cycle moves it.
    Fnv1a all;
    std::uint64_t stages = 0;
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        FourChannelRun run;
        runFourChannels(seed, run);
        all.update(run.stream.digest.value());
        stages += run.stream.stages;
    }
    EXPECT_EQ(stages, 13194u);
    EXPECT_EQ(all.value(), 0x4eb24518a544ddb4ull);
}
