/**
 * @file
 * Fault-injection fabric tests: schedule codec and generation,
 * injector determinism, delivery-ledger invariants,
 * kernel graceful-degradation paths (asserted via the new
 * kernel.recovery.* counters), ReliableSender retry/backoff, the
 * uarch raise hook, and the chaos cell/grid/shrink machinery.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "des/simulation.hh"
#include "fault/chaos.hh"
#include "fault/fault.hh"
#include "fault/invariants.hh"
#include "intr_stream_digest.hh"
#include "obs/metrics.hh"
#include "os/kernel.hh"
#include "runtime/sender.hh"
#include "stats/digest.hh"
#include "stats/rng.hh"
#include "uarch/interrupt_unit.hh"

using namespace xui;

namespace
{

std::uint64_t
counterOf(const MetricsRegistry &m, const char *name)
{
    const Counter *c = m.findCounter(name);
    return c != nullptr ? c->value() : 0;
}

// ----- schedule codec & generation ---------------------------------

TEST(FaultSchedule, EncodeDecodeRoundTrip)
{
    fault::Schedule s;
    s.directives.push_back(
        {fault::Site::NotifyIpi, 3, fault::Action::Drop, 0});
    s.directives.push_back(
        {fault::Site::KbTimerFire, 7, fault::Action::Delay, 512});
    s.directives.push_back(
        {fault::Site::Deschedule, 0, fault::Action::Delay, 4096});

    std::string text = s.encode();
    fault::Schedule back;
    ASSERT_TRUE(fault::Schedule::decode(text, back));
    ASSERT_EQ(back.size(), s.size());
    for (std::size_t i = 0; i < s.size(); ++i)
        EXPECT_TRUE(back.directives[i] == s.directives[i]) << i;
    EXPECT_EQ(back.encode(), text);
}

TEST(FaultSchedule, DecodeRejectsMalformed)
{
    fault::Schedule out;
    EXPECT_FALSE(fault::Schedule::decode("nonsense", out));
    EXPECT_FALSE(fault::Schedule::decode("notify_ipi:x:drop:0", out));
    EXPECT_FALSE(fault::Schedule::decode("notify_ipi:1:zap:0", out));
    EXPECT_FALSE(fault::Schedule::decode(
        std::string("notify_ipi:1\0" "9:drop:0", 21), out));
    EXPECT_TRUE(out.empty());
}

TEST(FaultSchedule, DecodeRejectsOccurrenceOverflow)
{
    // 3e19 wraps 64 bits to a value above the partial sum before the
    // last digit, so a wrapped-product check lets it through.
    using Err = fault::Schedule::DecodeError;
    fault::Schedule out;
    Err why = Err::Shape;
    EXPECT_FALSE(fault::Schedule::decode(
        "notify_ipi:30000000000000000000:drop:0", out, &why));
    EXPECT_EQ(why, Err::Occurrence);
    EXPECT_FALSE(fault::Schedule::decode(
        "notify_ipi:18446744073709551616:drop:0", out));
    EXPECT_TRUE(out.empty());
    ASSERT_TRUE(fault::Schedule::decode(
        "notify_ipi:18446744073709551615:drop:0", out));
    EXPECT_EQ(out.directives[0].occurrence, UINT64_MAX);
}

TEST(FaultSchedule, DecodeSurvivesSeededMutations)
{
    using Err = fault::Schedule::DecodeError;
    fault::ScheduleOptions so;
    so.dropModerationFlush = true;
    so.delayModerationFlush = true;
    so.dropPreemptSave = true;
    so.dropCkptWrite = true;
    so.stormDeschedule = true;
    const std::string alphabet = std::string(":;0123456789_az") + '\0';
    Rng rng(0x5c4ed);
    std::array<unsigned, 5> rejects{};
    unsigned accepted = 0;
    for (int iter = 0; iter < 20000; ++iter) {
        so.directives = 1 + static_cast<unsigned>(rng.nextBounded(4));
        std::string text =
            fault::generateSchedule(rng.next(), so).encode();
        for (int m = 0, n = 1 + static_cast<int>(rng.nextBounded(3));
             m < n && !text.empty(); ++m) {
            const std::size_t at = rng.nextBounded(text.size());
            switch (rng.nextBounded(6)) {
            case 0: // flip a byte
                text[at] = static_cast<char>(
                    text[at] ^ (1u << rng.nextBounded(8)));
                break;
            case 1: // delete a byte
                text.erase(at, 1);
                break;
            case 2: // insert a separator, digit, letter or NUL
                text.insert(at, 1,
                            alphabet[rng.nextBounded(alphabet.size())]);
                break;
            case 3: // truncate
                text.resize(at);
                break;
            case 4: // duplicate a span
                text.insert(at, text.substr(at, rng.nextBounded(12)));
                break;
            default: // inflate a number past 2^64
                text.insert(at, "99999999999999999999");
                break;
            }
        }
        fault::Schedule out;
        Err why = static_cast<Err>(0xff);
        if (fault::Schedule::decode(text, out, &why)) {
            ++accepted;
            fault::Schedule again;
            ASSERT_TRUE(fault::Schedule::decode(out.encode(), again))
                << text;
            ASSERT_EQ(again.directives, out.directives) << text;
        } else {
            ASSERT_LT(static_cast<std::size_t>(why), rejects.size())
                << "unclassified reject of '" << text << "'";
            ASSERT_TRUE(out.empty()) << text;
            ++rejects[static_cast<std::size_t>(why)];
        }
    }
    EXPECT_GT(accepted, 0u);
    for (std::size_t c = 0; c < rejects.size(); ++c)
        EXPECT_GT(rejects[c], 0u) << "reject class " << c;
}

TEST(FaultSchedule, GenerationIsDeterministic)
{
    fault::ScheduleOptions opts;
    fault::Schedule a = fault::generateSchedule(42, opts);
    fault::Schedule b = fault::generateSchedule(42, opts);
    EXPECT_EQ(a.encode(), b.encode());
    EXPECT_EQ(a.size(), opts.directives);

    fault::Schedule c = fault::generateSchedule(43, opts);
    EXPECT_NE(a.encode(), c.encode());
}

TEST(FaultSchedule, PreemptSaveSitesLeaveOldSchedulesByteIdentical)
{
    // The preempt-save fault classes default off, so every schedule
    // generated before the priority engine existed must stay
    // byte-identical. Pinned from the pre-preemption option set.
    fault::Schedule def =
        fault::generateSchedule(42, fault::ScheduleOptions{});
    EXPECT_EQ(def.encode(),
              "notify_ipi:18:drop:0;kbtimer_poll:44:spurious:0;"
              "deschedule:36:delay:5893;"
              "forward_dispatch:36:delay:2390;"
              "kbtimer_poll:13:spurious:0;forward_dispatch:15:drop:0;"
              "kbtimer_poll:42:spurious:0;kbtimer_fire:40:delay:2899");
    EXPECT_EQ(def.encode().find("preempt_save"), std::string::npos);

    // Opting in actually reaches the new sites.
    fault::ScheduleOptions opts;
    opts.dropPreemptSave = true;
    opts.duplicatePreemptSave = true;
    opts.directives = 64;
    fault::Schedule s = fault::generateSchedule(42, opts);
    EXPECT_NE(s.encode().find("preempt_save"), std::string::npos);
}

TEST(FaultSchedule, CheckpointWriteEncodeDecodeRoundTrip)
{
    fault::Schedule s;
    s.directives.push_back(
        {fault::Site::CheckpointWrite, 2, fault::Action::Drop, 0});
    s.directives.push_back({fault::Site::CheckpointWrite, 5,
                            fault::Action::Duplicate, 137});
    s.directives.push_back(
        {fault::Site::CheckpointWrite, 0, fault::Action::Storm, 0});

    std::string text = s.encode();
    EXPECT_NE(text.find("checkpoint_write"), std::string::npos);
    fault::Schedule back;
    ASSERT_TRUE(fault::Schedule::decode(text, back));
    ASSERT_EQ(back.size(), s.size());
    for (std::size_t i = 0; i < s.size(); ++i)
        EXPECT_TRUE(back.directives[i] == s.directives[i]) << i;
    EXPECT_EQ(back.encode(), text);
}

TEST(FaultSchedule, CkptSitesLeaveOldSchedulesByteIdentical)
{
    // The checkpoint-write fault classes default off, so every
    // schedule generated before the snapshot engine existed must
    // stay byte-identical (same pin as the preempt-save guard).
    fault::Schedule def =
        fault::generateSchedule(42, fault::ScheduleOptions{});
    EXPECT_EQ(def.encode().find("checkpoint_write"),
              std::string::npos);

    // Opting in reaches the new site with every damage mode.
    fault::ScheduleOptions opts;
    opts.dropCkptWrite = true;
    opts.tearCkptWrite = true;
    opts.flipCkptWrite = true;
    opts.truncateCkptWrite = true;
    opts.stormDeschedule = true;
    opts.directives = 64;
    fault::Schedule s = fault::generateSchedule(42, opts);
    bool sawDrop = false, sawTear = false, sawFlip = false;
    bool sawTrunc = false, sawStorm = false;
    for (const auto &d : s.directives) {
        if (d.site == fault::Site::CheckpointWrite) {
            sawDrop |= d.action == fault::Action::Drop;
            sawTear |= d.action == fault::Action::Delay;
            sawFlip |= d.action == fault::Action::Duplicate;
            sawTrunc |= d.action == fault::Action::Reorder;
        } else if (d.site == fault::Site::Deschedule) {
            sawStorm |= d.action == fault::Action::Storm;
        }
    }
    EXPECT_TRUE(sawDrop && sawTear && sawFlip && sawTrunc && sawStorm);
    EXPECT_EQ(s.encode(),
              fault::generateSchedule(42, opts).encode());
}

TEST(FaultInjector, CheckpointWriteMatchesScheduledOccurrence)
{
    fault::Schedule s;
    s.directives.push_back({fault::Site::CheckpointWrite, 1,
                            fault::Action::Spurious, 0});
    fault::Injector inj(s);
    EXPECT_EQ(inj.decide(fault::Site::CheckpointWrite).action,
              fault::Action::None);
    EXPECT_EQ(inj.decide(fault::Site::CheckpointWrite).action,
              fault::Action::Spurious);
    EXPECT_EQ(inj.decide(fault::Site::CheckpointWrite).action,
              fault::Action::None);
    EXPECT_EQ(inj.consults(fault::Site::CheckpointWrite), 3u);
    EXPECT_EQ(inj.injected(), 1u);
}

TEST(FaultInjector, MatchesNthOccurrenceOnly)
{
    fault::Schedule s;
    s.directives.push_back(
        {fault::Site::NotifyIpi, 2, fault::Action::Drop, 0});
    fault::Injector inj(s);

    EXPECT_EQ(inj.decide(fault::Site::NotifyIpi).action,
              fault::Action::None);
    EXPECT_EQ(inj.decide(fault::Site::NotifyIpi).action,
              fault::Action::None);
    EXPECT_EQ(inj.decide(fault::Site::NotifyIpi).action,
              fault::Action::Drop);
    EXPECT_EQ(inj.decide(fault::Site::NotifyIpi).action,
              fault::Action::None);
    EXPECT_EQ(inj.consults(fault::Site::NotifyIpi), 4u);
    EXPECT_EQ(inj.injected(), 1u);
    // Other sites keep independent counters.
    EXPECT_EQ(inj.consults(fault::Site::KbTimerFire), 0u);
}

// ----- delivery ledger ----------------------------------------------

TEST(DeliveryLedger, CoalescedDeliveryPasses)
{
    fault::DeliveryLedger l;
    std::uint64_t k = fault::keyFor(IntrSource::UserIpi, 1, 3);
    l.onPosted(k);
    l.onPosted(k);
    l.onDelivered(k);  // PIR coalescing: two posts, one delivery
    EXPECT_TRUE(l.ok());
}

TEST(DeliveryLedger, NeverDeliveredIsLoss)
{
    fault::DeliveryLedger l;
    l.onPosted(fault::keyFor(IntrSource::KbTimer, 0, 33));
    auto v = l.check();
    ASSERT_EQ(v.size(), 1u);
    EXPECT_NE(v[0].find("lost notification"), std::string::npos);
    EXPECT_NE(v[0].find("kbtimer"), std::string::npos);
}

TEST(DeliveryLedger, TrailingPostIsStranded)
{
    fault::DeliveryLedger l;
    std::uint64_t k = fault::keyFor(IntrSource::UserIpi, 2, 1);
    l.onPosted(k);
    l.onDelivered(k);
    l.onPosted(k);  // never satisfied
    auto v = l.check();
    ASSERT_EQ(v.size(), 1u);
    EXPECT_NE(v[0].find("stranded notification"),
              std::string::npos);
}

TEST(DeliveryLedger, PhantomDeliveryCaughtEagerly)
{
    fault::DeliveryLedger l;
    std::uint64_t k = fault::keyFor(IntrSource::Forwarded, 0, 64);
    l.onPosted(k);
    l.onDelivered(k);
    l.onDelivered(k);  // one post, two deliveries
    l.onPosted(k);     // a later post must not mask the phantom
    l.onDelivered(k);
    auto v = l.check();
    ASSERT_GE(v.size(), 1u);
    EXPECT_NE(v[0].find("phantom delivery"), std::string::npos);
}

TEST(DeliveryLedger, AbandonedIsNotLoss)
{
    fault::DeliveryLedger l;
    std::uint64_t k = fault::keyFor(IntrSource::KbTimer, 1, 33);
    l.onPosted(k);
    l.onAbandoned(k);
    EXPECT_TRUE(l.ok());
    EXPECT_EQ(l.abandoned(), 1u);
}

// ----- kernel graceful degradation ----------------------------------

struct KernelRig
{
    Simulation sim{7};
    CostModel costs;
    Kernel kernel{sim, costs, 2};
    MetricsRegistry metrics;
    fault::DeliveryLedger ledger;
    /** The whole stage stream, beside the ledger. */
    test::IntrStreamDigest stream;
    IntrObserverTee tee;
    unsigned delivered = 0;

    KernelRig()
    {
        kernel.attachMetrics(metrics);
        tee.add(&ledger);
        tee.add(&stream);
        kernel.setIntrObserver(&tee);
    }

    ThreadId receiver(CoreId core)
    {
        ThreadId t = kernel.createThread();
        kernel.registerHandler(t, [this](unsigned) { ++delivered; });
        kernel.scheduleOn(t, core);
        return t;
    }
};

TEST(KernelFault, DroppedIpiRecoveredByRescan)
{
    KernelRig rig;
    ThreadId t = rig.receiver(0);
    int idx = rig.kernel.registerSender(t, 2);
    ASSERT_GE(idx, 0);

    fault::Schedule s;
    s.directives.push_back(
        {fault::Site::NotifyIpi, 0, fault::Action::Drop, 0});
    fault::Injector inj(s);
    rig.kernel.setFaultInjector(&inj);

    EXPECT_EQ(rig.kernel.senduipi(idx), DeliveryPath::Deferred);
    EXPECT_EQ(rig.delivered, 0u);  // the IPI was lost

    rig.sim.runUntil(1u << 20);  // let the backoff rescan run
    EXPECT_EQ(rig.delivered, 1u);
    EXPECT_EQ(counterOf(rig.metrics, "kernel.fault.ipi_dropped"),
              1u);
    EXPECT_EQ(counterOf(rig.metrics, "kernel.recovery.upid_rescan"),
              1u);
    EXPECT_TRUE(rig.ledger.ok());
}

TEST(KernelFault, DroppedIpiWithoutRecoveryStrands)
{
    KernelRig rig;
    ThreadId t = rig.receiver(0);
    int idx = rig.kernel.registerSender(t, 2);

    fault::Schedule s;
    s.directives.push_back(
        {fault::Site::NotifyIpi, 0, fault::Action::Drop, 0});
    fault::Injector inj(s);
    rig.kernel.setFaultInjector(&inj);
    rig.kernel.setRecoveryEnabled(false);

    rig.kernel.senduipi(idx);
    rig.sim.runUntil(1u << 20);
    EXPECT_EQ(rig.delivered, 0u);
    EXPECT_FALSE(rig.ledger.ok());  // invariant catches the loss
}

TEST(KernelFault, DescheduledReceiverRecoversViaRetryThenDrain)
{
    KernelRig rig;
    ThreadId t = rig.receiver(0);
    int idx = rig.kernel.registerSender(t, 2);

    fault::Schedule s;
    s.directives.push_back(
        {fault::Site::NotifyIpi, 0, fault::Action::Drop, 0});
    fault::Injector inj(s);
    rig.kernel.setFaultInjector(&inj);
    rig.kernel.setRecoveryParams(64, 3);

    rig.kernel.deschedule(t);
    // SN set: the post parks; the drop directive is not consulted
    // (no IPI was emitted), so it stays armed for the next send.
    EXPECT_EQ(rig.kernel.senduipi(idx), DeliveryPath::Suppressed);
    rig.sim.runUntil(1u << 20);
    EXPECT_EQ(rig.delivered, 0u);

    // The resume drain is the designed fallback.
    rig.kernel.scheduleOn(t, 1);
    EXPECT_EQ(rig.delivered, 1u);
    EXPECT_TRUE(rig.ledger.ok());
}

TEST(KernelFault, RetryExhaustionFallsBackToParked)
{
    KernelRig rig;
    ThreadId t = rig.receiver(0);
    int idx = rig.kernel.registerSender(t, 2);

    fault::Schedule s;
    s.directives.push_back(
        {fault::Site::NotifyIpi, 0, fault::Action::Drop, 0});
    fault::Injector inj(s);
    rig.kernel.setFaultInjector(&inj);
    rig.kernel.setRecoveryParams(64, 3);

    // Drop the IPI while running, then deschedule before the rescan
    // fires: every retry sees a descheduled receiver.
    EXPECT_EQ(rig.kernel.senduipi(idx), DeliveryPath::Deferred);
    rig.kernel.deschedule(t);
    rig.sim.runUntil(1u << 20);
    EXPECT_EQ(rig.delivered, 0u);
    EXPECT_EQ(counterOf(rig.metrics, "kernel.recovery.rescan_retry"),
              2u);
    EXPECT_EQ(
        counterOf(rig.metrics, "kernel.recovery.parked_fallback"),
        1u);

    rig.kernel.scheduleOn(t, 0);  // resume drain delivers
    EXPECT_EQ(rig.delivered, 1u);
    EXPECT_TRUE(rig.ledger.ok());
}

TEST(KernelFault, ReorderedScanRecovered)
{
    KernelRig rig;
    ThreadId t = rig.receiver(0);
    int idx = rig.kernel.registerSender(t, 2);

    fault::Schedule s;
    s.directives.push_back(
        {fault::Site::NotifyIpi, 0, fault::Action::Reorder, 0});
    fault::Injector inj(s);
    rig.kernel.setFaultInjector(&inj);

    EXPECT_EQ(rig.kernel.senduipi(idx), DeliveryPath::Deferred);
    EXPECT_EQ(rig.delivered, 0u);
    EXPECT_EQ(
        counterOf(rig.metrics, "kernel.recovery.spurious_scans"),
        1u);
    rig.sim.runUntil(1u << 20);
    EXPECT_EQ(rig.delivered, 1u);
    EXPECT_TRUE(rig.ledger.ok());
}

TEST(KernelFault, DuplicateIpiAbsorbedBySecondScan)
{
    KernelRig rig;
    ThreadId t = rig.receiver(0);
    int idx = rig.kernel.registerSender(t, 2);

    fault::Schedule s;
    s.directives.push_back(
        {fault::Site::NotifyIpi, 0, fault::Action::Duplicate, 0});
    fault::Injector inj(s);
    rig.kernel.setFaultInjector(&inj);

    EXPECT_EQ(rig.kernel.senduipi(idx), DeliveryPath::Fast);
    EXPECT_EQ(rig.delivered, 1u);
    rig.sim.runUntil(1u << 20);  // the echoed IPI scans nothing
    EXPECT_EQ(rig.delivered, 1u);
    EXPECT_EQ(
        counterOf(rig.metrics, "kernel.recovery.spurious_scans"),
        1u);
    EXPECT_TRUE(rig.ledger.ok());  // no phantom delivery
}

TEST(KernelFault, TimerMisfireRedeliveredLate)
{
    KernelRig rig;
    ThreadId t = rig.receiver(0);
    rig.kernel.enableKbTimer(t, 33);
    rig.kernel.setTimer(t, 1000, KbTimerMode::OneShot);

    fault::Schedule s;
    s.directives.push_back(
        {fault::Site::KbTimerFire, 0, fault::Action::Drop, 0});
    fault::Injector inj(s);
    rig.kernel.setFaultInjector(&inj);

    rig.sim.runUntil(1500);
    EXPECT_FALSE(rig.kernel.pollKbTimer(0));  // misfire
    EXPECT_EQ(rig.delivered, 0u);
    EXPECT_EQ(
        counterOf(rig.metrics, "kernel.fault.kbtimer_misfire"), 1u);

    rig.sim.runUntil(1600);
    EXPECT_TRUE(rig.kernel.pollKbTimer(0));  // late redelivery
    EXPECT_EQ(rig.delivered, 1u);
    EXPECT_EQ(counterOf(rig.metrics, "kernel.recovery.kbtimer_late"),
              1u);
    EXPECT_TRUE(rig.ledger.ok());
}

TEST(KernelFault, TimerMisfireDeliveredOnResumeAfterSwitch)
{
    KernelRig rig;
    ThreadId t = rig.receiver(0);
    rig.kernel.enableKbTimer(t, 33);
    rig.kernel.setTimer(t, 1000, KbTimerMode::OneShot);

    fault::Schedule s;
    s.directives.push_back(
        {fault::Site::KbTimerFire, 0, fault::Action::Drop, 0});
    fault::Injector inj(s);
    rig.kernel.setFaultInjector(&inj);

    rig.sim.runUntil(1500);
    EXPECT_FALSE(rig.kernel.pollKbTimer(0));  // misfire
    rig.kernel.deschedule(t);  // due expiry travels with the thread
    EXPECT_EQ(rig.delivered, 0u);

    rig.sim.runUntil(2000);
    rig.kernel.scheduleOn(t, 1);  // restore-missed path delivers
    EXPECT_EQ(rig.delivered, 1u);
    EXPECT_EQ(counterOf(rig.metrics, "kernel.recovery.kbtimer_late"),
              1u);
    EXPECT_TRUE(rig.ledger.ok());
}

TEST(KernelFault, DelayedTimerFireCancelledByClearIsAbandoned)
{
    KernelRig rig;
    ThreadId t = rig.receiver(0);
    rig.kernel.enableKbTimer(t, 33);
    rig.kernel.setTimer(t, 1000, KbTimerMode::OneShot);

    fault::Schedule s;
    s.directives.push_back(
        {fault::Site::KbTimerFire, 0, fault::Action::Delay, 500});
    fault::Injector inj(s);
    rig.kernel.setFaultInjector(&inj);

    rig.sim.queue().scheduleAt(1500, [&] {
        EXPECT_FALSE(rig.kernel.pollKbTimer(0));  // delayed
        rig.kernel.clearTimer(t);  // cancels the in-flight fire
    });
    rig.sim.runUntil(1u << 20);
    EXPECT_EQ(rig.delivered, 0u);
    EXPECT_EQ(
        counterOf(rig.metrics, "kernel.recovery.kbtimer_cancelled"),
        1u);
    EXPECT_TRUE(rig.ledger.ok());  // abandoned, not lost
}

TEST(KernelFault, ForwardDropFallsBackToDupidPark)
{
    KernelRig rig;
    ThreadId t = rig.receiver(0);
    int vec = rig.kernel.registerForwarding(t, 0);
    ASSERT_GE(vec, 0);

    fault::Schedule s;
    s.directives.push_back(
        {fault::Site::ForwardDispatch, 0, fault::Action::Drop, 0});
    fault::Injector inj(s);
    rig.kernel.setFaultInjector(&inj);

    EXPECT_EQ(rig.kernel.deviceInterrupt(
                  0, static_cast<unsigned>(vec)),
              DeliveryPath::Deferred);
    EXPECT_EQ(rig.delivered, 0u);
    EXPECT_EQ(
        counterOf(rig.metrics, "kernel.recovery.forward_parked"),
        1u);

    rig.kernel.deschedule(t);
    rig.kernel.scheduleOn(t, 0);  // resume drain delivers the park
    EXPECT_EQ(rig.delivered, 1u);
    EXPECT_TRUE(rig.ledger.ok());
}

TEST(KernelFault, DisabledFabricKeepsLedgerClean)
{
    // No injector at all: ordinary traffic must satisfy the ledger.
    KernelRig rig;
    ThreadId t = rig.receiver(0);
    int idx = rig.kernel.registerSender(t, 1);
    int vec = rig.kernel.registerForwarding(t, 0);
    rig.kernel.enableKbTimer(t, 33);
    rig.kernel.setTimer(t, 100, KbTimerMode::OneShot);

    rig.kernel.senduipi(idx);
    rig.kernel.deviceInterrupt(0, static_cast<unsigned>(vec));
    rig.sim.runUntil(150);
    rig.kernel.pollKbTimer(0);
    rig.kernel.deschedule(t);
    rig.kernel.scheduleOn(t, 1);
    EXPECT_EQ(rig.delivered, 3u);
    EXPECT_TRUE(rig.ledger.ok());
}

// ----- kernel ledger keys ----------------------------------------------

/** One kernel site that books the ledger, and what it must book. */
struct LedgerSite
{
    const char *name;
    /** Channel of the notification the site books. */
    IntrSource channel;
    /**
     * Drive the site on a fresh rig; return the (thread, vector) of
     * the notification it books.
     */
    std::function<std::pair<ThreadId, unsigned>(KernelRig &)> drive;
    std::uint64_t posted;
    std::uint64_t delivered;
    std::uint64_t abandoned;
    std::uint64_t spuriousScans;
    std::uint64_t coalescedSatisfied;
    /** Handler invocations, booked or not. */
    unsigned handlerRuns;
    /** IntrStreamDigest of the rig's whole stage stream. */
    std::uint64_t stream;
};

/** A fault injector that applies one directive. */
std::unique_ptr<fault::Injector>
injectOnce(KernelRig &rig, fault::Site site, fault::Action action,
           std::uint32_t magnitude)
{
    fault::Schedule s;
    s.directives.push_back({site, 0, action, magnitude});
    auto inj = std::make_unique<fault::Injector>(s);
    rig.kernel.setFaultInjector(inj.get());
    return inj;
}

TEST(KernelLedger, EverySiteBooksItsOwnKey)
{
    constexpr unsigned kUv = 2;
    constexpr unsigned kTimerVec = 33;
    constexpr unsigned kSigno = 14;
    std::unique_ptr<fault::Injector> inj;
    DeliveryPolicy nextOnly;
    nextOnly.behavior = DeliveryBehavior::NextOnly;

    const std::vector<LedgerSite> sites = {
        {"scanUpid (senduipi fast path)", IntrSource::UserIpi,
         [&](KernelRig &rig) {
             ThreadId t = rig.receiver(0);
             rig.kernel.senduipi(rig.kernel.registerSender(t, kUv));
             return std::make_pair(t, kUv);
         },
         1, 1, 0, 0, 0, 1,
         0x31c57f2616afdf66ull},
        {"drainParked DUPID drain", IntrSource::Forwarded,
         [&](KernelRig &rig) {
             ThreadId t = rig.receiver(0);
             auto v = static_cast<unsigned>(
                 rig.kernel.registerForwarding(t, 0));
             rig.kernel.deschedule(t);
             rig.kernel.deviceInterrupt(0, v);
             rig.kernel.deviceInterrupt(0, v);
             rig.kernel.scheduleOn(t, 0);
             return std::make_pair(t, v);
         },
         2, 1, 0, 0, 1, 1,
         0x83b4b76d8fbd8584ull},
        {"scheduleOn missed KB deadline", IntrSource::KbTimer,
         [&](KernelRig &rig) {
             ThreadId t = rig.receiver(0);
             rig.kernel.enableKbTimer(t, kTimerVec);
             rig.kernel.setTimer(t, 1000, KbTimerMode::OneShot);
             rig.kernel.deschedule(t);
             rig.sim.runUntil(2000);
             rig.kernel.scheduleOn(t, 1);
             return std::make_pair(t, kTimerVec);
         },
         1, 1, 0, 0, 0, 1,
         0x133b3aa3e9850469ull},
        {"scheduleOn pending signal", IntrSource::Signal,
         [&](KernelRig &rig) {
             ThreadId t = rig.receiver(0);
             rig.kernel.deschedule(t);
             int id = rig.kernel.setInterval(t, 100, kSigno);
             rig.sim.runUntil(250);  // two firings collapse
             rig.kernel.cancelInterval(id);
             rig.kernel.scheduleOn(t, 0);
             return std::make_pair(t, kSigno);
         },
         2, 1, 0, 0, 1, 1,
         0xcdb74dd1cd4ec628ull},
        {"deliverKbTimerFired", IntrSource::KbTimer,
         [&](KernelRig &rig) {
             ThreadId t = rig.receiver(0);
             rig.kernel.enableKbTimer(t, kTimerVec);
             rig.kernel.setTimer(t, 1000, KbTimerMode::OneShot);
             rig.sim.runUntil(1500);
             rig.kernel.pollKbTimer(0);
             return std::make_pair(t, kTimerVec);
         },
         1, 1, 0, 0, 0, 1,
         0xe89be42d871603dfull},
        // A delayed fire that lands on another thread's expired timer
        // runs that thread's handler unbooked; the first thread's
        // observed expiry travels with it and is booked on resume.
        {"deliverKbTimerFired unbooked fire", IntrSource::KbTimer,
         [&](KernelRig &rig) {
             ThreadId a = rig.receiver(0);
             ThreadId b = rig.kernel.createThread();
             rig.kernel.registerHandler(
                 b, [&rig](unsigned) { ++rig.delivered; });
             rig.kernel.enableKbTimer(a, kTimerVec);
             rig.kernel.enableKbTimer(b, kTimerVec + 1);
             rig.kernel.setTimer(a, 1000, KbTimerMode::OneShot);
             rig.kernel.setTimer(b, 1800, KbTimerMode::OneShot);
             inj = injectOnce(rig, fault::Site::KbTimerFire,
                              fault::Action::Delay, 500);
             rig.sim.queue().scheduleAt(1500, [&rig, a, b] {
                 rig.kernel.pollKbTimer(0);
                 rig.kernel.deschedule(a);
                 rig.kernel.scheduleOn(b, 0);
             });
             rig.sim.runUntil(2000);
             EXPECT_EQ(rig.delivered, 1u);
             EXPECT_EQ(rig.ledger.delivered(), 0u);
             rig.kernel.scheduleOn(a, 1);
             return std::make_pair(a, kTimerVec);
         },
         1, 1, 0, 0, 0, 2,
         0xdf0cd53f03f35a10ull},
        {"deviceInterrupt fast path", IntrSource::Forwarded,
         [&](KernelRig &rig) {
             ThreadId t = rig.receiver(0);
             auto v = static_cast<unsigned>(
                 rig.kernel.registerForwarding(t, 0));
             rig.kernel.deviceInterrupt(0, v);
             return std::make_pair(t, v);
         },
         1, 1, 0, 0, 0, 1,
         0x974d82258cf043e6ull},
        {"delayedForwardDeliver", IntrSource::Forwarded,
         [&](KernelRig &rig) {
             ThreadId t = rig.receiver(0);
             auto v = static_cast<unsigned>(
                 rig.kernel.registerForwarding(t, 0));
             inj = injectOnce(rig, fault::Site::ForwardDispatch,
                              fault::Action::Delay, 50);
             rig.kernel.deviceInterrupt(0, v);
             EXPECT_EQ(rig.delivered, 0u);
             rig.sim.runUntil(1000);
             return std::make_pair(t, v);
         },
         1, 1, 0, 0, 0, 1,
         0x9c546ecae617fe26ull},
        {"setInterval firing on a running thread", IntrSource::Signal,
         [&](KernelRig &rig) {
             ThreadId t = rig.receiver(0);
             int id = rig.kernel.setInterval(t, 100, kSigno);
             rig.sim.runUntil(150);
             rig.kernel.cancelInterval(id);
             return std::make_pair(t, kSigno);
         },
         1, 1, 0, 0, 0, 1,
         0xf5e1accdb50f876dull},
        {"senduipi NEXT_ONLY miss", IntrSource::UserIpi,
         [&](KernelRig &rig) {
             ThreadId t = rig.receiver(0);
             int idx = rig.kernel.registerSender(t, kUv);
             rig.kernel.setDeliveryPolicy(t, kUv, nextOnly);
             rig.kernel.deschedule(t);
             rig.kernel.senduipi(idx);
             return std::make_pair(t, kUv);
         },
         1, 0, 1, 0, 0, 0,
         0xb6143d32dd260badull},
        {"deviceInterrupt slow path NEXT_ONLY miss", IntrSource::Forwarded,
         [&](KernelRig &rig) {
             ThreadId t = rig.receiver(0);
             auto v = static_cast<unsigned>(
                 rig.kernel.registerForwarding(t, 0));
             rig.kernel.setDeliveryPolicy(t, v, nextOnly);
             rig.kernel.deschedule(t);
             rig.kernel.deviceInterrupt(0, v);
             return std::make_pair(t, v);
         },
         1, 0, 1, 0, 0, 0,
         0xf2905332d65b0c2dull},
        {"setTimer abandons a descheduled due expiry", IntrSource::KbTimer,
         [&](KernelRig &rig) {
             ThreadId t = rig.receiver(0);
             rig.kernel.enableKbTimer(t, kTimerVec);
             rig.kernel.setTimer(t, 1000, KbTimerMode::OneShot);
             inj = injectOnce(rig, fault::Site::KbTimerFire,
                              fault::Action::Drop, 0);
             rig.sim.runUntil(1500);
             rig.kernel.pollKbTimer(0);
             rig.kernel.deschedule(t);
             rig.kernel.setTimer(t, 5000, KbTimerMode::OneShot);
             return std::make_pair(t, kTimerVec);
         },
         1, 0, 1, 0, 0, 0,
         0x2ceb6267557eac18ull},
        {"clearTimer abandons a descheduled due expiry",
         IntrSource::KbTimer,
         [&](KernelRig &rig) {
             ThreadId t = rig.receiver(0);
             rig.kernel.enableKbTimer(t, kTimerVec);
             rig.kernel.setTimer(t, 1000, KbTimerMode::OneShot);
             inj = injectOnce(rig, fault::Site::KbTimerFire,
                              fault::Action::Drop, 0);
             rig.sim.runUntil(1500);
             rig.kernel.pollKbTimer(0);
             rig.kernel.deschedule(t);
             rig.kernel.clearTimer(t);
             return std::make_pair(t, kTimerVec);
         },
         1, 0, 1, 0, 0, 0,
         0x2ceb6267557eac18ull},
        {"abandonTimerDue on a running reprogram", IntrSource::KbTimer,
         [&](KernelRig &rig) {
             ThreadId t = rig.receiver(0);
             rig.kernel.enableKbTimer(t, kTimerVec);
             rig.kernel.setTimer(t, 1000, KbTimerMode::OneShot);
             inj = injectOnce(rig, fault::Site::KbTimerFire,
                              fault::Action::Drop, 0);
             rig.sim.runUntil(1500);
             rig.kernel.pollKbTimer(0);
             rig.kernel.setTimer(t, 5000, KbTimerMode::OneShot);
             return std::make_pair(t, kTimerVec);
         },
         1, 0, 1, 0, 0, 0,
         0x2ceb6267557eac18ull},
        {"notifyArrived spurious scan", IntrSource::UserIpi,
         [&](KernelRig &rig) {
             ThreadId t = rig.receiver(0);
             int idx = rig.kernel.registerSender(t, kUv);
             inj = injectOnce(rig, fault::Site::NotifyIpi,
                              fault::Action::Duplicate, 0);
             rig.kernel.senduipi(idx);
             rig.sim.runUntil(1000);
             return std::make_pair(t, kUv);
         },
         1, 1, 0, 1, 0, 1,
         0x31c57f2616afdf66ull},
        // The occupancy engine runs the handler at frame start but
        // books the delivery when the frame completes.
        {"occupancy engine frame completion", IntrSource::UserIpi,
         [&](KernelRig &rig) {
             ThreadId t = rig.receiver(0);
             int idx = rig.kernel.registerSender(t, kUv);
             rig.kernel.setHandlerCost(t, kUv, 500);
             rig.kernel.senduipi(idx);
             EXPECT_EQ(rig.delivered, 1u);
             EXPECT_EQ(rig.ledger.delivered(), 0u);
             rig.sim.runUntil(1000);
             EXPECT_TRUE(rig.kernel.engineIdle(t));
             return std::make_pair(t, kUv);
         },
         1, 1, 0, 0, 0, 1,
         0xd3c4b5ee76ba1dd6ull},
    };

    for (const LedgerSite &site : sites) {
        SCOPED_TRACE(site.name);
        KernelRig rig;
        auto [thread, vector] = site.drive(rig);
        EXPECT_EQ(rig.ledger.posted(), site.posted);
        EXPECT_EQ(rig.ledger.delivered(), site.delivered);
        EXPECT_EQ(rig.ledger.abandoned(), site.abandoned);
        EXPECT_EQ(rig.kernel.count(KernelStat::RecoverySpuriousScans),
                  site.spuriousScans);
        EXPECT_EQ(rig.ledger.coalescedSatisfied(),
                  site.coalescedSatisfied);
        EXPECT_EQ(rig.ledger.outstanding(), 0u);
        EXPECT_EQ(rig.delivered, site.handlerRuns);
        EXPECT_TRUE(rig.ledger.ok());
        EXPECT_EQ(rig.stream.digest.value(), site.stream);

        // One more post on the expected key strands it only if the
        // site delivered or abandoned under that key; under any other
        // key the post reads as a lost notification.
        std::uint64_t key = fault::keyFor(site.channel, thread, vector);
        rig.ledger.onPosted(key);
        auto violations = rig.ledger.check();
        ASSERT_EQ(violations.size(), 1u);
        EXPECT_EQ(violations[0].rfind("stranded notification: " +
                                          fault::describeKey(key),
                                      0),
                  0u)
            << violations[0];
        rig.kernel.setFaultInjector(nullptr);
        inj.reset();
    }
}

// ----- ReliableSender ------------------------------------------------

TEST(ReliableSender, RetriesUntilReceiverResumes)
{
    KernelRig rig;
    ThreadId t = rig.receiver(0);
    int idx = rig.kernel.registerSender(t, 2);
    ReliableSender::Options opts;
    opts.maxAttempts = 4;
    opts.backoff = 100;
    ReliableSender sender(rig.sim, rig.kernel, idx, opts);
    sender.attachMetrics(rig.metrics);

    rig.kernel.deschedule(t);
    EXPECT_EQ(sender.send(), DeliveryPath::Suppressed);
    // Resume between the first and second retry.
    rig.sim.queue().scheduleAt(150, [&] {
        rig.kernel.scheduleOn(t, 0);
    });
    rig.sim.runUntil(1u << 20);

    // One retry while descheduled, one after the resume drain (that
    // one finds an empty PIR and takes the fast path as a fresh
    // post, ending the loop).
    EXPECT_EQ(sender.stats().retries, 2u);
    EXPECT_GE(rig.delivered, 1u);
    EXPECT_TRUE(rig.ledger.ok());
}

TEST(ReliableSender, ExhaustionCountsFallback)
{
    KernelRig rig;
    ThreadId t = rig.receiver(0);
    int idx = rig.kernel.registerSender(t, 2);
    ReliableSender::Options opts;
    opts.maxAttempts = 3;
    opts.backoff = 50;
    ReliableSender sender(rig.sim, rig.kernel, idx, opts);

    rig.kernel.deschedule(t);
    sender.send();
    rig.sim.runUntil(1u << 20);
    EXPECT_EQ(sender.stats().retries, 2u);
    EXPECT_EQ(sender.stats().fallbacks, 1u);
    EXPECT_EQ(rig.delivered, 0u);

    rig.kernel.scheduleOn(t, 0);  // the fallback: resume drain
    EXPECT_EQ(rig.delivered, 1u);
    EXPECT_TRUE(rig.ledger.ok());
}

// ----- uarch raise hook ----------------------------------------------

TEST(RaiseFaultHook, DropSuppressesEnqueueAndReturnsZero)
{
    InterruptUnit u;
    u.setRaiseFaultHook([](IntrSource, std::uint8_t) {
        return InterruptUnit::RaiseOutcome::Drop;
    });
    EXPECT_EQ(u.raise(IntrSource::UserIpi, 1, 10), 0u);
    EXPECT_FALSE(u.pendingAvailable());
}

TEST(RaiseFaultHook, DuplicateEnqueuesTwiceWithOneSpan)
{
    InterruptUnit u;
    u.setRaiseFaultHook([](IntrSource, std::uint8_t) {
        return InterruptUnit::RaiseOutcome::Duplicate;
    });
    std::uint64_t span = u.raise(IntrSource::KbTimer, 33, 10);
    EXPECT_NE(span, 0u);
    EXPECT_EQ(u.pendingCount(), 2u);
    PendingIntr a = u.accept();
    EXPECT_EQ(a.spanId, span);
    u.onHandlerReturn();
    PendingIntr b = u.accept();
    EXPECT_EQ(b.spanId, span);
}

TEST(RaiseFaultHook, NoHookBehavesExactlyAsBefore)
{
    InterruptUnit u;
    EXPECT_EQ(u.raise(IntrSource::UserIpi, 1, 5), 1u);
    EXPECT_EQ(u.raise(IntrSource::UserIpi, 2, 6), 2u);
    EXPECT_EQ(u.pendingCount(), 2u);
}

// ----- chaos cells, grid, shrink ------------------------------------

TEST(Chaos, CellIsDeterministic)
{
    chaos::CellConfig cc;
    cc.kind = chaos::ScenarioKind::UipiPingPong;
    cc.seed = 11;
    cc.schedule = fault::generateSchedule(
        chaos::cellScheduleSeed(cc.kind, cc.seed),
        fault::ScheduleOptions{});
    chaos::CellResult a = chaos::runCell(cc);
    chaos::CellResult b = chaos::runCell(cc);
    EXPECT_EQ(a.passed, b.passed);
    EXPECT_EQ(a.posted, b.posted);
    EXPECT_EQ(a.delivered, b.delivered);
    EXPECT_EQ(a.injected, b.injected);
    EXPECT_EQ(a.handlerRuns, b.handlerRuns);
    EXPECT_EQ(a.violations, b.violations);
}

TEST(Chaos, EveryScenarioPassesWithRecovery)
{
    for (std::size_t k = 0; k < chaos::kNumScenarios; ++k) {
        for (std::uint64_t seed = 1; seed <= 3; ++seed) {
            chaos::CellConfig cc;
            cc.kind = static_cast<chaos::ScenarioKind>(k);
            cc.seed = seed;
            cc.schedule = fault::generateSchedule(
                chaos::cellScheduleSeed(cc.kind, seed),
                fault::ScheduleOptions{});
            chaos::CellResult r = chaos::runCell(cc);
            EXPECT_TRUE(r.passed)
                << chaos::scenarioName(cc.kind) << " seed " << seed
                << ": "
                << (r.violations.empty() ? "?" : r.violations[0]);
            EXPECT_GT(r.handlerRuns, 0u)
                << chaos::scenarioName(cc.kind) << " seed " << seed;
        }
    }
}

TEST(Chaos, SenderRetryScenarioExercisesRetries)
{
    chaos::CellConfig cc;
    cc.kind = chaos::ScenarioKind::SenderRetry;
    cc.seed = 5;
    cc.schedule = fault::generateSchedule(
        chaos::cellScheduleSeed(cc.kind, cc.seed),
        fault::ScheduleOptions{});
    chaos::CellResult r = chaos::runCell(cc);
    EXPECT_TRUE(r.passed);
    EXPECT_GT(r.senderRetries, 0u);
}

TEST(Chaos, CraftedDropFailsWithoutRecoveryAndShrinks)
{
    // A drop directive with recovery and the final drain disabled
    // models a receiver that never comes back: the ledger must
    // flag it, and shrink must reduce the schedule to that single
    // directive.
    chaos::CellConfig cc;
    cc.kind = chaos::ScenarioKind::UipiPingPong;
    cc.seed = 13;
    cc.recovery = false;
    cc.finalDrain = false;
    fault::ScheduleOptions opts;
    cc.schedule = fault::generateSchedule(
        chaos::cellScheduleSeed(cc.kind, cc.seed), opts);

    chaos::CellResult r = chaos::runCell(cc);
    ASSERT_FALSE(r.passed);

    fault::Schedule minimal = chaos::shrink(cc);
    EXPECT_LT(minimal.size(), cc.schedule.size());
    EXPECT_GE(minimal.size(), 1u);

    // The shrunk schedule still fails...
    chaos::CellConfig probe = cc;
    probe.schedule = minimal;
    EXPECT_FALSE(chaos::runCell(probe).passed);

    // ...and is 1-minimal: removing any directive makes it pass.
    for (std::size_t i = 0; i < minimal.size(); ++i) {
        fault::Schedule sub = minimal;
        sub.directives.erase(sub.directives.begin() +
                             static_cast<std::ptrdiff_t>(i));
        chaos::CellConfig p2 = cc;
        p2.schedule = sub;
        EXPECT_TRUE(chaos::runCell(p2).passed) << i;
    }

    // Recovery + drain rescue the very same schedule.
    chaos::CellConfig rescued = cc;
    rescued.recovery = true;
    rescued.finalDrain = true;
    EXPECT_TRUE(chaos::runCell(rescued).passed);
}

TEST(Chaos, GridIsDeterministicAcrossJobCounts)
{
    chaos::GridConfig gc;
    gc.kinds = {chaos::ScenarioKind::UipiPingPong,
                chaos::ScenarioKind::KbTimerPeriodic};
    gc.seeds = 6;
    gc.jobs = 1;
    chaos::GridOutcome a = chaos::runGrid(gc);
    gc.jobs = 4;
    chaos::GridOutcome b = chaos::runGrid(gc);
    EXPECT_EQ(a.cells, b.cells);
    EXPECT_EQ(a.failed, b.failed);
    EXPECT_EQ(a.injected, b.injected);
    EXPECT_EQ(a.posted, b.posted);
    EXPECT_EQ(a.delivered, b.delivered);
    EXPECT_EQ(a.failures.size(), b.failures.size());
}

TEST(Chaos, ModerationScenariosSurviveFlushFaults)
{
    // The moderation-aware scenarios under their matching fault
    // options: flush drops / delays must never lose a post while
    // recovery is on, and the fabric must actually hit the
    // moderation sites across the seed range.
    struct Case
    {
        chaos::ScenarioKind kind;
        bool drop;
        bool delay;
    };
    const Case cases[] = {
        {chaos::ScenarioKind::CoalesceDrop, true, false},
        {chaos::ScenarioKind::ItrMisfire, false, true},
    };
    for (const Case &cs : cases) {
        std::uint64_t dropped = 0;
        std::uint64_t delayed = 0;
        std::uint64_t coalesced = 0;
        for (std::uint64_t seed = 1; seed <= 8; ++seed) {
            chaos::CellConfig cc;
            cc.kind = cs.kind;
            cc.seed = seed;
            fault::ScheduleOptions opts;
            opts.dropModerationFlush = cs.drop;
            opts.delayModerationFlush = cs.delay;
            cc.schedule = fault::generateSchedule(
                chaos::cellScheduleSeed(cs.kind, seed), opts);
            chaos::CellResult r = chaos::runCell(cc);
            EXPECT_TRUE(r.passed)
                << chaos::scenarioName(cs.kind) << " seed " << seed
                << ": "
                << (r.violations.empty() ? "?" : r.violations[0]);
            EXPECT_GT(r.modFlushes + r.modFlushDropped, 0u)
                << chaos::scenarioName(cs.kind) << " seed " << seed;
            dropped += r.modFlushDropped;
            delayed += r.modFlushDelayed;
            coalesced += r.modCoalesced + r.coalescedSatisfied;
        }
        if (cs.drop) {
            EXPECT_GT(dropped, 0u) << chaos::scenarioName(cs.kind);
        }
        if (cs.delay) {
            EXPECT_GT(delayed, 0u) << chaos::scenarioName(cs.kind);
        }
        EXPECT_GT(coalesced, 0u) << chaos::scenarioName(cs.kind);
    }
}

TEST(Chaos, ShrunkModerationReproReplaysBitIdentically)
{
    // The .repro contract for the new scenarios: shrink a failing
    // moderation cell, round-trip the shrunk schedule through its
    // text encoding (what the .repro file stores), and the replay
    // must reproduce the identical result — same counters, same
    // violations — run after run.
    chaos::CellConfig failing;
    bool found = false;
    for (std::uint64_t seed = 1; seed <= 40 && !found; ++seed) {
        chaos::CellConfig cc;
        cc.kind = chaos::ScenarioKind::CoalesceDrop;
        cc.seed = seed;
        cc.recovery = false;
        cc.finalDrain = false;
        fault::ScheduleOptions opts;
        opts.dropModerationFlush = true;
        cc.schedule = fault::generateSchedule(
            chaos::cellScheduleSeed(cc.kind, seed), opts);
        if (!chaos::runCell(cc).passed) {
            failing = cc;
            found = true;
        }
    }
    ASSERT_TRUE(found)
        << "no failing coalesce_drop cell in 40 seeds";

    fault::Schedule minimal = chaos::shrink(failing);
    EXPECT_GE(minimal.size(), 1u);

    fault::Schedule decoded;
    ASSERT_TRUE(fault::Schedule::decode(minimal.encode(), decoded));
    EXPECT_EQ(minimal.encode(), decoded.encode());

    chaos::CellConfig replay = failing;
    replay.schedule = decoded;
    chaos::CellResult a = chaos::runCell(replay);
    chaos::CellResult b = chaos::runCell(replay);
    EXPECT_FALSE(a.passed);
    EXPECT_EQ(a.passed, b.passed);
    EXPECT_EQ(a.posted, b.posted);
    EXPECT_EQ(a.delivered, b.delivered);
    EXPECT_EQ(a.coalescedSatisfied, b.coalescedSatisfied);
    EXPECT_EQ(a.modFlushDropped, b.modFlushDropped);
    EXPECT_EQ(a.injected, b.injected);
    EXPECT_EQ(a.violations, b.violations);

    // Recovery + drain rescue the very same shrunk schedule.
    chaos::CellConfig rescued = replay;
    rescued.recovery = true;
    rescued.finalDrain = true;
    EXPECT_TRUE(chaos::runCell(rescued).passed);
}

TEST(Chaos, PreemptStormSurvivesSaveFaultsWithRecovery)
{
    // The storm aims drops and torn double-saves at the
    // preempt-save window; with recovery on no post may be lost,
    // and across the seed range the fabric must actually preempt
    // and hit the new site.
    std::uint64_t preemptions = 0;
    std::uint64_t saveFaults = 0;
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        chaos::CellConfig cc;
        cc.kind = chaos::ScenarioKind::PreemptStorm;
        cc.seed = seed;
        fault::ScheduleOptions opts;
        opts.dropPreemptSave = true;
        opts.duplicatePreemptSave = true;
        cc.schedule = fault::generateSchedule(
            chaos::cellScheduleSeed(cc.kind, seed), opts);
        chaos::CellResult r = chaos::runCell(cc);
        EXPECT_TRUE(r.passed)
            << "seed " << seed << ": "
            << (r.violations.empty() ? "?" : r.violations[0]);
        preemptions += r.preemptions;
        saveFaults += r.preemptSaveDropped + r.preemptResumeReplayed;
    }
    EXPECT_GT(preemptions, 0u);
    EXPECT_GT(saveFaults, 0u);
}

TEST(Chaos, ShrunkPreemptStormReproReplaysBitIdentically)
{
    // Same .repro contract as the moderation scenarios, for the
    // preempt-save fault sites: shrink a failing storm cell,
    // round-trip the shrunk schedule through its text encoding, and
    // the replay must reproduce the identical result — including
    // the preempt counters — run after run.
    chaos::CellConfig failing;
    bool found = false;
    for (std::uint64_t seed = 1; seed <= 40 && !found; ++seed) {
        chaos::CellConfig cc;
        cc.kind = chaos::ScenarioKind::PreemptStorm;
        cc.seed = seed;
        cc.recovery = false;
        cc.finalDrain = false;
        fault::ScheduleOptions opts;
        opts.dropPreemptSave = true;
        opts.duplicatePreemptSave = true;
        cc.schedule = fault::generateSchedule(
            chaos::cellScheduleSeed(cc.kind, seed), opts);
        if (!chaos::runCell(cc).passed) {
            failing = cc;
            found = true;
        }
    }
    ASSERT_TRUE(found)
        << "no failing preempt_storm cell in 40 seeds";

    fault::Schedule minimal = chaos::shrink(failing);
    EXPECT_GE(minimal.size(), 1u);

    fault::Schedule decoded;
    ASSERT_TRUE(fault::Schedule::decode(minimal.encode(), decoded));
    EXPECT_EQ(minimal.encode(), decoded.encode());

    chaos::CellConfig replay = failing;
    replay.schedule = decoded;
    chaos::CellResult a = chaos::runCell(replay);
    chaos::CellResult b = chaos::runCell(replay);
    EXPECT_FALSE(a.passed);
    EXPECT_EQ(a.passed, b.passed);
    EXPECT_EQ(a.posted, b.posted);
    EXPECT_EQ(a.delivered, b.delivered);
    EXPECT_EQ(a.preemptions, b.preemptions);
    EXPECT_EQ(a.preemptSaveDropped, b.preemptSaveDropped);
    EXPECT_EQ(a.preemptResumeReplayed, b.preemptResumeReplayed);
    EXPECT_EQ(a.injected, b.injected);
    EXPECT_EQ(a.violations, b.violations);

    // Recovery + drain rescue the very same shrunk schedule.
    chaos::CellConfig rescued = replay;
    rescued.recovery = true;
    rescued.finalDrain = true;
    EXPECT_TRUE(chaos::runCell(rescued).passed);
}

TEST(FaultSchedule, FfSitesLeaveOldSchedulesByteIdentical)
{
    // The fast-forward boundary fault classes default off, so every
    // schedule generated before the sampled-detail mode existed must
    // stay byte-identical — same contract the moderation and
    // preempt-save sites honored when they were added.
    fault::Schedule def =
        fault::generateSchedule(42, fault::ScheduleOptions{});
    EXPECT_EQ(def.encode().find("ff_transition"), std::string::npos);

    fault::ScheduleOptions opts;
    opts.delayFfDetail = true;
    opts.dropFfRaise = true;
    opts.directives = 64;
    fault::Schedule s = fault::generateSchedule(42, opts);
    EXPECT_NE(s.encode().find("ff_transition"), std::string::npos);
}

TEST(Chaos, FfBoundaryCellsPassAndExerciseTransitions)
{
    // Grid-option cells (detail pins + boundary-armed drops) must
    // pass the conservation and timeline invariants, engage the
    // fast-forward controller, and actually land faults on the
    // transition site.
    std::uint64_t injected = 0;
    std::uint64_t entries = 0;
    std::uint64_t dropped = 0;
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        chaos::CellConfig cc;
        cc.kind = chaos::ScenarioKind::FfBoundary;
        cc.seed = seed;
        fault::ScheduleOptions opts;
        opts.dropNotification = false;
        opts.delayNotification = false;
        opts.duplicateNotification = false;
        opts.reorderUpid = false;
        opts.stormNotification = false;
        opts.timerMisfire = false;
        opts.timerDelay = false;
        opts.timerSpurious = false;
        opts.dropForward = false;
        opts.delayForward = false;
        opts.descheduleWindow = false;
        opts.delayFfDetail = true;
        opts.dropFfRaise = true;
        cc.schedule = fault::generateSchedule(
            chaos::cellScheduleSeed(cc.kind, seed), opts);
        chaos::CellResult r = chaos::runCell(cc);
        EXPECT_TRUE(r.passed)
            << "seed " << seed << ": "
            << (r.violations.empty() ? "?" : r.violations[0]);
        EXPECT_GT(r.ffEntries, 0u) << "seed " << seed;
        injected += r.injected;
        entries += r.ffEntries;
        dropped += r.ffRaisesDropped;
    }
    EXPECT_GT(injected, 0u);
    EXPECT_GT(entries, 0u);
    EXPECT_GT(dropped, 0u);
}

TEST(Chaos, FfBoundaryPinnedOnlyEntryIsNotAFailure)
{
    // Regression: a Delay at the first entry consult pins detail over
    // the cell's only FF-eligible window, so fast-forward legitimately
    // never engages. The entry was attempted, so the boundary was
    // exercised; these replays once reported "never engaged".
    const std::pair<std::uint64_t, const char *> replays[] = {
        {735, "ff_transition:0:delay:3975"},
        {882, "ff_transition:0:delay:4013"},
    };
    for (const auto &[seed, text] : replays) {
        chaos::CellConfig cc;
        cc.kind = chaos::ScenarioKind::FfBoundary;
        cc.seed = seed;
        ASSERT_TRUE(fault::Schedule::decode(text, cc.schedule));
        chaos::CellResult r = chaos::runCell(cc);
        EXPECT_TRUE(r.passed)
            << "seed " << seed << ": "
            << (r.violations.empty() ? "?" : r.violations[0]);
        EXPECT_EQ(r.ffEntries, 0u) << "seed " << seed;
        EXPECT_EQ(r.injected, 1u) << "seed " << seed;
    }
}

TEST(Chaos, FfBoundaryNoEntryAttemptStillFails)
{
    // Negative control: a horizon too short for the pipeline to drain
    // reaches no entry consult at all, which must still be reported.
    chaos::CellConfig cc;
    cc.kind = chaos::ScenarioKind::FfBoundary;
    cc.seed = 735;
    cc.horizon = 16;
    chaos::CellResult r = chaos::runCell(cc);
    EXPECT_FALSE(r.passed);
    EXPECT_EQ(r.ffEntries, 0u);
    bool reported = false;
    for (const std::string &v : r.violations)
        reported |= v.find("fast-forward never engaged") !=
                    std::string::npos;
    EXPECT_TRUE(reported);
}

TEST(Chaos, ShrunkFfBoundaryReproReplaysBitIdentically)
{
    // The .repro contract for the boundary scenario: a doubled raise
    // at a mode transition is an unconditional conservation failure
    // (the uarch tier has no dedup), so craft one, shrink it,
    // round-trip the shrunk schedule through its text encoding, and
    // the replay must reproduce the identical result run after run.
    chaos::CellConfig failing;
    bool found = false;
    for (std::uint64_t seed = 1; seed <= 40 && !found; ++seed) {
        chaos::CellConfig cc;
        cc.kind = chaos::ScenarioKind::FfBoundary;
        cc.seed = seed;
        fault::ScheduleOptions opts;
        opts.dropNotification = false;
        opts.delayNotification = false;
        opts.duplicateNotification = false;
        opts.reorderUpid = false;
        opts.stormNotification = false;
        opts.timerMisfire = false;
        opts.timerDelay = false;
        opts.timerSpurious = false;
        opts.dropForward = false;
        opts.delayForward = false;
        opts.descheduleWindow = false;
        opts.duplicateFfRaise = true;
        cc.schedule = fault::generateSchedule(
            chaos::cellScheduleSeed(cc.kind, seed), opts);
        if (!chaos::runCell(cc).passed) {
            failing = cc;
            found = true;
        }
    }
    ASSERT_TRUE(found) << "no failing ff_boundary cell in 40 seeds";

    fault::Schedule minimal = chaos::shrink(failing);
    EXPECT_GE(minimal.size(), 1u);
    EXPECT_LE(minimal.size(), failing.schedule.size());

    // 1-minimal: removing any remaining directive makes it pass.
    for (std::size_t i = 0; i < minimal.size(); ++i) {
        fault::Schedule sub = minimal;
        sub.directives.erase(sub.directives.begin() +
                             static_cast<std::ptrdiff_t>(i));
        chaos::CellConfig p = failing;
        p.schedule = sub;
        EXPECT_TRUE(chaos::runCell(p).passed) << i;
    }

    fault::Schedule decoded;
    ASSERT_TRUE(fault::Schedule::decode(minimal.encode(), decoded));
    EXPECT_EQ(minimal.encode(), decoded.encode());

    chaos::CellConfig replay = failing;
    replay.schedule = decoded;
    chaos::CellResult a = chaos::runCell(replay);
    chaos::CellResult b = chaos::runCell(replay);
    EXPECT_FALSE(a.passed);
    EXPECT_EQ(a.passed, b.passed);
    EXPECT_EQ(a.posted, b.posted);
    EXPECT_EQ(a.delivered, b.delivered);
    EXPECT_EQ(a.ffEntries, b.ffEntries);
    EXPECT_EQ(a.ffExits, b.ffExits);
    EXPECT_EQ(a.ffRaisesDropped, b.ffRaisesDropped);
    EXPECT_EQ(a.injected, b.injected);
    EXPECT_EQ(a.violations, b.violations);
}

/** Fold every CellResult field, violation text included. */
void
foldCellResult(Fnv1a &d, const chaos::CellResult &r)
{
    d.update(r.passed);
    d.update(r.stuck);
    d.update(r.violations.size());
    for (const std::string &v : r.violations) {
        d.update(v.size());
        d.update(v.data(), v.size());
    }
    for (std::uint64_t v :
         {r.posted, r.delivered, r.abandoned, r.spuriousScans,
          r.coalescedSatisfied, r.modCoalesced, r.modFlushes,
          r.modFlushDropped, r.modFlushDelayed, r.injected,
          r.handlerRuns, r.recoveredRescan, r.recoveredTimerLate,
          r.recoveredFwdParked, r.senderRetries, r.senderFallbacks,
          r.preemptions, r.preemptSaveDropped,
          r.preemptResumeReplayed, r.ffEntries, r.ffExits,
          r.ffRaisesDropped, r.ckptSnapshots, r.ckptCorruptDetected,
          r.ckptFallbacks, r.rollbackRetries,
          r.rollbackEventsReplayed})
        d.update(v);
    d.update(r.crashRecovered);
}

/** A cell whose event budget trips before its first drain. */
chaos::CellConfig
tinyBudgetCell(chaos::ScenarioKind kind)
{
    chaos::CellConfig cc;
    cc.kind = kind;
    cc.seed = 3;
    cc.eventBudget = 20;
    return cc;
}

TEST(Chaos, KernelCellResultsArePinned)
{
    // Every field of every result, pinned: a change to how a cell is
    // driven (budget, drain, rollback, snapshot cadence) must leave
    // the grid, the --no-recovery loss grid and the stuck reports
    // byte-identical.
    Fnv1a grid;
    const chaos::GridConfig gc;
    for (std::size_t k = 0; k < chaos::kNumScenarios; ++k)
        for (std::uint64_t seed = 1; seed <= 8; ++seed)
            foldCellResult(
                grid, chaos::runCell(chaos::gridCell(
                          gc, static_cast<chaos::ScenarioKind>(k),
                          seed)));
    EXPECT_EQ(grid.value(), 0x851963960a5a2d7eull);

    // The loss demonstration: recovery and the final drain off. Only
    // seed 13 fails, with a stranded notification.
    Fnv1a loss;
    chaos::GridConfig lc;
    lc.recovery = false;
    lc.finalDrain = false;
    unsigned failed = 0;
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        chaos::CellResult r = chaos::runCell(chaos::gridCell(
            lc, chaos::ScenarioKind::UipiPingPong, seed));
        failed += r.passed ? 0 : 1;
        foldCellResult(loss, r);
    }
    EXPECT_EQ(failed, 1u);
    EXPECT_EQ(loss.value(), 0x93cf8ede4899d562ull);

    // A plain cell's stuck report carries no rollback suffix; a
    // checkpointing cell's does.
    chaos::CellResult plain =
        chaos::runCell(tinyBudgetCell(chaos::ScenarioKind::UipiPingPong));
    ASSERT_TRUE(plain.stuck);
    ASSERT_FALSE(plain.violations.empty());
    EXPECT_EQ(plain.violations.front(),
              "StuckSimulation: event budget of 20 exhausted at cycle "
              "40763 (35 events still pending; next: @43008#18 "
              "@48049#38 @52255#6 @57090#44 @61762#27 @71180#41 "
              "@72356#39 @73951#31)");
    chaos::CellResult ckpt =
        chaos::runCell(tinyBudgetCell(chaos::ScenarioKind::CkptCrash));
    ASSERT_TRUE(ckpt.stuck);
    ASSERT_FALSE(ckpt.violations.empty());
    EXPECT_EQ(ckpt.violations.front(),
              "StuckSimulation: event budget of 20 exhausted at cycle "
              "800 (53 events still pending; next: @840#72 @2396#12 "
              "@3724#33 @4249#2 @4652#32 @6394#3 @11275#6 @12868#45; "
              "after 1 rollback retries)");
    Fnv1a stuck;
    foldCellResult(stuck, plain);
    foldCellResult(stuck, ckpt);
    EXPECT_EQ(stuck.value(), 0x695839e86c9bb6abull);
}

TEST(Chaos, ScenarioNamesRoundTrip)
{
    for (std::size_t i = 0; i < chaos::kNumScenarios; ++i) {
        auto k = static_cast<chaos::ScenarioKind>(i);
        chaos::ScenarioKind back;
        ASSERT_TRUE(
            chaos::parseScenario(chaos::scenarioName(k), back));
        EXPECT_EQ(back, k);
    }
    chaos::ScenarioKind out;
    EXPECT_FALSE(chaos::parseScenario("bogus", out));
}

} // namespace
