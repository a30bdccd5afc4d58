/**
 * @file
 * Kernel-protocol tests: UIPI registration and SN/slow-path
 * semantics across context switches, KB-timer multiplexing (§4.3),
 * forwarding registration and DUPID parking (§4.5), and the Fig. 6
 * timer-core model.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "des/simulation.hh"
#include "fault/fault.hh"
#include "obs/kernel_trace.hh"
#include "obs/metrics.hh"
#include "obs/trace_export.hh"
#include "os/kernel.hh"
#include "os/timer_core.hh"
#include "stats/digest.hh"

using namespace xui;

namespace
{

struct KernelFixture : public ::testing::Test
{
    Simulation sim{1};
    CostModel costs;
    Kernel kernel{sim, costs, 4};
};

} // namespace

// ----------------------------------------------------------------------
// Threads and scheduling
// ----------------------------------------------------------------------

TEST_F(KernelFixture, CreateAndSchedule)
{
    ThreadId t = kernel.createThread();
    EXPECT_FALSE(kernel.isRunning(t));
    Cycles cost = kernel.scheduleOn(t, 0);
    EXPECT_EQ(cost, costs.contextSwitch);
    EXPECT_TRUE(kernel.isRunning(t));
    EXPECT_EQ(kernel.runningOn(0), t);
}

TEST_F(KernelFixture, DeschedulePreviousOccupant)
{
    ThreadId a = kernel.createThread();
    ThreadId b = kernel.createThread();
    kernel.scheduleOn(a, 0);
    kernel.scheduleOn(b, 0);
    EXPECT_FALSE(kernel.isRunning(a));
    EXPECT_EQ(kernel.runningOn(0), b);
}

TEST_F(KernelFixture, DescheduleIdempotent)
{
    ThreadId t = kernel.createThread();
    EXPECT_EQ(kernel.deschedule(t), 0u);
    kernel.scheduleOn(t, 1);
    EXPECT_EQ(kernel.deschedule(t), costs.contextSwitch);
    EXPECT_EQ(kernel.runningOn(1), kNoThread);
}

// ----------------------------------------------------------------------
// UIPI protocol (§3.2)
// ----------------------------------------------------------------------

TEST_F(KernelFixture, SenduipiFastPathInvokesHandler)
{
    ThreadId t = kernel.createThread();
    std::vector<unsigned> got;
    kernel.registerHandler(t, [&](unsigned v) { got.push_back(v); });
    int route = kernel.registerSender(t, 7);
    ASSERT_GE(route, 0);
    kernel.scheduleOn(t, 0);
    EXPECT_EQ(kernel.senduipi(route), DeliveryPath::Fast);
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0], 7u);
}

TEST_F(KernelFixture, RegisterSenderWithoutHandlerFails)
{
    ThreadId t = kernel.createThread();
    EXPECT_EQ(kernel.registerSender(t, 1), -1);
}

TEST_F(KernelFixture, DescheduledThreadSuppressedThenReposted)
{
    ThreadId t = kernel.createThread();
    std::vector<unsigned> got;
    kernel.registerHandler(t, [&](unsigned v) { got.push_back(v); });
    int route = kernel.registerSender(t, 9);
    kernel.scheduleOn(t, 0);
    kernel.deschedule(t);

    // SN is set: posts record the vector but do not notify.
    EXPECT_EQ(kernel.senduipi(route), DeliveryPath::Suppressed);
    EXPECT_EQ(kernel.senduipi(route), DeliveryPath::Suppressed);
    EXPECT_TRUE(got.empty());
    EXPECT_EQ(kernel.pendingReposts(t), 1u);  // one PIR bit

    // Resume: the kernel reposts the captured interrupt.
    Cycles cost = kernel.scheduleOn(t, 2);
    EXPECT_GT(cost, costs.contextSwitch);  // includes the repost
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0], 9u);
    EXPECT_EQ(kernel.pendingReposts(t), 0u);
}

TEST_F(KernelFixture, MultipleVectorsAllReposted)
{
    ThreadId t = kernel.createThread();
    std::vector<unsigned> got;
    kernel.registerHandler(t, [&](unsigned v) { got.push_back(v); });
    int r1 = kernel.registerSender(t, 3);
    int r2 = kernel.registerSender(t, 11);
    kernel.senduipi(r1);
    kernel.senduipi(r2);
    kernel.scheduleOn(t, 0);
    EXPECT_EQ(got.size(), 2u);
}

TEST_F(KernelFixture, SnClearedOnResume)
{
    ThreadId t = kernel.createThread();
    kernel.registerHandler(t, [](unsigned) {});
    int route = kernel.registerSender(t, 1);
    kernel.scheduleOn(t, 0);
    kernel.deschedule(t);
    kernel.scheduleOn(t, 1);
    // Running again: fast path works.
    EXPECT_EQ(kernel.senduipi(route), DeliveryPath::Fast);
}

// ----------------------------------------------------------------------
// KB timer multiplexing (§4.3)
// ----------------------------------------------------------------------

TEST_F(KernelFixture, TimerRequiresEnable)
{
    ThreadId t = kernel.createThread();
    kernel.scheduleOn(t, 0);
    EXPECT_FALSE(kernel.setTimer(t, 100, KbTimerMode::Periodic));
    kernel.enableKbTimer(t, 0x21);
    EXPECT_TRUE(kernel.setTimer(t, 100, KbTimerMode::Periodic));
    EXPECT_TRUE(kernel.coreTimer(0).armed());
}

TEST_F(KernelFixture, PollFiresHandler)
{
    ThreadId t = kernel.createThread();
    int fires = 0;
    kernel.registerHandler(t, [&](unsigned) { ++fires; });
    kernel.enableKbTimer(t, 0x21);
    kernel.scheduleOn(t, 0);
    kernel.setTimer(t, 100, KbTimerMode::Periodic);
    sim.runUntil(50);
    EXPECT_FALSE(kernel.pollKbTimer(0));
    sim.runUntil(100);
    EXPECT_TRUE(kernel.pollKbTimer(0));
    EXPECT_EQ(fires, 1);
    // Periodic: rearmed for the next period.
    sim.runUntil(200);
    EXPECT_TRUE(kernel.pollKbTimer(0));
    EXPECT_EQ(fires, 2);
}

TEST_F(KernelFixture, TimerSavedAcrossContextSwitch)
{
    ThreadId a = kernel.createThread();
    ThreadId b = kernel.createThread();
    kernel.registerHandler(a, [](unsigned) {});
    kernel.enableKbTimer(a, 0x21);
    kernel.scheduleOn(a, 0);
    kernel.setTimer(a, 1000, KbTimerMode::Periodic);

    // Switch to b: a's timer must not fire for b.
    kernel.scheduleOn(b, 0);
    EXPECT_FALSE(kernel.coreTimer(0).armed());
    sim.runUntil(5000);
    EXPECT_FALSE(kernel.pollKbTimer(0));
}

TEST_F(KernelFixture, MissedDeadlineDeliveredOnResume)
{
    ThreadId a = kernel.createThread();
    ThreadId b = kernel.createThread();
    int fires = 0;
    kernel.registerHandler(a, [&](unsigned) { ++fires; });
    kernel.enableKbTimer(a, 0x21);
    kernel.scheduleOn(a, 0);
    kernel.setTimer(a, 100, KbTimerMode::Periodic);
    kernel.scheduleOn(b, 0);  // a descheduled before the deadline

    // Long after the deadline, resume a: missed firing delivered.
    sim.runUntil(10000);
    Cycles cost = kernel.scheduleOn(a, 0);
    EXPECT_EQ(fires, 1);
    EXPECT_GT(cost, costs.contextSwitch);
    // And the periodic deadline was realigned into the future.
    EXPECT_TRUE(kernel.coreTimer(0).armed());
    EXPECT_FALSE(kernel.coreTimer(0).expired(sim.now()));
}

TEST_F(KernelFixture, TimerMigratesWithThreadAcrossCores)
{
    ThreadId t = kernel.createThread();
    kernel.registerHandler(t, [](unsigned) {});
    kernel.enableKbTimer(t, 0x21);
    kernel.scheduleOn(t, 0);
    kernel.setTimer(t, 500, KbTimerMode::Periodic);
    kernel.deschedule(t);
    kernel.scheduleOn(t, 3);  // resumes on a different core
    EXPECT_TRUE(kernel.coreTimer(3).armed());
    EXPECT_FALSE(kernel.coreTimer(0).armed());
}

// ----------------------------------------------------------------------
// Interrupt forwarding (§4.5)
// ----------------------------------------------------------------------

TEST_F(KernelFixture, ForwardFastPathToRunningThread)
{
    ThreadId t = kernel.createThread();
    std::vector<unsigned> got;
    kernel.registerHandler(t, [&](unsigned v) { got.push_back(v); });
    kernel.scheduleOn(t, 1);
    int vec = kernel.registerForwarding(t, 1);
    ASSERT_GE(vec, 64);
    EXPECT_EQ(kernel.deviceInterrupt(1, static_cast<unsigned>(vec)),
              DeliveryPath::Fast);
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0], static_cast<unsigned>(vec));
}

TEST_F(KernelFixture, ForwardSlowPathParksAndDrains)
{
    ThreadId t = kernel.createThread();
    ThreadId other = kernel.createThread();
    std::vector<unsigned> got;
    kernel.registerHandler(t, [&](unsigned v) { got.push_back(v); });
    kernel.scheduleOn(t, 1);
    int vec = kernel.registerForwarding(t, 1);
    ASSERT_GE(vec, 0);
    kernel.scheduleOn(other, 1);  // t descheduled

    EXPECT_EQ(kernel.deviceInterrupt(1, static_cast<unsigned>(vec)),
              DeliveryPath::Deferred);
    EXPECT_TRUE(got.empty());
    EXPECT_EQ(kernel.pendingReposts(t), 1u);

    kernel.scheduleOn(t, 2);
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0], static_cast<unsigned>(vec));
}

TEST_F(KernelFixture, UnforwardedVectorNotDelivered)
{
    ThreadId t = kernel.createThread();
    int fires = 0;
    kernel.registerHandler(t, [&](unsigned) { ++fires; });
    kernel.scheduleOn(t, 0);
    EXPECT_EQ(kernel.deviceInterrupt(0, 99), DeliveryPath::Deferred);
    EXPECT_EQ(fires, 0);
}

TEST_F(KernelFixture, VectorSpaceLimitation)
{
    // §4.5: forwarding is constrained by the 256-vector space.
    ThreadId t = kernel.createThread();
    kernel.registerHandler(t, [](unsigned) {});
    kernel.scheduleOn(t, 0);
    int count = 0;
    while (kernel.registerForwarding(t, 0) >= 0)
        ++count;
    EXPECT_EQ(count, 192);  // vectors 64..255
    EXPECT_EQ(kernel.registerForwarding(t, 0), -1);  // stays exhausted
}

// ----------------------------------------------------------------------
// Interval timers / signals (setitimer semantics)
// ----------------------------------------------------------------------

TEST_F(KernelFixture, IntervalTimerFiresPeriodically)
{
    ThreadId t = kernel.createThread();
    std::vector<unsigned> sigs;
    kernel.registerHandler(t, [&](unsigned s) { sigs.push_back(s); });
    kernel.scheduleOn(t, 0);
    int id = kernel.setInterval(t, 1000);
    ASSERT_GE(id, 0);
    sim.runUntil(5500);
    EXPECT_EQ(sigs.size(), 5u);
    EXPECT_EQ(sigs.front(), 14u);  // SIGALRM
    EXPECT_EQ(kernel.signalsDelivered(), 5u);
}

TEST_F(KernelFixture, IntervalTimerCollapsesWhileDescheduled)
{
    ThreadId t = kernel.createThread();
    int fires = 0;
    kernel.registerHandler(t, [&](unsigned) { ++fires; });
    kernel.scheduleOn(t, 0);
    kernel.setInterval(t, 1000);
    kernel.deschedule(t);
    sim.runUntil(10500);  // ten firings while out
    EXPECT_EQ(fires, 0);
    Cycles cost = kernel.scheduleOn(t, 0);
    // Exactly one pending SIGALRM delivered on resume.
    EXPECT_EQ(fires, 1);
    EXPECT_GT(cost, costs.contextSwitch);
}

TEST_F(KernelFixture, CancelIntervalStopsFiring)
{
    ThreadId t = kernel.createThread();
    int fires = 0;
    kernel.registerHandler(t, [&](unsigned) { ++fires; });
    kernel.scheduleOn(t, 0);
    int id = kernel.setInterval(t, 1000);
    sim.runUntil(2500);
    EXPECT_EQ(fires, 2);
    kernel.cancelInterval(id);
    sim.runUntil(10000);
    EXPECT_EQ(fires, 2);
}

TEST_F(KernelFixture, InvalidIntervalRejected)
{
    ThreadId t = kernel.createThread();
    EXPECT_EQ(kernel.setInterval(t, 0), -1);
    kernel.cancelInterval(-1);   // no-op
    kernel.cancelInterval(999);  // no-op
}

// ----------------------------------------------------------------------
// Kernel delivery counters: metric names and counter-track samples
// ----------------------------------------------------------------------

namespace
{

std::string
metricsJson(const MetricsRegistry &reg)
{
    std::ostringstream os;
    reg.writeJson(os);
    return os.str();
}

/** Counter-track samples whose track name starts with `prefix`. */
std::size_t
samplesOf(const std::string &trace, const std::string &prefix)
{
    const std::string key = "\"name\": \"" + prefix;
    std::size_t n = 0;
    for (std::size_t at = trace.find(key); at != std::string::npos;
         at = trace.find(key, at + 1))
        ++n;
    return n;
}

} // namespace

TEST(KernelStats, MetricNamesArePinned)
{
    Simulation sim(1);
    CostModel costs;
    Kernel kernel(sim, costs, 2);
    MetricsRegistry reg;
    kernel.attachMetrics(reg);
    EXPECT_EQ(metricsJson(reg),
        "{\n"
        "  \"counters\": {\n"
        "    \"kernel.context_switches\": 0,\n"
        "    \"kernel.fault.forward_delayed\": 0,\n"
        "    \"kernel.fault.forward_dropped\": 0,\n"
        "    \"kernel.fault.ipi_delayed\": 0,\n"
        "    \"kernel.fault.ipi_dropped\": 0,\n"
        "    \"kernel.fault.ipi_duplicated\": 0,\n"
        "    \"kernel.fault.ipi_reordered\": 0,\n"
        "    \"kernel.fault.ipi_storm\": 0,\n"
        "    \"kernel.fault.kbtimer_delayed\": 0,\n"
        "    \"kernel.fault.kbtimer_misfire\": 0,\n"
        "    \"kernel.fault.kbtimer_spurious\": 0,\n"
        "    \"kernel.forward.fast\": 0,\n"
        "    \"kernel.forward.slow\": 0,\n"
        "    \"kernel.kbtimer.fired\": 0,\n"
        "    \"kernel.moderation.coalesced\": 0,\n"
        "    \"kernel.moderation.flush_delayed\": 0,\n"
        "    \"kernel.moderation.flush_dropped\": 0,\n"
        "    \"kernel.moderation.flushes\": 0,\n"
        "    \"kernel.moderation.level_redeliver\": 0,\n"
        "    \"kernel.moderation.missed\": 0,\n"
        "    \"kernel.moderation.missed_then_delivered\": 0,\n"
        "    \"kernel.moderation.suppressed\": 0,\n"
        "    \"kernel.preempt.completions\": 0,\n"
        "    \"kernel.preempt.deferred\": 0,\n"
        "    \"kernel.preempt.double_save\": 0,\n"
        "    \"kernel.preempt.preemptions\": 0,\n"
        "    \"kernel.preempt.resume_replayed\": 0,\n"
        "    \"kernel.preempt.resumes\": 0,\n"
        "    \"kernel.preempt.save_dropped\": 0,\n"
        "    \"kernel.recovery.forward_delayed\": 0,\n"
        "    \"kernel.recovery.forward_parked\": 0,\n"
        "    \"kernel.recovery.kbtimer_cancelled\": 0,\n"
        "    \"kernel.recovery.kbtimer_late\": 0,\n"
        "    \"kernel.recovery.parked_fallback\": 0,\n"
        "    \"kernel.recovery.rescan_retry\": 0,\n"
        "    \"kernel.recovery.rollback_events_replayed\": 0,\n"
        "    \"kernel.recovery.rollback_retries\": 0,\n"
        "    \"kernel.recovery.spurious_scans\": 0,\n"
        "    \"kernel.recovery.upid_rescan\": 0,\n"
        "    \"kernel.reposts\": 0,\n"
        "    \"kernel.senduipi.deferred\": 0,\n"
        "    \"kernel.senduipi.fast\": 0,\n"
        "    \"kernel.senduipi.suppressed\": 0,\n"
        "    \"kernel.signals_delivered\": 0\n"
        "  },\n"
        "  \"gauges\": {},\n"
        "  \"latencies\": {}\n"
        "}\n");
}

TEST(KernelStats, CounterTrackIsPinned)
{
    // Moderated low-priority posts, unmoderated high-priority posts
    // that preempt them, and a fixed fault schedule that drops and
    // reorders notifications, drops and delays moderation flushes,
    // and doubles one frame save and drops another, so every traced
    // family samples.
    Simulation sim(7);
    CostModel costs;
    Kernel kernel(sim, costs, 2);
    MetricsRegistry reg;
    kernel.attachMetrics(reg);
    TraceJsonWriter writer;
    KernelCounterTrace track(writer);
    kernel.attachCounterTrace(&track);

    fault::Schedule sched;
    ASSERT_TRUE(fault::Schedule::decode(
        "notify_ipi:1:drop:0;notify_ipi:4:drop:0;"
        "notify_ipi:6:reorder:0;notify_ipi:7:duplicate:0;"
        "moderation_flush:1:drop:0;moderation_flush:3:delay:40;"
        "preempt_save:1:duplicate:0;preempt_save:3:drop:0",
        sched));
    fault::Injector inj(sched);
    kernel.setFaultInjector(&inj);

    ThreadId recv = kernel.createThread();
    std::uint64_t handled = 0;
    kernel.registerHandler(recv, [&handled](unsigned) { ++handled; });
    kernel.scheduleOn(recv, 0);
    const unsigned kLow = 1, kHigh = 2;
    int low = kernel.registerSender(recv, kLow);
    int high = kernel.registerSender(recv, kHigh);
    DeliveryPolicy lowPolicy;
    lowPolicy.priority = 1;
    DeliveryPolicy highPolicy;
    highPolicy.priority = 3;
    kernel.setDeliveryPolicy(recv, kLow, lowPolicy);
    kernel.setDeliveryPolicy(recv, kHigh, highPolicy);
    kernel.setHandlerCost(recv, kLow, 300);
    kernel.setHandlerCost(recv, kHigh, 80);
    ModerationParams mp;
    mp.itr = 400;
    mp.coalesceWindow = 150;
    kernel.setModeration(recv, kLow, mp);

    for (Cycles t = 0; t < 20000; t += 97)
        sim.queue().scheduleAt(t, [&kernel, low] {
            kernel.senduipi(low);
        });
    for (Cycles t = 50; t < 20000; t += 331)
        sim.queue().scheduleAt(t, [&kernel, high] {
            kernel.senduipi(high);
        });
    sim.runUntil(40000);
    EXPECT_TRUE(kernel.engineIdle(recv));
    EXPECT_GT(handled, 0u);
    // One rollback: rollback_retries samples, the replayed-event
    // total is counted but never traced.
    kernel.noteRollback(17);

    std::ostringstream os;
    writer.write(os);
    const std::string trace = os.str();
    EXPECT_GT(samplesOf(trace, "kernel.moderation."), 0u);
    EXPECT_GT(samplesOf(trace, "kernel.recovery."), 0u);
    EXPECT_GT(samplesOf(trace, "kernel.preempt."), 0u);
    EXPECT_EQ(samplesOf(trace, "kernel.senduipi."), 0u);
    EXPECT_EQ(samplesOf(trace, "kernel.fault."), 0u);
    EXPECT_EQ(samplesOf(trace,
                        "kernel.recovery.rollback_events_replayed"),
              0u);
    EXPECT_EQ(fnv1a(trace.data(), trace.size()), 0x01c9808e0a86cca8ull)
        << trace.size();
    EXPECT_EQ(metricsJson(reg),
        "{\n"
        "  \"counters\": {\n"
        "    \"kernel.context_switches\": 1,\n"
        "    \"kernel.fault.forward_delayed\": 0,\n"
        "    \"kernel.fault.forward_dropped\": 0,\n"
        "    \"kernel.fault.ipi_delayed\": 0,\n"
        "    \"kernel.fault.ipi_dropped\": 2,\n"
        "    \"kernel.fault.ipi_duplicated\": 1,\n"
        "    \"kernel.fault.ipi_reordered\": 1,\n"
        "    \"kernel.fault.ipi_storm\": 0,\n"
        "    \"kernel.fault.kbtimer_delayed\": 0,\n"
        "    \"kernel.fault.kbtimer_misfire\": 0,\n"
        "    \"kernel.fault.kbtimer_spurious\": 0,\n"
        "    \"kernel.forward.fast\": 0,\n"
        "    \"kernel.forward.slow\": 0,\n"
        "    \"kernel.kbtimer.fired\": 0,\n"
        "    \"kernel.moderation.coalesced\": 155,\n"
        "    \"kernel.moderation.flush_delayed\": 1,\n"
        "    \"kernel.moderation.flush_dropped\": 1,\n"
        "    \"kernel.moderation.flushes\": 49,\n"
        "    \"kernel.moderation.level_redeliver\": 0,\n"
        "    \"kernel.moderation.missed\": 0,\n"
        "    \"kernel.moderation.missed_then_delivered\": 0,\n"
        "    \"kernel.moderation.suppressed\": 50,\n"
        "    \"kernel.preempt.completions\": 109,\n"
        "    \"kernel.preempt.deferred\": 98,\n"
        "    \"kernel.preempt.double_save\": 1,\n"
        "    \"kernel.preempt.preemptions\": 44,\n"
        "    \"kernel.preempt.resume_replayed\": 1,\n"
        "    \"kernel.preempt.resumes\": 43,\n"
        "    \"kernel.preempt.save_dropped\": 1,\n"
        "    \"kernel.recovery.forward_delayed\": 0,\n"
        "    \"kernel.recovery.forward_parked\": 0,\n"
        "    \"kernel.recovery.kbtimer_cancelled\": 0,\n"
        "    \"kernel.recovery.kbtimer_late\": 0,\n"
        "    \"kernel.recovery.parked_fallback\": 0,\n"
        "    \"kernel.recovery.rescan_retry\": 0,\n"
        "    \"kernel.recovery.rollback_events_replayed\": 17,\n"
        "    \"kernel.recovery.rollback_retries\": 1,\n"
        "    \"kernel.recovery.spurious_scans\": 2,\n"
        "    \"kernel.recovery.upid_rescan\": 8,\n"
        "    \"kernel.reposts\": 0,\n"
        "    \"kernel.senduipi.deferred\": 0,\n"
        "    \"kernel.senduipi.fast\": 5,\n"
        "    \"kernel.senduipi.suppressed\": 55,\n"
        "    \"kernel.signals_delivered\": 0\n"
        "  },\n"
        "  \"gauges\": {},\n"
        "  \"latencies\": {}\n"
        "}\n");
}

// ----------------------------------------------------------------------
// Fig. 6 timer-core model
// ----------------------------------------------------------------------

TEST(TimerCore, XuiNeedsNoTimerCore)
{
    Simulation sim(1);
    CostModel costs;
    TimerCoreModel m(sim, costs, TimerInterface::XuiKbTimer,
                     usToCycles(5), 8);
    m.run(kCyclesPerMs * 100);
    EXPECT_DOUBLE_EQ(m.utilization(), 0.0);
    EXPECT_DOUBLE_EQ(m.achievedRateFraction(), 1.0);
}

TEST(TimerCore, UtilizationGrowsWithCores)
{
    Simulation sim(1);
    CostModel costs;
    double prev = 0.0;
    for (unsigned cores : {1u, 4u, 8u, 16u}) {
        Simulation s(1);
        TimerCoreModel m(s, costs, TimerInterface::Setitimer,
                         usToCycles(20), cores);
        m.run(kCyclesPerMs * 50);
        EXPECT_GT(m.utilization(), prev);
        prev = m.utilization();
    }
}

TEST(TimerCore, SetitimerCheaperThanNanosleep)
{
    Simulation s1(1), s2(1);
    CostModel costs;
    TimerCoreModel a(s1, costs, TimerInterface::Setitimer,
                     usToCycles(20), 4);
    TimerCoreModel b(s2, costs, TimerInterface::Nanosleep,
                     usToCycles(20), 4);
    a.run(kCyclesPerMs * 50);
    b.run(kCyclesPerMs * 50);
    EXPECT_LT(a.utilization(), b.utilization());
}

TEST(TimerCore, SaturationDropsAchievedRate)
{
    Simulation sim(1);
    CostModel costs;
    // 5us interval with 28 cores: work per interval exceeds the
    // interval -> the timer core cannot keep up.
    TimerCoreModel m(sim, costs, TimerInterface::Setitimer,
                     usToCycles(5), 28);
    m.run(kCyclesPerMs * 50);
    EXPECT_DOUBLE_EQ(m.utilization(), 1.0);
    EXPECT_LT(m.achievedRateFraction(), 0.9);
}

TEST(TimerCore, RdtscSpinBurnsWholeCore)
{
    Simulation sim(1);
    CostModel costs;
    TimerCoreModel m(sim, costs, TimerInterface::RdtscSpin,
                     usToCycles(5), 2);
    m.run(kCyclesPerMs * 10);
    EXPECT_DOUBLE_EQ(m.utilization(), 1.0);
    // But it keeps up (supports up to interval/senduipi cores).
    EXPECT_GT(m.achievedRateFraction(), 0.9);
}
