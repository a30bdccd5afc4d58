#include "fault/chaos.hh"

#include <cassert>
#include <memory>
#include <utility>

#include <algorithm>
#include <sstream>

#include "ckpt/codec.hh"
#include "ckpt/snapshot.hh"
#include "des/simulation.hh"
#include "exec/sweep.hh"
#include "fault/invariants.hh"
#include "stats/digest.hh"
#include "obs/metrics.hh"
#include "os/kernel.hh"
#include "runtime/sender.hh"
#include "stats/rng.hh"
#include "uarch/uarch_system.hh"
#include "verify/scenario.hh"
#include "workloads/kernels.hh"

namespace xui::chaos
{

namespace
{

const char *const kScenarioNames[kNumScenarios] = {
    "uipi_pingpong",
    "kbtimer_periodic",
    "forwarding_storm",
    "sender_retry",
    "interval_signals",
    "coalesce_drop",
    "itr_misfire",
    "preempt_storm",
    "ff_boundary",
    "ckpt_crash",
};

std::uint64_t
splitmix(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/** Everything a scenario's event lambdas reach into. */
struct Cell
{
    const CellConfig &cfg;
    Simulation sim;
    CostModel costs;
    Kernel kernel;
    fault::Injector inj;
    fault::DeliveryLedger ledger;
    MetricsRegistry metrics;
    Rng rng;

    /** Threads to quiesce in the final drain. */
    std::vector<ThreadId> threads;
    std::uint64_t handlerRuns = 0;

    // Sources the drain phase must stop first.
    std::unique_ptr<PeriodicEvent> poll;
    std::vector<int> intervalIds;
    std::unique_ptr<ReliableSender> sender;

    explicit Cell(const CellConfig &c)
        : cfg(c), sim(c.seed), kernel(sim, costs, 2),
          inj(c.schedule),
          rng(splitmix(c.seed ^
                       (static_cast<std::uint64_t>(c.kind) + 1)))
    {
        kernel.attachMetrics(metrics);
        inj.attachMetrics(metrics);
        kernel.setFaultInjector(&inj);
        kernel.setIntrObserver(&ledger);
        kernel.setRecoveryEnabled(c.recovery);
    }

    ThreadId makeReceiver(CoreId core)
    {
        ThreadId t = kernel.createThread();
        kernel.registerHandler(t,
                               [this](unsigned) { ++handlerRuns; });
        kernel.scheduleOn(t, core);
        threads.push_back(t);
        return t;
    }

    /**
     * Fault-driven deschedule window: Site::Deschedule consult; a
     * Delay directive closes the receiver for `magnitude` cycles.
     * The resume is always scheduled, so windows end.
     */
    void maybeFaultWindow(ThreadId tid, CoreId core)
    {
        auto d = inj.decide(fault::Site::Deschedule);
        if (d.action != fault::Action::Delay || d.magnitude == 0)
            return;
        openWindow(tid, core, d.magnitude);
    }

    void openWindow(ThreadId tid, CoreId core, Cycles len)
    {
        if (!kernel.isRunning(tid))
            return;
        kernel.deschedule(tid);
        sim.queue().scheduleAfter(len, [this, tid, core] {
            if (!kernel.isRunning(tid))
                kernel.scheduleOn(tid, core);
        });
    }

    void stopSources()
    {
        if (poll)
            poll->stop();
        for (int id : intervalIds)
            kernel.cancelInterval(id);
    }

    /**
     * Runaway self-rescheduling event loop — the livelock a
     * deschedule-site Storm directive plants in the ckpt_crash
     * scenario. Nothing ever stops it; the event budget ends the run
     * as stuck and rollback-recovery must regress to a checkpoint
     * predating the directive (or a clean restart).
     */
    void startLivelock()
    {
        if (livelocked)
            return;
        livelocked = true;
        livelockTick();
    }

    void livelockTick()
    {
        sim.queue().scheduleAfter(1, [this] { livelockTick(); });
    }

    bool livelocked = false;

    /**
     * Deterministic background tick through the horizon. The
     * ckpt_crash scenario runs it so the event stream is dense
     * enough that periodic snapshots and the seed-chosen kill point
     * land inside every cell, storm or not (the protocol traffic
     * alone fires only a few hundred events). Stops itself at the
     * horizon, so drains are unaffected.
     */
    void startTicker(Cycles period)
    {
        if (sim.now() + period > cfg.horizon)
            return;
        sim.queue().scheduleAfter(period, [this, period] {
            startTicker(period);
        });
    }

    /** Reschedule everyone once so parked vectors drain. */
    void finalDrain()
    {
        for (ThreadId t : threads)
            if (kernel.isRunning(t))
                kernel.deschedule(t);
        for (ThreadId t : threads) {
            kernel.scheduleOn(t, 0);
            kernel.deschedule(t);
        }
    }
};

/** Draw `n` event times in [1, span], sorted by construction order
 *  (the queue orders same-cycle events by schedule order anyway). */
std::vector<Cycles>
drawTimes(Rng &rng, unsigned n, Cycles span)
{
    std::vector<Cycles> times(n);
    for (auto &t : times)
        t = 1 + rng.nextBounded(span);
    return times;
}

void
buildUipiPingPong(Cell &c)
{
    ThreadId recv = c.makeReceiver(1);
    int idx = c.kernel.registerSender(
        recv, static_cast<std::uint8_t>(1 + c.rng.nextBounded(3)));
    assert(idx >= 0);

    // Baseline deschedule windows independent of the fault schedule,
    // so the SN/repost slow path is exercised in every cell.
    for (Cycles t : drawTimes(c.rng, 4, c.cfg.horizon * 3 / 4)) {
        Cycles len = 200 + c.rng.nextBounded(1800);
        c.sim.queue().scheduleAt(t, [&c, recv, len] {
            c.openWindow(recv, 1, len);
        });
    }
    for (Cycles t : drawTimes(c.rng, 48, c.cfg.horizon * 3 / 4)) {
        c.sim.queue().scheduleAt(t, [&c, recv, idx] {
            c.maybeFaultWindow(recv, 1);
            c.kernel.senduipi(idx);
        });
    }
}

void
buildKbTimerPeriodic(Cell &c)
{
    ThreadId t = c.makeReceiver(0);
    c.kernel.enableKbTimer(t, 33);
    Cycles period = 400 + c.rng.nextBounded(1600);
    c.kernel.setTimer(t, period, KbTimerMode::Periodic);

    for (Cycles w : drawTimes(c.rng, 4, c.cfg.horizon * 3 / 4)) {
        Cycles len = 200 + c.rng.nextBounded(2200);
        c.sim.queue().scheduleAt(w, [&c, t, len] {
            c.openWindow(t, 0, len);
        });
    }

    Cycles tick = period / 4 < 64 ? 64 : period / 4;
    c.poll = std::make_unique<PeriodicEvent>(
        c.sim.queue(), tick, [&c, t] {
            c.maybeFaultWindow(t, 0);
            c.kernel.pollKbTimer(0);
            return true;
        });
    c.poll->startAfterPeriod();
}

void
buildForwardingStorm(Cell &c)
{
    ThreadId t = c.makeReceiver(0);
    int vec = c.kernel.registerForwarding(t, 0);
    assert(vec >= 0);

    for (Cycles w : drawTimes(c.rng, 5, c.cfg.horizon * 3 / 4)) {
        Cycles len = 200 + c.rng.nextBounded(1800);
        c.sim.queue().scheduleAt(w, [&c, t, len] {
            c.openWindow(t, 0, len);
        });
    }
    for (Cycles w : drawTimes(c.rng, 48, c.cfg.horizon * 3 / 4)) {
        c.sim.queue().scheduleAt(w, [&c, t, vec] {
            c.maybeFaultWindow(t, 0);
            c.kernel.deviceInterrupt(
                0, static_cast<unsigned>(vec));
        });
    }
}

void
buildSenderRetry(Cell &c)
{
    ThreadId recv = c.makeReceiver(1);
    int idx = c.kernel.registerSender(recv, 2);
    assert(idx >= 0);
    ReliableSender::Options opts;
    opts.maxAttempts = 4;
    opts.backoff = 32 + c.rng.nextBounded(97);
    c.sender = std::make_unique<ReliableSender>(c.sim, c.kernel,
                                               idx, opts);
    c.sender->attachMetrics(c.metrics);

    // Aggressive windows: half the sends race a closed receiver, so
    // the retry loop (not just the resume drain) earns its keep.
    std::vector<Cycles> sends =
        drawTimes(c.rng, 32, c.cfg.horizon * 3 / 4);
    for (Cycles w : sends) {
        bool closed = c.rng.nextBool(0.5);
        Cycles len = 100 + c.rng.nextBounded(1400);
        c.sim.queue().scheduleAt(w, [&c, recv, closed, len] {
            c.maybeFaultWindow(recv, 1);
            if (closed)
                c.openWindow(recv, 1, len);
            c.sender->send();
        });
    }
}

void
buildIntervalSignals(Cell &c)
{
    ThreadId t = c.makeReceiver(0);
    Cycles interval = 800 + c.rng.nextBounded(1200);
    int id = c.kernel.setInterval(t, interval, 14);
    assert(id >= 0);
    c.intervalIds.push_back(id);

    for (Cycles w : drawTimes(c.rng, 6, c.cfg.horizon * 3 / 4)) {
        Cycles len = 400 + c.rng.nextBounded(2600);
        c.sim.queue().scheduleAt(w, [&c, t, len] {
            c.maybeFaultWindow(t, 0);
            c.openWindow(t, 0, len);
        });
    }
}

/**
 * Moderated UIPI stream whose flush events the fault fabric drops
 * mid-window (Site::ModerationFlush). Dense bursts keep a coalescing
 * window open most of the run, so a dropped flush strands a whole
 * batch in the PIR — which must then come back via the recovery
 * rescan or the resume drain, never be silently lost.
 */
void
buildCoalesceDrop(Cell &c)
{
    std::uint8_t vec =
        static_cast<std::uint8_t>(1 + c.rng.nextBounded(3));
    ThreadId recv = c.makeReceiver(1);
    int idx = c.kernel.registerSender(recv, vec);
    assert(idx >= 0);
    ModerationParams mp;
    mp.itr = 300 + c.rng.nextBounded(700);
    mp.coalesceWindow = mp.itr / 2;
    c.kernel.setModeration(recv, vec, mp);

    for (Cycles t : drawTimes(c.rng, 3, c.cfg.horizon * 3 / 4)) {
        Cycles len = 200 + c.rng.nextBounded(1800);
        c.sim.queue().scheduleAt(t, [&c, recv, len] {
            c.openWindow(recv, 1, len);
        });
    }
    for (Cycles t : drawTimes(c.rng, 64, c.cfg.horizon * 3 / 4)) {
        c.sim.queue().scheduleAt(t, [&c, recv, idx] {
            c.maybeFaultWindow(recv, 1);
            c.kernel.senduipi(idx);
        });
    }
}

/**
 * Heavy ITR suppression (no coalescing window, long gaps) with the
 * fault fabric delaying flushes and the receiver bouncing through
 * deschedule windows: flushes misfire against a parked receiver and
 * the batch has to ride the resume drain.
 */
void
buildItrMisfire(Cell &c)
{
    std::uint8_t vec =
        static_cast<std::uint8_t>(1 + c.rng.nextBounded(3));
    ThreadId recv = c.makeReceiver(1);
    int idx = c.kernel.registerSender(recv, vec);
    assert(idx >= 0);
    ModerationParams mp;
    mp.itr = 1500 + c.rng.nextBounded(2500);
    c.kernel.setModeration(recv, vec, mp);

    for (Cycles t : drawTimes(c.rng, 6, c.cfg.horizon * 3 / 4)) {
        Cycles len = 400 + c.rng.nextBounded(2400);
        c.sim.queue().scheduleAt(t, [&c, recv, len] {
            c.openWindow(recv, 1, len);
        });
    }
    for (Cycles t : drawTimes(c.rng, 48, c.cfg.horizon * 3 / 4)) {
        c.sim.queue().scheduleAt(t, [&c, recv, idx] {
            c.maybeFaultWindow(recv, 1);
            c.kernel.senduipi(idx);
        });
    }
}

/**
 * Mixed-criticality co-tenancy on one resident receiver: three
 * vectors at priorities 0/1/3 whose handler occupancies are chosen
 * so that higher-priority arrivals almost always land mid-frame and
 * preempt. The receiver never deschedules (the occupancy engine is
 * not scheduling-aware); the grid aims faults at the preempt-save
 * window, so lost and torn frame spills must come back through the
 * replay path or be caught by the ledger, never vanish silently.
 */
void
buildPreemptStorm(Cell &c)
{
    ThreadId recv = c.makeReceiver(1);
    const unsigned vecs[3] = {1, 2, 3};
    const unsigned prios[3] = {0, 1, 3};
    const Cycles frame[3] = {4000, 1500, 300};
    const unsigned sends[3] = {24, 32, 48};
    int idx[3];
    for (int i = 0; i < 3; ++i) {
        idx[i] = c.kernel.registerSender(
            recv, static_cast<std::uint8_t>(vecs[i]));
        assert(idx[i] >= 0);
        DeliveryPolicy p;
        p.priority = clampPriority(prios[i]);
        c.kernel.setDeliveryPolicy(recv, vecs[i], p);
        c.kernel.setHandlerCost(recv, vecs[i], frame[i]);
    }
    for (int i = 0; i < 3; ++i) {
        for (Cycles t : drawTimes(c.rng, sends[i],
                                  c.cfg.horizon * 3 / 4)) {
            int ix = idx[i];
            c.sim.queue().scheduleAt(t, [&c, ix] {
                c.kernel.senduipi(ix);
            });
        }
    }
}

/**
 * The checkpoint/crash scenario: a UIPI stream with deschedule
 * windows (so the protocol slow paths stay exercised) whose fault
 * consults can also plant a livelock (Storm) that only rollback
 * recovery survives. The cell driver snapshots this cell
 * every few hundred events, kills it mid-run, and restores.
 */
void
buildCkptCrash(Cell &c)
{
    c.startTicker(40);
    ThreadId recv = c.makeReceiver(1);
    int idx = c.kernel.registerSender(
        recv, static_cast<std::uint8_t>(1 + c.rng.nextBounded(3)));
    assert(idx >= 0);

    for (Cycles t : drawTimes(c.rng, 4, c.cfg.horizon * 3 / 4)) {
        Cycles len = 200 + c.rng.nextBounded(1800);
        c.sim.queue().scheduleAt(t, [&c, recv, len] {
            c.openWindow(recv, 1, len);
        });
    }
    for (Cycles t : drawTimes(c.rng, 48, c.cfg.horizon * 3 / 4)) {
        c.sim.queue().scheduleAt(t, [&c, recv, idx] {
            auto d = c.inj.decide(fault::Site::Deschedule);
            if (d.action == fault::Action::Delay &&
                d.magnitude != 0)
                c.openWindow(recv, 1, d.magnitude);
            else if (d.action == fault::Action::Storm)
                c.startLivelock();
            c.kernel.senduipi(idx);
        });
    }
}

/**
 * FfBoundary runs on the uarch tier, not through the kernel Cell: a
 * fast-forwarding core with a periodic KB timer plus a burst of
 * external UIPIs, every one of them a wake source the sampled-detail
 * controller must hand off around. Site::FfTransition is consulted
 * exactly at the mode-transition cycles; a Delay directive pins full
 * detail at the boundary, and Drop/Duplicate arm the next raise (the
 * one landing on the handoff) to be lost or doubled. The cell then
 * checks the verify tier's interrupt conservation and record-timeline
 * facts (checkInterruptFacts) plus the fast-forward ones.
 */
CellResult
runFfBoundaryCell(const CellConfig &cfg)
{
    CellResult res;
    Rng rng(splitmix(cfg.seed ^
                     (static_cast<std::uint64_t>(cfg.kind) + 1)));
    fault::Injector inj(cfg.schedule);

    Program prog = makeSpinLoop();
    CoreParams params;
    params.fastForward = true;
    params.detailWindow = 1 + rng.nextBounded(128);
    params.ffWarmup = 8 + rng.nextBounded(57);
    UarchSystem sys(cfg.seed * 1000003 + 17);
    OooCore &core = sys.addCore(params, &prog);
    core.kbTimer().configure(true, 0x21);
    core.kbTimer().setTimer(0, 600 + rng.nextBounded(1800),
                            KbTimerMode::Periodic);

    auto armed = InterruptUnit::RaiseOutcome::Deliver;
    core.intrUnit().setRaiseFaultHook(
        [&](IntrSource, std::uint8_t) {
            auto out = armed;
            armed = InterruptUnit::RaiseOutcome::Deliver;
            if (out == InterruptUnit::RaiseOutcome::Drop)
                ++res.ffRaisesDropped;
            return out;
        });
    // Entry consults reached (entering == true). A Delay directive at
    // one aborts that entry, so a cell whose only FF-eligible window
    // was pinned legitimately ends with ffEntries == 0.
    std::uint64_t entryConsults = 0;
    core.setFfTransitionHook([&](bool entering, Cycles) -> Cycles {
        if (entering)
            ++entryConsults;
        auto d = inj.decide(fault::Site::FfTransition);
        switch (d.action) {
          case fault::Action::Delay:
            return d.magnitude;
          case fault::Action::Drop:
            armed = InterruptUnit::RaiseOutcome::Drop;
            return 0;
          case fault::Action::Duplicate:
            armed = InterruptUnit::RaiseOutcome::Duplicate;
            return 0;
          default:
            return 0;
        }
    });

    // The inbox pops in arrival order, so queue the burst sorted.
    std::vector<Cycles> uipis =
        drawTimes(rng, 12, cfg.horizon * 3 / 4);
    std::sort(uipis.begin(), uipis.end());
    for (Cycles t : uipis)
        core.receiveIpi(core.uinv(), t);

    core.runCycles(cfg.horizon);

    const CoreStats &s = core.stats();
    res.posted = s.interruptsRaised;
    res.delivered = s.interruptsDelivered;
    res.injected = inj.injected();
    res.handlerRuns = s.interruptsDelivered;
    res.ffEntries = s.ffEntries;
    res.ffExits = s.ffExits;

    checkInterruptFacts(s, res.violations);
    if (s.ffExits > s.ffEntries || s.ffEntries - s.ffExits > 1)
        res.violations.push_back(
            "fast-forward entries/exits do not telescope");
    if (entryConsults == 0)
        res.violations.push_back(
            "fast-forward never engaged: no boundaries exercised");

    res.passed = res.violations.empty();
    return res;
}

void
buildScenario(Cell &c)
{
    switch (c.cfg.kind) {
      case ScenarioKind::UipiPingPong:
        buildUipiPingPong(c);
        return;
      case ScenarioKind::KbTimerPeriodic:
        buildKbTimerPeriodic(c);
        return;
      case ScenarioKind::ForwardingStorm:
        buildForwardingStorm(c);
        return;
      case ScenarioKind::SenderRetry:
        buildSenderRetry(c);
        return;
      case ScenarioKind::IntervalSignals:
        buildIntervalSignals(c);
        return;
      case ScenarioKind::CoalesceDrop:
        buildCoalesceDrop(c);
        return;
      case ScenarioKind::ItrMisfire:
        buildItrMisfire(c);
        return;
      case ScenarioKind::PreemptStorm:
        buildPreemptStorm(c);
        return;
      case ScenarioKind::CkptCrash:
        buildCkptCrash(c);
        return;
      case ScenarioKind::FfBoundary:
        // Runs on the uarch tier; runCell dispatches it before the
        // kernel Cell is built.
      case ScenarioKind::kCount:
        break;
    }
    assert(false && "unknown scenario kind");
}

/** Ledger/counter harvest of a finished kernel-tier cell. */
void
harvestCell(Cell &cell, CellResult &res)
{
    for (auto &v : cell.ledger.check())
        res.violations.push_back(std::move(v));
    res.posted = cell.ledger.posted();
    res.delivered = cell.ledger.delivered();
    res.abandoned = cell.ledger.abandoned();
    res.coalescedSatisfied = cell.ledger.coalescedSatisfied();
    const Kernel &k = cell.kernel;
    res.spuriousScans = k.count(KernelStat::RecoverySpuriousScans);
    res.modCoalesced = k.count(KernelStat::ModerationCoalesced);
    res.modFlushes = k.count(KernelStat::ModerationFlushes);
    res.modFlushDropped = k.count(KernelStat::ModerationFlushDropped);
    res.modFlushDelayed = k.count(KernelStat::ModerationFlushDelayed);
    res.injected = cell.inj.injected();
    res.handlerRuns = cell.handlerRuns;
    res.recoveredRescan = k.count(KernelStat::RecoveryUpidRescan);
    res.recoveredTimerLate = k.count(KernelStat::RecoveryKbTimerLate);
    res.recoveredFwdParked = k.count(KernelStat::RecoveryForwardParked);
    if (cell.sender) {
        res.senderRetries = cell.sender->stats().retries;
        res.senderFallbacks = cell.sender->stats().fallbacks;
    }
    res.preemptions = k.count(KernelStat::PreemptPreemptions);
    res.preemptSaveDropped = k.count(KernelStat::PreemptSaveDropped);
    res.preemptResumeReplayed =
        k.count(KernelStat::PreemptResumeReplayed);
    res.passed = res.violations.empty();
}

/**
 * Logical DES-tier checkpoint: the cell's Simulation holds live
 * lambdas, so its snapshot is not a byte image but the replay
 * coordinate (fired-event count) plus a validation digest of every
 * externally observable total. Restore rebuilds the cell from its
 * config (a pure function) and re-drives the queue to the recorded
 * event count; the digest then proves the replayed state is the
 * checkpointed state, never silently divergent.
 */
struct CkptState
{
    Cycles now = 0;
    std::uint64_t fired = 0;
    std::uint64_t posted = 0;
    std::uint64_t delivered = 0;
    std::uint64_t abandoned = 0;
    std::uint64_t spuriousScans = 0;
    std::uint64_t coalescedSatisfied = 0;
    std::uint64_t handlerRuns = 0;
    std::uint64_t consults[fault::kNumSites] = {};

    template <class Ar>
    void visit(Ar &ar)
    {
        ar.u64(now);
        ar.u64(fired);
        ar.u64(posted);
        ar.u64(delivered);
        ar.u64(abandoned);
        ar.u64(spuriousScans);
        ar.u64(coalescedSatisfied);
        ar.u64(handlerRuns);
        for (std::uint64_t &c : consults)
            ar.u64(c);
    }
};

CkptState
captureState(Cell &c)
{
    CkptState s;
    s.now = c.sim.now();
    s.fired = c.sim.queue().firedCount();
    s.posted = c.ledger.posted();
    s.delivered = c.ledger.delivered();
    s.abandoned = c.ledger.abandoned();
    s.spuriousScans = c.kernel.count(KernelStat::RecoverySpuriousScans);
    s.coalescedSatisfied = c.ledger.coalescedSatisfied();
    s.handlerRuns = c.handlerRuns;
    for (std::size_t i = 0; i < fault::kNumSites; ++i)
        s.consults[i] =
            c.inj.consults(static_cast<fault::Site>(i));
    return s;
}

/**
 * Validation digest over the state, excluding CheckpointWrite
 * consults: the reference (uninterrupted) timeline takes no
 * snapshots, so storage-site consult counts legitimately differ
 * between a run that checkpoints and its replay.
 */
std::uint64_t
ckptStateDigest(const CkptState &s)
{
    Fnv1a d;
    d.update(s.now);
    d.update(s.fired);
    d.update(s.posted);
    d.update(s.delivered);
    d.update(s.abandoned);
    d.update(s.spuriousScans);
    d.update(s.coalescedSatisfied);
    d.update(s.handlerRuns);
    for (std::size_t i = 0; i < fault::kNumSites; ++i) {
        if (static_cast<fault::Site>(i) ==
            fault::Site::CheckpointWrite)
            continue;
        d.update(s.consults[i]);
    }
    return d.value();
}

/** The payload: validation digest, then the state. */
template <class Ar>
void
visitCkptPayload(Ar &ar, std::uint64_t &digest, CkptState &s)
{
    ar.u64(digest);
    s.visit(ar);
}

std::string
encodeCkptState(CkptState s)
{
    std::uint64_t digest = ckptStateDigest(s);
    ckpt::Writer w;
    w.reserve(ckptPayloadBytes());
    visitCkptPayload(w, digest, s);
    assert(w.size() == ckptPayloadBytes());
    return w.take();
}

bool
decodeCkptState(const std::string &payload, CkptState &out,
                std::uint64_t &digest)
{
    ckpt::Reader r(payload);
    CkptState s;
    visitCkptPayload(r, digest, s);
    if (!r.ok() || !r.atEnd())
        return false;
    out = s;
    return true;
}

/**
 * Transient-fault retry schedule: keep only the directives the
 * restored timeline already consumed — they replay identically on
 * the way back to the checkpoint — and disarm everything at or past
 * the restore point, storage faults included. This is what makes a
 * rollback a *retry*: the fault that wedged the run does not recur.
 */
fault::Schedule
filteredSchedule(const fault::Schedule &full,
                 const std::uint64_t consults[fault::kNumSites])
{
    fault::Schedule out;
    for (const fault::Directive &d : full.directives) {
        if (d.site == fault::Site::CheckpointWrite)
            continue;
        if (d.occurrence <
            consults[static_cast<std::size_t>(d.site)])
            out.directives.push_back(d);
    }
    return out;
}

} // namespace

std::size_t
ckptPayloadBytes()
{
    ckpt::Sizer size;
    std::uint64_t digest = 0;
    CkptState s;
    visitCkptPayload(size, digest, s);
    return size.size();
}

const char *
scenarioName(ScenarioKind k)
{
    auto i = static_cast<std::size_t>(k);
    return i < kNumScenarios ? kScenarioNames[i] : "?";
}

bool
parseScenario(const std::string &text, ScenarioKind &out)
{
    for (std::size_t i = 0; i < kNumScenarios; ++i) {
        if (text == kScenarioNames[i]) {
            out = static_cast<ScenarioKind>(i);
            return true;
        }
    }
    return false;
}

std::uint64_t
cellScheduleSeed(ScenarioKind kind, std::uint64_t seed)
{
    return splitmix(seed * 0x100000001b3ull +
                    static_cast<std::uint64_t>(kind));
}

/**
 * The kernel-tier cell driver. It runs the scenario through the
 * horizon, stops its sources, drains the queue and runs the final
 * resume-drain, all under one event budget: the count is checked
 * before every event, so a runaway reschedule loop ends the cell as
 * `stuck` in milliseconds, with the cycle and the next pending events
 * in the report.
 *
 * A cell checkpoints when its config asks for it (the ckpt_crash
 * scenario, `ckptEvery`, `crashAtEvent` or `restoreFrom`). Only a
 * checkpointing cell adds three behaviours:
 *
 *  - every `ckptEvery` fired events (default 512), a logical
 *    snapshot is taken (in memory, and through the crash-consistent
 *    on-disk engine when a generation path is configured — with
 *    Site::CheckpointWrite consulted per write, so storage damage
 *    lands exactly where the schedule aims it);
 *  - at `crashAtEvent` the cell is killed once: all in-memory state
 *    is discarded, the latest *valid* on-disk generation is
 *    restored (damaged newer generations are detected and skipped,
 *    counted as fallbacks), and the run replays forward;
 *  - when the event budget trips or the finished run violates
 *    delivery invariants, the driver rolls back and retries: the
 *    newest snapshot first, then geometrically earlier ones, finally
 *    a clean restart with every directive disarmed — the
 *    transient-fault model that escapes a fault-planted livelock.
 *
 * A plain cell has no snapshot to return to, so it never rolls back:
 * its first stuck or violating run is its result.
 *
 * Every restore is digest-validated: a replayed state that does not
 * reproduce the checkpoint is reported as a violation, never
 * silently accepted.
 */
static CellResult
runKernelCell(const CellConfig &cfg)
{
    CellResult res;

    const bool checkpointing = cfg.kind == ScenarioKind::CkptCrash ||
        cfg.ckptEvery != 0 || cfg.crashAtEvent != 0 ||
        !cfg.restoreFrom.empty();
    const bool rollBack = checkpointing && cfg.rollbackRetry;
    std::uint64_t every = 0; // snapshot cadence; 0 takes none
    if (checkpointing)
        every = cfg.ckptEvery != 0 ? cfg.ckptEvery : 512;
    ckpt::GenerationSet gens(cfg.ckptPathBase);
    // The kill below is an in-process simulation, so the page cache
    // survives it by construction and fsync buys no extra safety —
    // it only dominates runtime at this snapshot cadence. The
    // on-disk format and tmp+rename discipline are unchanged.
    gens.setSync(false);

    // Accounting that survives cell rebuilds; applied to the final
    // kernel (noteRollback) so its metrics reflect the totals.
    std::vector<std::uint64_t> retriesReplayed;
    std::uint64_t snapshots = 0;
    std::uint64_t corruptDetected = 0;
    std::uint64_t fallbacks = 0;
    bool crashRecovered = false;

    // In-memory snapshot history of the current timeline. Cleared
    // on the simulated kill: memory dies with the process, only the
    // on-disk generations survive it.
    std::vector<std::string> history;

    bool crashArmed = cfg.crashAtEvent != 0;
    fault::Schedule sched = cfg.schedule;
    unsigned attempts = 0;
    constexpr std::size_t kNoRestore = ~std::size_t(0);
    std::size_t lastRestoreIdx = kNoRestore;
    bool cleanRestartTried = false;

    CellConfig attemptCfg = cfg;
    std::unique_ptr<Cell> cell;

    CkptState target{};
    std::uint64_t targetDigest = 0;
    bool haveTarget = false;

    auto rebuild = [&]() {
        cell.reset();
        attemptCfg.schedule = sched;
        cell = std::make_unique<Cell>(attemptCfg);
        buildScenario(*cell);
    };

    /** Re-drive a fresh cell to the checkpoint and validate. */
    auto replay = [&]() -> bool {
        if (!haveTarget)
            return true;
        EventQueue &q = cell->sim.queue();
        while (q.firedCount() < target.fired) {
            if (q.peekNextTime() == EventQueue::kNoPending)
                return false;
            q.runOne();
        }
        return ckptStateDigest(captureState(*cell)) == targetDigest;
    };

    auto takeSnapshot = [&]() {
        std::string payload = encodeCkptState(captureState(*cell));
        history.push_back(payload);
        ++snapshots;
        if (!cfg.ckptPathBase.empty()) {
            ckpt::Snapshot snap;
            snap.tag = "chaos_cell";
            snap.payload = std::move(payload);
            // A faulted save (damaged or lost file) is the exercise
            // itself; restore must detect it. Clean saves never fail
            // here short of fatal I/O, which surfaces as a restore
            // fallback.
            gens.save(snap, &cell->inj);
        }
    };

    enum class Outcome : std::uint8_t { Completed, Stuck, Crashed };

    auto driveSpan = [&](Cycles limit,
                         std::uint64_t &ran) -> Outcome {
        EventQueue &q = cell->sim.queue();
        for (;;) {
            Cycles next = q.peekNextTime();
            if (next == EventQueue::kNoPending || next > limit)
                return Outcome::Completed;
            if (ran >= cfg.eventBudget)
                return Outcome::Stuck;
            q.runOne();
            ++ran;
            std::uint64_t k = q.firedCount();
            if (every != 0 && k % every == 0)
                takeSnapshot();
            if (crashArmed && k >= cfg.crashAtEvent) {
                crashArmed = false;
                return Outcome::Crashed;
            }
        }
    };

    auto drive = [&]() -> Outcome {
        std::uint64_t ran = 0;
        Outcome o = driveSpan(cfg.horizon, ran);
        if (o != Outcome::Completed)
            return o;
        // Drain in-flight delayed faults and recovery rescans; the
        // sources are stopped, so the queue empties unless a runaway
        // reschedule loop exhausts the budget.
        cell->stopSources();
        for (;;) {
            Cycles next = cell->sim.queue().peekNextTime();
            if (next == EventQueue::kNoPending)
                break;
            o = driveSpan(next, ran);
            if (o != Outcome::Completed)
                return o;
        }
        if (cfg.finalDrain)
            cell->finalDrain();
        return Outcome::Completed;
    };

    /** Simulated kill: only the on-disk generations survive. */
    auto recoverFromCrash = [&]() {
        crashRecovered = true;
        history.clear();
        lastRestoreIdx = kNoRestore;
        haveTarget = false;
        // A crash is not fault-caused: the full schedule replays so
        // the recovered run stays identical to the crash-free one.
        sched = cfg.schedule;
        if (cfg.ckptPathBase.empty())
            return;
        ckpt::Snapshot snap;
        auto lo = gens.loadLatest(snap);
        corruptDetected += lo.corruptSkipped;
        if (lo.status != ckpt::LoadStatus::Ok)
            return; // nothing valid survived: restart from scratch
        if (lo.corruptSkipped != 0)
            ++fallbacks;
        CkptState st;
        std::uint64_t dg = 0;
        if (!decodeCkptState(snap.payload, st, dg)) {
            res.violations.push_back(
                "checkpoint payload undecodable behind a valid "
                "envelope digest");
            return;
        }
        target = st;
        targetDigest = dg;
        haveTarget = true;
        // Seeds the new timeline's history; lastRestoreIdx stays
        // unset so a later stuck-retry starts its regression from
        // the newest snapshot, not from this restore point.
        history.push_back(snap.payload);
    };

    /** @return false when out of retries (report the failure). */
    auto recoverFromStuck = [&]() -> bool {
        if (!rollBack || attempts >= cfg.maxRollbackRetries)
            return false;
        if (cleanRestartTried)
            return false; // even the fault-free restart failed
        ++attempts;
        std::size_t idx = history.size(); // sentinel: clean restart
        if (!history.empty()) {
            if (lastRestoreIdx == kNoRestore)
                idx = history.size() - 1;
            else if (lastRestoreIdx > 0)
                idx = lastRestoreIdx / 2;
        }
        if (idx >= history.size()) {
            // Clean restart: no checkpoint, every directive
            // disarmed. Always terminates for a sane scenario.
            cleanRestartTried = true;
            haveTarget = false;
            sched.directives.clear();
            history.clear();
            lastRestoreIdx = kNoRestore;
            retriesReplayed.push_back(0);
            return true;
        }
        CkptState st;
        std::uint64_t dg = 0;
        if (!decodeCkptState(history[idx], st, dg)) {
            res.violations.push_back(
                "in-memory checkpoint undecodable");
            return false;
        }
        target = st;
        targetDigest = dg;
        haveTarget = true;
        lastRestoreIdx = idx;
        history.resize(idx + 1); // abandon the wedged timeline
        sched = filteredSchedule(cfg.schedule, st.consults);
        retriesReplayed.push_back(st.fired);
        return true;
    };

    auto stuckMessage = [&]() {
        EventQueue &q = cell->sim.queue();
        auto pending = q.pendingSnapshot(8);
        std::ostringstream msg;
        msg << "StuckSimulation: event budget of "
            << cfg.eventBudget << " exhausted at cycle " << q.now()
            << " (" << q.pending() << " events still pending";
        if (!pending.empty()) {
            msg << "; next:";
            for (const auto &p : pending)
                msg << " @" << p.when << "#" << p.seq;
        }
        if (checkpointing)
            msg << "; after " << attempts << " rollback retries";
        msg << ")";
        return msg.str();
    };

    // `--restore FILE`: seed the run from an exact snapshot file.
    // The full schedule replays beneath the re-drive (like crash
    // recovery) so the resumed run stays identical to an
    // uninterrupted one.
    if (!cfg.restoreFrom.empty()) {
        ckpt::Snapshot snap;
        ckpt::LoadStatus st = ckpt::loadSnapshot(cfg.restoreFrom,
                                                 snap);
        if (st != ckpt::LoadStatus::Ok) {
            res.violations.push_back(
                "restore " + cfg.restoreFrom + ": " +
                ckpt::loadStatusName(st));
            res.passed = false;
            return res;
        }
        CkptState rst;
        std::uint64_t rdg = 0;
        if (!decodeCkptState(snap.payload, rst, rdg)) {
            res.violations.push_back(
                "restore " + cfg.restoreFrom +
                ": checkpoint payload undecodable behind a valid "
                "envelope digest");
            res.passed = false;
            return res;
        }
        target = rst;
        targetDigest = rdg;
        haveTarget = true;
        history.push_back(snap.payload);
    }

    rebuild();
    for (;;) {
        if (!replay()) {
            res.violations.push_back(
                "rollback restore diverged: replayed state does "
                "not reproduce the checkpoint digest");
            break;
        }
        Outcome o = drive();
        if (o == Outcome::Crashed) {
            recoverFromCrash();
            rebuild();
            continue;
        }
        if (o == Outcome::Stuck) {
            if (recoverFromStuck()) {
                rebuild();
                continue;
            }
            res.stuck = true;
            res.violations.push_back(stuckMessage());
            break;
        }
        // Completed: a run that ends in violation also rolls back
        // (bounded like the stuck path) — the invariant-violation
        // arm of rollback-recovery.
        if (rollBack && !cell->ledger.check().empty() &&
            recoverFromStuck()) {
            rebuild();
            continue;
        }
        break;
    }

    for (std::uint64_t replayed : retriesReplayed) {
        cell->kernel.noteRollback(replayed);
        res.rollbackEventsReplayed += replayed;
    }
    res.rollbackRetries = retriesReplayed.size();
    res.ckptSnapshots = snapshots;
    res.ckptCorruptDetected = corruptDetected;
    res.ckptFallbacks = fallbacks;
    res.crashRecovered = crashRecovered;

    harvestCell(*cell, res);
    if (checkpointing && !cfg.ckptPathBase.empty() &&
        !cfg.ckptKeepFiles)
        gens.removeAll();
    return res;
}

CellResult
runCell(const CellConfig &cfg)
{
    if (cfg.kind == ScenarioKind::FfBoundary)
        return runFfBoundaryCell(cfg);
    return runKernelCell(cfg);
}

fault::Schedule
shrink(const CellConfig &failing)
{
    fault::Schedule cur = failing.schedule;
    bool improved = true;
    while (improved && !cur.directives.empty()) {
        improved = false;
        for (std::size_t i = 0; i < cur.directives.size(); ++i) {
            fault::Schedule cand = cur;
            cand.directives.erase(cand.directives.begin() +
                                  static_cast<std::ptrdiff_t>(i));
            CellConfig probe = failing;
            probe.schedule = cand;
            if (!runCell(probe).passed) {
                cur = std::move(cand);
                improved = true;
                break;
            }
        }
    }
    return cur;
}

CellConfig
gridCell(const GridConfig &cfg, ScenarioKind kind, std::uint64_t seed)
{
    CellConfig cc;
    cc.kind = kind;
    cc.seed = seed;
    // The moderation scenarios aim faults at the flush
    // event; other kinds keep the base option set, so their
    // generated schedules stay byte-identical to before the
    // moderation sites existed.
    fault::ScheduleOptions so = cfg.schedule;
    if (kind == ScenarioKind::CoalesceDrop)
        so.dropModerationFlush = true;
    if (kind == ScenarioKind::ItrMisfire)
        so.delayModerationFlush = true;
    if (kind == ScenarioKind::PreemptStorm) {
        so.dropPreemptSave = true;
        so.duplicatePreemptSave = true;
    }
    if (kind == ScenarioKind::FfBoundary) {
        // Boundary cells consult only the transition site,
        // so the schedule draws exclusively from the ff
        // classes (the kernel sites never fire there).
        // Duplicates are excluded: the uarch tier has no
        // dedup, so a doubled raise is an unconditional
        // conservation failure reserved for crafted cells.
        fault::ScheduleOptions ffso;
        ffso.directives = so.directives;
        ffso.horizon = so.horizon;
        ffso.maxDelay = so.maxDelay;
        ffso.dropNotification = false;
        ffso.delayNotification = false;
        ffso.duplicateNotification = false;
        ffso.reorderUpid = false;
        ffso.stormNotification = false;
        ffso.timerMisfire = false;
        ffso.timerDelay = false;
        ffso.timerSpurious = false;
        ffso.dropForward = false;
        ffso.delayForward = false;
        ffso.descheduleWindow = false;
        ffso.delayFfDetail = true;
        ffso.dropFfRaise = true;
        so = ffso;
    }
    if (kind == ScenarioKind::CkptCrash) {
        // Aim faults at the snapshot write path and plant
        // the deschedule-storm livelock; also kill the cell
        // once at a seed-determined event count so the
        // crash-restore path runs in every cell.
        so.dropCkptWrite = true;
        so.tearCkptWrite = true;
        so.flipCkptWrite = true;
        so.truncateCkptWrite = true;
        so.stormDeschedule = true;
        cc.ckptEvery = cfg.ckptEvery != 0 ? cfg.ckptEvery : 512;
        cc.crashAtEvent = 256 + cellScheduleSeed(kind, seed) % 2048;
        if (!cfg.ckptDir.empty())
            cc.ckptPathBase = cfg.ckptDir + "/cell_" +
                              scenarioName(kind) + "_" +
                              std::to_string(seed) + ".ckpt";
    }
    cc.schedule =
        fault::generateSchedule(cellScheduleSeed(kind, seed), so);
    cc.recovery = cfg.recovery;
    cc.finalDrain = cfg.finalDrain;
    cc.horizon = cfg.horizon;
    cc.eventBudget = cfg.eventBudget;
    if (kind == ScenarioKind::CkptCrash) {
        // A planted livelock costs the full budget per
        // rollback attempt; clean ckpt cells fire ~10k
        // events, so a tight budget keeps stuck detection
        // (and the whole regression ladder) cheap without
        // risking false trips.
        cc.eventBudget = std::min<std::uint64_t>(cc.eventBudget, 64000);
    }
    return cc;
}

GridOutcome
runGrid(const GridConfig &cfg)
{
    std::vector<ScenarioKind> kinds = cfg.kinds;
    if (kinds.empty()) {
        for (std::size_t i = 0; i < kNumScenarios; ++i)
            kinds.push_back(static_cast<ScenarioKind>(i));
    }

    const std::size_t n =
        kinds.size() * static_cast<std::size_t>(cfg.seeds);
    GridOutcome out;
    out.cells = n;

    exec::sweepReduce(
        n, cfg.jobs,
        [&](std::size_t i) {
            CellReport rep;
            rep.kind = kinds[i / cfg.seeds];
            rep.seed = cfg.seedBase + i % cfg.seeds;
            const CellConfig cc = gridCell(cfg, rep.kind, rep.seed);
            rep.schedule = cc.schedule;
            rep.result = runCell(cc);
            rep.shrunk = rep.schedule;
            if (!rep.result.passed && cfg.shrinkFailures)
                rep.shrunk = shrink(cc);
            return rep;
        },
        [&](std::size_t, CellReport &&rep) {
            out.injected += rep.result.injected;
            out.posted += rep.result.posted;
            out.delivered += rep.result.delivered;
            out.abandoned += rep.result.abandoned;
            if (!rep.result.passed) {
                ++out.failed;
                out.failures.push_back(std::move(rep));
            }
        });
    return out;
}

} // namespace xui::chaos
