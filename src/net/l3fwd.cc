#include "net/l3fwd.hh"

#include "obs/metrics.hh"
#include "obs/trace_export.hh"
#include "stats/distributions.hh"

#include <algorithm>
#include <cassert>

namespace xui
{

L3Fwd::L3Fwd(const L3FwdConfig &config)
    : config_(config),
      sim_(config.seed),
      table_(512),
      rng_(sim_.makeRng())
{
    assert(config.numNics >= 1);
    routes_ = installRandomRoutes(table_, config_.routeCount, rng_);
    for (unsigned i = 0; i < config_.numNics; ++i)
        nics_.push_back(std::make_unique<Nic>(config_.queueDepth));

    if (config_.mode == RxMode::XuiForwarded) {
        mods_.resize(config_.numNics);
        if (config_.moderation.enabled()) {
            for (unsigned i = 0; i < config_.numNics; ++i)
                mods_[i] = std::make_unique<VectorModerator>(
                    config_.moderation);
        }
        for (unsigned i = 0; i < config_.numNics; ++i) {
            nics_[i]->armInterrupt(true);
            nics_[i]->setInterruptHandler(
                [this, i] { onNicInterrupt(i); });
        }
    }
}

bool
L3Fwd::anyPending() const
{
    for (const auto &nic : nics_)
        if (!nic->queueEmpty())
            return true;
    return false;
}

void
L3Fwd::fireService()
{
    handling_ = true;
    ++result_.interrupts;
    notificationCycles_ += config_.costs.forwardedReceive;
    sim_.queue().scheduleAfter(config_.costs.forwardedReceive,
                               [this] { serviceLoop(); });
}

void
L3Fwd::onNicInterrupt(unsigned nic)
{
    if (handling_)
        return;  // UIF clear: handler already running
    if (mods_[nic] != nullptr) {
        switch (mods_[nic]->onPost(sim_.now())) {
          case VectorModerator::Verdict::Coalesced:
            ++result_.coalesced;
            return;
          case VectorModerator::Verdict::OpenWindow: {
            ++result_.suppressedWindows;
            Cycles delay = mods_[nic]->flushAt() - sim_.now();
            sim_.queue().scheduleAfter(
                delay == 0 ? 1 : delay,
                [this, nic] { moderationFlush(nic); });
            return;
          }
          case VectorModerator::Verdict::Deliver:
            break;
        }
    }
    fireService();
}

void
L3Fwd::moderationFlush(unsigned nic)
{
    if (mods_[nic] == nullptr || !mods_[nic]->flushPending())
        return;
    mods_[nic]->onFlush(sim_.now());
    if (handling_)
        return;  // the running service loop drains every queue
    if (!anyPending())
        return;  // drained before the window closed
    fireService();
}

void
L3Fwd::rearmDone()
{
    handling_ = false;
    if (!anyPending())
        return;
    // Packets arrived inside the rearm race window, so their RX
    // edge never reached the core.
    if (config_.policy.behavior == DeliveryBehavior::NextOrMissed ||
        config_.policy.trigger == TriggerMode::Level) {
        // Driver rechecks the descriptor rings after rearming
        // (NAPI-style): the missed wakeup is recovered.
        ++result_.missedRecovered;
        fireService();
    } else {
        // NEXT_ONLY + edge: the wakeup is gone. The queue strands
        // until another edge (a different NIC, or this queue
        // emptying by drops and refilling) rescues it.
        ++result_.missed;
    }
}

int
L3Fwd::nextQueue()
{
    for (unsigned i = 0; i < config_.numNics; ++i) {
        unsigned q = (rrNext_ + i) % config_.numNics;
        if (!nics_[q]->queueEmpty()) {
            rrNext_ = (q + 1) % config_.numNics;
            return static_cast<int>(q);
        }
    }
    return -1;
}

void
L3Fwd::onArrival(unsigned nic, Packet pkt)
{
    // The lookup runs when the service loop polls this packet; start
    // loading its tbl24 line now, as DPDK's l3fwd does ahead of a
    // burst's lookups.
    table_.prefetch(pkt.dstIp);
    bool was_empty = nics_[nic]->queueEmpty();
    nics_[nic]->deliver(pkt);
    // Level trigger: pending packets re-raise the interrupt even
    // without an empty->non-empty RX edge, so a stranded queue
    // self-heals on the next arrival.
    if (config_.mode == RxMode::XuiForwarded &&
        config_.policyEnabled &&
        config_.policy.trigger == TriggerMode::Level &&
        !was_empty && !handling_) {
        ++result_.levelRedeliveries;
        onNicInterrupt(nic);
    }
    if (config_.mode == RxMode::Polling && !serviceActive_) {
        serviceActive_ = true;
        // Detection latency: the spin loop notices the descriptor on
        // its next rotation (positive poll = miss + mispredict).
        Cycles detect = config_.costs.pollNotify +
            config_.costs.pollCheck * (config_.numNics - 1) / 2;
        sim_.queue().scheduleAfter(detect, [this] { serviceLoop(); });
    } else if (config_.mode == RxMode::MwaitSingleQueue &&
               !serviceActive_) {
        serviceActive_ = true;
        // Queue 0 wakes the sleeping core via the monitored line;
        // other queues are only noticed by the poll rotation the
        // core resumes after waking (and with >1 NIC the core never
        // actually slept -- see run()'s accounting).
        Cycles detect = nic == 0
            ? config_.costs.mwaitWake
            : config_.costs.pollNotify +
                config_.costs.pollCheck * (config_.numNics - 1) / 2;
        sim_.queue().scheduleAfter(detect, [this] { serviceLoop(); });
    }
}

void
L3Fwd::serviceLoop()
{
    int q = nextQueue();
    if (q < 0) {
        // All queues empty: polling keeps spinning (accounted as
        // polling cycles); the xUI handler rearms and returns.
        serviceActive_ = false;
        if (config_.mode == RxMode::XuiForwarded &&
            config_.policyEnabled) {
            // The rearm write races arriving edges: the handler
            // stays masked for the gap, then the policy decides
            // what happens to anything that landed meanwhile.
            sim_.queue().scheduleAfter(config_.rearmGap,
                                       [this] { rearmDone(); });
            return;
        }
        handling_ = false;
        return;
    }
    Packet pkt;
    bool ok = nics_[static_cast<unsigned>(q)]->poll(pkt);
    assert(ok);
    (void)ok;

    // The real forwarding work: LPM route lookup.
    LpmTable::NextHop hop = table_.lookup(pkt.dstIp);
    (void)hop;

    networkingCycles_ += config_.costs.packetProcess;
    sim_.queue().scheduleAfter(
        config_.costs.packetProcess, [this, pkt] {
            ++result_.forwarded;
            result_.latency.record(static_cast<std::int64_t>(
                sim_.now() - pkt.arrival));
            serviceLoop();
        });
}

L3FwdResult
L3Fwd::run()
{
    std::unique_ptr<DesTraceHook> hook;
    if (config_.traceOut != nullptr) {
        hook = std::make_unique<DesTraceHook>(*config_.traceOut);
        hook->attach(sim_.queue());
    }

    // Per-NIC exponential arrivals at the configured load fraction
    // of the single-core forwarding capacity, drawn NIC by NIC into
    // one array; each NIC's packets reach it as one event series.
    double capacity_per_cycle =
        1.0 / static_cast<double>(config_.costs.packetProcess);
    double rate_per_nic = config_.load * capacity_per_cycle /
        static_cast<double>(config_.numNics);

    std::vector<Packet> pkts;
    std::vector<std::size_t> first{0};
    for (unsigned n = 0; n < config_.numNics; ++n) {
        PoissonProcess proc(rate_per_nic, rng_.split());
        while (true) {
            Cycles at = proc.nextArrival();
            if (at >= config_.duration)
                break;
            Packet &pkt = pkts.emplace_back();
            pkt.id = pkts.size();
            pkt.arrival = at;
            pkt.dstIp = randomCoveredIp(routes_, rng_);
            pkt.srcIp = static_cast<std::uint32_t>(rng_.next());
        }
        first.push_back(pkts.size());
    }
    result_.offered += pkts.size();
    for (unsigned n = 0; n < config_.numNics; ++n) {
        const Packet *nicPkts = pkts.data() + first[n];
        sim_.queue().scheduleSeries(
            first[n + 1] - first[n],
            [nicPkts](std::size_t k) { return nicPkts[k].arrival; },
            [this, n, nicPkts](std::size_t k) {
                onArrival(n, nicPkts[k]);
            });
    }

    sim_.queue().runAll();
    result_.eventPoolSlots = sim_.queue().poolSize();

    for (const auto &nic : nics_)
        result_.dropped += nic->dropped();

    double total = static_cast<double>(config_.duration);
    result_.networkingFrac =
        std::min(1.0, static_cast<double>(networkingCycles_) / total);
    result_.notificationFrac =
        static_cast<double>(notificationCycles_) / total;
    if (config_.mode == RxMode::Polling) {
        // The spin loop consumes every cycle not spent forwarding.
        result_.pollingFrac = 1.0 - result_.networkingFrac;
        result_.freeFrac = 0.0;
    } else if (config_.mode == RxMode::MwaitSingleQueue) {
        if (config_.numNics == 1) {
            // The core sleeps in umwait whenever queue 0 is empty.
            result_.pollingFrac = 0.0;
            result_.freeFrac = std::max(
                0.0, 1.0 - result_.networkingFrac);
        } else {
            // The other queues still need spin polling, so the core
            // can never enter umwait: all idle cycles burn (§2).
            result_.pollingFrac = 1.0 - result_.networkingFrac;
            result_.freeFrac = 0.0;
        }
    } else {
        result_.pollingFrac = 0.0;
        result_.freeFrac = std::max(
            0.0, 1.0 - result_.networkingFrac -
                     result_.notificationFrac);
    }
    double seconds = cyclesToUs(config_.duration) / 1e6;
    result_.throughputMpps =
        static_cast<double>(result_.forwarded) / seconds / 1e6;

    if (config_.metrics != nullptr) {
        MetricsRegistry &r = *config_.metrics;
        r.counter("l3fwd.offered").inc(result_.offered);
        r.counter("l3fwd.forwarded").inc(result_.forwarded);
        r.counter("l3fwd.dropped").inc(result_.dropped);
        r.counter("l3fwd.interrupts").inc(result_.interrupts);
        r.latency("l3fwd.latency").merge(result_.latency);
        r.gauge("l3fwd.throughput_mpps")
            .set(result_.throughputMpps);
        r.gauge("l3fwd.free_frac").set(result_.freeFrac);
        if (config_.policyEnabled || config_.moderation.enabled()) {
            r.counter("l3fwd.policy.coalesced")
                .inc(result_.coalesced);
            r.counter("l3fwd.policy.suppressed_windows")
                .inc(result_.suppressedWindows);
            r.counter("l3fwd.policy.missed").inc(result_.missed);
            r.counter("l3fwd.policy.missed_recovered")
                .inc(result_.missedRecovered);
            r.counter("l3fwd.policy.level_redeliver")
                .inc(result_.levelRedeliveries);
        }
    }
    return result_;
}

L3FwdResult
runL3Fwd(const L3FwdConfig &config)
{
    L3Fwd app(config);
    return app.run();
}

} // namespace xui
