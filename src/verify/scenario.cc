#include "verify/scenario.hh"

#include <algorithm>
#include <sstream>

#include "verify/digest_tracer.hh"
#include "verify/scenario_run.hh"

namespace xui
{

const char *
strategyName(DeliveryStrategy s)
{
    switch (s) {
      case DeliveryStrategy::Flush:
        return "flush";
      case DeliveryStrategy::Drain:
        return "drain";
      case DeliveryStrategy::Tracked:
        return "tracked";
    }
    return "?";
}

void
checkInterruptFacts(const CoreStats &s,
                    std::vector<std::string> &violations)
{
    if (s.interruptsRaised < s.interruptsDelivered) {
        std::ostringstream os;
        os << "duplicated deliveries: raised "
           << s.interruptsRaised << " < delivered "
           << s.interruptsDelivered;
        violations.push_back(os.str());
    }
    if (s.interruptsRaised > s.interruptsDelivered + 1) {
        std::ostringstream os;
        os << "lost interrupts: raised " << s.interruptsRaised
           << ", delivered " << s.interruptsDelivered
           << " (more than one in flight)";
        violations.push_back(os.str());
    }
    // A record is closed at uiret commit, so a run that ends while
    // the final handler is still in flight legitimately has one
    // open (unpushed) record. Priority preemption nests handlers,
    // so each preemption allows one more open record at the end.
    if (s.intrRecords.size() > s.interruptsDelivered ||
        s.intrRecords.size() + 1 + s.preemptions <
            s.interruptsDelivered) {
        std::ostringstream os;
        os << "record count " << s.intrRecords.size()
           << " inconsistent with delivered "
           << s.interruptsDelivered;
        violations.push_back(os.str());
    }
    Cycles prev_uiret = 0;
    for (std::size_t i = 0; i < s.intrRecords.size(); ++i) {
        const IntrRecord &r = s.intrRecords[i];
        // Nested (preempting) deliveries interleave with the
        // records around them: a preempting record closes before
        // the handler it interrupted, so the cross-record ordering
        // check only applies between non-preempting neighbors.
        bool cross_ordered = r.injectedAt >= prev_uiret;
        if (r.preempting || s.preemptions > 0)
            cross_ordered = true;
        const bool mono = r.acceptedAt >= r.raisedAt &&
            r.injectedAt >= r.acceptedAt &&
            r.deliveryCommitAt >= r.firstUopCommitAt &&
            r.uiretCommitAt > r.deliveryCommitAt &&
            cross_ordered;
        if (!mono) {
            std::ostringstream os;
            os << "record " << i
               << " timeline not monotonic (raised " << r.raisedAt
               << ", accepted " << r.acceptedAt << ", injected "
               << r.injectedAt << ", deliveryCommit "
               << r.deliveryCommitAt << ", uiret "
               << r.uiretCommitAt << ", prev uiret " << prev_uiret
               << ")";
            violations.push_back(os.str());
        }
        prev_uiret = r.uiretCommitAt;
    }
}

ScenarioResult
extractScenarioResult(const ScenarioConfig &cfg, const Program &prog,
                      const OooCore &core, const DigestTracer &digest,
                      const std::vector<std::uint32_t> &commitPcs)
{
    ScenarioResult out;
    const CoreStats &s = core.stats();
    out.fullDigest = digest.fullDigest();
    out.archDigest = digest.archDigest();
    out.eventCount = digest.eventCount();
    out.committedInsts = s.committedInsts;
    out.committedUops = s.committedUops;
    out.fetchedUops = s.fetchedUops;
    out.squashedUops = s.squashedUops;
    out.raised = s.interruptsRaised;
    out.delivered = s.interruptsDelivered;
    out.reinjections = s.reinjections;
    out.cycles = core.now();
    out.intrRecords = s.intrRecords;
    out.ffEntries = s.ffEntries;
    out.ffExits = s.ffExits;
    out.ffInsts = s.ffInsts;
    out.ffCycles = s.ffCycles;

    const std::uint32_t handler_entry = prog.handlerEntry();
    out.mainPcs.reserve(commitPcs.size());
    for (std::uint32_t pc : commitPcs) {
        if (pc < handler_entry)
            out.mainPcs.push_back(pc);
        else
            ++out.handlerCommits;
    }

    double exec_sum = 0.0, commit_sum = 0.0;
    for (const IntrRecord &r : s.intrRecords) {
        exec_sum +=
            static_cast<double>(r.deliveryExecAt - r.raisedAt);
        commit_sum +=
            static_cast<double>(r.deliveryCommitAt - r.raisedAt);
    }
    if (!s.intrRecords.empty()) {
        double n = static_cast<double>(s.intrRecords.size());
        out.meanHandlerStartLatency = exec_sum / n;
        out.meanDeliveryCommitLatency = commit_sum / n;
    }

    if (s.committedInsts < cfg.targetInsts)
        out.violations.push_back("pipeline wedged: committed fewer "
                                 "instructions than targeted");
    if (s.committedUops > s.fetchedUops)
        out.violations.push_back(
            "conservation violated: committed > fetched uops");
    checkInterruptFacts(s, out.violations);
    return out;
}

ScenarioResult
runScenario(const ScenarioConfig &cfg, TraceLog *capture,
            Tracer *extraTracer, IntrLifecycleObserver *observer,
            const std::function<void(UarchSystem &)> &preRun)
{
    TeeTracer extra;
    TraceLog unused;
    LogTracer logger(capture != nullptr ? *capture : unused);
    if (capture != nullptr) {
        capture->clear();
        extra.attach(&logger);
    }
    extra.attach(extraTracer);

    ScenarioRun run(cfg, observer, &extra);
    if (preRun)
        preRun(run.system());
    run.runToEnd();
    return run.finish();
}

DeterminismReport
checkDeterminism(const ScenarioConfig &cfg)
{
    DeterminismReport rep;
    ScenarioResult a = runScenario(cfg);
    ScenarioResult b = runScenario(cfg);
    rep.digestA = a.fullDigest;
    rep.digestB = b.fullDigest;
    rep.eventsA = a.eventCount;
    rep.eventsB = b.eventCount;
    rep.ok = a.fullDigest == b.fullDigest &&
        a.eventCount == b.eventCount;
    if (!rep.ok) {
        std::ostringstream os;
        os << "nondeterminism: digests " << std::hex << rep.digestA
           << " vs " << rep.digestB << std::dec << ", events "
           << rep.eventsA << " vs " << rep.eventsB;
        rep.message = os.str();
    }
    return rep;
}

ArchEquivalenceReport
checkArchEquivalence(const ScenarioResult &a, const ScenarioResult &b,
                     std::size_t minPrefix)
{
    ArchEquivalenceReport rep;
    std::size_t prefix = std::min(a.mainPcs.size(), b.mainPcs.size());
    rep.comparedPrefix = prefix;
    if (prefix < minPrefix) {
        std::ostringstream os;
        os << "main-code commit streams too short to compare ("
           << a.mainPcs.size() << " and " << b.mainPcs.size()
           << ", need " << minPrefix << ")";
        rep.message = os.str();
        return rep;
    }
    for (std::size_t i = 0; i < prefix; ++i) {
        if (a.mainPcs[i] != b.mainPcs[i]) {
            std::ostringstream os;
            os << "commit streams diverge at index " << i << ": pc "
               << a.mainPcs[i] << " vs " << b.mainPcs[i];
            rep.message = os.str();
            return rep;
        }
    }
    rep.ok = true;
    return rep;
}

} // namespace xui
