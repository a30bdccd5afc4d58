#include "verify/differential.hh"

#include <sstream>

namespace xui
{

namespace
{

/** Minimum common main-code commit prefix to compare. */
constexpr std::size_t kMinPrefix = 1000;
/** Minimum deliveries per mode before latency means compare. */
constexpr std::uint64_t kMinDeliveries = 5;

void
collectModeViolations(const ScenarioResult &r, DeliveryStrategy s,
                      std::vector<std::string> &out)
{
    for (const std::string &v : r.violations) {
        std::ostringstream os;
        os << strategyName(s) << ": " << v;
        out.push_back(os.str());
    }
}

} // namespace

DifferentialReport
runDifferential(const ScenarioConfig &base)
{
    DifferentialReport rep;

    ScenarioConfig cfg = base;
    cfg.strategy = DeliveryStrategy::Flush;
    rep.flush = runScenario(cfg);
    cfg.strategy = DeliveryStrategy::Drain;
    rep.drain = runScenario(cfg);
    cfg.strategy = DeliveryStrategy::Tracked;
    rep.tracked = runScenario(cfg);

    collectModeViolations(rep.flush, DeliveryStrategy::Flush,
                          rep.violations);
    collectModeViolations(rep.drain, DeliveryStrategy::Drain,
                          rep.violations);
    collectModeViolations(rep.tracked, DeliveryStrategy::Tracked,
                          rep.violations);

    const struct
    {
        const char *name;
        const ScenarioResult *a;
        const ScenarioResult *b;
    } pairs[] = {
        {"flush vs drain", &rep.flush, &rep.drain},
        {"flush vs tracked", &rep.flush, &rep.tracked},
        {"drain vs tracked", &rep.drain, &rep.tracked},
    };
    for (const auto &p : pairs) {
        ArchEquivalenceReport eq =
            checkArchEquivalence(*p.a, *p.b, kMinPrefix);
        if (!eq.ok) {
            std::ostringstream os;
            os << p.name << ": " << eq.message;
            rep.violations.push_back(os.str());
        }
    }

    if (rep.flush.delivered >= kMinDeliveries &&
        rep.tracked.delivered >= kMinDeliveries) {
        // Exact: no slack on the paper's Fig. 2 ordering.
        const double bound = rep.flush.meanHandlerStartLatency;
        if (rep.tracked.meanHandlerStartLatency > bound) {
            std::ostringstream os;
            os << "latency ordering violated: tracked mean "
               << "handler-start latency "
               << rep.tracked.meanHandlerStartLatency
               << " > flush bound " << bound << " (flush mean "
               << rep.flush.meanHandlerStartLatency << ")";
            rep.violations.push_back(os.str());
        }
    }

    return rep;
}

} // namespace xui
