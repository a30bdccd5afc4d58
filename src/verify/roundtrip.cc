#include "verify/roundtrip.hh"

#include <sstream>

#include "exec/sweep.hh"

namespace xui
{

namespace
{

constexpr DeliveryStrategy kStrategies[] = {
    DeliveryStrategy::Flush,
    DeliveryStrategy::Drain,
    DeliveryStrategy::Tracked,
};

} // namespace

ScenarioConfig
goldenCorpusConfig(std::uint64_t seed, DeliveryStrategy strategy)
{
    ScenarioConfig cfg;
    cfg.programSeed = seed;
    cfg.systemSeed = seed * 1000003 + 17;
    cfg.strategy = strategy;
    cfg.program.withSafepoints = (seed % 3) == 0;
    cfg.program.deterministicControl = (seed % 2) == 0;
    cfg.safepointMode = cfg.program.withSafepoints &&
                        strategy == DeliveryStrategy::Tracked;
    cfg.timerPeriod = 600;
    cfg.targetInsts = 4000;
    cfg.extraCycles = 4000;
    return cfg;
}

CorpusRoundTripSummary
runCorpusRoundTrip(const CorpusRoundTripOptions &opts)
{
    CorpusRoundTripSummary sum;
    const std::size_t n =
        static_cast<std::size_t>(opts.seeds) * 3;
    sum.rows = n;

    struct Row
    {
        std::uint64_t seed = 0;
        DeliveryStrategy strategy = DeliveryStrategy::Flush;
        RoundTripReport report;
    };

    auto runRow = [&opts](std::size_t i) {
        Row row;
        row.seed = i / 3 + 1;
        row.strategy = kStrategies[i % 3];
        std::string path;
        if (!opts.snapshotDir.empty()) {
            // Row-unique path: rows running concurrently must never
            // share a snapshot file (or its .tmp sibling).
            std::ostringstream os;
            os << opts.snapshotDir << "/roundtrip_s" << row.seed
               << "_" << strategyName(row.strategy) << ".ckpt";
            path = os.str();
        }
        row.report = checkRoundTrip(
            goldenCorpusConfig(row.seed, row.strategy),
            opts.splitCycles, path);
        return row;
    };

    exec::sweepReduce(
        n, opts.jobs, runRow, [&sum](std::size_t, Row &&row) {
            if (row.report.ok) {
                ++sum.passed;
                return;
            }
            std::ostringstream os;
            os << "seed " << row.seed << " "
               << strategyName(row.strategy) << ": "
               << row.report.message;
            sum.failures.push_back(os.str());
        });
    return sum;
}

} // namespace xui
