/**
 * @file
 * Figure 9 reproduction: latency and efficiency of DSA completion
 * delivery — busy spinning vs periodic polling (OS interval timer)
 * vs xUI forwarded interrupts, for 2 us and 20 us offloads, sweeping
 * response-time unpredictability (noise).
 */

#include <iostream>
#include <string>
#include <vector>

#include "accel/client.hh"
#include "figure.hh"

using namespace xui;

int
main(int argc, char **argv)
{
    const auto opts = bench::parseArgs(argc, argv, bench::kObsScenario);
    const Cycles duration = (opts.quick ? 30 : 150) * kCyclesPerMs;
    const std::vector<double> bases_us{2.0, 20.0};
    const std::vector<double> noises{0.0, 0.1, 0.2, 0.3, 0.4, 0.5};
    const WaitStrategy strategies[] = {WaitStrategy::BusySpin,
                                       WaitStrategy::PeriodicPoll,
                                       WaitStrategy::XuiInterrupt};
    auto config = [&](WaitStrategy s, double base_us, double noise) {
        DsaClientConfig cfg;
        cfg.strategy = s;
        cfg.latency.meanServiceTime = usToCycles(base_us);
        cfg.latency.noiseFraction = noise;
        cfg.duration = duration;
        cfg.seed = opts.seed;
        return cfg;
    };

    return bench::runFigure<DsaClientResult>(opts, {
        .title = "Figure 9: Optimizing latency and efficiency of DSA "
                 "response delivery",
        .paperRef = "xUI paper, Fig. 9 (free cycles and delivery "
                    "latency vs noise; 2us / 20us offloads)",
        .tables = bases_us.size(), .rows = noises.size(),
        .cols = std::size(strategies),
        .run = [&](bench::Point p) {
            return runDsaClient(
                config(strategies[p.c], bases_us[p.t], noises[p.r]));
        },
        .caption = [&](std::size_t t) {
            return TablePrinter::num(bases_us[t], 0) +
                   " us offloads (free cycle fraction / mean delivery "
                   "latency in us)";
        },
        .header = {"Noise", "spin free", "poll free", "xUI free",
                   "spin lat", "poll lat", "xUI lat", "xUI IOPS"},
        .row = [&](std::size_t r, std::span<const DsaClientResult> c) {
            std::vector<std::string> row{
                TablePrinter::percent(noises[r], 0)};
            for (const DsaClientResult &s : c)
                row.push_back(TablePrinter::percent(s.freeFrac, 1));
            for (const DsaClientResult &s : c)
                row.push_back(
                    bench::usText(s.deliveryLatency.mean(), 2));
            row.push_back(TablePrinter::num(c[2].ipos, 0));
            return row;
        },
        .epilogue = [](const std::vector<DsaClientResult> &) {
            std::cout
                << "Paper anchors: spin burns the core but minimizes "
                   "latency; periodic polling frees\ncycles but its "
                   "latency rises sharply with noise for 20us "
                   "requests; xUI stays\nwithin 0.2us of spinning at "
                   "all noise levels and frees ~75% of cycles for "
                   "2us\noffloads (~50K IOPS for 20us offloads).\n";
        },
        // One xUI-interrupt client run with dsa.* metrics and
        // per-offload trace spans.
        .instrument = [&](ObsSession &obs) {
            DsaClientConfig cfg =
                config(WaitStrategy::XuiInterrupt, 2.0, 0.2);
            cfg.duration = (opts.quick ? 10 : 50) * kCyclesPerMs;
            cfg.metrics = obs.metrics();
            cfg.traceOut = obs.trace();
            runDsaClient(cfg);
        },
    });
}
