/**
 * @file
 * Figure 7 reproduction: RocksDB-on-Aspen throughput/tail-latency
 * under the bimodal workload (99.5% GET @1.2us, 0.5% SCAN @580us),
 * comparing no-preemption, UIPI + dedicated timer core, and xUI
 * (KB timer + tracking) at a 5us quantum. Prints p99 per type across
 * an offered-load sweep and the maximum load meeting a 1 ms GET SLO.
 */

#include <iostream>
#include <string>
#include <vector>

#include "figure.hh"
#include "kv/server.hh"
#include "overload_util.hh"

using namespace xui;

namespace
{

/** The three configurations, with what the paper found for each. */
const struct
{
    PreemptMode mode;
    const char *name, *paper;
} kModes[] = {
    {PreemptMode::None, "No preemption", "tail blows up at low load"},
    {PreemptMode::UipiSwTimer, "UIPI SW Timer",
     "low tail up to >100k rps, +1 core burned"},
    {PreemptMode::XuiKbTimer, "xUI (KB+Track)",
     "+10% GET throughput over UIPI, no timer core"},
};

/** One xUI server run with kv.* metrics and the DES event stream
 *  recorded into `obs`. */
void
instrumentKv(ObsSession &obs, KvServerConfig cfg, bool quick)
{
    cfg.duration = (quick ? 20 : 100) * kCyclesPerMs;
    cfg.metrics = obs.metrics();
    cfg.traceOut = obs.trace();
    runKvServer(cfg);
}

/**
 * Saturation frontier (--offered-load): push the open-loop offered
 * load past saturation and compare the fixed 5us quantum against
 * the load-adaptive quantum (--policy adaptive) on the xUI server.
 */
int
runFrontier(const bench::Options &opts)
{
    const bench::Frontier f{
        .policies = bench::Frontier::policiesOf(bench::kKvPanel, opts),
        .loads = bench::loadLadder(opts.offeredLoad),
        .duration = (opts.quick ? 60 : 300) * kCyclesPerMs,
        .seed = opts.seed};
    return bench::runFigure<KvServerResult>(opts, {
        .title = "RocksDB saturation frontier (overload survival)",
        .paperRef = "fixed vs adaptive preemption quantum past "
                    "saturation",
        .tables = f.policies.size(), .rows = f.loads.size(), .cols = 1,
        .run = [&](bench::Point p) {
            return f.runKv(p.t * f.loads.size() + p.r);
        },
        .caption = [&](std::size_t t) {
            return "policy = " + f.policies[t].name +
                   " (xUI KB timer, 1 worker core)";
        },
        .header = {"Load (rps)", "GET p99 us", "SCAN p99 us",
                   "Achieved rps", "Util"},
        .row = [&](std::size_t r, std::span<const KvServerResult> c) {
            return std::vector<std::string>{
                TablePrinter::num(f.loads[r] * bench::kKvSaturationRps,
                                  0),
                bench::usText(c[0].getLatency.p99(), 0),
                bench::usText(c[0].scanLatency.p99(), 0),
                TablePrinter::num(c[0].achievedRps, 0),
                TablePrinter::percent(c[0].workerUtilization, 1)};
        },
        // At the full overload point, under the last policy of the
        // panel (adaptive) or the one --policy names.
        .instrument = [&](ObsSession &obs) {
            instrumentKv(obs, f.kv(f.policies.back(), opts.offeredLoad),
                         opts.quick);
        },
    });
}

} // namespace

int
main(int argc, char **argv)
{
    const auto opts = bench::parseFrontierArgs(
        argc, argv,
        bench::kObsScenario | bench::kOfferedLoad | bench::kPolicy,
        bench::kKvPanel);
    if (opts.offeredLoad > 0.0)
        return runFrontier(opts);

    const Cycles duration = (opts.quick ? 100 : 600) * kCyclesPerMs;
    const std::vector<double> loads{
        20000,  60000,  100000, 140000, 170000, 190000,
        205000, 215000, 225000, 235000, 240000, 245000,
        250000, 255000, 260000, 265000, 270000};
    auto config = [&](std::size_t mode, double load) {
        KvServerConfig cfg;
        cfg.mode = kModes[mode].mode;
        cfg.offeredLoadRps = load;
        cfg.duration = duration;
        cfg.seed = opts.seed;
        return cfg;
    };

    return bench::runFigure<KvServerResult>(opts, {
        .title = "Figure 7: Improving RocksDB throughput",
        .paperRef = "xUI paper, Fig. 7 (GET/SCAN p99 vs offered load, "
                    "5us quantum)",
        .tables = 1, .rows = loads.size(), .cols = std::size(kModes),
        .run = [&](bench::Point p) {
            return runKvServer(config(p.c, loads[p.r]));
        },
        .caption = [](std::size_t) {
            return std::string("GET p99 / SCAN p99 (us) vs offered "
                               "load (requests/s), 1 worker core");
        },
        .header = {"Load (rps)", "None GET", "None SCAN", "UIPI GET",
                   "UIPI SCAN", "xUI GET", "xUI SCAN"},
        .row = [&](std::size_t r, std::span<const KvServerResult> c) {
            std::vector<std::string> row{TablePrinter::num(loads[r], 0)};
            for (const KvServerResult &m : c) {
                row.push_back(bench::usText(m.getLatency.p99(), 0));
                row.push_back(bench::usText(m.scanLatency.p99(), 0));
            }
            return row;
        },
        // Useful capacity: the highest load at which the GET tail
        // meets the 1 ms SLO and the server sustains the offered rate.
        .epilogue = [&](const std::vector<KvServerResult> &cells) {
            TablePrinter s("Max load meeting 1 ms GET p99 SLO");
            s.setHeader({"Configuration", "Capacity (rps)",
                         "Timer core", "Paper result"});
            const std::size_t modes = std::size(kModes);
            double capacity[std::size(kModes)] = {};
            for (std::size_t m = 0; m < modes; ++m) {
                double timer_util = 0.0;
                for (std::size_t li = 0; li < loads.size(); ++li) {
                    const KvServerResult &r = cells[li * modes + m];
                    if (cyclesToUs(static_cast<Cycles>(
                            r.getLatency.p99())) <= 1000.0 &&
                        r.completed > 100 &&
                        r.achievedRps >= 0.97 * loads[li]) {
                        capacity[m] = loads[li];
                        timer_util = r.timerCoreUtilization;
                    }
                }
                s.addRow({kModes[m].name,
                          TablePrinter::num(capacity[m], 0),
                          kModes[m].mode == PreemptMode::UipiSwTimer
                              ? "+1 dedicated core (" +
                                    TablePrinter::percent(timer_util,
                                                          0) +
                                    " senduipi)"
                              : "none",
                          kModes[m].paper});
            }
            s.print(std::cout);
            if (capacity[1] > 0) {
                std::cout << "\nxUI vs UIPI capacity at the SLO: "
                          << TablePrinter::num(
                                 (capacity[2] - capacity[1]) /
                                     capacity[1] * 100.0,
                                 1)
                          << "% (paper: ~10%), plus the freed timer "
                             "core.\n";
            }
        },
        .instrument = [&](ObsSession &obs) {
            instrumentKv(obs, config(2, 100000), opts.quick);
        },
    });
}
