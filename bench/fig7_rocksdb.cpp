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

#include "bench_util.hh"
#include "kv/server.hh"
#include "obs/session.hh"
#include "obs_util.hh"
#include "overload_util.hh"
#include "stats/table.hh"

using namespace xui;

namespace
{

const PreemptMode kModes[] = {PreemptMode::None,
                              PreemptMode::UipiSwTimer,
                              PreemptMode::XuiKbTimer};
const char *kModeNames[] = {"No preemption", "UIPI SW Timer",
                            "xUI (KB+Track)"};

/**
 * Saturation frontier (--offered-load): push the open-loop offered
 * load past saturation and compare the fixed 5us quantum against
 * the load-adaptive quantum (--policy adaptive) on the xUI server.
 */
int
runOverloadFrontier(const bench::Options &opts)
{
    bench::banner(
        "RocksDB saturation frontier (overload survival)",
        "fixed vs adaptive preemption quantum past saturation");

    Cycles duration = (opts.quick ? 60 : 300) * kCyclesPerMs;
    std::vector<std::string> policies;
    if (opts.policyGiven)
        policies = {opts.policy.name};
    else
        policies = {"off", "adaptive"};
    std::vector<double> fracs = bench::loadLadder(opts.offeredLoad);

    for (const std::string &policy : policies) {
        bench::PolicyChoice pc;
        bool ok = bench::parsePolicyName(policy.c_str(), pc);
        (void)ok;
        TablePrinter t("policy = " + policy +
                       " (xUI KB timer, 1 worker core)");
        t.setHeader({"Load (rps)", "GET p99 us", "SCAN p99 us",
                     "Achieved rps", "Util"});
        for (double frac : fracs) {
            KvServerConfig cfg;
            cfg.mode = PreemptMode::XuiKbTimer;
            cfg.offeredLoadRps = frac * bench::kKvSaturationRps;
            cfg.duration = duration;
            cfg.seed = opts.seed;
            bench::applyPolicy(cfg, pc);
            KvServerResult r = runKvServer(cfg);
            t.addRow(
                {TablePrinter::num(cfg.offeredLoadRps, 0),
                 TablePrinter::num(
                     cyclesToUs(
                         static_cast<Cycles>(r.getLatency.p99())),
                     0),
                 TablePrinter::num(
                     cyclesToUs(
                         static_cast<Cycles>(r.scanLatency.p99())),
                     0),
                 TablePrinter::num(r.achievedRps, 0),
                 TablePrinter::percent(r.workerUtilization, 1)});
        }
        t.print(std::cout);
        std::cout << '\n';
    }

    // Observability run at the full overload point.
    ObsSession obs(opts.metricsJson, opts.traceJson);
    if (obs.enabled()) {
        bench::PolicyChoice pc = opts.policy;
        if (!opts.policyGiven)
            bench::parsePolicyName("adaptive", pc);
        KvServerConfig cfg;
        cfg.mode = PreemptMode::XuiKbTimer;
        cfg.offeredLoadRps =
            opts.offeredLoad * bench::kKvSaturationRps;
        cfg.duration = (opts.quick ? 20 : 100) * kCyclesPerMs;
        cfg.seed = opts.seed;
        cfg.metrics = obs.metrics();
        cfg.traceOut = obs.trace();
        bench::applyPolicy(cfg, pc);
        runKvServer(cfg);
    }
    bench::runObsScenario(obs, opts);
    return obs.finish();
}

} // namespace

int
main(int argc, char **argv)
{
    auto opts = bench::parseArgs(argc, argv,
                                 bench::kObsScenario | bench::kOfferedLoad |
                                 bench::kPolicy);
    if (opts.offeredLoad > 0.0)
        return runOverloadFrontier(opts);
    bench::banner(
        "Figure 7: Improving RocksDB throughput",
        "xUI paper, Fig. 7 (GET/SCAN p99 vs offered load, 5us "
        "quantum)");

    Cycles duration = (opts.quick ? 100 : 600) * kCyclesPerMs;
    const double loads[] = {20000,  60000,  100000, 140000,
                            170000, 190000, 205000, 215000,
                            225000, 235000, 240000, 245000,
                            250000, 255000, 260000, 265000,
                            270000};

    double slo_capacity[3] = {0, 0, 0};
    TablePrinter t("GET p99 / SCAN p99 (us) vs offered load "
                   "(requests/s), 1 worker core");
    t.setHeader({"Load (rps)", "None GET", "None SCAN", "UIPI GET",
                 "UIPI SCAN", "xUI GET", "xUI SCAN"});
    for (double load : loads) {
        std::vector<std::string> row{TablePrinter::num(load, 0)};
        for (std::size_t m = 0; m < 3; ++m) {
            KvServerConfig cfg;
            cfg.mode = kModes[m];
            cfg.offeredLoadRps = load;
            cfg.duration = duration;
            cfg.seed = opts.seed;
            KvServerResult r = runKvServer(cfg);
            double get_p99 = cyclesToUs(
                static_cast<Cycles>(r.getLatency.p99()));
            double scan_p99 = cyclesToUs(
                static_cast<Cycles>(r.scanLatency.p99()));
            row.push_back(TablePrinter::num(get_p99, 0));
            row.push_back(TablePrinter::num(scan_p99, 0));
            // Useful capacity: the GET tail meets the 1 ms SLO and
            // the server actually sustains the offered rate.
            if (get_p99 <= 1000.0 && r.completed > 100 &&
                r.achievedRps >= 0.97 * load)
                slo_capacity[m] = load;
        }
        t.addRow(row);
    }
    t.print(std::cout);

    TablePrinter s("\nMax load meeting 1 ms GET p99 SLO");
    s.setHeader({"Configuration", "Capacity (rps)", "Timer core",
                 "Paper result"});
    const char *paper[] = {
        "tail blows up at low load",
        "low tail up to >100k rps, +1 core burned",
        "+10% GET throughput over UIPI, no timer core"};
    for (std::size_t m = 0; m < 3; ++m) {
        KvServerConfig cfg;
        cfg.mode = kModes[m];
        cfg.offeredLoadRps = slo_capacity[m];
        cfg.duration = duration;
        cfg.seed = opts.seed;
        KvServerResult r;
        if (slo_capacity[m] > 0)
            r = runKvServer(cfg);
        s.addRow({kModeNames[m],
                  TablePrinter::num(slo_capacity[m], 0),
                  kModes[m] == PreemptMode::UipiSwTimer
                      ? "+1 dedicated core (" +
                            TablePrinter::percent(
                                r.timerCoreUtilization, 0) +
                            " senduipi)"
                      : "none",
                  paper[m]});
    }
    s.print(std::cout);
    if (slo_capacity[1] > 0) {
        double gain = (slo_capacity[2] - slo_capacity[1]) /
            slo_capacity[1] * 100.0;
        std::cout << "\nxUI vs UIPI capacity at the SLO: "
                  << TablePrinter::num(gain, 1)
                  << "% (paper: ~10%), plus the freed timer core.\n";
    }

    // Observability run: one xUI server run with kv.* metrics and
    // the DES event stream attached.
    ObsSession obs(opts.metricsJson, opts.traceJson);
    if (obs.enabled()) {
        KvServerConfig cfg;
        cfg.mode = PreemptMode::XuiKbTimer;
        cfg.offeredLoadRps = 100000;
        cfg.duration = (opts.quick ? 20 : 100) * kCyclesPerMs;
        cfg.seed = opts.seed;
        cfg.metrics = obs.metrics();
        cfg.traceOut = obs.trace();
        runKvServer(cfg);
    }
    bench::runObsScenario(obs, opts);
    return obs.finish();
}
