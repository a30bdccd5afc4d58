/**
 * @file
 * Figure 6 reproduction: the cost of a dedicated timer core. CPU
 * utilization of one timer core using setitimer() or nanosleep() to
 * wake and senduipi to notify N application cores, across
 * preemption intervals; xUI's KB timer eliminates the core entirely.
 */

#include <iostream>
#include <vector>

#include "bench_util.hh"
#include "des/simulation.hh"
#include "exec/sweep.hh"
#include "obs/session.hh"
#include "obs_util.hh"
#include "os/kernel.hh"
#include "os/timer_core.hh"
#include "stats/table.hh"

using namespace xui;

int
main(int argc, char **argv)
{
    auto opts = bench::parseArgs(argc, argv,
                                 bench::kObsScenario | bench::kJobs);
    bench::banner("Figure 6: The cost of a timer",
                  "xUI paper, Fig. 6 (timer-core CPU use vs app "
                  "cores x interval)");

    CostModel costs;
    Cycles duration = (opts.quick ? 20 : 200) * kCyclesPerMs;

    const TimerInterface ifaces[] = {TimerInterface::Setitimer,
                                     TimerInterface::Nanosleep,
                                     TimerInterface::RdtscSpin,
                                     TimerInterface::XuiKbTimer};
    const char *iface_names[] = {"setitimer()", "nanosleep()",
                                 "rdtsc spin", "xUI KB_Timer"};

    // One job per (interval, app-core-count) cell; each cell runs
    // the four timer interfaces on its own Simulation, so the grid
    // fans out across threads with bit-identical tables.
    const std::vector<double> intervals{5.0, 20.0, 100.0};
    const std::vector<unsigned> core_counts{1u, 2u, 4u, 8u,
                                            16u, 22u, 28u};
    struct Cell
    {
        double util[4] = {0, 0, 0, 0};
        double achievedSetitimer = 1.0;
    };
    const std::size_t n = intervals.size() * core_counts.size();
    std::vector<Cell> cells = exec::sweep(
        n, opts.jobs, [&](std::size_t idx) {
            const double us = intervals[idx / core_counts.size()];
            const unsigned cores =
                core_counts[idx % core_counts.size()];
            Cell cell;
            for (std::size_t i = 0; i < 4; ++i) {
                Simulation sim(opts.seed);
                TimerCoreModel m(sim, costs, ifaces[i],
                                 usToCycles(us), cores);
                m.run(duration);
                cell.util[i] = m.utilization();
                if (ifaces[i] == TimerInterface::Setitimer)
                    cell.achievedSetitimer =
                        m.achievedRateFraction();
            }
            return cell;
        });

    for (std::size_t ui = 0; ui < intervals.size(); ++ui) {
        const double us = intervals[ui];
        TablePrinter t("Timer-core utilization, preemption interval " +
                       TablePrinter::num(us, 0) + " us");
        std::vector<std::string> header{"App cores"};
        for (const char *n2 : iface_names)
            header.push_back(n2);
        header.push_back("achieved (setitimer)");
        t.setHeader(header);
        for (std::size_t ci = 0; ci < core_counts.size(); ++ci) {
            const Cell &cell = cells[ui * core_counts.size() + ci];
            std::vector<std::string> row{
                TablePrinter::integer(core_counts[ci])};
            for (std::size_t i = 0; i < 4; ++i)
                row.push_back(
                    TablePrinter::percent(cell.util[i], 1));
            row.push_back(
                TablePrinter::percent(cell.achievedSetitimer, 0));
            t.addRow(row);
        }
        t.print(std::cout);
        std::cout << '\n';
    }

    // Paper: an rdtsc-spinning timer core supports up to 22 app
    // cores at a 5us interval (senduipi-limited).
    CostModel c;
    double max_cores = static_cast<double>(usToCycles(5)) /
        static_cast<double>(c.senduipiCost);
    std::cout << "rdtsc-spin capacity at 5us interval: "
              << TablePrinter::num(max_cores, 1)
              << " cores (paper: ~22; senduipi-limited)\n";
    std::cout << "xUI: zero timer-core cycles at every point — each "
                 "core's KB timer is local.\n";

    // Observability run: a setitimer-driven timer core at the 5us
    // interval plus the kernel's interval-timer machinery, so the
    // DES event stream and kernel.* counters land in the export.
    ObsSession obs(opts.metricsJson, opts.traceJson);
    bench::applyProfileFlags(obs, opts);
    if (obs.enabled()) {
        Simulation sim(opts.seed);
        obs.attach(sim.queue(), 0, "timer_core");
        Kernel kernel(sim, costs, 1);
        kernel.attachMetrics(*obs.metrics());
        kernel.attachCounterTrace(obs.kernelTrace());
        ThreadId thread = kernel.createThread();
        kernel.registerHandler(thread, [](unsigned) {});
        kernel.scheduleOn(thread, 0);
        kernel.setInterval(thread, usToCycles(5));
        TimerCoreModel model(sim, costs, TimerInterface::Setitimer,
                             usToCycles(5), 8);
        model.attachMetrics(*obs.metrics());
        model.run(duration);
        sim.runUntil(duration);
        model.publish();
    }
    bench::runObsScenario(obs, opts);
    return obs.finish();
}
