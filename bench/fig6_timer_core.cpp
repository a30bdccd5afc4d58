/**
 * @file
 * Figure 6 reproduction: the cost of a dedicated timer core. CPU
 * utilization of one timer core using setitimer() or nanosleep() to
 * wake and senduipi to notify N application cores, across
 * preemption intervals; xUI's KB timer eliminates the core entirely.
 */

#include <iostream>
#include <vector>

#include "des/simulation.hh"
#include "figure.hh"
#include "os/kernel.hh"
#include "os/timer_core.hh"

using namespace xui;

int
main(int argc, char **argv)
{
    const auto opts = bench::parseArgs(argc, argv,
                                       bench::kObsScenario | bench::kJobs);
    /** One timer interface at one (interval, app cores) point. */
    struct Cell
    {
        double util = 0.0, achieved = 0.0;
    };
    const CostModel costs;
    const Cycles duration = (opts.quick ? 20 : 200) * kCyclesPerMs;
    const std::vector<double> intervals{5.0, 20.0, 100.0};
    const std::vector<unsigned> core_counts{1u, 2u, 4u, 8u,
                                            16u, 22u, 28u};
    // Setitimer first: its achieved rate is the last column.
    const TimerInterface ifaces[] = {TimerInterface::Setitimer,
                                     TimerInterface::Nanosleep,
                                     TimerInterface::RdtscSpin,
                                     TimerInterface::XuiKbTimer};

    return bench::runFigure<Cell>(opts, {
        .title = "Figure 6: The cost of a timer",
        .paperRef = "xUI paper, Fig. 6 (timer-core CPU use vs app "
                    "cores x interval)",
        .tables = intervals.size(), .rows = core_counts.size(),
        .cols = std::size(ifaces),
        .run = [&](bench::Point p) {
            Simulation sim(opts.seed);
            TimerCoreModel m(sim, costs, ifaces[p.c],
                             usToCycles(intervals[p.t]),
                             core_counts[p.r]);
            m.run(duration);
            return Cell{m.utilization(), m.achievedRateFraction()};
        },
        .caption = [&](std::size_t t) {
            return "Timer-core utilization, preemption interval " +
                   TablePrinter::num(intervals[t], 0) + " us";
        },
        .header = {"App cores", "setitimer()", "nanosleep()",
                   "rdtsc spin", "xUI KB_Timer", "achieved (setitimer)"},
        .row = [&](std::size_t r, std::span<const Cell> c) {
            std::vector<std::string> row{
                TablePrinter::integer(core_counts[r])};
            for (const Cell &cell : c)
                row.push_back(TablePrinter::percent(cell.util, 1));
            row.push_back(TablePrinter::percent(c[0].achieved, 0));
            return row;
        },
        // Paper: an rdtsc-spinning timer core supports up to 22 app
        // cores at a 5us interval (senduipi-limited).
        .epilogue = [&](const std::vector<Cell> &) {
            std::cout << "rdtsc-spin capacity at 5us interval: "
                      << TablePrinter::num(
                             static_cast<double>(usToCycles(5)) /
                                 static_cast<double>(costs.senduipiCost),
                             1)
                      << " cores (paper: ~22; senduipi-limited)\n"
                      << "xUI: zero timer-core cycles at every point "
                         "— each core's KB timer is local.\n";
        },
        // A setitimer-driven timer core at the 5us interval plus the
        // kernel's interval-timer machinery, so the DES event stream
        // and kernel.* counters land in the export.
        .instrument = [&](ObsSession &obs) {
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
        },
    });
}
