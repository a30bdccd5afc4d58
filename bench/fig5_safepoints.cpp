/**
 * @file
 * Figure 5 reproduction: preemption overhead of two *precise*
 * mechanisms — Concord-style compiler polling and xUI hardware
 * safepoints — plus imprecise UIPI, on matmul and base64, across
 * preemption quanta. Overhead = extra cycles to commit the same
 * instruction count vs the uninstrumented, uninterrupted program.
 */

#include <functional>
#include <iostream>

#include "bench_util.hh"
#include "obs_util.hh"
#include "stats/table.hh"
#include "uarch/uarch_system.hh"
#include "workloads/kernels.hh"

using namespace xui;

namespace
{

/** Instructions per hot-loop iteration (loop body incl. back-edge). */
double
instsPerIter(const Program &prog)
{
    for (std::uint32_t pc = 0; pc < prog.size(); ++pc) {
        const MacroOp &op = prog.at(pc);
        if (op.opcode == MacroOpcode::Branch &&
            op.branch.kind == BranchKind::Loop)
            return static_cast<double>(pc + 1);
    }
    return static_cast<double>(prog.size());
}

/** Cycles per hot-loop iteration under the given configuration. */
double
runCase(const std::function<Program(const KernelOptions &)> &make,
        Instrumentation instr, DeliveryStrategy strategy,
        bool safepoint_mode, bool use_timer, Cycles quantum,
        std::uint64_t insts)
{
    KernelOptions kopts;
    kopts.instr = instr;
    // Handler models a user-level scheduler entry + context switch.
    kopts.handlerWork = 24;
    Program prog = make(kopts);
    double per_iter = instsPerIter(prog);

    CoreParams params;
    params.strategy = strategy;
    params.safepointMode = safepoint_mode;
    UarchSystem sys(7);
    OooCore &core = sys.addCore(params, &prog);
    if (use_timer) {
        core.kbTimer().configure(true, 0x21);
        core.kbTimer().setTimer(0, quantum, KbTimerMode::Periodic);
    }
    Cycles cycles = core.runUntilCommitted(insts, insts * 900);

    // Polling preemption: the instrumented program also takes a
    // preemption every quantum; model the taken-poll path as the
    // same handler work via per-event cost (poll hit + user switch).
    if (instr == Instrumentation::Polling) {
        double events = static_cast<double>(cycles) /
            static_cast<double>(quantum);
        cycles += static_cast<Cycles>(events * 160.0);
    }

    double iters = static_cast<double>(
        core.stats().committedInsts) / per_iter;
    return static_cast<double>(cycles) / iters;
}

} // namespace

int
main(int argc, char **argv)
{
    auto opts = bench::parseArgs(argc, argv, bench::kObsScenario);
    bench::banner(
        "Figure 5: Preemption with hardware safepoints",
        "xUI paper, Fig. 5 (matmul/base64; polling vs UIPI vs xUI "
        "safepoints)");

    std::uint64_t insts = opts.quick ? 60000 : 300000;

    struct Bench
    {
        const char *name;
        std::function<Program(const KernelOptions &)> make;
    };
    const Bench benches[] = {
        {"matmul",
         [](const KernelOptions &o) { return makeMatmul(o); }},
        {"base64",
         [](const KernelOptions &o) { return makeBase64(o); }},
    };

    for (const auto &b : benches) {
        // Uninstrumented, uninterrupted baseline: cycles per loop
        // iteration of the plain kernel.
        double base_per_iter =
            runCase(b.make, Instrumentation::None,
                    DeliveryStrategy::Flush, false, false, 1,
                    insts);

        TablePrinter t(std::string("Preemption overhead: ") +
                       b.name + " (% slowdown vs plain, per loop "
                       "iteration)");
        t.setHeader({"Quantum", "Polling (Concord)",
                     "UIPI (imprecise)", "xUI HW safepoints"});
        for (double us : {5.0, 10.0, 20.0, 50.0, 100.0}) {
            Cycles q = usToCycles(us);
            double poll = runCase(b.make, Instrumentation::Polling,
                                  DeliveryStrategy::Flush, false,
                                  false, q, insts);
            double uipi = runCase(b.make, Instrumentation::None,
                                  DeliveryStrategy::Flush, false,
                                  true, q, insts);
            double sp = runCase(b.make, Instrumentation::Safepoint,
                                DeliveryStrategy::Tracked, true,
                                true, q, insts);
            auto fmt = [&](double v) {
                double pct = (v - base_per_iter) / base_per_iter *
                    100.0;
                return TablePrinter::num(pct < 0 ? 0 : pct, 2) + "%";
            };
            t.addRow({TablePrinter::num(us, 0) + " us", fmt(poll),
                      fmt(uipi), fmt(sp)});
        }
        t.print(std::cout);
        std::cout << '\n';
    }
    std::cout << "(Paper at 5us: safepoints 1.2-1.5%, polling "
                 "8.5-11%, UIPI in between and imprecise.)\n";

    ObsSession obs(opts.metricsJson, opts.traceJson);
    bench::runObsScenario(obs, opts);
    return obs.finish();
}
