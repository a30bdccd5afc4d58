/**
 * @file
 * Figure 4 reproduction: receiver-side overheads of periodic
 * interrupts on fib / linpack / memops under the three mechanisms —
 * UIPI with a software-timer core (flush), xUI tracked interrupts
 * (SW timer source), and xUI KB timer + tracking. Reports both the
 * per-event delivery-path occupancy (the paper's 645/231/105
 * comparison) and the end-to-end program slowdown at each interval.
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

struct Mechanism
{
    const char *name;
    DeliveryStrategy strategy;
    bool viaUpid;  // SW timer core sends UIPIs vs local KB timer
};

const Mechanism kMechanisms[] = {
    {"UIPI SW Timer", DeliveryStrategy::Flush, true},
    {"xUI SW Timer + Tracking", DeliveryStrategy::Tracked, true},
    {"xUI KB_Timer + Tracking", DeliveryStrategy::Tracked, false},
};

struct RunResult
{
    double perEventOccupancy = 0.0;
    double slowdownPct = 0.0;
    std::uint64_t events = 0;
};

RunResult
runOne(const std::function<Program()> &make, const Mechanism &mech,
       Cycles interval, std::uint64_t insts)
{
    Program prog = make();
    CoreParams params;
    params.strategy = mech.strategy;

    Cycles base_cycles;
    {
        Program base_prog = make();
        UarchSystem sys(11);
        OooCore &core = sys.addCore(params, &base_prog);
        base_cycles = core.runUntilCommitted(insts, insts * 900);
    }

    UarchSystem sys(11);
    OooCore &core = sys.addCore(params, &prog);
    Cycles with_cycles = 0;
    if (mech.viaUpid) {
        core.upid().setNotificationVector(core.uinv());
        core.upid().setDestination(core.id());
        while (core.stats().committedInsts < insts &&
               with_cycles < insts * 1000) {
            sys.run(interval);
            with_cycles += interval;
            sys.injectUipi(core, 3);
        }
    } else {
        core.kbTimer().configure(true, 0x21);
        core.kbTimer().setTimer(0, interval, KbTimerMode::Periodic);
        with_cycles = core.runUntilCommitted(insts, insts * 1000);
    }

    RunResult out;
    const auto &recs = core.stats().intrRecords;
    out.events = recs.size();
    double occ = 0;
    for (const auto &r : recs)
        occ += static_cast<double>(r.uiretCommitAt - r.acceptedAt);
    out.perEventOccupancy =
        recs.empty() ? 0 : occ / static_cast<double>(recs.size());
    double scaled_base = static_cast<double>(base_cycles) *
        static_cast<double>(core.stats().committedInsts) /
        static_cast<double>(insts);
    out.slowdownPct =
        (static_cast<double>(with_cycles) - scaled_base) /
        scaled_base * 100.0;
    if (out.slowdownPct < 0)
        out.slowdownPct = 0;
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    auto opts = bench::parseArgs(argc, argv,
                                 bench::kQuick | bench::kSeed | bench::kObs);
    bench::banner("Figure 4: Reducing receiver overheads",
                  "xUI paper, Fig. 4 (fib/linpack/memops, periodic "
                  "interrupts)");

    std::uint64_t insts = opts.quick ? 60000 : 400000;

    struct Bench
    {
        const char *name;
        std::function<Program()> make;
    };
    const Bench benches[] = {
        {"fib", [] { return makeFib(); }},
        {"linpack", [] { return makeLinpack(); }},
        {"memops", [] { return makeMemops(); }},
    };

    TablePrinter t("Per-event receiver cost (delivery occupancy, "
                   "cycles) and slowdown, 5us interval");
    t.setHeader({"Benchmark", "Mechanism", "Cycles/event",
                 "Slowdown", "Events"});
    double mech_avg[3] = {0, 0, 0};
    for (const auto &b : benches) {
        for (std::size_t m = 0; m < 3; ++m) {
            RunResult r = runOne(b.make, kMechanisms[m],
                                 usToCycles(5), insts);
            mech_avg[m] += r.perEventOccupancy / 3.0;
            t.addRow({b.name, kMechanisms[m].name,
                      TablePrinter::num(r.perEventOccupancy, 0),
                      TablePrinter::num(r.slowdownPct, 2) + "%",
                      TablePrinter::integer(
                          static_cast<std::int64_t>(r.events))});
        }
        t.addRule();
    }
    t.print(std::cout);

    TablePrinter s("\nMechanism averages vs paper (5us interval)");
    s.setHeader({"Mechanism", "Paper cycles/event", "Simulated"});
    const char *paper_vals[3] = {"645", "231", "105"};
    for (std::size_t m = 0; m < 3; ++m)
        s.addRow({kMechanisms[m].name, paper_vals[m],
                  TablePrinter::num(mech_avg[m], 0)});
    s.print(std::cout);

    TablePrinter i("\nInterval sweep (fib, slowdown %)");
    i.setHeader({"Interval", "UIPI SW Timer", "xUI SW+Track",
                 "xUI KB+Track"});
    for (double us : {5.0, 10.0, 20.0}) {
        std::vector<std::string> row{
            TablePrinter::num(us, 0) + " us"};
        for (const auto &mech : kMechanisms) {
            RunResult r = runOne([] { return makeFib(); }, mech,
                                 usToCycles(us), insts);
            row.push_back(TablePrinter::num(r.slowdownPct, 2) + "%");
        }
        i.addRow(row);
    }
    i.print(std::cout);
    std::cout << "(Paper: 6.86% for UIPI at 5us -> 1.06% for "
                 "KB_Timer+tracking, a 6.9x reduction.)\n";

    // Observability run: UserIpi flavour (periodic injectUipi), so
    // this bench's span export covers the SW-timer source.
    ObsSession obs(opts.metricsJson, opts.traceJson);
    if (obs.enabled()) {
        Program prog = makeFib();
        CoreParams params;
        params.strategy = DeliveryStrategy::Tracked;
        UarchSystem sys(opts.seed);
        OooCore &core = sys.addCore(params, &prog);
        obs.attach(sys);
        core.upid().setNotificationVector(core.uinv());
        core.upid().setDestination(core.id());
        Cycles total = opts.quick ? 20000 : 100000;
        for (Cycles c = 0; c < total; c += usToCycles(5)) {
            sys.run(usToCycles(5));
            sys.injectUipi(core, 3);
        }
        obs.publishCore(core);
    }
    return obs.finish();
}
