/**
 * @file
 * Section 6.1 "Maximum interrupt latency" reproduction: tracked
 * interrupts never discard work, but their delivery can be delayed
 * by in-flight instructions. The pathological case fills the pipe
 * with a long chain of cache-missing loads whose final value feeds
 * the stack pointer — which the delivery microcode reads. Sweeps
 * chain length, with and without the SP dependence, comparing
 * tracked and flush delivery latency.
 */

#include <algorithm>
#include <iostream>
#include <vector>

#include "bench_util.hh"
#include "obs_util.hh"
#include "des/simulation.hh"
#include "os/kernel.hh"
#include "stats/rng.hh"
#include "stats/summary.hh"
#include "stats/table.hh"
#include "uarch/uarch_system.hh"
#include "verify/bound.hh"
#include "workloads/kernels.hh"

using namespace xui;

namespace
{

double
measureDeliveryLatency(unsigned chain, bool feed_sp,
                       DeliveryStrategy strategy, bool quick)
{
    // 8 MB working set: chain loads miss L1/L2 and hit the LLC,
    // as in the paper's experiment.
    Program prog = makePointerChase(chain, 8ull << 20, feed_sp);
    CoreParams params;
    params.strategy = strategy;
    UarchSystem sys(9);
    OooCore &core = sys.addCore(params, &prog);
    core.kbTimer().configure(true, 0x21);

    SummaryStats lat;
    unsigned samples = quick ? 4 : 12;
    for (unsigned i = 0; i < samples; ++i) {
        core.runCycles(30000);  // refill the pipe with the chain
        std::size_t before = core.stats().intrRecords.size();
        core.kbTimer().setTimer(core.now(), core.now() + 50,
                                KbTimerMode::OneShot);
        core.runCycles(400000);
        if (core.stats().intrRecords.size() > before) {
            // Latency to the handler *starting to execute* — with
            // tracking this precedes retirement of older work.
            const auto &r = core.stats().intrRecords.back();
            lat.add(static_cast<double>(r.deliveryExecAt -
                                        r.raisedAt));
        }
    }
    return lat.max();
}

/**
 * Mixed-criticality co-tenancy (--rt-vector): one resident receiver
 * shares its core between three best-effort vectors with long
 * handler frames and one latency-critical (RT) vector at the
 * --priority level, all routed through the kernel's occupancy
 * engine. The sweep adversarially searches the worst observed
 * raise -> handler-start latency over many seeds and sender phase
 * offsets, and checks every observation against the analytical
 * bound from computeDeliveryBounds.
 * @return 0 when every observation stayed under its bound.
 */
int
runCoTenancy(const bench::Options &opts)
{
    struct Tenant
    {
        unsigned vector;
        unsigned priority;
        Cycles cost;
        Cycles period;
    };
    std::vector<Tenant> tenants = {
        {1, 0, 5000, 20000},
        {2, 1, 2500, 15000},
        {3, 2, 1200, 12000},
    };
    const unsigned rt_vector =
        static_cast<unsigned>(opts.rtVector);
    const unsigned rt_priority =
        static_cast<unsigned>(opts.rtPriority);
    // The RT vector joins the tenancy; same-vector collisions with
    // a best-effort tenant are rejected up front.
    for (const Tenant &t : tenants) {
        if (t.vector == rt_vector) {
            std::cerr << "--rt-vector " << rt_vector
                      << " collides with a best-effort tenant "
                         "(vectors 1-3)\n";
            return 2;
        }
    }
    tenants.push_back({rt_vector, rt_priority, 200, 6000});

    CostModel costs;
    std::vector<VectorProfile> profiles;
    for (const Tenant &t : tenants) {
        VectorProfile p;
        p.vector = t.vector;
        p.priority = t.priority;
        p.handlerCost = t.cost;
        p.minInterArrival = t.period;
        profiles.push_back(p);
    }
    std::vector<DeliveryBound> bounds =
        computeDeliveryBounds(costs, profiles);

    BoundChecker checker;
    bool diverged = false;
    for (const DeliveryBound &b : bounds) {
        if (!b.converged) {
            std::cerr << "analytical bound diverged for vector "
                      << b.vector << " (overload)\n";
            diverged = true;
            continue;
        }
        checker.setBound(b.vector, b.priority, b.bound);
    }
    if (diverged)
        return 1;

    const unsigned trials = opts.quick ? 8 : 32;
    const Cycles horizon = opts.quick ? 200000 : 1000000;
    std::uint64_t delivered = 0;
    for (unsigned trial = 0; trial < trials; ++trial) {
        Simulation sim(opts.seed + trial);
        Kernel kernel(sim, costs, 2);
        kernel.setEngineRaiseHook(
            [&checker](unsigned v, unsigned prio, Cycles now) {
                checker.onRaise(v, prio, now);
            });
        kernel.setEngineDeliverHook(
            [&checker](unsigned v, Cycles now) {
                checker.onDeliver(v, now);
            });

        ThreadId recv = kernel.createThread();
        kernel.registerHandler(recv, [](unsigned) {});
        kernel.scheduleOn(recv, 1);

        Rng rng(opts.seed * 0x9e3779b97f4a7c15ull + trial);
        for (const Tenant &t : tenants) {
            int idx = kernel.registerSender(
                recv, static_cast<std::uint8_t>(t.vector));
            if (idx < 0) {
                std::cerr << "registerSender failed\n";
                return 1;
            }
            DeliveryPolicy p;
            p.priority = clampPriority(t.priority);
            kernel.setDeliveryPolicy(recv, t.vector, p);
            kernel.setHandlerCost(recv, t.vector, t.cost);
            // Adversarial phase: each tenant's periodic stream
            // starts at a random offset inside its period, so the
            // grid of trials hunts alignments where the RT arrival
            // lands just after a long frame started.
            Cycles phase = 1 + rng.nextBounded(t.period);
            for (Cycles at = phase; at < horizon; at += t.period) {
                sim.queue().scheduleAt(at, [&kernel, idx] {
                    kernel.senduipi(idx);
                });
            }
        }

        // Drain every in-flight frame: leftover raises would
        // FIFO-mismatch against the next trial's timeline.
        for (;;) {
            Cycles next = sim.queue().peekNextTime();
            if (next == EventQueue::kNoPending)
                break;
            sim.runUntil(next);
        }
        delivered = checker.matched();
    }

    TablePrinter t("Co-tenancy: observed vs analytical worst-case "
                   "delivery latency (cycles)");
    t.setHeader({"Vector", "Priority", "Analytical bound",
                 "Observed max", "Headroom %"});
    for (const DeliveryBound &b : bounds) {
        Cycles obs = checker.maxObservedVector(b.vector);
        double headroom = b.bound == 0
            ? 0.0
            : 100.0 *
                static_cast<double>(b.bound - std::min(obs, b.bound)) /
                static_cast<double>(b.bound);
        t.addRow({TablePrinter::integer(b.vector),
                  TablePrinter::integer(b.priority),
                  TablePrinter::integer(b.bound),
                  TablePrinter::integer(obs),
                  TablePrinter::num(headroom, 1)});
    }
    t.print(std::cout);
    std::cout << "\nMatched deliveries (last trial cumulative): "
              << delivered << "\n";

    if (!checker.ok()) {
        std::cout << "\nBOUND VIOLATIONS:\n";
        for (const auto &v : checker.violations())
            std::cout << "  " << v << "\n";
        return 1;
    }
    std::cout << "\nEvery observed latency stayed under its "
                 "analytical bound.\n";
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    auto opts = bench::parseArgs(argc, argv,
                                 bench::kObsScenario | bench::kRtVector |
                                 bench::kPriority);
    if (opts.rtVector != 256) {
        bench::banner(
            "Mixed-criticality co-tenancy: checked worst-case "
            "delivery bound",
            "priority preemption extension; RT vector vs "
            "best-effort handler frames");
        return runCoTenancy(opts);
    }
    bench::banner(
        "Section 6.1: Maximum interrupt latency (pathological case)",
        "xUI paper, worst-case tracked delivery under a long "
        "SP-feeding miss chain");

    TablePrinter t("Worst-case delivery latency (cycles) vs chain "
                   "length");
    t.setHeader({"Chain loads", "Tracked (SP feed)",
                 "Tracked (no SP)", "Flush (SP feed)"});
    for (unsigned chain : {10u, 20u, 30u, 50u}) {
        double tracked_sp = measureDeliveryLatency(
            chain, true, DeliveryStrategy::Tracked, opts.quick);
        double tracked_nosp = measureDeliveryLatency(
            chain, false, DeliveryStrategy::Tracked, opts.quick);
        double flush_sp = measureDeliveryLatency(
            chain, true, DeliveryStrategy::Flush, opts.quick);
        t.addRow({TablePrinter::integer(chain),
                  TablePrinter::num(tracked_sp, 0),
                  TablePrinter::num(tracked_nosp, 0),
                  TablePrinter::num(flush_sp, 0)});
    }
    t.print(std::cout);
    std::cout
        << "\nPaper anchors: ~7000-cycle worst case for tracking "
           "with a >=50-deep chain feeding\nSP; flushing is an order "
           "of magnitude lower there (it squashes the chain), while\n"
           "on typical workloads tracking is faster (see fig4 "
           "bench).\n";

    ObsSession obs(opts.metricsJson, opts.traceJson);
    bench::runObsScenario(obs, opts);
    return obs.finish();
}
