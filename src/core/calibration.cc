#include "core/calibration.hh"

#include <algorithm>

#include "uarch/uarch_system.hh"
#include "workloads/kernels.hh"

namespace xui
{

namespace
{

/** Cycles per committed instruction of a program, standalone. */
double
cyclesPerInst(const Program &prog, std::uint64_t insts)
{
    CoreParams params;
    UarchSystem sys(7);
    OooCore &core = sys.addCore(params, &prog);
    Cycles cycles = core.runUntilCommitted(insts, insts * 600);
    return static_cast<double>(cycles) /
        static_cast<double>(core.stats().committedInsts);
}

/** clui/stui pair: loop with the pair minus plain loop. */
double
measureCluiStuiPair(std::uint64_t iters)
{
    ProgramBuilder with("cluistui");
    std::uint32_t top = with.here();
    with.clui();
    with.stui();
    with.intAlu(reg::kGpr0 + 1, reg::kGpr0 + 1);
    with.jump(top);
    Program prog_with = with.build();

    ProgramBuilder base("base");
    std::uint32_t top2 = base.here();
    base.intAlu(reg::kGpr0 + 1, reg::kGpr0 + 1);
    base.jump(top2);
    Program prog_base = base.build();

    double with_cpi = cyclesPerInst(prog_with, iters * 4);
    double base_cpi = cyclesPerInst(prog_base, iters * 2);
    // Per iteration: 4 insts with vs 2 insts base.
    return with_cpi * 4.0 - base_cpi * 2.0;
}

/**
 * Per-event receiver cost of an interrupt mechanism, measured as the
 * mean delivery-path occupancy (accept -> uiret retirement) over
 * periodic interrupts into the fib kernel — the quantity behind the
 * paper's 645/231/105-cycle comparison (Fig. 4).
 */
double
measureReceiverCost(DeliveryStrategy strategy, bool via_upid,
                    Cycles interval, std::uint64_t insts)
{
    KernelOptions opts;
    Program prog = makeFib(opts);

    CoreParams params;
    params.strategy = strategy;

    UarchSystem sys(11);
    OooCore &core = sys.addCore(params, &prog);
    std::uint64_t target = insts;
    Cycles elapsed = 0;
    if (via_upid) {
        core.upid().setNotificationVector(core.uinv());
        core.upid().setDestination(core.id());
        while (core.stats().committedInsts < target &&
               elapsed < insts * 700) {
            sys.run(interval);
            elapsed += interval;
            sys.injectUipi(core, 3);
        }
    } else {
        core.kbTimer().configure(true, 0x21);
        core.kbTimer().setTimer(0, interval, KbTimerMode::Periodic);
        core.runUntilCommitted(insts, insts * 700);
    }
    const auto &recs = core.stats().intrRecords;
    if (recs.empty())
        return 0.0;
    double sum = 0.0;
    for (const auto &r : recs)
        sum += static_cast<double>(r.uiretCommitAt - r.acceptedAt);
    return sum / static_cast<double>(recs.size());
}

} // namespace

CalibrationResult
calibrateFromCycleSim(bool quick)
{
    CalibrationResult out;
    std::uint64_t iters = quick ? 200 : 2000;
    std::uint64_t insts = quick ? 30000 : 300000;
    Cycles interval = usToCycles(5);

    // ----- sender + receiver pair: Table 2 / Fig. 2 -----------------
    {
        // A slow sender (long serial pad) so every delivery fully
        // completes before the next senduipi: sends and receives
        // then pair one-to-one.
        ProgramBuilder sb("slow-sender");
        std::uint32_t top = sb.here();
        sb.sendUipi(0);
        for (int i = 0; i < 900; ++i)
            sb.intMult(reg::kGpr0 + 1, reg::kGpr0 + 1);
        sb.loopBranch(top, 1u << 30);
        // The loop branch's fall-through is fetched down the wrong
        // path; without a trailing op it would run off the program.
        sb.halt();
        KernelOptions hopts;
        Program sender_prog = sb.build();
        Program receiver_prog = makeSpinLoop(hopts);

        CoreParams params;
        params.strategy = DeliveryStrategy::Flush;
        UarchSystem sys(5);
        OooCore &sender = sys.addCore(params, &sender_prog);
        OooCore &receiver = sys.addCore(params, &receiver_prog);
        (void)sender;
        sys.registerRoute(receiver, 3);

        sys.run(quick ? 200000 : 1000000);

        const auto &sends = sender.stats().sendRecords;
        const auto &recvs = receiver.stats().intrRecords;
        double wire = 0, notify = 0, deliver = 0, uiret = 0;
        std::size_t used = 0;
        std::size_t si = 0;
        for (std::size_t i = 1; i < recvs.size(); ++i) {
            const auto &r = recvs[i];
            // Pair each delivery with the latest send whose ICR
            // write executed before the IPI arrived.
            while (si + 1 < sends.size() &&
                   sends[si + 1].icrCommitAt != 0 &&
                   sends[si + 1].icrCommitAt <= r.raisedAt)
                ++si;
            const auto &s = sends[si];
            if (s.icrCommitAt == 0 || r.uiretCommitAt == 0)
                continue;
            if (r.raisedAt < s.icrCommitAt)
                continue;
            wire += static_cast<double>(r.raisedAt - s.icrCommitAt);
            notify += static_cast<double>(r.firstUopCommitAt -
                                          r.raisedAt);
            deliver += static_cast<double>(r.deliveryCommitAt -
                                           r.firstUopCommitAt);
            uiret += static_cast<double>(r.uiretCommitAt -
                                         r.deliveryCommitAt);
            ++used;
        }
        if (used) {
            out.ipiArrival = wire / used;
            out.notifyStart = notify / used;
            out.deliveryDone = deliver / used;
            out.uiretCost = uiret / used;
        }

        // senduipi sender-side cost: fast sender loop throughput.
        Program fast = makeSenderLoop(0);
        UarchSystem sys2(6);
        OooCore &s2 = sys2.addCore(params, &fast);
        OooCore &r2 = sys2.addCore(params, &receiver_prog);
        sys2.registerRoute(r2, 3);
        sys2.run(quick ? 100000 : 400000);
        std::size_t n = 0;
        for (const auto &rec : s2.stats().sendRecords)
            n += rec.icrCommitAt != 0;
        if (n > 1) {
            out.senduipiCost =
                static_cast<double>(s2.now()) /
                static_cast<double>(n);
        }

        // End-to-end: senduipi execution + wire + receiver-side
        // flush/notify/delivery up to the handler's first work.
        out.endToEndLatency = out.senduipiCost + out.ipiArrival +
            out.notifyStart + out.deliveryDone;
    }

    // ----- receiver per-event costs (Fig. 4 mechanisms) --------------
    out.receiverCostFlush = measureReceiverCost(
        DeliveryStrategy::Flush, true, interval, insts);
    out.receiverCostTracked = measureReceiverCost(
        DeliveryStrategy::Tracked, true, interval, insts);
    out.receiverCostKbTimer = measureReceiverCost(
        DeliveryStrategy::Tracked, false, interval, insts);

    // Table 2 receiver cost: delivery latency on the spin receiver
    // under flush (accept -> uiret commit).
    out.cluiCost = 2.0;
    double pair = measureCluiStuiPair(iters);
    out.stuiCost = std::max(0.0, pair - out.cluiCost);

    return out;
}

CostModel
makeCalibratedCostModel(const CalibrationResult &calib)
{
    CostModel costs;
    auto merge = [](Cycles &field, double measured) {
        if (measured > 0.0)
            field = static_cast<Cycles>(measured + 0.5);
    };
    merge(costs.uipiFlushReceive, calib.receiverCostFlush);
    merge(costs.uipiTrackedReceive, calib.receiverCostTracked);
    merge(costs.kbTimerReceive, calib.receiverCostKbTimer);
    merge(costs.forwardedReceive, calib.receiverCostKbTimer);
    merge(costs.senduipiCost, calib.senduipiCost);
    // CostModel::ipiWire is senduipi-start -> receiver interrupted.
    merge(costs.ipiWire, calib.senduipiCost + calib.ipiArrival);
    merge(costs.cluiStuiPair, calib.cluiCost + calib.stuiCost);
    return costs;
}

} // namespace xui
