/**
 * @file
 * Micro-behaviour tests of pipeline mechanisms that the broader
 * behavioural tests exercise only implicitly: store-to-load
 * forwarding, functional-unit contention, LQ/SQ back-pressure,
 * frontend-depth effects, and drain-mode details.
 */

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "uarch/uarch_system.hh"
#include "workloads/kernels.hh"

using namespace xui;

namespace
{

Cycles
runProg(Program p, std::uint64_t insts,
        CoreParams params = CoreParams{})
{
    UarchSystem sys(3);
    OooCore &core = sys.addCore(params, &p);
    return core.runUntilCommitted(insts, insts * 2000);
}

} // namespace

TEST(MicroArch, StoreForwardingBeatsCacheMiss)
{
    // Loop: store to a DRAM-far address, then immediately load it.
    // With forwarding the load costs ~2 cycles; without any prior
    // store it would miss all the way to memory.
    auto make = [](bool with_store) {
        ProgramBuilder b("fwd");
        std::uint32_t top = b.here();
        AddrPattern a;
        a.kind = AddrKind::Fixed;
        a.base = 0x9000'0000ull;
        if (with_store)
            b.store(reg::kGpr0 + 1, a);
        b.load(reg::kGpr0 + 2, a);
        // Serialize on the loaded value so latency is exposed.
        b.intAlu(reg::kGpr0 + 2, reg::kGpr0 + 2);
        b.jump(top);
        return b.build();
    };
    // Same-address store+load: fast path (also warms the line, so
    // compare against a rotating-address variant that always
    // misses).
    ProgramBuilder m("miss");
    std::uint32_t top = m.here();
    AddrPattern rot;
    rot.kind = AddrKind::Stride;
    rot.base = 0xa000'0000ull;
    rot.stride = 64;
    rot.range = 256ull << 20;
    m.load(reg::kGpr0 + 2, rot);
    m.intAlu(reg::kGpr0 + 2, reg::kGpr0 + 2);
    m.jump(top);

    Cycles forwarded = runProg(make(true), 20000);
    Cycles missing = runProg(m.build(), 20000);
    EXPECT_LT(forwarded * 2, missing);
}

namespace
{

/** Per pc: last dispatch cycle, issue cycle and issue-to-complete
 *  latency of the last completed instance; plus every squash cycle. */
class LatencyTracer : public Tracer
{
  public:
    void
    event(TraceEvent ev, Cycles cycle, std::uint64_t seq,
          std::uint32_t pc, OpClass) override
    {
        if (ev == TraceEvent::Issue)
            issuedAt_[seq] = cycle;
        if (ev == TraceEvent::Complete && issuedAt_.count(seq)) {
            latency[pc] = cycle - issuedAt_[seq];
            issueCycle[pc] = issuedAt_[seq];
        }
        if (ev == TraceEvent::Dispatch)
            dispatchCycle[pc] = cycle;
        if (ev == TraceEvent::Squash)
            squashes.push_back(cycle);
    }

    std::map<std::uint32_t, Cycles> latency;
    std::map<std::uint32_t, Cycles> issueCycle;
    std::map<std::uint32_t, Cycles> dispatchCycle;
    std::vector<Cycles> squashes;

  private:
    std::map<std::uint64_t, Cycles> issuedAt_;
};

/** Run `p` to its halt with a LatencyTracer attached. */
LatencyTracer
traceToHalt(Program p)
{
    UarchSystem sys(3);
    OooCore &core = sys.addCore(CoreParams{}, &p);
    LatencyTracer t;
    core.setTracer(&t);
    core.runCycles(4000);
    EXPECT_TRUE(core.halted());
    return t;
}

AddrPattern
fixedAddr(std::uint64_t base)
{
    AddrPattern a;
    a.kind = AddrKind::Fixed;
    a.base = base;
    return a;
}

} // namespace

TEST(MicroArch, YoungerStoreNeverForwardsToOlderLoad)
{
    // The load's address operand comes from a cold miss, so it issues
    // long after the younger store to the same line is in flight. It
    // must still go to memory; with the store ahead of it in program
    // order, the same load forwards in 2 cycles.
    const AddrPattern slow = fixedAddr(0xa000'0000ull);
    const AddrPattern same = fixedAddr(0x9000'0000ull);
    auto make = [&](bool store_first) {
        ProgramBuilder b("younger_store");
        b.load(reg::kGpr0 + 1, slow);
        if (store_first)
            b.store(reg::kGpr0 + 3, same);
        b.load(reg::kGpr0 + 2, same, reg::kGpr0 + 1);
        if (!store_first)
            b.store(reg::kGpr0 + 3, same);
        b.halt();
        return b.build();
    };

    LatencyTracer older = traceToHalt(make(false));
    const std::uint32_t load_pc = 1;
    const std::uint32_t store_pc = 2;
    ASSERT_TRUE(older.latency.count(load_pc));
    ASSERT_TRUE(older.dispatchCycle.count(store_pc));
    EXPECT_LT(older.dispatchCycle[store_pc], older.issueCycle[load_pc]);
    EXPECT_GT(older.latency[load_pc], 2u);

    LatencyTracer younger = traceToHalt(make(true));
    EXPECT_EQ(younger.latency[2], 2u);
}

TEST(MicroArch, SquashedWrongPathStoreStopsForwarding)
{
    // The branch waits on a cold miss and is taken, but the fresh
    // predictor says not-taken: the fall-through store to A is
    // fetched, dispatched and issued on the wrong path. After the
    // squash, the correct-path load of A must go to memory. With the
    // store on the correct path instead, it forwards in 2 cycles.
    const AddrPattern slow = fixedAddr(0xa000'0000ull);
    const AddrPattern a = fixedAddr(0x9000'0000ull);
    auto make = [&](bool store_on_correct_path) {
        ProgramBuilder b("wrong_path_store");
        b.load(reg::kGpr0 + 1, slow);                 // pc 0
        MacroOp br;
        br.opcode = MacroOpcode::Branch;
        br.src1 = reg::kGpr0 + 1;
        br.target = 4;
        br.branch.kind = BranchKind::Random;
        br.branch.probability = 1.0;
        b.append(br);                                 // pc 1
        b.store(reg::kGpr0 + 3, a);                   // pc 2 (wrong)
        b.halt();                                     // pc 3
        if (store_on_correct_path)
            b.store(reg::kGpr0 + 3, a);               // pc 4
        else
            b.nop();                                  // pc 4
        b.load(reg::kGpr0 + 2, a);                    // pc 5
        b.halt();
        return b.build();
    };
    const std::uint32_t load_pc = 5;

    LatencyTracer squashed = traceToHalt(make(false));
    ASSERT_EQ(squashed.squashes.size(), 1u);
    ASSERT_TRUE(squashed.issueCycle.count(2));
    EXPECT_LT(squashed.issueCycle[2], squashed.squashes[0]);
    ASSERT_TRUE(squashed.latency.count(load_pc));
    EXPECT_GT(squashed.issueCycle[load_pc], squashed.squashes[0]);
    EXPECT_GT(squashed.latency[load_pc], 2u);

    LatencyTracer kept = traceToHalt(make(true));
    EXPECT_EQ(kept.latency[load_pc], 2u);
}

TEST(MicroArch, MultUnitContention)
{
    // 6 independent multiplies per iteration vs 2 mult units:
    // throughput is unit-bound at ~2/cycle.
    ProgramBuilder b("mults");
    std::uint32_t top = b.here();
    for (int i = 0; i < 6; ++i)
        b.intMult(static_cast<std::uint8_t>(reg::kGpr0 + i),
                  static_cast<std::uint8_t>(reg::kGpr0 + i));
    b.jump(top);
    Cycles cycles = runProg(b.build(), 70000);
    // 6 of every 7 committed instructions are multiplies.
    double mult_per_cycle =
        70000.0 * 6.0 / 7.0 / static_cast<double>(cycles);
    // Bound by the 2 mult units (cannot exceed), and close to it.
    EXPECT_LE(mult_per_cycle, 2.05);
    EXPECT_GT(mult_per_cycle, 1.5);
}

TEST(MicroArch, LoadPortContention)
{
    // 6 independent L1-hit loads per iteration vs 2 load ports.
    ProgramBuilder b("loads");
    std::uint32_t top = b.here();
    AddrPattern a;
    a.kind = AddrKind::Fixed;
    a.base = 0x5000'0000ull;
    for (int i = 0; i < 6; ++i)
        b.load(static_cast<std::uint8_t>(reg::kGpr0 + i), a);
    b.jump(top);
    Cycles cycles = runProg(b.build(), 70000);
    double loads_per_cycle =
        70000.0 * 6.0 / 7.0 / static_cast<double>(cycles);
    EXPECT_LE(loads_per_cycle, 2.05);
    EXPECT_GT(loads_per_cycle, 1.5);
}

TEST(MicroArch, SqBackPressure)
{
    // A long burst of stores cannot exceed the single store port /
    // SQ capacity; the machine must not wedge.
    ProgramBuilder b("stores");
    std::uint32_t top = b.here();
    AddrPattern a;
    a.kind = AddrKind::Stride;
    a.base = 0xb000'0000ull;
    a.stride = 8;
    a.range = 1 << 16;
    for (int i = 0; i < 8; ++i)
        b.store(reg::kGpr0 + 1, a);
    b.jump(top);
    Cycles cycles = runProg(b.build(), 45000);
    double stores_per_cycle =
        45000.0 * 8.0 / 9.0 / static_cast<double>(cycles);
    EXPECT_LE(stores_per_cycle, 1.05);
}

TEST(MicroArch, FrontendDepthSetsMispredictPenalty)
{
    // A hard-to-predict branch costs at least the frontend refill.
    ProgramBuilder b("coin");
    std::uint32_t top = b.here();
    b.intAlu(reg::kGpr0 + 1, reg::kGpr0 + 1);
    b.randomBranch(top, 0.5);
    b.intAlu(reg::kGpr0 + 2, reg::kGpr0 + 2);
    b.jump(top);
    Program prog = b.build();

    CoreParams shallow;
    shallow.frontendDepth = 4;
    CoreParams deep;
    deep.frontendDepth = 20;
    Cycles fast = runProg(prog, 60000, shallow);
    Cycles slow = runProg(prog, 60000, deep);
    EXPECT_GT(slow, fast + fast / 10);
}

TEST(MicroArch, DrainDeliversOnlyWithEmptyRob)
{
    // Under drain, the injection can only have happened when the
    // ROB emptied: drainWaitCycles must be visible and deliveries
    // must still occur.
    Program prog = makeLinpack();
    CoreParams params;
    params.strategy = DeliveryStrategy::Drain;
    UarchSystem sys(5);
    OooCore &core = sys.addCore(params, &prog);
    core.kbTimer().configure(true, 0x21);
    core.kbTimer().setTimer(0, usToCycles(5),
                            KbTimerMode::Periodic);
    core.runUntilCommitted(120000, 120000000);
    EXPECT_GT(core.stats().interruptsDelivered, 5u);
    EXPECT_GT(core.stats().drainWaitCycles,
              core.stats().interruptsDelivered * 5);
}

TEST(MicroArch, SmallerCachesSlowMemoryWorkloads)
{
    // Stream a 1.5 MB working set repeatedly: it fits the default
    // 2 MB L2 but thrashes a 128 KB L2 + 1 MB LLC configuration.
    auto make = [] {
        ProgramBuilder b("stream");
        std::uint32_t top = b.here();
        AddrPattern a;
        a.kind = AddrKind::Stride;
        a.base = 0xc000'0000ull;
        a.stride = 64;
        a.range = 3ull << 19;
        b.load(reg::kGpr0 + 1, a);
        b.intAlu(reg::kGpr0 + 2, reg::kGpr0 + 2);
        b.jump(top);
        return b.build();
    };
    CoreParams big;  // defaults
    CoreParams small;
    small.mem.l2Size = 128 * 1024;
    small.mem.llcSize = 1 << 20;
    Cycles fast = runProg(make(), 300000, big);
    Cycles slow = runProg(make(), 300000, small);
    EXPECT_GT(slow, fast + fast / 4);
}

TEST(MicroArch, WiderMachineHelpsIlp)
{
    ProgramBuilder b("ilp");
    std::uint32_t top = b.here();
    for (int i = 0; i < 12; ++i)
        b.intAlu(static_cast<std::uint8_t>(reg::kGpr0 + (i % 12)),
                 static_cast<std::uint8_t>(reg::kGpr0 + (i % 12)));
    b.jump(top);
    Program prog = b.build();

    CoreParams narrow;
    narrow.fetchWidth = 2;
    narrow.decodeWidth = 2;
    narrow.issueWidth = 2;
    narrow.retireWidth = 2;
    Cycles wide_t = runProg(prog, 60000, CoreParams{});
    ProgramBuilder b2("ilp2");
    std::uint32_t top2 = b2.here();
    for (int i = 0; i < 12; ++i)
        b2.intAlu(static_cast<std::uint8_t>(reg::kGpr0 + (i % 12)),
                  static_cast<std::uint8_t>(reg::kGpr0 + (i % 12)));
    b2.jump(top2);
    Cycles narrow_t = runProg(b2.build(), 60000, narrow);
    EXPECT_GT(narrow_t, 2 * wide_t);
}

TEST(MicroArch, InterruptRecordsMonotonic)
{
    Program prog = makeBase64();
    CoreParams params;
    params.strategy = DeliveryStrategy::Tracked;
    UarchSystem sys(9);
    OooCore &core = sys.addCore(params, &prog);
    core.kbTimer().configure(true, 0x21);
    core.kbTimer().setTimer(0, usToCycles(3),
                            KbTimerMode::Periodic);
    core.runUntilCommitted(150000, 150000000);
    Cycles prev = 0;
    for (const auto &r : core.stats().intrRecords) {
        EXPECT_GT(r.raisedAt, prev);
        prev = r.raisedAt;
        EXPECT_LE(r.injectedAt, r.deliveryExecAt);
        EXPECT_LE(r.deliveryExecAt, r.deliveryCommitAt);
    }
}

TEST(MicroArch, TimerRearmDuringHandlerCollapses)
{
    // Period shorter than the handler: expirations while UIF is
    // clear must collapse rather than queueing unboundedly.
    ProgramBuilder b("slowhandler");
    std::uint32_t top = b.here();
    b.intAlu(reg::kGpr0 + 1, reg::kGpr0 + 1);
    b.jump(top);
    b.beginHandler();
    for (int i = 0; i < 400; ++i)
        b.intMult(reg::kGpr0 + 12, reg::kGpr0 + 12);
    b.uiret();
    Program prog = b.build();

    CoreParams params;
    params.strategy = DeliveryStrategy::Tracked;
    UarchSystem sys(13);
    OooCore &core = sys.addCore(params, &prog);
    core.kbTimer().configure(true, 0x21);
    core.kbTimer().setTimer(0, 200, KbTimerMode::Periodic);
    core.runCycles(200000);
    EXPECT_LE(core.intrUnit().pendingCount(), 2u);
    EXPECT_GT(core.stats().interruptsDelivered, 10u);
}
