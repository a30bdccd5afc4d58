/**
 * @file
 * Tests of the verification subsystem itself: digest stability,
 * golden-trace record/replay round-trips, perturbation detection,
 * and the scenario/differential checkers.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "uarch/uarch_system.hh"
#include "verify/differential.hh"
#include "verify/digest_tracer.hh"
#include "verify/fuzz.hh"
#include "verify/scenario.hh"
#include "verify/trace_log.hh"

using namespace xui;

namespace
{

ScenarioConfig
smallScenario(std::uint64_t program_seed = 42,
              std::uint64_t system_seed = 7)
{
    ScenarioConfig cfg;
    cfg.programSeed = program_seed;
    cfg.systemSeed = system_seed;
    cfg.program.deterministicControl = true;
    cfg.targetInsts = 5000;
    cfg.maxCycles = 10'000'000;
    cfg.extraCycles = 5000;
    return cfg;
}

} // namespace

TEST(DigestTracerTest, SameRunSameDigest)
{
    ScenarioResult a = runScenario(smallScenario());
    ScenarioResult b = runScenario(smallScenario());
    EXPECT_EQ(a.fullDigest, b.fullDigest);
    EXPECT_EQ(a.archDigest, b.archDigest);
    EXPECT_EQ(a.eventCount, b.eventCount);
    EXPECT_GT(a.eventCount, 0u);
}

TEST(DigestTracerTest, DifferentSeedDifferentTimingDigest)
{
    ScenarioResult a = runScenario(smallScenario(42, 7));
    ScenarioResult b = runScenario(smallScenario(42, 8));
    // Timing differs (different address randomness)...
    EXPECT_NE(a.fullDigest, b.fullDigest);
    // ...but the committed program does not.
    EXPECT_EQ(a.mainPcs.empty(), false);
    ArchEquivalenceReport eq = checkArchEquivalence(a, b, 1000);
    EXPECT_TRUE(eq.ok) << eq.message;
}

TEST(DigestTracerTest, DifferentProgramDifferentArchDigest)
{
    ScenarioResult a = runScenario(smallScenario(42, 7));
    ScenarioResult b = runScenario(smallScenario(43, 7));
    EXPECT_NE(a.fullDigest, b.fullDigest);
    EXPECT_NE(a.archDigest, b.archDigest);
}

TEST(DigestTracerTest, CountsAndPcsConsistent)
{
    Program p = makeFuzzProgram(5, {});
    DigestTracer digest;
    std::vector<std::uint32_t> pcs;
    digest.collectCommitPcs(&pcs);
    UarchSystem sys(5);
    OooCore &core = sys.addCore(CoreParams{}, &p);
    core.setTracer(&digest);
    core.runCycles(20000);
    EXPECT_EQ(digest.programCommitCount(), pcs.size());
    EXPECT_GT(pcs.size(), 100u);
    const std::uint64_t *counts = digest.eventCounts();
    // Commits counted per kind match the total commit count at
    // least for program uops.
    EXPECT_GE(counts[static_cast<unsigned>(TraceEvent::Commit)],
              digest.programCommitCount());
    for (std::uint32_t pc : pcs)
        EXPECT_LT(pc, p.size());
}

TEST(TeeTracerTest, FansOutToAllSinks)
{
    Program p = makeFuzzProgram(6, {});
    DigestTracer d1, d2;
    TraceLog log;
    LogTracer logger(log);
    TeeTracer tee;
    tee.attach(&d1);
    tee.attach(&d2);
    tee.attach(&logger);
    tee.attach(nullptr);  // ignored
    EXPECT_EQ(tee.numSinks(), 3u);

    UarchSystem sys(6);
    OooCore &core = sys.addCore(CoreParams{}, &p);
    core.setTracer(&tee);
    core.runCycles(5000);

    EXPECT_GT(d1.eventCount(), 0u);
    EXPECT_EQ(d1.fullDigest(), d2.fullDigest());
    EXPECT_EQ(d1.eventCount(), log.size());
}

TEST(TraceLogTest, SaveLoadRoundTrip)
{
    TraceLog log;
    ScenarioResult r = runScenario(smallScenario(), &log);
    ASSERT_GT(log.size(), 1000u);
    EXPECT_EQ(r.eventCount, log.size());

    std::stringstream buf;
    ASSERT_TRUE(log.save(buf));

    TraceLog loaded;
    ASSERT_TRUE(loaded.load(buf));
    ASSERT_EQ(loaded.size(), log.size());
    EXPECT_EQ(loaded.digest(), log.digest());
    EXPECT_EQ(loaded.records(), log.records());
}

TEST(TraceLogTest, LoadRejectsGarbage)
{
    TraceLog log;
    std::stringstream bad("not a trace file at all");
    EXPECT_FALSE(log.load(bad));

    // Truncated stream: valid header claiming more records than
    // present.
    TraceLog src;
    for (int i = 0; i < 10; ++i) {
        TraceRecord r;
        r.cycle = static_cast<Cycles>(i);
        src.append(r);
    }
    std::stringstream buf;
    ASSERT_TRUE(src.save(buf));
    std::string bytes = buf.str();
    bytes.resize(bytes.size() - 7);
    std::stringstream truncated(bytes);
    EXPECT_FALSE(log.load(truncated));
    EXPECT_TRUE(log.empty());
}

TEST(TraceLogTest, ReplayMatchesIdenticalRun)
{
    TraceLog golden;
    runScenario(smallScenario(), &golden);

    ReplayTracer replay(golden);
    runScenario(smallScenario(), nullptr, &replay);
    EXPECT_TRUE(replay.ok()) << replay.message();
    EXPECT_EQ(replay.received(), golden.size());
}

TEST(TraceLogTest, ReplayDetectsPerturbedRecord)
{
    TraceLog golden;
    runScenario(smallScenario(), &golden);
    ASSERT_GT(golden.size(), 5000u);

    // Perturb one mid-stream record by a single cycle.
    const std::size_t victim = golden.size() / 2;
    golden.records()[victim].cycle += 1;

    ReplayTracer replay(golden);
    runScenario(smallScenario(), nullptr, &replay);
    EXPECT_FALSE(replay.ok());
    EXPECT_TRUE(replay.diverged());
    EXPECT_EQ(replay.divergenceIndex(), victim);
    EXPECT_NE(replay.message().find("divergence at event"),
              std::string::npos)
        << replay.message();
}

TEST(TraceLogTest, ReplayDetectsMissingAndExtraEvents)
{
    TraceLog golden;
    runScenario(smallScenario(), &golden);
    ASSERT_GT(golden.size(), 100u);

    // Golden shorter than live: live emits an extra event.
    TraceLog shorter = golden;
    shorter.records().pop_back();
    ReplayTracer extra(shorter);
    runScenario(smallScenario(), nullptr, &extra);
    EXPECT_FALSE(extra.ok());
    EXPECT_TRUE(extra.diverged());
    EXPECT_EQ(extra.divergenceIndex(), shorter.size());

    // Golden longer than live: live ends early.
    TraceLog longer = golden;
    longer.append(golden.at(0));
    ReplayTracer missing(longer);
    runScenario(smallScenario(), nullptr, &missing);
    EXPECT_FALSE(missing.ok());
    EXPECT_FALSE(missing.diverged());
    EXPECT_NE(missing.message().find("ended early"),
              std::string::npos)
        << missing.message();
}

TEST(TraceLogTest, DigestDetectsPerturbation)
{
    TraceLog log;
    runScenario(smallScenario(), &log);
    std::uint64_t clean = log.digest();
    log.records()[log.size() / 3].pc ^= 1;
    EXPECT_NE(log.digest(), clean);
}

TEST(ScenarioTest, DeterminismCheckerPasses)
{
    DeterminismReport rep = checkDeterminism(smallScenario());
    EXPECT_TRUE(rep.ok) << rep.message;
    EXPECT_EQ(rep.digestA, rep.digestB);
}

TEST(ScenarioTest, ViolationFreeUnderAllStrategies)
{
    for (auto strat :
         {DeliveryStrategy::Flush, DeliveryStrategy::Drain,
          DeliveryStrategy::Tracked}) {
        ScenarioConfig cfg = smallScenario();
        cfg.strategy = strat;
        ScenarioResult r = runScenario(cfg);
        EXPECT_TRUE(r.ok())
            << "strategy " << static_cast<int>(strat) << ": "
            << r.violations.front();
        EXPECT_GT(r.delivered, 0u);
        EXPECT_GE(r.committedInsts, cfg.targetInsts);
    }
}

TEST(ScenarioTest, ArchEquivalenceRejectsShortStreams)
{
    ScenarioResult a = runScenario(smallScenario());
    ScenarioResult b = a;
    ArchEquivalenceReport eq =
        checkArchEquivalence(a, b, a.mainPcs.size() + 1);
    EXPECT_FALSE(eq.ok);
    EXPECT_NE(eq.message.find("too short"), std::string::npos);
}

TEST(ScenarioTest, ArchEquivalenceDetectsDivergence)
{
    ScenarioResult a = runScenario(smallScenario());
    ScenarioResult b = a;
    b.mainPcs[b.mainPcs.size() / 2] += 1;
    ArchEquivalenceReport eq = checkArchEquivalence(a, b, 100);
    EXPECT_FALSE(eq.ok);
    EXPECT_NE(eq.message.find("diverge"), std::string::npos);
}

namespace
{

bool
anyLineStartsWith(const std::vector<std::string> &lines,
                  const std::string &prefix)
{
    for (const std::string &l : lines)
        if (l.rfind(prefix, 0) == 0)
            return true;
    return false;
}

} // namespace

// More deliveries than raises is a duplicate, not a loss: the
// conservation check must not wrap raised - delivered around.
TEST(ScenarioTest, DuplicatedDeliveriesAreNotReportedLost)
{
    CoreStats s;
    s.interruptsRaised = 4;
    s.interruptsDelivered = 6;
    std::vector<std::string> v;
    checkInterruptFacts(s, v);
    EXPECT_TRUE(anyLineStartsWith(
        v, "duplicated deliveries: raised 4 < delivered 6"));
    EXPECT_FALSE(anyLineStartsWith(v, "lost interrupts"));

    s.interruptsRaised = 6;
    s.interruptsDelivered = 4;
    v.clear();
    checkInterruptFacts(s, v);
    EXPECT_TRUE(anyLineStartsWith(
        v, "lost interrupts: raised 6, delivered 4 (more than one "
           "in flight)"));
    EXPECT_FALSE(anyLineStartsWith(v, "duplicated deliveries"));
}

TEST(DifferentialTest, CleanAcrossModes)
{
    DifferentialReport rep = runDifferential(smallScenario());
    EXPECT_TRUE(rep.ok()) << rep.violations.front();
    EXPECT_GT(rep.flush.delivered, 0u);
    EXPECT_GT(rep.drain.delivered, 0u);
    EXPECT_GT(rep.tracked.delivered, 0u);
    // Fig. 2 ordering on this workload: tracked starts the handler
    // far earlier than flush.
    EXPECT_LT(rep.tracked.meanHandlerStartLatency,
              rep.flush.meanHandlerStartLatency);
}

TEST(DifferentialTest, SafepointProgramsStayClean)
{
    ScenarioConfig cfg = smallScenario(77, 3);
    cfg.program.withSafepoints = true;
    cfg.safepointMode = true;
    DifferentialReport rep = runDifferential(cfg);
    EXPECT_TRUE(rep.ok()) << rep.violations.front();
}

TEST(FuzzTest, DeterministicControlExcludesRandomBranches)
{
    for (std::uint64_t seed : {1, 2, 3, 4, 5}) {
        FuzzProgramOptions opts;
        opts.deterministicControl = true;
        Program p = makeFuzzProgram(seed, opts);
        for (std::uint32_t pc = 0; pc < p.size(); ++pc)
            EXPECT_NE(p.at(pc).branch.kind, BranchKind::Random)
                << "seed " << seed << " pc " << pc;
    }
}

TEST(FuzzTest, SameSeedSameProgram)
{
    Program a = makeFuzzProgram(9, {});
    Program b = makeFuzzProgram(9, {});
    ASSERT_EQ(a.size(), b.size());
    EXPECT_EQ(a.handlerEntry(), b.handlerEntry());
    for (std::uint32_t pc = 0; pc < a.size(); ++pc) {
        EXPECT_EQ(a.at(pc).opcode, b.at(pc).opcode) << pc;
        EXPECT_EQ(a.at(pc).target, b.at(pc).target) << pc;
    }
}
