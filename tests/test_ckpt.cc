/**
 * @file
 * Checkpoint/restore engine tests: the crash-consistent snapshot
 * file format (envelope validation, provenance strictness,
 * generation-set fallback), restore-under-fault coverage for every
 * Site::CheckpointWrite action (damage is always detected or the
 * previous generation wins — never a silent divergence), the golden
 * corpus round-trip (interrupted + resumed == uninterrupted, bit for
 * bit), the ckpt_crash chaos driver (crash recovery, rollback-retry,
 * restore-from-file), the kernel.recovery.rollback_* counters, and
 * the watchdog's bounded pending-event snapshot under repeated trips
 * (the ASan leak/determinism loop).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "ckpt/build_info.hh"
#include "ckpt/codec.hh"
#include "ckpt/snapshot.hh"
#include "des/simulation.hh"
#include "fault/chaos.hh"
#include "fault/fault.hh"
#include "fault/watchdog.hh"
#include "obs/metrics.hh"
#include "os/cost_model.hh"
#include "os/kernel.hh"
#include "uarch/ooo_core.hh"
#include "verify/roundtrip.hh"
#include "verify/scenario_run.hh"

using namespace xui;

namespace
{

std::string
tmpPath(const std::string &leaf)
{
    return testing::TempDir() + "xui_ckpt_" + leaf;
}

std::string
readFile(const std::string &path)
{
    std::ifstream f(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(f),
                       std::istreambuf_iterator<char>());
}

void
writeFileRaw(const std::string &path, const std::string &bytes)
{
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    f.write(bytes.data(),
            static_cast<std::streamsize>(bytes.size()));
}

ckpt::Snapshot
sampleSnapshot(const std::string &payload)
{
    ckpt::Snapshot s;
    s.tag = "test";
    s.payload = payload;
    return s;
}

// ----- snapshot file engine -----------------------------------------

TEST(SnapshotFile, SaveLoadRoundTrip)
{
    const std::string path = tmpPath("roundtrip.ckpt");
    ckpt::Snapshot in = sampleSnapshot("hello snapshot payload");
    in.seq = 42;
    ckpt::SaveResult sr = ckpt::saveSnapshot(path, in);
    ASSERT_TRUE(sr.ok) << sr.error;

    ckpt::Snapshot out;
    ASSERT_EQ(ckpt::loadSnapshot(path, out), ckpt::LoadStatus::Ok);
    EXPECT_EQ(out.payload, in.payload);
    EXPECT_EQ(out.tag, "test");
    EXPECT_EQ(out.seq, 42u);
    // Provenance is stamped by the save path, not the caller.
    EXPECT_EQ(out.gitSha, ckpt::kBuildGitSha);
    EXPECT_EQ(out.buildType, ckpt::kBuildType);
    std::filesystem::remove(path);
}

TEST(SnapshotFile, CleanSaveLeavesNoTmpSibling)
{
    const std::string path = tmpPath("tmpcheck.ckpt");
    ASSERT_TRUE(ckpt::saveSnapshot(path, sampleSnapshot("x")).ok);
    EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
    std::filesystem::remove(path);
}

TEST(SnapshotFile, MissingFileReportsMissing)
{
    ckpt::Snapshot out;
    EXPECT_EQ(ckpt::loadSnapshot(tmpPath("nonexistent.ckpt"), out),
              ckpt::LoadStatus::Missing);
}

TEST(SnapshotFile, VersionMismatchRefused)
{
    const std::string path = tmpPath("version.ckpt");
    ASSERT_TRUE(ckpt::saveSnapshot(path, sampleSnapshot("v")).ok);
    std::string bytes = readFile(path);
    ASSERT_GT(bytes.size(), 12u);
    bytes[8] = '\xee'; // low byte of the u32 format version
    writeFileRaw(path, bytes);
    ckpt::Snapshot out;
    EXPECT_EQ(ckpt::loadSnapshot(path, out),
              ckpt::LoadStatus::VersionMismatch);
    std::filesystem::remove(path);
}

TEST(SnapshotFile, ProvenanceMismatchRefusedUnlessWaived)
{
    const std::string path = tmpPath("provenance.ckpt");
    ASSERT_TRUE(ckpt::saveSnapshot(path, sampleSnapshot("p")).ok);
    // Forge a snapshot from a "different binary" by rewriting the
    // git SHA header field in place (same length, so every other
    // offset — including the digest-protected payload — is intact).
    std::string bytes = readFile(path);
    const std::string sha = ckpt::kBuildGitSha;
    ASSERT_FALSE(sha.empty());
    std::size_t at = bytes.find(sha);
    ASSERT_NE(at, std::string::npos);
    bytes.replace(at, sha.size(), std::string(sha.size(), 'z'));
    writeFileRaw(path, bytes);

    ckpt::Snapshot out;
    EXPECT_EQ(ckpt::loadSnapshot(path, out),
              ckpt::LoadStatus::ProvenanceMismatch);
    // The waiver exists for forensics, not for normal restores.
    EXPECT_EQ(ckpt::loadSnapshot(path, out, false),
              ckpt::LoadStatus::Ok);
    EXPECT_EQ(out.payload, "p");
    std::filesystem::remove(path);
}

namespace
{

std::uint64_t
readU64(const std::string &s, std::size_t off)
{
    std::uint64_t v = 0;
    for (unsigned i = 0; i < 8; ++i)
        v |= std::uint64_t(static_cast<unsigned char>(s[off + i]))
             << (8 * i);
    return v;
}

void
appendU64(std::string &s, std::uint64_t v)
{
    ckpt::Writer w;
    w.u64(v);
    s += w.data();
}

} // namespace

TEST(CoreSnapshot, RingCountsAboveCapacityRejected)
{
    // The ROB and the fetch buffer are fixed-capacity rings, so a
    // payload naming more entries than the restoring core can hold
    // (params.robSize, fetch-buffer cap 48) is malformed. The spliced
    // streams below are otherwise well-formed, so only the count
    // check can refuse them.
    ProgramBuilder b("alu");
    std::uint32_t top = b.here();
    for (unsigned i = 0; i < 6; ++i)
        b.intAlu(static_cast<std::uint8_t>(reg::kGpr0 + i),
                 static_cast<std::uint8_t>(reg::kGpr0 + i));
    b.jump(top);
    const Program prog = b.build();
    CoreParams params;
    params.robSize = 8;
    params.mem.llcSize = 1 << 20;  // keep the payload small
    auto fresh = [&] {
        return std::make_unique<OooCore>(0, params, &prog, Rng(7));
    };
    auto payload = [](const OooCore &core) {
        ckpt::Writer w;
        core.saveState(w);
        return w.data();
    };
    auto loads = [&](const std::string &bytes) {
        ckpt::Reader r(bytes);
        return fresh()->loadState(r);
    };

    // An untouched core has both rings empty, so its (fetch, ROB)
    // count pair directly precedes execCount_, which this program
    // never advances: u64(size) then size zero words, then the empty
    // IPI inbox.
    const std::string p0 = payload(*fresh());
    const std::string zeros((prog.size() + 1) * 8, '\0');
    std::string exec_count;
    appendU64(exec_count, prog.size());
    exec_count += zeros;
    const std::size_t at = p0.rfind(exec_count);
    ASSERT_NE(at, std::string::npos);
    ASSERT_GE(at, 16u);
    const std::size_t fetch_off = at - 16;
    ASSERT_EQ(readU64(p0, fetch_off), 0u);
    ASSERT_EQ(readU64(p0, fetch_off + 8), 0u);

    // One tick fetches micro-ops that cannot dispatch yet (frontend
    // depth), so that payload differs in length only by them.
    std::unique_ptr<OooCore> c1 = fresh();
    c1->tick();
    const std::size_t f = c1->fetchBufferDepth();
    ASSERT_GT(f, 0u);
    ASSERT_EQ(c1->robOccupancy(), 0u);
    const std::string p1 = payload(*c1);
    ASSERT_EQ(readU64(p1, fetch_off), f);
    ASSERT_EQ((p1.size() - p0.size()) % f, 0u);
    const std::size_t entry_len = (p1.size() - p0.size()) / f;
    ASSERT_EQ(readU64(p1, fetch_off + 8 + f * entry_len), 0u);
    const std::string entry = p1.substr(fetch_off + 8, entry_len);
    const std::string tail = p1.substr(fetch_off + 16 + f * entry_len);

    auto splice = [&](std::size_t fetch_n, std::size_t rob_n) {
        std::string s = p1.substr(0, fetch_off);
        appendU64(s, fetch_n);
        for (std::size_t i = 0; i < fetch_n; ++i)
            s += entry;
        appendU64(s, rob_n);
        for (std::size_t i = 0; i < rob_n; ++i)
            s += entry;
        return s + tail;
    };
    ASSERT_EQ(splice(f, 0).size(), p1.size());
    EXPECT_TRUE(loads(p1));
    EXPECT_TRUE(loads(splice(48, params.robSize)));
    EXPECT_FALSE(loads(splice(49, 0)));
    EXPECT_FALSE(loads(splice(0, params.robSize + 1)));
}

// ----- restore-under-fault: every CheckpointWrite action ------------

/**
 * For every fault the fabric can inject at Site::CheckpointWrite,
 * a save over a previous good snapshot must end in one of exactly
 * two states: the old snapshot intact (save lost), or a damaged
 * file that load *detects*. LoadStatus::Ok with the new payload —
 * silent divergence — must be impossible.
 */
TEST(SnapshotFault, EveryActionDetectedOrPreviousKept)
{
    const fault::Action kActions[] = {
        fault::Action::Drop,      // save silently lost
        fault::Action::Delay,     // torn half-write
        fault::Action::Duplicate, // payload bit flip
        fault::Action::Reorder,   // truncated after header
        fault::Action::Spurious,  // corrupted magic
        fault::Action::Storm,     // zero-length file
    };
    for (fault::Action action : kActions) {
        SCOPED_TRACE(fault::actionName(action));
        const std::string path = tmpPath("fault.ckpt");
        std::filesystem::remove(path);
        ASSERT_TRUE(
            ckpt::saveSnapshot(path, sampleSnapshot("old")).ok);

        fault::Schedule sched;
        sched.directives.push_back(
            {fault::Site::CheckpointWrite, 0, action, 3});
        fault::Injector inj(sched);
        ckpt::SaveResult sr =
            ckpt::saveSnapshot(path, sampleSnapshot("new"), &inj);
        EXPECT_FALSE(sr.ok);
        EXPECT_EQ(sr.injected, action);

        ckpt::Snapshot out;
        ckpt::LoadStatus st = ckpt::loadSnapshot(path, out);
        if (st == ckpt::LoadStatus::Ok) {
            // Only legal when the damaged save never replaced the
            // previous good file.
            EXPECT_EQ(out.payload, "old")
                << "silent divergence: faulted save loaded clean";
        } else {
            EXPECT_NE(st, ckpt::LoadStatus::Missing)
                << "faulted save destroyed the previous snapshot";
        }
        std::filesystem::remove(path);
    }
}

// ----- generation set -----------------------------------------------

TEST(GenerationSet, LoadLatestPicksHighestSeq)
{
    const std::string base = tmpPath("gens.ckpt");
    ckpt::GenerationSet gens(base);
    for (int i = 1; i <= 6; ++i)
        ASSERT_TRUE(
            gens.save(sampleSnapshot("gen" + std::to_string(i))).ok);

    ckpt::Snapshot out;
    auto lo = gens.loadLatest(out);
    EXPECT_EQ(lo.status, ckpt::LoadStatus::Ok);
    EXPECT_EQ(lo.corruptSkipped, 0u);
    EXPECT_EQ(out.payload, "gen6");
    EXPECT_EQ(out.seq, 6u);
    gens.removeAll();
}

TEST(GenerationSet, CorruptNewestFallsBackToPreviousGeneration)
{
    const std::string base = tmpPath("gens_fb.ckpt");
    ckpt::GenerationSet gens(base);
    ASSERT_TRUE(gens.save(sampleSnapshot("good")).ok);
    ASSERT_TRUE(gens.save(sampleSnapshot("newest")).ok);

    // Tear the newest generation in half behind the engine's back.
    const std::string newest = gens.slotPath(2);
    std::string bytes = readFile(newest);
    ASSERT_GT(bytes.size(), 2u);
    writeFileRaw(newest, bytes.substr(0, bytes.size() / 2));

    ckpt::Snapshot out;
    auto lo = gens.loadLatest(out);
    EXPECT_EQ(lo.status, ckpt::LoadStatus::Ok);
    EXPECT_EQ(lo.corruptSkipped, 1u);
    EXPECT_EQ(out.payload, "good");
    gens.removeAll();
}

TEST(GenerationSet, AllCorruptReportsCorruptNotOk)
{
    const std::string base = tmpPath("gens_bad.ckpt");
    ckpt::GenerationSet gens(base);
    ASSERT_TRUE(gens.save(sampleSnapshot("a")).ok);
    ASSERT_TRUE(gens.save(sampleSnapshot("b")).ok);
    for (std::uint64_t seq = 1; seq <= 2; ++seq)
        writeFileRaw(gens.slotPath(seq), "XUICKPT\ngarbage");

    ckpt::Snapshot out;
    auto lo = gens.loadLatest(out);
    EXPECT_NE(lo.status, ckpt::LoadStatus::Ok);
    EXPECT_EQ(lo.corruptSkipped, 2u);
    gens.removeAll();
}

// ----- golden corpus round-trip -------------------------------------

TEST(CorpusRoundTrip, SampleRowsBitIdentical)
{
    for (std::uint64_t seed : {1, 7}) {
        for (DeliveryStrategy s :
             {DeliveryStrategy::Flush, DeliveryStrategy::Tracked}) {
            RoundTripReport rep =
                checkRoundTrip(goldenCorpusConfig(seed, s), 0);
            EXPECT_TRUE(rep.ok) << rep.message;
            EXPECT_TRUE(rep.bitIdentical) << rep.message;
            EXPECT_EQ(rep.referenceDigest, rep.resumedDigest);
        }
    }
}

TEST(CorpusRoundTrip, OnDiskEngineRowBitIdentical)
{
    RoundTripReport rep = checkRoundTrip(
        goldenCorpusConfig(2, DeliveryStrategy::Drain), 0,
        tmpPath("corpus_row.ckpt"));
    EXPECT_TRUE(rep.ok) << rep.message;
    EXPECT_TRUE(rep.bitIdentical) << rep.message;
}

TEST(CorpusRoundTrip, SweepAgreesAcrossJobs)
{
    CorpusRoundTripOptions ro;
    ro.seeds = 2; // 6 rows: enough to exercise the fan-out
    ro.snapshotDir = testing::TempDir();
    ro.jobs = 1;
    CorpusRoundTripSummary s1 = runCorpusRoundTrip(ro);
    ro.jobs = 2;
    CorpusRoundTripSummary s2 = runCorpusRoundTrip(ro);
    EXPECT_TRUE(s1.ok());
    EXPECT_EQ(s1.rows, 6u);
    EXPECT_EQ(s1.passed, s2.passed);
    EXPECT_EQ(s1.failures, s2.failures);
}

// ----- ckpt_crash chaos driver --------------------------------------

fault::ScheduleOptions
ckptScheduleOptions()
{
    fault::ScheduleOptions so;
    so.dropCkptWrite = true;
    so.tearCkptWrite = true;
    so.flipCkptWrite = true;
    so.truncateCkptWrite = true;
    so.stormDeschedule = true;
    return so;
}

chaos::CellConfig
ckptCellConfig(std::uint64_t seed)
{
    chaos::CellConfig cc;
    cc.kind = chaos::ScenarioKind::CkptCrash;
    cc.seed = seed;
    cc.schedule = fault::generateSchedule(
        chaos::cellScheduleSeed(cc.kind, seed),
        ckptScheduleOptions());
    cc.ckptEvery = 512;
    // A planted livelock costs the whole budget per rollback
    // attempt; keep stuck detection cheap (mirrors runGrid).
    cc.eventBudget = 64000;
    return cc;
}

TEST(CkptCrashCell, CrashRecoveryMatchesCrashFreeRun)
{
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        chaos::CellConfig base = ckptCellConfig(seed);

        chaos::CellConfig crashed = base;
        crashed.crashAtEvent =
            256 +
            chaos::cellScheduleSeed(base.kind, seed) % 2048;
        crashed.ckptPathBase =
            tmpPath("crash_" + std::to_string(seed) + ".ckpt");

        chaos::CellResult a = chaos::runCell(base);
        chaos::CellResult b = chaos::runCell(crashed);

        EXPECT_TRUE(b.crashRecovered);
        EXPECT_GT(b.ckptSnapshots, 0u);
        // The kill is not allowed to perturb anything observable.
        EXPECT_EQ(a.posted, b.posted);
        EXPECT_EQ(a.delivered, b.delivered);
        EXPECT_EQ(a.abandoned, b.abandoned);
        EXPECT_EQ(a.handlerRuns, b.handlerRuns);
        EXPECT_EQ(a.passed, b.passed);
        for (const auto &v : b.violations)
            ADD_FAILURE() << "crash-run violation: " << v;
    }
}

TEST(CkptCrashCell, RollbackRetryEscapesPlantedLivelock)
{
    chaos::CellConfig cc;
    cc.kind = chaos::ScenarioKind::CkptCrash;
    cc.seed = 2;
    cc.schedule.directives.push_back(
        {fault::Site::Deschedule, 0, fault::Action::Storm, 3});
    cc.ckptEvery = 256;
    cc.eventBudget = 64000;

    chaos::CellResult r1 = chaos::runCell(cc);
    EXPECT_TRUE(r1.passed);
    EXPECT_GE(r1.rollbackRetries, 1u);
    for (const auto &v : r1.violations)
        ADD_FAILURE() << "violation: " << v;

    // Rollback-recovery is part of the deterministic replay
    // surface: the same cell twice must retry identically.
    chaos::CellResult r2 = chaos::runCell(cc);
    EXPECT_EQ(r1.rollbackRetries, r2.rollbackRetries);
    EXPECT_EQ(r1.rollbackEventsReplayed, r2.rollbackEventsReplayed);
    EXPECT_EQ(r1.posted, r2.posted);
    EXPECT_EQ(r1.delivered, r2.delivered);
    EXPECT_EQ(r1.handlerRuns, r2.handlerRuns);
}

TEST(CkptCrashCell, RollbackDisabledReportsStuck)
{
    chaos::CellConfig cc;
    cc.kind = chaos::ScenarioKind::CkptCrash;
    cc.seed = 2;
    cc.schedule.directives.push_back(
        {fault::Site::Deschedule, 0, fault::Action::Storm, 3});
    cc.ckptEvery = 256;
    cc.eventBudget = 64000;
    cc.rollbackRetry = false;

    chaos::CellResult r = chaos::runCell(cc);
    EXPECT_FALSE(r.passed);
    EXPECT_TRUE(r.stuck);
    ASSERT_FALSE(r.violations.empty());
    EXPECT_NE(r.violations.front().find("rollback retries"),
              std::string::npos)
        << r.violations.front();
}

TEST(CkptCrashCell, RestoreFromFileResumesIdentically)
{
    chaos::CellConfig cc;
    cc.kind = chaos::ScenarioKind::CkptCrash;
    cc.seed = 5;
    cc.ckptEvery = 256;
    cc.eventBudget = 64000;
    cc.ckptPathBase = tmpPath("restore_src.ckpt");
    cc.ckptKeepFiles = true;

    chaos::CellResult base = chaos::runCell(cc);
    ASSERT_TRUE(base.passed);
    ASSERT_GT(base.ckptSnapshots, 0u);

    ckpt::GenerationSet gens(cc.ckptPathBase);
    std::string slot;
    for (std::uint64_t seq = 1; seq <= gens.keep(); ++seq)
        if (std::filesystem::exists(gens.slotPath(seq)))
            slot = gens.slotPath(seq);
    ASSERT_FALSE(slot.empty());

    chaos::CellConfig rc = cc;
    rc.ckptPathBase.clear();
    rc.ckptKeepFiles = false;
    rc.restoreFrom = slot;
    chaos::CellResult r = chaos::runCell(rc);
    EXPECT_TRUE(r.passed);
    for (const auto &v : r.violations)
        ADD_FAILURE() << "violation: " << v;
    EXPECT_EQ(r.posted, base.posted);
    EXPECT_EQ(r.delivered, base.delivered);
    EXPECT_EQ(r.handlerRuns, base.handlerRuns);
    gens.removeAll();
}

TEST(CkptCrashCell, RestoreFromBadFileFailsLoudly)
{
    chaos::CellConfig cc;
    cc.kind = chaos::ScenarioKind::CkptCrash;
    cc.seed = 5;
    cc.restoreFrom = tmpPath("no_such_snapshot.ckpt");
    chaos::CellResult r = chaos::runCell(cc);
    EXPECT_FALSE(r.passed);
    ASSERT_FALSE(r.violations.empty());
    EXPECT_NE(r.violations.front().find("restore"),
              std::string::npos);
}

TEST(CkptCrashGrid, JobsInvariant)
{
    chaos::GridConfig gc;
    gc.kinds = {chaos::ScenarioKind::CkptCrash};
    gc.seeds = 6;
    gc.ckptDir = testing::TempDir() + "xui_ckpt_grid";
    gc.jobs = 1;
    chaos::GridOutcome g1 = chaos::runGrid(gc);
    gc.jobs = 2;
    chaos::GridOutcome g2 = chaos::runGrid(gc);
    EXPECT_EQ(g1.cells, 6u);
    EXPECT_EQ(g1.failed, g2.failed);
    EXPECT_EQ(g1.posted, g2.posted);
    EXPECT_EQ(g1.delivered, g2.delivered);
    EXPECT_EQ(g1.injected, g2.injected);
    for (const auto &rep : g1.failures)
        for (const auto &v : rep.result.violations)
            ADD_FAILURE()
                << "grid seed " << rep.seed << ": " << v;
}

// ----- kernel rollback counters -------------------------------------

std::uint64_t
counterOf(const MetricsRegistry &m, const char *name)
{
    const Counter *c = m.findCounter(name);
    return c != nullptr ? c->value() : 0;
}

TEST(RecoveryCounters, NoteRollbackAccountsEveryRetry)
{
    Simulation sim{1};
    CostModel costs;
    Kernel kernel{sim, costs, 1};
    MetricsRegistry m;
    kernel.attachMetrics(m);

    kernel.noteRollback(123);
    kernel.noteRollback(7);
    kernel.noteRollback(0);
    EXPECT_EQ(counterOf(m, "kernel.recovery.rollback_retries"), 3u);
    EXPECT_EQ(
        counterOf(m, "kernel.recovery.rollback_events_replayed"),
        130u);
}

// ----- watchdog pending-event snapshot ------------------------------

TEST(WatchdogSnapshot, BoundedTopKMatchesSortedPrefix)
{
    Simulation sim{1};
    EventQueue &q = sim.queue();
    // Park events at scattered, deliberately unsorted times.
    for (Cycles t : {900, 17, 450, 3, 3, 888, 21, 4, 700, 5, 2, 60})
        q.scheduleAt(1000 + t, [] {});

    auto full = q.pendingSnapshot(0);
    auto top = q.pendingSnapshot(8);
    ASSERT_EQ(full.size(), 12u);
    ASSERT_EQ(top.size(), 8u);
    for (std::size_t i = 0; i < top.size(); ++i) {
        EXPECT_EQ(top[i].when, full[i].when);
        EXPECT_EQ(top[i].seq, full[i].seq);
    }
    for (std::size_t i = 1; i < full.size(); ++i) {
        const bool sorted =
            full[i - 1].when < full[i].when ||
            (full[i - 1].when == full[i].when &&
             full[i - 1].seq < full[i].seq);
        EXPECT_TRUE(sorted) << "unsorted at index " << i;
    }
}

/**
 * The rollback-retry driver can trip the watchdog over and over on
 * the same wedged queue; each trip must produce a bounded, sorted
 * snapshot and leak nothing (this test is what ASan chews on).
 */
TEST(WatchdogSnapshot, HundredTripsBoundedAndLeakFree)
{
    Simulation sim{1};
    EventQueue &q = sim.queue();
    std::function<void()> churn = [&] { q.scheduleAfter(1, churn); };
    q.scheduleAfter(1, churn);
    for (int i = 0; i < 64; ++i)
        q.scheduleAt(1'000'000 + i, [] {});

    for (int trip = 0; trip < 100; ++trip) {
        fault::Watchdog dog(q, 50);
        try {
            dog.runUntil(2'000'000);
            FAIL() << "trip " << trip
                   << ": expected StuckSimulation";
        } catch (const fault::StuckSimulation &e) {
            EXPECT_LE(e.pending().size(), 8u);
            EXPECT_GE(e.pendingCount(), 64u);
            for (std::size_t i = 1; i < e.pending().size(); ++i) {
                const auto &a = e.pending()[i - 1];
                const auto &b = e.pending()[i];
                EXPECT_TRUE(a.when < b.when ||
                            (a.when == b.when && a.seq < b.seq));
            }
        }
    }
}

} // namespace
