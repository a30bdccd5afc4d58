/**
 * @file
 * Checkpoint/restore engine tests: the crash-consistent snapshot
 * file format (envelope validation, provenance strictness,
 * generation-set fallback), restore-under-fault coverage for every
 * Site::CheckpointWrite action (damage is always detected or the
 * previous generation wins — never a silent divergence), the golden
 * corpus round-trip (interrupted + resumed == uninterrupted, bit for
 * bit), byte-identity pins on the payloads themselves, the zero-run
 * encoding of never-touched cache sets, malformed payloads (trailing
 * bytes, inflated counts) and a seeded mutation loop over the
 * snapshot Reader, the ckpt_crash chaos driver (crash
 * recovery, rollback-retry,
 * restore-from-file), the kernel.recovery.rollback_* counters, and
 * the bounded pending-event snapshot a stuck cell reports, under
 * repeated trips (the ASan leak/determinism loop).
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
#include "obs/metrics.hh"
#include "os/cost_model.hh"
#include "os/kernel.hh"
#include "stats/digest.hh"
#include "uarch/cache.hh"
#include "uarch/ooo_core.hh"
#include "verify/roundtrip.hh"
#include "verify/scenario_run.hh"
#include "workloads/kernels.hh"

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

// ----- payload byte-identity pins -----------------------------------

/** The ScenarioRun payload at the split checkRoundTrip uses. */
std::string
halfwayPayload(const ScenarioConfig &cfg)
{
    ScenarioRun reference(cfg);
    reference.runToEnd();
    const Cycles split = reference.finish().cycles / 2;
    ScenarioRun run(cfg);
    while (!run.done() && run.now() < split)
        run.advance(split - run.now());
    ckpt::Writer w;
    run.saveState(w);
    return w.take();
}

struct PayloadPin
{
    DeliveryStrategy strategy;
    std::size_t bytes;
    std::uint64_t fnv;
};

/**
 * Size and FNV-1a of the half-way payload of golden row seed 1, one
 * per delivery strategy. Any change to a field's order, width or
 * presence moves these, so a restructuring of the codec that claims
 * to keep the format must keep them.
 */
TEST(PayloadPin, ScenarioRunPayloadsByteIdentical)
{
    const PayloadPin kPins[] = {
        {DeliveryStrategy::Flush, 9533073, 0x0ce97afd425159f1ull},
        {DeliveryStrategy::Drain, 9533573, 0xe12900b8516cd560ull},
        {DeliveryStrategy::Tracked, 9541331, 0xe2cc4795b9dbada9ull},
    };
    for (const PayloadPin &pin : kPins) {
        SCOPED_TRACE(static_cast<int>(pin.strategy));
        const ScenarioConfig cfg = goldenCorpusConfig(1, pin.strategy);
        const std::string p = halfwayPayload(cfg);
        EXPECT_EQ(p.size(), pin.bytes);
        EXPECT_EQ(fnv1a(p.data(), p.size()), pin.fnv);

        ScenarioRun back(cfg);
        ckpt::Reader r(p);
        ASSERT_TRUE(back.loadState(r));
        ckpt::Writer w;
        back.saveState(w);
        EXPECT_TRUE(w.data() == p) << "save -> load -> save moved bytes";
    }
}

/** Same pin for one encoded chaos logical checkpoint (CkptState). */
TEST(PayloadPin, ChaosCheckpointPayloadByteIdentical)
{
    chaos::CellConfig cc;
    cc.kind = chaos::ScenarioKind::CkptCrash;
    cc.seed = 5;
    cc.ckptEvery = 256;
    cc.eventBudget = 64000;
    cc.ckptPathBase = tmpPath("pin.ckpt");
    cc.ckptKeepFiles = true;
    ASSERT_TRUE(chaos::runCell(cc).passed);

    ckpt::GenerationSet gens(cc.ckptPathBase);
    ckpt::Snapshot snap;
    ASSERT_EQ(gens.loadLatest(snap).status, ckpt::LoadStatus::Ok);
    gens.removeAll();
    EXPECT_EQ(snap.payload.size(), 152u);
    EXPECT_EQ(fnv1a(snap.payload.data(), snap.payload.size()),
              0x35519f7eaed849dbull);
}

/** Sequence bounds rely on each element's declared encoded size. */
template <class T>
std::size_t
encodedSize(T item)
{
    ckpt::Writer w;
    item.visit(w);
    return w.size();
}

TEST(PayloadPin, DeclaredElementSizesMatchEncoding)
{
    EXPECT_EQ(encodedSize(MicroOp{}), MicroOp::kCkptBytes);
    EXPECT_EQ(encodedSize(PendingIntr{}), PendingIntr::kCkptBytes);
    EXPECT_EQ(encodedSize(IntrRecord{}), IntrRecord::kCkptBytes);
    EXPECT_EQ(encodedSize(SendRecord{}), SendRecord::kCkptBytes);
    EXPECT_EQ(encodedSize(FfSpan{}), FfSpan::kCkptBytes);
}

// ----- payload sizing (Sizer predicts what Writer appends) ----------

/**
 * The core's Sizer count is the length of its saved bytes, and
 * ScenarioRun::saveState allocates its buffer once: a fresh Writer
 * ends with no spare capacity, which a short or long prediction
 * (a regrown or an over-reserved string) would leave. Returns the
 * payload.
 */
std::string
expectExactlySized(ScenarioRun &run)
{
    ckpt::Writer core;
    run.core().saveState(core);
    EXPECT_EQ(run.core().ckptBytes(), core.size());

    ckpt::Writer w;
    run.saveState(w);
    EXPECT_EQ(w.data().capacity(), w.size());

    // Appending to a Writer that already holds bytes sizes the same.
    ckpt::Writer after;
    after.u64(0x5a5a);
    run.saveState(after);
    EXPECT_EQ(after.size(), 8 + w.size());
    return w.take();
}

TEST(PayloadSize, SizerPredictsScenarioRunSaves)
{
    const ScenarioConfig cfg =
        goldenCorpusConfig(1, DeliveryStrategy::Tracked);
    ScenarioRun reference(cfg);
    reference.runToEnd();
    const Cycles split = reference.finish().cycles / 2;
    {
        SCOPED_TRACE("run to its end");
        expectExactlySized(reference);
    }

    ScenarioRun run(cfg);
    {
        SCOPED_TRACE("fresh");
        expectExactlySized(run);
    }
    while (!run.done() && run.now() < split)
        run.advance(split - run.now());
    std::string half;
    {
        SCOPED_TRACE("half way");
        half = expectExactlySized(run);
    }

    ScenarioRun back(cfg);
    ckpt::Reader r(half);
    ASSERT_TRUE(back.loadState(r));
    {
        SCOPED_TRACE("restored");
        EXPECT_TRUE(expectExactlySized(back) == half);
    }

    MemHierarchy &mem = back.core().mem();
    mem.l1().flushAll();
    mem.l2().flushAll();
    mem.llc().flushAll();
    SCOPED_TRACE("caches flushed");
    expectExactlySized(back);
}

TEST(PayloadSize, SizerPredictsChaosCheckpointAndEnvelope)
{
    chaos::CellConfig cc;
    cc.kind = chaos::ScenarioKind::CkptCrash;
    cc.seed = 5;
    cc.ckptEvery = 256;
    cc.eventBudget = 64000;
    cc.ckptPathBase = tmpPath("size.ckpt");
    cc.ckptKeepFiles = true;
    ASSERT_TRUE(chaos::runCell(cc).passed);

    ckpt::GenerationSet gens(cc.ckptPathBase);
    ckpt::Snapshot snap;
    ASSERT_EQ(gens.loadLatest(snap).status, ckpt::LoadStatus::Ok);
    EXPECT_EQ(snap.payload.size(), chaos::ckptPayloadBytes());
    const std::string file = readFile(gens.slotPath(snap.seq));
    gens.removeAll();
    EXPECT_EQ(file.size(), ckpt::envelopeBytes(snap));
}

TEST(PayloadSize, EnvelopeBytesAreTheFileLength)
{
    ckpt::Writer big;
    for (std::uint64_t i = 0; i < 40000; ++i)
        big.u64(i * 0x9e3779b97f4a7c15ull);
    for (const std::string &payload :
         {std::string(), std::string("x"), big.data()}) {
        for (const char *tag : {"", "a", "roundtrip"}) {
            const std::string path = tmpPath("envelope.ckpt");
            ckpt::Snapshot in = sampleSnapshot(payload);
            in.tag = tag;
            in.seq = payload.size();
            ASSERT_TRUE(ckpt::saveSnapshot(path, in).ok);
            EXPECT_EQ(readFile(path).size(), ckpt::envelopeBytes(in));
            ckpt::Snapshot out;
            ASSERT_EQ(ckpt::loadSnapshot(path, out),
                      ckpt::LoadStatus::Ok);
            EXPECT_TRUE(out.payload == payload);
            EXPECT_EQ(out.tag, tag);
            std::filesystem::remove(path);
        }
    }
}

// ----- zero runs (never-touched cache sets) -------------------------

TEST(ZeroRun, WriterAppendsZerosOnlyWhenBlank)
{
    ckpt::Writer w;
    w.u8(7);
    EXPECT_FALSE(w.zeroRun(false, 13));
    EXPECT_EQ(w.size(), 1u);
    EXPECT_TRUE(w.zeroRun(true, 13));
    EXPECT_EQ(w.data(), std::string("\x07") + std::string(13, '\0'));
}

TEST(ZeroRun, ReaderSkipsOnlyBlankAllZeroRuns)
{
    std::string zeros(21, '\0');
    ckpt::Reader r(zeros);
    EXPECT_FALSE(r.zeroRun(false, 21)); // live target: caller decodes
    EXPECT_EQ(r.remaining(), 21u);
    EXPECT_TRUE(r.zeroRun(true, 21));
    EXPECT_TRUE(r.ok() && r.atEnd());

    // One set byte anywhere, in the word loop or the tail, is data.
    for (std::size_t at : {0, 7, 8, 15, 16, 20}) {
        std::string s = zeros;
        s[at] = 1;
        ckpt::Reader rs(s);
        EXPECT_FALSE(rs.zeroRun(true, 21)) << at;
        EXPECT_TRUE(rs.ok());
        EXPECT_EQ(rs.remaining(), 21u) << at;
    }
}

namespace
{

// A 1 KiB, 2-way cache of 64-byte lines: 8 sets, 17 bytes per line.
constexpr std::uint64_t kSets = 8;
constexpr unsigned kWays = 2;

Cache
tinyCache()
{
    return Cache(1024, kWays, 64, 1, nullptr, 50);
}

std::uint64_t
addrOf(std::uint64_t set, std::uint64_t tagHigh)
{
    return (tagHigh * kSets + set) * 64;
}

/** Offset of a line in a Cache payload, past the line-count guard. */
std::size_t
lineAt(std::uint64_t set, unsigned way)
{
    return 8 + (set * kWays + way) * 17;
}

std::string
payloadOf(Cache &c)
{
    ckpt::Writer w;
    c.visit(w);
    return w.take();
}

bool
loadInto(Cache &c, const std::string &p)
{
    ckpt::Reader r(p);
    c.visit(r);
    return r.ok() && r.atEnd();
}

} // namespace

/**
 * A payload loaded over a cache that already has live sets: every set
 * that is zero in the payload must come back empty, not keep the
 * target's old lines, and the loaded cache must behave like a fresh
 * one loaded from the same bytes.
 */
TEST(ZeroRun, LoadOverLiveSetsEmptiesThem)
{
    Cache src = tinyCache();
    src.access(addrOf(0, 1));
    src.access(addrOf(0, 2));
    src.access(addrOf(1, 3));
    const std::string p = payloadOf(src);
    ASSERT_EQ(p.substr(lineAt(2, 0), 6 * kWays * 17),
              std::string(6 * kWays * 17, '\0'));

    Cache dst = tinyCache();
    dst.access(addrOf(0, 9));  // live in both, other contents
    dst.access(addrOf(2, 4));  // live only in the target
    dst.access(addrOf(5, 6));
    dst.access(addrOf(5, 7));
    dst.flushAll();
    dst.access(addrOf(7, 8));
    ASSERT_TRUE(loadInto(dst, p));
    EXPECT_TRUE(payloadOf(dst) == p);
    for (std::uint64_t a : {addrOf(0, 9), addrOf(2, 4), addrOf(5, 6),
                            addrOf(5, 7), addrOf(7, 8)})
        EXPECT_FALSE(dst.contains(a)) << a;
    for (std::uint64_t a : {addrOf(0, 1), addrOf(0, 2), addrOf(1, 3)})
        EXPECT_TRUE(dst.contains(a)) << a;

    Cache fresh = tinyCache();
    ASSERT_TRUE(loadInto(fresh, p));
    for (std::uint64_t a : {addrOf(2, 4), addrOf(0, 1), addrOf(0, 9),
                            addrOf(5, 6), addrOf(0, 2), addrOf(7, 8)})
        EXPECT_EQ(dst.access(a), fresh.access(a)) << a;
    EXPECT_TRUE(payloadOf(dst) == payloadOf(fresh));
}

/**
 * A flipped byte inside an otherwise-zero set region is data: the
 * set is decoded like any other, so a valid byte of 2 is rejected and
 * a flipped tag byte loads as a live set that saves back unchanged.
 */
TEST(ZeroRun, FlippedByteInZeroSetIsDecoded)
{
    Cache src = tinyCache();
    src.access(addrOf(0, 1));
    const std::string p = payloadOf(src);

    std::string badValid = p;
    badValid[lineAt(3, 0)] = 2;
    Cache a = tinyCache();
    EXPECT_FALSE(loadInto(a, badValid));

    std::string tagFlip = p;
    tagFlip[lineAt(3, 1) + 1] = 0x5a;
    Cache b = tinyCache();
    ASSERT_TRUE(loadInto(b, tagFlip));
    EXPECT_TRUE(payloadOf(b) == tagFlip);

    // A planted valid line in set 3: resident after the load.
    std::string planted = p;
    planted[lineAt(3, 0)] = 1;
    const std::uint64_t tag = addrOf(3, 5) / 64;
    for (unsigned i = 0; i < 8; ++i)
        planted[lineAt(3, 0) + 1 + i] = static_cast<char>(tag >> (8 * i));
    Cache c = tinyCache();
    ASSERT_TRUE(loadInto(c, planted));
    EXPECT_TRUE(c.contains(addrOf(3, 5)));
    EXPECT_EQ(c.access(addrOf(3, 5)), 1u);
}

/** A payload cut inside a zero run fails, and stays failed. */
TEST(ZeroRun, TruncationInsideZeroRunFailsSticky)
{
    Cache src = tinyCache();
    src.access(addrOf(0, 1));
    const std::string p = payloadOf(src);
    for (std::size_t cut :
         {lineAt(4, 0), lineAt(4, 1) + 7, lineAt(7, 1) + 16}) {
        const std::string cutP = p.substr(0, cut);
        for (bool targetLive : {false, true}) {
            SCOPED_TRACE("cut " + std::to_string(cut) +
                         (targetLive ? " live target" : " fresh target"));
            Cache dst = tinyCache();
            if (targetLive)
                dst.access(addrOf(4, 2)), dst.access(addrOf(7, 3));
            ckpt::Reader r(cutP);
            dst.visit(r);
            EXPECT_FALSE(r.ok());
            std::uint8_t byte = 0;
            EXPECT_FALSE(r.u8(byte));
            EXPECT_FALSE(r.ok());
        }
    }
}

// ----- malformed payloads -------------------------------------------

TEST(MalformedPayload, ScenarioRunTrailingByteRejected)
{
    const ScenarioConfig cfg =
        goldenCorpusConfig(1, DeliveryStrategy::Tracked);
    ScenarioRun run(cfg);
    run.advance(20000);
    ckpt::Writer w;
    run.saveState(w);
    const std::string p = w.take();

    ScenarioRun ok(cfg);
    ckpt::Reader r(p);
    EXPECT_TRUE(ok.loadState(r));

    ScenarioRun bad(cfg);
    const std::string longer = p + '\0';
    ckpt::Reader rb(longer);
    EXPECT_FALSE(bad.loadState(rb));
}

TEST(MalformedPayload, InflatedCommitPcCountRejectedAtTheCount)
{
    // The commit-PC vector is the payload's last sequence: its count
    // sits before n 4-byte PCs and the 25-byte phase tail. A count
    // of 2^28 names 1 GiB of PCs; the bytes left cannot hold them,
    // so the load must stop at the count itself — before anything is
    // allocated — not at an underrun after a reserve.
    const ScenarioConfig cfg =
        goldenCorpusConfig(1, DeliveryStrategy::Flush);
    ScenarioRun run(cfg);
    run.advance(20000);
    ckpt::Writer w;
    run.saveState(w);
    std::string p = w.take();
    const std::uint64_t n = run.digest().programCommitCount();
    ASSERT_GT(n, 0u);
    const std::size_t tail = 25 + 4 * n;
    ASSERT_GT(p.size(), tail + 8);
    const std::size_t at = p.size() - tail - 8;
    ASSERT_EQ(readU64(p, at), n);

    ckpt::Writer big;
    big.u64(1ull << 28);
    p.replace(at, 8, big.data());
    ScenarioRun back(cfg);
    ckpt::Reader r(p);
    EXPECT_FALSE(back.loadState(r));
    EXPECT_EQ(r.remaining(), tail);
}

TEST(MalformedPayload, ChaosCheckpointTrailingByteRejected)
{
    chaos::CellConfig cc;
    cc.kind = chaos::ScenarioKind::CkptCrash;
    cc.seed = 5;
    cc.ckptEvery = 256;
    cc.eventBudget = 64000;
    cc.ckptPathBase = tmpPath("trailing.ckpt");
    cc.ckptKeepFiles = true;
    ASSERT_TRUE(chaos::runCell(cc).passed);
    ckpt::GenerationSet gens(cc.ckptPathBase);
    ckpt::Snapshot snap;
    ASSERT_EQ(gens.loadLatest(snap).status, ckpt::LoadStatus::Ok);
    gens.removeAll();

    // Re-sealed with a valid envelope, so only the payload decoder
    // can refuse it.
    snap.payload += '\0';
    const std::string path = tmpPath("trailing_one.ckpt");
    ASSERT_TRUE(ckpt::saveSnapshot(path, snap).ok);
    chaos::CellConfig rc = cc;
    rc.ckptPathBase.clear();
    rc.ckptKeepFiles = false;
    rc.restoreFrom = path;
    chaos::CellResult r = chaos::runCell(rc);
    std::filesystem::remove(path);
    EXPECT_FALSE(r.passed);
    ASSERT_FALSE(r.violations.empty());
    EXPECT_NE(r.violations.front().find("undecodable"),
              std::string::npos)
        << r.violations.front();
}

// ----- snapshot Reader mutation loop --------------------------------

/**
 * Seeded mutation loop over a core payload taken mid-delivery: the
 * ROB, the interrupt records and the preemption stack are non-empty.
 * Truncations and appended bytes must always be refused; count
 * fields inflated past the bytes left (or past a ring's capacity)
 * must be refused; single-byte flips and other inflations may load
 * or fail, but never crash, hang or trip ASan/UBSan.
 */
TEST(ReaderMutation, CorePayloadSurvivesSeededMutations)
{
    const Program prog = makePointerChase(30, 256ull << 10, false);
    CoreParams params;
    params.strategy = DeliveryStrategy::Tracked;
    params.mem.l2Size = 64 << 10;   // keep the payload (and each
    params.mem.llcSize = 256 << 10; // load) small
    params.predictorTableBits = 10;
    auto fresh = [&] {
        return std::make_unique<OooCore>(0, params, &prog, Rng(11));
    };

    // Periodic KB-timer handlers, plus a level-3 vector raised while
    // one is committed: stop inside the nested delivery.
    std::unique_ptr<OooCore> core = fresh();
    core->kbTimer().configure(true, 0x21);
    core->kbTimer().setTimer(0, 2000, KbTimerMode::Periodic);
    core->intrUnit().setVectorPriority(0x40, 3);
    Cycles lastRaise = 0;
    for (int step = 0; step < 20000; ++step) {
        core->runCycles(25);
        if (core->intrUnit().inNestedDelivery() &&
            core->robOccupancy() > 0 &&
            !core->stats().intrRecords.empty())
            break;
        if (core->intrUnit().state() == TrackerState::Committed &&
            core->now() - lastRaise > 1500) {
            core->intrUnit().raise(IntrSource::UserIpi, 0x40,
                                   core->now());
            lastRaise = core->now();
        }
    }
    ASSERT_TRUE(core->intrUnit().inNestedDelivery());
    ASSERT_GT(core->robOccupancy(), 0u);
    ckpt::Writer w;
    core->saveState(w);
    const std::string p = w.take();

    // A top-level load: the whole payload and nothing else.
    auto loads = [&](const std::string &bytes) {
        ckpt::Reader r(bytes);
        return fresh()->loadState(r) && r.atEnd();
    };
    ASSERT_TRUE(loads(p));

    // Count fields, located from the payload's end through the
    // public sizes of what follows each one (checked below, so a
    // format change fails here instead of mutating the wrong bytes).
    const CoreStats &st = core->stats();
    const std::size_t robEntry = MicroOp::kCkptBytes + 85;
    const std::size_t ffSpans =
        p.size() - 8 - st.ffSpans.size() * FfSpan::kCkptBytes;
    const std::size_t sends =
        ffSpans - 8 - st.sendRecords.size() * SendRecord::kCkptBytes;
    const std::size_t records =
        sends - 8 - st.intrRecords.size() * IntrRecord::kCkptBytes;
    const std::size_t frames =
        records - 19 * 8 - 50 - 4 -
        core->intrUnit().preemptDepth() * (IntrRecord::kCkptBytes + 5) -
        8;
    const std::size_t inbox = frames - 1 - IntrRecord::kCkptBytes - 8;
    const std::size_t execCount = inbox - 8 * prog.size() - 8;
    const std::size_t rob =
        execCount - core->robOccupancy() * robEntry - 8;
    const std::size_t fetch =
        rob - core->fetchBufferDepth() * robEntry - 8;
    struct CountField
    {
        std::size_t at;
        std::uint64_t value;
        std::uint64_t cap;
    };
    const CountField counts[] = {
        {fetch, core->fetchBufferDepth(), 48},
        {rob, core->robOccupancy(), params.robSize},
        {execCount, prog.size(), 0},
        {inbox, 0, 0},
        {frames, core->intrUnit().preemptDepth(), 0},
        {records, st.intrRecords.size(), 0},
        {sends, st.sendRecords.size(), 0},
        {ffSpans, st.ffSpans.size(), 0},
    };
    auto withU64 = [&](std::size_t at, std::uint64_t v) {
        std::string s = p;
        ckpt::Writer word;
        word.u64(v);
        s.replace(at, 8, word.data());
        return s;
    };
    for (const CountField &c : counts) {
        SCOPED_TRACE("count at " + std::to_string(c.at));
        ASSERT_EQ(readU64(p, c.at), c.value);
        for (std::uint64_t v : {1ull << 28, 1ull << 40, ~0ull})
            EXPECT_FALSE(loads(withU64(c.at, v)));
        if (c.cap != 0) {
            EXPECT_FALSE(loads(withU64(c.at, c.cap + 1)));
        }
        loads(withU64(c.at, c.value + 1));
        if (c.value != 0)
            loads(withU64(c.at, c.value - 1));
    }

    Rng rng(0x5eed);
    // Truncations: every cut must be refused.
    const std::size_t stride = p.size() / 1000 + 1;
    for (std::size_t len = 0; len < p.size(); len += stride)
        EXPECT_FALSE(loads(p.substr(0, len))) << "cut at " << len;
    for (std::size_t back = 1; back <= 64; ++back)
        EXPECT_FALSE(loads(p.substr(0, p.size() - back)))
            << "cut " << back << " from the end";

    // Appended bytes: refused at the top level.
    for (std::size_t extra : {1, 2, 8, 83}) {
        std::string s = p;
        for (std::size_t i = 0; i < extra; ++i)
            s += static_cast<char>(rng.next());
        EXPECT_FALSE(loads(s)) << extra << " appended";
    }

    // Single-byte flips, half of them in the tail past the caches
    // and predictor, where the sequences and enums live; and u64
    // inflations at arbitrary offsets. Either outcome is fine.
    const std::size_t tailFrom = fetch > 4096 ? fetch - 4096 : 0;
    for (int i = 0; i < 3000; ++i) {
        const std::size_t lo = i % 2 == 0 ? 0 : tailFrom;
        const std::size_t at = lo + rng.nextBounded(p.size() - lo);
        std::string s = p;
        s[at] = static_cast<char>(s[at] ^ (1 + rng.nextBounded(255)));
        loads(s);
    }
    for (int i = 0; i < 500; ++i) {
        const std::size_t at =
            tailFrom + rng.nextBounded(p.size() - 8 - tailFrom);
        loads(withU64(at, rng.next() >> rng.nextBounded(64)));
    }
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

// ----- pending-event snapshot --------------------------------------

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
 * A stuck cell reports its pending events, and the rollback-retry
 * driver can trip the budget over and over on the same wedged queue;
 * each snapshot must be bounded and sorted and leak nothing (this
 * test is what ASan chews on).
 */
TEST(PendingSnapshot, HundredTripsBoundedAndLeakFree)
{
    Simulation sim{1};
    EventQueue &q = sim.queue();
    std::function<void()> churn = [&] { q.scheduleAfter(1, churn); };
    q.scheduleAfter(1, churn);
    for (int i = 0; i < 64; ++i)
        q.scheduleAt(1'000'000 + i, [] {});

    for (int trip = 0; trip < 100; ++trip) {
        for (int e = 0; e < 50; ++e)
            ASSERT_TRUE(q.runOne()) << "trip " << trip;
        auto pending = q.pendingSnapshot(8);
        ASSERT_FALSE(pending.empty()) << "trip " << trip;
        EXPECT_LE(pending.size(), 8u);
        EXPECT_GE(q.pending(), 64u);
        for (std::size_t i = 1; i < pending.size(); ++i) {
            const auto &a = pending[i - 1];
            const auto &b = pending[i];
            EXPECT_TRUE(a.when < b.when ||
                        (a.when == b.when && a.seq < b.seq));
        }
    }
}

} // namespace
