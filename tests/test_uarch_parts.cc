/**
 * @file
 * Tests for the cycle-tier building blocks: the set-associative
 * cache hierarchy (and a differential test of its lazily initialised
 * tag store against a dense reference model), the gshare predictor,
 * program building, the MSROM microcode shapes, and the
 * tracked-interrupt FSM.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <string>
#include <vector>

#include "ckpt/codec.hh"
#include "stats/rng.hh"
#include "uarch/branch_predictor.hh"
#include "uarch/cache.hh"
#include "uarch/interrupt_unit.hh"
#include "uarch/mcrom.hh"
#include "uarch/program.hh"
#include "workloads/kernels.hh"

using namespace xui;

// ----------------------------------------------------------------------
// Cache
// ----------------------------------------------------------------------

TEST(Cache, MissThenHit)
{
    Cache c(1024, 2, 64, 3, nullptr, 100);
    EXPECT_EQ(c.access(0x1000), 103u);  // cold miss
    EXPECT_EQ(c.access(0x1000), 3u);    // hit
    EXPECT_EQ(c.access(0x1008), 3u);    // same line
    EXPECT_EQ(c.hits(), 2u);
    EXPECT_EQ(c.misses(), 1u);
}

TEST(Cache, LruEvictionWithinSet)
{
    // 2-way, 8 sets of 64B lines: addresses 0, 512, 1024 map to
    // set 0 (stride = numSets * line = 512).
    Cache c(1024, 2, 64, 1, nullptr, 50);
    c.access(0);
    c.access(512);
    EXPECT_TRUE(c.contains(0));
    EXPECT_TRUE(c.contains(512));
    c.access(1024);  // evicts LRU (0)
    EXPECT_FALSE(c.contains(0));
    EXPECT_TRUE(c.contains(512));
    EXPECT_TRUE(c.contains(1024));
}

TEST(Cache, LruUpdatedOnHit)
{
    Cache c(1024, 2, 64, 1, nullptr, 50);
    c.access(0);
    c.access(512);
    c.access(0);     // 0 becomes MRU
    c.access(1024);  // evicts 512
    EXPECT_TRUE(c.contains(0));
    EXPECT_FALSE(c.contains(512));
}

TEST(Cache, InvalidateRemovesLine)
{
    Cache c(1024, 2, 64, 1, nullptr, 50);
    c.access(0x40);
    EXPECT_TRUE(c.contains(0x40));
    c.invalidate(0x40);
    EXPECT_FALSE(c.contains(0x40));
}

TEST(Cache, FlushAll)
{
    Cache c(1024, 2, 64, 1, nullptr, 50);
    for (std::uint64_t a = 0; a < 1024; a += 64)
        c.access(a);
    c.flushAll();
    for (std::uint64_t a = 0; a < 1024; a += 64)
        EXPECT_FALSE(c.contains(a));
}

TEST(Cache, HierarchyLatenciesCompose)
{
    MemHierarchyParams p;
    MemHierarchy m(p);
    unsigned cold = m.access(0x100000);
    // Cold miss traverses L1 + L2 + LLC + memory.
    EXPECT_EQ(cold, p.l1Latency + p.l2Latency + p.llcLatency +
                        p.memLatency);
    EXPECT_EQ(m.access(0x100000), p.l1Latency);
}

TEST(Cache, WorkingSetLargerThanL1Misses)
{
    MemHierarchyParams p;
    MemHierarchy m(p);
    // Stream a 1 MB working set twice; second pass should miss L1
    // (32 KB) but hit L2 (2 MB).
    const std::uint64_t ws = 1 << 20;
    for (std::uint64_t a = 0; a < ws; a += 64)
        m.access(a);
    std::uint64_t l1_hits_before = m.l1().hits();
    unsigned lat = m.access(0);
    EXPECT_EQ(lat, p.l1Latency + p.l2Latency);
    EXPECT_EQ(m.l1().hits(), l1_hits_before);
}

TEST(Cache, RemoteAccessCostsLlcTransfer)
{
    MemHierarchyParams p;
    MemHierarchy m(p);
    m.access(0x5000);  // line is local now
    unsigned remote = m.remoteAccess(0x5000);
    // Remote sourcing must cost far more than an L1 hit and at
    // least an LLC round-trip.
    EXPECT_GE(remote, p.llcLatency);
    EXPECT_GT(remote, p.l1Latency + p.l2Latency);
}

// ----------------------------------------------------------------------
// Cache vs a dense reference tag store
// ----------------------------------------------------------------------

namespace
{

/**
 * The tag store Cache had before it became lazy: every line
 * value-initialised at construction, flushAll walking every line.
 * Same replacement policy and the same checkpoint encoding, so the two
 * must agree on every latency, counter and payload byte.
 */
class DenseCache
{
  public:
    DenseCache(std::uint64_t size, unsigned assoc, unsigned lineBytes,
               unsigned hitLatency, DenseCache *next,
               unsigned missLatency = 0)
        : assoc_(assoc),
          lineShift_(static_cast<unsigned>(std::countr_zero(lineBytes))),
          numSets_(size / (std::uint64_t{assoc} * lineBytes)),
          hitLatency_(hitLatency),
          missLatency_(missLatency),
          next_(next),
          lines_(numSets_ * assoc)
    {}

    unsigned access(std::uint64_t addr)
    {
        Line *base = setOf(addr);
        const std::uint64_t tag = addr >> lineShift_;
        Line *victim = base;
        for (unsigned w = 0; w < assoc_; ++w) {
            Line &l = base[w];
            if (l.valid && l.tag == tag) {
                l.lruStamp = ++stamp_;
                ++hits_;
                return hitLatency_;
            }
            if (!l.valid)
                victim = &l;
            else if (victim->valid && l.lruStamp < victim->lruStamp)
                victim = &l;
        }
        ++misses_;
        const unsigned below = next_ ? next_->access(addr) : missLatency_;
        *victim = Line{true, tag, ++stamp_};
        return hitLatency_ + below;
    }

    bool contains(std::uint64_t addr)
    {
        const Line *base = setOf(addr);
        for (unsigned w = 0; w < assoc_; ++w)
            if (base[w].valid && base[w].tag == addr >> lineShift_)
                return true;
        return false;
    }

    void invalidate(std::uint64_t addr)
    {
        Line *base = setOf(addr);
        for (unsigned w = 0; w < assoc_; ++w)
            if (base[w].valid && base[w].tag == addr >> lineShift_)
                base[w].valid = false;
    }

    void flushAll()
    {
        for (Line &l : lines_)
            l.valid = false;
    }

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }

    /** Cache::visit's encoding, written out line by line. */
    std::string save() const
    {
        ckpt::Writer w;
        w.expect(std::uint64_t{lines_.size()});
        for (const Line &l : lines_) {
            w.b(l.valid);
            w.u64(l.tag);
            w.u64(l.lruStamp);
        }
        w.u64(stamp_);
        w.u64(hits_);
        w.u64(misses_);
        return w.take();
    }

  private:
    struct Line
    {
        bool valid = false;
        std::uint64_t tag = 0;
        std::uint64_t lruStamp = 0;
    };

    Line *setOf(std::uint64_t addr)
    {
        return &lines_[((addr >> lineShift_) & (numSets_ - 1)) * assoc_];
    }

    unsigned assoc_;
    unsigned lineShift_;
    std::uint64_t numSets_;
    unsigned hitLatency_;
    unsigned missLatency_;
    DenseCache *next_;
    std::vector<Line> lines_;
    std::uint64_t stamp_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
};

struct CacheShape
{
    const char *name;
    std::uint64_t size;
    unsigned assoc;
    unsigned rounds;    ///< caches built in a row, one after another
    unsigned snapshots; ///< payload comparisons per round
};

std::string
payloadOf(Cache &c)
{
    ckpt::Writer w;
    c.visit(w);
    return w.take();
}

/**
 * Addresses that collide: a few dozen hot sets, each with a pool of
 * tags larger than the associativity (hits, LRU evictions,
 * invalidations of resident lines), plus a random address now and
 * then (cold sets).
 */
class ConflictAddrs
{
  public:
    ConflictAddrs(Rng &rng, std::uint64_t numSets, unsigned assoc)
        : rng_(rng), numSets_(numSets)
    {
        for (int i = 0; i < 48; ++i)
            sets_.push_back(rng.nextBounded(numSets));
        for (unsigned i = 0; i < 3 * assoc; ++i)
            tags_.push_back(rng.nextBounded(1u << 20));
    }

    std::uint64_t next()
    {
        if (rng_.nextBounded(5) == 0)
            return rng_.nextBounded(1ull << 40);
        const std::uint64_t line =
            tags_[rng_.nextBounded(tags_.size())] * numSets_ +
            sets_[rng_.nextBounded(sets_.size())];
        return (line << 6) | rng_.nextBounded(64);
    }

  private:
    Rng &rng_;
    std::uint64_t numSets_;
    std::vector<std::uint64_t> sets_;
    std::vector<std::uint64_t> tags_;
};

} // namespace

/**
 * Seeded access/contains/invalidate/flushAll sequences on L1-, L2-,
 * LLC-shaped and tiny geometries: the lazy Cache and the dense model
 * must return the same latencies and probes, count the same hits and
 * misses, and write the same payload bytes. Caches of one shape are
 * built one after another in this process, so each new tag store can
 * sit in recycled heap storage that still holds the previous one's
 * valid lines: a set that is not zeroed on first touch shows up as a
 * stale hit or stale payload bytes. At every other comparison point
 * the cache under test is replaced by a fresh one loaded from its
 * payload, so the Reader's zero-run skip and set decoding are driven
 * the same way.
 */
TEST(Cache, LazyTagStoreMatchesDenseModel)
{
    const CacheShape kShapes[] = {
        {"direct-mapped", 256, 1, 8, 24},
        {"tiny", 1024, 2, 8, 24},
        {"l1", 32 << 10, 8, 6, 16},
        {"l2", 2 << 20, 16, 4, 6},
        {"llc", 32 << 20, 16, 3, 2},
        {"64-way", 256 << 10, 64, 4, 8},
    };
    constexpr unsigned kHit = 5, kMiss = 90, kOps = 20000;
    for (const CacheShape &shape : kShapes) {
        const std::uint64_t numSets = shape.size / (shape.assoc * 64);
        for (unsigned round = 0; round < shape.rounds; ++round) {
            SCOPED_TRACE(std::string(shape.name) + " round " +
                         std::to_string(round));
            Rng rng(0xcace + 131 * round + shape.size);
            auto lazy = std::make_unique<Cache>(shape.size, shape.assoc,
                                                64, kHit, nullptr, kMiss);
            DenseCache dense(shape.size, shape.assoc, 64, kHit, nullptr,
                             kMiss);
            ConflictAddrs addrs(rng, numSets, shape.assoc);
            std::vector<bool> compareAt(kOps, false);
            for (unsigned i = 0; i < shape.snapshots; ++i)
                compareAt[rng.nextBounded(kOps)] = true;
            unsigned compared = 0;
            for (unsigned op = 0; op < kOps; ++op) {
                const std::uint64_t a = addrs.next();
                const std::uint64_t kind = rng.nextBounded(1000);
                if (kind < 800)
                    ASSERT_EQ(lazy->access(a), dense.access(a)) << op;
                else if (kind < 900)
                    ASSERT_EQ(lazy->contains(a), dense.contains(a)) << op;
                else if (kind < 997)
                    lazy->invalidate(a), dense.invalidate(a);
                else
                    lazy->flushAll(), dense.flushAll();
                if (!compareAt[op])
                    continue;
                const std::string bytes = payloadOf(*lazy);
                ASSERT_TRUE(bytes == dense.save()) << "payload at " << op;
                if (++compared % 2 == 0) {
                    auto back = std::make_unique<Cache>(
                        shape.size, shape.assoc, 64, kHit, nullptr, kMiss);
                    ckpt::Reader r(bytes);
                    back->visit(r);
                    ASSERT_TRUE(r.ok() && r.atEnd());
                    ASSERT_TRUE(payloadOf(*back) == bytes);
                    lazy = std::move(back);
                }
            }
            EXPECT_EQ(lazy->hits(), dense.hits());
            EXPECT_EQ(lazy->misses(), dense.misses());
            EXPECT_GT(lazy->hits(), 0u);
            EXPECT_TRUE(payloadOf(*lazy) == dense.save());
        }
    }
}

/** The same agreement through a two-level chain (next-level path). */
TEST(Cache, LazyChainMatchesDenseChain)
{
    for (unsigned round = 0; round < 6; ++round) {
        Rng rng(0xc4a1 + round);
        Cache l2(8 << 10, 4, 64, 12, nullptr, 150);
        Cache l1(1 << 10, 2, 64, 3, &l2);
        DenseCache d2(8 << 10, 4, 64, 12, nullptr, 150);
        DenseCache d1(1 << 10, 2, 64, 3, &d2);
        ConflictAddrs addrs(rng, 32, 4);
        for (unsigned op = 0; op < 20000; ++op) {
            const std::uint64_t a = addrs.next();
            if (rng.nextBounded(10) == 0)
                l2.invalidate(a), d2.invalidate(a);
            ASSERT_EQ(l1.access(a), d1.access(a)) << op;
        }
        EXPECT_EQ(l1.hits(), d1.hits());
        EXPECT_EQ(l2.hits(), d2.hits());
        EXPECT_EQ(l2.misses(), d2.misses());
        EXPECT_TRUE(payloadOf(l1) == d1.save());
        EXPECT_TRUE(payloadOf(l2) == d2.save());
    }
}

/**
 * Victim choice, way by way, in one four-way set: a miss fills the
 * highest-numbered invalid way; an invalid way keeps its tag and
 * stamp, and a stale copy of the accessed tag there is not a hit;
 * with every way valid the least recently used way goes.
 */
TEST(Cache, VictimIsHighestInvalidWayElseLru)
{
    constexpr unsigned kHit = 5, kMiss = 90;
    Cache c(4 * 64, 4, 64, kHit, nullptr, kMiss);
    struct Way
    {
        bool valid;
        std::uint64_t tag;
        std::uint64_t stamp;
    };
    auto payload = [](std::initializer_list<Way> ways, std::uint64_t stamp,
                      std::uint64_t hits, std::uint64_t misses) {
        ckpt::Writer w;
        w.expect(std::uint64_t{ways.size()});
        for (const Way &way : ways) {
            w.b(way.valid);
            w.u64(way.tag);
            w.u64(way.stamp);
        }
        w.u64(stamp);
        w.u64(hits);
        w.u64(misses);
        return w.take();
    };
    // One set, so the line number is the tag.
    auto at = [](std::uint64_t tag) { return tag << 6; };

    for (std::uint64_t tag : {10, 11, 12, 13})
        EXPECT_EQ(c.access(at(tag)), kHit + kMiss);
    EXPECT_TRUE(payloadOf(c) == payload({{true, 13, 4}, {true, 12, 3},
                                         {true, 11, 2}, {true, 10, 1}},
                                        4, 0, 4));

    EXPECT_EQ(c.access(at(11)), kHit);
    EXPECT_EQ(c.access(at(14)), kHit + kMiss); // evicts 10, way 3
    EXPECT_TRUE(payloadOf(c) == payload({{true, 13, 4}, {true, 12, 3},
                                         {true, 11, 5}, {true, 14, 6}},
                                        6, 1, 5));

    c.invalidate(at(13));
    c.invalidate(at(11));
    EXPECT_FALSE(c.contains(at(13)));
    EXPECT_EQ(c.access(at(13)), kHit + kMiss); // way 2, not stale way 0
    EXPECT_TRUE(payloadOf(c) == payload({{false, 13, 4}, {true, 12, 3},
                                         {true, 13, 7}, {true, 14, 6}},
                                        7, 1, 6));
    EXPECT_EQ(c.access(at(15)), kHit + kMiss); // way 0 over LRU way 1
    EXPECT_TRUE(payloadOf(c) == payload({{true, 15, 8}, {true, 12, 3},
                                         {true, 13, 7}, {true, 14, 6}},
                                        8, 1, 7));

    c.flushAll();
    EXPECT_FALSE(c.contains(at(12)));
    EXPECT_TRUE(payloadOf(c) == payload({{false, 15, 8}, {false, 12, 3},
                                         {false, 13, 7}, {false, 14, 6}},
                                        8, 1, 7));
    EXPECT_EQ(c.access(at(12)), kHit + kMiss); // way 3, not stale way 1
    EXPECT_EQ(c.access(at(16)), kHit + kMiss); // way 2
    EXPECT_EQ(c.access(at(12)), kHit);
    EXPECT_TRUE(payloadOf(c) == payload({{false, 15, 8}, {false, 12, 3},
                                         {true, 16, 10}, {true, 12, 11}},
                                        11, 2, 9));
}

// ----------------------------------------------------------------------
// Branch predictor
// ----------------------------------------------------------------------

TEST(Predictor, LearnsAlwaysTaken)
{
    // Gshare indexes by pc ^ history, so training must continue
    // until the all-taken history saturates and the steady-state
    // index accumulates strength.
    BranchPredictor bp(10, 8);
    for (int i = 0; i < 20; ++i)
        bp.update(0x40, true, bp.predict(0x40));
    EXPECT_TRUE(bp.predict(0x40));
}

TEST(Predictor, LearnsNotTaken)
{
    BranchPredictor bp(10, 8);
    for (int i = 0; i < 8; ++i)
        bp.update(0x40, false, bp.predict(0x40));
    EXPECT_FALSE(bp.predict(0x40));
}

TEST(Predictor, CountsMispredicts)
{
    BranchPredictor bp(10, 8);
    // Train taken until history saturates, then flip.
    for (int i = 0; i < 20; ++i)
        bp.update(0x10, true, bp.predict(0x10));
    std::uint64_t before = bp.mispredicts();
    bool pred = bp.predict(0x10);
    bp.update(0x10, false, pred);
    EXPECT_EQ(bp.mispredicts(), before + 1);
}

TEST(Predictor, HistoryRestore)
{
    BranchPredictor bp(10, 8);
    std::uint64_t h0 = bp.history();
    bp.update(1, true, true);
    bp.update(2, true, true);
    EXPECT_NE(bp.history(), h0);
    bp.restoreHistory(h0);
    EXPECT_EQ(bp.history(), h0);
}

TEST(Predictor, LoopPatternAccuracy)
{
    // 8-iteration loop: with history the exit becomes predictable;
    // accuracy must be well above 50%.
    BranchPredictor bp(12, 10);
    std::uint64_t wrong = 0, total = 0;
    for (int trip = 0; trip < 2000; ++trip) {
        for (int i = 0; i < 8; ++i) {
            bool taken = i != 7;
            bool pred = bp.predict(0x99);
            wrong += bp.update(0x99, taken, pred);
            ++total;
        }
    }
    double acc = 1.0 - static_cast<double>(wrong) /
        static_cast<double>(total);
    EXPECT_GT(acc, 0.8);
}

// ----------------------------------------------------------------------
// Program builder and workload kernels
// ----------------------------------------------------------------------

TEST(Program, BuilderBasics)
{
    ProgramBuilder b("t");
    std::uint32_t pc0 = b.intAlu(1, 1);
    std::uint32_t pc1 = b.jump(pc0);
    b.beginHandler();
    std::uint32_t pc2 = b.uiret();
    Program p = b.build();
    EXPECT_EQ(p.size(), 3u);
    EXPECT_EQ(pc1, 1u);
    EXPECT_EQ(p.handlerEntry(), pc2);
    EXPECT_EQ(p.at(1).opcode, MacroOpcode::Branch);
    EXPECT_EQ(p.at(1).branch.kind, BranchKind::Always);
}

TEST(Program, MarkSafepoint)
{
    ProgramBuilder b("t");
    b.intAlu(1, 1);
    b.markSafepoint();
    Program p = b.build();
    EXPECT_TRUE(p.at(0).isSafepoint);
}

TEST(Workloads, AllKernelsHaveHandlers)
{
    for (const Program &p :
         {makeFib(), makeLinpack(), makeMemops(), makeMatmul(),
          makeBase64(), makeSpinLoop(),
          makePointerChase(8, 1 << 20, true)}) {
        EXPECT_NE(p.handlerEntry(), Program::kNoHandler)
            << p.name();
        EXPECT_GT(p.size(), 2u);
        // Handler ends with uiret.
        bool found_uiret = false;
        for (std::uint32_t pc = p.handlerEntry(); pc < p.size();
             ++pc)
            found_uiret |= p.at(pc).opcode == MacroOpcode::Uiret;
        EXPECT_TRUE(found_uiret) << p.name();
    }
}

TEST(Workloads, SafepointInstrumentationMarksBackEdge)
{
    KernelOptions opts;
    opts.instr = Instrumentation::Safepoint;
    Program p = makeFib(opts);
    bool any_safepoint = false;
    for (std::uint32_t pc = 0; pc < p.size(); ++pc)
        any_safepoint |= p.at(pc).isSafepoint;
    EXPECT_TRUE(any_safepoint);
}

TEST(Workloads, PollingInstrumentationAddsLoadAndBranch)
{
    Program plain = makeFib();
    KernelOptions opts;
    opts.instr = Instrumentation::Polling;
    Program polled = makeFib(opts);
    EXPECT_GT(polled.size(), plain.size());
}

TEST(Workloads, PointerChaseChainsRegisters)
{
    Program p = makePointerChase(4, 1 << 16, true);
    // First four ops are loads with dest == src (the chain).
    for (std::uint32_t pc = 0; pc < 4; ++pc) {
        EXPECT_EQ(p.at(pc).opcode, MacroOpcode::Load);
        EXPECT_EQ(p.at(pc).dest, p.at(pc).src1);
    }
    // Then the SP feed (§6.1).
    EXPECT_EQ(p.at(4).dest, reg::kSp);
}

// ----------------------------------------------------------------------
// MSROM shapes
// ----------------------------------------------------------------------

TEST(Mcrom, SenduipiHas57Uops)
{
    Mcrom m;
    EXPECT_EQ(m.senduipi().size(), 57u);  // paper §3.5
    // Ends with the serializing ICR write.
    const MicroOp &last = m.senduipi().back();
    EXPECT_EQ(last.cls, OpClass::SerializeMsr);
    EXPECT_EQ(last.effect, McodeEffect::WriteIcr);
    EXPECT_TRUE(last.eom);
}

TEST(Mcrom, NotifyReadsUpidRemotely)
{
    Mcrom m;
    const auto &notify = m.notify();
    EXPECT_EQ(notify.front().cls, OpClass::MemRead);
    EXPECT_EQ(notify.front().mem, MemMode::Remote);
    for (const auto &u : notify)
        EXPECT_TRUE(u.fromIntrPath);
}

TEST(Mcrom, DeliveryReadsStackPointer)
{
    Mcrom m;
    bool sp_read = false;
    for (const auto &u : m.delivery())
        sp_read |= u.src1 == reg::kSp;
    EXPECT_TRUE(sp_read);  // the §6.1 pathological dependence
    EXPECT_EQ(m.delivery().back().effect,
              McodeEffect::JumpHandler);
}

TEST(Mcrom, UiretEndsWithReturn)
{
    Mcrom m;
    EXPECT_EQ(m.uiret().back().effect,
              McodeEffect::ReturnFromHandler);
    // No uiret micro-op touches the UPID.
    for (const auto &u : m.uiret())
        EXPECT_NE(u.mem, MemMode::Remote);
}

TEST(Mcrom, CluiStuiCosts)
{
    McodeParams p;
    Mcrom m(p);
    EXPECT_EQ(m.clui().front().fixedLatency, p.cluiLatency);
    EXPECT_EQ(m.stui().front().fixedLatency, p.stuiLatency);
}

// ----------------------------------------------------------------------
// Tracked-interrupt FSM (paper Fig. 3)
// ----------------------------------------------------------------------

TEST(TrackerFsm, AcceptRequiresUifAndIdle)
{
    InterruptUnit u;
    EXPECT_FALSE(u.canAccept());
    u.raise(IntrSource::KbTimer, 0x21, 5);
    EXPECT_TRUE(u.canAccept());
    u.setUif(false);
    EXPECT_FALSE(u.canAccept());
    u.setUif(true);
    u.accept();
    EXPECT_EQ(u.state(), TrackerState::Pending);
    u.raise(IntrSource::KbTimer, 0x21, 6);
    EXPECT_FALSE(u.canAccept());  // busy
}

TEST(TrackerFsm, InjectionLifecycle)
{
    InterruptUnit u;
    u.raise(IntrSource::UserIpi, 0xec, 1);
    u.accept();
    EXPECT_TRUE(u.shouldInject(false, false));
    u.onInjected();
    EXPECT_EQ(u.state(), TrackerState::Injected);
    u.onFirstIntrCommit();
    EXPECT_EQ(u.state(), TrackerState::Committed);
    u.onHandlerReturn();
    EXPECT_EQ(u.state(), TrackerState::Idle);
}

TEST(TrackerFsm, SquashBeforeCommitReinjects)
{
    InterruptUnit u;
    u.raise(IntrSource::UserIpi, 0xec, 1);
    u.accept();
    u.onInjected();
    // Squash killed interrupt-path micro-ops before first commit.
    EXPECT_TRUE(u.onSquash(true));
    EXPECT_EQ(u.state(), TrackerState::Pending);
    // Re-inject at the recovery PC.
    EXPECT_TRUE(u.shouldInject(false, false));
}

TEST(TrackerFsm, SquashAfterCommitNoReinject)
{
    InterruptUnit u;
    u.raise(IntrSource::UserIpi, 0xec, 1);
    u.accept();
    u.onInjected();
    u.onFirstIntrCommit();
    EXPECT_FALSE(u.onSquash(true));
    EXPECT_EQ(u.state(), TrackerState::Committed);
}

TEST(TrackerFsm, SquashNotKillingIntrNoReinject)
{
    InterruptUnit u;
    u.raise(IntrSource::UserIpi, 0xec, 1);
    u.accept();
    u.onInjected();
    EXPECT_FALSE(u.onSquash(false));
    EXPECT_EQ(u.state(), TrackerState::Injected);
}

TEST(TrackerFsm, SafepointModeGatesInjection)
{
    InterruptUnit u;
    u.raise(IntrSource::KbTimer, 0x21, 1);
    u.accept();
    // Safepoint mode on, not at a safepoint: wait.
    EXPECT_FALSE(u.shouldInject(false, true));
    // At a safepoint: go.
    EXPECT_TRUE(u.shouldInject(true, true));
    // Safepoint mode off: any boundary works.
    EXPECT_TRUE(u.shouldInject(false, false));
}

TEST(TrackerFsm, PendingQueueFifo)
{
    InterruptUnit u;
    u.raise(IntrSource::UserIpi, 1, 1);
    u.raise(IntrSource::KbTimer, 2, 2);
    PendingIntr first = u.accept();
    EXPECT_EQ(first.source, IntrSource::UserIpi);
    u.onInjected();
    u.onFirstIntrCommit();
    u.onHandlerReturn();
    PendingIntr second = u.accept();
    EXPECT_EQ(second.source, IntrSource::KbTimer);
}
