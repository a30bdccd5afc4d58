/**
 * @file
 * Tests for the deterministic parallel sweep engine (src/exec):
 * ordered fan-out/reduce under artificially shuffled completion,
 * worker placement and joining, strict `--jobs` parsing, and
 * the engine's end-to-end contract on the verify corpus — summary,
 * rendered report, and merged metrics JSON bit-identical between
 * `--jobs 1` and `--jobs 8`, with the first reported divergence
 * always the lowest failing (program, seed) pair.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "exec/sweep.hh"
#include "verify/corpus.hh"

using namespace xui;

// ----------------------------------------------------------------------
// sweep / sweepReduce determinism contract
// ----------------------------------------------------------------------

TEST(Sweep, ResultsInJobIndexOrder)
{
    std::vector<int> r = exec::sweep(
        16, 4, [](std::size_t i) { return static_cast<int>(i * i); });
    ASSERT_EQ(r.size(), 16u);
    for (std::size_t i = 0; i < r.size(); ++i)
        EXPECT_EQ(r[i], static_cast<int>(i * i));
}

TEST(Sweep, ReduceOrderHoldsUnderShuffledCompletion)
{
    // Job i sleeps (n - i) * 25ms, so job 0 *finishes last* and
    // completion order is roughly the reverse of job order. The
    // reduction must still observe 0, 1, ..., n-1.
    const std::size_t n = 6;
    std::mutex mu;
    std::vector<std::size_t> completionOrder;
    std::vector<std::size_t> reduceOrder;
    exec::sweepReduce(
        n, static_cast<unsigned>(n),
        [&](std::size_t i) {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(25 * (n - i)));
            {
                std::lock_guard<std::mutex> lk(mu);
                completionOrder.push_back(i);
            }
            return i;
        },
        [&](std::size_t i, std::size_t v) {
            EXPECT_EQ(i, v);
            reduceOrder.push_back(i);
        });
    ASSERT_EQ(reduceOrder.size(), n);
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(reduceOrder[i], i)
            << "reduction left job-index order";
    // Sanity-check the shuffle actually happened: with reversed
    // sleeps, job 0 must not have completed first.
    ASSERT_EQ(completionOrder.size(), n);
    EXPECT_NE(completionOrder.front(), 0u)
        << "sleep ladder failed to shuffle completion order";
}

TEST(Sweep, SerialPathRunsInline)
{
    // jobs == 1 is the legacy path: everything on the calling
    // thread, run(i) immediately followed by reduce(i).
    const std::thread::id self = std::this_thread::get_id();
    std::vector<std::string> trace;
    exec::sweepReduce(
        3, 1,
        [&](std::size_t i) {
            EXPECT_EQ(std::this_thread::get_id(), self);
            trace.push_back("run" + std::to_string(i));
            return i;
        },
        [&](std::size_t i, std::size_t) {
            EXPECT_EQ(std::this_thread::get_id(), self);
            trace.push_back("red" + std::to_string(i));
        });
    EXPECT_EQ(trace,
              (std::vector<std::string>{"run0", "red0", "run1",
                                        "red1", "run2", "red2"}));
}

TEST(Sweep, ReduceRunsOnCallingThread)
{
    const std::thread::id self = std::this_thread::get_id();
    exec::sweepReduce(
        8, 4, [](std::size_t i) { return i; },
        [&](std::size_t, std::size_t) {
            EXPECT_EQ(std::this_thread::get_id(), self);
        });
}

TEST(Sweep, LowestIndexExceptionPropagates)
{
    // Jobs 2 and 5 both throw; job 5 finishes first (job 2 sleeps).
    // The caller must see job 2's exception — the lowest-indexed
    // failure, matching the serial path.
    try {
        exec::sweep(8, 4, [](std::size_t i) -> int {
            if (i == 2) {
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(100));
                throw std::runtime_error("boom 2");
            }
            if (i == 5)
                throw std::runtime_error("boom 5");
            return 0;
        });
        FAIL() << "expected an exception";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "boom 2");
    }
}

TEST(Sweep, RunsOffTheCallingThreadWhenParallel)
{
    const std::thread::id self = std::this_thread::get_id();
    std::vector<char> offThread = exec::sweep(
        8, 2, [self](std::size_t) -> char {
            return std::this_thread::get_id() != self;
        });
    for (char off : offThread)
        EXPECT_TRUE(off);
}

TEST(Sweep, ThrowingReduceJoinsWorkers)
{
    // A reduce that throws must not leave a worker running (that
    // would be std::terminate or a use-after-return): the exception
    // leaves only after every job has run.
    std::atomic<int> ran{0};
    try {
        exec::sweepReduce(
            64, 4,
            [&](std::size_t i) {
                std::this_thread::sleep_for(
                    std::chrono::microseconds(200));
                ran.fetch_add(1);
                return i;
            },
            [](std::size_t i, std::size_t) {
                if (i == 1)
                    throw std::runtime_error("reduce 1");
            });
        FAIL() << "expected an exception";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "reduce 1");
    }
    EXPECT_EQ(ran.load(), 64);
}

TEST(Sweep, SerialExceptionPropagates)
{
    EXPECT_THROW(exec::sweep(4, 1,
                             [](std::size_t i) -> int {
                                 if (i == 1)
                                     throw std::runtime_error("x");
                                 return 0;
                             }),
                 std::runtime_error);
}

TEST(Sweep, ZeroJobsIsEmpty)
{
    int reduced = 0;
    exec::sweepReduce(
        0, 8, [](std::size_t) { return 0; },
        [&](std::size_t, int) { ++reduced; });
    EXPECT_EQ(reduced, 0);
    EXPECT_TRUE(
        exec::sweep(0, 8, [](std::size_t) { return 0; }).empty());
}

TEST(Sweep, MoreJobsThanWorkIsFine)
{
    std::vector<std::size_t> r =
        exec::sweep(3, 64, [](std::size_t i) { return i; });
    EXPECT_EQ(r, (std::vector<std::size_t>{0, 1, 2}));
}

// ----------------------------------------------------------------------
// parseJobs / effectiveJobs
// ----------------------------------------------------------------------

TEST(ParseJobs, AcceptsPlainPositiveIntegers)
{
    unsigned jobs = 99;
    EXPECT_TRUE(exec::parseJobs("1", jobs));
    EXPECT_EQ(jobs, 1u);
    EXPECT_TRUE(exec::parseJobs("8", jobs));
    EXPECT_EQ(jobs, 8u);
    EXPECT_TRUE(exec::parseJobs("1024", jobs));
    EXPECT_EQ(jobs, 1024u);
}

TEST(ParseJobs, RejectsMalformedValues)
{
    unsigned jobs = 99;
    EXPECT_FALSE(exec::parseJobs("0", jobs));
    EXPECT_FALSE(exec::parseJobs("", jobs));
    EXPECT_FALSE(exec::parseJobs("-1", jobs));
    EXPECT_FALSE(exec::parseJobs("+4", jobs));
    EXPECT_FALSE(exec::parseJobs("4x", jobs));
    EXPECT_FALSE(exec::parseJobs("x4", jobs));
    EXPECT_FALSE(exec::parseJobs(" 4", jobs));
    EXPECT_FALSE(exec::parseJobs("1025", jobs));
    EXPECT_FALSE(exec::parseJobs("99999999999999999999", jobs));
    EXPECT_EQ(jobs, 99u) << "failed parse must not touch the out";
}

TEST(EffectiveJobs, AutoIsHardwareAndExplicitPassesThrough)
{
    EXPECT_GE(exec::hardwareJobs(), 1u);
    EXPECT_EQ(exec::effectiveJobs(0), exec::hardwareJobs());
    EXPECT_EQ(exec::effectiveJobs(1), 1u);
    EXPECT_EQ(exec::effectiveJobs(7), 7u);
}

// ----------------------------------------------------------------------
// Verify-corpus sweep: j1 vs j8 bit-identity and first-divergence
// ordering
// ----------------------------------------------------------------------

namespace
{

CorpusOptions
smallCorpus(unsigned jobs)
{
    CorpusOptions opt;
    opt.programs = 3;
    opt.seeds = 2;
    opt.insts = 2000;
    opt.jobs = jobs;
    return opt;
}

} // namespace

TEST(CorpusSweep, SerialAndParallelSummariesBitIdentical)
{
    CorpusSummary s1 = runVerifyCorpus(smallCorpus(1));
    CorpusSummary s8 = runVerifyCorpus(smallCorpus(8));

    EXPECT_EQ(s1.runs, s8.runs);
    EXPECT_EQ(s1.determinismFails, s8.determinismFails);
    EXPECT_EQ(s1.differentialFails, s8.differentialFails);
    EXPECT_EQ(s1.crossSeedFails, s8.crossSeedFails);
    EXPECT_EQ(s1.failures, s8.failures);
    // Floating-point accumulators must match to the last bit: the
    // reduction adds them in job-index order on one thread.
    EXPECT_EQ(s1.flushLat, s8.flushLat);
    EXPECT_EQ(s1.drainLat, s8.drainLat);
    EXPECT_EQ(s1.trackedLat, s8.trackedLat);
    EXPECT_EQ(s1.latSamples, s8.latSamples);

    // The rendered CLI report and the merged metrics snapshot are
    // byte-identical too.
    EXPECT_EQ(renderCorpusSummary(smallCorpus(1), s1),
              renderCorpusSummary(smallCorpus(8), s8));
    EXPECT_EQ(corpusMetricsJson(s1), corpusMetricsJson(s8));
}

TEST(CorpusSweep, FirstDivergenceIsLowestPairUnderSharding)
{
    // Inject failures at (program 1000, seed 2) and (program 1002,
    // seed 1), and delay low-indexed jobs so high-indexed ones
    // complete first. The failure list must still lead with the
    // lowest (program, seed) pair, exactly as the serial sweep
    // reports it.
    CorpusOptions opt = smallCorpus(8);
    auto runner = [&](const ScenarioConfig &cfg) {
        const std::uint64_t p = cfg.programSeed - 1000;
        const std::uint64_t s = cfg.systemSeed - 1;
        const std::size_t idx =
            static_cast<std::size_t>(p * opt.seeds + s);
        // Reversed sleep ladder: job 0 completes last.
        std::this_thread::sleep_for(std::chrono::milliseconds(
            10 * (opt.programs * opt.seeds - idx)));
        CorpusPairOutcome o;
        o.det.ok = true;
        if ((p == 0 && s == 1) || (p == 2 && s == 0)) {
            o.det.ok = false;
            o.det.message = "injected divergence";
        }
        // Non-zero deliveries keep the latency accumulators on
        // their normal path, and an identical-per-program commit
        // stream keeps the cross-seed equivalence check green.
        o.diff.flush.delivered = 1;
        o.diff.drain.delivered = 1;
        o.diff.tracked.delivered = 1;
        o.diff.tracked.mainPcs.assign(
            1000, static_cast<std::uint32_t>(p));
        return o;
    };

    CorpusSummary sum = runVerifyCorpus(opt, runner);
    EXPECT_EQ(sum.determinismFails, 2u);
    ASSERT_EQ(sum.failures.size(), 2u);
    EXPECT_EQ(sum.failures[0],
              "program 1000 seed 2: injected divergence")
        << "first divergence must be the lowest (program, seed)";
    EXPECT_EQ(sum.failures[1],
              "program 1002 seed 1: injected divergence");

    // And the shuffle must not perturb anything else either: the
    // serial sweep with the same runner agrees entirely.
    CorpusOptions serial = opt;
    serial.jobs = 1;
    CorpusSummary ref = runVerifyCorpus(serial, runner);
    EXPECT_EQ(ref.failures, sum.failures);
    EXPECT_EQ(renderCorpusSummary(serial, ref),
              renderCorpusSummary(opt, sum));
}
