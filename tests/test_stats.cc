/**
 * @file
 * Unit and property tests for the stats module: RNG, distributions,
 * histogram percentiles (against a sorted-vector oracle), summary
 * statistics, the table/CSV writers, and the FNV-1a digest's word
 * and byte-range folds (against a byte-serial oracle).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <vector>

#include "stats/csv.hh"
#include "stats/digest.hh"
#include "stats/distributions.hh"
#include "stats/histogram.hh"
#include "stats/rng.hh"
#include "stats/summary.hh"
#include "stats/table.hh"

using namespace xui;

// ----------------------------------------------------------------------
// Rng
// ----------------------------------------------------------------------

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 4);
}

TEST(Rng, NextDoubleInUnitInterval)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        double v = rng.nextDouble();
        EXPECT_GE(v, 0.0);
        EXPECT_LT(v, 1.0);
    }
}

TEST(Rng, NextDoubleMeanNearHalf)
{
    Rng rng(9);
    double sum = 0.0;
    const int n = 200000;
    for (int i = 0; i < n; ++i)
        sum += rng.nextDouble();
    EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, BoundedRespectsBound)
{
    Rng rng(3);
    for (std::uint64_t bound : {1ull, 2ull, 7ull, 1000ull,
                                (1ull << 33)}) {
        for (int i = 0; i < 1000; ++i)
            EXPECT_LT(rng.nextBounded(bound), bound);
    }
}

TEST(Rng, BoundedZeroReturnsZero)
{
    Rng rng(3);
    EXPECT_EQ(rng.nextBounded(0), 0u);
}

namespace
{

/**
 * Lemire's bounded draw as first written here: the rejection
 * threshold by a 64-bit division on every call. `draws` counts the
 * next() calls consumed.
 */
std::uint64_t
referenceBounded(Rng &rng, std::uint64_t bound, std::uint64_t &draws)
{
    if (bound == 0)
        return 0;
    std::uint64_t threshold = (-bound) % bound;
    while (true) {
        std::uint64_t r = rng.next();
        ++draws;
        unsigned __int128 m =
            static_cast<unsigned __int128>(r) * bound;
        if (static_cast<std::uint64_t>(m) >= threshold)
            return static_cast<std::uint64_t>(m >> 64);
    }
}

} // namespace

TEST(Rng, NextBoundedMatchesRejectionReference)
{
    // Value for value and draw for draw: every seeded stream in the
    // simulators (addresses, arrivals, branch outcomes) depends on
    // both.
    Rng fast(0x5eed), ref(0x5eed);
    const std::uint64_t bounds[] = {
        1, 2, 3, 7, 64, 1000, (1ull << 32) + 1, (1ull << 63) + 1,
        ~0ull};
    for (std::uint64_t bound : bounds) {
        std::uint64_t draws = 0;
        for (int i = 0; i < 10000; ++i)
            ASSERT_EQ(fast.nextBounded(bound),
                      referenceBounded(ref, bound, draws))
                << "bound " << bound << " draw " << i;
        // Same number of draws consumed: the streams stay aligned.
        ASSERT_EQ(fast.next(), ref.next()) << "bound " << bound;
        // 2^63 + 1 rejects about half of all draws, so the
        // threshold path really runs.
        if (bound == (1ull << 63) + 1) {
            EXPECT_GT(draws, 15000u);
        }
    }
    // Bound 0 returns 0 and draws nothing.
    EXPECT_EQ(fast.nextBounded(0), 0u);
    EXPECT_EQ(fast.next(), ref.next());
}

TEST(Rng, BoundedUniformity)
{
    Rng rng(17);
    const std::uint64_t buckets = 8;
    std::vector<int> counts(buckets, 0);
    const int n = 80000;
    for (int i = 0; i < n; ++i)
        ++counts[rng.nextBounded(buckets)];
    for (auto c : counts)
        EXPECT_NEAR(c, n / static_cast<int>(buckets),
                    n / static_cast<int>(buckets) / 5);
}

TEST(Rng, RangeInclusive)
{
    Rng rng(5);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 5000; ++i) {
        auto v = rng.nextRange(-3, 3);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 3);
        saw_lo |= v == -3;
        saw_hi |= v == 3;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, BoolProbability)
{
    Rng rng(11);
    int hits = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        hits += rng.nextBool(0.25);
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.25, 0.01);
}

TEST(Rng, SplitStreamsDecorrelated)
{
    Rng parent(99);
    Rng c1 = parent.split();
    Rng c2 = parent.split();
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += c1.next() == c2.next();
    EXPECT_LT(same, 4);
}

// ----------------------------------------------------------------------
// Distributions
// ----------------------------------------------------------------------

TEST(Distributions, ExponentialMean)
{
    Rng rng(21);
    ExponentialDist d(50.0);
    double sum = 0.0;
    const int n = 200000;
    for (int i = 0; i < n; ++i)
        sum += d.sample(rng);
    EXPECT_NEAR(sum / n, 50.0, 1.0);
}

TEST(Distributions, ExponentialNonNegative)
{
    Rng rng(22);
    ExponentialDist d(3.0);
    for (int i = 0; i < 10000; ++i)
        EXPECT_GE(d.sample(rng), 0.0);
}

TEST(Distributions, NormalMoments)
{
    Rng rng(23);
    NormalDist d(10.0, 2.0);
    SummaryStats s;
    for (int i = 0; i < 200000; ++i)
        s.add(d.sample(rng));
    EXPECT_NEAR(s.mean(), 10.0, 0.05);
    EXPECT_NEAR(s.stddev(), 2.0, 0.05);
}

TEST(Distributions, NormalNonNegativeClamps)
{
    Rng rng(24);
    NormalDist d(0.5, 5.0);
    for (int i = 0; i < 10000; ++i)
        EXPECT_GE(d.sampleNonNegative(rng), 0.0);
}

TEST(Distributions, UniformRange)
{
    Rng rng(25);
    UniformDist d(5.0, 9.0);
    SummaryStats s;
    for (int i = 0; i < 100000; ++i) {
        double v = d.sample(rng);
        EXPECT_GE(v, 5.0);
        EXPECT_LT(v, 9.0);
        s.add(v);
    }
    EXPECT_NEAR(s.mean(), 7.0, 0.05);
}

TEST(Distributions, BimodalMixFraction)
{
    Rng rng(26);
    BimodalDist d(0.995, 1.2, 580.0);
    int fast = 0;
    const int n = 200000;
    for (int i = 0; i < n; ++i) {
        bool was_a;
        double v = d.sample(rng, &was_a);
        if (was_a) {
            EXPECT_DOUBLE_EQ(v, 1.2);
            ++fast;
        } else {
            EXPECT_DOUBLE_EQ(v, 580.0);
        }
    }
    EXPECT_NEAR(static_cast<double>(fast) / n, 0.995, 0.002);
}

TEST(Distributions, BimodalMean)
{
    BimodalDist d(0.995, 1.2, 580.0);
    EXPECT_NEAR(d.mean(), 0.995 * 1.2 + 0.005 * 580.0, 1e-9);
}

TEST(Distributions, PoissonProcessMonotonic)
{
    Rng rng(27);
    PoissonProcess p(0.001, rng);
    std::uint64_t prev = 0;
    for (int i = 0; i < 1000; ++i) {
        std::uint64_t t = p.nextArrival();
        EXPECT_GE(t, prev);
        prev = t;
    }
}

TEST(Distributions, PoissonProcessRate)
{
    Rng rng(28);
    PoissonProcess p(0.01, rng);  // mean gap 100 cycles
    const int n = 100000;
    std::uint64_t last = 0;
    for (int i = 0; i < n; ++i)
        last = p.nextArrival();
    double mean_gap = static_cast<double>(last) / n;
    EXPECT_NEAR(mean_gap, 100.0, 2.0);
}

TEST(Distributions, DiscreteRespectsWeights)
{
    Rng rng(29);
    DiscreteDist d({{1.0, 3.0}, {2.0, 1.0}});
    int ones = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        ones += d.sample(rng) == 1.0;
    EXPECT_NEAR(static_cast<double>(ones) / n, 0.75, 0.01);
}

// ----------------------------------------------------------------------
// Histogram (property: percentile near sorted-vector oracle)
// ----------------------------------------------------------------------

TEST(Histogram, EmptyIsZero)
{
    Histogram h;
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.percentile(99.0), 0);
    EXPECT_EQ(h.min(), 0);
    EXPECT_EQ(h.max(), 0);
    EXPECT_DOUBLE_EQ(h.mean(), 0.0);
}

TEST(Histogram, SingleValue)
{
    Histogram h;
    h.record(42);
    EXPECT_EQ(h.count(), 1u);
    EXPECT_EQ(h.min(), 42);
    EXPECT_EQ(h.max(), 42);
    EXPECT_EQ(h.p50(), 42);
    EXPECT_EQ(h.p999(), 42);
}

TEST(Histogram, NegativeClampedToZero)
{
    Histogram h;
    h.record(-5);
    EXPECT_EQ(h.min(), 0);
    EXPECT_EQ(h.count(), 1u);
}

TEST(Histogram, ExactInLinearRegion)
{
    Histogram h(7);
    for (int v = 0; v < 200; ++v)
        h.record(v);
    // Values below 2*128 are exact (inclusive-rank convention).
    EXPECT_EQ(h.percentile(50.0), 99);
    EXPECT_EQ(h.min(), 0);
    EXPECT_EQ(h.max(), 199);
}

TEST(Histogram, MergeMatchesCombined)
{
    Rng rng(31);
    Histogram a, b, combined;
    for (int i = 0; i < 5000; ++i) {
        std::int64_t v =
            static_cast<std::int64_t>(rng.nextBounded(1000000));
        if (i % 2) {
            a.record(v);
        } else {
            b.record(v);
        }
        combined.record(v);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), combined.count());
    EXPECT_EQ(a.min(), combined.min());
    EXPECT_EQ(a.max(), combined.max());
    EXPECT_EQ(a.p99(), combined.p99());
}

TEST(Histogram, MergeEmptyIntoNonEmptyIsNoop)
{
    Histogram a, empty;
    a.record(10);
    a.record(500);
    a.merge(empty);
    EXPECT_EQ(a.count(), 2u);
    EXPECT_DOUBLE_EQ(a.sum(), 510.0);
    EXPECT_EQ(a.min(), 10);
    EXPECT_EQ(a.max(), 500);
}

TEST(Histogram, MergeNonEmptyIntoEmpty)
{
    Histogram a, b;
    b.record(7);
    b.record(7000);
    a.merge(b);
    EXPECT_EQ(a.count(), 2u);
    EXPECT_DOUBLE_EQ(a.sum(), b.sum());
    EXPECT_EQ(a.min(), 7);
    EXPECT_EQ(a.max(), 7000);
    EXPECT_EQ(a.p50(), b.p50());
}

TEST(Histogram, MergeMismatchedConfigKeepsMoments)
{
    // A fine histogram absorbing a coarse one (different
    // sub-bucket resolution): count/sum/min/max must stay exact;
    // percentiles keep only the coarser config's relative error.
    Rng rng(47);
    Histogram fine(7), coarse(3);
    for (int i = 0; i < 4000; ++i)
        fine.record(
            static_cast<std::int64_t>(rng.nextBounded(500000)));
    std::uint64_t fine_count = fine.count();
    double fine_sum = fine.sum();
    std::int64_t fine_min = fine.min();
    std::int64_t fine_max = fine.max();
    for (int i = 0; i < 4000; ++i)
        coarse.record(
            static_cast<std::int64_t>(rng.nextBounded(500000)) + 3);
    fine.merge(coarse);
    EXPECT_EQ(fine.count(), fine_count + coarse.count());
    EXPECT_DOUBLE_EQ(fine.sum(), fine_sum + coarse.sum());
    EXPECT_EQ(fine.min(), std::min(fine_min, coarse.min()));
    EXPECT_EQ(fine.max(), std::max(fine_max, coarse.max()));
    // p99 of the union sits between the two inputs' p99s, up to the
    // coarse config's bucket error (~12.5% for 3 sub-bucket bits).
    double lo = static_cast<double>(
        std::min(coarse.p99(), fine.p99()));
    double hi = static_cast<double>(
        std::max(coarse.p99(), fine.p99()));
    EXPECT_GE(static_cast<double>(fine.p99()), 0.85 * lo);
    EXPECT_LE(static_cast<double>(fine.p99()), 1.15 * hi);
}

TEST(Histogram, MergeMismatchedBothDirectionsAgreeOnMoments)
{
    Histogram fine(7), coarse(3);
    for (std::int64_t v : {1, 10, 100, 1000, 10000, 100000}) {
        fine.record(v);
        coarse.record(v * 3);
    }
    Histogram fine2(7), coarse2(3);
    for (std::int64_t v : {1, 10, 100, 1000, 10000, 100000}) {
        fine2.record(v);
        coarse2.record(v * 3);
    }
    fine.merge(coarse);      // coarse -> fine
    coarse2.merge(fine2);    // fine -> coarse
    EXPECT_EQ(fine.count(), coarse2.count());
    EXPECT_DOUBLE_EQ(fine.sum(), coarse2.sum());
    EXPECT_EQ(fine.min(), coarse2.min());
    EXPECT_EQ(fine.max(), coarse2.max());
}

TEST(Histogram, PercentileBoundaries)
{
    Histogram h;
    for (std::int64_t v = 1; v <= 1000; ++v)
        h.record(v);
    // percentile(0) is the smallest recorded bucket, percentile(100)
    // the largest; both within the representation's bucket error.
    EXPECT_GE(h.percentile(0.0), 1);
    EXPECT_LE(h.percentile(0.0), h.percentile(50.0));
    EXPECT_GE(h.percentile(100.0), h.percentile(99.9));
    EXPECT_GE(h.percentile(100.0), 990);
    EXPECT_LE(h.percentile(0.0), h.percentile(100.0));
    // Degenerate single-value histogram: all percentiles coincide.
    Histogram one;
    one.record(42);
    EXPECT_EQ(one.percentile(0.0), one.percentile(100.0));
    EXPECT_EQ(one.percentile(0.0), one.p50());
}

TEST(Histogram, ResetClears)
{
    Histogram h;
    h.record(10);
    h.reset();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.max(), 0);
}

TEST(Histogram, RecordWithCount)
{
    Histogram h;
    h.record(5, 10);
    EXPECT_EQ(h.count(), 10u);
    EXPECT_DOUBLE_EQ(h.mean(), 5.0);
}

class HistogramPercentileProperty
    : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(HistogramPercentileProperty, NearOracleWithinRelativeError)
{
    std::uint64_t seed = GetParam();
    Rng rng(seed);
    Histogram h;
    std::vector<std::int64_t> oracle;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        // Mix of magnitudes across many powers of two.
        unsigned shift = static_cast<unsigned>(rng.nextBounded(36));
        std::int64_t v = static_cast<std::int64_t>(
            rng.nextBounded(1ull << shift));
        h.record(v);
        oracle.push_back(v);
    }
    std::sort(oracle.begin(), oracle.end());
    for (double p : {10.0, 50.0, 90.0, 99.0, 99.9}) {
        std::size_t idx = static_cast<std::size_t>(
            p / 100.0 * n);
        if (idx >= oracle.size())
            idx = oracle.size() - 1;
        double expect = static_cast<double>(oracle[idx]);
        double got = static_cast<double>(h.percentile(p));
        // Bounded relative error from sub-bucketing (plus slack for
        // rank-rounding at small values).
        EXPECT_NEAR(got, expect,
                    std::max(4.0, expect * 0.02))
            << "p=" << p << " seed=" << seed;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HistogramPercentileProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21,
                                           34, 55, 89));

// ----------------------------------------------------------------------
// SummaryStats
// ----------------------------------------------------------------------

TEST(SummaryStats, BasicMoments)
{
    SummaryStats s;
    for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.add(v);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_NEAR(s.variance(), 4.571428, 1e-5);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
    EXPECT_EQ(s.count(), 8u);
}

TEST(SummaryStats, EmptySafe)
{
    SummaryStats s;
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
    EXPECT_DOUBLE_EQ(s.variance(), 0.0);
    EXPECT_DOUBLE_EQ(s.min(), 0.0);
}

TEST(SummaryStats, MergeEqualsSequential)
{
    Rng rng(41);
    SummaryStats a, b, all;
    for (int i = 0; i < 1000; ++i) {
        double v = rng.nextDouble() * 100.0;
        (i % 3 ? a : b).add(v);
        all.add(v);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), all.count());
    EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
    EXPECT_NEAR(a.variance(), all.variance(), 1e-6);
}

TEST(SummaryStats, MergeWithEmpty)
{
    SummaryStats a, b;
    a.add(3.0);
    a.merge(b);
    EXPECT_EQ(a.count(), 1u);
    b.merge(a);
    EXPECT_EQ(b.count(), 1u);
    EXPECT_DOUBLE_EQ(b.mean(), 3.0);
}

// ----------------------------------------------------------------------
// TablePrinter / CsvWriter
// ----------------------------------------------------------------------

TEST(TablePrinter, AlignsColumns)
{
    TablePrinter t("Title");
    t.setHeader({"a", "longer"});
    t.addRow({"xxxx", "1"});
    t.addRule();
    t.addRow({"y", "22"});
    std::ostringstream os;
    t.print(os);
    std::string out = os.str();
    EXPECT_NE(out.find("Title"), std::string::npos);
    EXPECT_NE(out.find("xxxx"), std::string::npos);
    EXPECT_NE(out.find("longer"), std::string::npos);
    // Rule lines exist.
    EXPECT_NE(out.find("----"), std::string::npos);
}

TEST(TablePrinter, Formatters)
{
    EXPECT_EQ(TablePrinter::num(3.14159, 2), "3.14");
    EXPECT_EQ(TablePrinter::integer(-7), "-7");
    EXPECT_EQ(TablePrinter::percent(0.456, 1), "45.6%");
}

TEST(CsvWriter, EscapesSpecials)
{
    std::string path = ::testing::TempDir() + "xui_csv_test.csv";
    {
        CsvWriter w(path);
        w.writeRow({"plain", "with,comma", "with\"quote"});
        w.close();
    }
    std::ifstream in(path);
    std::string line;
    std::getline(in, line);
    EXPECT_EQ(line, "plain,\"with,comma\",\"with\"\"quote\"");
    std::remove(path.c_str());
}

TEST(CsvWriter, ThrowsOnBadPath)
{
    EXPECT_THROW(CsvWriter("/nonexistent-dir-xyz/file.csv"),
                 std::runtime_error);
}

// ----------------------------------------------------------------------
// Fnv1a
// ----------------------------------------------------------------------

namespace
{

/** FNV-1a by definition: one xor and one multiply per byte. */
std::uint64_t
byteSerialFnv(std::uint64_t h, const std::uint8_t *p, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        h = (h ^ p[i]) * Fnv1a::kPrime;
    return h;
}

std::uint64_t
byteSerialWord(std::uint64_t h, std::uint64_t v)
{
    std::uint8_t le[8];
    for (unsigned i = 0; i < 8; ++i)
        le[i] = static_cast<std::uint8_t>(v >> (8 * i));
    return byteSerialFnv(h, le, 8);
}

} // namespace

TEST(Fnv1a, KnownVectors)
{
    EXPECT_EQ(fnv1a("", 0), 0xcbf29ce484222325ull);
    EXPECT_EQ(fnv1a("a", 1), 0xaf63dc4c8601ec8cull);
    EXPECT_EQ(fnv1a("foobar", 6), 0x85944171f73967e8ull);
}

TEST(Fnv1a, WordFoldMatchesByteSerial)
{
    std::vector<std::uint64_t> words = {0, 1, 0xff, 1ull << 56, ~0ull};
    Rng rng(0xf01d);
    for (int i = 0; i < 10000; ++i) {
        const std::uint64_t v = rng.next();
        for (unsigned width = 0; width <= 8; ++width)
            words.push_back(width == 8 ? v
                                       : v & ((1ull << (8 * width)) - 1));
    }
    Fnv1a h;
    std::uint64_t ref = Fnv1a::kOffsetBasis;
    for (std::size_t i = 0; i < words.size(); ++i) {
        const std::uint64_t before = h.bytes();
        h.update(words[i]);
        ref = byteSerialWord(ref, words[i]);
        ASSERT_EQ(h.value(), ref) << "word " << i << " = " << words[i];
        ASSERT_EQ(h.bytes(), before + 8);
    }
}

TEST(Fnv1a, ByteRangeMatchesByteSerial)
{
    Rng rng(0xb17e);
    std::vector<std::uint8_t> random(4096 + 16), zeros(4096 + 16, 0);
    for (auto &b : random)
        b = static_cast<std::uint8_t>(rng.next());
    // Sparse: mostly zero with a few set bytes, like a snapshot.
    std::vector<std::uint8_t> sparse(zeros);
    for (int i = 0; i < 40; ++i)
        sparse[rng.nextBounded(sparse.size())] =
            static_cast<std::uint8_t>(1 + rng.nextBounded(255));
    for (const auto *buf : {&random, &zeros, &sparse}) {
        for (std::size_t offset = 0; offset < 8; ++offset) {
            for (std::size_t len :
                 {std::size_t{0}, std::size_t{1}, std::size_t{7},
                  std::size_t{8}, std::size_t{9}, std::size_t{63},
                  std::size_t{4093}, std::size_t{4096}}) {
                const std::uint8_t *p = buf->data() + offset;
                const std::uint64_t ref =
                    byteSerialFnv(Fnv1a::kOffsetBasis, p, len);
                EXPECT_EQ(fnv1a(p, len), ref)
                    << "offset " << offset << " len " << len;
                // Mid-stream: a word fold first, so the range does
                // not start from the offset basis.
                Fnv1a h;
                h.update(std::uint64_t{0x1234});
                h.update(p, len);
                EXPECT_EQ(h.value(),
                          byteSerialFnv(
                              byteSerialWord(Fnv1a::kOffsetBasis, 0x1234),
                              p, len));
                EXPECT_EQ(h.bytes(), 8 + len);
            }
        }
    }
}
