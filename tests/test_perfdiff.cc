/**
 * @file
 * Tests for the perf-regression guard: the strict JSON parser and
 * flattener (src/obs/json_parse.hh), the tolerance-rule engine
 * (src/obs/perfdiff.hh), and the xui_perfdiff CLI's exit-code
 * contract (0 clean / 1 regression / 2 usage-or-parse error), which
 * CI depends on to gate merges against the committed BENCH_*.json
 * references.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/json_parse.hh"
#include "obs/perfdiff.hh"
#include "stats/rng.hh"

namespace xui
{
namespace
{

// ---------------------------------------------------------------
// JSON parser

TEST(JsonParse, ParsesScalarsAndNesting)
{
    JsonValue v;
    std::string err;
    ASSERT_TRUE(jsonParse(
        R"({"a": 1, "b": {"c": [2, 3.5, true, "s", null]}})", v,
        err))
        << err;
    ASSERT_EQ(v.kind, JsonValue::Kind::Object);
    const JsonValue *a = v.find("a");
    ASSERT_NE(a, nullptr);
    EXPECT_EQ(a->kind, JsonValue::Kind::Number);
    EXPECT_DOUBLE_EQ(a->number, 1.0);
    const JsonValue *b = v.find("b");
    ASSERT_NE(b, nullptr);
    const JsonValue *c = b->find("c");
    ASSERT_NE(c, nullptr);
    ASSERT_EQ(c->kind, JsonValue::Kind::Array);
    ASSERT_EQ(c->array.size(), 5u);
    EXPECT_DOUBLE_EQ(c->array[1].number, 3.5);
    EXPECT_TRUE(c->array[2].boolean);
    EXPECT_EQ(c->array[3].string, "s");
    EXPECT_EQ(c->array[4].kind, JsonValue::Kind::Null);
}

TEST(JsonParse, RejectsMalformedDocuments)
{
    const char *bad[] = {
        "",          "{",         "[1,]",       "{\"a\":}",
        "{'a': 1}",  "{\"a\" 1}", "01",         "1.",
        "+1",        "nul",       "\"unterm",   "{\"a\":1} x",
        "[1, 2,, 3]"};
    for (const char *doc : bad) {
        JsonValue v;
        std::string err;
        EXPECT_FALSE(jsonParse(doc, v, err))
            << "accepted malformed: " << doc;
        EXPECT_FALSE(err.empty());
    }
}

TEST(JsonParse, ReportsByteOffsetInErrors)
{
    JsonValue v;
    std::string err;
    ASSERT_FALSE(jsonParse("{\"a\": bad}", v, err));
    EXPECT_NE(err.find("byte"), std::string::npos) << err;
}

TEST(JsonParse, FlattenNumbersBuildsDottedPaths)
{
    JsonValue v;
    std::string err;
    ASSERT_TRUE(jsonParse(
        R"({"top": 1, "nest": {"x": 2, "arr": [10, 20]},
            "flag": true, "note": "skipped"})",
        v, err))
        << err;
    std::map<std::string, double> flat;
    flattenNumbers(v, "", flat);
    ASSERT_EQ(flat.size(), 5u);
    EXPECT_DOUBLE_EQ(flat.at("top"), 1.0);
    EXPECT_DOUBLE_EQ(flat.at("nest.x"), 2.0);
    EXPECT_DOUBLE_EQ(flat.at("nest.arr.0"), 10.0);
    EXPECT_DOUBLE_EQ(flat.at("nest.arr.1"), 20.0);
    EXPECT_DOUBLE_EQ(flat.at("flag"), 1.0);
    EXPECT_EQ(flat.count("note"), 0u);
}

// ---------------------------------------------------------------
// Glob + rule parsing

TEST(PerfDiff, GlobMatchesStarRuns)
{
    EXPECT_TRUE(matchGlob("*", "anything"));
    EXPECT_TRUE(matchGlob("a.*.c", "a.b.c"));
    EXPECT_TRUE(matchGlob("*.cycles", "core0.tax.cycles"));
    EXPECT_TRUE(matchGlob("kernel.*", "kernel.moderation.flushes"));
    EXPECT_TRUE(matchGlob("a*b*c", "aXXbYYc"));
    EXPECT_FALSE(matchGlob("a.*.c", "a.b.d"));
    EXPECT_FALSE(matchGlob("kernel.*", "kern"));
    EXPECT_FALSE(matchGlob("", "x"));
    EXPECT_TRUE(matchGlob("", ""));
}

TEST(PerfDiff, ParsesRuleSpecs)
{
    TolRule r;
    ASSERT_TRUE(parseTolRule("*.wall_seconds=skip", r));
    EXPECT_TRUE(r.skip);
    EXPECT_EQ(r.pattern, "*.wall_seconds");

    ASSERT_TRUE(parseTolRule("a.b=5", r));
    EXPECT_FALSE(r.skip);
    EXPECT_DOUBLE_EQ(r.pct, 5.0);
    EXPECT_EQ(r.direction, 0);

    ASSERT_TRUE(parseTolRule("lat.*=+10", r));
    EXPECT_EQ(r.direction, 1);
    EXPECT_DOUBLE_EQ(r.pct, 10.0);

    ASSERT_TRUE(parseTolRule("rate=-75", r));
    EXPECT_EQ(r.direction, -1);
    EXPECT_DOUBLE_EQ(r.pct, 75.0);

    EXPECT_FALSE(parseTolRule("no_equals", r));
    EXPECT_FALSE(parseTolRule("=5", r));
    EXPECT_FALSE(parseTolRule("a=", r));
    EXPECT_FALSE(parseTolRule("a=abc", r));
    EXPECT_FALSE(parseTolRule("a=-", r));
    EXPECT_FALSE(parseTolRule("a=5x", r));
    EXPECT_FALSE(parseTolRule("a=nan", r));
}

// ---------------------------------------------------------------
// Diff engine

TEST(PerfDiff, ExactByDefaultAndDirectionGated)
{
    std::map<std::string, double> base{
        {"exact", 100}, {"up", 100}, {"down", 100}, {"wall", 3}};
    std::map<std::string, double> cur{
        {"exact", 100}, {"up", 104}, {"down", 96}, {"wall", 9}};
    PerfDiffOptions opts;
    opts.rules.push_back({"wall", true, 0.0, 0});
    opts.rules.push_back({"up", false, 5.0, 1});
    opts.rules.push_back({"down", false, 5.0, -1});
    PerfDiffResult r = perfDiff(base, cur, opts);
    EXPECT_TRUE(r.ok()) << (r.regressions.empty()
                                ? ""
                                : r.regressions[0].path);
    EXPECT_EQ(r.compared, 3u);
    EXPECT_EQ(r.skipped, 1u);

    // Push each gated metric past its tolerance, in the direction
    // its rule watches.
    cur["up"] = 106;
    cur["down"] = 94;
    r = perfDiff(base, cur, opts);
    ASSERT_EQ(r.regressions.size(), 2u);

    // Movement in the unwatched direction stays clean.
    cur["up"] = 50;
    cur["down"] = 200;
    r = perfDiff(base, cur, opts);
    EXPECT_TRUE(r.ok());
}

TEST(PerfDiff, MissingMetricIsARegression)
{
    std::map<std::string, double> base{{"gone", 7}, {"kept", 1}};
    std::map<std::string, double> cur{{"kept", 1}, {"new", 9}};
    PerfDiffResult r = perfDiff(base, cur, PerfDiffOptions{});
    ASSERT_EQ(r.regressions.size(), 1u);
    EXPECT_EQ(r.regressions[0].path, "gone");
    EXPECT_TRUE(r.regressions[0].missing);
}

TEST(PerfDiff, ZeroBaselineDeltaFailsEveryFiniteTolerance)
{
    std::map<std::string, double> base{{"z", 0}};
    std::map<std::string, double> cur{{"z", 1}};
    PerfDiffOptions opts;
    opts.defaultTolPct = 1e9;
    PerfDiffResult r = perfDiff(base, cur, opts);
    ASSERT_EQ(r.regressions.size(), 1u);
    EXPECT_TRUE(std::isinf(r.regressions[0].deltaPct));
}

TEST(PerfDiff, FirstMatchingRuleWins)
{
    std::map<std::string, double> base{{"a.b", 100}};
    std::map<std::string, double> cur{{"a.b", 150}};
    PerfDiffOptions opts;
    opts.rules.push_back({"a.*", true, 0.0, 0});  // skip
    opts.rules.push_back({"a.b", false, 0.0, 0}); // shadowed
    PerfDiffResult r = perfDiff(base, cur, opts);
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(r.skipped, 1u);
}

// ---------------------------------------------------------------
// Seeded mutation of the committed BENCH_*.json references

/** The committed BENCH_*.json files, read whole. */
std::vector<std::string>
committedBenchFiles()
{
    std::vector<std::string> docs;
    for (const auto &entry :
         std::filesystem::directory_iterator(XUI_SOURCE_DIR)) {
        const std::string name = entry.path().filename().string();
        if (name.rfind("BENCH_", 0) != 0 ||
            entry.path().extension() != ".json")
            continue;
        std::ifstream in(entry.path(), std::ios::binary);
        std::ostringstream buf;
        buf << in.rdbuf();
        docs.push_back(buf.str());
    }
    return docs;
}

/** One mutant of `doc`: bit flips, a deleted span, a truncation,
 *  deep nesting, or a number pushed out of double range. */
std::string
mutate(const std::string &doc, Rng &rng)
{
    std::string m = doc;
    switch (rng.nextBounded(6)) {
      case 0:  // flip 1-4 bits
        for (std::uint64_t n = 1 + rng.nextBounded(4); n > 0; --n)
            m[rng.nextBounded(m.size())] ^=
                static_cast<char>(1u << rng.nextBounded(8));
        break;
      case 1:  // delete a span of 1-16 bytes
        m.erase(rng.nextBounded(m.size()), 1 + rng.nextBounded(16));
        break;
      case 2:  // truncate
        m.resize(rng.nextBounded(m.size()));
        break;
      case 3: {  // wrap in arrays, around the parser's depth limit
        const std::size_t k = rng.nextBounded(128);
        m = std::string(k, '[') + m + std::string(k, ']');
        break;
      }
      case 4:  // an unclosed run far past any depth limit
        m.insert(rng.nextBounded(m.size() + 1),
                 std::string(100000, rng.nextBool(0.5) ? '[' : '{'));
        break;
      default: {  // a huge mantissa or exponent inside a number
        const std::size_t at = m.find_first_of(
            "0123456789", rng.nextBounded(m.size()));
        const char *tails[] = {"e999999", "e-999999", "E+400"};
        m.insert(at == std::string::npos ? m.size() : at + 1,
                 rng.nextBool(0.5) ? std::string(400, '9')
                                   : tails[rng.nextBounded(3)]);
        break;
      }
    }
    return m;
}

TEST(JsonMutation, EveryMutantParsesOrNamesAnOffsetInTheText)
{
    const std::vector<std::string> docs = committedBenchFiles();
    ASSERT_FALSE(docs.empty()) << "no BENCH_*.json in " << XUI_SOURCE_DIR;
    for (const std::string &doc : docs) {
        JsonValue v;
        std::string err;
        ASSERT_TRUE(jsonParse(doc, v, err)) << err;
    }

    Rng rng(0x150115);
    std::size_t parsed = 0;
    std::size_t rejected = 0;
    for (int i = 0; i < 4000; ++i) {
        const std::string m =
            mutate(docs[rng.nextBounded(docs.size())], rng);
        JsonValue v;
        std::string err;
        if (jsonParse(m, v, err)) {
            // Whatever parses flattens to finite numbers.
            std::map<std::string, double> flat;
            flattenNumbers(v, "", flat);
            for (const auto &[path, x] : flat)
                ASSERT_TRUE(std::isfinite(x)) << path << " in mutant " << i;
            ++parsed;
            continue;
        }
        ++rejected;
        const std::string marker = " at byte ";
        const std::size_t at = err.rfind(marker);
        ASSERT_NE(at, std::string::npos) << "mutant " << i << ": " << err;
        const std::string digits = err.substr(at + marker.size());
        ASSERT_FALSE(digits.empty()) << "mutant " << i << ": " << err;
        ASSERT_EQ(digits.find_first_not_of("0123456789"),
                  std::string::npos)
            << "mutant " << i << ": " << err;
        EXPECT_LE(std::stoull(digits), m.size())
            << "mutant " << i << ": " << err;
    }
    // Both outcomes occur: wrapping within the depth limit parses,
    // and most byte damage does not.
    EXPECT_GT(parsed, 100u);
    EXPECT_GT(rejected, 1000u);
}

// ---------------------------------------------------------------
// CLI exit codes (death tests: perfdiffMain calls land in a child)

class PerfDiffCli : public ::testing::Test
{
  protected:
    std::string
    writeTemp(const char *name, const std::string &body)
    {
        std::string path =
            ::testing::TempDir() + "perfdiff_" + name + ".json";
        std::ofstream out(path);
        out << body;
        out.close();
        return path;
    }

    int
    runCli(std::vector<std::string> args)
    {
        std::vector<char *> argv;
        static std::string prog = "xui_perfdiff";
        argv.push_back(prog.data());
        for (std::string &a : args)
            argv.push_back(a.data());
        return perfdiffMain(static_cast<int>(argv.size()),
                            argv.data());
    }
};

using PerfDiffCliDeath = PerfDiffCli;

TEST_F(PerfDiffCli, ExitZeroOnIdenticalSnapshots)
{
    std::string a = writeTemp("same_a", R"({"m": {"x": 1}})");
    std::string b = writeTemp("same_b", R"({"m": {"x": 1}})");
    EXPECT_EQ(runCli({a, b}), 0);
}

TEST_F(PerfDiffCli, ExitOneOnRegression)
{
    std::string a = writeTemp("reg_a", R"({"x": 100})");
    std::string b = writeTemp("reg_b", R"({"x": 101})");
    EXPECT_EQ(runCli({a, b}), 1);
    EXPECT_EQ(runCli({a, b, "--tol", "5"}), 0);
    EXPECT_EQ(runCli({a, b, "--rule", "x=skip"}), 0);
    EXPECT_EQ(runCli({a, b, "--rule", "x=-5"}), 0);
    EXPECT_EQ(runCli({a, b, "--rule", "x=+0.5"}), 1);
}

TEST_F(PerfDiffCliDeath, ExitTwoOnMissingFile)
{
    std::string a = writeTemp("ok", R"({"x": 1})");
    EXPECT_EXIT(
        std::exit(runCli({a, "/nonexistent/nope.json"})),
        ::testing::ExitedWithCode(2), "");
    EXPECT_EXIT(
        std::exit(runCli({"/nonexistent/nope.json", a})),
        ::testing::ExitedWithCode(2), "baseline");
}

TEST_F(PerfDiffCliDeath, ExitTwoOnMalformedJson)
{
    std::string good = writeTemp("good", R"({"x": 1})");
    std::string bad = writeTemp("bad", "{\"x\": oops}");
    std::string trunc = writeTemp("trunc", "{\"x\": 1");
    EXPECT_EXIT(std::exit(runCli({good, bad})),
                ::testing::ExitedWithCode(2), "current");
    EXPECT_EXIT(std::exit(runCli({trunc, good})),
                ::testing::ExitedWithCode(2), "baseline");
}

TEST_F(PerfDiffCliDeath, ExitTwoOnUsageErrors)
{
    std::string a = writeTemp("usage", R"({"x": 1})");
    EXPECT_EXIT(std::exit(runCli({})),
                ::testing::ExitedWithCode(2), "usage");
    EXPECT_EXIT(std::exit(runCli({a})),
                ::testing::ExitedWithCode(2), "");
    EXPECT_EXIT(std::exit(runCli({a, a, a})),
                ::testing::ExitedWithCode(2), "positionals");
    EXPECT_EXIT(std::exit(runCli({a, a, "--bogus"})),
                ::testing::ExitedWithCode(2), "unknown");
    EXPECT_EXIT(std::exit(runCli({a, a, "--tol", "-3"})),
                ::testing::ExitedWithCode(2), "");
    EXPECT_EXIT(std::exit(runCli({a, a, "--rule", "x=?"})),
                ::testing::ExitedWithCode(2), "malformed");
}

} // namespace
} // namespace xui
