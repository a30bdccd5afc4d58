/**
 * @file
 * The shared flag table (src/cli/flags.hh) and every binary's table:
 * classified rejects, the tools' parser tests, xui_chaos reproducers
 * that parse back to their own grid cell, and a seeded argv mutation
 * loop (CliMutation) in which every parse ends "ok" or in exactly one
 * classified reject.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <string>
#include <vector>

#include "../bench/bench_util.hh"
#include "../tools/tool_flags.hh"
#include "cli/flags.hh"
#include "obs/perfdiff.hh"
#include "stats/rng.hh"

using namespace xui;

namespace
{

using Args = std::vector<std::string>;

cli::Result
parse(const cli::Table &t, Args args)
{
    std::vector<char *> argv{const_cast<char *>("prog")};
    for (std::string &a : args)
        argv.push_back(a.data());
    return cli::parse(t, static_cast<int>(argv.size()), argv.data());
}

cli::Result
parseBench(Args args, std::uint32_t reads = bench::kAllFlags)
{
    bench::Options o;
    return parse(bench::flagTable(o, reads), std::move(args));
}

/** Split a printed command line; double quotes group and vanish. */
Args
splitCommand(const std::string &cmd)
{
    Args out;
    std::string cur;
    bool quoted = false, token = false;
    for (char c : cmd) {
        if (c == '"') {
            quoted = !quoted;
            token = true;
        } else if (c == ' ' && !quoted) {
            if (token)
                out.push_back(cur);
            cur.clear();
            token = false;
        } else {
            cur += c;
            token = true;
        }
    }
    if (token)
        out.push_back(cur);
    return out;
}

} // namespace

TEST(CliParse, RejectsAreClassified)
{
    using cli::Reject;
    struct Case
    {
        Args args;
        Reject reject;
        const char *message;
    };
    const Case cases[] = {
        {{"--bogus"}, Reject::UnknownFlag, "unknown argument '--bogus'"},
        {{"--seed"}, Reject::MissingValue, "--seed needs a value"},
        {{"--restore"}, Reject::MissingValue, "--restore needs a file"},
        {{"--seed", "abc"},
         Reject::BadValue,
         "--seed needs a non-negative integer, got 'abc'"},
        {{"--seed", "99999999999999999999"},
         Reject::OutOfRange,
         "--seed needs a non-negative integer, got "
         "'99999999999999999999'"},
        {{"--rt-vector", "64"},
         Reject::OutOfRange,
         "--rt-vector needs an integer in [0, 63], got '64'"},
        {{"--offered-load", "-1.5"},
         Reject::OutOfRange,
         "--offered-load needs a positive number, got '-1.5'"},
        {{"--jobs", "1025"},
         Reject::OutOfRange,
         "--jobs needs an integer >= 1, got '1025'"},
        {{"--policy", "NEXT_ONLY_EDGE"},
         Reject::BadValue,
         "unknown --policy 'NEXT_ONLY_EDGE' (expected off|"},
        {{"--quick", "stray"},
         Reject::ExtraPositional,
         "unexpected argument 'stray' (too many positionals)"},
    };
    for (const Case &c : cases) {
        cli::Result r = parseBench(c.args);
        EXPECT_EQ(r.reject, c.reject) << c.message;
        EXPECT_EQ(r.message.rfind(c.message, 0), 0u)
            << r.message << " vs " << c.message;
    }
}

TEST(CliParse, HelpAndVersionStopTheParse)
{
    cli::Result r = parseBench({"--quick", "--help", "--bogus"});
    EXPECT_TRUE(r.help);
    EXPECT_EQ(r.reject, cli::Reject::None);
    r = parseBench({"--version", "--seed"});
    EXPECT_TRUE(r.version);
    EXPECT_EQ(r.reject, cli::Reject::None);
    EXPECT_NE(cli::provenance().find("snapshot format"),
              std::string::npos);
}

TEST(CliParse, BenchAcceptsOnlyTheFlagsItDeclares)
{
    // fig9_dsa's set: the obs exports plus what runObsScenario reads.
    const std::uint32_t fig9 = bench::kObsScenario;
    EXPECT_EQ(parseBench({"--policy", "moderated"}, fig9).reject,
              cli::Reject::UnknownFlag);
    EXPECT_EQ(parseBench({"--checkpoint-every", "9"}, fig9).reject,
              cli::Reject::UnknownFlag);
    EXPECT_EQ(parseBench({"--quick", "--tax", "--seed", "3"}, fig9)
                  .reject,
              cli::Reject::None);
    bench::Options o;
    EXPECT_EQ(bench::flagTable(o, fig9).flags.size(), 6u);
    EXPECT_EQ(bench::flagTable(o, bench::kAllFlags).flags.size(), 16u);
}

TEST(CliParseDeathTest, BenchSeedGarbageExitsTwo)
{
    std::string prog = "bench", flag = "--seed", value = "abc";
    char *argv[] = {prog.data(), flag.data(), value.data()};
    EXPECT_EXIT(bench::parseArgs(3, argv, bench::kQuick | bench::kSeed),
                ::testing::ExitedWithCode(2),
                "--seed needs a non-negative integer, got 'abc'");
}

TEST(ToolFlags, ChaosRejectsGarbage)
{
    tools::ChaosOptions o;
    const cli::Table t = tools::chaosFlags(o);
    EXPECT_EQ(parse(t, {"--seeds", "abc"}).reject,
              cli::Reject::BadValue);
    EXPECT_EQ(parse(t, {"--crash-at", "0"}).reject,
              cli::Reject::OutOfRange);
    cli::Result r = parse(t, {"--scenario", "bogus"});
    EXPECT_EQ(r.reject, cli::Reject::BadValue);
    EXPECT_EQ(r.message.rfind("unknown --scenario 'bogus'", 0), 0u);
    r = parse(t, {"--schedule", "notify_ipi:x:drop:0"});
    EXPECT_EQ(r.reject, cli::Reject::BadValue);
    EXPECT_EQ(r.message.rfind("malformed --schedule", 0), 0u);

    ASSERT_EQ(parse(t, {"--scenario", "ckpt_crash", "--seeds", "7",
                        "--no-recovery", "--schedule",
                        "kbtimer_fire:3:drop:0"})
                  .reject,
              cli::Reject::None);
    EXPECT_EQ(o.scenario, chaos::ScenarioKind::CkptCrash);
    EXPECT_EQ(o.seeds, 7u);
    EXPECT_TRUE(o.noRecovery);
    ASSERT_EQ(o.schedule.size(), 1u);
    EXPECT_EQ(o.schedule.directives[0].occurrence, 3u);
}

TEST(ToolFlags, VerifyRejectsGarbage)
{
    tools::VerifyOptions o;
    const cli::Table t = tools::verifyFlags(o);
    EXPECT_EQ(parse(t, {"--programs", "abc"}).reject,
              cli::Reject::BadValue);
    EXPECT_EQ(parse(t, {"--timer-us", "x"}).reject,
              cli::Reject::BadValue);
    // A zero period interrupts continuously: no main code commits.
    EXPECT_EQ(parse(t, {"--timer-us", "0"}).reject,
              cli::Reject::OutOfRange);
    EXPECT_EQ(parse(t, {"--jobs", "0"}).reject,
              cli::Reject::OutOfRange);
    ASSERT_EQ(parse(t, {"--programs", "0", "--seeds", "0",
                        "--timer-us", "0.5", "--roundtrip"})
                  .reject,
              cli::Reject::None);
    EXPECT_EQ(o.corpus.programs, 0u);
    EXPECT_DOUBLE_EQ(o.corpus.timerUs, 0.5);
    EXPECT_TRUE(o.roundtrip);
}

TEST(ToolFlags, ObsOverheadRejectsZeroTrials)
{
    tools::ObsOverheadOptions o;
    const cli::Table t = tools::obsOverheadFlags(o);
    EXPECT_EQ(parse(t, {"--trials", "0"}).reject,
              cli::Reject::OutOfRange);
    ASSERT_EQ(parse(t, {"--trials", "3"}).reject, cli::Reject::None);
    EXPECT_EQ(o.trials, 3u);
}

TEST(ToolFlags, PerfdiffPositionalsAndRepeatedRules)
{
    PerfDiffArgs a;
    const cli::Table t = perfdiffFlags(a);
    EXPECT_EQ(parse(t, {"a.json"}).reject, cli::Reject::MissingValue);
    EXPECT_EQ(parse(t, {"a", "b", "c"}).reject,
              cli::Reject::ExtraPositional);
    ASSERT_EQ(parse(t, {"a.json", "--rule", "x=5", "b.json", "--rule",
                        "y=skip"})
                  .reject,
              cli::Reject::None);
    EXPECT_EQ(a.basePath, "a.json");
    EXPECT_EQ(a.curPath, "b.json");
    ASSERT_EQ(a.opts.rules.size(), 2u);
    EXPECT_TRUE(a.opts.rules[1].skip);
}

TEST(ChaosReplay, PrintedCommandParsesToTheGridCell)
{
    chaos::GridConfig plain;
    chaos::GridConfig tuned;
    tuned.horizon = 150000;
    tuned.eventBudget = 900000;
    tuned.ckptEvery = 300;
    tuned.recovery = false;
    tuned.finalDrain = false;
    tuned.ckptDir = "crash ckpt";
    unsigned crashCells = 0;
    for (const chaos::GridConfig *gc : {&plain, &tuned}) {
        for (std::size_t k = 0; k < chaos::kNumScenarios; ++k) {
            for (std::uint64_t seed = 1; seed <= 3; ++seed) {
                chaos::CellConfig cell = chaos::gridCell(
                    *gc, static_cast<chaos::ScenarioKind>(k), seed);
                // A shrunk reproducer keeps a prefix of the schedule.
                cell.schedule.directives.resize(
                    cell.schedule.size() / seed);
                const std::string cmd = tools::replayCommand(cell);
                Args argv = splitCommand(cmd);
                ASSERT_EQ(argv.front(), "xui_chaos");
                argv.erase(argv.begin());

                tools::ChaosOptions o;
                cli::Result r = parse(tools::chaosFlags(o), argv);
                ASSERT_EQ(r.reject, cli::Reject::None)
                    << cmd << ": " << r.message;
                ASSERT_TRUE(o.replay);
                const chaos::CellConfig back = tools::replayCell(o);
                EXPECT_EQ(back.kind, cell.kind) << cmd;
                EXPECT_EQ(back.seed, cell.seed) << cmd;
                EXPECT_EQ(back.schedule.directives,
                          cell.schedule.directives)
                    << cmd;
                EXPECT_EQ(back.recovery, cell.recovery) << cmd;
                EXPECT_EQ(back.finalDrain, cell.finalDrain) << cmd;
                EXPECT_EQ(back.horizon, cell.horizon) << cmd;
                EXPECT_EQ(back.eventBudget, cell.eventBudget) << cmd;
                EXPECT_EQ(back.ckptEvery, cell.ckptEvery) << cmd;
                EXPECT_EQ(back.crashAtEvent, cell.crashAtEvent) << cmd;
                EXPECT_EQ(
                    std::filesystem::path(back.ckptPathBase)
                        .parent_path(),
                    std::filesystem::path(cell.ckptPathBase)
                        .parent_path())
                    << cmd;
                crashCells += cell.crashAtEvent != 0;
            }
        }
    }
    // The ckpt_crash cells carry the seed-derived kill point and the
    // capped budget that a horizon-only command dropped.
    EXPECT_EQ(crashCells, 6u);
}

TEST(ChaosReplay, ReplayedCrashCellMatchesTheGridRun)
{
    chaos::GridConfig gc;
    const chaos::CellConfig cell =
        chaos::gridCell(gc, chaos::ScenarioKind::CkptCrash, 7);
    Args argv = splitCommand(tools::replayCommand(cell));
    argv.erase(argv.begin());
    tools::ChaosOptions o;
    ASSERT_EQ(parse(tools::chaosFlags(o), argv).reject,
              cli::Reject::None);
    const chaos::CellResult a = chaos::runCell(cell);
    const chaos::CellResult b = chaos::runCell(tools::replayCell(o));
    EXPECT_EQ(a.passed, b.passed);
    EXPECT_EQ(a.posted, b.posted);
    EXPECT_EQ(a.delivered, b.delivered);
    EXPECT_EQ(a.abandoned, b.abandoned);
    EXPECT_EQ(a.injected, b.injected);
    EXPECT_EQ(a.ckptSnapshots, b.ckptSnapshots);
    EXPECT_EQ(a.crashRecovered, b.crashRecovered);
    EXPECT_TRUE(a.crashRecovered);
}

TEST(CliMutation, EveryParseEndsOkOrInOneClassifiedReject)
{
    struct Binary
    {
        const char *name;
        std::function<cli::Result(const Args &)> parse;
        std::vector<Args> valid;
    };
    const std::vector<Binary> binaries = {
        {"bench",
         [](const Args &a) { return parseBench(a); },
         {{"--quick", "--seed", "7", "--jobs", "4", "--metrics-json",
           "m.json", "--trace-json", "t.json", "--counter-stride", "200",
           "--tax"},
          {"--policy", "moderated", "--itr-ns", "1500", "--offered-load",
           "2.0"},
          {"--rt-vector", "9", "--priority", "3"},
          {"--ff", "--detail-window", "512", "--checkpoint-every", "5000",
           "--restore", "s.ckpt"}}},
        {"xui_chaos",
         [](const Args &a) {
             tools::ChaosOptions o;
             return parse(tools::chaosFlags(o), a);
         },
         {{"--scenario", "all", "--seeds", "40", "--jobs", "4"},
          {"--scenario", "uipi_pingpong", "--seeds", "20", "--seed-base",
           "3", "--no-recovery", "--no-shrink", "--out-dir", "repro",
           "--directives", "8", "--horizon", "200000", "--budget",
           "2000000", "--quiet", "--list"},
          {"--replay", "--scenario", "ckpt_crash", "--seed", "7",
           "--checkpoint-every", "256", "--crash-at", "2000",
           "--ckpt-dir", "crash-ckpt", "--restore", "c.ckpt"},
          {"--replay", "--scenario", "kbtimer_periodic", "--seed", "7",
           "--schedule", "kbtimer_fire:3:drop:0;notify_ipi:1:delay:64"}}},
        {"xui_verify",
         [](const Args &a) {
             tools::VerifyOptions o;
             return parse(tools::verifyFlags(o), a);
         },
         {{"--programs", "20", "--seeds", "2", "--jobs", "4"},
          {"--roundtrip", "--jobs", "4", "--snapshot-dir", "rt"},
          {"--record", "g.xuitrc", "--record-seed", "3", "--insts",
           "8000", "--timer-us", "2.5", "--safepoints", "--quiet"},
          {"--replay", "g.xuitrc", "--metrics-json", "m.json",
           "--trace-json", "t.json"}}},
        {"bench_obs_overhead",
         [](const Args &a) {
             tools::ObsOverheadOptions o;
             return parse(tools::obsOverheadFlags(o), a);
         },
         {{"--quick", "--trials", "5"}}},
        {"xui_perfdiff",
         [](const Args &a) {
             PerfDiffArgs o;
             return parse(perfdiffFlags(o), a);
         },
         {{"a.json", "b.json", "--tol", "5", "--rule", "*wall*=skip",
           "--rule", "x=-75", "--list"}}},
    };

    Rng rng(0xc11);
    std::array<unsigned, 6> seen{};
    for (const Binary &bin : binaries) {
        for (const Args &valid : bin.valid)
            ASSERT_EQ(bin.parse(valid).reject, cli::Reject::None)
                << bin.name << ": " << bin.parse(valid).message;
        for (int iter = 0; iter < 3000; ++iter) {
            Args a = bin.valid[rng.nextBounded(bin.valid.size())];
            for (int m = 0, n = 1 + static_cast<int>(rng.nextBounded(3));
                 m < n && !a.empty(); ++m) {
                const std::size_t i = rng.nextBounded(a.size());
                const std::size_t j = rng.nextBounded(a.size());
                std::string &tok = a[i];
                switch (rng.nextBounded(6)) {
                case 0: // drop a token
                    a.erase(a.begin() + static_cast<std::ptrdiff_t>(i));
                    break;
                case 1: // duplicate a token
                    a.insert(a.begin() + static_cast<std::ptrdiff_t>(i),
                             tok);
                    break;
                case 2: // swap two tokens
                    std::swap(tok, a[j]);
                    break;
                case 3: // truncate a token
                    tok.resize(rng.nextBounded(tok.size() + 1));
                    break;
                case 4: // flip a byte
                    if (!tok.empty()) {
                        char &c = tok[rng.nextBounded(tok.size())];
                        c = static_cast<char>(
                            c ^ (1u << rng.nextBounded(8)));
                    }
                    break;
                default: // inflate a number past 2^64
                    tok += "99999999999999999999";
                    break;
                }
            }
            const cli::Result r = bin.parse(a);
            const cli::Result again = bin.parse(a);
            ASSERT_EQ(r.reject, again.reject) << bin.name;
            ASSERT_EQ(r.message, again.message) << bin.name;
            ASSERT_LT(static_cast<std::size_t>(r.reject), seen.size());
            ++seen[static_cast<std::size_t>(r.reject)];
            ASSERT_EQ(r.reject == cli::Reject::None, r.message.empty())
                << bin.name << ": " << r.message;
        }
    }
    for (std::size_t c = 0; c < seen.size(); ++c)
        EXPECT_GT(seen[c], 0u) << "outcome " << c << " never reached";
}
