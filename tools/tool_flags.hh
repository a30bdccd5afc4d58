/**
 * @file
 * The flag tables of the tools/ binaries (cli/flags.hh). They live
 * in a header so the CLI tests parse with exactly the tables the
 * binaries use.
 */

#ifndef XUI_TOOLS_TOOL_FLAGS_HH
#define XUI_TOOLS_TOOL_FLAGS_HH

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <optional>
#include <string>

#include "cli/flags.hh"
#include "fault/chaos.hh"
#include "fault/fault.hh"
#include "verify/corpus.hh"

namespace xui::tools
{

// ----------------------------------------------------------------
// xui_chaos

struct ChaosOptions
{
    /** Empty = every scenario ("all"). */
    std::optional<chaos::ScenarioKind> scenario;
    unsigned seeds = 40;
    std::uint64_t seedBase = 1;
    unsigned jobs = 1;
    unsigned directives = 8;
    Cycles horizon = 200000;
    std::uint64_t budget = 2000000;
    bool noRecovery = false;
    bool noShrink = false;
    bool quiet = false;
    bool list = false;
    bool replay = false;
    std::uint64_t seed = 1;
    fault::Schedule schedule;
    std::string outDir;
    std::uint64_t checkpointEvery = 0;
    std::uint64_t crashAt = 0;
    std::string ckptDir;
    std::string restorePath;
};

inline cli::Table
chaosFlags(ChaosOptions &o)
{
    std::string names = "all";
    for (std::size_t i = 0; i < chaos::kNumScenarios; ++i)
        names += std::string("|") +
                 chaos::scenarioName(static_cast<chaos::ScenarioKind>(i));
    const cli::Reader scenario{
        [&o](const char *v) {
            chaos::ScenarioKind k{};
            const bool all = std::strcmp(v, "all") == 0;
            if (!all && !chaos::parseScenario(v, k))
                return false;
            o.scenario = all ? std::nullopt : std::optional(k);
            return true;
        },
        names, cli::Kind::Choice};
    const cli::Reader schedule{
        [&o](const char *v) {
            return fault::Schedule::decode(v, o.schedule);
        },
        "site:occurrence:action:magnitude;...", cli::Kind::Custom};
    return {{
        {"--scenario", "NAME", "scenario to run, or all", scenario},
        {"--seeds", "N", "fault seeds per scenario", &o.seeds},
        {"--seed-base", "S", "first fault seed", &o.seedBase},
        {"--jobs", "N", "grid worker threads", cli::jobs(o.jobs)},
        {"--directives", "N", "faults per generated schedule",
         &o.directives},
        {"--horizon", "CYCLES", "scenario activity stops here",
         &o.horizon},
        {"--budget", "EVENTS", "event budget per cell",
         &o.budget},
        {"--no-recovery", "", "disable kernel recovery and final drain",
         &o.noRecovery},
        {"--no-shrink", "", "report failing schedules unshrunk",
         &o.noShrink},
        {"--checkpoint-every", "N",
         "snapshot every N fired events (grid: ckpt_crash cells only)",
         &o.checkpointEvery, 1},
        {"--ckpt-dir", "DIR", "keep snapshot generations here",
         &o.ckptDir},
        {"--out-dir", "DIR", "write a .repro file per failing cell",
         &o.outDir},
        {"--quiet", "", "print failures only", &o.quiet},
        {"--list", "", "list the scenarios and exit", &o.list},
        {"--replay", "", "run one cell (--seed, --schedule)", &o.replay},
        {"--seed", "S", "the --replay cell's seed", &o.seed},
        {"--schedule", "TEXT", "the --replay cell's fault schedule",
         schedule},
        {"--crash-at", "K", "--replay: kill the cell after K events",
         &o.crashAt, 1},
        {"--restore", "FILE", "--replay: resume from a snapshot",
         &o.restorePath},
    }};
}

/** The cell a `--replay` run executes (`o.scenario` is set). */
inline chaos::CellConfig
replayCell(const ChaosOptions &o)
{
    chaos::CellConfig cc;
    cc.kind = *o.scenario;
    cc.seed = o.seed;
    cc.schedule = o.schedule;
    cc.recovery = !o.noRecovery;
    cc.finalDrain = !o.noRecovery;
    cc.horizon = o.horizon;
    cc.eventBudget = o.budget;
    cc.ckptEvery = o.checkpointEvery;
    cc.crashAtEvent = o.crashAt;
    cc.restoreFrom = o.restorePath;
    if (!o.ckptDir.empty()) {
        cc.ckptPathBase = o.ckptDir + "/replay_" +
                          chaos::scenarioName(cc.kind) + "_" +
                          std::to_string(cc.seed) + ".ckpt";
        // Snapshots written on explicit request are the product:
        // keep them so a later --restore can resume from them.
        cc.ckptKeepFiles = true;
    }
    return cc;
}

/** The xui_chaos command whose replayCell() is `cc`. */
inline std::string
replayCommand(const chaos::CellConfig &cc)
{
    const chaos::CellConfig def;
    std::string cmd = std::string("xui_chaos --replay --scenario ") +
                      chaos::scenarioName(cc.kind) + " --seed " +
                      std::to_string(cc.seed) + " --schedule \"" +
                      cc.schedule.encode() + "\"";
    auto add = [&cmd](const char *flag, std::uint64_t v,
                      std::uint64_t unset) {
        if (v != unset)
            cmd += std::string(" ") + flag + " " + std::to_string(v);
    };
    if (!cc.recovery)
        cmd += " --no-recovery";
    add("--horizon", cc.horizon, def.horizon);
    add("--budget", cc.eventBudget, def.eventBudget);
    add("--checkpoint-every", cc.ckptEvery, def.ckptEvery);
    add("--crash-at", cc.crashAtEvent, def.crashAtEvent);
    if (!cc.ckptPathBase.empty())
        cmd += " --ckpt-dir \"" +
               std::filesystem::path(cc.ckptPathBase)
                   .parent_path()
                   .string() +
               "\"";
    return cmd;
}

// ----------------------------------------------------------------
// xui_verify

struct VerifyOptions
{
    /** The sweep (jobs 0 = one per hardware thread). */
    CorpusOptions corpus{.jobs = 0};
    bool quiet = false;
    std::string recordPath;
    std::string replayPath;
    std::uint64_t recordSeed = 1;
    std::string metricsJson;
    std::string traceJson;
    bool roundtrip = false;
    std::string snapshotDir;
};

inline cli::Table
verifyFlags(VerifyOptions &o)
{
    return {{
        {"--programs", "N", "fuzzed programs in the sweep",
         &o.corpus.programs},
        {"--seeds", "K", "system seeds per program", &o.corpus.seeds},
        {"--insts", "M", "committed instructions per run",
         &o.corpus.insts},
        {"--timer-us", "U", "KB-timer period in microseconds",
         &o.corpus.timerUs, cli::kPositive, 1e6},
        {"--safepoints", "", "insert hardware safepoints",
         &o.corpus.safepoints},
        {"--quiet", "", "print failures only", &o.quiet},
        {"--jobs", "N", "sweep worker threads",
         cli::jobs(o.corpus.jobs)},
        {"--record", "FILE", "record one golden trace and exit",
         &o.recordPath},
        {"--replay", "FILE", "replay a golden trace and exit",
         &o.replayPath},
        {"--record-seed", "S", "seed of the --record/--replay run",
         &o.recordSeed},
        {"--roundtrip", "", "golden-corpus checkpoint round trip",
         &o.roundtrip},
        {"--snapshot-dir", "DIR", "--roundtrip through snapshots here",
         &o.snapshotDir},
        {"--metrics-json", "FILE", "write a metrics snapshot",
         &o.metricsJson},
        {"--trace-json", "FILE", "write a Chrome/Perfetto trace",
         &o.traceJson},
    }};
}

// ----------------------------------------------------------------
// bench_obs_overhead

struct ObsOverheadOptions
{
    bool quick = false;
    unsigned trials = 5;
};

inline cli::Table
obsOverheadFlags(ObsOverheadOptions &o)
{
    return {{
        {"--quick", "", "shorter scenario for CI", &o.quick},
        {"--trials", "N", "interleaved A/B trials", &o.trials, 1},
    }};
}

} // namespace xui::tools

#endif // XUI_TOOLS_TOOL_FLAGS_HH
