/**
 * @file
 * xui_chaos — the deterministic chaos sweep driver.
 *
 * Fans a (scenario x fault-seed) grid across worker threads. Each
 * cell builds its own simulated system, generates a fault schedule
 * from its seed, runs the scenario within its event budget with the
 * delivery ledger attached, and checks the delivery invariants
 * (src/fault/invariants.hh). Failing cells are shrunk greedily to a
 * 1-minimal directive list and reported with a ready-to-paste replay
 * command; --out-dir additionally writes one .repro file per
 * failure (the CI artifact).
 *
 * Every cell is a pure function of (scenario, seed, schedule,
 * flags), so the grid summary and the failure list are bit-identical
 * for every --jobs value, and any reported failure replays exactly:
 *
 *   xui_chaos --replay --scenario kbtimer_periodic --seed 7 \
 *             --schedule "kbtimer_fire:3:drop:0"
 *
 * --no-recovery disables the kernel's graceful-degradation paths
 * (UPID rescan with backoff) and the final resume-drain, modelling a
 * receiver that never comes back: the way to demonstrate that the
 * invariants catch unrecovered loss (expect failures; pair with
 * --out-dir to collect the shrunk reproducers).
 *
 * Checkpoint/restore wiring (DESIGN.md §14): --checkpoint-every N
 * snapshots each cell every N fired events; with --ckpt-dir the
 * snapshots are crash-consistent on-disk generation sets that
 * --restore FILE resumes from (provenance-strict — a snapshot from a
 * different binary is refused, see --version). --crash-at K
 * simulates an in-process kill after K events; recovery restores the
 * newest valid generation and the resumed run must match the
 * crash-free one bit for bit.
 *
 * `--help` prints the flags (tools/tool_flags.hh).
 */

#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>

#include "fault/chaos.hh"
#include "tool_flags.hh"

using namespace xui;

namespace
{

void
printCell(const chaos::CellResult &r)
{
    std::cout << "  posted " << r.posted << ", delivered "
              << r.delivered << ", abandoned " << r.abandoned
              << ", injected " << r.injected << ", handler runs "
              << r.handlerRuns << "\n  recovery: rescan "
              << r.recoveredRescan << ", timer-late "
              << r.recoveredTimerLate << ", fwd-parked "
              << r.recoveredFwdParked << ", spurious-scans "
              << r.spuriousScans;
    if (r.senderRetries != 0 || r.senderFallbacks != 0)
        std::cout << ", sender retries " << r.senderRetries
                  << " fallbacks " << r.senderFallbacks;
    if (r.modFlushes != 0 || r.modCoalesced != 0 ||
        r.modFlushDropped != 0 || r.modFlushDelayed != 0)
        std::cout << "\n  moderation: coalesced " << r.modCoalesced
                  << ", flushes " << r.modFlushes
                  << " (dropped " << r.modFlushDropped
                  << ", delayed " << r.modFlushDelayed
                  << "), coalesced-satisfied "
                  << r.coalescedSatisfied;
    if (r.ckptSnapshots != 0 || r.rollbackRetries != 0 ||
        r.crashRecovered)
        std::cout << "\n  checkpoint: snapshots " << r.ckptSnapshots
                  << ", corrupt-detected " << r.ckptCorruptDetected
                  << ", fallbacks " << r.ckptFallbacks
                  << ", rollback retries " << r.rollbackRetries
                  << " (replayed " << r.rollbackEventsReplayed
                  << " events)"
                  << (r.crashRecovered ? ", crash recovered" : "");
    std::cout << '\n';
}

int
runReplay(const tools::ChaosOptions &opt)
{
    if (!opt.scenario) {
        std::cerr << "--replay needs a concrete --scenario name\n";
        return 2;
    }
    const chaos::CellConfig cc = tools::replayCell(opt);
    if (!opt.ckptDir.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(opt.ckptDir, ec);
        if (ec) {
            std::cerr << "cannot create " << opt.ckptDir << ": "
                      << ec.message() << '\n';
            return 2;
        }
    }

    chaos::CellResult r = chaos::runCell(cc);
    std::cout << "replay " << chaos::scenarioName(cc.kind)
              << " seed " << cc.seed << " schedule \""
              << cc.schedule.encode() << "\": "
              << (r.passed ? "PASS" : "FAIL") << '\n';
    printCell(r);
    for (const auto &v : r.violations)
        std::cout << "  violation: " << v << '\n';
    return r.passed ? 0 : 2;
}

int
runGridMain(const tools::ChaosOptions &opt)
{
    chaos::GridConfig gc;
    if (opt.scenario)
        gc.kinds.push_back(*opt.scenario);
    gc.seeds = opt.seeds;
    gc.seedBase = opt.seedBase;
    gc.jobs = opt.jobs;
    gc.schedule.directives = opt.directives;
    gc.recovery = !opt.noRecovery;
    gc.finalDrain = !opt.noRecovery;
    gc.shrinkFailures = !opt.noShrink;
    gc.horizon = opt.horizon;
    gc.eventBudget = opt.budget;
    gc.ckptDir = opt.ckptDir;
    gc.ckptEvery = opt.checkpointEvery;
    if (!opt.ckptDir.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(opt.ckptDir, ec);
        if (ec) {
            std::cerr << "cannot create " << opt.ckptDir << ": "
                      << ec.message() << '\n';
            return 2;
        }
    }

    chaos::GridOutcome out = chaos::runGrid(gc);

    if (!opt.quiet) {
        std::cout << "chaos grid: " << out.cells << " cells, "
                  << out.injected << " faults injected, "
                  << out.posted << " posted / " << out.delivered
                  << " delivered / " << out.abandoned
                  << " abandoned\n";
    }
    if (!opt.outDir.empty() && !out.failures.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(opt.outDir, ec);
        if (ec)
            std::cerr << "cannot create " << opt.outDir << ": "
                      << ec.message() << '\n';
    }
    for (const auto &rep : out.failures) {
        chaos::CellConfig cell = chaos::gridCell(gc, rep.kind, rep.seed);
        cell.schedule = rep.shrunk;
        const std::string replay = tools::replayCommand(cell);
        std::cout << "FAIL " << chaos::scenarioName(rep.kind)
                  << " seed " << rep.seed << "\n  schedule:  "
                  << rep.schedule.encode() << "\n  shrunk to: "
                  << rep.shrunk.encode() << "\n  replay:    " << replay
                  << '\n';
        for (const auto &v : rep.result.violations)
            std::cout << "  violation: " << v << '\n';
        if (!opt.outDir.empty()) {
            std::string path =
                opt.outDir + "/" +
                std::string(chaos::scenarioName(rep.kind)) + "-" +
                std::to_string(rep.seed) + ".repro";
            std::ofstream f(path);
            // Provenance stamp: replaying a .repro against a
            // different binary is the classic silent-divergence
            // trap, so record the producer (cf. --version).
            f << "# built-by: " << cli::provenance() << '\n';
            f << replay << '\n';
            for (const auto &v : rep.result.violations)
                f << "# " << v << '\n';
        }
    }
    if (!opt.quiet) {
        std::cout << (out.failed == 0 ? "all cells passed"
                                      : "FAILED cells: ")
                  << (out.failed == 0 ? std::string()
                                      : std::to_string(out.failed))
                  << '\n';
    }
    return out.failed == 0 ? 0 : 2;
}

} // namespace

int
main(int argc, char **argv)
{
    tools::ChaosOptions opt;
    // Usage errors exit 2, matching the bench convention, so CI can
    // tell "bad invocation" apart from "cells failed" (also 2 — both
    // mean the run produced no trustworthy result).
    cli::parseOrExit(tools::chaosFlags(opt), argc, argv);
    if (!opt.restorePath.empty() && !opt.replay) {
        std::cerr << "--restore is a --replay flag (a snapshot "
                     "resumes one cell, not a grid)\n";
        return 2;
    }
    if (opt.crashAt != 0 && !opt.replay) {
        std::cerr << "--crash-at is a --replay flag (grid cells "
                     "pick seed-determined crash points)\n";
        return 2;
    }
    if (opt.list) {
        for (std::size_t i = 0; i < chaos::kNumScenarios; ++i)
            std::cout << chaos::scenarioName(
                             static_cast<chaos::ScenarioKind>(i))
                      << '\n';
        return 0;
    }
    if (opt.replay)
        return runReplay(opt);
    return runGridMain(opt);
}
