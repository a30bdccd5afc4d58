/**
 * @file
 * Observability-overhead smoke: pins the "zero cost when detached"
 * claim for the pipeline-pressure profiler (src/obs/sampler.hh).
 *
 * Runs the same deterministic scenario twice per trial, in-process
 * and interleaved to cancel host drift:
 *
 *   A  detached  — no cycle hook installed (the shipping default);
 *   B  attached  — a profiler probe installed with sampling AND tax
 *                  off, so the hook's fast path (two integer
 *                  compares against the absolute liveSpans /
 *                  nextSampleAt marks, no virtual call) runs every
 *                  cycle but never fires.
 *
 * B's cost is a strict upper bound on the cost the hook adds to an
 * unprofiled run: the detached path is B minus even the compares.
 * The gate fails (exit 1) when the median attached slowdown exceeds
 * 2% — the budget CI grants the whole observation layer.
 *
 * `--help` prints the flags (tools/tool_flags.hh).
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <vector>

#include "obs/sampler.hh"
#include "uarch/uarch_system.hh"
#include "verify/scenario.hh"
#include "tool_flags.hh"

namespace
{

constexpr double kBudgetPct = 2.0;

double
runOnce(const xui::ScenarioConfig &cfg, bool attached)
{
    using clock = std::chrono::steady_clock;
    // Sampling off (stride 0) + tax off: the hook is installed but
    // its onCycle() never fires — we time the dead branch itself.
    xui::ProfileConfig pc;
    xui::PipelinePressureProfiler prof(pc, nullptr, nullptr);
    std::function<void(xui::UarchSystem &)> pre;
    if (attached)
        pre = [&prof](xui::UarchSystem &sys) {
            prof.attachCore(sys.core(0));
        };
    auto t0 = clock::now();
    xui::ScenarioResult r =
        xui::runScenario(cfg, nullptr, nullptr,
                         attached ? &prof : nullptr, pre);
    auto t1 = clock::now();
    if (!r.ok()) {
        std::fprintf(stderr,
                     "bench_obs_overhead: scenario violation: %s\n",
                     r.violations.front().c_str());
        std::exit(2);
    }
    return std::chrono::duration<double>(t1 - t0).count();
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
}

} // namespace

int
main(int argc, char **argv)
{
    xui::tools::ObsOverheadOptions opt;
    xui::cli::parseOrExit(xui::tools::obsOverheadFlags(opt), argc, argv);

    xui::ScenarioConfig cfg;
    cfg.programSeed = 7;
    cfg.systemSeed = 7 * 1000003 + 17;
    cfg.timerPeriod = 600;
    cfg.targetInsts = opt.quick ? 20000 : 100000;
    cfg.extraCycles = 4000;

    // Warm-up run (page in code + allocator state) then interleaved
    // A/B trials; medians cancel one-off host noise.
    runOnce(cfg, false);
    std::vector<double> detached, attached;
    for (unsigned t = 0; t < opt.trials; ++t) {
        detached.push_back(runOnce(cfg, false));
        attached.push_back(runOnce(cfg, true));
    }

    double d = median(detached);
    double a = median(attached);
    double pct = (a - d) / d * 100.0;
    std::printf("bench_obs_overhead: detached %.6fs, attached "
                "(sampling off) %.6fs, delta %+.2f%% (budget "
                "%.1f%%, %u trials)\n",
                d, a, pct, kBudgetPct, opt.trials);
    if (pct > kBudgetPct) {
        std::printf("FAIL: profiling hook costs more than %.1f%% "
                    "with sampling off\n",
                    kBudgetPct);
        return 1;
    }
    std::printf("PASS\n");
    return 0;
}
