/**
 * @file
 * The xui_verify corpus sweep as a library: N fuzz programs × K
 * system seeds, each pair run through the double-run determinism
 * check and the three-way delivery-mode differential, plus the
 * cross-seed architectural-equivalence comparison against each
 * program's first seed.
 *
 * The sweep fans the (program, seed) grid out across worker threads
 * (exec::sweep) — every job owns its own UarchSystem, RNG streams,
 * digest tracer, and MetricsRegistry — and reduces in job-index
 * order, so the summary (counts, floating-point latency means,
 * failure list, merged metrics snapshot, rendered table) is
 * bit-identical for every `jobs` value. In particular the failure
 * list is always ordered by (program, seed) with the per-pair
 * check order fixed, so the *first* reported divergence is the
 * lowest failing pair no matter which job finished first.
 */

#ifndef XUI_VERIFY_CORPUS_HH
#define XUI_VERIFY_CORPUS_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "obs/metrics.hh"
#include "verify/differential.hh"
#include "verify/scenario.hh"

namespace xui
{

/** The corpus grid and per-scenario knobs. */
struct CorpusOptions
{
    std::uint64_t programs = 20;
    std::uint64_t seeds = 2;
    std::uint64_t insts = 20000;
    double timerUs = 2.0;
    bool safepoints = false;
    /** Worker threads for the sweep (0 = hardware concurrency). */
    unsigned jobs = 1;
};

/** Everything one (program, seed) job produces. */
struct CorpusPairOutcome
{
    DeterminismReport det;
    DifferentialReport diff;
};

/**
 * Seam for tests: runs one (program, seed) scenario pair. The
 * default (empty function) runs checkDeterminism + runDifferential
 * for real. A custom runner must be safe to call concurrently when
 * jobs > 1.
 */
using CorpusPairRunner =
    std::function<CorpusPairOutcome(const ScenarioConfig &)>;

/** Aggregated sweep outcome, reduced in (program, seed) order. */
struct CorpusSummary
{
    std::uint64_t runs = 0;
    std::uint64_t determinismFails = 0;
    std::uint64_t differentialFails = 0;
    std::uint64_t crossSeedFails = 0;
    /** Ordered by (program, seed); first entry is the lowest
     *  failing pair. */
    std::vector<std::string> failures;

    /** Latency-mean accumulators (summed in job-index order). */
    double flushLat = 0.0;
    double drainLat = 0.0;
    double trackedLat = 0.0;
    std::uint64_t latSamples = 0;

    /** Per-job registries merged in job-index order. */
    std::unique_ptr<MetricsRegistry> metrics;

    bool ok() const { return failures.empty(); }
};

/** The ScenarioConfig the corpus runs for (program p, seed s). */
ScenarioConfig corpusPairConfig(const CorpusOptions &opt,
                                std::uint64_t program,
                                std::uint64_t seed);

/**
 * Run the full corpus sweep.
 * @param runner optional per-pair runner override (tests).
 */
CorpusSummary runVerifyCorpus(const CorpusOptions &opt,
                              const CorpusPairRunner &runner = {});

/**
 * Render the summary exactly as the xui_verify CLI prints it:
 * check table, failure list (capped at 40 lines unless `quiet`),
 * and the PASS/FAIL verdict.
 */
std::string renderCorpusSummary(const CorpusOptions &opt,
                                const CorpusSummary &summary,
                                bool quiet = false);

/** The merged metrics snapshot as JSON (deterministic). */
std::string corpusMetricsJson(const CorpusSummary &summary);

} // namespace xui

#endif // XUI_VERIFY_CORPUS_HH
