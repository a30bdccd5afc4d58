/**
 * @file
 * Shared helpers for the bench binaries: the bench flag table and
 * header banners.
 *
 * flagTable() holds one row per bench flag (src/cli/flags.hh). Each
 * bench passes the Flags it reads to parseArgs() and rejects every
 * other flag. `--help` lists a bench's flags and `--version` prints
 * the build provenance stamped into snapshot headers; a usage error
 * prints usage to stderr and exits 2.
 */

#ifndef XUI_BENCH_BENCH_UTIL_HH
#define XUI_BENCH_BENCH_UTIL_HH

#include <cstdint>
#include <cstdio>
#include <iterator>
#include <string>

#include "cli/flags.hh"
#include "intr/policy.hh"

namespace xui::bench
{

/**
 * Parsed `--policy NAME` choice. The names map onto the delivery
 * policies in src/intr/policy.hh plus the two mechanism knobs:
 *  - off (default): the legacy protocol, bit-identical runs;
 *  - next_only_edge / next_only_level / next_or_missed_edge /
 *    next_or_missed_level: a (behavior x trigger) combination;
 *  - moderated: ITR moderation + coalescing (see --itr-ns);
 *  - adaptive: load-adaptive preemption quantum (fig7 runtime).
 */
struct PolicyChoice
{
    std::string name = "off";
    /** True for every choice other than "off". */
    bool enabled = false;
    DeliveryPolicy policy{};
    bool moderated = false;
    bool adaptive = false;
};

inline const PolicyChoice kPolicyChoices[] = {
    {"off"},
    {"next_only_edge", true,
     {DeliveryBehavior::NextOnly, TriggerMode::Edge}},
    {"next_only_level", true,
     {DeliveryBehavior::NextOnly, TriggerMode::Level}},
    {"next_or_missed_edge", true,
     {DeliveryBehavior::NextOrMissed, TriggerMode::Edge}},
    {"next_or_missed_level", true,
     {DeliveryBehavior::NextOrMissed, TriggerMode::Level}},
    {"moderated", true, {}, true},
    {"adaptive", true, {}, false, true},
};

/** @return false when `v` names no policy (`out` untouched). */
inline bool
parsePolicyName(const char *v, PolicyChoice &out)
{
    for (const PolicyChoice &c : kPolicyChoices) {
        if (c.name == v) {
            out = c;
            return true;
        }
    }
    return false;
}

/** "off|next_only_edge|...": every --policy name. */
inline std::string
policyUsageNames()
{
    std::string names;
    for (const PolicyChoice &c : kPolicyChoices)
        names += (names.empty() ? "" : "|") + c.name;
    return names;
}

/** Strict decimal parse: digits only, no sign, no trailing junk. */
using cli::parseU64Strict;

/** The bench flag values; flagTable() documents each flag. */
struct Options
{
    bool quick = false;
    std::uint64_t seed = 1;
    /** 0 = one worker per hardware thread. */
    unsigned jobs = 0;
    /** Empty = no export. */
    std::string metricsJson, traceJson;
    /** 0 = no counter sampling. */
    std::uint64_t counterStride = 0;
    bool tax = false;
    PolicyChoice policy;
    /** --policy was given (even as "off"): the frontier runs only
     *  that policy instead of the full panel. */
    bool policyGiven = false;
    /** 0 = the bench's default rate limit. */
    std::uint64_t itrNs = 0;
    /** > 0 runs the saturation frontier instead of the figure. */
    double offeredLoad = 0.0;
    /** 256 = unset: no co-tenancy section. */
    std::uint64_t rtVector = 256;
    std::uint64_t rtPriority = kNumPriorityLevels - 1;
    bool ff = false;
    std::uint64_t detailWindow = 512;
    /** 0 = no checkpoints. */
    std::uint64_t checkpointEvery = 0;
    std::string restorePath;
};

/**
 * One bit per shared bench flag, in flagTable() row order. A bench
 * passes the set it reads to parseArgs() and rejects the rest.
 */
enum Flags : std::uint32_t
{
    kQuick = 1u << 0,
    kSeed = 1u << 1,
    kJobs = 1u << 2,
    kMetricsJson = 1u << 3,
    kTraceJson = 1u << 4,
    kCounterStride = 1u << 5,
    kTax = 1u << 6,
    kPolicy = 1u << 7,
    kItrNs = 1u << 8,
    kOfferedLoad = 1u << 9,
    kRtVector = 1u << 10,
    kPriority = 1u << 11,
    kFf = 1u << 12,
    kDetailWindow = 1u << 13,
    kCheckpointEvery = 1u << 14,
    kRestore = 1u << 15,
    kAllFlags = (1u << 16) - 1,
    /** The ObsSession exports. */
    kObs = kMetricsJson | kTraceJson,
    /** kObs plus everything runObsScenario() reads (obs_util.hh). */
    kObsScenario = kObs | kQuick | kSeed | kCounterStride | kTax,
};

/** The rows of `reads`, storing into `o`. */
inline cli::Table
flagTable(Options &o, std::uint32_t reads)
{
    const cli::Reader policy{
        [&o](const char *v) {
            o.policyGiven = parsePolicyName(v, o.policy);
            return o.policyGiven;
        },
        policyUsageNames(), cli::Kind::Choice};
    cli::Flag rows[] = {
        {"--quick", "", "shorter runs for CI", &o.quick},
        {"--seed", "N", "simulation seed", &o.seed},
        {"--jobs", "N", "config-grid sweep threads (any N gives "
                        "bit-identical results)",
         cli::jobs(o.jobs)},
        {"--metrics-json", "FILE", "write a metrics snapshot",
         &o.metricsJson},
        {"--trace-json", "FILE", "write a Chrome/Perfetto trace",
         &o.traceJson},
        {"--counter-stride", "N",
         "sample counter tracks into the trace every N cycles",
         &o.counterStride},
        {"--tax", "", "attribute interrupt cycles to core.tax.* buckets",
         &o.tax},
        {"--policy", "NAME",
         "run the frontier under this delivery policy only", policy},
        {"--itr-ns", "N", "moderation rate limit in ns", &o.itrNs},
        {"--offered-load", "X",
         "run the saturation frontier up to X times saturation",
         &o.offeredLoad, cli::kPositive, 1e12},
        {"--rt-vector", "V", "run the co-tenancy sweep with RT vector V",
         &o.rtVector, 0, 63},
        {"--priority", "P", "the RT vector's priority level",
         &o.rtPriority, 0, kNumPriorityLevels - 1},
        {"--ff", "", "also run every FF-capable scenario's sampled pass",
         &o.ff},
        {"--detail-window", "N",
         "detail cycles around each interrupt edge in sampled passes",
         &o.detailWindow, 1},
        {"--checkpoint-every", "N",
         "snapshot every N committed cycles to disk",
         &o.checkpointEvery, 1},
        {"--restore", "FILE", "resume from a snapshot (provenance-strict)",
         &o.restorePath},
    };
    cli::Table t;
    for (std::size_t i = 0; i < std::size(rows); ++i)
        if (reads & (1u << i))
            t.flags.push_back(std::move(rows[i]));
    return t;
}

/** Parse the flags in `reads`; usage errors exit 2 (cli::finish). */
inline Options
parseArgs(int argc, char **argv, std::uint32_t reads)
{
    Options opts;
    cli::parseOrExit(flagTable(opts, reads), argc, argv);
    return opts;
}

inline void
banner(const char *title, const char *paper_ref)
{
    std::printf("\n================================================="
                "=====================\n");
    std::printf("%s\n", title);
    std::printf("Reproduces: %s\n", paper_ref);
    std::printf("==================================================="
                "===================\n\n");
}

} // namespace xui::bench

#endif // XUI_BENCH_BENCH_UTIL_HH
