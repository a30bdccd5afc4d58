/**
 * @file
 * Perf-regression diff over two metrics/bench JSON snapshots.
 *
 * perfDiff() flattens two JSON documents (see json_parse.hh) to
 * dotted numeric paths and compares them under per-metric tolerance
 * rules — the engine behind tools/xui_perfdiff, CI's perf guard:
 *
 *   xui_perfdiff BASELINE.json CURRENT.json \
 *       --rule '*.wall_seconds=skip' \
 *       --rule '*.cycles_per_sec=-75' --tol 0
 *
 * Rule spec grammar (`--rule PATTERN=SPEC`, first match wins,
 * `*` matches any run of characters):
 *
 *   PCT    symmetric: |delta| beyond PCT% of baseline fails
 *   +PCT   only increases fail (latency, counts: higher is worse)
 *   -PCT   only decreases fail (rates: lower is worse)
 *   skip   never compared (host-dependent wall-clock noise)
 *
 * Deterministic simulated quantities diff exactly with the default
 * `--tol 0`. A metric present in the baseline but missing from the
 * current snapshot is a regression (a silently vanished metric must
 * not pass a perf gate); new metrics in current are allowed.
 */

#ifndef XUI_OBS_PERFDIFF_HH
#define XUI_OBS_PERFDIFF_HH

#include <map>
#include <string>
#include <vector>

namespace xui
{

namespace cli
{
struct Table;
} // namespace cli

/** One `--rule` entry (see file comment for the grammar). */
struct TolRule
{
    std::string pattern;
    /** Never compare matching metrics. */
    bool skip = false;
    /** Allowed deviation, percent of |baseline|. */
    double pct = 0.0;
    /** 0 = both directions fail, +1 = increases, -1 = decreases. */
    int direction = 0;
};

struct PerfDiffOptions
{
    /** Tolerance for metrics no rule matches (percent). */
    double defaultTolPct = 0.0;
    /** First matching rule wins. */
    std::vector<TolRule> rules;
};

struct PerfDiffResult
{
    struct Line
    {
        std::string path;
        double baseline = 0.0;
        double current = 0.0;
        /** Percent deviation (0 when baseline == current == 0). */
        double deltaPct = 0.0;
        /** Metric vanished from the current snapshot. */
        bool missing = false;
    };

    /** Metrics outside tolerance, in path order. */
    std::vector<Line> regressions;
    std::size_t compared = 0;
    std::size_t skipped = 0;

    bool ok() const { return regressions.empty(); }
};

/** `*`-wildcard match over the whole string. */
bool matchGlob(const std::string &pattern, const std::string &str);

/** Parse "PATTERN=SPEC" (@return false on malformed spec). */
bool parseTolRule(const std::string &arg, TolRule &out);

/** Compare flattened snapshots under the options' rules. */
PerfDiffResult perfDiff(const std::map<std::string, double> &base,
                        const std::map<std::string, double> &cur,
                        const PerfDiffOptions &opts);

/** What xui_perfdiff's command line holds. */
struct PerfDiffArgs
{
    std::string basePath;
    std::string curPath;
    PerfDiffOptions opts;
    bool list = false;
};

/** xui_perfdiff's flag table (cli/flags.hh), storing into `args`. */
cli::Table perfdiffFlags(PerfDiffArgs &args);

/**
 * Full CLI (argv[0] is the program name): parses flags, loads both
 * files, prints the report.
 * @return 0 clean, 1 regressions found, 2 usage/parse error
 */
int perfdiffMain(int argc, char **argv);

} // namespace xui

#endif // XUI_OBS_PERFDIFF_HH
