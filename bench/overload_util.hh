/**
 * @file
 * The one saturation frontier behind fig7 and fig8 `--offered-load`
 * and tools/bench_overload: the two policy panels, one
 * policy x load sweep per half (l3fwd, KV server), and the
 * overload-survival rule. Each caller supplies the durations, route
 * counts and loads and keeps its own table layout; sharing the rest
 * guarantees the benches and the reference generator measure the
 * same configurations.
 */

#ifndef XUI_BENCH_OVERLOAD_UTIL_HH
#define XUI_BENCH_OVERLOAD_UTIL_HH

#include <algorithm>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "kv/server.hh"
#include "net/l3fwd.hh"

namespace xui::bench
{

/** Nominal fig7 saturation (requests/s) the load ladder scales. */
constexpr double kKvSaturationRps = 250000.0;

/** Moderation default when --itr-ns is not given. */
constexpr std::uint64_t kDefaultItrNs = 1000;

/** The policy panels, in table order. `adaptive` is a runtime (KV)
 *  mechanism; every other policy acts on l3fwd's NIC delivery. */
inline const std::vector<std::string> kL3Panel{
    "off",           "next_or_missed_edge", "next_or_missed_level",
    "next_only_edge", "next_only_level",    "moderated"};
inline const std::vector<std::string> kKvPanel{"off", "adaptive"};

/**
 * parseArgs() for a binary whose `--offered-load` frontier sweeps
 * `panel`. Only the frontier reads `--policy`, and only a policy of
 * the panel changes it; any other `--policy` would be ignored, so it
 * is a usage error (exit 2).
 */
inline Options
parseFrontierArgs(int argc, char **argv, std::uint32_t reads,
                  const std::vector<std::string> &panel)
{
    Options opts = parseArgs(argc, argv, reads);
    const bool frontier = opts.offeredLoad > 0.0;
    if (!opts.policyGiven ||
        (frontier && std::count(panel.begin(), panel.end(),
                                opts.policy.name) > 0))
        return opts;
    std::exit(cli::finish(
        flagTable(opts, reads),
        {cli::Reject::BadValue,
         "--policy " + opts.policy.name +
             (frontier ? " is not in this frontier's panel"
                       : " is read only with --offered-load")},
        argv[0]));
}

/**
 * One half of a frontier: every policy at every load, policy-major
 * (point p runs policy p / loads.size() at load p % loads.size()).
 * Loads are fractions of the saturation point.
 */
struct Frontier
{
    std::vector<PolicyChoice> policies{};
    std::vector<double> loads{};
    Cycles duration = 0;
    /** LPM table size (l3fwd only). */
    std::size_t routes = 0;
    std::uint64_t seed = 1, itrNs = 0;

    /** `panel`, or only `opts.policy` when --policy was given. */
    static std::vector<PolicyChoice>
    policiesOf(const std::vector<std::string> &panel,
               const Options &opts)
    {
        if (opts.policyGiven)
            return {opts.policy};
        std::vector<PolicyChoice> out;
        for (const std::string &name : panel)
            for (const PolicyChoice &c : kPolicyChoices)
                if (c.name == name)
                    out.push_back(c);
        return out;
    }

    const PolicyChoice &policy(std::size_t p) const
    {
        return policies[p / loads.size()];
    }
    double load(std::size_t p) const { return loads[p % loads.size()]; }

    /** XuiForwarded l3fwd on 2 NICs. `moderated` sets the ITR to
     *  `itrNs` (0 = the default) and coalesces over half of it. */
    L3FwdConfig
    l3(const PolicyChoice &pc, double at) const
    {
        L3FwdConfig cfg;
        cfg.mode = RxMode::XuiForwarded;
        cfg.numNics = 2;
        cfg.duration = duration;
        cfg.routeCount = routes;
        cfg.load = at;
        cfg.seed = seed;
        if (pc.moderated) {
            cfg.moderation.itr =
                static_cast<Cycles>(itrNs ? itrNs : kDefaultItrNs) *
                kCyclesPerUs / 1000;
            cfg.moderation.coalesceWindow = cfg.moderation.itr / 2;
        } else if (pc.enabled && !pc.adaptive) {
            cfg.policyEnabled = true;
            cfg.policy = pc.policy;
        }
        return cfg;
    }

    /** The xUI KV server. `adaptive` tightens the quantum as the
     *  server crosses into overload: its watermarks bracket the
     *  saturation arrival rate of 25 per 100 us window. */
    KvServerConfig
    kv(const PolicyChoice &pc, double at) const
    {
        KvServerConfig cfg;
        cfg.mode = PreemptMode::XuiKbTimer;
        cfg.offeredLoadRps = at * kKvSaturationRps;
        cfg.duration = duration;
        cfg.seed = seed;
        if (pc.adaptive)
            cfg.adaptive = {.window = usToCycles(100),
                            .highWatermark = 28,
                            .lowWatermark = 15,
                            .tightQuantum = cfg.quantum / 4};
        return cfg;
    }

    L3FwdResult runL3(std::size_t p) const
    {
        return runL3Fwd(l3(policy(p), load(p)));
    }
    KvServerResult runKv(std::size_t p) const
    {
        return runKvServer(kv(policy(p), load(p)));
    }
};

/** The frontier's load ladder: fractions of the saturation point up
 *  to the `--offered-load` multiplier. */
inline std::vector<double>
loadLadder(double multiplier)
{
    return {0.2 * multiplier, 0.4 * multiplier, 0.6 * multiplier,
            0.8 * multiplier, multiplier};
}

/**
 * The overload-survival rule: with ITR moderation at the top load,
 * l3fwd sustains at least the unmoderated ("off") policy's peak
 * throughput over every load. A policy the panel lacks reads 0.
 */
struct PeakRule
{
    double offPeak = 0.0, moderatedAtTop = 0.0;

    PeakRule(const Frontier &f, const std::vector<L3FwdResult> &cells)
    {
        for (std::size_t p = 0; p < cells.size(); ++p) {
            if (f.policy(p).name == "off")
                offPeak = std::max(offPeak, cells[p].throughputMpps);
            if (f.policy(p).moderated && f.load(p) == f.loads.back())
                moderatedAtTop = cells[p].throughputMpps;
        }
    }
    bool sustains() const { return moderatedAtTop >= offPeak; }
};

} // namespace xui::bench

#endif // XUI_BENCH_OVERLOAD_UTIL_HH
