/**
 * @file
 * Figure 8 reproduction: l3fwd efficiency — cycle accounting
 * (networking / polling / notification / free) and p95 latency for
 * spin-polling vs xUI interrupt forwarding, across offered load and
 * 1/2/4/8 NIC queues, with the 16,000-entry DIR-24-8 LPM table.
 */

#include <iostream>
#include <string>
#include <vector>

#include "figure.hh"
#include "net/l3fwd.hh"
#include "overload_util.hh"

using namespace xui;

namespace
{

/** One run of `f`'s configuration under `pc` at `load`, shortened,
 *  with l3fwd.* metrics and the DES event stream recorded. */
void
instrumentL3(ObsSession &obs, bench::Frontier f,
             const bench::PolicyChoice &pc, double load, bool quick)
{
    f.duration = (quick ? 10 : 40) * kCyclesPerMs;
    f.routes = quick ? 2000 : 16000;
    L3FwdConfig cfg = f.l3(pc, load);
    cfg.metrics = obs.metrics();
    cfg.traceOut = obs.trace();
    runL3Fwd(cfg);
}

/**
 * Saturation frontier (--offered-load): push the open-loop offered
 * load up to `multiplier` x the core's forwarding capacity under
 * each delivery policy and print the throughput-vs-tail frontier.
 */
int
runFrontier(const bench::Options &opts, Cycles duration,
            std::size_t routes)
{
    const bench::Frontier f{
        .policies = bench::Frontier::policiesOf(bench::kL3Panel, opts),
        .loads = bench::loadLadder(opts.offeredLoad),
        .duration = duration,
        .routes = routes,
        .seed = opts.seed,
        .itrNs = opts.itrNs};
    return bench::runFigure<L3FwdResult>(opts, {
        .title = "l3fwd saturation frontier (overload survival)",
        .paperRef = "delivery policies and ITR moderation past "
                    "saturation",
        .tables = f.policies.size(), .rows = f.loads.size(), .cols = 1,
        .run = [&](bench::Point p) {
            return f.runL3(p.t * f.loads.size() + p.r);
        },
        .caption = [&](std::size_t t) {
            return "policy = " + f.policies[t].name +
                   " (loads are fractions of capacity)";
        },
        .header = {"Load", "Forwarded", "Dropped", "Mpps", "p50 us",
                   "p95 us", "p99 us", "Coalesced", "Missed",
                   "Recovered"},
        .row = [&](std::size_t r, std::span<const L3FwdResult> c) {
            const L3FwdResult &x = c[0];
            return std::vector<std::string>{
                TablePrinter::percent(f.loads[r], 0),
                TablePrinter::integer(x.forwarded),
                TablePrinter::integer(x.dropped),
                TablePrinter::num(x.throughputMpps, 3),
                bench::usText(x.latency.p50(), 2),
                bench::usText(x.latency.p95(), 2),
                bench::usText(x.latency.p99(), 2),
                TablePrinter::integer(x.coalesced),
                TablePrinter::integer(x.missed),
                TablePrinter::integer(x.missedRecovered)};
        },
        .epilogue = [&](const std::vector<L3FwdResult> &cells) {
            const bench::PeakRule peak(f, cells);
            if (peak.offPeak > 0.0 && peak.moderatedAtTop > 0.0)
                std::cout << "moderated @" << opts.offeredLoad
                          << "x load: " << peak.moderatedAtTop
                          << " Mpps vs unmoderated peak " << peak.offPeak
                          << " Mpps ("
                          << (peak.sustains()
                                  ? "sustains the peak"
                                  : "BELOW the unmoderated peak")
                          << ")\n";
        },
        // At the full overload point, under the last policy of the
        // panel (moderated) or the one --policy names.
        .instrument = [&](ObsSession &obs) {
            instrumentL3(obs, f, f.policies.back(), opts.offeredLoad,
                         opts.quick);
        },
    });
}

} // namespace

int
main(int argc, char **argv)
{
    const auto opts = bench::parseFrontierArgs(
        argc, argv,
        bench::kObsScenario | bench::kJobs | bench::kItrNs |
            bench::kOfferedLoad | bench::kPolicy,
        bench::kL3Panel);
    const Cycles duration = (opts.quick ? 20 : 100) * kCyclesPerMs;
    const std::size_t routes = opts.quick ? 4000 : 16000;
    if (opts.offeredLoad > 0.0)
        return runFrontier(opts, duration, routes);

    const std::vector<unsigned> nic_counts{1u, 2u, 4u, 8u};
    const std::vector<double> loads{0.1, 0.2, 0.4, 0.6, 0.8};
    const RxMode modes[] = {RxMode::Polling, RxMode::XuiForwarded};
    return bench::runFigure<L3FwdResult>(opts, {
        .title = "Figure 8: Improving l3fwd efficiency",
        .paperRef = "xUI paper, Fig. 8 (free cycles and latency vs "
                    "load, 1/2/4/8 NICs)",
        .tables = nic_counts.size(), .rows = loads.size(),
        .cols = std::size(modes),
        .run = [&](bench::Point p) {
            L3FwdConfig cfg;
            cfg.mode = modes[p.c];
            cfg.duration = duration;
            cfg.routeCount = routes;
            cfg.numNics = nic_counts[p.t];
            cfg.load = loads[p.r];
            cfg.seed = opts.seed;
            return runL3Fwd(cfg);
        },
        .caption = [&](std::size_t t) {
            return "NICs = " + std::to_string(nic_counts[t]) +
                   " (cycle fractions; latency in us)";
        },
        .header = {"Load", "poll net%", "poll free%", "xUI net%",
                   "xUI notif%", "xUI free%", "poll p95", "xUI p95",
                   "thr ratio"},
        .row = [&](std::size_t r, std::span<const L3FwdResult> c) {
            const L3FwdResult &poll = c[0], &xui = c[1];
            return std::vector<std::string>{
                TablePrinter::percent(loads[r], 0),
                TablePrinter::percent(poll.networkingFrac, 1),
                TablePrinter::percent(poll.freeFrac, 1),
                TablePrinter::percent(xui.networkingFrac, 1),
                TablePrinter::percent(xui.notificationFrac, 1),
                TablePrinter::percent(xui.freeFrac, 1),
                bench::usText(poll.latency.p95(), 2),
                bench::usText(xui.latency.p95(), 2),
                TablePrinter::num(
                    poll.forwarded
                        ? static_cast<double>(xui.forwarded) /
                              static_cast<double>(poll.forwarded)
                        : 1.0,
                    4)};
        },
        .epilogue = [](const std::vector<L3FwdResult> &) {
            std::cout << "Paper anchors: polling always burns 100% of "
                         "the core; at 40% load with 1 queue\nxUI "
                         "leaves ~45% of cycles free; throughput within "
                         "0.08%; p95 within +2%/-8%/+65%\nfor 1/4/8 "
                         "NICs.\n";
        },
        .instrument = [&](ObsSession &obs) {
            instrumentL3(obs, {.seed = opts.seed}, {}, 0.4, opts.quick);
        },
    });
}
