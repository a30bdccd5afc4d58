/**
 * @file
 * Overload-survival reference benchmark (BENCH_overload.json).
 *
 * Runs the saturation frontiers the fig7/fig8 overload sections
 * expose — l3fwd under each delivery policy at and past saturation,
 * the KV server with fixed vs adaptive quantum — on fixed seeds and
 * quick-sized durations, prints the frontier, and emits
 * BENCH_overload.json (cwd) as the committed reference. The run
 * also enforces the overload-survival acceptance bar: with ITR
 * moderation enabled at the 2x point, l3fwd must sustain at least
 * the unmoderated policy's peak throughput (exit 1 otherwise), so
 * CI fails if moderation ever costs peak throughput. A JSON file
 * that cannot be written also exits 1.
 */

#include <cinttypes>
#include <cstdio>
#include <iostream>
#include <vector>

#include "exec/sweep.hh"
#include "overload_util.hh"

using namespace xui;

namespace
{

/** @return false when the file cannot be opened or written. */
bool
writeJson(const char *path, const bench::Frontier &l3f,
          const std::vector<L3FwdResult> &l3,
          const bench::Frontier &kvf,
          const std::vector<KvServerResult> &kv, bool sustains,
          const bench::Options &opts)
{
    std::FILE *f = std::fopen(path, "w");
    if (f == nullptr)
        return false;
    std::fprintf(f, "{\n  \"bench\": \"overload\",\n");
    std::fprintf(f, "  \"quick\": %s,\n",
                 opts.quick ? "true" : "false");
    std::fprintf(f, "  \"seed\": %" PRIu64 ",\n", opts.seed);
    std::fprintf(f, "  \"l3fwd\": [\n");
    for (std::size_t i = 0; i < l3.size(); ++i) {
        const L3FwdResult &r = l3[i];
        std::fprintf(
            f,
            "    {\"policy\": \"%s\", \"load\": %.2f, "
            "\"forwarded\": %" PRIu64 ", \"dropped\": %" PRIu64 ", "
            "\"throughput_mpps\": %.4f, \"p95_us\": %.2f, "
            "\"p99_us\": %.2f, \"coalesced\": %" PRIu64 ", "
            "\"missed\": %" PRIu64 ", \"missed_recovered\": %" PRIu64
            "}%s\n",
            l3f.policy(i).name.c_str(), l3f.load(i), r.forwarded,
            r.dropped, r.throughputMpps,
            cyclesToUs(static_cast<Cycles>(r.latency.p95())),
            cyclesToUs(static_cast<Cycles>(r.latency.p99())),
            r.coalesced, r.missed, r.missedRecovered,
            i + 1 < l3.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n  \"kv\": [\n");
    for (std::size_t i = 0; i < kv.size(); ++i) {
        const KvServerResult &r = kv[i];
        std::fprintf(
            f,
            "    {\"policy\": \"%s\", \"load_rps\": %.0f, "
            "\"achieved_rps\": %.0f, \"get_p99_us\": %.1f, "
            "\"scan_p99_us\": %.1f}%s\n",
            kvf.policy(i).name.c_str(),
            kvf.load(i) * bench::kKvSaturationRps, r.achievedRps,
            cyclesToUs(static_cast<Cycles>(r.getLatency.p99())),
            cyclesToUs(static_cast<Cycles>(r.scanLatency.p99())),
            i + 1 < kv.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n");
    std::fprintf(f, "  \"moderated_sustains_unmoderated_peak\": %s\n",
                 sustains ? "true" : "false");
    std::fprintf(f, "}\n");
    const bool written = std::ferror(f) == 0;
    return std::fclose(f) == 0 && written;
}

} // namespace

int
main(int argc, char **argv)
{
    const auto opts = bench::parseArgs(argc, argv,
                                       bench::kQuick | bench::kSeed |
                                           bench::kItrNs |
                                           bench::kOfferedLoad);
    bench::banner(
        "Overload survival reference (BENCH_overload.json)",
        "delivery policies, ITR moderation, adaptive quantum past "
        "saturation");

    const double multiplier =
        opts.offeredLoad > 0.0 ? opts.offeredLoad : 2.0;
    const bench::Frontier l3f{
        .policies = bench::Frontier::policiesOf(bench::kL3Panel, opts),
        .loads = {1.0, multiplier},
        .duration = (opts.quick ? 20 : 50) * kCyclesPerMs,
        .routes = 4000,
        .seed = opts.seed,
        .itrNs = opts.itrNs};
    const bench::Frontier kvf{
        .policies = bench::Frontier::policiesOf(bench::kKvPanel, opts),
        .loads = {1.0, multiplier},
        .duration = (opts.quick ? 60 : 150) * kCyclesPerMs,
        .seed = opts.seed};
    const std::vector<L3FwdResult> l3 =
        exec::sweep(l3f.policies.size() * l3f.loads.size(), opts.jobs,
                    [&l3f](std::size_t p) { return l3f.runL3(p); });
    const std::vector<KvServerResult> kv =
        exec::sweep(kvf.policies.size() * kvf.loads.size(), opts.jobs,
                    [&kvf](std::size_t p) { return kvf.runKv(p); });

    TablePrinter lt("l3fwd frontier (2 NICs, loads are fractions "
                    "of capacity)");
    lt.setHeader({"Policy", "Load", "Mpps", "Dropped", "p99 us",
                  "Coalesced", "Missed"});
    for (std::size_t p = 0; p < l3.size(); ++p)
        lt.addRow({l3f.policy(p).name,
                   TablePrinter::num(l3f.load(p), 2),
                   TablePrinter::num(l3[p].throughputMpps, 3),
                   TablePrinter::integer(l3[p].dropped),
                   bench::usText(l3[p].latency.p99(), 2),
                   TablePrinter::integer(l3[p].coalesced),
                   TablePrinter::integer(l3[p].missed)});
    lt.print(std::cout);
    std::cout << '\n';

    TablePrinter kt("KV server frontier (xUI KB timer)");
    kt.setHeader({"Policy", "Load rps", "Achieved rps",
                  "GET p99 us", "SCAN p99 us"});
    for (std::size_t p = 0; p < kv.size(); ++p)
        kt.addRow({kvf.policy(p).name,
                   TablePrinter::num(
                       kvf.load(p) * bench::kKvSaturationRps, 0),
                   TablePrinter::num(kv[p].achievedRps, 0),
                   bench::usText(kv[p].getLatency.p99(), 1),
                   bench::usText(kv[p].scanLatency.p99(), 1)});
    kt.print(std::cout);

    const bench::PeakRule peak(l3f, l3);
    std::cout << "\nmoderated @" << multiplier
              << "x: " << peak.moderatedAtTop
              << " Mpps vs unmoderated peak " << peak.offPeak
              << " Mpps -> "
              << (peak.sustains() ? "sustains the peak"
                                  : "FAILS the overload-survival bar")
              << '\n';

    const char *path = "BENCH_overload.json";
    if (!writeJson(path, l3f, l3, kvf, kv, peak.sustains(), opts)) {
        std::fprintf(stderr, "cannot write %s\n", path);
        return 1;
    }
    std::printf("wrote %s\n", path);
    return peak.sustains() ? 0 : 1;
}
