/**
 * @file
 * Golden-corpus checkpoint round-trip sweep: prove that a run
 * interrupted at an arbitrary cycle boundary and resumed from a
 * snapshot is bit-identical (full timing digest, architectural
 * digest, event count, final cycle) to the uninterrupted run — for
 * every row of the 96-row golden corpus pinned by the determinism
 * tests (32 seeds x 3 delivery strategies).
 *
 * Each row optionally drives its checkpoint through the on-disk
 * crash-consistent snapshot engine (ckpt/snapshot.hh) under a
 * row-unique path, so both the byte codec and the file format are
 * exercised; rows are independent and fan out on exec::sweep, so
 * results are bit-identical for every --jobs value.
 */

#ifndef XUI_VERIFY_ROUNDTRIP_HH
#define XUI_VERIFY_ROUNDTRIP_HH

#include <cstdint>
#include <string>
#include <vector>

#include "verify/scenario_run.hh"

namespace xui
{

/** Seed count of the golden corpus (rows = seeds x 3 strategies). */
constexpr unsigned kGoldenCorpusSeeds = 32;

/** The fixed recipe the golden-corpus rows were captured with. */
ScenarioConfig goldenCorpusConfig(std::uint64_t seed,
                                  DeliveryStrategy strategy);

struct CorpusRoundTripOptions
{
    /** Seeds 1..seeds, three strategies each. */
    unsigned seeds = kGoldenCorpusSeeds;
    /** Worker threads for the row fan-out (0 = auto). */
    unsigned jobs = 1;
    /**
     * Directory for the per-row on-disk snapshots; empty keeps the
     * round-trip in memory (codec only, no file engine).
     */
    std::string snapshotDir;
    /** Absolute split cycle; 0 = half of each row's reference run. */
    Cycles splitCycles = 0;
};

struct CorpusRoundTripSummary
{
    std::size_t rows = 0;
    std::size_t passed = 0;
    /** One line per divergent/failed row, in row order. */
    std::vector<std::string> failures;

    bool ok() const { return rows > 0 && failures.empty(); }
};

/** Run the round-trip check over the whole corpus. */
CorpusRoundTripSummary
runCorpusRoundTrip(const CorpusRoundTripOptions &opts);

} // namespace xui

#endif // XUI_VERIFY_ROUNDTRIP_HH
