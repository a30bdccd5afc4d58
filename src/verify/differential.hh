/**
 * @file
 * Cross-delivery-mode differential harness.
 *
 * Runs the same fuzz program under Flush, Drain, and Tracked
 * delivery (same seeds, same timer pressure) and checks the
 * invariants the paper's argument rests on:
 *
 *  1. Architectural equivalence — the three modes retire the same
 *     commit-order main-code PC stream (delivery strategy changes
 *     *when* the handler runs, never *what* the program computes).
 *  2. Interrupt conservation — no mode loses or duplicates a
 *     delivery, and every per-interrupt timeline is monotonic.
 *  3. Latency ordering (Fig. 2) — tracked delivery starts the
 *     handler no later, on average, than flush delivery does.
 */

#ifndef XUI_VERIFY_DIFFERENTIAL_HH
#define XUI_VERIFY_DIFFERENTIAL_HH

#include <string>
#include <vector>

#include "verify/scenario.hh"

namespace xui
{

/** Outcome of one three-way differential run. */
struct DifferentialReport
{
    ScenarioResult flush;
    ScenarioResult drain;
    ScenarioResult tracked;
    std::vector<std::string> violations;

    bool ok() const { return violations.empty(); }
};

/**
 * Run `base` under all three delivery strategies (the strategy
 * field of `base` is ignored) and check the cross-mode invariants.
 * The PC streams compare over a common prefix of at least 1000
 * main-code commits; the latency ordering compares once both flush
 * and tracked delivered at least 5 interrupts, and is exact
 * (tracked mean <= flush mean, the paper's Fig. 2 claim).
 * @pre base.program.deterministicControl — random-direction
 *      branches would make the PC streams legitimately diverge.
 */
DifferentialReport runDifferential(const ScenarioConfig &base);

} // namespace xui

#endif // XUI_VERIFY_DIFFERENTIAL_HH
