/**
 * @file
 * Gshare branch direction predictor plus a direct-mapped BTB.
 *
 * Mispredictions — the events whose recovery interacts with tracked
 * interrupt re-injection (paper §4.2) — emerge from this predictor
 * rather than being scripted.
 */

#ifndef XUI_UARCH_BRANCH_PREDICTOR_HH
#define XUI_UARCH_BRANCH_PREDICTOR_HH

#include <cstdint>
#include <vector>

namespace xui
{

/** Gshare (global history xor PC) with 2-bit saturating counters. */
class BranchPredictor
{
  public:
    /**
     * @param table_bits log2 of the pattern-history-table size
     * @param history_bits global history length
     */
    explicit BranchPredictor(unsigned table_bits = 14,
                             unsigned history_bits = 12);

    /** Predict the direction for a branch at `pc`. */
    bool predict(std::uint64_t pc) const;

    /**
     * Train with the actual outcome and update global history.
     * @return true when the earlier prediction would have been wrong
     *         (convenience for counting).
     */
    bool update(std::uint64_t pc, bool taken, bool predicted);

    /** Speculative history update at fetch time. */
    void speculate(bool predicted_taken);

    /** Restore history after a squash (simplified: resync). */
    void restoreHistory(std::uint64_t history);

    std::uint64_t history() const { return history_; }

    std::uint64_t lookups() const { return lookups_; }
    std::uint64_t mispredicts() const { return mispredicts_; }

    /** Checkpoint archive visit of the PHT, history, and counters
     *  (masks are constructor-derived; the table size is a guard). */
    template <class Ar>
    void visit(Ar &ar)
    {
        ar.expect(std::uint64_t{table_.size()});
        ar.bytes(table_.data(), table_.size());
        ar.u64(history_);
        ar.u64(lookups_);
        ar.u64(mispredicts_);
    }

  private:
    std::size_t index(std::uint64_t pc) const;

    std::vector<std::uint8_t> table_;
    std::uint64_t mask_;
    std::uint64_t historyMask_;
    std::uint64_t history_;
    mutable std::uint64_t lookups_;
    std::uint64_t mispredicts_;
};

} // namespace xui

#endif // XUI_UARCH_BRANCH_PREDICTOR_HH
