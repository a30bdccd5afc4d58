/**
 * @file
 * Resumable scenario execution for checkpoint/restore verification.
 *
 * ScenarioRun is one scenario split into hold-able pieces:
 * construct, advance in bounded chunks, checkpoint between chunks,
 * and extract the ScenarioResult at the end (runScenario() in
 * scenario.hh is a ScenarioRun run to its end in one call). The
 * load-bearing property is *chunk-invariance*: the core's run loops
 * are memoryless per tick (runUntilCommitted takes an absolute
 * commit target and a remaining budget; runCycles an absolute end),
 * so any partition of the run into advance() calls executes exactly
 * the same tick sequence as one monolithic call — which is what
 * makes a run interrupted at an arbitrary boundary and resumed from
 * snapshot bit-identical to the uninterrupted run.
 *
 * A checkpoint captures the core (OooCore::saveState), the digest
 * tracer mid-stream, the collected commit-PC vector, and the phase
 * bookkeeping below. Restore requires a ScenarioRun constructed from
 * the same ScenarioConfig — the program, core geometry, and RNG seeds
 * are reproduced by construction, not serialized.
 */

#ifndef XUI_VERIFY_SCENARIO_RUN_HH
#define XUI_VERIFY_SCENARIO_RUN_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "ckpt/codec.hh"
#include "uarch/uarch_system.hh"
#include "verify/digest_tracer.hh"
#include "verify/scenario.hh"

namespace xui
{

/** One scenario, advanced in chunks instead of run to completion. */
class ScenarioRun
{
  public:
    /**
     * @param observer when non-null, receives interrupt-lifecycle
     *        stage callbacks.
     * @param extraTracer when non-null, a trace sink tee'd after the
     *        digest tracer.
     */
    explicit ScenarioRun(const ScenarioConfig &cfg,
                         IntrLifecycleObserver *observer = nullptr,
                         Tracer *extraTracer = nullptr);

    /**
     * Advance up to `chunkCycles` simulated cycles.
     * @return true while the run is not finished.
     */
    bool advance(Cycles chunkCycles);

    /** Run to completion (equivalent to advance() until done). */
    void runToEnd();

    bool done() const { return phase_ == 2; }
    Cycles now() const { return core_->now(); }
    std::uint64_t committedInsts() const
    {
        return core_->stats().committedInsts;
    }

    OooCore &core() { return *core_; }
    UarchSystem &system() { return sys_; }
    const DigestTracer &digest() const { return digest_; }

    /** Checkpoint the run at the current inter-chunk boundary. */
    void saveState(ckpt::Writer &w) const;

    /**
     * Restore a checkpoint taken from a ScenarioRun with the same
     * config. @return false on malformed/mismatched payload, or one
     * with bytes left over after the checkpoint.
     */
    bool loadState(ckpt::Reader &r);

    /** Extract the ScenarioResult. Call once, after done(). */
    ScenarioResult finish() const;

  private:
    ScenarioConfig cfg_;
    Program prog_;
    UarchSystem sys_;
    DigestTracer digest_;
    std::vector<std::uint32_t> commitPcs_;
    TeeTracer tee_; ///< digest_ + extraTracer; unused without one
    OooCore *core_;

    /** 0 = run-to-commit-target, 1 = extra cycles, 2 = finished. */
    std::uint8_t phase_ = 0;
    /** Absolute commit-count target of phase 0. */
    std::uint64_t phase0TargetInsts_ = 0;
    /** Absolute cycle bound of phase 0. */
    Cycles phase0CycleLimit_ = 0;
    /** Absolute end cycle of phase 1 (set at the 0 -> 1 switch). */
    Cycles phase1End_ = 0;

    void maybeAdvancePhase();

    /** Checkpoint archive visit of everything after the core. */
    template <class Ar>
    void visit(Ar &ar);
};

/**
 * Round-trip check for one scenario: run the reference to
 * completion; run a second instance to absolute cycle `splitCycles`
 * (0 means half of the reference run), checkpoint it, restore into a
 * third instance, run that to completion; compare full digests,
 * event counts, arch digests, and final cycles.
 *
 * With a non-empty `snapshotPath` the checkpoint additionally
 * round-trips through the on-disk snapshot engine (saveSnapshot /
 * loadSnapshot), so the crash-consistent file format — not just the
 * byte codec — is under test. The file is removed afterwards.
 */
struct RoundTripReport
{
    bool ok = false;
    bool bitIdentical = false;
    std::uint64_t referenceDigest = 0;
    std::uint64_t resumedDigest = 0;
    std::uint64_t referenceEvents = 0;
    std::uint64_t resumedEvents = 0;
    std::string message;
};

RoundTripReport checkRoundTrip(const ScenarioConfig &cfg,
                               Cycles splitCycles,
                               const std::string &snapshotPath = {});

} // namespace xui

#endif // XUI_VERIFY_SCENARIO_RUN_HH
