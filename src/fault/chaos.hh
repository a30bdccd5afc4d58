/**
 * @file
 * Chaos harness: seeded protocol scenarios, the (scenario x
 * fault-seed) grid, and greedy schedule shrinking.
 *
 * A *cell* is one deterministic run: a scenario (a small DES-tier
 * workload exercising one notification protocol end to end) plus a
 * fault schedule, run with a DeliveryLedger attached. The cell passes
 * when the run terminates within its event budget and every delivery
 * invariant holds. Because a cell is a pure function of (kind, seed,
 * schedule, flags), a failing cell replays bit-for-bit from its
 * command line, and its schedule can be shrunk greedily to a
 * 1-minimal reproducer: repeatedly drop any directive whose removal
 * keeps the cell failing.
 *
 * The *grid* fans (kind x seed) cells across threads with
 * exec::sweepReduce, so results and report order are bit-identical
 * for every --jobs value.
 */

#ifndef XUI_FAULT_CHAOS_HH
#define XUI_FAULT_CHAOS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "des/time.hh"
#include "fault/fault.hh"

namespace xui::chaos
{

/** The protocol workload a cell runs. */
enum class ScenarioKind : std::uint8_t
{
    /** senduipi stream into a receiver with deschedule windows. */
    UipiPingPong,
    /** Periodic KB timer + poll loop across context switches. */
    KbTimerPeriodic,
    /** Forwarded device interrupts, fast path vs DUPID parking. */
    ForwardingStorm,
    /** ReliableSender retry/backoff against a flaky receiver. */
    SenderRetry,
    /** setitimer signals with SIGALRM collapse semantics. */
    IntervalSignals,
    /** ITR+coalescing moderation with flush events lost mid-window
     *  (Site::ModerationFlush drops): the batch must survive via
     *  rescan/resume-drain, never silently. */
    CoalesceDrop,
    /** Heavy ITR suppression with delayed flushes racing deschedule
     *  windows: flushes misfire against a parked receiver. */
    ItrMisfire,
    /** Mixed-criticality co-tenancy through the occupancy engine:
     *  three priority levels of handler frames preempting each
     *  other, with faults aimed at the preempt-save window
     *  (Site::PreemptSave drops and torn double-saves). */
    PreemptStorm,
    /** Uarch-tier sampled-detail run with faults aimed exactly at
     *  the fast-forward mode-transition cycles (Site::FfTransition):
     *  detail pinned at the boundary, and raises landing on the
     *  handoff dropped or doubled. The cell checks the interrupt
     *  conservation and record-timeline invariants across every
     *  adversarial mode switch. */
    FfBoundary,
    /** Kernel-tier cell taking periodic on-disk snapshots through
     *  the crash-consistent engine, with faults aimed at the write
     *  path (Site::CheckpointWrite damage), a simulated kill at a
     *  configured event count (recovery restores the latest valid
     *  generation and replays), and deschedule-site storms that
     *  livelock the queue so the driver's rollback-retry earns
     *  its keep. */
    CkptCrash,
    kCount,
};

constexpr std::size_t kNumScenarios =
    static_cast<std::size_t>(ScenarioKind::kCount);

const char *scenarioName(ScenarioKind k);

/** @return false when `text` names no scenario (`out` untouched). */
bool parseScenario(const std::string &text, ScenarioKind &out);

/** One cell of the chaos grid. */
struct CellConfig
{
    ScenarioKind kind = ScenarioKind::UipiPingPong;
    /** Scenario seed: drives send times and deschedule windows. */
    std::uint64_t seed = 1;
    fault::Schedule schedule;
    /** Kernel graceful-degradation paths (rescan w/ backoff). */
    bool recovery = true;
    /**
     * After the horizon, reschedule every thread once so parked
     * vectors drain (models an OS that eventually runs everyone).
     * Disabling it models a receiver that never resumes — the way
     * to demonstrate that the invariants catch unrecovered loss.
     */
    bool finalDrain = true;
    /** Scenario activity stops at this cycle. */
    Cycles horizon = 200000;
    /**
     * Events the cell may fire, counted across the horizon run and
     * the drain; one more ends the cell as stuck.
     */
    std::uint64_t eventBudget = 2000000;

    // --- Checkpoint/restore. A cell checkpoints when it is a
    // --- CkptCrash cell or sets ckptEvery, crashAtEvent or
    // --- restoreFrom; any other cell takes no snapshots, never
    // --- crashes and never rolls back.
    /** Snapshot every N fired events (0 = every 512 when the cell
     *  checkpoints, none otherwise). */
    std::uint64_t ckptEvery = 0;
    /**
     * Simulated process kill once this many events fired (0 = no
     * crash). Recovery restores the latest valid on-disk generation
     * (or restarts from scratch when none survives) and replays;
     * the final result must match the crash-free run.
     */
    std::uint64_t crashAtEvent = 0;
    /**
     * Base path of the on-disk snapshot generation set; empty keeps
     * snapshots in memory only (a crash then restarts from scratch).
     */
    std::string ckptPathBase;
    /** Keep snapshot files after the run (tools set this). */
    bool ckptKeepFiles = false;
    /**
     * Resume from this exact snapshot file before running (the
     * `--restore FILE` path). Provenance-strict: a snapshot written
     * by a different binary is refused loudly, never replayed.
     */
    std::string restoreFrom;
    /** Roll back to a checkpoint and retry when a checkpointing
     *  cell exhausts its event budget or its finished run violates
     *  delivery invariants. */
    bool rollbackRetry = true;
    /** Rollback-retry attempts before reporting the failure. */
    unsigned maxRollbackRetries = 16;
};

/** What one cell run produced. */
struct CellResult
{
    bool passed = false;
    /** The event budget ran out (violations[0] carries the
     *  message). */
    bool stuck = false;
    std::vector<std::string> violations;

    // Ledger totals.
    std::uint64_t posted = 0;
    std::uint64_t delivered = 0;
    std::uint64_t abandoned = 0;
    std::uint64_t spuriousScans = 0;
    /** Posts satisfied by a delivery that covered a batch. */
    std::uint64_t coalescedSatisfied = 0;

    // Moderation counters (kernel.moderation.*; zero without it).
    std::uint64_t modCoalesced = 0;
    std::uint64_t modFlushes = 0;
    std::uint64_t modFlushDropped = 0;
    std::uint64_t modFlushDelayed = 0;

    /** Fault directives that matched a consult. */
    std::uint64_t injected = 0;
    /** Scenario handler invocations. */
    std::uint64_t handlerRuns = 0;

    // Recovery-path counters (kernel.recovery.*).
    std::uint64_t recoveredRescan = 0;
    std::uint64_t recoveredTimerLate = 0;
    std::uint64_t recoveredFwdParked = 0;

    // SenderRetry only.
    std::uint64_t senderRetries = 0;
    std::uint64_t senderFallbacks = 0;

    // PreemptStorm only (kernel.preempt.*).
    std::uint64_t preemptions = 0;
    std::uint64_t preemptSaveDropped = 0;
    std::uint64_t preemptResumeReplayed = 0;

    // FfBoundary only: fast-forward region count and the raises the
    // boundary-armed fabric swallowed.
    std::uint64_t ffEntries = 0;
    std::uint64_t ffExits = 0;
    std::uint64_t ffRaisesDropped = 0;

    // Checkpoint/rollback accounting (ckpt-enabled cells only).
    /** Snapshots taken (in memory; each is also written to disk
     *  when a generation path is configured). */
    std::uint64_t ckptSnapshots = 0;
    /** Damaged generations detected and skipped during restore. */
    std::uint64_t ckptCorruptDetected = 0;
    /** Restores that fell back past a damaged newest generation. */
    std::uint64_t ckptFallbacks = 0;
    /** Stuck/invariant rollback-retries performed. */
    std::uint64_t rollbackRetries = 0;
    /** Events re-driven to reach restored checkpoints, summed. */
    std::uint64_t rollbackEventsReplayed = 0;
    /** A simulated kill happened and recovery ran. */
    bool crashRecovered = false;
};

/** Deterministic schedule seed for a (kind, scenario-seed) cell. */
std::uint64_t cellScheduleSeed(ScenarioKind kind, std::uint64_t seed);

/** Exact length of one ckpt_crash cell's checkpoint payload. */
std::size_t ckptPayloadBytes();

/** Run one cell (pure function of its config). */
CellResult runCell(const CellConfig &cfg);

/**
 * Greedy 1-minimal shrink of a failing cell's schedule: repeatedly
 * remove any directive whose removal keeps the cell failing.
 * @pre runCell(failing) fails.
 * @return the minimal still-failing schedule.
 */
fault::Schedule shrink(const CellConfig &failing);

/** The full (kind x seed) grid. */
struct GridConfig
{
    /** Scenario kinds to run (empty = all). */
    std::vector<ScenarioKind> kinds;
    unsigned seeds = 40;
    std::uint64_t seedBase = 1;
    /** Fan-out width (0 = one per hardware thread). */
    unsigned jobs = 1;
    fault::ScheduleOptions schedule;
    bool recovery = true;
    bool finalDrain = true;
    bool shrinkFailures = true;
    Cycles horizon = 200000;
    std::uint64_t eventBudget = 2000000;
    /**
     * Directory for CkptCrash cells' on-disk snapshot generations
     * (each cell uses a unique base path inside it); empty keeps
     * those cells' snapshots in memory only.
     */
    std::string ckptDir;
    /** CkptCrash snapshot cadence override (0 = default 512). */
    std::uint64_t ckptEvery = 0;
};

/** One grid cell's report (failures keep their shrunk schedule). */
struct CellReport
{
    ScenarioKind kind = ScenarioKind::UipiPingPong;
    std::uint64_t seed = 0;
    fault::Schedule schedule;
    /** Equal to `schedule` for passing cells. */
    fault::Schedule shrunk;
    CellResult result;
};

struct GridOutcome
{
    std::uint64_t cells = 0;
    std::uint64_t failed = 0;
    std::uint64_t injected = 0;
    std::uint64_t posted = 0;
    std::uint64_t delivered = 0;
    std::uint64_t abandoned = 0;
    /** Reports for failing cells only, in job-index order. */
    std::vector<CellReport> failures;
};

/** The config of grid cell (`kind`, `seed`), as runGrid() runs it. */
CellConfig gridCell(const GridConfig &cfg, ScenarioKind kind,
                    std::uint64_t seed);

/** Run the grid (deterministic for every `jobs` value). */
GridOutcome runGrid(const GridConfig &cfg);

} // namespace xui::chaos

#endif // XUI_FAULT_CHAOS_HH
