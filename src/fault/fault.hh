/**
 * @file
 * Deterministic fault-injection fabric (chaos layer).
 *
 * The simulator's protocol machinery — tracked interrupts, the SN
 * bit, KB-timer save/restore, DUPID parking — exists to stay correct
 * under adverse timing, yet without this layer every notification is
 * delivered perfectly and those paths go unexercised. The fabric
 * injects *schedulable* faults at named protocol sites: a fault
 * schedule is a finite list of directives, each matching the n-th
 * consult of one site, so a run is a pure function of (scenario
 * seed, schedule) and any failure replays bit-for-bit. Schedules are
 * usually generated from a seed, but they round-trip through a
 * compact text encoding so a failing cell can be shrunk to a minimal
 * directive list and replayed from the command line.
 *
 * Determinism contract: an Injector holds no RNG — every decision is
 * a table lookup keyed by (site, consult count). Components consult
 * the fabric only when an injector is attached, so with faults
 * disabled no extra branches beyond one null check run and all
 * digests are bit-identical to the unfaulted build.
 */

#ifndef XUI_FAULT_FAULT_HH
#define XUI_FAULT_FAULT_HH

#include <array>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/metrics.hh"

namespace xui::fault
{

/** Protocol sites where the fabric can be consulted. */
enum class Site : std::uint8_t
{
    /** senduipi decided to emit a notification IPI (ON 0->1). */
    NotifyIpi,
    /** KB timer expiry observed at a poll point. */
    KbTimerFire,
    /** KB timer poll point (expired or not): spurious-fire window. */
    KbTimerPoll,
    /** Forwarded device interrupt took the APIC fast path. */
    ForwardDispatch,
    /** Scenario-consulted receiver deschedule window. */
    Deschedule,
    /** InterruptUnit::raise on the uarch tier. */
    RaiseUarch,
    /** A scheduled moderation-window flush is about to deliver. */
    ModerationFlush,
    /** Kernel occupancy engine is saving a preempted handler frame. */
    PreemptSave,
    /** Fast-forward mode transition on the uarch tier (entry about
     *  to happen or exit just completed): the window where sampled
     *  simulation hands off between the functional loop and the
     *  detailed pipeline. */
    FfTransition,
    /** Snapshot engine is writing a checkpoint file: torn writes,
     *  truncation, bit flips, and lost saves are modeled here. */
    CheckpointWrite,
    kCount,
};

constexpr std::size_t kNumSites = static_cast<std::size_t>(Site::kCount);

/** What to do to the operation at a matched site consult. */
enum class Action : std::uint8_t
{
    /** No fault (the default for every unmatched consult). */
    None,
    /** Lose the notification/fire entirely. */
    Drop,
    /** Deliver `magnitude` cycles late (Deschedule: window length). */
    Delay,
    /** Deliver, then deliver again (UPID dedup absorbs it). */
    Duplicate,
    /**
     * ON/PIR write reordering: the notification scan runs before the
     * PIR write is visible, so it finds nothing and must rescan.
     */
    Reorder,
    /** Fire with no armed expiry (receiver must tolerate). */
    Spurious,
    /** Notification storm: `magnitude` redundant rescans. */
    Storm,
    kCount,
};

const char *siteName(Site s);
const char *actionName(Action a);

/** One scheduled fault: apply `action` to the `occurrence`-th
 *  consult (0-based) of `site`. */
struct Directive
{
    Site site = Site::NotifyIpi;
    std::uint64_t occurrence = 0;
    Action action = Action::None;
    /** Delay cycles, window length, or storm size (action-specific). */
    std::uint32_t magnitude = 0;

    bool operator==(const Directive &o) const
    {
        return site == o.site && occurrence == o.occurrence &&
               action == o.action && magnitude == o.magnitude;
    }
};

/**
 * A complete fault schedule. Encodes to
 * "site:occurrence:action:magnitude;..." — stable, human-readable,
 * and replayable via xui_chaos --schedule.
 */
struct Schedule
{
    std::vector<Directive> directives;

    /** Which part of a text decode() refused. */
    enum class DecodeError : std::uint8_t
    {
        /** Not `;`-separated items of four `:`-separated fields. */
        Shape,
        Site,
        Occurrence,
        Action,
        /** Not a number, or wider than 32 bits. */
        Magnitude,
    };

    std::string encode() const;
    /**
     * @return false on malformed text (`out` untouched; `*why`, when
     * given, names the refused part).
     */
    static bool decode(const std::string &text, Schedule &out,
                       DecodeError *why = nullptr);

    bool empty() const { return directives.empty(); }
    std::size_t size() const { return directives.size(); }
};

/** Knobs for seed-driven schedule generation. */
struct ScheduleOptions
{
    /** Directives per schedule. */
    unsigned directives = 8;
    /** Occurrence indices are drawn uniformly below this horizon. */
    std::uint64_t horizon = 48;
    /** Delay magnitudes are drawn in [1, maxDelay]. */
    std::uint32_t maxDelay = 4096;
    /** Deschedule windows are drawn in [1, maxWindow]. */
    std::uint32_t maxWindow = 8192;
    /** Storm sizes are drawn in [2, maxStorm]. */
    std::uint32_t maxStorm = 6;

    // Per-class enables (shrunk reproducers often isolate one).
    bool dropNotification = true;
    bool delayNotification = true;
    bool duplicateNotification = true;
    bool reorderUpid = true;
    bool stormNotification = true;
    bool timerMisfire = true;
    bool timerDelay = true;
    bool timerSpurious = true;
    bool dropForward = true;
    bool delayForward = true;
    bool descheduleWindow = true;
    // Moderation-flush faults only make sense against a kernel with
    // moderation configured, so they default off: every schedule
    // generated before this layer existed stays byte-identical.
    bool dropModerationFlush = false;
    bool delayModerationFlush = false;
    // Preempt-save faults only make sense against a kernel with
    // handler occupancy costs (the priority engine) configured, so
    // they default off for the same byte-identical reason.
    bool dropPreemptSave = false;
    bool duplicatePreemptSave = false;
    // Fast-forward boundary faults only make sense against a core
    // running sampled-detail simulation, so they default off for
    // the same byte-identical reason. Delay pins full detail at the
    // transition; Drop/Duplicate arm the next raise at the boundary
    // to be lost or doubled.
    bool delayFfDetail = false;
    bool dropFfRaise = false;
    bool duplicateFfRaise = false;
    // Checkpoint-write faults only make sense for cells that take
    // on-disk snapshots (the ckpt_crash scenario), so they default
    // off for the same byte-identical reason. The action names are
    // reused for storage damage: Drop = save lost, Delay = torn
    // half-write, Duplicate = payload bit flip, Reorder = truncated
    // after the header, Spurious = bad magic, Storm = zero-length.
    bool dropCkptWrite = false;
    bool tearCkptWrite = false;
    bool flipCkptWrite = false;
    bool truncateCkptWrite = false;
    // Deschedule-site storm: the ckpt_crash scenario turns a storm
    // decision into a runaway self-rescheduling event loop — the
    // livelock the cell's event budget reports as stuck and
    // rollback-recovery must survive. Off by default for the same
    // byte-identical reason.
    bool stormDeschedule = false;
};

/**
 * Generate a schedule deterministically from a seed. Identical
 * (seed, options) always produce the identical schedule.
 */
Schedule generateSchedule(std::uint64_t seed,
                          const ScheduleOptions &opts);

/**
 * The injection engine: counts consults per site and answers with
 * the scheduled action when a directive matches, Action::None
 * otherwise. Holds no RNG; identical consult sequences always get
 * identical answers.
 */
class Injector
{
  public:
    struct Decision
    {
        Action action = Action::None;
        std::uint32_t magnitude = 0;
    };

    explicit Injector(Schedule schedule);

    /** Consult the fabric at a site (bumps the site's counter). */
    Decision decide(Site site);

    /** Consults so far at a site. */
    std::uint64_t consults(Site site) const
    {
        return counts_[static_cast<std::size_t>(site)];
    }

    /** Directives that actually matched a consult. */
    std::uint64_t injected() const { return injected_; }

    const Schedule &schedule() const { return schedule_; }

    /**
     * Register "fault.injected.<action>" counters; decisions bump
     * them. Null-safe like every other attachMetrics in the repo.
     */
    void attachMetrics(MetricsRegistry &registry);

  private:
    Schedule schedule_;
    /** site -> occurrence -> directive index (first match wins). */
    std::array<std::unordered_map<std::uint64_t, std::size_t>,
               kNumSites>
        byOccurrence_;
    std::array<std::uint64_t, kNumSites> counts_{};
    std::uint64_t injected_ = 0;
    std::array<Counter *, static_cast<std::size_t>(Action::kCount)>
        actionCounters_{};
};

} // namespace xui::fault

#endif // XUI_FAULT_FAULT_HH
