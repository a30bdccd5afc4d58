/**
 * @file
 * Simulator-throughput benchmark: simulated-cycles-per-wall-second
 * and events-per-second across four canonical scenarios, so the
 * perf trajectory of the simulation kernel itself (event queue,
 * OoO tick loop, obs hot paths) has a pinned baseline and CI can
 * chart regressions.
 *
 * Scenarios:
 *  - fig2:       uarch tier, pointer-chase + periodic KB timer in
 *                Flush mode (the Fig. 2 timeline workload). With
 *                `--ff` it additionally runs a sampled-detail pass
 *                and gates its accuracy.
 *  - timer_core: uarch tier, compute loop + periodic 20us KB timer.
 *                Runs full detail AND a sampled (fast-forward)
 *                pass over the same simulated horizon; reports the
 *                sampled rate, the speedup over detail, and the
 *                delivery-latency p50/p99 drift — and FAILS (exit
 *                1) when the speedup is < 10x or the drift > 5%.
 *  - l3fwd:      uarch tier, forwarding core + DES-driven network
 *                arrivals through the hybrid co-sim driver. Same
 *                detail-vs-sampled pair and gates as timer_core.
 *  - timer_core_des: DES tier, kernel interval timers plus
 *                cancel-heavy watchdog re-arm churn on the event
 *                queue (the pattern that leaked under the old
 *                lazy-cancel queue).
 *  - l3fwd_des:  DES tier, Fig. 8 forwarding app under xUI
 *                interrupt forwarding.
 *  - fuzz:       uarch tier, verification scenario runner (fuzz
 *                program + digest instrumentation).
 *
 * Emits BENCH_simspeed.json (cwd) with per-scenario rates (plus
 * `ff_*` fields and `peak_rss_kb` per scenario) and the speedup
 * against the pre-optimization baseline recorded below.
 *
 * A second, parallel-scaling section sweeps a corpus of fuzz
 * scenarios through the src/exec engine at a worker-thread ladder
 * (1/2/4/8, or powers of two up to `--jobs N`), cross-checks that
 * the combined digests are bit-identical at every rung, and emits
 * BENCH_parallel.json with sims/sec and speedup-vs-serial. The
 * canonical four scenarios above stay serial so their wall-clock
 * rates remain comparable against kBaseline.
 *
 * `--checkpoint-every N` / `--restore FILE` switch to a dedicated
 * checkpoint/restore mode on the fuzz scenario: snapshot cost per
 * interval, whole-run overhead, estimated replay-on-crash time (the
 * EXPERIMENTS.md recovery-time table), and a bit-identity check of
 * the checkpointed/restored run against an uninterrupted reference.
 */

#include <cstdio>
#include <ctime>
#include <string>
#include <sys/resource.h>
#include <vector>

#include "bench_util.hh"
#include "ckpt/codec.hh"
#include "exec/sweep.hh"
#include "des/simulation.hh"
#include "net/l3fwd.hh"
#include "os/cost_model.hh"
#include "os/kernel.hh"
#include "stats/rng.hh"
#include "uarch/cosim.hh"
#include "uarch/uarch_system.hh"
#include "verify/scenario.hh"
#include "verify/scenario_run.hh"
#include "verify/statcheck.hh"
#include "workloads/kernels.hh"

using namespace xui;

namespace
{

/**
 * Pre-optimization rates, captured on the reference container at
 * the commit immediately before the hot-path overhaul (same
 * scenarios, full mode, RelWithDebInfo). `speedup_vs_baseline` in
 * the JSON is measured against these.
 */
struct BaselineRate
{
    const char *name;
    double cyclesPerSec;
    double eventsPerSec;
};

constexpr BaselineRate kBaseline[] = {
    {"fig2", 2912915.0, 17044.0},
    // timer_core / l3fwd are the uarch-tier fast-forward pairs; the
    // baseline is their full-detail rate when the pair was added, so
    // speedup_vs_baseline tracks the detailed path and the sampled
    // gain is reported separately (ff_speedup_vs_detail).
    {"timer_core", 4770959.0, 5379173.0},
    {"l3fwd", 2548408.0, 6020061.0},
    {"timer_core_des", 42924291.0, 3490015.0},
    {"l3fwd_des", 550843927.0, 2883792.0},
    {"fuzz", 899235.0, 6644826.0},
};

double
baselineCyclesPerSec(const std::string &name)
{
    for (const auto &b : kBaseline)
        if (name == b.name)
            return b.cyclesPerSec;
    return 0.0;
}

struct SpeedResult
{
    std::string name;
    double simCycles = 0.0;
    double events = 0.0;
    double wallSec = 0.0;
    /** Process peak RSS (ru_maxrss, KiB) after this scenario. */
    long peakRssKb = 0;

    /** Sampled (fast-forward) companion pass, when one ran. */
    bool hasFf = false;
    double ffWallSec = 0.0;
    /** Share of simulated cycles spent fast-forwarded (0..1). */
    double ffCycleFraction = 0.0;
    /** Worst per-source delivery-latency drift vs detail (abs %). */
    double ffP50DeltaPct = 0.0;
    double ffP99DeltaPct = 0.0;
    bool ffAccuracyOk = true;
    std::string ffMessage;
    /** Gate the >= 10x sampled-speedup requirement on this row. */
    bool gateFfSpeedup = false;

    double cyclesPerSec() const
    {
        return wallSec > 0.0 ? simCycles / wallSec : 0.0;
    }
    double eventsPerSec() const
    {
        return wallSec > 0.0 ? events / wallSec : 0.0;
    }
    double ffCyclesPerSec() const
    {
        return ffWallSec > 0.0 ? simCycles / ffWallSec : 0.0;
    }
    double ffSpeedupVsDetail() const
    {
        double d = cyclesPerSec();
        return d > 0.0 ? ffCyclesPerSec() / d : 0.0;
    }
};

/** Monotonic wall clock (immune to wall-time adjustments). */
class WallTimer
{
  public:
    WallTimer() { clock_gettime(CLOCK_MONOTONIC, &start_); }
    double seconds() const
    {
        timespec now;
        clock_gettime(CLOCK_MONOTONIC, &now);
        return static_cast<double>(now.tv_sec - start_.tv_sec) +
               static_cast<double>(now.tv_nsec - start_.tv_nsec) *
                   1e-9;
    }

  private:
    timespec start_;
};

/** Process peak RSS in KiB (Linux ru_maxrss unit). */
long
peakRssKb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return ru.ru_maxrss;
}

/** One timed pass of a uarch-tier scenario. */
struct UarchPass
{
    double wallSec = 0.0;
    Cycles simCycles = 0;
    double events = 0.0;
    Cycles ffCycles = 0;
    std::vector<IntrRecord> records;
};

/**
 * Fold a detail/sampled pass pair into the result row: sampled
 * rate, per-source delivery-latency drift (statcheck, 5% tol on
 * p50/p99), and the accuracy verdict. Both passes cover the same
 * simulated horizon, so counts and distributions are comparable.
 */
void
foldFfPair(SpeedResult &r, const UarchPass &detail,
           const UarchPass &ff, std::uint64_t minCount = 8)
{
    r.hasFf = true;
    r.ffWallSec = ff.wallSec;
    r.ffCycleFraction = ff.simCycles > 0
        ? static_cast<double>(ff.ffCycles) /
            static_cast<double>(ff.simCycles)
        : 0.0;
    StatEquivalenceReport rep =
        checkStatEquivalence(detail.records, ff.records, 5.0,
                             minCount);
    r.ffP50DeltaPct = rep.worstP50Pct;
    r.ffP99DeltaPct = rep.worstP99Pct;
    r.ffAccuracyOk = rep.ok;
    r.ffMessage = rep.message;
}

/** One pass of the Fig. 2 timeline workload. */
UarchPass
fig2Pass(bool quick, std::uint64_t seed, bool ff, Cycles window)
{
    Program prog = makePointerChase(16, 4ull << 20, false);
    CoreParams params;
    params.strategy = DeliveryStrategy::Flush;
    params.fastForward = ff;
    params.detailWindow = window;
    UarchSystem sys(seed + 2);
    OooCore &core = sys.addCore(params, &prog);
    core.kbTimer().configure(true, 0x21);
    core.kbTimer().setTimer(0, usToCycles(20), KbTimerMode::Periodic);

    const Cycles cycles = quick ? 300'000 : 3'000'000;
    WallTimer t;
    core.runCycles(cycles);
    UarchPass p;
    p.wallSec = t.seconds();
    p.simCycles = core.now();
    p.events = static_cast<double>(core.stats().committedUops);
    p.ffCycles = core.stats().ffCycles;
    p.records = core.stats().intrRecords;
    return p;
}

/** Fig. 2 timeline workload: pointer-chase + Flush-mode KB timer. */
SpeedResult
runFig2(const bench::Options &opts)
{
    UarchPass detail = fig2Pass(opts.quick, opts.seed, false, 0);
    SpeedResult r;
    r.name = "fig2";
    r.wallSec = detail.wallSec;
    r.simCycles = static_cast<double>(detail.simCycles);
    r.events = detail.events;
    if (opts.ff) {
        UarchPass ff = fig2Pass(opts.quick, opts.seed, true,
                                opts.detailWindow);
        // The quick fig2 horizon fits only ~7 timer periods; a
        // minCount of 4 keeps the source comparable while the 5%
        // p50/p99 tolerance still applies in full.
        foldFfPair(r, detail, ff, 4);
    }
    r.peakRssKb = peakRssKb();
    return r;
}

/**
 * Uarch-tier timer core: an integer compute loop under a periodic
 * 20us KB timer — the cluster-scale "mostly idle between interrupt
 * activity" shape the fast-forward mode targets. Runs full detail
 * and the sampled pass over the same simulated horizon.
 */
UarchPass
timerCorePass(bool quick, std::uint64_t seed, bool ff, Cycles window)
{
    Program prog = makeFib();
    CoreParams params;
    params.strategy = DeliveryStrategy::Tracked;
    params.fastForward = ff;
    params.detailWindow = window;
    UarchSystem sys(seed + 3);
    OooCore &core = sys.addCore(params, &prog);
    core.kbTimer().configure(true, 0x21);
    core.kbTimer().setTimer(0, usToCycles(20), KbTimerMode::Periodic);

    const Cycles cycles = quick ? 2'000'000 : 40'000'000;
    WallTimer t;
    core.runCycles(cycles);
    UarchPass p;
    p.wallSec = t.seconds();
    p.simCycles = core.now();
    p.events = static_cast<double>(core.stats().committedUops);
    p.ffCycles = core.stats().ffCycles;
    p.records = core.stats().intrRecords;
    return p;
}

SpeedResult
runTimerCore(const bench::Options &opts)
{
    UarchPass detail =
        timerCorePass(opts.quick, opts.seed, false, 0);
    UarchPass ff = timerCorePass(opts.quick, opts.seed, true,
                                 opts.detailWindow);
    SpeedResult r;
    r.name = "timer_core";
    r.wallSec = detail.wallSec;
    r.simCycles = static_cast<double>(detail.simCycles);
    r.events = detail.events;
    r.gateFfSpeedup = true;
    foldFfPair(r, detail, ff);
    r.peakRssKb = peakRssKb();
    return r;
}

/**
 * Uarch-tier l3fwd: a forwarding core (base64-style table-lookup
 * compute) receiving DES-scheduled network interrupt arrivals
 * through the hybrid co-sim driver. Arrivals carry a 600-cycle
 * wire latency, so the fast-forward controller sees them far
 * enough ahead to re-warm the pipeline before the raise.
 */
UarchPass
l3fwdPass(bool quick, std::uint64_t seed, bool ff, Cycles window)
{
    Program prog = makeBase64();
    CoreParams params;
    params.strategy = DeliveryStrategy::Tracked;
    params.fastForward = ff;
    params.detailWindow = window;
    UarchSystem sys(seed + 5);
    OooCore &core = sys.addCore(params, &prog);

    // DES tier: self-rescheduling packet arrivals with jittered
    // inter-arrival times, identical across the detail and sampled
    // passes (the schedule is a pure function of the DES RNG).
    Simulation sim(seed * 9 + 7);
    Rng arrivalRng = sim.makeRng();
    // Moderated-NIC arrival rate: ~32us mean inter-arrival (a
    // typical interrupt-throttling setting), so the core is
    // compute-bound between interrupts — the regime where
    // sampled-detail simulation pays off.
    std::function<void()> arm = [&] {
        sim.queue().scheduleAfter(
            48000 + arrivalRng.nextBounded(32000), [&] {
                core.receiveIpi(core.uinv(), sim.now() + 600);
                arm();
            });
    };
    arm();

    const Cycles cycles = quick ? 2'000'000 : 40'000'000;
    WallTimer t;
    runCoSim(sim, sys, cycles);
    UarchPass p;
    p.wallSec = t.seconds();
    p.simCycles = core.now();
    p.events = static_cast<double>(core.stats().committedUops) +
               static_cast<double>(sim.queue().firedCount());
    p.ffCycles = core.stats().ffCycles;
    p.records = core.stats().intrRecords;
    return p;
}

SpeedResult
runL3Fwd(const bench::Options &opts)
{
    UarchPass detail = l3fwdPass(opts.quick, opts.seed, false, 0);
    UarchPass ff =
        l3fwdPass(opts.quick, opts.seed, true, opts.detailWindow);
    SpeedResult r;
    r.name = "l3fwd";
    r.wallSec = detail.wallSec;
    r.simCycles = static_cast<double>(detail.simCycles);
    r.events = detail.events;
    r.gateFfSpeedup = true;
    foldFfPair(r, detail, ff);
    r.peakRssKb = peakRssKb();
    return r;
}

/**
 * DES timer core: 8 cores running threads with interval timers,
 * plus a per-core watchdog that re-arms a timeout on every tick —
 * the schedule/cancel-heavy pattern from timeout-driven servers.
 */
struct Watchdog
{
    EventQueue &q;
    Rng rng;
    EventId timeout = kInvalidEventId;
    std::uint64_t rearms = 0;
    bool stopped = false;

    Watchdog(EventQueue &queue, std::uint64_t seed)
        : q(queue), rng(seed)
    {
    }

    void arm()
    {
        if (stopped)
            return;
        // Cancel the previous (rarely-fired) timeout and set a new
        // one — under the old queue each of these lingered in the
        // heap until its deadline passed.
        if (timeout != kInvalidEventId)
            q.cancel(timeout);
        timeout = q.scheduleAfter(500 + rng.nextBounded(1000), [] {});
        q.scheduleAfter(50 + rng.nextBounded(100), [this] {
            ++rearms;
            arm();
        });
    }
};

SpeedResult
runTimerCoreDes(bool quick, std::uint64_t seed)
{
    Simulation sim(seed);
    CostModel costs;
    const unsigned cores = 8;
    Kernel kernel(sim, costs, cores);
    for (unsigned c = 0; c < cores; ++c) {
        ThreadId thread = kernel.createThread();
        kernel.registerHandler(thread, [](unsigned) {});
        kernel.scheduleOn(thread, c);
        kernel.setInterval(thread, usToCycles(2 + c));
    }
    std::vector<std::unique_ptr<Watchdog>> dogs;
    for (unsigned c = 0; c < cores; ++c) {
        dogs.push_back(
            std::make_unique<Watchdog>(sim.queue(), seed * 31 + c));
        dogs.back()->arm();
    }

    const Cycles duration =
        quick ? 1 * kCyclesPerMs : 20 * kCyclesPerMs;
    WallTimer t;
    sim.runUntil(duration);
    for (auto &d : dogs)
        d->stopped = true;
    SpeedResult r;
    r.name = "timer_core_des";
    r.wallSec = t.seconds();
    r.simCycles = static_cast<double>(sim.now());
    r.events = static_cast<double>(sim.queue().firedCount());
    r.peakRssKb = peakRssKb();
    return r;
}

/** Fig. 8 l3fwd under xUI interrupt forwarding (DES tier). */
SpeedResult
runL3FwdDes(bool quick, std::uint64_t seed)
{
    L3FwdConfig cfg;
    cfg.mode = RxMode::XuiForwarded;
    cfg.numNics = 4;
    cfg.load = 0.7;
    cfg.seed = seed;
    cfg.duration = quick ? 2 * kCyclesPerMs : 40 * kCyclesPerMs;
    L3Fwd app(cfg);
    WallTimer t;
    L3FwdResult res = app.run();
    SpeedResult r;
    r.name = "l3fwd_des";
    r.wallSec = t.seconds();
    r.simCycles = static_cast<double>(cfg.duration);
    r.events = static_cast<double>(res.offered + res.forwarded +
                                   res.interrupts);
    r.peakRssKb = peakRssKb();
    return r;
}

/** Verification fuzz scenario (digest-instrumented uarch run). */
SpeedResult
runFuzz(bool quick, std::uint64_t seed)
{
    ScenarioConfig cfg;
    cfg.programSeed = seed + 4;
    cfg.systemSeed = seed + 4;
    cfg.targetInsts = quick ? 15'000 : 150'000;
    WallTimer t;
    ScenarioResult res = runScenario(cfg);
    SpeedResult r;
    r.name = "fuzz";
    r.wallSec = t.seconds();
    r.simCycles = static_cast<double>(res.cycles);
    r.events = static_cast<double>(res.eventCount);
    r.peakRssKb = peakRssKb();
    return r;
}

// ----------------------------------------------------------------------
// Parallel-scaling mode (src/exec sweep engine)
// ----------------------------------------------------------------------

/** One rung of the worker-thread ladder. */
struct ScalePoint
{
    unsigned jobs = 1;
    double wallSec = 0.0;
    std::size_t sims = 0;
    /** Order-sensitive combination of every scenario fullDigest. */
    std::uint64_t digest = 0;

    double simsPerSec() const
    {
        return wallSec > 0.0
            ? static_cast<double>(sims) / wallSec
            : 0.0;
    }
};

/**
 * Thread ladder for the scaling sweep: powers of two up to the
 * ceiling, plus the ceiling itself. `--jobs 0` (auto) uses the
 * fixed 1/2/4/8 ladder so JSON output is machine-comparable across
 * hosts regardless of core count.
 */
std::vector<unsigned>
jobLadder(unsigned requested)
{
    const unsigned cap = requested == 0 ? 8 : requested;
    std::vector<unsigned> ladder;
    for (unsigned j = 1; j <= cap; j *= 2)
        ladder.push_back(j);
    if (ladder.back() != cap)
        ladder.push_back(cap);
    return ladder;
}

/** Run the fuzz-scenario corpus once at `jobs` worker threads. */
ScalePoint
runScaleRung(unsigned jobs, std::size_t sims, bool quick,
             std::uint64_t seed)
{
    ScalePoint p;
    p.jobs = jobs;
    p.sims = sims;
    WallTimer t;
    exec::sweepReduce(
        sims, jobs,
        [&](std::size_t i) {
            ScenarioConfig cfg;
            cfg.programSeed = seed + 100 + i;
            cfg.systemSeed = seed + 200 + i;
            cfg.strategy = (i % 2 == 0) ? DeliveryStrategy::Flush
                                        : DeliveryStrategy::Tracked;
            cfg.targetInsts = quick ? 4'000 : 40'000;
            ScenarioResult res = runScenario(cfg);
            return res.fullDigest;
        },
        [&](std::size_t, std::uint64_t digest) {
            // Order-sensitive mix (splitmix-style) — any reorder of
            // the reduction would change the combined value.
            p.digest ^= digest + 0x9e3779b97f4a7c15ull +
                (p.digest << 6) + (p.digest >> 2);
        });
    p.wallSec = t.seconds();
    return p;
}

void
writeParallelJson(const char *path,
                  const std::vector<ScalePoint> &points, bool quick,
                  std::uint64_t seed)
{
    std::FILE *f = std::fopen(path, "w");
    if (!f) {
        std::fprintf(stderr, "cannot write %s\n", path);
        std::exit(1);
    }
    const double serial =
        points.empty() ? 0.0 : points.front().simsPerSec();
    std::fprintf(f, "{\n  \"bench\": \"simspeed_parallel\",\n");
    std::fprintf(f, "  \"quick\": %s,\n", quick ? "true" : "false");
    std::fprintf(f, "  \"seed\": %llu,\n",
                 static_cast<unsigned long long>(seed));
    std::fprintf(f, "  \"corpus_sims\": %zu,\n",
                 points.empty() ? std::size_t{0} : points[0].sims);
    std::fprintf(f, "  \"digest\": \"%016llx\",\n",
                 static_cast<unsigned long long>(
                     points.empty() ? 0 : points[0].digest));
    std::fprintf(f, "  \"points\": [\n");
    for (std::size_t i = 0; i < points.size(); ++i) {
        const ScalePoint &p = points[i];
        std::fprintf(f,
                     "    {\"jobs\": %u, \"wall_seconds\": %.6f, "
                     "\"sims_per_sec\": %.2f, "
                     "\"speedup_vs_serial\": %.2f}%s\n",
                     p.jobs, p.wallSec, p.simsPerSec(),
                     serial > 0.0 ? p.simsPerSec() / serial : 0.0,
                     i + 1 < points.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
}

/**
 * Sweep the corpus at every rung, verify digest bit-identity
 * across thread counts, print the table, and write `path`.
 * Exits 1 on any cross-thread-count digest divergence.
 */
void
runScalingMode(const char *path, const bench::Options &opts)
{
    const std::size_t sims = opts.quick ? 8 : 16;
    std::vector<ScalePoint> points;
    for (unsigned j : jobLadder(opts.jobs))
        points.push_back(
            runScaleRung(j, sims, opts.quick, opts.seed));

    std::printf("\nparallel scaling (fuzz corpus, %zu sims; src/exec "
                "sweep engine)\n",
                sims);
    std::printf("%6s %10s %12s %9s %18s\n", "jobs", "wall s",
                "sims/s", "speedup", "digest");
    for (const ScalePoint &p : points) {
        std::printf("%6u %10.3f %12.2f %8.2fx   %016llx\n", p.jobs,
                    p.wallSec, p.simsPerSec(),
                    points[0].simsPerSec() > 0.0
                        ? p.simsPerSec() / points[0].simsPerSec()
                        : 0.0,
                    static_cast<unsigned long long>(p.digest));
    }

    for (const ScalePoint &p : points) {
        if (p.digest != points[0].digest) {
            std::fprintf(stderr,
                         "FAIL: digest diverged at --jobs %u "
                         "(%016llx vs %016llx at --jobs %u)\n",
                         p.jobs,
                         static_cast<unsigned long long>(p.digest),
                         static_cast<unsigned long long>(
                             points[0].digest),
                         points[0].jobs);
            std::exit(1);
        }
    }
    std::printf("digests bit-identical across all thread counts\n");
    writeParallelJson(path, points, opts.quick, opts.seed);
}

void
writeJson(const char *path, const std::vector<SpeedResult> &results,
          bool quick, std::uint64_t seed)
{
    std::FILE *f = std::fopen(path, "w");
    if (!f) {
        std::fprintf(stderr, "cannot write %s\n", path);
        std::exit(1);
    }
    std::fprintf(f, "{\n  \"bench\": \"simspeed\",\n");
    std::fprintf(f, "  \"quick\": %s,\n", quick ? "true" : "false");
    std::fprintf(f, "  \"seed\": %llu,\n",
                 static_cast<unsigned long long>(seed));
    std::fprintf(f, "  \"scenarios\": [\n");
    for (std::size_t i = 0; i < results.size(); ++i) {
        const SpeedResult &r = results[i];
        double base = baselineCyclesPerSec(r.name);
        double speedup =
            base > 0.0 ? r.cyclesPerSec() / base : 0.0;
        std::fprintf(f,
                     "    {\"name\": \"%s\", \"sim_cycles\": %.0f, "
                     "\"events\": %.0f, \"wall_seconds\": %.6f,\n"
                     "     \"cycles_per_sec\": %.0f, "
                     "\"events_per_sec\": %.0f,\n"
                     "     \"baseline_cycles_per_sec\": %.0f, "
                     "\"speedup_vs_baseline\": %.2f,\n"
                     "     \"peak_rss_kb\": %ld",
                     r.name.c_str(), r.simCycles, r.events,
                     r.wallSec, r.cyclesPerSec(), r.eventsPerSec(),
                     base, speedup, r.peakRssKb);
        if (r.hasFf) {
            std::fprintf(
                f,
                ",\n     \"ff_wall_seconds\": %.6f, "
                "\"ff_cycles_per_sec\": %.0f,\n"
                "     \"ff_speedup_vs_detail\": %.2f, "
                "\"ff_cycle_fraction\": %.4f,\n"
                "     \"ff_p50_delta_pct\": %.4f, "
                "\"ff_p99_delta_pct\": %.4f",
                r.ffWallSec, r.ffCyclesPerSec(),
                r.ffSpeedupVsDetail(), r.ffCycleFraction,
                r.ffP50DeltaPct, r.ffP99DeltaPct);
        }
        std::fprintf(f, "}%s\n",
                     i + 1 < results.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
}

// ----------------------------------------------------------------------
// Checkpoint/restore mode (--checkpoint-every / --restore)
// ----------------------------------------------------------------------

/**
 * Dedicated mode measuring the cost side of the recovery-time
 * trade-off (EXPERIMENTS.md): run the fuzz scenario with a snapshot
 * every N cycles into the crash-consistent generation set
 * `BENCH_simspeed.ckpt.gen*` (kept on disk: `--restore` consumes
 * them), report per-snapshot cost and whole-run overhead against an
 * uncheckpointed reference, and verify the checkpointed — or
 * restored — run stays bit-identical to the reference. Exit 1 on
 * digest divergence or a refused restore (corrupt file, wrong
 * binary).
 */
int
runCheckpointMode(const bench::Options &opts)
{
    ScenarioConfig cfg;
    cfg.programSeed = opts.seed + 4;
    cfg.systemSeed = opts.seed + 4;
    cfg.targetInsts = opts.quick ? 15'000 : 150'000;

    // Uninterrupted reference: correctness oracle and wall-clock
    // baseline. Same config recipe as runFuzz, so the scenario is
    // a pure function of (--seed, --quick) — the reason a restored
    // snapshot lines up without serializing the config.
    WallTimer tRef;
    ScenarioRun ref(cfg);
    ref.runToEnd();
    const double refWall = tRef.seconds();
    const ScenarioResult refRes = ref.finish();

    ScenarioRun run(cfg);
    double restoreWall = 0.0;
    Cycles resumedAt = 0;
    if (!opts.restorePath.empty()) {
        WallTimer tRestore;
        ckpt::Snapshot snap;
        ckpt::LoadStatus st =
            ckpt::loadSnapshot(opts.restorePath, snap);
        if (st != ckpt::LoadStatus::Ok) {
            std::fprintf(stderr, "simspeed: restore %s: %s\n",
                         opts.restorePath.c_str(),
                         ckpt::loadStatusName(st));
            return 1;
        }
        ckpt::Reader r(snap.payload);
        if (!run.loadState(r)) {
            std::fprintf(stderr,
                         "simspeed: restore %s: snapshot payload "
                         "does not decode into this scenario "
                         "(different --seed/--quick?)\n",
                         opts.restorePath.c_str());
            return 1;
        }
        restoreWall = tRestore.seconds();
        resumedAt = run.now();
    }

    ckpt::GenerationSet gens("BENCH_simspeed.ckpt");
    std::uint64_t snaps = 0;
    double snapWall = 0.0;
    WallTimer tRun;
    if (opts.checkpointEvery != 0) {
        while (run.advance(opts.checkpointEvery)) {
            WallTimer tSnap;
            ckpt::Writer w;
            run.saveState(w);
            ckpt::Snapshot snap;
            snap.tag = "simspeed_fuzz";
            snap.payload = w.take();
            ckpt::SaveResult sr = gens.save(std::move(snap));
            if (!sr.ok) {
                std::fprintf(stderr,
                             "simspeed: snapshot save failed: %s\n",
                             sr.error.c_str());
                return 1;
            }
            snapWall += tSnap.seconds();
            ++snaps;
        }
    } else {
        run.runToEnd();
    }
    const double runWall = tRun.seconds();
    const ScenarioResult res = run.finish();

    const bool identical = res.fullDigest == refRes.fullDigest &&
                           res.eventCount == refRes.eventCount &&
                           res.cycles == refRes.cycles;

    std::printf("checkpoint/restore (fuzz scenario, %llu cycles)\n",
                static_cast<unsigned long long>(refRes.cycles));
    if (!opts.restorePath.empty())
        std::printf("  restored from %s at cycle %llu "
                    "(load+decode %.3f ms)\n",
                    opts.restorePath.c_str(),
                    static_cast<unsigned long long>(resumedAt),
                    restoreWall * 1e3);
    if (opts.checkpointEvery != 0) {
        // Crash-recovery model: restore the newest generation, then
        // replay from the snapshot to the crash point — on average
        // half an interval of re-simulated work.
        const double detailRate =
            refWall > 0.0
                ? static_cast<double>(refRes.cycles) / refWall
                : 0.0;
        const double meanReplaySec =
            detailRate > 0.0
                ? static_cast<double>(opts.checkpointEvery) / 2.0 /
                      detailRate
                : 0.0;
        std::printf(
            "  interval %llu cycles: %llu snapshots, "
            "%.3f ms each (%.3f s total)\n",
            static_cast<unsigned long long>(opts.checkpointEvery),
            static_cast<unsigned long long>(snaps),
            snaps != 0 ? snapWall * 1e3 /
                             static_cast<double>(snaps)
                       : 0.0,
            snapWall);
        std::printf("  run %.3f s vs reference %.3f s "
                    "(overhead %.1f%%); est. mean replay on crash "
                    "%.3f s\n",
                    runWall, refWall,
                    refWall > 0.0
                        ? (runWall / refWall - 1.0) * 100.0
                        : 0.0,
                    meanReplaySec);
        std::printf("  snapshots kept: BENCH_simspeed.ckpt.gen0..%u "
                    "(resume: --restore FILE)\n",
                    gens.keep() - 1);
    }
    std::printf("  digest %s: %016llx vs reference %016llx\n",
                identical ? "MATCH" : "MISMATCH",
                static_cast<unsigned long long>(res.fullDigest),
                static_cast<unsigned long long>(refRes.fullDigest));
    if (!identical) {
        std::fprintf(stderr,
                     "FAIL: checkpointed/restored run diverged "
                     "from the uninterrupted reference\n");
        return 1;
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::Options opts = bench::parseArgs(argc, argv,
                                           bench::kQuick | bench::kSeed |
                                           bench::kJobs | bench::kFf |
                                           bench::kDetailWindow |
                                           bench::kCheckpointEvery |
                                           bench::kRestore);
    bench::banner("simspeed — simulator throughput across canonical "
                  "scenarios",
                  "infrastructure (no paper figure): cycles/sec + "
                  "events/sec baseline");

    // Checkpoint/restore is its own mode (like a figure section):
    // the canonical scenarios stay serial and uncheckpointed so
    // their rates remain comparable against kBaseline.
    if (opts.checkpointEvery != 0 || !opts.restorePath.empty())
        return runCheckpointMode(opts);

    std::vector<SpeedResult> results;
    results.push_back(runFig2(opts));
    results.push_back(runTimerCore(opts));
    results.push_back(runL3Fwd(opts));
    results.push_back(runTimerCoreDes(opts.quick, opts.seed));
    results.push_back(runL3FwdDes(opts.quick, opts.seed));
    results.push_back(runFuzz(opts.quick, opts.seed));

    std::printf("%-14s %14s %14s %10s %14s %14s %9s\n", "scenario",
                "sim cycles", "events", "wall s", "cycles/s",
                "events/s", "speedup");
    for (const SpeedResult &r : results) {
        double base = baselineCyclesPerSec(r.name);
        std::printf("%-14s %14.0f %14.0f %10.3f %14.0f %14.0f %8.2fx\n",
                    r.name.c_str(), r.simCycles, r.events, r.wallSec,
                    r.cyclesPerSec(), r.eventsPerSec(),
                    base > 0.0 ? r.cyclesPerSec() / base : 0.0);
    }

    // Sampled-detail comparison table + gates. Accuracy deltas are
    // simulated quantities (deterministic per seed); the speedup is
    // a same-host ratio of the two passes, so both gates are safe
    // to enforce in CI.
    bool gateFailed = false;
    std::printf("\n%-14s %14s %12s %10s %12s %12s\n", "ff scenario",
                "ff cycles/s", "ff speedup", "ff frac",
                "p50 drift", "p99 drift");
    for (const SpeedResult &r : results) {
        if (!r.hasFf)
            continue;
        std::printf("%-14s %14.0f %11.2fx %9.1f%% %11.2f%% %11.2f%%\n",
                    r.name.c_str(), r.ffCyclesPerSec(),
                    r.ffSpeedupVsDetail(),
                    r.ffCycleFraction * 100.0, r.ffP50DeltaPct,
                    r.ffP99DeltaPct);
        if (!r.ffAccuracyOk) {
            std::fprintf(stderr,
                         "FAIL: %s sampled run drifted beyond "
                         "tolerance: %s\n",
                         r.name.c_str(), r.ffMessage.c_str());
            gateFailed = true;
        }
        if (r.gateFfSpeedup && r.ffSpeedupVsDetail() < 10.0) {
            std::fprintf(stderr,
                         "FAIL: %s sampled speedup %.2fx below the "
                         "10x requirement\n",
                         r.name.c_str(), r.ffSpeedupVsDetail());
            gateFailed = true;
        }
    }

    writeJson("BENCH_simspeed.json", results, opts.quick, opts.seed);
    std::printf("\nwrote BENCH_simspeed.json\n");

    runScalingMode("BENCH_parallel.json", opts);
    std::printf("wrote BENCH_parallel.json\n");
    if (gateFailed) {
        std::fprintf(stderr,
                     "simspeed: sampled-vs-detailed gate failed\n");
        return 1;
    }
    return 0;
}
