/**
 * @file
 * google-benchmark microbenchmarks for the substrate components:
 * LPM lookup and table build, skiplist operations, histogram
 * recording, event-queue throughput, cache-model construction and
 * access, branch-predictor updates, the 256-bit vector bitmap, the
 * pipeline-event digest, the bounded random draw and the functional
 * fast-forward loop.
 * These measure the *simulator's* own
 * performance, guarding against regressions that would make the
 * figure benches impractically slow.
 */

#include <benchmark/benchmark.h>

#include <vector>

#include "des/event_queue.hh"
#include "intr/bitset256.hh"
#include "kv/skiplist.hh"
#include "net/lpm.hh"
#include "net/traffic.hh"
#include "stats/histogram.hh"
#include "stats/rng.hh"
#include "uarch/branch_predictor.hh"
#include "uarch/cache.hh"
#include "uarch/uarch_system.hh"
#include "verify/digest_tracer.hh"
#include "workloads/kernels.hh"

using namespace xui;

static void
BM_LpmLookup(benchmark::State &state)
{
    Rng rng(1);
    LpmTable table(512);
    auto routes = installRandomRoutes(
        table, static_cast<std::size_t>(state.range(0)), rng);
    std::vector<std::uint32_t> probes;
    for (int i = 0; i < 4096; ++i)
        probes.push_back(randomCoveredIp(routes, rng));
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            table.lookup(probes[i++ & 4095]));
    }
}
BENCHMARK(BM_LpmLookup)->Arg(1000)->Arg(16000);

// One Fig. 8 table build: the 32 MiB DIR-24-8 table plus 16,000
// random routes at a fixed seed, as each L3Fwd constructor pays it.
// ~8 ms with tbl24 on 2 MiB pages on a 4-vCPU Xeon VM, ~13 ms on
// 4 KiB pages (run the binary through tests/no_thp_exec for that).
static void
BM_LpmBuild(benchmark::State &state)
{
    for (auto _ : state) {
        Rng rng(1);
        LpmTable table(512);
        benchmark::DoNotOptimize(
            installRandomRoutes(table, 16000, rng).size());
    }
}
BENCHMARK(BM_LpmBuild)->Unit(benchmark::kMillisecond);

static void
BM_SkipListGet(benchmark::State &state)
{
    SkipList list;
    const std::uint64_t n =
        static_cast<std::uint64_t>(state.range(0));
    for (std::uint64_t i = 0; i < n; ++i)
        list.put("key" + std::to_string(i), "value");
    Rng rng(2);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            list.get("key" + std::to_string(rng.nextBounded(n))));
    }
}
BENCHMARK(BM_SkipListGet)->Arg(1000)->Arg(100000);

static void
BM_SkipListPut(benchmark::State &state)
{
    SkipList list;
    std::uint64_t i = 0;
    for (auto _ : state)
        list.put("key" + std::to_string(i++), "value");
}
BENCHMARK(BM_SkipListPut);

static void
BM_HistogramRecord(benchmark::State &state)
{
    Histogram h;
    Rng rng(3);
    for (auto _ : state)
        h.record(static_cast<std::int64_t>(
            rng.nextBounded(1ull << 40)));
}
BENCHMARK(BM_HistogramRecord);

static void
BM_HistogramPercentile(benchmark::State &state)
{
    Histogram h;
    Rng rng(4);
    for (int i = 0; i < 100000; ++i)
        h.record(static_cast<std::int64_t>(
            rng.nextBounded(1ull << 30)));
    for (auto _ : state)
        benchmark::DoNotOptimize(h.p99());
}
BENCHMARK(BM_HistogramPercentile);

static void
BM_EventQueueChurn(benchmark::State &state)
{
    EventQueue q;
    for (auto _ : state) {
        q.scheduleAfter(10, [] {});
        q.runOne();
    }
}
BENCHMARK(BM_EventQueueChurn);

/**
 * The schedule/cancel re-arm of timeout-driven servers (bench/perf
 * des_apps' churn part): 8 watchdogs each re-arm every 50-150
 * cycles, cancelling a 500-1500-cycle timeout that therefore never
 * fires. One iteration fires one re-arm: a pop, a cancel and two
 * schedules.
 */
static void
BM_EventQueueTimeoutChurn(benchmark::State &state)
{
    struct Watchdog
    {
        EventQueue &q;
        Rng rng;
        EventId timeout = kInvalidEventId;

        void
        arm()
        {
            q.cancel(timeout);
            timeout = q.scheduleAfter(500 + rng.nextBounded(1000), [] {});
            q.scheduleAfter(50 + rng.nextBounded(100), [this] { arm(); });
        }
    };
    EventQueue q;
    std::vector<Watchdog> dogs;
    dogs.reserve(8);
    for (std::uint64_t i = 0; i < 8; ++i) {
        dogs.push_back(Watchdog{q, Rng(11 + i)});
        dogs.back().arm();
    }
    for (auto _ : state)
        benchmark::DoNotOptimize(q.runOne());
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventQueueTimeoutChurn);

/**
 * l3fwd's shape: 23k arrivals scheduled up front over a 5 ms window,
 * then drained in time order. Items are events.
 */
static void
BM_EventQueueDeep(benchmark::State &state)
{
    constexpr std::size_t kEvents = 23'000;
    Rng rng(23);
    std::vector<Cycles> offsets(kEvents);
    for (Cycles &o : offsets)
        o = rng.nextBounded(5 * kCyclesPerMs);
    EventQueue q;
    for (auto _ : state) {
        const Cycles base = q.now();
        for (Cycles o : offsets)
            q.scheduleAt(base + o, [] {});
        benchmark::DoNotOptimize(q.runAll());
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(kEvents));
}
BENCHMARK(BM_EventQueueDeep)->Unit(benchmark::kMicrosecond);

static void
BM_CacheAccess(benchmark::State &state)
{
    MemHierarchy mem;
    Rng rng(5);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            mem.access(rng.nextBounded(64ull << 20)));
    }
}
BENCHMARK(BM_CacheAccess);

/** A Table-3 hierarchy (32 MiB LLC) built and dropped, untouched. */
static void
BM_CacheConstruct(benchmark::State &state)
{
    for (auto _ : state) {
        MemHierarchy mem;
        benchmark::DoNotOptimize(&mem);
        benchmark::ClobberMemory();
    }
}
BENCHMARK(BM_CacheConstruct);

static void
BM_PredictorUpdate(benchmark::State &state)
{
    BranchPredictor bp;
    Rng rng(6);
    std::uint64_t pc = 0;
    for (auto _ : state) {
        bool taken = rng.nextBool(0.6);
        bool pred = bp.predict(pc);
        bp.update(pc, taken, pred);
        pc = (pc + 17) & 0xffff;
    }
}
BENCHMARK(BM_PredictorUpdate);

static void
BM_Bitset256Scan(benchmark::State &state)
{
    Bitset256 b;
    b.set(7);
    b.set(130);
    b.set(255);
    for (auto _ : state)
        benchmark::DoNotOptimize(b.findHighest());
}
BENCHMARK(BM_Bitset256Scan);

static void
BM_RngNext(benchmark::State &state)
{
    Rng rng(7);
    for (auto _ : state)
        benchmark::DoNotOptimize(rng.next());
}
BENCHMARK(BM_RngNext);

/** Lemire's bounded draw: a power of two (genAddress's common case)
 *  and a small odd bound. */
static void
BM_RngNextBounded(benchmark::State &state)
{
    Rng rng(8);
    const auto bound = static_cast<std::uint64_t>(state.range(0));
    for (auto _ : state)
        benchmark::DoNotOptimize(rng.nextBounded(bound));
}
BENCHMARK(BM_RngNextBounded)->Arg(64)->Arg(3);

/**
 * The functional fast-forward loop alone. With no timer and no
 * inbox the core enters fast-forward once and never leaves, so each
 * runCycles() is one bulk functional run. Items are instructions:
 * the time per item is the FF cost of one instruction, cache
 * warming included.
 */
static void
BM_FfRun(benchmark::State &state, Program (*make)(const KernelOptions &))
{
    const Program prog = make(KernelOptions{});
    CoreParams params;
    params.fastForward = true;
    UarchSystem sys(9);
    OooCore &core = sys.addCore(params, &prog);
    core.runCycles(10000);
    if (!core.fastForwarding()) {
        state.SkipWithError("the core did not enter fast-forward");
        return;
    }
    const std::uint64_t insts = core.stats().ffInsts;
    for (auto _ : state)
        core.runCycles(1000);
    state.SetItemsProcessed(
        static_cast<std::int64_t>(core.stats().ffInsts - insts));
}
BENCHMARK_CAPTURE(BM_FfRun, fib, &makeFib);
BENCHMARK_CAPTURE(BM_FfRun, base64, &makeBase64);

/** One pipeline event folded into the full and commit digests. */
static void
BM_DigestTracerEvent(benchmark::State &state)
{
    DigestTracer tracer;
    Cycles cycle = 1000;
    std::uint64_t seq = 0;
    std::uint32_t pc = 0x400000;
    for (auto _ : state) {
        tracer.event(seq % 5 == 0 ? TraceEvent::Commit : TraceEvent::Issue,
                     cycle, seq, pc, OpClass::IntAlu);
        benchmark::DoNotOptimize(tracer.fullDigest());
        cycle += seq & 1;
        ++seq;
        pc += 4;
    }
}
BENCHMARK(BM_DigestTracerEvent);

BENCHMARK_MAIN();
