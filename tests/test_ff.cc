/**
 * @file
 * Fast-forward (sampled-detail) mode tests.
 *
 * Exact mode is digest-guarded elsewhere (the golden corpus in
 * test_determinism.cc never enables fastForward, so any FF state
 * leaking into the exact path breaks those digests). This file
 * covers the sampled mode itself:
 *
 *  - the controller engages, accounts its cycles, and hands off
 *    cleanly (spans telescope, insts sum);
 *  - adversarial detail-window schedules (windows of 1 and 64
 *    cycles, warmup cut to a few cycles) force mode boundaries into
 *    every legal gap — mid-handler-tail, during tracked
 *    re-injection — and the architectural commit stream still
 *    matches a full-detail run for every deterministic-control
 *    golden-corpus row;
 *  - preemption lifecycles (save/restore) complete under the same
 *    adversarial schedule;
 *  - the sampler's burst-detail demand (CycleHook::wantDetailUntil)
 *    vetoes fast-forward;
 *  - delivery-latency distributions of a sampled run stay within
 *    tolerance of full detail (statcheck);
 *  - the hybrid co-sim driver bulk-advances a fast-forwarding core
 *    between DES events;
 *  - the full timing digest and the FF counters of sampled runs are
 *    pinned (golden rows under the timer-room and adversarial
 *    schedules, plus halt, microcoded-exit and commit-bound rows),
 *    so a change to the functional loop must land every instruction
 *    on the cycle it landed on before.
 */

#include <gtest/gtest.h>

#include <iomanip>
#include <ostream>

#include "des/simulation.hh"
#include "exec/sweep.hh"
#include "uarch/cosim.hh"
#include "uarch/uarch_system.hh"
#include "verify/digest_tracer.hh"
#include "verify/roundtrip.hh"
#include "verify/scenario.hh"
#include "verify/statcheck.hh"
#include "workloads/kernels.hh"

namespace xui
{
namespace
{

constexpr DeliveryStrategy kStrategies[] = {
    DeliveryStrategy::Flush,
    DeliveryStrategy::Drain,
    DeliveryStrategy::Tracked,
};

TEST(FastForward, EngagesAndAccountsCycles)
{
    ScenarioConfig cfg = goldenCorpusConfig(2, DeliveryStrategy::Tracked);
    cfg.timerPeriod = 4000;  // room for FF between handler runs
    cfg.fastForward = true;
    ScenarioResult r = runScenario(cfg);
    EXPECT_TRUE(r.ok()) << r.violations.front();
    EXPECT_GT(r.ffEntries, 0u);
    EXPECT_GE(r.ffEntries, r.ffExits);
    EXPECT_LE(r.ffEntries - r.ffExits, 1u);  // run may end in FF
    EXPECT_GT(r.ffCycles, 0u);
    EXPECT_LT(r.ffCycles, r.cycles);
    EXPECT_GT(r.ffInsts, 0u);
    EXPECT_LE(r.ffInsts, r.committedInsts);
    EXPECT_GE(r.committedInsts, cfg.targetInsts);
    EXPECT_GT(r.delivered, 0u);
}

TEST(FastForward, SpanAccountingTelescopes)
{
    Program p = makeSpinLoop();
    CoreParams params;
    params.strategy = DeliveryStrategy::Tracked;
    params.fastForward = true;
    params.detailWindow = 128;
    params.ffWarmup = 32;
    UarchSystem sys(3);
    OooCore &core = sys.addCore(params, &p);
    core.kbTimer().configure(true, 0x21);
    core.kbTimer().setTimer(0, 2000, KbTimerMode::Periodic);
    core.runCycles(50000);

    const CoreStats &s = core.stats();
    ASSERT_GT(s.ffEntries, 0u);
    ASSERT_EQ(s.ffSpans.size(), s.ffEntries);
    std::uint64_t insts = 0;
    Cycles ff_cycles = 0;
    for (std::size_t i = 0; i < s.ffSpans.size(); ++i) {
        const FfSpan &span = s.ffSpans[i];
        Cycles end =
            span.exitedAt != 0 ? span.exitedAt : core.now();
        EXPECT_GE(end, span.enteredAt) << "span " << i;
        if (i > 0) {
            EXPECT_GE(span.enteredAt, s.ffSpans[i - 1].exitedAt)
                << "span " << i << " overlaps predecessor";
        }
        insts += span.insts;
        ff_cycles += end - span.enteredAt;
    }
    // The still-open span (if any) has not rolled its insts up yet.
    if (s.ffExits == s.ffEntries) {
        EXPECT_EQ(insts, s.ffInsts);
    }
    EXPECT_EQ(ff_cycles, s.ffCycles);
}

/**
 * Adversarial window schedules over the deterministic-control half
 * of the golden corpus (even seeds: branch outcomes are pure
 * functions of the program, so the main-code commit-PC stream must
 * be identical across modes; odd seeds draw branch outcomes from
 * the core RNG, whose consumption legitimately differs when
 * wrong-path fetch is skipped). Windows of 1 and 64 cycles with a
 * short warmup force mode transitions into every gap the
 * controller can legally use, including the cycles right after
 * handler returns and during tracked re-injection.
 */
TEST(FastForward, AdversarialWindowsPreserveArchStream)
{
    std::uint64_t total_ff_entries = 0;
    std::uint64_t tracked_reinjections = 0;
    for (std::uint64_t seed = 0; seed < 32; seed += 2) {
        for (DeliveryStrategy strategy : kStrategies) {
            ScenarioConfig base = goldenCorpusConfig(seed, strategy);
            ScenarioResult detail = runScenario(base);
            ASSERT_TRUE(detail.ok())
                << "seed " << seed << ": "
                << detail.violations.front();
            for (Cycles window : {Cycles(1), Cycles(64)}) {
                ScenarioConfig cfg = base;
                cfg.fastForward = true;
                cfg.detailWindow = window;
                cfg.ffWarmup = 8;
                ScenarioResult ff = runScenario(cfg);
                std::string at = "seed " + std::to_string(seed) +
                    " window " + std::to_string(window);
                ASSERT_TRUE(ff.ok())
                    << at << ": " << ff.violations.front();
                ArchEquivalenceReport rep =
                    checkArchEquivalence(detail, ff, 1000);
                EXPECT_TRUE(rep.ok) << at << ": " << rep.message;
                total_ff_entries += ff.ffEntries;
                if (strategy == DeliveryStrategy::Tracked)
                    tracked_reinjections += ff.reinjections;
            }
        }
    }
    // The schedules must actually have exercised mode boundaries —
    // a controller that never engages trivially passes equivalence.
    EXPECT_GT(total_ff_entries, 100u);
    EXPECT_GT(tracked_reinjections, 0u);
}

/**
 * Preemption save/restore lifecycles complete under an adversarial
 * window schedule: a high-priority vector raised whenever a handler
 * is architecturally committed, with a 1-cycle detail window
 * pushing fast-forward entry attempts right up against the
 * save/restore microcode.
 */
TEST(FastForward, PreemptionSurvivesAdversarialWindows)
{
    Program p = makePointerChase(30, 256ull << 10, false);
    CoreParams params;
    params.strategy = DeliveryStrategy::Tracked;
    params.fastForward = true;
    params.detailWindow = 1;
    params.ffWarmup = 8;
    UarchSystem sys(11);
    OooCore &core = sys.addCore(params, &p);
    core.kbTimer().configure(true, 0x21);
    core.kbTimer().setTimer(0, 2000, KbTimerMode::Periodic);
    core.intrUnit().setVectorPriority(0x40, 3);

    Cycles lastRaise = 0;
    for (int step = 0;
         step < 20000 && core.stats().preemptions == 0; ++step) {
        core.runCycles(25);
        if (core.intrUnit().state() == TrackerState::Committed &&
            core.now() - lastRaise > 1500) {
            core.intrUnit().raise(IntrSource::UserIpi, 0x40,
                                  core.now());
            lastRaise = core.now();
        }
    }
    ASSERT_GE(core.stats().preemptions, 1u);
    core.runCycles(30000);
    EXPECT_GE(core.stats().preemptRestores, 1u);
    EXPECT_GT(core.stats().ffEntries, 0u);
    EXPECT_GE(core.stats().interruptsRaised,
              core.stats().interruptsDelivered);
}

/** A cycle hook demanding detail (the sampler in a burst) vetoes
 *  fast-forward entry for as long as the demand stands. */
TEST(FastForward, WantDetailUntilVetoesEntry)
{
    struct DemandHook : CycleHook
    {
        void onCycle(const OooCore &, bool, bool) override {}
    };

    Program p = makeSpinLoop();
    CoreParams params;
    params.strategy = DeliveryStrategy::Tracked;
    params.fastForward = true;
    params.detailWindow = 64;
    params.ffWarmup = 16;

    UarchSystem vetoed(7);
    OooCore &core = vetoed.addCore(params, &p);
    core.kbTimer().configure(true, 0x21);
    core.kbTimer().setTimer(0, 8000, KbTimerMode::Periodic);
    DemandHook hook;
    hook.wantDetailUntil = ~Cycles(0);
    core.setCycleHook(&hook);
    core.runCycles(40000);
    EXPECT_EQ(core.stats().ffEntries, 0u);

    UarchSystem control(7);
    OooCore &free_core = control.addCore(params, &p);
    free_core.kbTimer().configure(true, 0x21);
    free_core.kbTimer().setTimer(0, 8000, KbTimerMode::Periodic);
    free_core.runCycles(40000);
    EXPECT_GT(free_core.stats().ffEntries, 0u);
}

TEST(FastForward, SampledLatenciesWithinTolerance)
{
    // Fixed simulated-cycle horizon (targetInsts trivially met, the
    // run is all extraCycles): both modes see the same wall of
    // simulated time and hence the same periodic-timer raise
    // schedule, so delivery counts and latency distributions are
    // directly comparable. Fixed-instruction runs are not — the IPC
    // model's error changes how many timer periods fit.
    ScenarioConfig cfg = goldenCorpusConfig(4, DeliveryStrategy::Tracked);
    cfg.timerPeriod = 2000;
    cfg.targetInsts = 1;
    cfg.extraCycles = 100000;
    ScenarioResult detail = runScenario(cfg);
    cfg.fastForward = true;
    ScenarioResult sampled = runScenario(cfg);
    ASSERT_TRUE(detail.ok());
    ASSERT_TRUE(sampled.ok());
    ASSERT_GT(sampled.ffCycles, 0u);
    StatEquivalenceReport rep = checkStatEquivalence(
        detail.intrRecords, sampled.intrRecords, 5.0);
    EXPECT_TRUE(rep.ok) << rep.message;
}

/**
 * What a sampled-run pin fixes: the full timing digest (every trace
 * event with its cycle, the functional loop's Commit events
 * included), the arch digest, and the fast-forward accounting.
 */
struct FfPin
{
    std::uint64_t fullDigest;
    std::uint64_t archDigest;
    Cycles cycles;
    Cycles ffCycles;
    std::uint64_t ffInsts;
    std::uint64_t ffEntries;
    std::uint64_t ffExits;

    bool operator==(const FfPin &) const = default;
};

/** Prints a pin in the tables' own row syntax, so a failure message
 *  is the replacement row. */
std::ostream &
operator<<(std::ostream &os, const FfPin &p)
{
    return os << std::hex << std::setfill('0') << "{0x"
              << std::setw(16) << p.fullDigest << "ull, 0x"
              << std::setw(16) << p.archDigest << "ull, " << std::dec
              << p.cycles << ", " << p.ffCycles << ", " << p.ffInsts
              << ", " << p.ffEntries << ", " << p.ffExits << "}";
}

FfPin
pinOf(const ScenarioResult &r)
{
    return {r.fullDigest, r.archDigest,  r.cycles,  r.ffCycles,
            r.ffInsts,    r.ffEntries,   r.ffExits};
}

FfPin
pinOf(const OooCore &core, const DigestTracer &digest)
{
    const CoreStats &s = core.stats();
    return {digest.fullDigest(), digest.archDigest(), core.now(),
            s.ffCycles,          s.ffInsts,           s.ffEntries,
            s.ffExits};
}

/** One golden-corpus row run with fast-forward on. */
struct SampledGolden
{
    std::uint64_t seed;
    DeliveryStrategy strategy;
    /** 0: the timer-room schedule of EngagesAndAccountsCycles;
     *  otherwise the adversarial detail window, with ffWarmup 8. */
    Cycles window;
    FfPin pin;
};

ScenarioConfig
sampledConfig(const SampledGolden &g)
{
    ScenarioConfig cfg = goldenCorpusConfig(g.seed, g.strategy);
    cfg.fastForward = true;
    if (g.window == 0) {
        cfg.timerPeriod = 4000;
    } else {
        cfg.detailWindow = g.window;
        cfg.ffWarmup = 8;
    }
    return cfg;
}

constexpr DeliveryStrategy F = DeliveryStrategy::Flush;
constexpr DeliveryStrategy D = DeliveryStrategy::Drain;
constexpr DeliveryStrategy T = DeliveryStrategy::Tracked;

/** Every golden-corpus row under the timer-room schedule, and seeds
 *  1-8 under the 1- and 64-cycle adversarial windows. */
const SampledGolden kSampledGoldens[] = {
    {1, F, 0, {0x6457d200abea5264ull, 0x8cf779a0bcd1a2f3ull, 9119, 6059, 4627, 2, 2}},
    {1, D, 0, {0xea99fe34e7dc13f6ull, 0x02a9c278b7ddae99ull, 8686, 6211, 5566, 2, 2}},
    {1, T, 0, {0x22b198e4cf1a56a0ull, 0x795d9116159eac38ull, 8464, 6322, 6137, 2, 2}},
    {2, F, 0, {0x46546dfaa3181acdull, 0x8c68bf58a63a6f02ull, 8702, 6344, 6110, 2, 2}},
    {2, D, 0, {0xaeaf0c5fa0c3ca30ull, 0xaee0802527cbc3a5ull, 8269, 6765, 7795, 2, 2}},
    {2, T, 0, {0x5f2a0cadcfd589b0ull, 0xa724b665d1fff742ull, 8268, 6766, 7801, 2, 2}},
    {3, F, 0, {0xc7719794364665a7ull, 0xc2fcec528a5001a5ull, 8996, 5987, 5066, 2, 2}},
    {3, D, 0, {0xb2231a9b539edcd2ull, 0xf8f76545e9b07532ull, 8583, 6143, 6150, 2, 2}},
    {3, T, 0, {0xd7450ac2b1aca9faull, 0x3684bb2f2ba61212ull, 8346, 6241, 6860, 2, 2}},
    {4, F, 0, {0x0ab6fcdf50e28a35ull, 0x76bbf28c89abb8eeull, 9482, 6530, 4160, 3, 2}},
    {4, D, 0, {0x06d5c87ee11d79faull, 0xfa0b2c729e2e8aa2ull, 8859, 6579, 4430, 2, 2}},
    {4, T, 0, {0xcc9d5b01cd2a4ef8ull, 0x538ad6e654123029ull, 8736, 6631, 4516, 2, 2}},
    {5, F, 0, {0x34f4d8998458a7d8ull, 0x2a97dd0f16112ec5ull, 9123, 5945, 4648, 2, 2}},
    {5, D, 0, {0x999b50ac8a0104b7ull, 0xf6ea2783206f46c9ull, 8714, 6151, 5328, 2, 2}},
    {5, T, 0, {0x2f77b41f23bf066eull, 0x18bbd10e6bf0fae5ull, 8491, 6218, 5993, 2, 2}},
    {6, F, 0, {0x4c3dc6e9dd7bcf4aull, 0xf0eb48d50171d0b4ull, 8947, 6226, 4674, 2, 2}},
    {6, D, 0, {0x664df156a097cc17ull, 0x4b4a2960ec082d9dull, 8317, 6432, 5325, 2, 2}},
    {6, T, 0, {0xcdb6c11fe2bd95c6ull, 0xde82ac4cd7e9ca93ull, 8211, 6538, 5820, 2, 2}},
    {7, F, 0, {0xc02b9bf0c5d8c3acull, 0x5bd077d5579928dcull, 7993, 6421, 5831, 2, 2}},
    {7, D, 0, {0x9a5525ac250aede2ull, 0x62fdeacadadae74bull, 7993, 6846, 6789, 2, 2}},
    {7, T, 0, {0xaff945fad8d3eeccull, 0x5a60f3678109acebull, 7993, 6850, 6807, 2, 2}},
    {8, F, 0, {0x32bd1f00aec0aac2ull, 0x264881fb406dfed6ull, 8992, 5958, 5054, 2, 2}},
    {8, D, 0, {0xa9e3c129374a3d6dull, 0x56f18f16397b8cc5ull, 8573, 6164, 6219, 2, 2}},
    {8, T, 0, {0x5f7b3cf09bb52452ull, 0xde5badf65cff8ffcull, 8336, 6243, 6922, 2, 2}},
    {9, F, 0, {0x54f7661b5d8f8347ull, 0x9b39fd01e245bd41ull, 8653, 6367, 6850, 2, 2}},
    {9, D, 0, {0x065d5ade428713c9ull, 0x5fb7ef8d6fd47a40ull, 8215, 6781, 9153, 2, 2}},
    {9, T, 0, {0x398997935c426bcaull, 0xb3035bafb28c7e66ull, 8214, 6782, 9161, 2, 2}},
    {10, F, 0, {0x496c509768f5b20dull, 0x6b26112164b5e0e7ull, 9087, 5987, 4690, 2, 2}},
    {10, D, 0, {0xbd4aed0d8846141eull, 0x2272464fda54d0d6ull, 8631, 6195, 5657, 2, 2}},
    {10, T, 0, {0x65f7706bdad91e34ull, 0xea5671b41eee6f47ull, 8408, 6304, 6371, 2, 2}},
    {11, F, 0, {0xb4c98866f4164e78ull, 0x68607fab044a71cdull, 9125, 6205, 4329, 2, 2}},
    {11, D, 0, {0xc0fc2aceeb603ecdull, 0xaa2237884767a527ull, 8665, 6441, 4976, 2, 2}},
    {11, T, 0, {0xf5b9a1dfa5aaed84ull, 0xdb5f0728bdd5e767ull, 8470, 6525, 5328, 2, 2}},
    {12, F, 0, {0x33ba3d243d168be2ull, 0x21f90895b1dbcd41ull, 8618, 6421, 5012, 2, 2}},
    {12, D, 0, {0x2fda64bc53e8c507ull, 0x42a23f39c5fea62cull, 8187, 6836, 5942, 2, 2}},
    {12, T, 0, {0x11bc2a87744c9fcfull, 0x7ccf5fb202a03884ull, 8184, 6839, 5952, 2, 2}},
    {13, F, 0, {0x62bb893a2da938b5ull, 0x0a9a77e7033bd9aeull, 9183, 5992, 4497, 2, 2}},
    {13, D, 0, {0x25506b29d36416e3ull, 0x3507d03df9f6f0a4ull, 8839, 6171, 5050, 2, 2}},
    {13, T, 0, {0xa2bb090a594d7017ull, 0xc346caeff4c9e904ull, 8616, 6266, 5491, 2, 2}},
    {14, F, 0, {0x64c2be4580684773ull, 0xee615b592d8d47a5ull, 9074, 5987, 4803, 2, 2}},
    {14, D, 0, {0xebb6d1d6b67fc878ull, 0x76b431c955628f05ull, 8594, 6161, 5822, 2, 2}},
    {14, T, 0, {0xfc06a1eacffcf2a0ull, 0x49e481a4fc3f49b3ull, 8358, 6284, 6428, 2, 2}},
    {15, F, 0, {0x0526872d6a0b0f36ull, 0x9e89ff4a22375b99ull, 9292, 6029, 4295, 3, 2}},
    {15, D, 0, {0x52d0eb1026a47782ull, 0x54965fa1bb0385cbull, 8846, 6192, 4800, 2, 2}},
    {15, T, 0, {0xd3952fbfc59826dfull, 0x42cc9531b61f91acull, 8585, 6275, 5218, 2, 2}},
    {16, F, 0, {0x16b85555a0fb346full, 0xb76539eb2bdfe51eull, 9319, 6056, 4291, 3, 2}},
    {16, D, 0, {0xa7ce1cdb01100a9dull, 0x00736553137cc0a6ull, 8958, 6219, 4832, 2, 2}},
    {16, T, 0, {0xfd9ecb01ece39ebcull, 0x74284c4478b2cb46ull, 8737, 6297, 5110, 2, 2}},
    {17, F, 0, {0x97ee89e5a103a2a8ull, 0x0e5c31bab2196d24ull, 9157, 5997, 4479, 2, 2}},
    {17, D, 0, {0x2c72e7711aa7e501ull, 0x05e82f040ec4e263ull, 8722, 6219, 5197, 2, 2}},
    {17, T, 0, {0xec79bc7ca87d881eull, 0xb612b695bb2e3dc2ull, 8502, 6297, 5573, 2, 2}},
    {18, F, 0, {0x7535122f74df16ceull, 0xf6958d64260442f2ull, 9076, 5969, 4784, 2, 2}},
    {18, D, 0, {0xd2b174a5de9c5c57ull, 0xb3ed78082bf69c44ull, 8590, 6167, 6198, 2, 2}},
    {18, T, 0, {0x2e850495c6f4c38dull, 0x6e29b0889d17c244ull, 8366, 6224, 6529, 2, 2}},
    {19, F, 0, {0x072bb06152467ea6ull, 0x219c94b5306d2895ull, 9028, 5999, 4700, 2, 2}},
    {19, D, 0, {0x99a3e84f3d1ed2f9ull, 0x55a7108d38943706ull, 8644, 6209, 5671, 2, 2}},
    {19, T, 0, {0x4383bd33123020b6ull, 0x753bfcc9ce044b86ull, 8422, 6288, 6219, 2, 2}},
    {20, F, 0, {0x6bf5b0696beac006ull, 0x82f8798fd525585dull, 9206, 5987, 4544, 2, 2}},
    {20, D, 0, {0x651eb29d4d999ca0ull, 0x93ad1597f66c9ca4ull, 8800, 6188, 5158, 2, 2}},
    {20, T, 0, {0xcd7582124d50b458ull, 0x375ac50605c133f3ull, 8563, 6262, 5510, 2, 2}},
    {21, F, 0, {0x92ca03df8956f5caull, 0x5f94925eb84d1d84ull, 8644, 6422, 4689, 2, 2}},
    {21, D, 0, {0xf882473ff54f6febull, 0x74397081c7ea42c4ull, 8203, 6847, 5435, 2, 2}},
    {21, T, 0, {0x91f94be00b66b157ull, 0xf69402b31cd55c62ull, 8348, 6855, 5247, 2, 2}},
    {22, F, 0, {0xf37cde54dd1e2425ull, 0x14d0a929d6b5e464ull, 9250, 5998, 4342, 2, 2}},
    {22, D, 0, {0xc9eb4355f8fca558ull, 0x710668e154b2f6d9ull, 8774, 6212, 5073, 2, 2}},
    {22, T, 0, {0xcab7920f07de4340ull, 0x94ab75d759ca3c84ull, 8552, 6290, 5503, 2, 2}},
    {23, F, 0, {0xbb677d03c4afd641ull, 0x5926c4977e5c4485ull, 8800, 6216, 5301, 2, 2}},
    {23, D, 0, {0x41249518cfc1254dull, 0xeee7b1b0f24f13f6ull, 8196, 6365, 6438, 2, 2}},
    {23, T, 0, {0xb77900c8c08f9ff8ull, 0x58f7a36d6150b0d6ull, 8196, 6467, 7032, 2, 2}},
    {24, F, 0, {0x08896ddc1bc378acull, 0xdfe549d4121c1fe5ull, 9093, 5997, 4502, 2, 2}},
    {24, D, 0, {0x8de69c63eec07f70ull, 0x94f46c82464f1105ull, 8698, 6299, 5462, 2, 2}},
    {24, T, 0, {0xd17c006f107ed957ull, 0xd187aea6b3a5ccdeull, 8468, 6288, 5931, 2, 2}},
    {25, F, 0, {0xc8b498937b82d42cull, 0xa4aa26bfa6003ce9ull, 8993, 5991, 4676, 2, 2}},
    {25, D, 0, {0xde8eb736b80ccbdbull, 0x119cb8b52b3b6ff2ull, 8663, 6253, 5599, 2, 2}},
    {25, T, 0, {0xf73b4ca7be443628ull, 0xc99f5448cd0ca392ull, 8443, 6289, 6095, 2, 2}},
    {26, F, 0, {0x42e7bb838b049262ull, 0x5feba88721b98d65ull, 9065, 6236, 4270, 2, 2}},
    {26, D, 0, {0x54aeb6e299a1d2aaull, 0x11483256a0f03c6full, 8739, 6429, 4565, 2, 2}},
    {26, T, 0, {0x4c44c87c5ce40131ull, 0x4c39762e47658e80ull, 8531, 6543, 4901, 2, 2}},
    {27, F, 0, {0x14c6c65ab22d31e7ull, 0x9b6af33928bfa4c5ull, 9002, 5986, 5129, 2, 2}},
    {27, D, 0, {0x2d94f27fec7b8392ull, 0x0856568891c919e5ull, 8595, 6171, 5713, 2, 2}},
    {27, T, 0, {0xcbaec8ae419cace1ull, 0xc39494a1fa6af608ull, 8375, 6218, 6488, 2, 2}},
    {28, F, 0, {0x53250e0465f12294ull, 0x043e2f7ce083af85ull, 9978, 6713, 4193, 3, 2}},
    {28, D, 0, {0x78a1d09e29e64651ull, 0x8e152f5cb19569a9ull, 9121, 6270, 4479, 3, 2}},
    {28, T, 0, {0x22a8282bba799a86ull, 0x7e4ed553de00c32full, 8892, 6301, 4717, 2, 2}},
    {29, F, 0, {0xad04ada95b90065dull, 0x4929e381ce3d4ee4ull, 8812, 6201, 4946, 2, 2}},
    {29, D, 0, {0xa0201298073eb376ull, 0xa67a69e842bb43ceull, 8221, 6419, 5619, 2, 2}},
    {29, T, 0, {0xe8d6ed7214a21247ull, 0x51e463a7556e9669ull, 8221, 6460, 5948, 2, 2}},
    {30, F, 0, {0x7487f03cc8825a88ull, 0x878d9b81b0ef536cull, 8800, 6163, 5843, 2, 2}},
    {30, D, 0, {0x09ad8d353c6ac8cbull, 0x235474e5ab0900c1ull, 8431, 6517, 7389, 2, 2}},
    {30, T, 0, {0x9f270de7a034da09ull, 0xaa317bba37a658c4ull, 8356, 6592, 7810, 2, 2}},
    {31, F, 0, {0xf0b05b3034b06f89ull, 0xc841737d7563a933ull, 9193, 5994, 4537, 2, 2}},
    {31, D, 0, {0x137d2e14d0df9066ull, 0xa671ee264337f193ull, 8743, 6189, 5253, 2, 2}},
    {31, T, 0, {0xd9dcf1c462bc678dull, 0x008d7360592e4824ull, 8506, 6270, 5715, 2, 2}},
    {32, F, 0, {0x62e346279137d41full, 0x5130cd13f34a14c2ull, 9034, 6209, 4439, 2, 2}},
    {32, D, 0, {0xf86873999eddbb6eull, 0x8617d6f35ea490a4ull, 8669, 6410, 4890, 2, 2}},
    {32, T, 0, {0xe55a0309a26b0488ull, 0x6c6d830dbb2dfc84ull, 8447, 6498, 5405, 2, 2}},
    {1, F, 1, {0x9807e5d67950e1d6ull, 0x59e0f4ecccd7e052ull, 299151, 358, 358, 1, 1}},
    {1, D, 1, {0x5fbac54840b6658bull, 0x11f6f0c52a2e68fdull, 27866, 7825, 1528, 27, 26}},
    {1, T, 1, {0x378c8213e426b5e2ull, 0xb5bcbd400aaa45c6ull, 15734, 6238, 2711, 26, 26}},
    {2, F, 1, {0x04a20422547dedeeull, 0x69951ec88aba5245ull, 24953, 574, 574, 1, 1}},
    {2, D, 1, {0x14ea27711a65c3c6ull, 0x4d71f72490f1d701ull, 8812, 6968, 6968, 15, 14}},
    {2, T, 1, {0x90361b569ed64bc8ull, 0xf7635a04ea029b66ull, 8812, 7066, 7066, 15, 14}},
    {3, F, 1, {0x6cdcf7f33380e3dbull, 0x1516f0571a068665ull, 259515, 358, 358, 1, 1}},
    {3, D, 1, {0x6e705ba8b32058f3ull, 0xa9806993bfb1d5e5ull, 13769, 358, 358, 1, 1}},
    {3, T, 1, {0xaee04a699fc767c7ull, 0x9e9cb809a11cd444ull, 8754, 1085, 1040, 7, 7}},
    {4, F, 1, {0x5929789228806848ull, 0x8b3b0aa44cd11892ull, 254713, 576, 576, 1, 1}},
    {4, D, 1, {0x85a37bfc1f7fb1f1ull, 0x1c1030c3b9922f95ull, 12244, 5484, 5484, 20, 20}},
    {4, T, 1, {0xf460d4f13c3c1d5full, 0xb80f4bdd8e77af24ull, 12361, 5060, 3900, 20, 20}},
    {5, F, 1, {0x4a814fa756c34072ull, 0x31e1ed4351ca5049ull, 185710, 358, 358, 1, 1}},
    {5, D, 1, {0x1ee36ac9c16398d3ull, 0x1ee207c617fae569ull, 13225, 358, 358, 1, 1}},
    {5, T, 1, {0x1832ae3ba605404eull, 0xfcc85b841c4e9789ull, 9202, 622, 466, 3, 3}},
    {6, F, 1, {0x9087af717dbb7675ull, 0xa937cc798f0a0d45ull, 96989, 574, 574, 1, 1}},
    {6, D, 1, {0x3bd0cedb32345248ull, 0x814f9ec02a7c18a3ull, 9577, 6146, 6146, 16, 15}},
    {6, T, 1, {0xa6df80c6b949f4e3ull, 0x67996e4166755b45ull, 14014, 5865, 2765, 24, 23}},
    {7, F, 1, {0xbfdf22eec6364989ull, 0x9efbc1e8a3b0afd3ull, 27387, 575, 575, 1, 1}},
    {7, D, 1, {0x803e1b157c10e9a6ull, 0xe89ef5cc39f36119ull, 8734, 6883, 6883, 15, 14}},
    {7, T, 1, {0x204e3c579d356c33ull, 0x758851ab7375e652ull, 8731, 6916, 6916, 15, 14}},
    {8, F, 1, {0xdbd6d532e71244e2ull, 0x44381f2bd63f2ce4ull, 292513, 355, 355, 1, 1}},
    {8, D, 1, {0x91a5bbd76e5177f1ull, 0xae2fa722e4fb07a5ull, 18837, 6789, 2637, 27, 27}},
    {8, T, 1, {0x5f9dd63ccc0b0fc1ull, 0xaa6bd70a831303c4ull, 9866, 1736, 1581, 9, 9}},
    {1, F, 64, {0x5195a18a2efe764aull, 0x78558a56c2c63dd8ull, 330352, 358, 358, 1, 1}},
    {1, D, 64, {0x49286ad145339408ull, 0xa5a2b75048b0f814ull, 16809, 358, 358, 1, 1}},
    {1, T, 64, {0x3a3dd19c46062070ull, 0xac1ec383e2affb07ull, 14553, 3356, 1344, 24, 24}},
    {2, F, 64, {0x4f40910c4d692b1eull, 0x6852f85b5f07584dull, 23198, 574, 574, 1, 1}},
    {2, D, 64, {0xa95b2f5785f9f666ull, 0x7e0787977d15abeaull, 9118, 6098, 5512, 15, 15}},
    {2, T, 64, {0xc62df4751147c7fbull, 0x8b9bb7c4a0e2e322ull, 8970, 6182, 6053, 15, 14}},
    {3, F, 64, {0xf82469f2468a7918ull, 0x615365dea43d5cf2ull, 251713, 358, 358, 1, 1}},
    {3, D, 64, {0xce013ee2fd06e4d7ull, 0xd624c6ea9a9f7c24ull, 9982, 358, 358, 1, 1}},
    {3, T, 64, {0x2ba7944133f585b1ull, 0x31a1dc7a768d6a25ull, 8048, 358, 358, 1, 1}},
    {4, F, 64, {0xddc609c3fc2a92e4ull, 0x0b9cc8640718f519ull, 260710, 576, 576, 1, 1}},
    {4, D, 64, {0x854cc571c2c45537ull, 0xa22058e5125c04ffull, 32302, 3517, 1293, 17, 17}},
    {4, T, 64, {0x2381d88cae8d93daull, 0x2e9c19f84661dd24ull, 23089, 6610, 2110, 38, 38}},
    {5, F, 64, {0x66d40ec788f9784aull, 0x18623adc174041a5ull, 177952, 358, 358, 1, 1}},
    {5, D, 64, {0xcc5ac8946c4afe83ull, 0xdc95ef7ccfc0c548ull, 10209, 358, 358, 1, 1}},
    {5, T, 64, {0x47574aacdae47338ull, 0xa45578ebba3fe448ull, 8534, 358, 358, 1, 1}},
    {6, F, 64, {0x7def4b68a9119d99ull, 0xa991cd32696488d3ull, 98738, 574, 574, 1, 1}},
    {6, D, 64, {0x65490c2cc1718d51ull, 0xcc0cff10466b2f24ull, 18369, 795, 621, 2, 2}},
    {6, T, 64, {0x0bd139abb22dccb9ull, 0x1d56b1e4337abb9aull, 15281, 4395, 1593, 25, 25}},
    {7, F, 64, {0xb5e61077178317e3ull, 0x03d8e519eea4331cull, 26176, 575, 575, 1, 1}},
    {7, D, 64, {0x0d48eca275ec52aeull, 0x64d7db1622f1b2b8ull, 10590, 7425, 4697, 18, 17}},
    {7, T, 64, {0xf463787a2acb96ebull, 0x969fd526635f1d44ull, 10973, 7664, 4457, 18, 18}},
    {8, F, 64, {0x2c2dbafec40c0dffull, 0xdb3fd6260a7b64fcull, 279354, 355, 355, 1, 1}},
    {8, D, 64, {0x8b7036aeb66221e0ull, 0xad6ba5531de0b9bdull, 10225, 935, 566, 4, 4}},
    {8, T, 64, {0xafb85a396f58641eull, 0x717a0306f351268eull, 9222, 940, 569, 4, 4}},
};

TEST(FastForward, SampledDigestsArePinned)
{
    const std::size_t n = std::size(kSampledGoldens);
    std::vector<ScenarioResult> results =
        exec::sweep(n, 4, [](std::size_t i) {
            return runScenario(sampledConfig(kSampledGoldens[i]));
        });
    for (std::size_t i = 0; i < n; ++i) {
        const SampledGolden &g = kSampledGoldens[i];
        const ScenarioResult &r = results[i];
        std::string at = "seed " + std::to_string(g.seed) +
            " strategy " + std::to_string(static_cast<int>(g.strategy)) +
            " window " + std::to_string(g.window);
        EXPECT_TRUE(r.ok()) << at << ": " << r.violations.front();
        EXPECT_EQ(pinOf(r), g.pin) << at;
        // A row that never fast-forwards would pin nothing here.
        EXPECT_GT(r.ffEntries, 0u) << at;
    }
}

/**
 * A loop of ALU, stride-load, random-load (a non-power-of-two range,
 * so the bounded draw's rejection test runs) and store ops.
 */
void
emitFfBody(ProgramBuilder &b, std::uint64_t trips)
{
    std::uint32_t body = b.here();
    b.intAlu(reg::kGpr0 + 1, reg::kGpr0 + 1);
    b.load(reg::kGpr0 + 2,
           AddrPattern{AddrKind::Stride, 0x10000, 64, 1u << 16});
    b.intMult(reg::kGpr0 + 3, reg::kGpr0 + 2);
    b.load(reg::kGpr0 + 4,
           AddrPattern{AddrKind::Random, 0x80000, 0, 3u << 12});
    b.store(reg::kGpr0 + 3,
            AddrPattern{AddrKind::Stride, 0x40000, 8, 4096});
    b.loopBranch(body, trips);
}

/**
 * One core, no timer: the run enters fast-forward and never leaves.
 * The first leg stops on runUntilCommitted's IPC-sized bound, the
 * second reaches halt() inside the region, and the third is the
 * idle jump of a halted fast-forwarding core.
 */
TEST(FastForward, HaltAndCommitBoundArePinned)
{
    ProgramBuilder b("ff_halt");
    emitFfBody(b, 4000);
    b.halt();
    b.beginHandler();
    b.uiret();
    Program p = b.build();

    CoreParams params;
    params.strategy = DeliveryStrategy::Tracked;
    params.fastForward = true;
    UarchSystem sys(21);
    DigestTracer digest;
    sys.setTracer(&digest);
    OooCore &core = sys.addCore(params, &p);
    const CoreStats &s = core.stats();

    // The bound: each bulk run is sized by the IPC model, so the
    // target is overshot by less than one cycle's credit (at most
    // kFfMaxIpcQ16 = 8 instructions).
    core.runUntilCommitted(10000, 1'000'000);
    ASSERT_TRUE(core.fastForwarding());
    EXPECT_GE(s.committedInsts, 10000u);
    EXPECT_LT(s.committedInsts, 10000u + 8);
    EXPECT_GT(s.ffInsts, 9000u);

    // Halt inside the region: every program instruction commits,
    // the halt does not, and fast-forward is never exited.
    core.runCycles(60000);
    ASSERT_TRUE(core.halted());
    ASSERT_TRUE(core.fastForwarding());
    EXPECT_EQ(s.committedInsts, 6u * 4000);
    EXPECT_EQ(s.ffEntries, 1u);
    EXPECT_EQ(s.ffExits, 0u);

    // The idle jump: cycles accrue as functional cycles, nothing
    // executes.
    const Cycles ff_cycles = s.ffCycles;
    const std::uint64_t ff_insts = s.ffInsts;
    core.runCycles(10000);
    EXPECT_EQ(s.ffCycles, ff_cycles + 10000);
    EXPECT_EQ(s.ffInsts, ff_insts);
    EXPECT_EQ(s.ffCycles, core.now() - s.ffSpans.front().enteredAt);

    const FfPin pin = {0xa7d96fa1b70e60b4ull, 0x47eb47a94f747725ull, 80232, 79995, 23994, 1, 0};
    EXPECT_EQ(pinOf(core, digest), pin);
}

/**
 * Two cores in lockstep (UarchSystem::run ticks each core, so the
 * functional loop runs one cycle per call). The sender's first
 * region ends at a setTimer with no timer armed and nothing in its
 * inbox, so only the microcoded-op exit can end it; its sendUipi
 * ends later regions the same way.
 */
TEST(FastForward, MicrocodedExitIsPinned)
{
    ProgramBuilder sb("ff_ucode");
    std::uint32_t top = sb.here();
    emitFfBody(sb, 3000);
    sb.setTimer(5000, false);
    emitFfBody(sb, 2000);
    sb.sendUipi(0);
    sb.jump(top);
    sb.beginHandler();
    sb.intAlu(reg::kGpr0 + 5, reg::kGpr0 + 5);
    sb.uiret();
    Program sender_prog = sb.build();
    Program receiver_prog = makeSpinLoop();

    CoreParams params;
    params.strategy = DeliveryStrategy::Tracked;
    params.fastForward = true;
    UarchSystem sys(23);
    DigestTracer digest;
    sys.setTracer(&digest);
    OooCore &sender = sys.addCore(params, &sender_prog);
    OooCore &receiver = sys.addCore(params, &receiver_prog);
    sender.kbTimer().configure(true, 0x21);
    sys.registerRoute(receiver, 5);
    sys.run(200000);

    const CoreStats &s = sender.stats();
    ASSERT_GE(s.ffExits, 2u);
    ASSERT_FALSE(s.intrRecords.empty());
    EXPECT_NE(s.ffSpans.front().exitedAt, 0u);
    EXPECT_LT(s.ffSpans.front().exitedAt,
              s.intrRecords.front().raisedAt);
    EXPECT_GT(receiver.stats().interruptsDelivered, 0u);
    EXPECT_GT(receiver.stats().ffEntries, 0u);

    const FfPin sender_pin = {0x09b6e8b16b5a5b56ull, 0xf236dc727c83088aull, 200000, 174907, 588531, 43, 42};
    const FfPin receiver_pin = {0x09b6e8b16b5a5b56ull, 0xf236dc727c83088aull, 200000, 182357, 360834, 22, 21};
    EXPECT_EQ(pinOf(sender, digest), sender_pin);
    EXPECT_EQ(pinOf(receiver, digest), receiver_pin);
}

TEST(StatCheck, PercentilesAreNearestRank)
{
    std::vector<IntrRecord> recs;
    for (std::uint64_t i = 1; i <= 100; ++i) {
        IntrRecord r;
        r.source = IntrSource::KbTimer;
        r.raisedAt = 0;
        r.deliveryCommitAt = i;
        recs.push_back(r);
    }
    LatencyDist d = deliveryLatencyDist(recs, IntrSource::KbTimer);
    EXPECT_EQ(d.count, 100u);
    EXPECT_DOUBLE_EQ(d.p50, 50.0);
    EXPECT_DOUBLE_EQ(d.p99, 99.0);
    EXPECT_DOUBLE_EQ(d.mean, 50.5);
    // Other sources see none of these records.
    EXPECT_EQ(deliveryLatencyDist(recs, IntrSource::UserIpi).count,
              0u);
}

TEST(StatCheck, DriftBeyondToleranceFails)
{
    auto mkRecs = [](Cycles lat, std::uint64_t n) {
        std::vector<IntrRecord> recs;
        for (std::uint64_t i = 0; i < n; ++i) {
            IntrRecord r;
            r.source = IntrSource::KbTimer;
            r.raisedAt = 100 * i;
            r.deliveryCommitAt = 100 * i + lat;
            recs.push_back(r);
        }
        return recs;
    };
    std::vector<IntrRecord> detail = mkRecs(100, 20);
    EXPECT_TRUE(
        checkStatEquivalence(detail, mkRecs(104, 20), 5.0).ok);
    EXPECT_FALSE(
        checkStatEquivalence(detail, mkRecs(110, 20), 5.0).ok);
    // Source present in detail but missing from the sampled run.
    EXPECT_FALSE(checkStatEquivalence(detail, {}, 5.0).ok);
    // Delivered-count drift beyond 2x tolerance.
    EXPECT_FALSE(
        checkStatEquivalence(detail, mkRecs(100, 10), 5.0).ok);
    // Nothing to compare at all.
    EXPECT_FALSE(checkStatEquivalence({}, {}, 5.0).ok);
}

TEST(CoSim, BulkAdvancesBetweenDesEvents)
{
    Program p = makeSpinLoop();
    CoreParams params;
    params.strategy = DeliveryStrategy::Tracked;
    params.fastForward = true;
    params.detailWindow = 256;
    params.ffWarmup = 128;
    UarchSystem sys(5);
    OooCore &core = sys.addCore(params, &p);
    sys.registerRoute(core, 0x5);

    Simulation sim(9);
    std::uint64_t injected = 0;
    PeriodicEvent inj(sim.queue(), 3000, [&] {
        ++injected;
        sys.injectUipi(core, 0x5);
        return true;
    });
    inj.start(1000);

    runCoSim(sim, sys, 60000);
    EXPECT_EQ(sys.now(), 60000u);
    EXPECT_EQ(injected, 20u);  // 1000, 4000, ..., 58000
    EXPECT_GE(core.stats().interruptsDelivered, 15u);
    EXPECT_GT(core.stats().ffEntries, 0u);
    // The DES tier never ran ahead of the cycle tier.
    EXPECT_LE(sim.now(), sys.now());
}

TEST(CoSim, IdleDesQueueStillReachesTheLimit)
{
    Program p = makeSpinLoop();
    CoreParams params;
    params.strategy = DeliveryStrategy::Tracked;
    UarchSystem sys(1);
    sys.addCore(params, &p);
    Simulation sim(1);
    runCoSim(sim, sys, 5000);
    EXPECT_EQ(sys.now(), 5000u);
}

} // namespace
} // namespace xui
