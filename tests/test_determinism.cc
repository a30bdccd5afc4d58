/**
 * @file
 * Determinism regression tests for the foundations both simulation
 * tiers rest on: Rng::split stream derivation and the DES event
 * queue's firing order. Every digest-based check in src/verify/
 * assumes these hold; a regression here would surface as spooky
 * nondeterminism three layers up, so we pin the properties (not
 * the exact values) directly.
 *
 * The second half of the file pins exact values: a 32-seed golden
 * corpus across all three delivery strategies (captured before the
 * simulator hot-path overhaul and re-verified bit-identical after
 * it) and digest equivalence of run-to-next-wakeup against plain
 * per-cycle ticking.
 */

#include <gtest/gtest.h>

#include <iterator>
#include <vector>

#include "des/simulation.hh"
#include "stats/digest.hh"
#include "stats/rng.hh"

using namespace xui;

TEST(RngDeterminism, SameSeedSameStream)
{
    Rng a(123), b(123);
    for (int i = 0; i < 1000; ++i)
        ASSERT_EQ(a.next(), b.next()) << "draw " << i;
}

TEST(RngDeterminism, SplitDerivedStreamsReproducible)
{
    // Same master seed => identical children, in split order, even
    // when draws interleave with splitting.
    Rng masterA(77), masterB(77);
    std::vector<Rng> childrenA, childrenB;
    for (int i = 0; i < 8; ++i) {
        childrenA.push_back(masterA.split());
        childrenB.push_back(masterB.split());
        // Interleaved master draws must not desynchronize children.
        ASSERT_EQ(masterA.next(), masterB.next());
    }
    for (int c = 0; c < 8; ++c)
        for (int i = 0; i < 256; ++i)
            ASSERT_EQ(childrenA[c].next(), childrenB[c].next())
                << "child " << c << " draw " << i;
}

TEST(RngDeterminism, SplitChildrenDecorrelated)
{
    Rng master(42);
    Rng c0 = master.split();
    Rng c1 = master.split();
    // Children must differ from each other and from the parent's
    // continued stream (prefix comparison, not statistics).
    int same01 = 0, sameParent = 0;
    for (int i = 0; i < 64; ++i) {
        std::uint64_t a = c0.next(), b = c1.next(),
                      p = master.next();
        same01 += (a == b);
        sameParent += (a == p);
    }
    EXPECT_EQ(same01, 0);
    EXPECT_EQ(sameParent, 0);
}

TEST(RngDeterminism, SplitOrderMatters)
{
    // The Nth split is a function of (seed, N): dropping one split
    // shifts every later child. Guards against reordering component
    // construction silently reseeding everything.
    Rng masterA(5), masterB(5);
    (void)masterA.split();
    Rng a2 = masterA.split();
    Rng b1 = masterB.split();
    (void)b1;
    Rng b2 = masterB.split();
    EXPECT_EQ(a2.next(), b2.next());
}

namespace
{

/** Digest of the (id, when) firing sequence of a canned workload. */
std::uint64_t
eventOrderDigest(std::uint64_t seed)
{
    Simulation sim(seed);
    Fnv1a digest;
    sim.queue().setFireHook([&](EventId id, Cycles when) {
        digest.update(id);
        digest.update(when);
    });

    Rng rng = sim.makeRng();
    // A tangle of same-cycle ties, cancellations, periodic events,
    // and events scheduling more events.
    std::vector<EventId> cancellable;
    for (int i = 0; i < 50; ++i) {
        Cycles when = rng.nextBounded(500);
        cancellable.push_back(
            sim.queue().scheduleAt(when, [] {}));
        // Deliberate tie at the same cycle.
        sim.queue().scheduleAt(when, [&sim] {
            sim.queue().scheduleAfter(17, [] {});
        });
    }
    for (std::size_t i = 0; i < cancellable.size(); i += 3)
        sim.queue().cancel(cancellable[i]);

    PeriodicEvent tick(sim.queue(), 40, [] { return true; });
    tick.start(10);
    sim.runUntil(2000);
    tick.stop();
    sim.runUntil(3000);
    return digest.value();
}

} // namespace

TEST(SimulationDeterminism, SameSeedSameEventOrder)
{
    EXPECT_EQ(eventOrderDigest(11), eventOrderDigest(11));
    EXPECT_EQ(eventOrderDigest(99), eventOrderDigest(99));
}

TEST(SimulationDeterminism, SameCycleTiesFireInScheduleOrder)
{
    Simulation sim(1);
    std::vector<int> order;
    for (int i = 0; i < 10; ++i)
        sim.queue().scheduleAt(100, [&order, i] {
            order.push_back(i);
        });
    sim.runUntil(200);
    ASSERT_EQ(order.size(), 10u);
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(SimulationDeterminism, FiredCountTracksHookInvocations)
{
    Simulation sim(1);
    std::uint64_t hooked = 0;
    sim.queue().setFireHook(
        [&hooked](EventId, Cycles) { ++hooked; });
    for (int i = 0; i < 25; ++i)
        sim.queue().scheduleAt(static_cast<Cycles>(i * 3), [] {});
    EventId dropped = sim.queue().scheduleAt(5, [] {});
    sim.queue().cancel(dropped);
    sim.runUntil(1000);
    EXPECT_EQ(sim.queue().firedCount(), 25u);
    EXPECT_EQ(hooked, 25u);
}

TEST(SimulationDeterminism, MakeRngStreamsReproducible)
{
    Simulation a(31), b(31);
    Rng ra1 = a.makeRng(), ra2 = a.makeRng();
    Rng rb1 = b.makeRng(), rb2 = b.makeRng();
    for (int i = 0; i < 100; ++i) {
        ASSERT_EQ(ra1.next(), rb1.next());
        ASSERT_EQ(ra2.next(), rb2.next());
    }
}

// ---------------------------------------------------------------
// Whole-simulator golden corpus.
//
// The rows below were captured from the fuzz-scenario runner
// before the simulator hot-path overhaul (calendar event queue,
// writeback wheel, run-to-next-wakeup) and re-verified
// bit-identical after it and after the issue wakeup lists,
// in-flight store index and fixed ROB ring. They pin the full timing
// digest (every trace event with its cycle), the architectural
// digest (program-commit PC stream), the event count and the
// interrupt/commit/cycle totals for 32 seeds under all three
// delivery strategies — so any change to the core's cycle-level
// behaviour, however subtle, fails loudly here rather than
// surfacing as a silent result drift in the paper figures.
// ---------------------------------------------------------------

#include "exec/sweep.hh"
#include "obs/metrics.hh"
#include "obs/sampler.hh"
#include "obs/trace_export.hh"
#include "uarch/program.hh"
#include "uarch/uarch_system.hh"
#include "verify/digest_tracer.hh"
#include "verify/roundtrip.hh"
#include "verify/scenario.hh"

namespace
{

struct CorpusGolden
{
    std::uint64_t seed;
    DeliveryStrategy strategy;
    std::uint64_t fullDigest;
    std::uint64_t archDigest;
    std::uint64_t eventCount;
    std::uint64_t delivered;
    std::uint64_t committedInsts;
    Cycles cycles;
};

const CorpusGolden kCorpusGoldens[] = {
    {1, DeliveryStrategy::Flush, 0x62c24ab1e91453faull, 0x9ba9582a71b281b5ull, 407672, 530, 4031, 318913},
    {1, DeliveryStrategy::Drain, 0x7aea05a0b2a5b624ull, 0x7e41214063e0f4b5ull, 51336, 17, 6631, 10570},
    {1, DeliveryStrategy::Tracked, 0x0dc9a58cc64fd175ull, 0xc11f8a21216254efull, 64789, 12, 8339, 7939},
    {2, DeliveryStrategy::Flush, 0x2ccd395524ee2b00ull, 0x29548f0dabf772ceull, 36001, 33, 4855, 20769},
    {2, DeliveryStrategy::Drain, 0x1235f2ff6cba18b2ull, 0xb91825b6127df582ull, 61397, 10, 11636, 6308},
    {2, DeliveryStrategy::Tracked, 0x3240202aea009cc7ull, 0xe733b13e2a07ab84ull, 67759, 10, 12932, 6100},
    {3, DeliveryStrategy::Flush, 0x3adc12f591d7a361ull, 0xc936bb4223bd5d92ull, 506014, 389, 4072, 234356},
    {3, DeliveryStrategy::Drain, 0x6ccdba799ac1d14eull, 0x13f7968eff3f4944ull, 43552, 13, 7895, 8205},
    {3, DeliveryStrategy::Tracked, 0x61689ce137267e78ull, 0x796dddb2243f2384ull, 55107, 10, 10144, 6834},
    {4, DeliveryStrategy::Flush, 0xd6494eccfbf8b96cull, 0xe10b2837b2771c82ull, 212876, 464, 4075, 279322},
    {4, DeliveryStrategy::Drain, 0x8d36012169d6fc44ull, 0xa3c5f781f1974fa4ull, 56543, 34, 5074, 20836},
    {4, DeliveryStrategy::Tracked, 0x1d4fa45f8bf53871ull, 0x66754d7e5111e0d9ull, 62219, 23, 5866, 14310},
    {5, DeliveryStrategy::Flush, 0xb721a6c1562abea2ull, 0x7d0695fbcd127445ull, 371804, 301, 4179, 181558},
    {5, DeliveryStrategy::Drain, 0xba7e20e6ad69a291ull, 0x9e8abd73b5451d88ull, 40130, 14, 7321, 8820},
    {5, DeliveryStrategy::Tracked, 0xed9e56e74eb031beull, 0xc1fba13853d89206ull, 49411, 11, 9188, 7406},
    {6, DeliveryStrategy::Flush, 0x2e9ff0c68533d673ull, 0xdf545453f8098c53ull, 122091, 165, 4213, 99953},
    {6, DeliveryStrategy::Drain, 0xe6402fc0b390add0ull, 0x499bd63e0692d4edull, 51897, 18, 5985, 11318},
    {6, DeliveryStrategy::Tracked, 0x9cbbc237999892cdull, 0x40d2042f9c1ba2a4ull, 64944, 14, 7696, 8634},
    {7, DeliveryStrategy::Flush, 0x3051c0c763ca9624ull, 0x7744593f59cddeabull, 40811, 41, 4750, 25544},
    {7, DeliveryStrategy::Drain, 0xddaa9e22fc5cbdc4ull, 0x9a46f2c61576aa53ull, 66246, 12, 9145, 7747},
    {7, DeliveryStrategy::Tracked, 0x4a4063591403f0c6ull, 0x327a132fdc56bb33ull, 66499, 12, 9255, 7596},
    {8, DeliveryStrategy::Flush, 0x3f0fa21287730096ull, 0xb960f09d944cfefdull, 518366, 411, 4082, 247558},
    {8, DeliveryStrategy::Drain, 0xe33568266ffb584bull, 0x54c081594bcd0a44ull, 44099, 13, 8047, 8198},
    {8, DeliveryStrategy::Tracked, 0x479ecf977b483547ull, 0x3274ee1c377050fdull, 56433, 10, 10435, 6761},
    {9, DeliveryStrategy::Flush, 0xd56b84b447a1475full, 0xed1bc1100392b948ull, 35482, 23, 5103, 14791},
    {9, DeliveryStrategy::Drain, 0xebeb59fe2155c808ull, 0xb2c5bebd221e22c8ull, 72224, 9, 13782, 5820},
    {9, DeliveryStrategy::Tracked, 0xe33251f28c7ea15bull, 0x6e5c9ca31405e9ccull, 80827, 9, 15463, 5700},
    {10, DeliveryStrategy::Flush, 0x69378582fdad1390ull, 0xced05e07fbd51989ull, 311599, 406, 4079, 244555},
    {10, DeliveryStrategy::Drain, 0x5c635f5616996987ull, 0x5e9fa6800740c10eull, 50783, 15, 7025, 9394},
    {10, DeliveryStrategy::Tracked, 0x5edffbc76426eab3ull, 0xdaeab51928ee6a39ull, 66942, 11, 9283, 7356},
    {11, DeliveryStrategy::Flush, 0xb3b7d1f015558b2aull, 0xe3e78d316890ee42ull, 378721, 686, 4035, 412552},
    {11, DeliveryStrategy::Drain, 0xdd726a1691051d1dull, 0x759574228abfa546ull, 47319, 23, 5510, 14238},
    {11, DeliveryStrategy::Tracked, 0x4fa0ab28bd0c250eull, 0x4b6c806312f614cdull, 57773, 15, 7181, 9593},
    {12, DeliveryStrategy::Flush, 0x1cbebb9313c64bacull, 0x95a7ceacd1ad2773ull, 48438, 67, 4414, 41153},
    {12, DeliveryStrategy::Drain, 0xd8d6df90bd942d45ull, 0x0eb8edc67e2f0a77ull, 60826, 15, 6910, 9625},
    {12, DeliveryStrategy::Tracked, 0x3742b45a57d660ceull, 0xb68dd0ce1e7fcafeull, 61334, 16, 6922, 9685},
    {13, DeliveryStrategy::Flush, 0xd007e4b0ed1a0413ull, 0xd2bc7bf1c0d7a52full, 395574, 612, 4041, 368167},
    {13, DeliveryStrategy::Drain, 0x0646f77bda55b475ull, 0x84a86b9001164e4full, 49539, 20, 5731, 12567},
    {13, DeliveryStrategy::Tracked, 0xd07cd9fb316afeadull, 0x1d50d7908f709de5ull, 59759, 14, 7052, 9017},
    {14, DeliveryStrategy::Flush, 0x854b75883d775e05ull, 0x74cd31ba96556544ull, 516937, 552, 4070, 332151},
    {14, DeliveryStrategy::Drain, 0x2ccee9d65e2ec8a2ull, 0xa2c549bb92a3dc44ull, 46734, 14, 7378, 8974},
    {14, DeliveryStrategy::Tracked, 0xf49ad5dbed5143abull, 0xef2dc27710269e3eull, 60640, 11, 9644, 7385},
    {15, DeliveryStrategy::Flush, 0xf3a4fda1d2ac7517ull, 0xf3db796777e26736ull, 446230, 751, 4046, 451521},
    {15, DeliveryStrategy::Drain, 0x4ae64d2159307926ull, 0x173263ea2f4e989cull, 51500, 22, 5620, 13672},
    {15, DeliveryStrategy::Tracked, 0xd28ba0c3357e50adull, 0x65c3b4a179b454e7ull, 61180, 16, 6767, 9859},
    {16, DeliveryStrategy::Flush, 0x3c232780fdfec6e9ull, 0x38f5f5f97b253dd4ull, 320560, 461, 4118, 277589},
    {16, DeliveryStrategy::Drain, 0xd4b65cbc690db6e5ull, 0x1b9efdd81afa6f67ull, 50641, 21, 6098, 12988},
    {16, DeliveryStrategy::Tracked, 0x64c5bc2cc36cb6a5ull, 0xf82737bcabd17b7bull, 62175, 15, 7376, 9435},
    {17, DeliveryStrategy::Flush, 0x3db7f154fafa5c64ull, 0x511ddca5a912c084ull, 329911, 492, 4058, 296110},
    {17, DeliveryStrategy::Drain, 0x0ea5f8b641079c8eull, 0x25dfc0ed8251f52cull, 50066, 19, 6053, 11780},
    {17, DeliveryStrategy::Tracked, 0xb22d6ac3d91b45f4ull, 0x4948eafecea56be2ull, 62718, 14, 7367, 8862},
    {18, DeliveryStrategy::Flush, 0x0b44be49b17e2df9ull, 0x1390e4a6ca3430bdull, 397462, 293, 4182, 176752},
    {18, DeliveryStrategy::Drain, 0xa3da9677115c8cbdull, 0x7686e84365cad8c5ull, 42567, 14, 7835, 8765},
    {18, DeliveryStrategy::Tracked, 0x0c8ca30cb830c16eull, 0x1876f757dd9eec7dull, 50819, 11, 9412, 7187},
    {19, DeliveryStrategy::Flush, 0xd1f307debc7d97cfull, 0x0529da288cb4c36dull, 233150, 298, 4188, 179710},
    {19, DeliveryStrategy::Drain, 0xe65a0d70550359f5ull, 0x112098a382e9f615ull, 50130, 16, 6505, 10174},
    {19, DeliveryStrategy::Tracked, 0x40b026927aef25ddull, 0x6c526f88203b816full, 62464, 12, 8187, 7712},
    {20, DeliveryStrategy::Flush, 0x41bbb0963482b2ceull, 0xbdcc941fc00075f3ull, 394767, 407, 4106, 245152},
    {20, DeliveryStrategy::Drain, 0x3d2afed0d329d505ull, 0x7765ed9a7dc34b72ull, 34815, 18, 6139, 11242},
    {20, DeliveryStrategy::Tracked, 0x970a3d90efe55d76ull, 0x16b2b89fb004df05ull, 41921, 14, 7600, 8694},
    {21, DeliveryStrategy::Flush, 0x7ba9ff3a70ef5d26ull, 0xfdd8a5992d86af44ull, 47354, 92, 4320, 56197},
    {21, DeliveryStrategy::Drain, 0x49acd3adabf8ba20ull, 0x99107ceb6923d02cull, 55063, 21, 5992, 13123},
    {21, DeliveryStrategy::Tracked, 0xa574122704ee0941ull, 0x8f9c4ccdf0a8e14cull, 54866, 21, 6112, 12783},
    {22, DeliveryStrategy::Flush, 0x12dc3337c8761ed3ull, 0x753db181feb3e099ull, 154198, 224, 4189, 135386},
    {22, DeliveryStrategy::Drain, 0x3a1997f78a853d33ull, 0x82641a59f25c8465ull, 53674, 19, 6073, 12010},
    {22, DeliveryStrategy::Tracked, 0x3705f7277c9592ecull, 0x476ffd69d1d79d79ull, 65639, 14, 7561, 8790},
    {23, DeliveryStrategy::Flush, 0xb06245dda902ae33ull, 0xd120f22ab43ff7a5ull, 715882, 528, 4076, 317754},
    {23, DeliveryStrategy::Drain, 0xb4b4cf0da54c72ceull, 0x88341dc8ccc2fd56ull, 44579, 13, 8082, 8199},
    {23, DeliveryStrategy::Tracked, 0x67496febdbfdbb08ull, 0x81e57e392acac456ull, 56624, 11, 10432, 6853},
    {24, DeliveryStrategy::Flush, 0x5a881c6813ebbcc3ull, 0x47e4997033f56c9eull, 81454, 72, 4787, 44189},
    {24, DeliveryStrategy::Drain, 0xff9bafda6f3039afull, 0xeb409c6681a3be06ull, 39981, 16, 7081, 10225},
    {24, DeliveryStrategy::Tracked, 0x874dc8a33ac58b62ull, 0x57bb925d5c86e49aull, 45181, 13, 8126, 8181},
    {25, DeliveryStrategy::Flush, 0x19fd3fefdd3b6bcdull, 0x5cd4aa31d458c53eull, 91009, 112, 4301, 68183},
    {25, DeliveryStrategy::Drain, 0x3eae2089d58eb3feull, 0x478dd61eba7d3b92ull, 50499, 15, 6646, 9744},
    {25, DeliveryStrategy::Tracked, 0xb3d459b37c435841ull, 0xb78176c4378f6409ull, 62536, 12, 8154, 7662},
    {26, DeliveryStrategy::Flush, 0xa6225d99c9c960b7ull, 0x646ebaad3e6704caull, 212707, 368, 4064, 221778},
    {26, DeliveryStrategy::Drain, 0x70447f1d8fba60bcull, 0xdacaef3d6b70d66aull, 54265, 26, 5508, 16021},
    {26, DeliveryStrategy::Tracked, 0x73f4d93ec06f423bull, 0xda7b8c09531603ebull, 63579, 19, 6500, 11681},
    {27, DeliveryStrategy::Flush, 0x898318cc42b2c5b0ull, 0xbb79c93001d65dcfull, 400317, 330, 4120, 198956},
    {27, DeliveryStrategy::Drain, 0xfcb6f99923352cd4ull, 0xbef7356f9e9c7ac9ull, 41367, 14, 7488, 9010},
    {27, DeliveryStrategy::Tracked, 0xda431018d4f71af3ull, 0x8dc7ed12070cbd3bull, 51412, 11, 9630, 7252},
    {28, DeliveryStrategy::Flush, 0xc949a6f73ba2394bull, 0xc70afd30ad0c8665ull, 385783, 721, 4041, 433551},
    {28, DeliveryStrategy::Drain, 0x382d5249188bb602ull, 0x9952d0d3a056aa24ull, 55517, 27, 5549, 16610},
    {28, DeliveryStrategy::Tracked, 0xbadb304c0e5d8c23ull, 0x65b295919e02f164ull, 64857, 18, 6507, 11383},
    {29, DeliveryStrategy::Flush, 0xf2cdfc75c3f69e5dull, 0x97c0d320785846d9ull, 128209, 111, 4620, 67510},
    {29, DeliveryStrategy::Drain, 0x7ceb337c1d77864bull, 0x493e6a6ef672586aull, 38823, 15, 7057, 9619},
    {29, DeliveryStrategy::Tracked, 0x2c48b4cbbf8e4159ull, 0x34fd657b8e878974ull, 43397, 13, 7983, 8218},
    {30, DeliveryStrategy::Flush, 0x9bad777841439a1eull, 0x73994551640f77acull, 52475, 43, 4812, 26777},
    {30, DeliveryStrategy::Drain, 0x547f26231b7ff014ull, 0xd7c2e7219c80ba6cull, 55379, 12, 10393, 7882},
    {30, DeliveryStrategy::Tracked, 0x2ea87591fc3e1fa1ull, 0xabb841bc9e2bf721ull, 64122, 11, 12074, 6822},
    {31, DeliveryStrategy::Flush, 0x051c704b687cca71ull, 0xa964b20ac8bebe04ull, 323760, 450, 4230, 270954},
    {31, DeliveryStrategy::Drain, 0x3738551801e590b8ull, 0x079b2d835ac84813ull, 50511, 18, 6379, 11197},
    {31, DeliveryStrategy::Tracked, 0x13e1aee6ce309d27ull, 0x6bdca1fa9c4be21cull, 62702, 13, 8270, 8150},
    {32, DeliveryStrategy::Flush, 0xae486b629d92fb67ull, 0xe70e35436b4ce031ull, 221369, 351, 4040, 211511},
    {32, DeliveryStrategy::Drain, 0xeadbeac9246dd98cull, 0x6a1cd87f9a738c19ull, 51688, 21, 5785, 12994},
    {32, DeliveryStrategy::Tracked, 0xbf1791a8d2b474aeull, 0x1f973b6049967371ull, 64641, 15, 7318, 9435},
};

} // namespace

TEST(GoldenCorpus, DigestsPinnedAcrossSeedsAndModes)
{
    // The 96-row corpus fans out across the src/exec sweep engine
    // (fixed 4 workers): the goldens must hold when scenario runs
    // share a process across threads, not just serially.
    const std::size_t n = std::size(kCorpusGoldens);
    std::vector<ScenarioResult> results = exec::sweep(
        n, 4, [](std::size_t i) {
            const CorpusGolden &g = kCorpusGoldens[i];
            return runScenario(goldenCorpusConfig(g.seed, g.strategy));
        });
    for (std::size_t i = 0; i < n; ++i) {
        const CorpusGolden &g = kCorpusGoldens[i];
        const ScenarioResult &r = results[i];
        std::string at = "seed " + std::to_string(g.seed) + " " +
            strategyName(g.strategy);
        EXPECT_TRUE(r.ok()) << at << ": " << r.violations.front();
        EXPECT_EQ(r.fullDigest, g.fullDigest) << at;
        EXPECT_EQ(r.archDigest, g.archDigest) << at;
        EXPECT_EQ(r.eventCount, g.eventCount) << at;
        EXPECT_EQ(r.delivered, g.delivered) << at;
        EXPECT_EQ(r.committedInsts, g.committedInsts) << at;
        EXPECT_EQ(r.cycles, g.cycles) << at;
    }
}

TEST(GoldenCorpus, ProfilingIsDigestNeutral)
{
    // The pipeline-pressure profiler only *reads* core state from
    // the end-of-tick hook: re-running the whole corpus with
    // aggressive profiling (stride-256 counter tracks with bursts,
    // tax attribution) must reproduce every golden digest bit for
    // bit. Any drift here means observation perturbed the machine.
    const std::size_t n = std::size(kCorpusGoldens);
    std::vector<ScenarioResult> results = exec::sweep(
        n, 4, [](std::size_t i) {
            const CorpusGolden &g = kCorpusGoldens[i];
            ProfileConfig pc;
            pc.counterStride = 256;
            pc.tax = true;
            MetricsRegistry reg;
            TraceJsonWriter trace;
            PipelinePressureProfiler prof(pc, &reg, &trace);
            return runScenario(
                goldenCorpusConfig(g.seed, g.strategy), nullptr, nullptr,
                &prof, [&prof](UarchSystem &sys) {
                    prof.attachCore(sys.core(0));
                });
        });
    for (std::size_t i = 0; i < n; ++i) {
        const CorpusGolden &g = kCorpusGoldens[i];
        const ScenarioResult &r = results[i];
        std::string at = "seed " + std::to_string(g.seed) + " " +
            strategyName(g.strategy) + " (profiled)";
        EXPECT_EQ(r.fullDigest, g.fullDigest) << at;
        EXPECT_EQ(r.archDigest, g.archDigest) << at;
        EXPECT_EQ(r.eventCount, g.eventCount) << at;
        EXPECT_EQ(r.cycles, g.cycles) << at;
    }

    // The corpus runs must actually have exercised the profiler:
    // one row re-run single-threaded pins samples, bursts, and tax
    // rollups all nonzero under the corpus recipe.
    ProfileConfig pc;
    pc.counterStride = 256;
    pc.tax = true;
    MetricsRegistry reg;
    TraceJsonWriter trace;
    PipelinePressureProfiler prof(pc, &reg, &trace);
    runScenario(
        goldenCorpusConfig(1, DeliveryStrategy::Tracked), nullptr,
        nullptr, &prof,
        [&prof](UarchSystem &sys) { prof.attachCore(sys.core(0)); });
    EXPECT_GT(prof.samplesEmitted(), 0u);
    EXPECT_GT(prof.burstSamples(), 0u);
    const Counter *spans =
        reg.findCounter("core0.tax.src.kbtimer.spans");
    ASSERT_NE(spans, nullptr);
    EXPECT_GT(spans->value(), 0u);
}

TEST(GoldenCorpus, PriorityOffIsDigestNeutral)
{
    // The mixed-criticality priority layer engages only once some
    // vector is configured above level 0. Re-running the whole
    // 96-row corpus with the layer compiled in and every one of the
    // 256 vectors explicitly pinned at the default level must
    // reproduce every golden digest bit for bit: an all-default
    // priority table is the legacy protocol, not a near miss.
    const std::size_t n = std::size(kCorpusGoldens);
    std::vector<ScenarioResult> results = exec::sweep(
        n, 4, [](std::size_t i) {
            const CorpusGolden &g = kCorpusGoldens[i];
            return runScenario(
                goldenCorpusConfig(g.seed, g.strategy), nullptr, nullptr,
                nullptr, [](UarchSystem &sys) {
                    InterruptUnit &u = sys.core(0).intrUnit();
                    for (unsigned v = 0; v < 256; ++v)
                        u.setVectorPriority(
                            static_cast<std::uint8_t>(v), 0);
                    ASSERT_FALSE(u.priorityEnabled());
                });
        });
    for (std::size_t i = 0; i < n; ++i) {
        const CorpusGolden &g = kCorpusGoldens[i];
        const ScenarioResult &r = results[i];
        std::string at = "seed " + std::to_string(g.seed) + " " +
            strategyName(g.strategy) + " (priority table zeroed)";
        EXPECT_EQ(r.fullDigest, g.fullDigest) << at;
        EXPECT_EQ(r.archDigest, g.archDigest) << at;
        EXPECT_EQ(r.eventCount, g.eventCount) << at;
        EXPECT_EQ(r.delivered, g.delivered) << at;
        EXPECT_EQ(r.cycles, g.cycles) << at;
    }
}

TEST(GoldenCorpus, ParallelSweepBitIdenticalToSerial)
{
    // A corpus slice swept serially (the legacy inline path) and at
    // 8 workers must produce byte-identical ScenarioResult streams
    // — the parallel engine's core contract.
    std::vector<std::size_t> slice;
    for (std::size_t i = 0; i < std::size(kCorpusGoldens); ++i)
        if (kCorpusGoldens[i].seed <= 8)
            slice.push_back(i);
    auto runRow = [&](std::size_t k) {
        const CorpusGolden &g = kCorpusGoldens[slice[k]];
        return runScenario(goldenCorpusConfig(g.seed, g.strategy));
    };
    std::vector<ScenarioResult> serial =
        exec::sweep(slice.size(), 1, runRow);
    std::vector<ScenarioResult> parallel =
        exec::sweep(slice.size(), 8, runRow);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t k = 0; k < slice.size(); ++k) {
        const CorpusGolden &g = kCorpusGoldens[slice[k]];
        std::string at = "seed " + std::to_string(g.seed) + " " +
            strategyName(g.strategy);
        EXPECT_EQ(serial[k].fullDigest, parallel[k].fullDigest)
            << at;
        EXPECT_EQ(serial[k].archDigest, parallel[k].archDigest)
            << at;
        EXPECT_EQ(serial[k].eventCount, parallel[k].eventCount)
            << at;
        EXPECT_EQ(serial[k].mainPcs, parallel[k].mainPcs) << at;
        EXPECT_EQ(serial[k].cycles, parallel[k].cycles) << at;
    }
}

TEST(GoldenCorpus, TickSkipOffMatchesGoldens)
{
    // The goldens were captured with run-to-next-wakeup enabled
    // (the default). Re-running a slice of the corpus with
    // per-cycle ticking must land on the same digests: skipping is
    // a simulator-speed device, never an architectural one.
    for (const CorpusGolden &g : kCorpusGoldens) {
        if (g.seed > 4)
            continue;
        ScenarioConfig cfg = goldenCorpusConfig(g.seed, g.strategy);
        cfg.tickSkip = false;
        ScenarioResult r = runScenario(cfg);
        EXPECT_EQ(r.fullDigest, g.fullDigest)
            << "seed " << g.seed << " " << strategyName(g.strategy);
        EXPECT_EQ(r.eventCount, g.eventCount)
            << "seed " << g.seed << " " << strategyName(g.strategy);
    }
}

namespace
{

/**
 * A program that halts after a short loop, with a user interrupt
 * handler: under a periodic KB timer the core spends nearly all
 * its time quiesced at the halt, which is exactly the state
 * run-to-next-wakeup elides. Fuzz programs never halt, so this is
 * the workload that actually exercises the skip path.
 */
Program
makeHaltTimerProgram()
{
    ProgramBuilder b("halt_timer");
    std::uint32_t top = b.intAlu(1, 1);
    b.intAlu(2, 1);
    b.loopBranch(top, 50);
    b.halt();
    b.beginHandler();
    b.intAlu(3, 3);
    b.intAlu(4, 3);
    b.uiret();
    return b.build();
}

struct SkipRun
{
    std::uint64_t fullDigest;
    std::uint64_t eventCount;
    std::uint64_t committedInsts;
    std::uint64_t delivered;
    Cycles cycles;
};

SkipRun
runHaltTimer(bool tick_skip, DeliveryStrategy strategy)
{
    Program prog = makeHaltTimerProgram();
    CoreParams params;
    params.strategy = strategy;
    params.tickSkip = tick_skip;
    UarchSystem sys(7);
    OooCore &core = sys.addCore(params, &prog);
    DigestTracer digest;
    sys.setTracer(&digest);
    core.kbTimer().configure(true, 0x21);
    core.kbTimer().setTimer(0, 5000, KbTimerMode::Periodic);
    core.runCycles(5'000'000);
    return SkipRun{digest.fullDigest(), digest.eventCount(),
                   core.stats().committedInsts,
                   core.stats().interruptsDelivered, core.now()};
}

} // namespace

TEST(TickSkipEquivalence, HaltingTimerWorkloadBitIdentical)
{
    for (DeliveryStrategy s :
         {DeliveryStrategy::Flush, DeliveryStrategy::Drain,
          DeliveryStrategy::Tracked}) {
        SkipRun skip = runHaltTimer(true, s);
        SkipRun tick = runHaltTimer(false, s);
        EXPECT_EQ(skip.fullDigest, tick.fullDigest)
            << strategyName(s);
        EXPECT_EQ(skip.eventCount, tick.eventCount)
            << strategyName(s);
        EXPECT_EQ(skip.committedInsts, tick.committedInsts)
            << strategyName(s);
        EXPECT_EQ(skip.delivered, tick.delivered)
            << strategyName(s);
        EXPECT_EQ(skip.cycles, tick.cycles) << strategyName(s);
    }
}

TEST(TickSkipEquivalence, HaltingTimerFlushGoldenPinned)
{
    // Flush delivery restarts fetch on every delivery, so the core
    // re-halts and re-quiesces around each of the ~1000 timer
    // expirations in 5M cycles.
    SkipRun r = runHaltTimer(true, DeliveryStrategy::Flush);
    EXPECT_EQ(r.fullDigest, 0x857fe1e0f1392c12ull);
    EXPECT_EQ(r.eventCount, 113627u);
    EXPECT_EQ(r.committedInsts, 3147u);
    EXPECT_EQ(r.delivered, 999u);
    EXPECT_EQ(r.cycles, 5'000'000u);
}

TEST(TickSkipEquivalence, DrainHaltQuirkStaysConservative)
{
    // Known modelling quirk (see DESIGN.md): under Drain/Tracked a
    // halted core accepts the first interrupt but never fetches the
    // handler body, and the interrupt unit stays busy — which
    // correctly blocks quiescence, so tick-skip must not invent
    // extra deliveries there either.
    SkipRun skip = runHaltTimer(true, DeliveryStrategy::Drain);
    SkipRun tick = runHaltTimer(false, DeliveryStrategy::Drain);
    EXPECT_EQ(skip.delivered, 1u);
    EXPECT_EQ(tick.delivered, 1u);
    EXPECT_EQ(skip.fullDigest, tick.fullDigest);
}
