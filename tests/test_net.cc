/**
 * @file
 * Network tests: descriptor ring, DIR-24-8 LPM against a
 * linear-scan oracle (property tests), traffic generation, NIC
 * interrupt semantics, and the Fig. 8 l3fwd shape.
 */

#include <gtest/gtest.h>

#include <set>
#include <type_traits>
#include <utility>
#include <vector>

#include "net/l3fwd.hh"
#include "net/lpm.hh"
#include "net/packet.hh"
#include "net/ring.hh"
#include "net/traffic.hh"
#include "stats/digest.hh"
#include "stats/rng.hh"

using namespace xui;

// ----------------------------------------------------------------------
// DescRing
// ----------------------------------------------------------------------

TEST(DescRing, FifoOrder)
{
    DescRing<int> r(8);
    for (int i = 0; i < 5; ++i)
        EXPECT_TRUE(r.push(i));
    int v;
    for (int i = 0; i < 5; ++i) {
        ASSERT_TRUE(r.pop(v));
        EXPECT_EQ(v, i);
    }
    EXPECT_FALSE(r.pop(v));
}

TEST(DescRing, FullRejects)
{
    DescRing<int> r(4);
    for (int i = 0; i < 4; ++i)
        EXPECT_TRUE(r.push(i));
    EXPECT_TRUE(r.full());
    EXPECT_FALSE(r.push(99));
    int v;
    r.pop(v);
    EXPECT_TRUE(r.push(99));
}

TEST(DescRing, WrapsAround)
{
    DescRing<int> r(4);
    for (int round = 0; round < 10; ++round) {
        for (int i = 0; i < 3; ++i)
            ASSERT_TRUE(r.push(round * 10 + i));
        int v;
        for (int i = 0; i < 3; ++i) {
            ASSERT_TRUE(r.pop(v));
            EXPECT_EQ(v, round * 10 + i);
        }
    }
}

TEST(DescRing, SizeTracksOccupancy)
{
    DescRing<int> r(8);
    EXPECT_EQ(r.size(), 0u);
    r.push(1);
    r.push(2);
    EXPECT_EQ(r.size(), 2u);
    int v;
    r.pop(v);
    EXPECT_EQ(r.size(), 1u);
    EXPECT_EQ(r.front(), 2);
}

// ----------------------------------------------------------------------
// LPM (DIR-24-8)
// ----------------------------------------------------------------------

namespace
{

std::uint32_t
ip(unsigned a, unsigned b, unsigned c, unsigned d)
{
    return (a << 24) | (b << 16) | (c << 8) | d;
}

/** Linear-scan longest-prefix oracle. */
LpmTable::NextHop
oracleLookup(const std::vector<RouteSpec> &routes, std::uint32_t addr)
{
    int best_depth = -1;
    LpmTable::NextHop best = LpmTable::kNoRoute;
    for (const auto &r : routes) {
        std::uint32_t mask = r.depth == 32
            ? 0xffffffffu
            : ~(0xffffffffu >> r.depth);
        if ((addr & mask) == r.prefix &&
            static_cast<int>(r.depth) > best_depth) {
            best_depth = static_cast<int>(r.depth);
            best = r.nextHop;
        }
    }
    return best;
}

} // namespace

TEST(Lpm, MissReturnsNoRoute)
{
    LpmTable t;
    EXPECT_EQ(t.lookup(ip(1, 2, 3, 4)), LpmTable::kNoRoute);
}

TEST(Lpm, ShallowRouteMatchesWholeRange)
{
    LpmTable t;
    ASSERT_TRUE(t.addRoute(ip(10, 0, 0, 0), 8, 7));
    EXPECT_EQ(t.lookup(ip(10, 0, 0, 1)), 7);
    EXPECT_EQ(t.lookup(ip(10, 255, 255, 255)), 7);
    EXPECT_EQ(t.lookup(ip(11, 0, 0, 0)), LpmTable::kNoRoute);
}

TEST(Lpm, LongestPrefixWins)
{
    LpmTable t;
    t.addRoute(ip(10, 0, 0, 0), 8, 1);
    t.addRoute(ip(10, 1, 0, 0), 16, 2);
    t.addRoute(ip(10, 1, 2, 0), 24, 3);
    EXPECT_EQ(t.lookup(ip(10, 9, 9, 9)), 1);
    EXPECT_EQ(t.lookup(ip(10, 1, 9, 9)), 2);
    EXPECT_EQ(t.lookup(ip(10, 1, 2, 9)), 3);
}

TEST(Lpm, InsertionOrderIrrelevant)
{
    LpmTable a, b;
    a.addRoute(ip(10, 0, 0, 0), 8, 1);
    a.addRoute(ip(10, 1, 0, 0), 16, 2);
    b.addRoute(ip(10, 1, 0, 0), 16, 2);
    b.addRoute(ip(10, 0, 0, 0), 8, 1);
    for (std::uint32_t probe :
         {ip(10, 0, 5, 5), ip(10, 1, 5, 5), ip(10, 2, 0, 0)})
        EXPECT_EQ(a.lookup(probe), b.lookup(probe));
}

TEST(Lpm, DeepRouteUsesTbl8)
{
    LpmTable t;
    EXPECT_EQ(t.tbl8InUse(), 0u);
    ASSERT_TRUE(t.addRoute(ip(10, 1, 2, 128), 25, 9));
    EXPECT_EQ(t.tbl8InUse(), 1u);
    EXPECT_EQ(t.lookup(ip(10, 1, 2, 129)), 9);
    EXPECT_EQ(t.lookup(ip(10, 1, 2, 1)), LpmTable::kNoRoute);
}

TEST(Lpm, DeepRouteInheritsCoveringShallow)
{
    LpmTable t;
    t.addRoute(ip(10, 1, 2, 0), 24, 4);
    t.addRoute(ip(10, 1, 2, 128), 26, 5);
    // /26 range hits 5, the remainder of the /24 still hits 4.
    EXPECT_EQ(t.lookup(ip(10, 1, 2, 130)), 5);
    EXPECT_EQ(t.lookup(ip(10, 1, 2, 1)), 4);
    EXPECT_EQ(t.lookup(ip(10, 1, 2, 250)), 4);
}

TEST(Lpm, ShallowAfterDeepPropagatesIntoTbl8)
{
    LpmTable t;
    t.addRoute(ip(10, 1, 2, 128), 26, 5);
    t.addRoute(ip(10, 1, 2, 0), 24, 4);  // added after
    EXPECT_EQ(t.lookup(ip(10, 1, 2, 130)), 5);  // deeper wins
    EXPECT_EQ(t.lookup(ip(10, 1, 2, 1)), 4);
}

TEST(Lpm, HostRouteDepth32)
{
    LpmTable t;
    t.addRoute(ip(192, 168, 1, 42), 32, 12);
    EXPECT_EQ(t.lookup(ip(192, 168, 1, 42)), 12);
    EXPECT_EQ(t.lookup(ip(192, 168, 1, 43)), LpmTable::kNoRoute);
}

TEST(Lpm, RejectsInvalidArguments)
{
    LpmTable t;
    EXPECT_FALSE(t.addRoute(0, 0, 1));
    EXPECT_FALSE(t.addRoute(0, 33, 1));
    EXPECT_TRUE(t.addRoute(0, 8, 0xff));
    EXPECT_FALSE(t.addRoute(0, 8, 0x100));  // next hop too large
    EXPECT_FALSE(t.addRoute(0, 8, 0x4000));
}

TEST(Lpm, Tbl8Exhaustion)
{
    LpmTable t(2);
    EXPECT_TRUE(t.addRoute(ip(1, 0, 0, 0), 25, 1));
    EXPECT_TRUE(t.addRoute(ip(2, 0, 0, 0), 25, 2));
    EXPECT_FALSE(t.addRoute(ip(3, 0, 0, 0), 25, 3));
    // Reusing an existing group still works.
    EXPECT_TRUE(t.addRoute(ip(1, 0, 0, 128), 26, 4));
}

// An extended slot holds its tbl8 group index in 14 bits: a table
// built for more groups uses the first 0x4000, and the deep route
// that would need group 0x4000 is rejected rather than aliased onto
// group 0.
TEST(Lpm, Tbl8GroupIndexFitsEntry)
{
    LpmTable t(0x4001);
    for (std::uint32_t s = 0; s < 0x4000; ++s)
        ASSERT_TRUE(t.addRoute((s << 8) | 128, 25, 1)) << "slot " << s;
    EXPECT_EQ(t.tbl8InUse(), 0x4000u);
    EXPECT_FALSE(t.addRoute((0x4000u << 8) | 128, 25, 2));
    EXPECT_EQ(t.lookup(ip(0, 0, 0, 1)), LpmTable::kNoRoute);
    EXPECT_EQ(t.lookup(ip(0, 0, 0, 129)), 1);
    EXPECT_EQ(t.lookup((0x4000u << 8) | 129), LpmTable::kNoRoute);
}

// tbl24 is one mapping of 16 2 MiB pages that the kernel zeroes; no
// slot is written before a route paints it. A /1 paints up to the
// last slot, which the guard page after the table directly follows.
TEST(Lpm, FreshTableMissesAtEveryHugePageEdge)
{
    static_assert(!std::is_copy_constructible_v<LpmTable>);
    static_assert(std::is_nothrow_move_constructible_v<LpmTable>);
    constexpr std::uint32_t kSlotsPerPage = 1u << 20;
    LpmTable t;
    for (std::uint32_t page = 0; page < 16; ++page) {
        const std::uint32_t first = page * kSlotsPerPage;
        const std::uint32_t last = first + kSlotsPerPage - 1;
        EXPECT_EQ(t.lookup(first << 8), LpmTable::kNoRoute) << page;
        EXPECT_EQ(t.lookup(last << 8 | 0xff), LpmTable::kNoRoute) << page;
    }
    ASSERT_TRUE(t.addRoute(0x80000000u, 1, 7));
    EXPECT_EQ(t.lookup(0xffffffffu), 7);
    EXPECT_EQ(t.lookup(0x80000000u), 7);
    EXPECT_EQ(t.lookup(0x7fffffffu), LpmTable::kNoRoute);
}

class LpmOracleProperty : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(LpmOracleProperty, MatchesLinearScanOracle)
{
    Rng rng(GetParam());
    LpmTable table(512);
    std::vector<RouteSpec> routes =
        installRandomRoutes(table, 800, rng);
    ASSERT_EQ(routes.size(), 800u);
    ASSERT_EQ(table.routeCount(), 800u);

    // Probe random addresses plus addresses aimed at the routes.
    for (int i = 0; i < 3000; ++i) {
        std::uint32_t addr = (i % 2 == 0)
            ? static_cast<std::uint32_t>(rng.next())
            : randomCoveredIp(routes, rng);
        EXPECT_EQ(table.lookup(addr), oracleLookup(routes, addr))
            << "addr=" << addr << " seed=" << GetParam();
    }
}

// installRandomRoutes draws its deep routes as /25-/28 only. Host
// and near-host routes (/29-/32) go on top of the 800, each at an
// address a random route already covers, so each must beat a
// shallower route in its tbl8 group; a /32 needs all six depth bits.
TEST_P(LpmOracleProperty, DeepestRoutesOnTopMatchOracle)
{
    Rng rng(GetParam());
    LpmTable table(512);
    const std::vector<RouteSpec> base =
        installRandomRoutes(table, 800, rng);
    std::vector<RouteSpec> routes = base;
    std::set<std::pair<std::uint32_t, unsigned>> seen;
    while (routes.size() < base.size() + 200) {
        RouteSpec r;
        r.depth = static_cast<unsigned>(29 + rng.nextBounded(4));
        const std::uint32_t mask =
            r.depth == 32 ? 0xffffffffu : ~(0xffffffffu >> r.depth);
        r.prefix = randomCoveredIp(base, rng) & mask;
        r.nextHop = static_cast<LpmTable::NextHop>(rng.nextBounded(256));
        if (!seen.insert({r.prefix, r.depth}).second)
            continue;
        ASSERT_TRUE(table.addRoute(r.prefix, r.depth, r.nextHop));
        routes.push_back(r);
    }

    // Every address of each /24 that took one of the new routes.
    for (std::size_t i = base.size(); i < routes.size(); ++i) {
        const std::uint32_t first = routes[i].prefix & 0xffffff00u;
        for (std::uint32_t low = 0; low < 256; ++low)
            EXPECT_EQ(table.lookup(first | low),
                      oracleLookup(routes, first | low))
                << "addr=" << (first | low) << " seed=" << GetParam();
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LpmOracleProperty,
                         ::testing::Values(11, 22, 33, 44, 55, 66));

namespace
{

/**
 * FNV-1a over everything a built table answers: the lookup of the
 * first address of every /24, all 256 lookups of each /24 that
 * holds a deep route, the accepted route list, routeCount() and
 * tbl8InUse().
 */
std::uint64_t
tableFingerprint(const LpmTable &t, const std::vector<RouteSpec> &routes)
{
    Fnv1a h;
    std::vector<LpmTable::NextHop> hops(1u << 24);
    for (std::uint32_t s = 0; s < (1u << 24); ++s)
        hops[s] = t.lookup(s << 8);
    h.update(hops.data(), hops.size() * sizeof(hops[0]));
    std::set<std::uint32_t> deep_slots;
    for (const RouteSpec &r : routes)
        if (r.depth > 24)
            deep_slots.insert(r.prefix >> 8);
    for (std::uint32_t s : deep_slots)
        for (std::uint32_t j = 0; j < 256; ++j)
            h.update(t.lookup((s << 8) | j));
    for (const RouteSpec &r : routes) {
        h.update(r.prefix);
        h.update(r.depth);
        h.update(r.nextHop);
    }
    h.update(t.routeCount());
    h.update(t.tbl8InUse());
    return h.value();
}

} // namespace

TEST(Lpm, BuiltTablesArePinned)
{
    struct Pin
    {
        std::uint64_t seed;
        std::uint64_t fingerprint;
    };
    std::vector<RouteSpec> first;
    for (Pin p : {Pin{1, 0x3079ea7073b250f9ull},
                  Pin{2, 0x6eef46d5281a8e7aull}}) {
        Rng rng(p.seed);
        LpmTable table(512);
        auto routes = installRandomRoutes(table, 16000, rng);
        EXPECT_EQ(tableFingerprint(table, routes), p.fingerprint)
            << "seed " << p.seed;
        if (first.empty())
            first = routes;
    }

    // Reverse order: shallow routes now land on slots that deep
    // routes already extended, inside large spans.
    LpmTable reversed(512);
    std::vector<RouteSpec> accepted;
    for (auto it = first.rbegin(); it != first.rend(); ++it)
        if (reversed.addRoute(it->prefix, it->depth, it->nextHop))
            accepted.push_back(*it);
    EXPECT_EQ(tableFingerprint(reversed, accepted),
              0x818e60d0b1b8d8f5ull);
}

namespace
{

/**
 * Add `routes` in order to a fresh table and check it against the
 * oracle at every /24 they touch: three addresses of a /24 without
 * a deep route, all 256 of one with. A prefix added twice keeps only
 * its later entry in the oracle list, since the later add wins.
 *
 * A /24 without a deep route answers from the shallow routes alone,
 * and that answer is the same between two span ends, so the oracle
 * runs once per run of slots, not once per probe: a /1 is 2^23 slots.
 */
void
expectMatchesOracle(const std::vector<RouteSpec> &routes)
{
    LpmTable table(16);
    std::vector<RouteSpec> effective;
    for (const RouteSpec &r : routes) {
        ASSERT_TRUE(table.addRoute(r.prefix, r.depth, r.nextHop));
        std::erase_if(effective, [&](const RouteSpec &e) {
            return e.prefix == r.prefix && e.depth == r.depth;
        });
        effective.push_back(r);
    }
    std::vector<RouteSpec> shallow;
    std::set<std::uint32_t> ends, deep_slots;
    for (const RouteSpec &r : effective) {
        const std::uint32_t start = r.prefix >> 8;
        if (r.depth > 24) {
            deep_slots.insert(start);
            ends.insert({start, start + 1});
            continue;
        }
        shallow.push_back(r);
        ends.insert({start, start + (1u << (24 - r.depth))});
    }
    auto probe = [&](std::uint32_t addr, LpmTable::NextHop want) {
        const LpmTable::NextHop got = table.lookup(addr);
        if (got != want)
            ADD_FAILURE() << std::hex << "addr=" << addr << " got " << got
                          << " want " << want;
        return got == want;
    };
    for (auto lo = ends.begin(), hi = std::next(lo); hi != ends.end();
         lo = hi++) {
        if (deep_slots.count(*lo))
            continue;
        for (std::uint32_t low : {0u, 128u, 255u}) {
            const LpmTable::NextHop want =
                oracleLookup(shallow, (*lo << 8) | low);
            if (want == LpmTable::kNoRoute)
                continue;  // no route spans these slots
            // One report per run: a wrong /1 is 2^23 wrong slots.
            for (std::uint32_t s = *lo; s < *hi; ++s)
                if (!probe((s << 8) | low, want))
                    break;
        }
    }
    for (std::uint32_t s : deep_slots)
        for (std::uint32_t low = 0; low < 256; ++low)
            probe((s << 8) | low, oracleLookup(effective, (s << 8) | low));
}

} // namespace

// Deep routes whose /24s share one 16-slot tbl24 block, then a /8
// over them: that block is painted slot by slot.
TEST(LpmEdge, SlashEightOverDeepRoutesInOneBlock)
{
    expectMatchesOracle({{ip(10, 0, 1, 128), 25, 1},
                         {ip(10, 0, 2, 64), 26, 2},
                         {ip(10, 0, 15, 7), 32, 3},
                         {ip(10, 0, 0, 0), 8, 4}});
}

// Deep routes in different blocks, the first and the last of the
// /8's span among them, under an older /16 the groups inherit.
TEST(LpmEdge, SlashEightOverDeepRoutesInSeparateBlocks)
{
    expectMatchesOracle({{ip(10, 0, 0, 0), 16, 1},
                         {ip(10, 0, 0, 128), 25, 2},
                         {ip(10, 0, 16, 0), 26, 3},
                         {ip(10, 128, 0, 0), 28, 4},
                         {ip(10, 255, 255, 240), 28, 5},
                         {ip(10, 0, 0, 0), 8, 6}});
}

// A /22 spans 4 slots (per-slot path); a /20 spans exactly one
// block, here with its extended slot last.
TEST(LpmEdge, SpanFourAndSpanSixteenOverDeepRoute)
{
    expectMatchesOracle({{ip(10, 1, 2, 128), 25, 1},
                         {ip(10, 1, 0, 0), 22, 2}});
    expectMatchesOracle({{ip(10, 1, 31, 0), 30, 3},
                         {ip(10, 1, 16, 0), 20, 4}});
}

// Deeper routes on both sides of a block boundary (a /19 across two
// blocks, /24s in slots 15 and 16, a /25 in slot 16), then a
// shallower /12 over all of them.
TEST(LpmEdge, ShallowerOverDeeperAcrossBlockBoundary)
{
    expectMatchesOracle({{ip(10, 3, 0, 0), 19, 1},
                         {ip(10, 3, 15, 0), 24, 2},
                         {ip(10, 3, 16, 0), 24, 3},
                         {ip(10, 3, 16, 128), 25, 4},
                         {ip(10, 0, 0, 0), 12, 5}});
}

// 255.0.0.0/8 paints up to the last tbl24 slot, and
// 255.255.255.0/24 is that slot; both orders, with a deep route.
TEST(LpmEdge, LastTbl24Slots)
{
    expectMatchesOracle({{ip(255, 255, 255, 192), 26, 1},
                         {ip(255, 0, 0, 0), 8, 2},
                         {ip(255, 255, 255, 0), 24, 3}});
    expectMatchesOracle({{ip(255, 255, 255, 0), 24, 3},
                         {ip(255, 0, 0, 0), 8, 2},
                         {ip(255, 255, 255, 192), 26, 1}});
}

// The same prefix and depth added twice: the later next hop wins,
// on the block path, the per-slot path and in tbl8.
TEST(LpmEdge, SamePrefixTwiceLaterNextHopWins)
{
    const std::vector<std::pair<std::uint32_t, unsigned>> prefixes = {
        {ip(10, 0, 0, 0), 8},  {ip(10, 0, 16, 0), 20},
        {ip(10, 0, 4, 0), 22}, {ip(10, 0, 0, 0), 24},
        {ip(10, 0, 0, 128), 25}};
    std::vector<RouteSpec> routes = {{ip(10, 0, 1, 0), 26, 9}};
    for (auto [prefix, depth] : prefixes)
        routes.push_back({prefix, depth, 1});
    for (auto [prefix, depth] : prefixes)
        routes.push_back({prefix, depth, 2});
    expectMatchesOracle(routes);

    LpmTable t;
    t.addRoute(ip(10, 0, 0, 0), 8, 1);
    t.addRoute(ip(10, 0, 0, 0), 8, 2);
    EXPECT_EQ(t.lookup(ip(10, 200, 0, 1)), 2);
}

// Seeded overlapping routes of every depth, /1 to /32, inside
// 10.0.0.0/20: its 16 /24s are as many tbl8 groups as the table
// holds. Next hops often take the ends of their range, 0 and 255;
// some (prefix, depth) pairs come back with a new next hop, and the
// order is shuffled, so equal-depth overwrites land on every path.
TEST(LpmEdge, SeededOverlappingRoutesMatchOracle)
{
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        SCOPED_TRACE(seed);
        Rng rng(seed);
        auto hop = [&]() -> LpmTable::NextHop {
            switch (rng.nextBounded(4)) {
              case 0: return 0;
              case 1: return 255;
              default: return static_cast<LpmTable::NextHop>(
                           rng.nextBounded(256));
            }
        };
        std::vector<RouteSpec> routes;
        for (int i = 0; i < 40; ++i) {
            const auto depth =
                static_cast<unsigned>(1 + rng.nextBounded(32));
            const std::uint32_t mask =
                depth == 32 ? 0xffffffffu : ~(0xffffffffu >> depth);
            const std::uint32_t addr =
                ip(10, 0, 0, 0) |
                static_cast<std::uint32_t>(rng.nextBounded(1u << 12));
            routes.push_back({addr & mask, depth, hop()});
        }
        for (int i = 0; i < 10; ++i) {
            RouteSpec again = routes[rng.nextBounded(routes.size())];
            again.nextHop = hop();
            routes.push_back(again);
        }
        for (std::size_t i = routes.size() - 1; i > 0; --i)
            std::swap(routes[i], routes[rng.nextBounded(i + 1)]);
        expectMatchesOracle(routes);
    }
}

TEST(Traffic, SixteenThousandRoutesInstall)
{
    Rng rng(123);
    LpmTable table(512);
    auto routes = installRandomRoutes(table, 16000, rng);
    EXPECT_EQ(routes.size(), 16000u);
    // Every generated packet address hits the table.
    for (int i = 0; i < 2000; ++i) {
        std::uint32_t addr = randomCoveredIp(routes, rng);
        EXPECT_NE(table.lookup(addr), LpmTable::kNoRoute);
    }
}

// ----------------------------------------------------------------------
// NIC
// ----------------------------------------------------------------------

TEST(Nic, DeliverAndPoll)
{
    Nic nic(4);
    Packet p;
    p.id = 1;
    EXPECT_TRUE(nic.deliver(p));
    Packet out;
    EXPECT_TRUE(nic.poll(out));
    EXPECT_EQ(out.id, 1u);
    EXPECT_FALSE(nic.poll(out));
}

TEST(Nic, DropsWhenFull)
{
    Nic nic(2);
    Packet p;
    EXPECT_TRUE(nic.deliver(p));
    EXPECT_TRUE(nic.deliver(p));
    EXPECT_FALSE(nic.deliver(p));
    EXPECT_EQ(nic.dropped(), 1u);
    EXPECT_EQ(nic.received(), 2u);
}

TEST(Nic, InterruptOnEmptyToNonEmptyEdgeOnly)
{
    Nic nic(8);
    int interrupts = 0;
    nic.setInterruptHandler([&] { ++interrupts; });
    nic.armInterrupt(true);
    Packet p;
    nic.deliver(p);
    nic.deliver(p);  // queue already non-empty: no interrupt
    EXPECT_EQ(interrupts, 1);
    Packet out;
    nic.poll(out);
    nic.poll(out);
    nic.deliver(p);  // empty -> non-empty again
    EXPECT_EQ(interrupts, 2);
}

TEST(Nic, DisarmedNoInterrupt)
{
    Nic nic(8);
    int interrupts = 0;
    nic.setInterruptHandler([&] { ++interrupts; });
    nic.armInterrupt(false);
    Packet p;
    nic.deliver(p);
    EXPECT_EQ(interrupts, 0);
}

// ----------------------------------------------------------------------
// l3fwd (Fig. 8 shape)
// ----------------------------------------------------------------------

namespace
{

L3FwdResult
quickL3(RxMode mode, double load, unsigned nics)
{
    L3FwdConfig cfg;
    cfg.mode = mode;
    cfg.load = load;
    cfg.numNics = nics;
    cfg.duration = 20 * kCyclesPerMs;
    cfg.routeCount = 2000;  // keep the test fast
    cfg.seed = 77;
    return runL3Fwd(cfg);
}

} // namespace

TEST(L3Fwd, ForwardsAllOfferedBelowSaturation)
{
    L3FwdResult r = quickL3(RxMode::Polling, 0.4, 1);
    EXPECT_EQ(r.forwarded + r.dropped, r.offered);
    EXPECT_EQ(r.dropped, 0u);
}

TEST(L3Fwd, PollingBurnsWholeCore)
{
    L3FwdResult r = quickL3(RxMode::Polling, 0.4, 1);
    EXPECT_DOUBLE_EQ(r.freeFrac, 0.0);
    EXPECT_NEAR(r.networkingFrac + r.pollingFrac, 1.0, 1e-9);
    EXPECT_NEAR(r.networkingFrac, 0.4, 0.05);
}

TEST(L3Fwd, XuiFreesCycles)
{
    L3FwdResult r = quickL3(RxMode::XuiForwarded, 0.4, 1);
    // Paper: ~45% free at 40% load with one queue.
    EXPECT_GT(r.freeFrac, 0.3);
    EXPECT_LT(r.freeFrac, 0.6);
    EXPECT_GT(r.interrupts, 0u);
}

TEST(L3Fwd, XuiIdleFreesEverything)
{
    L3FwdResult r = quickL3(RxMode::XuiForwarded, 0.001, 1);
    EXPECT_GT(r.freeFrac, 0.95);
}

TEST(L3Fwd, ThroughputMatchesPollingAtHighLoad)
{
    L3FwdResult poll = quickL3(RxMode::Polling, 0.9, 1);
    L3FwdResult xui = quickL3(RxMode::XuiForwarded, 0.9, 1);
    ASSERT_GT(poll.forwarded, 1000u);
    double ratio = static_cast<double>(xui.forwarded) /
        static_cast<double>(poll.forwarded);
    // Paper: within 0.08%; allow simulation noise.
    EXPECT_NEAR(ratio, 1.0, 0.02);
}

TEST(L3Fwd, LatencyComparableToPolling)
{
    L3FwdResult poll = quickL3(RxMode::Polling, 0.4, 1);
    L3FwdResult xui = quickL3(RxMode::XuiForwarded, 0.4, 1);
    // p95 within a small factor (paper: +2% for 1 NIC).
    EXPECT_LT(static_cast<double>(xui.latency.p95()),
              1.5 * static_cast<double>(poll.latency.p95()));
}

TEST(L3Fwd, MwaitFreesCyclesWithOneQueueOnly)
{
    // §2: mwait can only monitor a single cache line, so its
    // benefit disappears beyond one RX queue.
    L3FwdResult one = quickL3(RxMode::MwaitSingleQueue, 0.4, 1);
    EXPECT_GT(one.freeFrac, 0.5);
    L3FwdResult two = quickL3(RxMode::MwaitSingleQueue, 0.4, 2);
    EXPECT_DOUBLE_EQ(two.freeFrac, 0.0);
}

TEST(L3Fwd, MwaitSameThroughputAsPolling)
{
    L3FwdResult poll = quickL3(RxMode::Polling, 0.5, 1);
    L3FwdResult mwait = quickL3(RxMode::MwaitSingleQueue, 0.5, 1);
    double ratio = static_cast<double>(mwait.forwarded) /
        static_cast<double>(poll.forwarded);
    EXPECT_NEAR(ratio, 1.0, 0.02);
}

TEST(L3Fwd, MwaitWakeSlowerThanPollDetect)
{
    L3FwdResult poll = quickL3(RxMode::Polling, 0.1, 1);
    L3FwdResult mwait = quickL3(RxMode::MwaitSingleQueue, 0.1, 1);
    // C-state exit costs more than a positive poll.
    EXPECT_GE(mwait.latency.p50(), poll.latency.p50());
}

TEST(L3Fwd, MultiQueueStillConservesPackets)
{
    for (unsigned nics : {2u, 4u, 8u}) {
        L3FwdResult r = quickL3(RxMode::XuiForwarded, 0.4, nics);
        EXPECT_EQ(r.forwarded + r.dropped, r.offered)
            << nics << " nics";
        EXPECT_GT(r.freeFrac, 0.2) << nics << " nics";
    }
}

TEST(L3Fwd, ArrivalsStreamThroughAShallowEventPool)
{
    // A bench/perf des_apps point: ~23k arrivals on 4 NICs. Each NIC's
    // arrivals are one event series, so the event pool peaks at a
    // few slots; scheduling every arrival up front needs one each.
    L3FwdConfig cfg;
    cfg.mode = RxMode::XuiForwarded;
    cfg.numNics = 4;
    cfg.load = 0.7;
    cfg.duration = 5 * kCyclesPerMs;
    cfg.routeCount = 2000;
    L3FwdResult r = runL3Fwd(cfg);
    ASSERT_GT(r.offered, 20'000u);
    EXPECT_EQ(r.forwarded + r.dropped, r.offered);
    EXPECT_LE(r.eventPoolSlots, 8u);
}
