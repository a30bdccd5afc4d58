#include "net/traffic.hh"

#include <unordered_set>

namespace xui
{

std::vector<RouteSpec>
installRandomRoutes(LpmTable &table, std::size_t count, Rng &rng)
{
    std::vector<RouteSpec> routes;
    routes.reserve(count);
    // Real route tables have unique prefixes; duplicates would also
    // make longest-prefix results order-dependent.
    std::unordered_set<std::uint64_t> seen;
    while (routes.size() < count) {
        RouteSpec r;
        // Depth mix biased toward /16../24 like Internet tables;
        // a slice of >/24 routes exercises the tbl8 path.
        std::uint64_t roll = rng.nextBounded(100);
        if (roll < 10)
            r.depth = static_cast<unsigned>(8 + rng.nextBounded(8));
        else if (roll < 90)
            r.depth = static_cast<unsigned>(16 + rng.nextBounded(9));
        else
            r.depth = static_cast<unsigned>(25 + rng.nextBounded(4));
        r.prefix = static_cast<std::uint32_t>(rng.next());
        std::uint32_t mask = r.depth == 32
            ? 0xffffffffu
            : ~(0xffffffffu >> r.depth);
        r.prefix &= mask;
        r.nextHop = static_cast<LpmTable::NextHop>(
            rng.nextBounded(256));
        std::uint64_t key =
            (static_cast<std::uint64_t>(r.prefix) << 6) | r.depth;
        if (!seen.insert(key).second)
            continue;
        // Once tbl8 is full, a deep route whose /24 has no group yet
        // is rejected and another route is drawn.
        if (table.addRoute(r.prefix, r.depth, r.nextHop))
            routes.push_back(r);
    }
    return routes;
}

std::uint32_t
randomCoveredIp(const std::vector<RouteSpec> &routes, Rng &rng)
{
    const RouteSpec &r =
        routes[rng.nextBounded(routes.size())];
    std::uint32_t host_bits = r.depth == 32
        ? 0
        : static_cast<std::uint32_t>(rng.next()) &
            (0xffffffffu >> r.depth);
    return r.prefix | host_bits;
}

} // namespace xui
