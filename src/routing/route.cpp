#include "routing/route.hpp"

#include <numeric>
#include <stdexcept>
#include <string>

namespace anton2 {

namespace {

/** PacketRoute holds three dimensions. */
void
requireThreeDims(const TorusGeom &geom, const char *who)
{
    if (geom.ndims() != 3)
        throw std::invalid_argument(std::string(who)
                                    + ": a PacketRoute is a route of a 3-D "
                                      "torus");
}

/** A node's coordinates, as TorusGeom::coords() gives them. */
std::array<int, 3>
coordsOf(const TorusGeom &geom, NodeId node)
{
    return { geom.coord(node, 0), geom.coord(node, 1), geom.coord(node, 2) };
}

/**
 * The minimal travel direction of every dimension into @p out's dirs,
 * ties drawn from @p rng, and each dimension's hops in that direction
 * into its `left`.
 */
void
drawDirs(const TorusGeom &geom, const std::array<int, 3> &src,
         const std::array<int, 3> &dst, Rng &rng, PacketRoute &out)
{
    out.dirs.fill(Dir::Pos);
    out.left.fill(0);
    for (std::size_t d = 0; d < 3; ++d) {
        const int k = geom.radix(static_cast<int>(d));
        int fwd = dst[d] - src[d];
        if (fwd < 0)
            fwd += k;
        if (fwd == 0)
            continue;
        // A tie (offset exactly k/2 on an even ring) draws one bit to
        // pick between TorusGeom::minimalDirs' {Pos, Neg}.
        const int bwd = k - fwd;
        const bool neg = fwd == bwd ? rng.bit() : bwd < fwd;
        out.dirs[d] = neg ? Dir::Neg : Dir::Pos;
        out.left[d] = static_cast<std::uint16_t>(neg ? bwd : fwd);
    }
}

} // namespace

PacketRoute::PacketRoute(const TorusGeom &geom, NodeId src, NodeId dst,
                         const DimOrder &route_order,
                         const std::array<Dir, 3> &route_dirs,
                         std::uint8_t route_slice)
    : dirs(route_dirs), slice(route_slice)
{
    requireThreeDims(geom, "PacketRoute");
    if (route_order.size() != order.size())
        throw std::invalid_argument(
            "PacketRoute: route order is not a permutation of the "
            "dimensions");
    // A value outside the dimensions is held as 3, which malformedRoute
    // rejects, rather than narrowed onto one.
    for (std::size_t i = 0; i < order.size(); ++i) {
        const int d = route_order[i];
        order[i] = static_cast<std::uint8_t>(d >= 0 && d < 3 ? d : 3);
    }
    if (const char *why = malformedRoute(*this))
        throw std::invalid_argument(std::string("PacketRoute: ") + why);
    left = hops(geom, src, dst);
}

std::array<std::uint16_t, 3>
PacketRoute::hops(const TorusGeom &geom, NodeId src, NodeId dst) const
{
    std::array<std::uint16_t, 3> out{};
    for (std::size_t d = 0; d < 3; ++d) {
        const int dim = static_cast<int>(d);
        const int k = geom.radix(dim);
        const int fwd = geom.coord(dst, dim) - geom.coord(src, dim);
        out[d] = static_cast<std::uint16_t>(
            (dirs[d] == Dir::Pos ? fwd + k : k - fwd) % k);
    }
    return out;
}

PacketRoute
makeRoute(const TorusGeom &geom, NodeId src, NodeId dst,
          const DimOrder &order, std::uint8_t slice, Rng &rng)
{
    // The constructor checks the order and slice before the tie draws.
    PacketRoute route(geom, src, dst, order,
                      { Dir::Pos, Dir::Pos, Dir::Pos }, slice);
    drawDirs(geom, coordsOf(geom, src), coordsOf(geom, dst), rng, route);
    return route;
}

void
randomRoute(const TorusGeom &geom, NodeId src, NodeId dst, Rng &rng,
            PacketRoute &out)
{
    requireThreeDims(geom, "randomRoute");
    randomRoute(geom, coordsOf(geom, src), coordsOf(geom, dst), rng, out);
}

void
randomRoute(const TorusGeom &geom, const std::array<int, 3> &src,
            const std::array<int, 3> &dst, Rng &rng, PacketRoute &out)
{
    requireThreeDims(geom, "randomRoute");
    // Draw a uniformly random permutation of the dimensions (Fisher-Yates).
    std::iota(out.order.begin(), out.order.end(), std::uint8_t{ 0 });
    for (std::size_t i = out.order.size(); i > 1; --i) {
        const auto j = static_cast<std::size_t>(rng.below(i));
        std::swap(out.order[i - 1], out.order[j]);
    }
    out.slice = static_cast<std::uint8_t>(rng.below(kNumSlices));
    drawDirs(geom, src, dst, rng, out);
}

const char *
malformedRoute(const PacketRoute &route)
{
    unsigned seen = 0;
    for (const std::uint8_t d : route.order) {
        if (d >= 3 || ((seen >> d) & 1u) != 0)
            return "route order is not a permutation of the dimensions";
        seen |= 1u << d;
    }
    for (const Dir d : route.dirs) {
        if (d != Dir::Pos && d != Dir::Neg)
            return "route direction is neither Pos nor Neg";
    }
    if (route.slice >= kNumSlices)
        return "route slice out of range";
    return nullptr;
}

const char *
malformedRoute(const TorusGeom &geom, NodeId src, NodeId dst,
               const PacketRoute &route)
{
    if (const char *why = malformedRoute(route))
        return why;
    if (route.left != route.hops(geom, src, dst))
        return "hops left differ from the route's hops from source to "
               "destination";
    return nullptr;
}

} // namespace anton2
