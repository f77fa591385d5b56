#include "routing/route.hpp"

#include <cassert>
#include <numeric>
#include <stdexcept>
#include <string>
#include <type_traits>

namespace anton2 {

namespace {

/** A node's coordinates, each read on demand from its id (a division and
 * a modulo), so a NodeId draw makes the divisions it always made and
 * allocates nothing. */
struct NodeCoords
{
    const TorusGeom &geom;
    NodeId node;

    int
    operator[](std::size_t d) const
    {
        return geom.coord(node, static_cast<int>(d));
    }
};

/**
 * The travel direction of every dimension, ties drawn from @p rng, into
 * @p out's dirs; a PacketRoute also records each dimension's hops in
 * that direction. @p src and @p dst give the two nodes' coordinate `d`
 * as `src[d]`: NodeCoords, or coordinates already known.
 */
template <class CoordSource, class Route>
void
drawDirs(const TorusGeom &geom, const CoordSource &src,
         const CoordSource &dst, Rng &rng, Route &out)
{
    constexpr bool fixed = std::is_same_v<Route, PacketRoute>;
    const auto dims = static_cast<std::size_t>(geom.ndims());
    if constexpr (fixed) {
        out.dirs.fill(Dir::Pos);
        out.left.fill(0);
    } else {
        out.dirs.assign(dims, Dir::Pos);
    }
    for (std::size_t d = 0; d < dims; ++d) {
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
        if constexpr (fixed)
            out.left[d] = static_cast<std::uint16_t>(neg ? bwd : fwd);
    }
}

/** The in-place randomRoute() over either coordinate source, into
 * either route form. */
template <class CoordSource, class Route>
void
drawRandomRoute(const TorusGeom &geom, const CoordSource &src,
                const CoordSource &dst, Rng &rng, Route &out)
{
    // Draw a uniformly random permutation of the dimensions (Fisher-Yates).
    auto &order = out.order;
    using Dim = typename std::remove_reference_t<decltype(order)>::value_type;
    if constexpr (!std::is_same_v<Route, PacketRoute>)
        order.resize(static_cast<std::size_t>(geom.ndims()));
    std::iota(order.begin(), order.end(), Dim{ 0 });
    for (std::size_t i = order.size(); i > 1; --i) {
        const auto j = static_cast<std::size_t>(rng.below(i));
        std::swap(order[i - 1], order[j]);
    }
    out.slice = static_cast<std::uint8_t>(rng.below(kNumSlices));
    drawDirs(geom, src, dst, rng, out);
}

/** PacketRoute holds three dimensions. */
void
requireThreeDims(const TorusGeom &geom, const char *who)
{
    if (geom.ndims() != 3)
        throw std::invalid_argument(std::string(who)
                                    + ": a PacketRoute is a route of a 3-D "
                                      "torus");
}

} // namespace

RouteSpec
makeRoute(const TorusGeom &geom, NodeId src, NodeId dst, DimOrder order,
          std::uint8_t slice, Rng &rng)
{
    RouteSpec spec;
    spec.order = std::move(order);
    spec.slice = slice;
    drawDirs(geom, NodeCoords{ geom, src }, NodeCoords{ geom, dst }, rng,
             spec);
    return spec;
}

void
makeRoute(const TorusGeom &geom, NodeId src, NodeId dst,
          const DimOrder &order, std::uint8_t slice, Rng &rng,
          RouteSpec &out)
{
    out.order = order; // vector self-assignment is a no-op
    out.slice = slice;
    drawDirs(geom, NodeCoords{ geom, src }, NodeCoords{ geom, dst }, rng,
             out);
}

RouteSpec
randomRoute(const TorusGeom &geom, NodeId src, NodeId dst, Rng &rng)
{
    RouteSpec spec;
    randomRoute(geom, src, dst, rng, spec);
    return spec;
}

void
randomRoute(const TorusGeom &geom, NodeId src, NodeId dst, Rng &rng,
            RouteSpec &out)
{
    drawRandomRoute(geom, NodeCoords{ geom, src }, NodeCoords{ geom, dst },
                    rng, out);
}

void
randomRoute(const TorusGeom &geom, NodeId src, NodeId dst, Rng &rng,
            PacketRoute &out)
{
    requireThreeDims(geom, "randomRoute");
    drawRandomRoute(geom, NodeCoords{ geom, src }, NodeCoords{ geom, dst },
                    rng, out);
}

void
randomRoute(const TorusGeom &geom, const std::array<int, 3> &src,
            const std::array<int, 3> &dst, Rng &rng, PacketRoute &out)
{
    requireThreeDims(geom, "randomRoute");
    drawRandomRoute(geom, src, dst, rng, out);
}

PacketRoute
packetRoute(const TorusGeom &geom, NodeId src, NodeId dst,
            const RouteSpec &spec)
{
    requireThreeDims(geom, "packetRoute");
    if (const char *why = malformedRoute(spec))
        throw std::invalid_argument(std::string("packetRoute: ") + why);
    PacketRoute r;
    r.slice = spec.slice;
    for (std::size_t d = 0; d < 3; ++d) {
        r.order[d] = static_cast<std::uint8_t>(spec.order[d]);
        r.dirs[d] = spec.dirs[d];
        // Hops to the destination's coordinate along the chosen
        // direction.
        const int k = geom.radix(static_cast<int>(d));
        const int fwd = geom.coord(dst, static_cast<int>(d))
                        - geom.coord(src, static_cast<int>(d));
        r.left[d] = static_cast<std::uint16_t>(
            (spec.dirs[d] == Dir::Pos ? fwd + k : k - fwd) % k);
    }
    return r;
}

std::vector<TorusHop>
torusHops(const TorusGeom &geom, NodeId src, NodeId dst,
          const RouteSpec &spec)
{
    std::vector<TorusHop> hops;
    const Coords cd = geom.coords(dst);
    Coords c = geom.coords(src);
    for (int d : spec.order) {
        const auto dd = static_cast<std::size_t>(d);
        const Dir dir = spec.dirs[dd];
        while (c[dd] != cd[dd]) {
            hops.push_back({ static_cast<std::uint8_t>(d), dir });
            c[dd] = geom.neighborCoord(c[dd], d, dir);
        }
    }
    assert(c == cd);
    return hops;
}

int
nextRouteDim(const TorusGeom &geom, NodeId here, NodeId dst,
             const RouteSpec &spec)
{
    for (int d : spec.order) {
        if (geom.coord(here, d) != geom.coord(dst, d))
            return d;
    }
    return -1;
}

const char *
malformedRoute(const RouteSpec &spec)
{
    unsigned seen = 0;
    for (int d : spec.order) {
        if (d < 0 || d >= 3 || ((seen >> d) & 1u) != 0)
            return "route order is not a permutation of the dimensions";
        seen |= 1u << d;
    }
    if (seen != 7u)
        return "route order is not a permutation of the dimensions";
    if (spec.dirs.size() != 3)
        return "route needs one direction per dimension";
    for (Dir d : spec.dirs) {
        if (d != Dir::Pos && d != Dir::Neg)
            return "route direction is neither Pos nor Neg";
    }
    if (spec.slice >= kNumSlices)
        return "route slice out of range";
    return nullptr;
}

} // namespace anton2
