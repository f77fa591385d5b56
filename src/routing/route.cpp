#include "routing/route.hpp"

#include <cassert>
#include <stdexcept>

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
 * The travel direction of every dimension, ties drawn from @p rng.
 * @p src and @p dst give the two nodes' coordinate `d` as `src[d]`:
 * NodeCoords, or a span of coordinates already known.
 */
template <class CoordSource>
void
drawDirs(const TorusGeom &geom, const CoordSource &src,
         const CoordSource &dst, Rng &rng, std::vector<Dir> &dirs)
{
    dirs.assign(static_cast<std::size_t>(geom.ndims()), Dir::Pos);
    for (int d = 0; d < geom.ndims(); ++d) {
        const auto dd = static_cast<std::size_t>(d);
        const int k = geom.radix(d);
        int fwd = dst[dd] - src[dd];
        if (fwd < 0)
            fwd += k;
        if (fwd == 0)
            continue;
        // A tie (offset exactly k/2 on an even ring) draws one bit to
        // pick between TorusGeom::minimalDirs' {Pos, Neg}.
        const int bwd = k - fwd;
        const bool neg = fwd == bwd ? rng.bit() : bwd < fwd;
        dirs[dd] = neg ? Dir::Neg : Dir::Pos;
    }
}

/** The in-place randomRoute() over either coordinate source. */
template <class CoordSource>
void
drawRandomRoute(const TorusGeom &geom, const CoordSource &src,
                const CoordSource &dst, Rng &rng, RouteSpec &out)
{
    // Draw a uniformly random permutation of the dimensions (Fisher-Yates).
    DimOrder &order = out.order;
    order.resize(static_cast<std::size_t>(geom.ndims()));
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = static_cast<int>(i);
    for (std::size_t i = order.size(); i > 1; --i) {
        const auto j = static_cast<std::size_t>(rng.below(i));
        std::swap(order[i - 1], order[j]);
    }
    out.slice = static_cast<std::uint8_t>(rng.below(kNumSlices));
    drawDirs(geom, src, dst, rng, out.dirs);
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
             spec.dirs);
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
             out.dirs);
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
randomRoute(const TorusGeom &geom, std::span<const int> src,
            std::span<const int> dst, Rng &rng, RouteSpec &out)
{
    const auto dims = static_cast<std::size_t>(geom.ndims());
    if (src.size() != dims || dst.size() != dims)
        throw std::invalid_argument(
            "randomRoute: coordinates need one entry per dimension");
    drawRandomRoute(geom, src, dst, rng, out);
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
