/**
 * @file
 * Geometry of the n-dimensional torus inter-node network (Section 2.2).
 *
 * A typical Anton 2 machine is a 3-D torus (dimensions X, Y, Z), but the
 * deadlock-avoidance result of Section 2.5 applies to any n-dimensional
 * torus, so the geometry here is dimension-generic.
 */
#pragma once

#include <cassert>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

namespace anton2 {

/** Identifies a node (one ASIC) within the torus. */
using NodeId = std::uint32_t;

/**
 * Number of torus slices: the inter-node network is channel-sliced with two
 * physical channels per neighbor (Section 2.2). A packet stays on one slice
 * for its entire route.
 */
inline constexpr int kNumSlices = 2;

/** Direction of travel along a torus dimension. */
enum class Dir : std::int8_t { Neg = -1, Pos = +1 };

/** The two directions, for iteration. */
inline constexpr Dir kDirs[] = { Dir::Pos, Dir::Neg };

constexpr int
dirSign(Dir d)
{
    return static_cast<int>(d);
}

constexpr Dir
opposite(Dir d)
{
    return d == Dir::Pos ? Dir::Neg : Dir::Pos;
}

/** 0/1 index for a direction, for table lookups (Pos=0, Neg=1). */
constexpr int
dirIndex(Dir d)
{
    return d == Dir::Pos ? 0 : 1;
}

constexpr const char *
dirName(Dir d)
{
    return d == Dir::Pos ? "+" : "-";
}

/** Conventional names for the first three torus dimensions. */
inline constexpr char kDimNames[] = { 'X', 'Y', 'Z', 'W', 'A', 'B' };

/** Torus coordinates, one entry per dimension. */
using Coords = std::vector<int>;

/**
 * An ordering of the torus dimensions, e.g. {0,1,2} = XYZ or {2,0,1} = ZXY.
 * Unicast packets follow a minimal dimension-order route and may use any of
 * the n! possible orders (Section 2.3).
 */
using DimOrder = std::vector<int>;

/** Enumerate all n! dimension orders of an n-dimensional torus. */
std::vector<DimOrder> allDimOrders(int ndims);

/**
 * Shape and coordinate arithmetic of a k_0 x k_1 x ... x k_{n-1} torus.
 */
class TorusGeom
{
  public:
    /**
     * @param radix Number of nodes along each dimension.
     * @throws std::invalid_argument if any radix is below 1 or the node
     * count does not fit in NodeId.
     */
    explicit TorusGeom(std::vector<int> radix) : radix_(std::move(radix))
    {
        std::uint64_t nodes = 1;
        strides_.reserve(radix_.size());
        for (std::size_t d = 0; d < radix_.size(); ++d) {
            const int k = radix_[d];
            if (k < 1)
                throw std::invalid_argument(
                    "TorusGeom: radix of dimension " + std::to_string(d)
                    + " is " + std::to_string(k) + " (must be >= 1)");
            strides_.push_back(static_cast<NodeId>(nodes));
            nodes *= static_cast<std::uint64_t>(k);
            if (nodes > std::numeric_limits<NodeId>::max())
                throw std::invalid_argument(
                    "TorusGeom: node count overflows NodeId");
        }
        num_nodes_ = static_cast<NodeId>(nodes);
    }

    /** Convenience constructor for the common 3-D case. */
    TorusGeom(int kx, int ky, int kz) : TorusGeom(std::vector<int>{kx, ky, kz})
    {
    }

    int ndims() const { return static_cast<int>(radix_.size()); }
    int radix(int dim) const { return radix_[static_cast<std::size_t>(dim)]; }
    NodeId numNodes() const { return num_nodes_; }

    /** Node id -> coordinates (dimension 0 varies fastest). */
    Coords
    coords(NodeId id) const
    {
        Coords c(radix_.size());
        for (std::size_t d = 0; d < radix_.size(); ++d)
            c[d] = coord(id, static_cast<int>(d));
        return c;
    }

    /** Coordinate of node @p id along @p dim (no Coords allocation). */
    int
    coord(NodeId id, int dim) const
    {
        const auto d = static_cast<std::size_t>(dim);
        return static_cast<int>((id / strides_[d])
                                % static_cast<NodeId>(radix_[d]));
    }

    /** Coordinates -> node id. */
    NodeId
    id(const Coords &c) const
    {
        NodeId out = 0;
        for (std::size_t d = radix_.size(); d-- > 0;) {
            assert(c[d] >= 0 && c[d] < radix_[d]);
            out = out * static_cast<NodeId>(radix_[d])
                + static_cast<NodeId>(c[d]);
        }
        return out;
    }

    /** Coordinate of the neighbor of @p coord one hop along (dim, dir). */
    int
    neighborCoord(int coord, int dim, Dir dir) const
    {
        const int k = radix(dim);
        return (coord + dirSign(dir) + k) % k;
    }

    /** Node one hop away along (dim, dir). */
    NodeId
    neighbor(NodeId node, int dim, Dir dir) const
    {
        const int c = coord(node, dim);
        const NodeId stride = strides_[static_cast<std::size_t>(dim)];
        return node - static_cast<NodeId>(c) * stride
             + static_cast<NodeId>(neighborCoord(c, dim, dir)) * stride;
    }

    /**
     * Minimal hop count from @p from to @p to along @p dim (ignoring other
     * dimensions).
     */
    int
    distance(int from, int to, int dim) const
    {
        const int k = radix(dim);
        const int fwd = ((to - from) % k + k) % k;
        return std::min(fwd, k - fwd);
    }

    /** Total minimal hop count between two nodes. */
    int
    hopDistance(NodeId a, NodeId b) const
    {
        const Coords ca = coords(a);
        const Coords cb = coords(b);
        int total = 0;
        for (int d = 0; d < ndims(); ++d) {
            total += distance(ca[static_cast<std::size_t>(d)],
                              cb[static_cast<std::size_t>(d)], d);
        }
        return total;
    }

    /**
     * Minimal direction(s) of travel from @p from to @p to along @p dim.
     * Returns an empty vector when no hops are needed, both directions when
     * the distance is exactly k/2 (k even), and one direction otherwise.
     */
    std::vector<Dir>
    minimalDirs(int from, int to, int dim) const
    {
        std::vector<Dir> dirs;
        const int k = radix(dim);
        const int fwd = ((to - from) % k + k) % k;
        if (fwd == 0)
            return dirs;
        const int bwd = k - fwd;
        if (fwd <= bwd)
            dirs.push_back(Dir::Pos);
        if (bwd <= fwd)
            dirs.push_back(Dir::Neg);
        return dirs;
    }

    /**
     * True if the hop from coordinate @p from to @p to (adjacent along
     * @p dim) crosses the dateline, which is placed between nodes k-1 and 0
     * in every dimension (Section 2.5).
     */
    bool
    crossesDateline(int from, int to, int dim) const
    {
        const int k = radix(dim);
        return (from == k - 1 && to == 0) || (from == 0 && to == k - 1);
    }

  private:
    std::vector<int> radix_;
    std::vector<NodeId> strides_; ///< node-id step of one hop per dim
    NodeId num_nodes_;
};

} // namespace anton2
