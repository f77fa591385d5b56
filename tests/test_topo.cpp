/**
 * @file
 * Unit tests for torus and mesh geometry.
 */
#include <gtest/gtest.h>

#include <set>
#include <stdexcept>

#include "topo/mesh.hpp"
#include "topo/torus.hpp"

namespace anton2 {
namespace {

TEST(TorusGeom, IdCoordRoundTrip)
{
    const TorusGeom g(4, 3, 5);
    EXPECT_EQ(g.numNodes(), 60u);
    for (NodeId n = 0; n < g.numNodes(); ++n)
        EXPECT_EQ(g.id(g.coords(n)), n);
}

TEST(TorusGeom, CoordsDimensionZeroVariesFastest)
{
    const TorusGeom g(4, 4, 4);
    EXPECT_EQ(g.coords(1), (Coords{ 1, 0, 0 }));
    EXPECT_EQ(g.coords(4), (Coords{ 0, 1, 0 }));
    EXPECT_EQ(g.coords(16), (Coords{ 0, 0, 1 }));
}

TEST(TorusGeom, CoordMatchesCoords)
{
    for (const std::vector<int> &radix :
         { std::vector<int>{ 4, 3, 5 }, { 5 }, { 4, 4, 3, 3 }, { 1, 2, 1 } }) {
        const TorusGeom g(radix);
        for (NodeId n = 0; n < g.numNodes(); ++n) {
            const Coords c = g.coords(n);
            for (int d = 0; d < g.ndims(); ++d)
                EXPECT_EQ(g.coord(n, d), c[static_cast<std::size_t>(d)]);
        }
    }
}

TEST(TorusGeom, RejectsRadixBelowOne)
{
    using Radix = std::vector<int>;
    EXPECT_THROW(TorusGeom(Radix{ 0, 4, 4 }), std::invalid_argument);
    EXPECT_THROW(TorusGeom(Radix{ -1, 4, 4 }), std::invalid_argument);
    EXPECT_THROW(TorusGeom(Radix{ 4, 4, 0 }), std::invalid_argument);
    EXPECT_NO_THROW(TorusGeom(Radix{ 1, 1, 1 }));
}

TEST(TorusGeom, RejectsNodeCountOverflowingNodeId)
{
    using Radix = std::vector<int>;
    // 2^16 x 2^16 = 2^32 nodes: one past the largest NodeId.
    EXPECT_THROW(TorusGeom(Radix{ 65536, 65536, 1 }), std::invalid_argument);
    EXPECT_THROW(TorusGeom(Radix{ 1 << 20, 1 << 20, 1 << 20 }),
                 std::invalid_argument);
    const TorusGeom widest(Radix{ 65535, 65537, 1 }); // 2^32 - 1 nodes
    EXPECT_EQ(widest.numNodes(), 0xffffffffu);
    EXPECT_EQ(widest.coord(widest.numNodes() - 1, 1), 65536);
}

TEST(TorusGeom, NeighborWrapsAround)
{
    const TorusGeom g(4, 4, 4);
    const NodeId origin = g.id({ 0, 0, 0 });
    EXPECT_EQ(g.coords(g.neighbor(origin, 0, Dir::Neg)), (Coords{ 3, 0, 0 }));
    EXPECT_EQ(g.coords(g.neighbor(origin, 1, Dir::Pos)), (Coords{ 0, 1, 0 }));
    const NodeId edge = g.id({ 3, 0, 0 });
    EXPECT_EQ(g.coords(g.neighbor(edge, 0, Dir::Pos)), (Coords{ 0, 0, 0 }));
}

TEST(TorusGeom, NeighborIsInvertible)
{
    const TorusGeom g(3, 5, 2);
    for (NodeId n = 0; n < g.numNodes(); ++n) {
        for (int d = 0; d < g.ndims(); ++d) {
            for (Dir dir : kDirs) {
                EXPECT_EQ(g.neighbor(g.neighbor(n, d, dir), d,
                                     opposite(dir)),
                          n);
            }
        }
    }
}

TEST(TorusGeom, DistanceIsMinimalOnRing)
{
    const TorusGeom g(std::vector<int>{ 8 });
    EXPECT_EQ(g.distance(0, 3, 0), 3);
    EXPECT_EQ(g.distance(0, 5, 0), 3); // wraps: 8-5
    EXPECT_EQ(g.distance(0, 4, 0), 4); // exactly half
    EXPECT_EQ(g.distance(7, 0, 0), 1);
    EXPECT_EQ(g.distance(2, 2, 0), 0);
}

TEST(TorusGeom, MinimalDirsHandleTies)
{
    const TorusGeom g(std::vector<int>{ 8 });
    EXPECT_EQ(g.minimalDirs(0, 3, 0), (std::vector<Dir>{ Dir::Pos }));
    EXPECT_EQ(g.minimalDirs(0, 6, 0), (std::vector<Dir>{ Dir::Neg }));
    EXPECT_EQ(g.minimalDirs(0, 4, 0),
              (std::vector<Dir>{ Dir::Pos, Dir::Neg }));
    EXPECT_TRUE(g.minimalDirs(5, 5, 0).empty());
}

TEST(TorusGeom, MinimalDirsOddRadixNeverTies)
{
    const TorusGeom g(std::vector<int>{ 7 });
    for (int a = 0; a < 7; ++a) {
        for (int b = 0; b < 7; ++b) {
            if (a != b) {
                EXPECT_EQ(g.minimalDirs(a, b, 0).size(), 1u);
            }
        }
    }
}

TEST(TorusGeom, DatelineBetweenLastAndZero)
{
    const TorusGeom g(std::vector<int>{ 8 });
    EXPECT_TRUE(g.crossesDateline(7, 0, 0));
    EXPECT_TRUE(g.crossesDateline(0, 7, 0));
    EXPECT_FALSE(g.crossesDateline(3, 4, 0));
    EXPECT_FALSE(g.crossesDateline(4, 3, 0));
}

TEST(TorusGeom, HopDistanceSumsDimensions)
{
    const TorusGeom g(8, 8, 8);
    const NodeId a = g.id({ 0, 0, 0 });
    const NodeId b = g.id({ 3, 7, 4 });
    EXPECT_EQ(g.hopDistance(a, b), 3 + 1 + 4);
    EXPECT_EQ(g.hopDistance(a, a), 0);
    EXPECT_EQ(g.hopDistance(a, b), g.hopDistance(b, a));
}

TEST(DimOrders, EnumeratesAllPermutations)
{
    const auto orders = allDimOrders(3);
    EXPECT_EQ(orders.size(), 6u);
    std::set<DimOrder> unique(orders.begin(), orders.end());
    EXPECT_EQ(unique.size(), 6u);
    for (const auto &o : orders) {
        std::set<int> dims(o.begin(), o.end());
        EXPECT_EQ(dims, (std::set<int>{ 0, 1, 2 }));
    }
}

TEST(DimOrders, FourDimensions)
{
    EXPECT_EQ(allDimOrders(4).size(), 24u);
}

TEST(MeshGeom, IdAndCoords)
{
    const MeshGeom m(4, 4);
    EXPECT_EQ(m.numRouters(), 16);
    const RouterId r = m.id(2, 3);
    EXPECT_EQ(m.u(r), 2);
    EXPECT_EQ(m.v(r), 3);
}

TEST(MeshGeom, MoveAndBounds)
{
    const MeshGeom m(4, 4);
    const RouterId corner = m.id(0, 0);
    EXPECT_TRUE(m.canMove(corner, MeshDir::UPos));
    EXPECT_FALSE(m.canMove(corner, MeshDir::UNeg));
    EXPECT_TRUE(m.canMove(corner, MeshDir::VPos));
    EXPECT_FALSE(m.canMove(corner, MeshDir::VNeg));
    EXPECT_EQ(m.move(corner, MeshDir::UPos), m.id(1, 0));
}

TEST(MeshGeom, OppositeDirections)
{
    for (MeshDir d : kMeshDirs) {
        EXPECT_EQ(meshOpposite(meshOpposite(d)), d);
        EXPECT_EQ(meshDirDu(d), -meshDirDu(meshOpposite(d)));
        EXPECT_EQ(meshDirDv(d), -meshDirDv(meshOpposite(d)));
    }
}

TEST(MeshDirOrders, EnumeratesAll24)
{
    const auto orders = allMeshDirOrders();
    EXPECT_EQ(orders.size(), 24u);
    std::set<MeshDirOrder> unique(orders.begin(), orders.end());
    EXPECT_EQ(unique.size(), 24u);
}

TEST(MeshDirOrders, Anton2OrderIsVnegUposUnegVpos)
{
    const auto order = anton2DirOrder();
    ASSERT_EQ(order.size(), 4u);
    EXPECT_EQ(order[0], MeshDir::VNeg);
    EXPECT_EQ(order[1], MeshDir::UPos);
    EXPECT_EQ(order[2], MeshDir::UNeg);
    EXPECT_EQ(order[3], MeshDir::VPos);
}

} // namespace
} // namespace anton2
