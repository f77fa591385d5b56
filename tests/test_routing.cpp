/**
 * @file
 * Tests for inter-node routing, mesh direction-order routing, and the
 * VC-promotion state machines of Section 2.5.
 */
#include <gtest/gtest.h>

#include <array>
#include <map>
#include <set>
#include <stdexcept>

#include "core/machine.hpp"
#include "routing/mesh_route.hpp"
#include "routing/route.hpp"
#include "routing/vc_promotion.hpp"
#include "sim/rng.hpp"
#include "topo/torus.hpp"

namespace anton2 {
namespace {

/**
 * A route's torus hops, one (dimension, direction) per hop, in the
 * order Chip::ingressAt takes them: leave by nextDim(), then take the
 * hop off its dimension's count on arrival.
 */
std::vector<std::pair<int, Dir>>
walkHops(PacketRoute route)
{
    std::vector<std::pair<int, Dir>> hops;
    for (int d = route.nextDim(); d >= 0; d = route.nextDim()) {
        const auto dd = static_cast<std::size_t>(d);
        hops.push_back({ d, route.dirs[dd] });
        --route.left[dd];
    }
    return hops;
}

TEST(Route, HopsReachDestinationMinimally)
{
    const TorusGeom g(8, 8, 8);
    Rng rng(1);
    PacketRoute route;
    for (int trial = 0; trial < 500; ++trial) {
        const auto src = static_cast<NodeId>(rng.below(g.numNodes()));
        const auto dst = static_cast<NodeId>(rng.below(g.numNodes()));
        randomRoute(g, src, dst, rng, route);
        const auto hops = walkHops(route);
        EXPECT_EQ(static_cast<int>(hops.size()), g.hopDistance(src, dst));

        Coords c = g.coords(src);
        for (const auto &[d, dir] : hops) {
            const auto dd = static_cast<std::size_t>(d);
            c[dd] = g.neighborCoord(c[dd], d, dir);
        }
        EXPECT_EQ(g.id(c), dst);
    }
}

TEST(Route, HopsAreDimensionOrdered)
{
    const TorusGeom g(6, 6, 6);
    Rng rng(2);
    PacketRoute route;
    for (int trial = 0; trial < 200; ++trial) {
        const auto src = static_cast<NodeId>(rng.below(g.numNodes()));
        const auto dst = static_cast<NodeId>(rng.below(g.numNodes()));
        randomRoute(g, src, dst, rng, route);
        const auto hops = walkHops(route);
        // Dimensions must appear as contiguous runs following the order.
        std::size_t order_pos = 0;
        for (std::size_t i = 0; i < hops.size(); ++i) {
            while (order_pos < route.order.size()
                   && hops[i].first != route.order[order_pos]) {
                ++order_pos;
            }
            ASSERT_LT(order_pos, route.order.size());
        }
    }
}

TEST(Route, RandomRouteUsesAllOrdersAndSlices)
{
    const TorusGeom g(4, 4, 4);
    Rng rng(3);
    std::set<std::array<std::uint8_t, 3>> orders;
    std::set<int> slices;
    const NodeId src = 0;
    const NodeId dst = g.id({ 2, 2, 2 });
    PacketRoute route;
    for (int i = 0; i < 400; ++i) {
        randomRoute(g, src, dst, rng, route);
        orders.insert(route.order);
        slices.insert(route.slice);
    }
    EXPECT_EQ(orders.size(), 6u);
    EXPECT_EQ(slices.size(), 2u);
}

TEST(Route, TieBreakUsesBothDirections)
{
    // Distance exactly k/2 on an even ring: both directions are minimal.
    const TorusGeom g(8, 8, 8);
    Rng rng(4);
    const NodeId src = 0;
    const NodeId dst = g.id({ 4, 0, 0 });
    std::set<Dir> seen;
    PacketRoute route;
    for (int i = 0; i < 100; ++i) {
        randomRoute(g, src, dst, rng, route);
        seen.insert(route.dirs[0]);
    }
    EXPECT_EQ(seen.size(), 2u);
}

TEST(Route, NextRouteDimFollowsOrder)
{
    const TorusGeom g(4, 4, 4);
    Rng rng(5);
    const NodeId src = g.id({ 1, 1, 1 });
    const NodeId dst = g.id({ 3, 1, 2 });
    PacketRoute route = makeRoute(g, src, dst, DimOrder{ 2, 0, 1 }, 0, rng);
    EXPECT_EQ(route.left, (std::array<std::uint16_t, 3>{ 2, 0, 1 }));
    EXPECT_EQ(route.nextDim(), 2); // Z first
    --route.left[2];               // arrived at (1, 1, 2)
    EXPECT_EQ(route.nextDim(), 0); // then X
    route.left[0] = 0;             // two X hops on, at the destination
    EXPECT_EQ(route.nextDim(), -1);
}

/** A route's choices in the n-dimensional form the reference functions
 * below use: dimension order, slice, one direction per dimension. */
struct ReferenceRoute
{
    DimOrder order;
    std::uint8_t slice = 0;
    std::vector<Dir> dirs;
};

/** Reference makeRoute: the formulation over Coords and
 * TorusGeom::minimalDirs that the coordinate-free one must match. */
ReferenceRoute
referenceMakeRoute(const TorusGeom &geom, NodeId src, NodeId dst,
                   DimOrder order, std::uint8_t slice, Rng &rng)
{
    ReferenceRoute route;
    route.order = std::move(order);
    route.slice = slice;
    route.dirs.assign(static_cast<std::size_t>(geom.ndims()), Dir::Pos);
    const Coords cs = geom.coords(src);
    const Coords cd = geom.coords(dst);
    for (int d = 0; d < geom.ndims(); ++d) {
        const auto dims = geom.minimalDirs(cs[static_cast<std::size_t>(d)],
                                           cd[static_cast<std::size_t>(d)], d);
        if (dims.empty())
            continue;
        const std::size_t pick =
            dims.size() > 1 ? static_cast<std::size_t>(rng.bit()) : 0;
        route.dirs[static_cast<std::size_t>(d)] = dims[pick];
    }
    return route;
}

/** Reference randomRoute: draws a new order vector and slice and hands
 * them to referenceMakeRoute. */
ReferenceRoute
referenceRandomRoute(const TorusGeom &geom, NodeId src, NodeId dst, Rng &rng)
{
    DimOrder order(static_cast<std::size_t>(geom.ndims()));
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = static_cast<int>(i);
    for (std::size_t i = order.size(); i > 1; --i) {
        const auto j = static_cast<std::size_t>(rng.below(i));
        std::swap(order[i - 1], order[j]);
    }
    const auto slice = static_cast<std::uint8_t>(rng.below(kNumSlices));
    return referenceMakeRoute(geom, src, dst, std::move(order), slice, rng);
}

/** Reference next dimension over Coords: the first in route order whose
 * coordinate at @p here differs from @p dst's. */
int
referenceNextRouteDim(const TorusGeom &geom, NodeId here, NodeId dst,
                      const ReferenceRoute &route)
{
    const Coords ch = geom.coords(here);
    const Coords cd = geom.coords(dst);
    for (int d : route.order) {
        const auto dd = static_cast<std::size_t>(d);
        if (ch[dd] != cd[dd])
            return d;
    }
    return -1;
}

/** Reference hop expansion over Coords: each dimension in route order,
 * stepped along its direction until its coordinate is @p dst's. */
std::vector<std::pair<int, Dir>>
referenceHops(const TorusGeom &geom, NodeId src, NodeId dst,
              const ReferenceRoute &route)
{
    std::vector<std::pair<int, Dir>> hops;
    const Coords cd = geom.coords(dst);
    Coords c = geom.coords(src);
    for (int d : route.order) {
        const auto dd = static_cast<std::size_t>(d);
        while (c[dd] != cd[dd]) {
            hops.push_back({ d, route.dirs[dd] });
            c[dd] = geom.neighborCoord(c[dd], d, route.dirs[dd]);
        }
    }
    return hops;
}

/** @p got holds @p want's choices, and per dimension the hops of
 * @p want's route from @p src to @p dst. */
::testing::AssertionResult
sameRoute(const TorusGeom &g, NodeId src, NodeId dst, const PacketRoute &got,
          const ReferenceRoute &want)
{
    std::array<std::uint16_t, 3> left{};
    for (const auto &hop : referenceHops(g, src, dst, want))
        ++left[static_cast<std::size_t>(hop.first)];
    if (DimOrder(got.order.begin(), got.order.end()) != want.order
        || got.slice != want.slice
        || std::vector<Dir>(got.dirs.begin(), got.dirs.end()) != want.dirs
        || got.left != left)
        return ::testing::AssertionFailure()
               << "src " << src << " dst " << dst;
    return ::testing::AssertionSuccess();
}

TEST(Route, CoordFreeRoutingMatchesCoordsReference)
{
    // Every (src, dst) pair, rotating through every dimension order and
    // both slices; 8x8x8 has k/2 ties in every dimension, so the
    // tie-break draws must line up exactly.
    for (const std::vector<int> &radix :
         { std::vector<int>{ 4, 4, 4 }, { 8, 8, 8 }, { 5, 3, 3 } }) {
        const TorusGeom g(radix);
        const std::vector<DimOrder> orders = allDimOrders(g.ndims());
        Rng ref_rng(17);
        Rng rng(17);
        std::size_t i = 0;
        for (NodeId src = 0; src < g.numNodes(); ++src) {
            for (NodeId dst = 0; dst < g.numNodes(); ++dst, ++i) {
                const DimOrder &order = orders[i % orders.size()];
                const auto slice = static_cast<std::uint8_t>(i % kNumSlices);
                const ReferenceRoute want =
                    referenceMakeRoute(g, src, dst, order, slice, ref_rng);
                const PacketRoute got =
                    makeRoute(g, src, dst, order, slice, rng);
                ASSERT_TRUE(sameRoute(g, src, dst, got, want));
                ASSERT_EQ(rng.state(), ref_rng.state());
                ASSERT_EQ(got.nextDim(),
                          referenceNextRouteDim(g, src, dst, want));
            }
        }
    }
    // A route record holds three dimensions in some order: another
    // torus, and an order that is not a permutation of the three (too
    // short, repeated, past the dimensions, too long, negative), are
    // rejected before any draw.
    Rng rng(7);
    const auto drawn = rng.state();
    for (const std::vector<int> &radix :
         { std::vector<int>{ 5 }, { 4, 4 }, { 4, 4, 3, 3 } }) {
        const TorusGeom g(radix);
        const DimOrder order = allDimOrders(g.ndims()).front();
        EXPECT_THROW(makeRoute(g, 0, 1, order, 0, rng),
                     std::invalid_argument);
    }
    const TorusGeom g(4, 4, 4);
    const NodeId dst = g.id({ 1, 2, 3 });
    for (const DimOrder &order :
         { DimOrder{ 0, 1 }, DimOrder{ 0, 0, 1 }, DimOrder{ 0, 1, 3 },
           DimOrder{ 0, 1, 2, 0 }, DimOrder{ -1, 1, 2 },
           DimOrder{ 256, 1, 2 }, DimOrder{} }) {
        EXPECT_THROW(makeRoute(g, 0, dst, order, 0, rng),
                     std::invalid_argument);
    }
    EXPECT_THROW(makeRoute(g, 0, dst, DimOrder{ 0, 1, 2 }, kNumSlices, rng),
                 std::invalid_argument);
    EXPECT_EQ(rng.state(), drawn) << "rejected before any draw";
}

TEST(Route, InPlaceDrawsMatchByValue)
{
    // Into records reused across (src, dst) pairs and tori, from node
    // ids and from coordinates, randomRoute and makeRoute must give the
    // by-value reference's choices with `left` the reference route's
    // hops per dimension, and leave the Rng in the same state;
    // Machine::setRoute takes each as a route between the pair. Every
    // offset on 2x2x2 is a tie and 8x8x8 has k/2 ties in every
    // dimension, so the tie-break draws must line up too.
    PacketRoute by_ids, by_coords;
    for (const std::vector<int> &radix :
         { std::vector<int>{ 2, 2, 2 }, { 4, 4, 4 }, { 8, 8, 8 },
           { 3, 5, 8 } }) {
        const TorusGeom g(radix);
        MachineConfig cfg;
        cfg.radix = radix;
        cfg.chip.endpoints_per_node = 1;
        cfg.use_packaging = false;
        Machine m(cfg);
        Packet &routed = *m.makeWrite({ 0, 0 }, { 0, 0 });
        auto coords = [&](NodeId n) {
            return std::array<int, 3>{ g.coord(n, 0), g.coord(n, 1),
                                       g.coord(n, 2) };
        };
        const std::vector<DimOrder> orders = allDimOrders(g.ndims());
        Rng ref_rng(29), ids_rng(29), coords_rng(29), pick(31);
        for (int i = 0; i < 12000; ++i) {
            const auto src = static_cast<NodeId>(pick.below(g.numNodes()));
            const auto dst = static_cast<NodeId>(pick.below(g.numNodes()));
            ReferenceRoute want;
            if (i % 2 == 0) {
                want = referenceRandomRoute(g, src, dst, ref_rng);
                randomRoute(g, src, dst, ids_rng, by_ids);
                randomRoute(g, coords(src), coords(dst), coords_rng,
                            by_coords);
                ASSERT_TRUE(sameRoute(g, src, dst, by_coords, want))
                    << "draw " << i;
                ASSERT_EQ(coords_rng.state(), ref_rng.state())
                    << "draw " << i;
            } else {
                const DimOrder &order = orders[pick.below(orders.size())];
                const auto slice =
                    static_cast<std::uint8_t>(pick.below(kNumSlices));
                want = referenceMakeRoute(g, src, dst, order, slice,
                                          ref_rng);
                by_ids = makeRoute(g, src, dst, order, slice, ids_rng);
                // The reference covers the coordinate draw.
                coords_rng = ids_rng;
            }
            ASSERT_TRUE(sameRoute(g, src, dst, by_ids, want)) << "draw " << i;
            ASSERT_EQ(ids_rng.state(), ref_rng.state()) << "draw " << i;
            routed.src.node = src;
            routed.dst.node = dst;
            m.setRoute(routed, by_ids);
            ASSERT_EQ(routed.route.left, by_ids.left) << "draw " << i;
        }
    }
    // The record holds three dimensions; another torus is rejected
    // before any draw.
    PacketRoute fixed;
    Rng a(7);
    const auto drawn = a.state();
    for (const std::vector<int> &radix :
         { std::vector<int>{ 4, 4 }, { 2, 2, 2, 2 } }) {
        const TorusGeom g(radix);
        EXPECT_THROW(randomRoute(g, 0, 1, a, fixed), std::invalid_argument);
        EXPECT_THROW(randomRoute(g, std::array<int, 3>{},
                                 std::array<int, 3>{ 1, 0, 0 }, a, fixed),
                     std::invalid_argument);
        EXPECT_THROW(PacketRoute(g, 0, 1, DimOrder{ 0, 1, 2 },
                                 { Dir::Pos, Dir::Pos, Dir::Pos }, 0),
                     std::invalid_argument);
    }
    EXPECT_EQ(a.state(), drawn) << "rejected before any draw";
}

TEST(MeshRoute, Anton2OrderProducesExpectedHops)
{
    const MeshGeom m(4, 4);
    const auto order = anton2DirOrder();
    // From (3,2) to (0,0): V- twice, then U- three times.
    const auto hops = meshRoute(m, m.id(3, 2), m.id(0, 0), order);
    ASSERT_EQ(hops.size(), 5u);
    EXPECT_EQ(hops[0], MeshDir::VNeg);
    EXPECT_EQ(hops[1], MeshDir::VNeg);
    EXPECT_EQ(hops[2], MeshDir::UNeg);
    EXPECT_EQ(hops[3], MeshDir::UNeg);
    EXPECT_EQ(hops[4], MeshDir::UNeg);
}

TEST(MeshRoute, VposComesLast)
{
    const MeshGeom m(4, 4);
    const auto order = anton2DirOrder();
    // From (0,0) to (2,3): U+ first (no V- needed), then V+.
    const auto hops = meshRoute(m, m.id(0, 0), m.id(2, 3), order);
    ASSERT_EQ(hops.size(), 5u);
    EXPECT_EQ(hops[0], MeshDir::UPos);
    EXPECT_EQ(hops[1], MeshDir::UPos);
    EXPECT_EQ(hops[2], MeshDir::VPos);
}

TEST(MeshRoute, AllPairsReachableUnderAllOrders)
{
    const MeshGeom m(4, 4);
    for (const auto &order : allMeshDirOrders()) {
        for (RouterId s = 0; s < m.numRouters(); ++s) {
            for (RouterId d = 0; d < m.numRouters(); ++d) {
                const auto path = meshPath(m, s, d, order);
                EXPECT_EQ(path.front(), s);
                EXPECT_EQ(path.back(), d);
                const std::size_t min_hops = static_cast<std::size_t>(
                    std::abs(m.u(s) - m.u(d)) + std::abs(m.v(s) - m.v(d)));
                EXPECT_EQ(path.size(), min_hops + 1) << "non-minimal route";
            }
        }
    }
}

TEST(MeshRoute, DirectionRunsFollowOrder)
{
    const MeshGeom m(4, 4);
    Rng rng(6);
    for (const auto &order : allMeshDirOrders()) {
        for (int trial = 0; trial < 20; ++trial) {
            const auto s = static_cast<RouterId>(rng.below(16));
            const auto d = static_cast<RouterId>(rng.below(16));
            const auto hops = meshRoute(m, s, d, order);
            // Map each hop to its position in the order; positions must be
            // non-decreasing (direction-order property).
            int last_pos = -1;
            for (MeshDir h : hops) {
                int pos = -1;
                for (std::size_t i = 0; i < order.size(); ++i) {
                    if (order[i] == h)
                        pos = static_cast<int>(i);
                }
                ASSERT_GE(pos, last_pos);
                last_pos = pos;
            }
        }
    }
}

// ---------------------------------------------------------------------
// VC promotion (Section 2.5)
// ---------------------------------------------------------------------

TEST(VcCounts, MatchPaperClaims)
{
    // Anton 2: n+1 VCs per traffic class; baseline: 2n T-group VCs.
    EXPECT_EQ(numTorusVcs(VcPolicy::Anton2, 3), 4);
    EXPECT_EQ(numMeshVcs(VcPolicy::Anton2, 3), 4);
    EXPECT_EQ(numTorusVcs(VcPolicy::Baseline2n, 3), 6);
    EXPECT_EQ(numMeshVcs(VcPolicy::Baseline2n, 3), 4);
    EXPECT_EQ(numUnifiedVcs(VcPolicy::Anton2, 3), 4);
    EXPECT_EQ(numUnifiedVcs(VcPolicy::Baseline2n, 3), 6);
    // The reduction claimed in the abstract: one-third fewer VCs.
    EXPECT_EQ(numUnifiedVcs(VcPolicy::Anton2, 3) * 3,
              numUnifiedVcs(VcPolicy::Baseline2n, 3) * 2);
}

TEST(VcPromotion, IncrementOnDatelineCrossing)
{
    VcState s(VcPolicy::Anton2);
    EXPECT_EQ(s.torusVc(), 0);
    EXPECT_EQ(s.onTorusHop(false), 0);
    EXPECT_EQ(s.onTorusHop(true), 1); // crossing uses the new VC
    EXPECT_EQ(s.onTorusHop(false), 1);
    s.onDimComplete();
    // Crossed in that dimension, so completion does not increment again.
    EXPECT_EQ(s.meshVc(), 1);
    EXPECT_EQ(s.torusVc(), 1);
}

TEST(VcPromotion, IncrementOnDimCompletionWithoutCrossing)
{
    VcState s(VcPolicy::Anton2);
    EXPECT_EQ(s.onTorusHop(false), 0);
    EXPECT_EQ(s.onTorusHop(false), 0);
    s.onDimComplete();
    EXPECT_EQ(s.meshVc(), 1);
    EXPECT_EQ(s.torusVc(), 1);
}

TEST(VcPromotion, AtMostOneIncrementPerDimension)
{
    // Three dimensions, crossing in some and not others: VC never exceeds
    // n = 3 for a 3-D torus.
    for (int cross_mask = 0; cross_mask < 8; ++cross_mask) {
        VcState s(VcPolicy::Anton2);
        for (int dim = 0; dim < 3; ++dim) {
            const bool cross = (cross_mask >> dim) & 1;
            s.onTorusHop(false);
            s.onTorusHop(cross);
            s.onTorusHop(false);
            s.onDimComplete();
            EXPECT_EQ(s.meshVc(), dim + 1);
        }
        EXPECT_LE(s.torusVc(), 3);
    }
}

TEST(VcPromotion, Baseline2nUsesTwoVcsPerDimension)
{
    VcState s(VcPolicy::Baseline2n);
    EXPECT_EQ(s.onTorusHop(false), 0);
    EXPECT_EQ(s.onTorusHop(true), 1);
    s.onDimComplete();
    EXPECT_EQ(s.meshVc(), 1);
    EXPECT_EQ(s.onTorusHop(false), 2);
    s.onDimComplete();
    EXPECT_EQ(s.onTorusHop(true), 5);
    s.onDimComplete();
    EXPECT_EQ(s.meshVc(), 3);
}

TEST(VcPromotion, NoDatelineControlNeverPromotes)
{
    VcState s(VcPolicy::NoDateline);
    EXPECT_EQ(s.onTorusHop(true), 0);
    s.onDimComplete();
    EXPECT_EQ(s.onTorusHop(true), 0);
    EXPECT_EQ(s.meshVc(), 0);
}

/** Property sweep: promotion VCs stay within bounds on random routes. */
class VcPromotionSweep
    : public ::testing::TestWithParam<std::tuple<int, int>>
{
};

TEST_P(VcPromotionSweep, VcStaysWithinPolicyBound)
{
    const auto [ndims, k] = GetParam();
    std::vector<int> radix(static_cast<std::size_t>(ndims), k);
    const TorusGeom g(radix);
    Rng rng(42 + static_cast<std::uint64_t>(ndims * 100 + k));

    for (VcPolicy policy : { VcPolicy::Anton2, VcPolicy::Baseline2n }) {
        const int t_bound = numTorusVcs(policy, ndims);
        const int m_bound = numMeshVcs(policy, ndims);
        for (int trial = 0; trial < 300; ++trial) {
            const auto src = static_cast<NodeId>(rng.below(g.numNodes()));
            const auto dst = static_cast<NodeId>(rng.below(g.numNodes()));
            // The reference draw: a route record holds three dimensions.
            const auto hops = referenceHops(
                g, src, dst, referenceRandomRoute(g, src, dst, rng));

            VcState s(policy);
            Coords c = g.coords(src);
            for (std::size_t i = 0; i < hops.size(); ++i) {
                const auto [dim, dir] = hops[i];
                const auto dd = static_cast<std::size_t>(dim);
                const int from = c[dd];
                const int to = g.neighborCoord(from, dim, dir);
                const int vc =
                    s.onTorusHop(g.crossesDateline(from, to, dim));
                EXPECT_LT(vc, t_bound);
                c[dd] = to;
                const bool dim_done =
                    (i + 1 == hops.size()) || (hops[i + 1].first != dim);
                if (dim_done) {
                    s.onDimComplete();
                    EXPECT_LT(static_cast<int>(s.meshVc()), m_bound);
                }
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    TorusShapes, VcPromotionSweep,
    ::testing::Combine(::testing::Values(1, 2, 3, 4),
                       ::testing::Values(2, 3, 4, 5, 8)),
    [](const auto &info) {
        return "n" + std::to_string(std::get<0>(info.param)) + "k"
               + std::to_string(std::get<1>(info.param));
    });

} // namespace
} // namespace anton2
