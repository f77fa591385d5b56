/**
 * @file
 * Tests for the Figure 1 chip layout: adapter placement, port budgets,
 * skip channels, and on-chip route computation.
 */
#include <gtest/gtest.h>

#include <map>

#include "core/chip_layout.hpp"

namespace anton2 {
namespace {

class ChipLayoutTest : public ::testing::Test
{
  protected:
    ChipLayout layout_{ 23 };
    MeshDirOrder order_ = anton2DirOrder();
};

TEST_F(ChipLayoutTest, ComponentCountsMatchTable1)
{
    EXPECT_EQ(layout_.numRouters(), 16);
    EXPECT_EQ(layout_.numEndpoints(), 23);
    EXPECT_EQ(layout_.numChannelAdapters(), 12);
}

TEST_F(ChipLayoutTest, PaperExampleYThroughRoute)
{
    // "Y0+ -> R(0,2) -> Y0-": both slice-0 Y adapters on router (0,2).
    EXPECT_EQ(layout_.channelRouter(1, Dir::Pos, 0), layout_.mesh().id(0, 2));
    EXPECT_EQ(layout_.channelRouter(1, Dir::Neg, 0), layout_.mesh().id(0, 2));
}

TEST_F(ChipLayoutTest, PaperExampleXThroughRoute)
{
    // "X1- -> R(3,0) -> skip -> R(0,0) -> X1+".
    EXPECT_EQ(layout_.channelRouter(0, Dir::Neg, 1), layout_.mesh().id(3, 0));
    EXPECT_EQ(layout_.channelRouter(0, Dir::Pos, 1), layout_.mesh().id(0, 0));
    EXPECT_EQ(layout_.skipPeer(layout_.mesh().id(3, 0)),
              layout_.mesh().id(0, 0));
}

TEST_F(ChipLayoutTest, XChannelsSplitAcrossOppositeEdges)
{
    for (int slice = 0; slice < kNumSlices; ++slice) {
        const RouterId pos = layout_.channelRouter(0, Dir::Pos, slice);
        const RouterId neg = layout_.channelRouter(0, Dir::Neg, slice);
        EXPECT_NE(layout_.mesh().u(pos), layout_.mesh().u(neg));
        EXPECT_TRUE(layout_.mesh().u(pos) == 0 || layout_.mesh().u(pos) == 3);
        EXPECT_TRUE(layout_.mesh().u(neg) == 0 || layout_.mesh().u(neg) == 3);
    }
}

TEST_F(ChipLayoutTest, SameSliceYZOnSameEdge)
{
    for (int slice = 0; slice < kNumSlices; ++slice) {
        const int uy = layout_.mesh().u(layout_.channelRouter(1, Dir::Pos,
                                                              slice));
        const int uz = layout_.mesh().u(layout_.channelRouter(2, Dir::Pos,
                                                              slice));
        EXPECT_EQ(uy, uz);
    }
}

TEST_F(ChipLayoutTest, PortBudgetRespected)
{
    for (RouterId r = 0; r < layout_.numRouters(); ++r) {
        const auto &ports = layout_.routerPorts(r);
        EXPECT_EQ(static_cast<int>(ports.size()), kRouterPorts);
        int used = 0;
        for (const auto &p : ports)
            used += (p.kind != RouterPort::Kind::Unused);
        EXPECT_LE(used, kRouterPorts);
    }
}

TEST_F(ChipLayoutTest, EveryAttachmentHasAPort)
{
    for (int ca = 0; ca < layout_.numChannelAdapters(); ++ca) {
        const RouterId r = layout_.channelRouter(ca);
        EXPECT_GE(layout_.channelPort(r, ca), 0);
    }
    for (int e = 0; e < layout_.numEndpoints(); ++e) {
        const RouterId r = layout_.endpointRouter(e);
        EXPECT_GE(layout_.endpointPort(r, e), 0);
    }
}

TEST_F(ChipLayoutTest, ChannelAdapterIndexRoundTrip)
{
    for (int dim = 0; dim < 3; ++dim) {
        for (Dir dir : kDirs) {
            for (int slice = 0; slice < kNumSlices; ++slice) {
                const int ca = layout_.channelAdapterIndex(dim, dir, slice);
                EXPECT_GE(ca, 0);
                EXPECT_LT(ca, 12);
                int d2, s2;
                Dir dir2;
                layout_.channelAdapterParams(ca, d2, dir2, s2);
                EXPECT_EQ(d2, dim);
                EXPECT_EQ(dir2, dir);
                EXPECT_EQ(s2, slice);
            }
        }
    }
}

TEST_F(ChipLayoutTest, YThroughRouteIsSingleRouter)
{
    // A packet traveling Y- arrives on Y0+ and departs on Y0-.
    const auto route = layout_.route(
        AttachPoint::forChannel(1, Dir::Pos, 0),
        AttachPoint::forChannel(1, Dir::Neg, 0), order_);
    ASSERT_EQ(route.size(), 2u);
    EXPECT_EQ(route[0].kind, ChipChannel::Kind::AdapterToRouter);
    EXPECT_EQ(route[1].kind, ChipChannel::Kind::RouterToAdapter);
    EXPECT_TRUE(route[0].isTGroup());
    EXPECT_TRUE(route[1].isTGroup());
}

TEST_F(ChipLayoutTest, XThroughRouteUsesSkipChannel)
{
    // A packet traveling X+ arrives on X1- at R(3,0) and departs on X1+
    // at R(0,0) via the skip channel.
    const auto route = layout_.route(
        AttachPoint::forChannel(0, Dir::Neg, 1),
        AttachPoint::forChannel(0, Dir::Pos, 1), order_);
    ASSERT_EQ(route.size(), 3u);
    EXPECT_EQ(route[0].kind, ChipChannel::Kind::AdapterToRouter);
    EXPECT_EQ(route[1].kind, ChipChannel::Kind::Skip);
    EXPECT_TRUE(route[1].isTGroup());
    EXPECT_EQ(route[1].from_router, layout_.mesh().id(3, 0));
    EXPECT_EQ(route[1].to_router, layout_.mesh().id(0, 0));
    EXPECT_EQ(route[2].kind, ChipChannel::Kind::RouterToAdapter);
}

TEST_F(ChipLayoutTest, TurningRouteUsesMeshMGroup)
{
    // Arrive on X1- (traveling X+, done with X), turn to Y on slice 1.
    const auto route = layout_.route(
        AttachPoint::forChannel(0, Dir::Neg, 1),
        AttachPoint::forChannel(1, Dir::Pos, 1), order_);
    ASSERT_GE(route.size(), 3u);
    EXPECT_EQ(route.front().kind, ChipChannel::Kind::AdapterToRouter);
    EXPECT_EQ(route.back().kind, ChipChannel::Kind::RouterToAdapter);
    for (std::size_t i = 1; i + 1 < route.size(); ++i) {
        EXPECT_EQ(route[i].kind, ChipChannel::Kind::Mesh);
        EXPECT_FALSE(route[i].isTGroup());
    }
    // R(3,0) to R(3,2) is two V+ mesh hops.
    EXPECT_EQ(route.size(), 4u);
}

TEST_F(ChipLayoutTest, InjectionRouteStartsInMGroup)
{
    const auto route = layout_.route(
        AttachPoint::forEndpoint(0),
        AttachPoint::forChannel(2, Dir::Pos, 0), order_);
    EXPECT_EQ(route.front().kind, ChipChannel::Kind::EndpointToRouter);
    EXPECT_FALSE(route.front().isTGroup());
    EXPECT_EQ(route.back().kind, ChipChannel::Kind::RouterToAdapter);
    EXPECT_TRUE(route.back().isTGroup());
}

TEST_F(ChipLayoutTest, EjectionRouteEndsAtEndpoint)
{
    const auto route = layout_.route(
        AttachPoint::forChannel(1, Dir::Pos, 0),
        AttachPoint::forEndpoint(22), order_);
    EXPECT_EQ(route.front().kind, ChipChannel::Kind::AdapterToRouter);
    EXPECT_EQ(route.back().kind, ChipChannel::Kind::RouterToEndpoint);
    EXPECT_EQ(route.back().adapter, 22);
}

TEST_F(ChipLayoutTest, MeshRouteChannelsAreContiguous)
{
    // All endpoint-to-endpoint routes: channels must chain from router to
    // router without gaps.
    for (int a = 0; a < layout_.numEndpoints(); a += 5) {
        for (int b = 0; b < layout_.numEndpoints(); b += 3) {
            const auto route = layout_.route(AttachPoint::forEndpoint(a),
                                             AttachPoint::forEndpoint(b),
                                             order_);
            for (std::size_t i = 0; i + 1 < route.size(); ++i)
                EXPECT_EQ(route[i].to_router, route[i + 1].from_router);
        }
    }
}

TEST(ChipLayoutConfig, RejectsTooManyEndpoints)
{
    EXPECT_THROW(ChipLayout(100), std::invalid_argument);
}

TEST(ChipLayoutConfig, SmallerEndpointCountsWork)
{
    const ChipLayout small(4);
    EXPECT_EQ(small.numEndpoints(), 4);
    EXPECT_EQ(small.numChannelAdapters(), 12);
}

} // namespace
} // namespace anton2
