#include "routing/multicast.hpp"

#include <algorithm>
#include <array>

namespace anton2 {

McastTree
buildMcastTree(const TorusGeom &geom, NodeId src,
               const std::vector<McastDest> &dests, const DimOrder &order,
               std::uint8_t slice, Rng &rng)
{
    // Checks the order and slice before the tie draws: each
    // destination's route is built along them.
    PacketRoute route(geom, src, src, order,
                      { Dir::Pos, Dir::Pos, Dir::Pos }, slice);
    McastTree tree;
    tree.root = src;
    tree.slice = slice;

    // Direction ties (offset exactly k/2) are broken once per dimension
    // for the WHOLE tree. With a fixed order and per-dimension tie
    // directions, the dimension-order path from the source to any node is
    // unique, so merged branches form a proper tree: no node is crossed by
    // two different branches, which would make its forwarding-table entry
    // duplicate deliveries.
    std::array<Dir, 3> tie_dirs;
    for (auto &d : tie_dirs)
        d = rng.bit() ? Dir::Pos : Dir::Neg;

    for (const auto &[dst_node, dst_ep] : dests) {
        std::array<Dir, 3> dirs{ Dir::Pos, Dir::Pos, Dir::Pos };
        for (int d = 0; d < 3; ++d) {
            const auto dd = static_cast<std::size_t>(d);
            const auto minimal = geom.minimalDirs(geom.coord(src, d),
                                                  geom.coord(dst_node, d), d);
            if (minimal.size() == 1)
                dirs[dd] = minimal[0];
            else if (minimal.size() == 2)
                dirs[dd] = tie_dirs[dd];
        }
        route = PacketRoute(geom, src, dst_node, order, dirs, slice);
        NodeId here = src;
        for (const std::uint8_t d : route.order) {
            const McastHop mh{ d, route.dirs[d] };
            for (int h = 0; h < route.left[d]; ++h) {
                auto &entry = tree.nodes[here];
                if (std::find(entry.forward.begin(), entry.forward.end(), mh)
                    == entry.forward.end()) {
                    entry.forward.push_back(mh);
                }
                here = geom.neighbor(here, d, mh.dir);
            }
        }
        auto &leaf = tree.nodes[here];
        if (std::find(leaf.local.begin(), leaf.local.end(), dst_ep)
            == leaf.local.end()) {
            leaf.local.push_back(dst_ep);
        }
    }
    return tree;
}

int
unicastTorusHops(const TorusGeom &geom, NodeId src,
                 const std::vector<McastDest> &dests)
{
    // One unicast per destination *endpoint*; copies to multiple endpoints
    // within a node each pay the full inter-node distance (Section 2.3).
    int total = 0;
    for (const auto &[node, ep] : dests) {
        (void)ep;
        total += geom.hopDistance(src, node);
    }
    return total;
}

} // namespace anton2
