#include "analysis/deadlock.hpp"

#include <algorithm>
#include <functional>
#include <unordered_map>
#include <unordered_set>

#include "debug/snapshot.hpp"
#include "routing/route.hpp"

namespace anton2 {

namespace {

/** Dependency graph over packed resource keys with cycle extraction. */
class DepGraph
{
  public:
    int
    node(std::uint64_t key, const std::function<std::string()> &name)
    {
        auto [it, inserted] = ids_.try_emplace(
            key, static_cast<int>(names_.size()));
        if (inserted) {
            names_.push_back(name());
            adj_.emplace_back();
        }
        return it->second;
    }

    void
    edge(int a, int b)
    {
        if (a == b)
            return;
        const std::uint64_t key = (static_cast<std::uint64_t>(
                                       static_cast<std::uint32_t>(a))
                                   << 32)
                                  | static_cast<std::uint32_t>(b);
        if (edge_set_.insert(key).second)
            adj_[static_cast<std::size_t>(a)].push_back(b);
    }

    std::size_t numNodes() const { return adj_.size(); }
    std::size_t numEdges() const { return edge_set_.size(); }

    /** Every edge as a (from-name, to-name) pair, deterministically:
     * source nodes in first-appearance order, edges in insertion order. */
    void
    exportEdges(
        std::vector<std::pair<std::string, std::string>> &out) const
    {
        for (std::size_t u = 0; u < adj_.size(); ++u) {
            for (int v : adj_[u]) {
                out.emplace_back(names_[u],
                                 names_[static_cast<std::size_t>(v)]);
            }
        }
    }

    /** Cycle detection; fills @p cycle with resource names if found,
     * starting at the node the DFS entered the cycle by and then walking
     * the cycle backwards. */
    bool
    findCycle(std::vector<std::string> &cycle) const
    {
        std::vector<int> nodes = anton2::findCycle(adj_);
        if (nodes.empty())
            return false;
        std::reverse(nodes.begin() + 1, nodes.end());
        cycle.clear();
        for (int n : nodes)
            cycle.push_back(names_[static_cast<std::size_t>(n)]);
        return true;
    }

  private:
    std::unordered_map<std::uint64_t, int> ids_;
    std::vector<std::string> names_;
    std::vector<std::vector<int>> adj_;
    std::unordered_set<std::uint64_t> edge_set_;
};

/** Enumerate all minimal-direction combinations for a (src, dst) pair. */
std::vector<std::vector<Dir>>
dirCombos(const TorusGeom &geom, NodeId src, NodeId dst)
{
    const Coords cs = geom.coords(src);
    const Coords cd = geom.coords(dst);
    std::vector<std::vector<Dir>> combos{ std::vector<Dir>(
        static_cast<std::size_t>(geom.ndims()), Dir::Pos) };
    for (int d = 0; d < geom.ndims(); ++d) {
        const auto dirs = geom.minimalDirs(cs[static_cast<std::size_t>(d)],
                                           cd[static_cast<std::size_t>(d)],
                                           d);
        if (dirs.empty())
            continue;
        if (dirs.size() == 1) {
            for (auto &combo : combos)
                combo[static_cast<std::size_t>(d)] = dirs[0];
        } else {
            std::vector<std::vector<Dir>> doubled;
            for (const auto &combo : combos) {
                for (Dir dir : dirs) {
                    doubled.push_back(combo);
                    doubled.back()[static_cast<std::size_t>(d)] = dir;
                }
            }
            combos = std::move(doubled);
        }
    }
    return combos;
}

} // namespace

DeadlockReport
checkTorusLevel(const TorusGeom &geom, VcPolicy policy, bool capture_graph)
{
    DepGraph g;

    auto mres = [&](NodeId n, int vc) {
        const std::uint64_t key = (1ULL << 60)
                                  | (static_cast<std::uint64_t>(n) << 8)
                                  | static_cast<std::uint64_t>(vc);
        return g.node(key, [&] {
            return "M(n" + std::to_string(n) + ",v" + std::to_string(vc)
                   + ")";
        });
    };
    auto tres = [&](NodeId n, int dim, Dir dir, int vc) {
        const std::uint64_t key =
            (2ULL << 60) | (static_cast<std::uint64_t>(n) << 16)
            | (static_cast<std::uint64_t>(dim) << 8)
            | (static_cast<std::uint64_t>(dirIndex(dir)) << 4)
            | static_cast<std::uint64_t>(vc);
        return g.node(key, [&] {
            return "T(n" + std::to_string(n) + ","
                   + std::string(1, kDimNames[dim]) + dirName(dir) + ",v"
                   + std::to_string(vc) + ")";
        });
    };

    const auto orders = allDimOrders(geom.ndims());
    for (NodeId src = 0; src < geom.numNodes(); ++src) {
        for (NodeId dst = 0; dst < geom.numNodes(); ++dst) {
            if (src == dst)
                continue;
            for (const auto &combo : dirCombos(geom, src, dst)) {
                for (const auto &order : orders) {
                    // Injection holds no network resource, and ejection
                    // is a sink (endpoint adapters always drain), so M
                    // resources are created only for intermediate turns.
                    VcState vc(policy);
                    int prev = -1;
                    Coords c = geom.coords(src);
                    const Coords cd = geom.coords(dst);
                    int dims_left = 0;
                    for (int d : order) {
                        dims_left += (c[static_cast<std::size_t>(d)]
                                      != cd[static_cast<std::size_t>(d)]);
                    }
                    for (int d : order) {
                        const auto dd = static_cast<std::size_t>(d);
                        if (c[dd] == cd[dd])
                            continue;
                        const Dir dir = combo[dd];
                        while (c[dd] != cd[dd]) {
                            const int to = geom.neighborCoord(c[dd], d,
                                                              dir);
                            const int hop_vc = vc.onTorusHop(
                                geom.crossesDateline(c[dd], to, d));
                            const int cur = tres(geom.id(c), d, dir,
                                                 hop_vc);
                            if (prev >= 0)
                                g.edge(prev, cur);
                            prev = cur;
                            c[dd] = to;
                        }
                        vc.onDimComplete();
                        --dims_left;
                        if (dims_left > 0) {
                            const int cur = mres(geom.id(c), vc.meshVc());
                            g.edge(prev, cur);
                            prev = cur;
                        }
                    }
                }
            }
        }
    }

    DeadlockReport report;
    report.resources = g.numNodes();
    report.edges = g.numEdges();
    report.acyclic = !g.findCycle(report.cycle);
    if (capture_graph)
        g.exportEdges(report.graph_edges);
    return report;
}

DeadlockReport
checkChipLevel(const TorusGeom &geom, const ChipLayout &layout,
               VcPolicy policy, const MeshDirOrder &order,
               const std::vector<int> &sample_endpoints,
               bool capture_graph)
{
    DepGraph g;

    // On-chip channel resource, identified by its descriptor and VC.
    auto cres = [&](NodeId n, const ChipChannel &c, int vc) {
        const std::uint64_t key =
            (3ULL << 60) | (static_cast<std::uint64_t>(n) << 28)
            | (static_cast<std::uint64_t>(c.kind) << 24)
            | (static_cast<std::uint64_t>(c.from_router) << 18)
            | (static_cast<std::uint64_t>(c.to_router) << 12)
            | (static_cast<std::uint64_t>(
                   static_cast<std::uint32_t>(c.adapter + 1) & 0x3f)
               << 6)
            | static_cast<std::uint64_t>(vc);
        return g.node(key, [&] {
            return "chip(n" + std::to_string(n) + ",k"
                   + std::to_string(static_cast<int>(c.kind)) + ",r"
                   + std::to_string(c.from_router) + "->"
                   + std::to_string(c.to_router) + ",a"
                   + std::to_string(c.adapter) + ",v" + std::to_string(vc)
                   + ")";
        });
    };
    auto lres = [&](NodeId n, int dim, Dir dir, int vc) {
        const std::uint64_t key =
            (4ULL << 60) | (static_cast<std::uint64_t>(n) << 16)
            | (static_cast<std::uint64_t>(dim) << 8)
            | (static_cast<std::uint64_t>(dirIndex(dir)) << 4)
            | static_cast<std::uint64_t>(vc);
        return g.node(key, [&] {
            return "link(n" + std::to_string(n) + ","
                   + std::string(1, kDimNames[dim]) + dirName(dir) + ",v"
                   + std::to_string(vc) + ")";
        });
    };

    // A route advances as Chip::ingressAt advances a packet's: each
    // arrival takes one hop off its dimension's count, and the packet
    // leaves by nextDim().
    auto traceRoute = [&](NodeId src_node, int src_ep, int dst_ep,
                          PacketRoute route) {
        VcState vc(policy);
        NodeId here = src_node;
        AttachPoint entry = AttachPoint::forEndpoint(src_ep);
        int prev = -1;
        for (int next = route.nextDim();; next = route.nextDim()) {
            const auto arrival_tvc = vc.torusVc();
            if (entry.kind == AttachPoint::Kind::Channel
                && next != entry.dim) {
                vc.onDimComplete();
            }

            AttachPoint exit;
            if (next < 0) {
                exit = AttachPoint::forEndpoint(dst_ep);
            } else {
                exit = AttachPoint::forChannel(
                    next, route.dirs[static_cast<std::size_t>(next)],
                    route.slice);
            }

            for (const auto &c : layout.route(entry, exit, order)) {
                int cvc = 0;
                switch (c.kind) {
                  case ChipChannel::Kind::AdapterToRouter:
                    cvc = arrival_tvc;
                    break;
                  case ChipChannel::Kind::Skip:
                  case ChipChannel::Kind::RouterToAdapter:
                    cvc = vc.torusVc();
                    break;
                  default:
                    cvc = vc.meshVc();
                    break;
                }
                const int cur = cres(here, c, cvc);
                if (prev >= 0)
                    g.edge(prev, cur);
                prev = cur;
            }

            if (next < 0)
                return;

            const auto dim = static_cast<std::size_t>(next);
            const Dir dir = route.dirs[dim];
            const int from = geom.coord(here, next);
            const int to = geom.neighborCoord(from, next, dir);
            const int hop_vc =
                vc.onTorusHop(geom.crossesDateline(from, to, next));
            const int cur = lres(here, next, dir, hop_vc);
            g.edge(prev, cur);
            prev = cur;

            here = geom.neighbor(here, next, dir);
            entry = AttachPoint::forChannel(next, opposite(dir),
                                            route.slice);
            --route.left[dim];
        }
    };

    const auto orders = allDimOrders(3);
    for (NodeId src = 0; src < geom.numNodes(); ++src) {
        for (NodeId dst = 0; dst < geom.numNodes(); ++dst) {
            for (const auto &combo : dirCombos(geom, src, dst)) {
                for (const auto &dim_order : orders) {
                    const PacketRoute route(
                        geom, src, dst, dim_order,
                        { combo[0], combo[1], combo[2] }, 0);
                    for (int se : sample_endpoints) {
                        for (int de : sample_endpoints)
                            traceRoute(src, se, de, route);
                    }
                }
            }
        }
    }

    DeadlockReport report;
    report.resources = g.numNodes();
    report.edges = g.numEdges();
    report.acyclic = !g.findCycle(report.cycle);
    if (capture_graph)
        g.exportEdges(report.graph_edges);
    return report;
}

std::string
deadlockDot(const DeadlockReport &report)
{
    DotGraph g;
    g.title = "dependencies";
    g.edges = report.graph_edges;
    g.highlight = report.cycle;
    return renderDot(g);
}

} // namespace anton2
