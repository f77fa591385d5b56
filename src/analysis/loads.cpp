#include "analysis/loads.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>

#include "arb/inverse_weighted.hpp"
#include "noc/route_table.hpp"

namespace anton2 {

namespace {

[[noreturn]] void
reject(const std::string &what)
{
    throw std::invalid_argument("LoadModel: " + what);
}

/**
 * Program @p arb's inverse weights from its inputs' loads: input `i`
 * carries `loads[p][base + i]` under pattern slot `p`. Arbiter patterns
 * beyond the model's slots take the last slot's weights.
 */
void
programArbiter(InverseWeightedArbiter *arb,
               const std::vector<std::vector<double>> &loads,
               std::size_t base)
{
    if (arb == nullptr)
        return;
    const int k = arb->numInputs();
    double min_load = 0.0;
    for (const auto &slot : loads) {
        for (int i = 0; i < k; ++i) {
            const double g = slot[base + static_cast<std::size_t>(i)];
            if (g > 0.0 && (min_load == 0.0 || g < min_load))
                min_load = g;
        }
    }
    InvWeightAccumulators &acc = arb->accumulators();
    const int last = static_cast<int>(loads.size()) - 1;
    for (int i = 0; i < k; ++i) {
        for (int p = 0; p < acc.numPatterns(); ++p) {
            const double g = loads[static_cast<std::size_t>(std::min(
                p, last))][base + static_cast<std::size_t>(i)];
            acc.setWeight(i, p,
                          inverseWeight(g, min_load, acc.weightBits()));
        }
    }
}

} // namespace

LoadModel::LoadModel(const TorusGeom &geom, const ChipLayout &layout,
                     const ChipConfig &chip, int num_patterns)
    : geom_(geom),
      layout_(layout),
      chip_(chip),
      num_patterns_(num_patterns),
      nr_(static_cast<std::size_t>(layout.numRouters())),
      np_(static_cast<std::size_t>(kRouterPorts)),
      nca_(static_cast<std::size_t>(layout.numChannelAdapters())),
      nvc_(static_cast<std::size_t>(chip.numVcs())),
      num_eps_(layout.numEndpoints()),
      num_slots_(layout.numEndpoints() + 2 * layout.numChannelAdapters())
{
    if (geom.ndims() != 3)
        reject("the chip layout places a 3-D torus, not "
               + std::to_string(geom.ndims()) + " dimensions");
    if (num_patterns < 1)
        reject("needs at least one pattern slot");
    std::int64_t stride = 1;
    for (int d = 0; d < 3; ++d) {
        strides_[static_cast<std::size_t>(d)] = stride;
        stride *= geom.radix(d);
    }
    const auto nodes = static_cast<std::size_t>(geom.numNodes());
    coords_.resize(nodes);
    for (std::size_t n = 0; n < nodes; ++n)
        for (int d = 0; d < 3; ++d)
            coords_[n][static_cast<std::size_t>(d)] =
                geom.coord(static_cast<NodeId>(n), d);

    router_.assign(static_cast<std::size_t>(num_patterns),
                   std::vector<double>(nodes * nr_ * np_ * np_, 0.0));
    ca_egress_.assign(static_cast<std::size_t>(num_patterns),
                      std::vector<double>(nodes * nca_ * nvc_, 0.0));
    ca_ingress_.assign(static_cast<std::size_t>(num_patterns),
                       std::vector<double>(nodes * nca_ * nvc_, 0.0));
    torus_.assign(static_cast<std::size_t>(num_patterns),
                  std::vector<double>(nodes * nca_, 0.0));
    mesh_.assign(static_cast<std::size_t>(num_patterns),
                 std::vector<double>(nodes * nr_ * kNumMeshDirs, 0.0));

    // The charge table, walked from the route table the routers read.
    // An endpoint or a channel adapter enters toward any endpoint or
    // adapter; only the X adapter of the opposite label and same slice
    // continues an X route on the through slot.
    const RouteTable routes = RouteTable::build(layout, chip.dir_order);
    const int num_cas = layout.numChannelAdapters();
    const int entries = num_eps_ + num_cas;
    first_.resize(static_cast<std::size_t>(entries * num_slots_ + 1));
    std::vector<RouteHop> hops;
    for (int a = 0; a < entries; ++a) {
        const bool from_ep = a < num_eps_;
        const RouterId r_in = from_ep ? layout.endpointRouter(a)
                                      : layout.channelRouter(a - num_eps_);
        const int entry_port = from_ep
                                   ? layout.endpointPort(r_in, a)
                                   : layout.channelPort(r_in, a - num_eps_);
        int dim = 0, slice = 0;
        Dir dir = Dir::Pos;
        if (!from_ep)
            layout.channelAdapterParams(a - num_eps_, dim, dir, slice);
        for (int s = 0; s < num_slots_; ++s) {
            first_[static_cast<std::size_t>(a * num_slots_ + s)] =
                static_cast<std::uint32_t>(charges_.size());
            const int through_ca = s - num_eps_ - num_cas;
            const bool x_continues =
                !from_ep && dim == 0
                && through_ca
                       == ChipLayout::channelAdapterIndex(0, opposite(dir),
                                                          slice);
            if (through_ca >= 0 && !x_continues)
                continue;
            routes.walk(layout, r_in, s, hops);
            int in_port = entry_port;
            for (const RouteHop &h : hops) {
                const RouterPort &port =
                    layout.routerPorts(h.router)[static_cast<std::size_t>(
                        h.out_port)];
                Charge c{ static_cast<std::uint32_t>(
                              routerIdx(0, h.router, h.out_port, in_port)),
                          -1 };
                if (port.kind == RouterPort::Kind::Mesh) {
                    c.mesh = static_cast<std::int32_t>(
                        meshIdx(0, h.router, port.mesh_dir));
                    in_port = layout.meshPort(
                        layout.mesh().move(h.router, port.mesh_dir),
                        meshOpposite(port.mesh_dir));
                } else if (port.kind == RouterPort::Kind::Skip) {
                    in_port = layout.skipPort(port.skip_peer);
                }
                charges_.push_back(c);
            }
        }
    }
    first_.back() = static_cast<std::uint32_t>(charges_.size());
}

void
LoadModel::checkSlot(int slot) const
{
    if (slot < 0 || slot >= num_patterns_)
        reject("pattern slot " + std::to_string(slot) + " out of range");
}

template <class Cross, class Run>
void
LoadModel::walkRuns(EndpointAddr src, EndpointAddr dst,
                    const PacketRoute &route, Cross &&cross, Run &&run) const
{
    // A chip is entered from an endpoint or from the channel adapter the
    // last run arrived on, and left toward the next run's adapter or the
    // destination endpoint. Earlier runs have not moved a run's own
    // coordinate, and the run ends on the destination's.
    const std::array<int, 3> &from = coords_[src.node];
    const std::array<int, 3> &to = coords_[dst.node];
    NodeId here = src.node;
    int entry = src.ep;
    int dims_done = 0;
    for (const std::uint8_t d : route.order) {
        const int hops = route.left[d];
        if (hops == 0)
            continue;
        const Dir dir = route.dirs[d];
        const int out_ca = ChipLayout::channelAdapterIndex(d, dir, route.slice);
        cross(here, key(entry, num_eps_ + out_ca));
        run(here, out_ca, hops, dims_done++);
        here = static_cast<NodeId>(static_cast<std::int64_t>(here)
                                   + (to[d] - from[d]) * strides_[d]);
        entry = num_eps_
                + ChipLayout::channelAdapterIndex(d, opposite(dir),
                                                  route.slice);
    }
    cross(here, key(entry, dst.ep));
}

template <class Egress, class Ingress, class Cross>
void
LoadModel::expandRun(NodeId start, int out_ca, int hops, int dims_done,
                     Egress &&egress, Ingress &&ingress, Cross &&cross) const
{
    int d = 0, slice = 0;
    Dir dir = Dir::Pos;
    layout_.channelAdapterParams(out_ca, d, dir, slice);
    const auto dd = static_cast<std::size_t>(d);
    const int k = geom_.radix(d);
    const int in_ca = ChipLayout::channelAdapterIndex(d, opposite(dir), slice);
    // Continuing along X crosses the chip on the skip channel.
    const std::size_t through =
        key(num_eps_ + in_ca,
            num_eps_ + (d == 0 ? static_cast<int>(nca_) : 0) + out_ca);
    const int vcs_per_class = chip_.vcsPerClass();
    auto fullVc = [&](int promo) {
        return fullVcIndex(TrafficClass::Request, promo, vcs_per_class);
    };
    // The run starts with its VC unpromoted in this dimension, after
    // dims_done completed ones.
    VcState vc(chip_.vc_policy);
    vc.restoreState(static_cast<std::uint8_t>(dims_done), false);
    NodeId here = start;
    int c = coords_[start][dd];
    for (int h = 0; h < hops; ++h) {
        if (h > 0)
            cross(here, through);
        // Torus hop: egress arbitration, channel load, VC promotion.
        egress(here, out_ca, fullVc(vc.torusVc()));
        // TorusGeom::neighborCoord without the division.
        int next = c + dirSign(dir);
        if (next == k)
            next = 0;
        else if (next < 0)
            next = k - 1;
        vc.onTorusHop(geom_.crossesDateline(c, next, d));
        here = static_cast<NodeId>(static_cast<std::int64_t>(here)
                                   + (next - c) * strides_[dd]);
        c = next;
        ingress(here, in_ca, fullVc(vc.torusVc()));
    }
}

template <class T>
void
LoadModel::chargeChip(std::size_t key, T amount, T *router, T *mesh) const
{
    for (std::uint32_t c = first_[key]; c < first_[key + 1]; ++c) {
        const Charge &ch = charges_[c];
        router[ch.router] += amount;
        if (ch.mesh >= 0)
            mesh[ch.mesh] += amount;
    }
}

void
LoadModel::addPattern(int slot, const TrafficPattern &pattern,
                      const std::vector<EndpointId> &cores,
                      int samples_per_core, Rng &rng)
{
    checkSlot(slot);
    for (EndpointId e : cores) {
        if (e < 0 || e >= num_eps_)
            reject("core " + std::to_string(e) + " is not an endpoint");
    }
    // The counts below are 32-bit. A sampled route is minimal, so it
    // enters each node at most once: it reports each crossing, run,
    // adapter and torus key at most once, and since an on-chip route
    // visits each router once, its crossing of a chip charges any router
    // arbiter or mesh channel at most once. No count can exceed the
    // number of routes sampled, nodes x cores x samples_per_core.
    if (samples_per_core < 1)
        reject("samples_per_core must be at least 1");
    const auto sources =
        static_cast<std::uint64_t>(geom_.numNodes()) * cores.size();
    if (sources > 0
        && static_cast<std::uint64_t>(samples_per_core)
               > std::numeric_limits<std::uint32_t>::max() / sources)
        reject("nodes x cores x samples_per_core exceeds 2^32 - 1 routes");

    // Count, then charge: every sample adds the same w, so a load's bits
    // depend only on its starting value and how many additions it gets.
    // Sampling counts the chip crossings that start or end a run by
    // (node, entry, exit slot), and each run by (start node, adapter,
    // hops, dimensions done). Expanding each run once adds its adapter
    // arbitrations by (node, adapter, VC) and the crossings it passes
    // straight through; the settling below expands the crossings
    // through the charge table once. A sampled route is minimal, so a
    // run takes at most k/2 hops.
    const auto nodes = static_cast<std::size_t>(geom_.numNodes());
    const std::size_t keys_per_node = first_.size() - 1;
    std::size_t max_hops = 0;
    for (int d = 0; d < 3; ++d)
        max_hops = std::max(max_hops,
                            static_cast<std::size_t>(geom_.radix(d) / 2));
    constexpr std::size_t kDimsDone = 3;
    auto runIdx = [&](NodeId at, int ca, int hops, int dims_done) {
        return ((static_cast<std::size_t>(at) * nca_
                 + static_cast<std::size_t>(ca))
                    * max_hops
                + static_cast<std::size_t>(hops - 1))
                   * kDimsDone
               + static_cast<std::size_t>(dims_done);
    };
    std::vector<std::uint32_t> crossings(nodes * keys_per_node, 0);
    std::vector<std::uint32_t> runs(nodes * nca_ * max_hops * kDimsDone, 0);
    auto crossing = [&](NodeId at, std::size_t key) -> std::uint32_t & {
        return crossings[static_cast<std::size_t>(at) * keys_per_node + key];
    };
    PacketRoute route;
    for (NodeId n = 0; n < geom_.numNodes(); ++n) {
        for (EndpointId e : cores) {
            for (int s = 0; s < samples_per_core; ++s) {
                const NodeId dst_node = pattern.dest(n, rng);
                if (dst_node >= geom_.numNodes())
                    reject("pattern destination outside the machine");
                const EndpointId dst_ep = cores[rng.below(cores.size())];
                randomRoute(geom_, coords_[n], coords_[dst_node], rng,
                            route);
                walkRuns(
                    { n, e }, { dst_node, dst_ep }, route,
                    [&](NodeId at, std::size_t key) { ++crossing(at, key); },
                    [&](NodeId at, int ca, int hops, int dims_done) {
                        ++runs[runIdx(at, ca, hops, dims_done)];
                    });
            }
        }
    }
    std::vector<std::uint32_t> ingress(nodes * nca_ * nvc_, 0);
    std::vector<std::uint32_t> egress(nodes * nca_ * nvc_, 0);
    for (NodeId n = 0; n < geom_.numNodes(); ++n) {
        for (int ca = 0; ca < static_cast<int>(nca_); ++ca) {
            for (int h = 1; h <= static_cast<int>(max_hops); ++h) {
                for (int dd = 0; dd < static_cast<int>(kDimsDone); ++dd) {
                    const std::uint32_t c = runs[runIdx(n, ca, h, dd)];
                    if (c == 0)
                        continue;
                    expandRun(
                        n, ca, h, dd,
                        [&](NodeId at, int a, int vc) {
                            egress[caIdx(at, a, vc)] += c;
                        },
                        [&](NodeId at, int a, int vc) {
                            ingress[caIdx(at, a, vc)] += c;
                        },
                        [&](NodeId at, std::size_t key) {
                            crossing(at, key) += c;
                        });
                }
            }
        }
    }

    // Charge once. A load still at zero takes entry c of the running sums
    // (0, w, w+w, ...), which is what c additions of w from zero give; a
    // load already charged (an earlier addPattern or tracePacket on this
    // slot) gets its c additions one by one.
    const double w = 1.0 / static_cast<double>(samples_per_core);
    std::vector<double> sums{ 0.0 };
    auto settle = [&](double &load, std::uint32_t c) {
        if (c == 0)
            return;
        if (load != 0.0) {
            for (; c > 0; --c)
                load += w;
            return;
        }
        while (sums.size() <= c)
            sums.push_back(sums.back() + w);
        load = sums[c];
    };
    auto &router = router_[static_cast<std::size_t>(slot)];
    auto &mesh = mesh_[static_cast<std::size_t>(slot)];
    auto &torus = torus_[static_cast<std::size_t>(slot)];
    std::vector<std::uint32_t> node_router(nr_ * np_ * np_);
    std::vector<std::uint32_t> node_mesh(nr_ * kNumMeshDirs);
    for (NodeId n = 0; n < geom_.numNodes(); ++n) {
        std::fill(node_router.begin(), node_router.end(), 0);
        std::fill(node_mesh.begin(), node_mesh.end(), 0);
        const std::uint32_t *counts =
            &crossings[static_cast<std::size_t>(n) * keys_per_node];
        for (std::size_t key = 0; key < keys_per_node; ++key) {
            if (counts[key] != 0)
                chargeChip(key, counts[key], node_router.data(),
                           node_mesh.data());
        }
        const std::size_t router_base = routerIdx(n, 0, 0, 0);
        for (std::size_t i = 0; i < node_router.size(); ++i)
            settle(router[router_base + i], node_router[i]);
        const std::size_t mesh_base = meshIdx(n, 0, MeshDir::UPos);
        for (std::size_t i = 0; i < node_mesh.size(); ++i)
            settle(mesh[mesh_base + i], node_mesh[i]);
        // A torus channel is charged with its adapter's egress, per VC.
        for (int ca = 0; ca < static_cast<int>(nca_); ++ca) {
            std::uint32_t hops = 0;
            for (int vc = 0; vc < static_cast<int>(nvc_); ++vc)
                hops += egress[caIdx(n, ca, vc)];
            settle(torus[torusIdx(n, ca)], hops);
        }
    }
    auto &in_loads = ca_ingress_[static_cast<std::size_t>(slot)];
    auto &eg_loads = ca_egress_[static_cast<std::size_t>(slot)];
    for (std::size_t i = 0; i < ingress.size(); ++i) {
        settle(in_loads[i], ingress[i]);
        settle(eg_loads[i], egress[i]);
    }
}

void
LoadModel::tracePacket(EndpointAddr src, EndpointAddr dst,
                       const PacketRoute &route, double weight, int slot)
{
    checkSlot(slot);
    const NodeId nodes = geom_.numNodes();
    if (src.node >= nodes || dst.node >= nodes || src.ep < 0
        || src.ep >= num_eps_ || dst.ep < 0 || dst.ep >= num_eps_)
        reject("packet address outside the machine");
    if (const char *why = malformedRoute(geom_, src.node, dst.node, route))
        reject(why);
    // Each run is expanded as it is walked. A traced route, minimal or
    // not, enters each node once, so it adds to any load at most once
    // and the order of its additions cannot change a bit.
    auto &router = router_[static_cast<std::size_t>(slot)];
    auto &mesh = mesh_[static_cast<std::size_t>(slot)];
    auto &ca_in = ca_ingress_[static_cast<std::size_t>(slot)];
    auto &ca_eg = ca_egress_[static_cast<std::size_t>(slot)];
    auto &torus = torus_[static_cast<std::size_t>(slot)];
    auto cross = [&](NodeId n, std::size_t key) {
        chargeChip(key, weight, &router[routerIdx(n, 0, 0, 0)],
                   &mesh[meshIdx(n, 0, MeshDir::UPos)]);
    };
    walkRuns(src, dst, route, cross,
             [&](NodeId start, int out_ca, int hops, int dims_done) {
                 expandRun(
                     start, out_ca, hops, dims_done,
                     [&](NodeId n, int ca, int vc) {
                         ca_eg[caIdx(n, ca, vc)] += weight;
                         torus[torusIdx(n, ca)] += weight;
                     },
                     [&](NodeId n, int ca, int vc) {
                         ca_in[caIdx(n, ca, vc)] += weight;
                     },
                     cross);
             });
}

double
LoadModel::routerLoad(NodeId n, RouterId r, int out_port, int in_port,
                      int slot) const
{
    checkSlot(slot);
    return router_[static_cast<std::size_t>(slot)][routerIdx(n, r, out_port,
                                                             in_port)];
}

double
LoadModel::caEgressLoad(NodeId n, int ca, int vc, int slot) const
{
    checkSlot(slot);
    return ca_egress_[static_cast<std::size_t>(slot)][caIdx(n, ca, vc)];
}

double
LoadModel::caIngressLoad(NodeId n, int ca, int vc, int slot) const
{
    checkSlot(slot);
    return ca_ingress_[static_cast<std::size_t>(slot)][caIdx(n, ca, vc)];
}

double
LoadModel::torusLoad(NodeId n, int dim, Dir dir, int slice, int slot) const
{
    checkSlot(slot);
    return torus_[static_cast<std::size_t>(slot)][torusIdx(
        n, ChipLayout::channelAdapterIndex(dim, dir, slice))];
}

double
LoadModel::meshLoad(NodeId n, RouterId from, MeshDir d, int slot) const
{
    checkSlot(slot);
    return mesh_[static_cast<std::size_t>(slot)][meshIdx(n, from, d)];
}

double
LoadModel::maxTorusLoad(int slot) const
{
    checkSlot(slot);
    double mx = 0.0;
    for (double v : torus_[static_cast<std::size_t>(slot)])
        mx = std::max(mx, v);
    return mx;
}

double
LoadModel::maxMeshLoad(int slot) const
{
    checkSlot(slot);
    double mx = 0.0;
    for (double v : mesh_[static_cast<std::size_t>(slot)])
        mx = std::max(mx, v);
    return mx;
}

double
LoadModel::idealCoreThroughput(int slot, int size_flits) const
{
    checkSlot(slot);
    if (size_flits < 1)
        reject("packet size " + std::to_string(size_flits)
               + " is below 1 flit");
    const double torus_cap =
        static_cast<double>(kSerdesTokensPerCycle)
        / static_cast<double>(kSerdesTokensPerFlit)
        / static_cast<double>(size_flits);
    const double mx = maxTorusLoad(slot);
    if (mx <= 0.0)
        return 0.0;
    return torus_cap / mx;
}

void
LoadModel::applyWeights(Machine &machine) const
{
    if (machine.geom().numNodes() != geom_.numNodes()
        || machine.layout().numRouters() != layout_.numRouters()
        || machine.layout().numChannelAdapters()
               != layout_.numChannelAdapters())
        reject("applyWeights on a machine of another shape");
    for (NodeId n = 0; n < geom_.numNodes(); ++n) {
        Chip &chip = machine.chip(n);
        for (RouterId r = 0; r < layout_.numRouters(); ++r) {
            for (int port = 0; port < kRouterPorts; ++port)
                programArbiter(chip.router(r).outputArbiter(port), router_,
                               routerIdx(n, r, port, 0));
        }
        for (int ca = 0; ca < layout_.numChannelAdapters(); ++ca) {
            programArbiter(chip.channelAdapter(ca).egressArbiter(),
                           ca_egress_, caIdx(n, ca, 0));
            programArbiter(chip.channelAdapter(ca).ingressArbiter(),
                           ca_ingress_, caIdx(n, ca, 0));
        }
    }
}

} // namespace anton2
