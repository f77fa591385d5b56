#include "analysis/loads.hpp"

#include <algorithm>
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
               std::size_t base, int weight_bits)
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
            acc.setWeight(i, p, inverseWeight(g, min_load, weight_bits));
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
    coords_.resize(3 * nodes);
    for (std::size_t n = 0; n < nodes; ++n)
        for (int d = 0; d < 3; ++d)
            coords_[3 * n + static_cast<std::size_t>(d)] =
                geom.coord(static_cast<NodeId>(n), d);

    router_.assign(static_cast<std::size_t>(num_patterns),
                   std::vector<double>(nodes * nr_ * np_ * np_, 0.0));
    ca_egress_.assign(static_cast<std::size_t>(num_patterns),
                      std::vector<double>(nodes * nca_ * nvc_, 0.0));
    ca_ingress_.assign(static_cast<std::size_t>(num_patterns),
                       std::vector<double>(nodes * nca_ * nvc_, 0.0));
    torus_.assign(static_cast<std::size_t>(num_patterns),
                  std::vector<double>(nodes * 3 * 2 * kNumSlices, 0.0));
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
    const double w = 1.0 / static_cast<double>(samples_per_core);
    RouteSpec spec;
    for (NodeId n = 0; n < geom_.numNodes(); ++n) {
        for (EndpointId e : cores) {
            for (int s = 0; s < samples_per_core; ++s) {
                const NodeId dst_node = pattern.dest(n, rng);
                if (dst_node >= geom_.numNodes())
                    reject("pattern destination outside the machine");
                const EndpointId dst_ep = cores[rng.below(cores.size())];
                randomRoute(geom_, n, dst_node, rng, spec);
                trace({ n, e }, { dst_node, dst_ep }, spec, w, slot);
            }
        }
    }
}

void
LoadModel::tracePacket(EndpointAddr src, EndpointAddr dst,
                       const RouteSpec &spec, double weight, int slot)
{
    checkSlot(slot);
    const NodeId nodes = geom_.numNodes();
    if (src.node >= nodes || dst.node >= nodes || src.ep < 0
        || src.ep >= num_eps_ || dst.ep < 0 || dst.ep >= num_eps_)
        reject("packet address outside the machine");
    if (const char *why = malformedRoute(spec))
        reject(why);
    trace(src, dst, spec, weight, slot);
}

void
LoadModel::trace(EndpointAddr src, EndpointAddr dst, const RouteSpec &spec,
                 double weight, int slot)
{
    auto &router = router_[static_cast<std::size_t>(slot)];
    auto &ca_eg = ca_egress_[static_cast<std::size_t>(slot)];
    auto &ca_in = ca_ingress_[static_cast<std::size_t>(slot)];
    auto &torus = torus_[static_cast<std::size_t>(slot)];
    auto &mesh = mesh_[static_cast<std::size_t>(slot)];

    const int vcs_per_class = chip_.vcsPerClass();
    auto fullVc = [&](int promo) {
        return fullVcIndex(TrafficClass::Request, promo, vcs_per_class);
    };
    const int num_cas = static_cast<int>(nca_);

    // Dimension by dimension, one chip crossing per torus hop. A chip is
    // entered from an endpoint (entry_dim -1) or from the channel adapter
    // a torus hop arrived on, and left toward the next hop's adapter or
    // the destination endpoint.
    VcState vc(chip_.vc_policy);
    NodeId here = src.node;
    int entry = src.ep;
    int entry_dim = -1;
    for (int d : spec.order) {
        const auto dd = static_cast<std::size_t>(d);
        const Dir dir = spec.dirs[dd];
        const int k = geom_.radix(d);
        // Earlier dimensions have not moved this coordinate.
        int c = coords_[3 * static_cast<std::size_t>(src.node) + dd];
        const int to = coords_[3 * static_cast<std::size_t>(dst.node) + dd];
        int hops = dir == Dir::Pos ? to - c : c - to;
        if (hops < 0)
            hops += k;
        const int out_ca = ChipLayout::channelAdapterIndex(d, dir, spec.slice);
        const int in_ca =
            ChipLayout::channelAdapterIndex(d, opposite(dir), spec.slice);
        for (; hops > 0; --hops) {
            if (entry_dim >= 0) {
                ca_in[caIdx(here, entry - num_eps_, fullVc(vc.torusVc()))] +=
                    weight;
                if (entry_dim != d)
                    vc.onDimComplete();
            }
            // Continuing along X crosses the chip on the skip channel.
            const bool x_through = entry_dim == d && d == 0;
            chargeChip(here, entry,
                       num_eps_ + (x_through ? num_cas : 0) + out_ca, weight,
                       router, mesh);

            // Torus hop: egress arbitration, channel load, VC promotion.
            ca_eg[caIdx(here, out_ca, fullVc(vc.torusVc()))] += weight;
            torus[torusIdx(here, d, dir, spec.slice)] += weight;
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
            entry = num_eps_ + in_ca;
            entry_dim = d;
        }
    }
    if (entry_dim >= 0)
        ca_in[caIdx(here, entry - num_eps_, fullVc(vc.torusVc()))] += weight;
    chargeChip(here, entry, dst.ep, weight, router, mesh);
}

void
LoadModel::chargeChip(NodeId n, int entry, int exit_slot, double w,
                      std::vector<double> &router,
                      std::vector<double> &mesh) const
{
    const std::size_t router_base = routerIdx(n, 0, 0, 0);
    const std::size_t mesh_base = meshIdx(n, 0, MeshDir::UPos);
    const auto i = static_cast<std::size_t>(entry * num_slots_ + exit_slot);
    for (std::uint32_t c = first_[i]; c < first_[i + 1]; ++c) {
        const Charge &ch = charges_[c];
        router[router_base + ch.router] += w;
        if (ch.mesh >= 0)
            mesh[mesh_base + static_cast<std::size_t>(ch.mesh)] += w;
    }
}

double
LoadModel::routerLoad(NodeId n, RouterId r, int out_port, int in_port,
                      int slot) const
{
    return router_[static_cast<std::size_t>(slot)][routerIdx(n, r, out_port,
                                                             in_port)];
}

double
LoadModel::caEgressLoad(NodeId n, int ca, int vc, int slot) const
{
    return ca_egress_[static_cast<std::size_t>(slot)][caIdx(n, ca, vc)];
}

double
LoadModel::caIngressLoad(NodeId n, int ca, int vc, int slot) const
{
    return ca_ingress_[static_cast<std::size_t>(slot)][caIdx(n, ca, vc)];
}

double
LoadModel::torusLoad(NodeId n, int dim, Dir dir, int slice, int slot) const
{
    return torus_[static_cast<std::size_t>(slot)][torusIdx(n, dim, dir,
                                                           slice)];
}

double
LoadModel::meshLoad(NodeId n, RouterId from, MeshDir d, int slot) const
{
    return mesh_[static_cast<std::size_t>(slot)][meshIdx(n, from, d)];
}

double
LoadModel::maxTorusLoad(int slot) const
{
    double mx = 0.0;
    for (double v : torus_[static_cast<std::size_t>(slot)])
        mx = std::max(mx, v);
    return mx;
}

double
LoadModel::maxMeshLoad(int slot) const
{
    double mx = 0.0;
    for (double v : mesh_[static_cast<std::size_t>(slot)])
        mx = std::max(mx, v);
    return mx;
}

double
LoadModel::idealCoreThroughput(int slot, int size_flits) const
{
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
    const int wb = chip_.weight_bits;
    for (NodeId n = 0; n < geom_.numNodes(); ++n) {
        Chip &chip = machine.chip(n);
        for (RouterId r = 0; r < layout_.numRouters(); ++r) {
            for (int port = 0; port < kRouterPorts; ++port)
                programArbiter(chip.router(r).outputArbiter(port), router_,
                               routerIdx(n, r, port, 0), wb);
        }
        for (int ca = 0; ca < layout_.numChannelAdapters(); ++ca) {
            programArbiter(chip.channelAdapter(ca).egressArbiter(),
                           ca_egress_, caIdx(n, ca, 0), wb);
            programArbiter(chip.channelAdapter(ca).ingressArbiter(),
                           ca_ingress_, caIdx(n, ca, 0), wb);
        }
    }
}

} // namespace anton2
