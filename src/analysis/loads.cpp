#include "analysis/loads.hpp"

#include <algorithm>
#include <cassert>
#include <functional>

#include "arb/inverse_weighted.hpp"

namespace anton2 {

LoadModel::LoadModel(const TorusGeom &geom, const ChipLayout &layout,
                     const ChipConfig &chip, int num_patterns)
    : geom_(geom),
      layout_(layout),
      chip_(chip),
      num_patterns_(num_patterns),
      nr_(static_cast<std::size_t>(layout.numRouters())),
      np_(static_cast<std::size_t>(kRouterPorts)),
      nca_(static_cast<std::size_t>(layout.numChannelAdapters())),
      nvc_(static_cast<std::size_t>(chip.numVcs()))
{
    const auto nodes = static_cast<std::size_t>(geom.numNodes());
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
}

void
LoadModel::addPattern(int slot, const TrafficPattern &pattern,
                      const std::vector<EndpointId> &cores,
                      int samples_per_core, Rng &rng)
{
    const double w = 1.0 / static_cast<double>(samples_per_core);
    for (NodeId n = 0; n < geom_.numNodes(); ++n) {
        for (EndpointId e : cores) {
            for (int s = 0; s < samples_per_core; ++s) {
                const NodeId dst_node = pattern.dest(n, rng);
                const EndpointId dst_ep = cores[rng.below(cores.size())];
                const RouteSpec spec =
                    randomRoute(geom_, n, dst_node, rng);
                tracePacket({ n, e }, { dst_node, dst_ep }, spec, w, slot);
            }
        }
    }
}

void
LoadModel::tracePacket(EndpointAddr src, EndpointAddr dst,
                       const RouteSpec &spec, double weight, int slot)
{
    auto &router = router_[static_cast<std::size_t>(slot)];
    auto &ca_eg = ca_egress_[static_cast<std::size_t>(slot)];
    auto &ca_in = ca_ingress_[static_cast<std::size_t>(slot)];
    auto &torus = torus_[static_cast<std::size_t>(slot)];
    auto &mesh = mesh_[static_cast<std::size_t>(slot)];

    const TrafficClass tc = TrafficClass::Request;
    const int vcs_per_class = chip_.vcsPerClass();
    auto fullVc = [&](int promo) {
        return fullVcIndex(tc, promo, vcs_per_class);
    };

    VcState vc(chip_.vc_policy);
    NodeId here = src.node;
    AttachPoint entry = AttachPoint::forEndpoint(src.ep);

    for (int guard = 0; guard < 1024; ++guard) {
        const int next = nextRouteDim(geom_, here, dst.node, spec);

        // Ingress bookkeeping (when arriving from a torus link).
        if (entry.kind == AttachPoint::Kind::Channel) {
            const int ca = layout_.channelAdapterIndex(entry.dim, entry.dir,
                                                       entry.slice);
            ca_in[caIdx(here, ca, fullVc(vc.torusVc()))] += weight;
            if (next != entry.dim)
                vc.onDimComplete();
        }

        AttachPoint exit;
        if (next < 0) {
            exit = AttachPoint::forEndpoint(dst.ep);
        } else {
            exit = AttachPoint::forChannel(
                next, spec.dirs[static_cast<std::size_t>(next)],
                spec.slice);
        }

        // Walk the on-chip channels, charging each router output arbiter.
        const auto chans = layout_.route(entry, exit, chip_.dir_order);
        int in_port = -1;
        for (const auto &c : chans) {
            switch (c.kind) {
              case ChipChannel::Kind::EndpointToRouter:
                in_port = layout_.endpointPort(c.to_router, c.adapter);
                break;
              case ChipChannel::Kind::AdapterToRouter:
                in_port = layout_.channelPort(c.to_router, c.adapter);
                break;
              case ChipChannel::Kind::Mesh: {
                  // Determine the mesh direction from the router coords.
                  MeshDir d = MeshDir::UPos;
                  for (MeshDir cand : kMeshDirs) {
                      if (layout_.mesh().canMove(c.from_router, cand)
                          && layout_.mesh().move(c.from_router, cand)
                                 == c.to_router) {
                          d = cand;
                          break;
                      }
                  }
                  router[routerIdx(here, c.from_router,
                                   layout_.meshPort(c.from_router, d),
                                   in_port)] += weight;
                  mesh[meshIdx(here, c.from_router, d)] += weight;
                  in_port = layout_.meshPort(c.to_router, meshOpposite(d));
                  break;
              }
              case ChipChannel::Kind::Skip:
                router[routerIdx(here, c.from_router,
                                 layout_.skipPort(c.from_router), in_port)]
                    += weight;
                in_port = layout_.skipPort(c.to_router);
                break;
              case ChipChannel::Kind::RouterToAdapter:
                router[routerIdx(here, c.from_router,
                                 layout_.channelPort(c.from_router,
                                                     c.adapter),
                                 in_port)] += weight;
                break;
              case ChipChannel::Kind::RouterToEndpoint:
                router[routerIdx(here, c.from_router,
                                 layout_.endpointPort(c.from_router,
                                                      c.adapter),
                                 in_port)] += weight;
                break;
            }
        }

        if (next < 0)
            return; // delivered

        // Torus hop: egress arbitration, channel load, VC promotion.
        const Dir dir = spec.dirs[static_cast<std::size_t>(next)];
        const int ca = layout_.channelAdapterIndex(next, dir, spec.slice);
        ca_eg[caIdx(here, ca, fullVc(vc.torusVc()))] += weight;
        torus[torusIdx(here, next, dir, spec.slice)] += weight;

        const int from = geom_.coord(here, next);
        const int to = geom_.neighborCoord(from, next, dir);
        vc.onTorusHop(geom_.crossesDateline(from, to, next));

        here = geom_.neighbor(here, next, dir);
        entry = AttachPoint::forChannel(next, opposite(dir), spec.slice);
    }
    assert(false && "route failed to terminate");
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
    const int wb = chip_.weight_bits;

    auto program = [&](InverseWeightedArbiter *arb,
                       const std::function<double(int, int)> &load) {
        if (arb == nullptr)
            return;
        const int k = arb->numInputs();
        std::vector<std::vector<double>> mat(static_cast<std::size_t>(k));
        for (int i = 0; i < k; ++i) {
            mat[static_cast<std::size_t>(i)].resize(
                static_cast<std::size_t>(num_patterns_));
            for (int p = 0; p < num_patterns_; ++p)
                mat[static_cast<std::size_t>(i)]
                   [static_cast<std::size_t>(p)] = load(i, p);
        }
        const auto w = inverseWeightsFromLoads(mat, wb);
        for (int i = 0; i < k; ++i) {
            for (int p = 0; p < arb->accumulators().numPatterns(); ++p) {
                const int src = p < num_patterns_ ? p : num_patterns_ - 1;
                arb->accumulators().setWeight(
                    i, p, w[static_cast<std::size_t>(i)]
                           [static_cast<std::size_t>(src)]);
            }
        }
    };

    for (NodeId n = 0; n < geom_.numNodes(); ++n) {
        Chip &chip = machine.chip(n);
        for (RouterId r = 0; r < layout_.numRouters(); ++r) {
            for (int port = 0; port < kRouterPorts; ++port) {
                program(chip.router(r).outputArbiter(port),
                        [&](int i, int p) {
                            return routerLoad(n, r, port, i, p);
                        });
            }
        }
        for (int ca = 0; ca < layout_.numChannelAdapters(); ++ca) {
            program(chip.channelAdapter(ca).egressArbiter(),
                    [&](int i, int p) { return caEgressLoad(n, ca, i, p); });
            program(chip.channelAdapter(ca).ingressArbiter(),
                    [&](int i, int p) {
                        return caIngressLoad(n, ca, i, p);
                    });
        }
    }
}

} // namespace anton2
