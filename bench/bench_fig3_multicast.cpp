/**
 * @file
 * Figure 3 / Section 2.3: inter-node multicast bandwidth savings and the
 * load balance obtained by alternating between trees built with different
 * dimension orders.
 *
 * The paper's example: broadcasting one particle's position to the
 * destination set in a plane of the torus saves 12 torus hops versus
 * unicasts, and alternating between two tree orientations balances the
 * load on the most heavily utilized channels. With multiple endpoints per
 * node the unicast cost multiplies while the multicast cost does not.
 *
 * This bench computes tree/unicast hop counts analytically and then
 * *measures* torus-link flits in the cycle simulator for both transports.
 */
#include <algorithm>
#include <cstdio>
#include <map>

#include "common.hpp"
#include "core/machine.hpp"
#include "routing/multicast.hpp"

using namespace anton2;

namespace {

/** The Figure 3 destination set: the 3x3 plane around the source in Y/Z. */
std::vector<McastDest>
planeDests(const TorusGeom &geom, NodeId src, int eps_per_node)
{
    std::vector<McastDest> dests;
    for (int dy : { -1, 0, 1 }) {
        for (int dz : { -1, 0, 1 }) {
            Coords c = geom.coords(src);
            const int ky = geom.radix(1), kz = geom.radix(2);
            c[1] = (c[1] + dy + ky) % ky;
            c[2] = (c[2] + dz + kz) % kz;
            const NodeId n = geom.id(c);
            if (n == src)
                continue;
            for (int e = 0; e < eps_per_node; ++e)
                dests.push_back({ n, e });
        }
    }
    return dests;
}

/** Max per-channel use across tree edges (channel = (node, dim, dir)). */
int
maxChannelUse(const std::vector<const McastTree *> &trees)
{
    std::map<std::tuple<NodeId, int, int>, int> use;
    for (const auto *t : trees) {
        for (const auto &[node, entry] : t->nodes) {
            for (const auto &hop : entry.forward)
                ++use[{ node, hop.dim, dirIndex(hop.dir) }];
        }
    }
    int mx = 0;
    for (const auto &[k, v] : use)
        mx = std::max(mx, v);
    return mx;
}

} // namespace

int
main(int argc, char **argv)
{
    long k_flag = 8;
    bench::SharedFlags flags;
    bench::OptionRegistry reg(
        "Figure 3: multicast tree vs. unicast torus hops, plus measured "
        "flit savings in the simulator");
    // The 3x3 destination plane needs three distinct nodes per dimension.
    reg.add("--k", "N", "torus radix per dimension (default 8)", &k_flag, 3,
            INT_MAX);
    flags.registerInto(reg, bench::kGroupThreads | bench::kGroupHostProfile
                                | bench::kGroupReport);
    if (!reg.parse(argc, argv) || !flags.validate())
        return 1;
    const int k = static_cast<int>(k_flag);
    const TorusGeom geom(k, k, k);
    const NodeId src = geom.id({ k / 2, k / 2, k / 2 });

    bench::printHeader("Figure 3: multicast vs. unicast torus hops");

    Rng rng(3);
    std::printf("%-22s %12s %12s %10s\n", "endpoints/node", "unicast hops",
                "tree hops", "saved");
    bench::printRule(60);
    for (int eps : { 1, 2, 4 }) {
        const auto dests = planeDests(geom, src, eps);
        const auto tree =
            buildMcastTree(geom, src, dests, DimOrder{ 1, 2, 0 }, 0, rng);
        const int uni = unicastTorusHops(geom, src, dests);
        std::printf("%-22d %12d %12d %10d\n", eps, uni, tree.torusHops(),
                    uni - tree.torusHops());
    }
    bench::printRule(60);
    std::printf("Paper's example (2D plane, multiple endpoints/node): "
                "saves 12 torus hops\nat one endpoint per node; savings "
                "multiply with endpoints per node.\n");

    // --- alternating tree orientations (load balance) -----------------
    const auto dests = planeDests(geom, src, 1);
    const auto tree_a =
        buildMcastTree(geom, src, dests, DimOrder{ 1, 2, 0 }, 0, rng);
    const auto tree_b =
        buildMcastTree(geom, src, dests, DimOrder{ 2, 1, 0 }, 0, rng);
    std::printf("\nAlternating tree orientations (2 packets):\n");
    std::printf("  same tree twice:   max channel load %d\n",
                maxChannelUse({ &tree_a, &tree_a }));
    std::printf("  alternating trees: max channel load %d\n",
                maxChannelUse({ &tree_a, &tree_b }));

    // --- measured in the simulator ------------------------------------
    MachineConfig cfg;
    cfg.radix = { 4, 4, 4 };
    cfg.chip.endpoints_per_node = 4;
    cfg.use_packaging = false;
    cfg.seed = 9;
    flags.configure(cfg);
    Machine m(cfg);
    m.attachInstrumentation(flags.instrumentation(m.geom()));
    const NodeId msrc = m.geom().id({ 2, 2, 2 });
    const auto mdests = planeDests(m.geom(), msrc, 1);

    auto torusFlits = [&] {
        std::uint64_t total = 0;
        for (NodeId n = 0; n < m.geom().numNodes(); ++n) {
            for (int ca = 0; ca < m.layout().numChannelAdapters(); ++ca)
                total += m.chip(n).channelAdapter(ca).flitsSent();
        }
        return total;
    };

    Rng trng(4);
    const auto tree =
        buildMcastTree(m.geom(), msrc, mdests, DimOrder{ 1, 2, 0 }, 0,
                       trng);
    const auto group = m.installTree(tree);
    const auto before = torusFlits();
    m.sendMulticast({ msrc, 0 }, group);
    m.run(RunSpec::untilDelivered(mdests.size(), 100000));
    const auto mcast_flits = torusFlits() - before;

    for (const auto &[node, ep] : mdests)
        m.send(m.makeWrite({ msrc, 0 }, { node, ep }));
    m.run(RunSpec::untilDelivered(2 * mdests.size(), 100000));
    const auto unicast_flits = torusFlits() - before - mcast_flits;

    std::printf("\nMeasured in the cycle simulator (4x4x4, one plane):\n");
    std::printf("  multicast torus flits: %llu\n",
                static_cast<unsigned long long>(mcast_flits));
    std::printf("  unicast torus flits:   %llu\n",
                static_cast<unsigned long long>(unicast_flits));
    flags.writeOutputs(m);
    const std::string body = flags.reportBody(m);
    return flags.writeReport("fig3_multicast",
                             bench::fieldsJson({ { "k", k } }), body, "",
                             m.hostJson())
               ? 0
               : 1;
}
