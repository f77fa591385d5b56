/**
 * @file
 * Figure 12: decomposition of the minimum inter-node message latency
 * (Section 4.3).
 *
 * The paper breaks the ~99 ns nearest-neighbor, software-to-software
 * latency into endpoint software/synchronization, endpoint adapters (E),
 * routers (R, with the four pipeline stages RC/VA/SA1/SA2), torus-channel
 * adapters (C), SerDes/link, and wire time - noting that the network
 * proper accounts for only ~40% of the total.
 *
 * This bench measures the same single-packet traversal in the simulator
 * (instrumented timestamps at injection and ejection, with the component
 * latencies known from the model's configuration) and prints the
 * decomposition next to the measured end-to-end number.
 */
#include <cstdio>

#include "common.hpp"
#include "core/machine.hpp"

using namespace anton2;

int
main(int argc, char **argv)
{
    long k_flag = 4;
    bench::SharedFlags flags;
    bench::OptionRegistry reg(
        "Figure 12: minimum inter-node latency decomposition "
        "(single-packet traversal)");
    // The packet goes from node (0,0,0) to (0,1,0): radix 2 at least.
    reg.add("--k", "N", "torus radix per dimension (default 4)", &k_flag, 2,
            INT_MAX);
    flags.registerInto(reg, bench::kRunSet);
    if (!reg.parse(argc, argv) || !flags.validate())
        return 1;
    const int k = static_cast<int>(k_flag);

    MachineConfig cfg;
    cfg.radix = { k, k, k };
    cfg.chip.endpoints_per_node = 23;
    cfg.use_packaging = true;
    cfg.seed = 33;
    flags.configure(cfg);
    Machine m(cfg);
    // A single-packet traversal makes the smallest useful demo trace:
    // every lifecycle event of Figure 12's E -> R -> C -> link path.
    m.attachInstrumentation(flags.instrumentation(m.geom()));

    // The minimum-latency configuration: source and destination endpoints
    // co-located with the Y-channel routers (endpoint 16 sits on R(0,2)
    // next to the slice-0 Y adapters), a single-dimension +Y route on
    // slice 0. This matches Figure 12's E -> R -> C -> link -> C -> R -> E
    // structure with exactly one router per side.
    const EndpointId ep = [&] {
        for (EndpointId e = 0; e < m.layout().numEndpoints(); ++e) {
            if (m.layout().endpointRouter(e)
                == m.layout().channelRouter(1, Dir::Pos, 0)) {
                return e;
            }
        }
        return EndpointId{ 0 };
    }();
    const NodeId a = m.geom().id({ 0, 0, 0 });
    const NodeId b = m.geom().id({ 0, 1, 0 });

    auto pkt = m.makeWrite({ a, ep }, { b, ep });
    Rng tie(1);
    m.setRoute(*pkt, makeRoute(m.geom(), a, b, DimOrder{ 1, 0, 2 }, 0, tie));
    Cycle network = 0;
    m.setDeliverHook([&network](const PacketPtr &p, Cycle) {
        network = p->eject_time - p->inject_time;
    });
    m.send(pkt);
    if (m.run(RunSpec::untilDelivered(1, 100000)).reason
        != StopReason::Delivered) {
        std::fprintf(stderr, "delivery failed\n");
        flags.writeOutputs(m); // forensic snapshot of the wedge, if asked
        return 1;
    }

    // Model constants (cycles) for the decomposition.
    const Cycle software_src = 44; // send descriptor + doorbell (modeled)
    const Cycle software_dst = 44; // handler dispatch + sync [15]
    const Cycle link = PackagingModel::linkLatency(m.geom(), a, 1, Dir::Pos);

    bench::printHeader(
        "Figure 12: minimum inter-node latency decomposition");
    std::printf("%-44s %10s %10s\n", "component", "cycles", "ns");
    bench::printRule(68);
    auto row = [](const char *name, Cycle c) {
        std::printf("%-44s %10llu %10.1f\n", name,
                    static_cast<unsigned long long>(c), cyclesToNs(c));
    };
    row("software: send + descriptor (modeled)", software_src);
    row("endpoint adapter E inject + wire", 1);
    row("router R: RC / VA / SA1 / SA2", 4);
    row("router switch traversal + wire to C", 1);
    row("channel adapter C egress (register + arb)", 2);
    row("SerDes + wire (Figure 2 packaging)", link);
    row("channel adapter C ingress (route + grant)", 2);
    row("router R: RC / VA / SA1 / SA2 + ST", 5);
    row("endpoint adapter E eject + deliver", 1);
    row("software: handler dispatch (modeled)", software_dst);
    bench::printRule(68);

    const Cycle total = software_src + software_dst + network;
    std::printf("%-44s %10llu %10.1f\n", "measured network traversal",
                static_cast<unsigned long long>(network),
                cyclesToNs(network));
    std::printf("%-44s %10llu %10.1f\n",
                "total software-to-software (min latency)",
                static_cast<unsigned long long>(total), cyclesToNs(total));
    std::printf("\nPaper: ~99 ns minimum; network proper ~40%% of the "
                "total.\nHere: network = %.0f%% of total.\n",
                100.0 * static_cast<double>(network)
                    / static_cast<double>(total));
    flags.writeOutputs(m);
    const std::string body = flags.reportBody(m);
    if (!flags.writeReport("fig12_breakdown",
                           bench::fieldsJson({ { "k", k } }), body, "",
                           m.hostJson()))
        return 1;
    if (m.audit() != nullptr && m.audit()->violationCount() > 0) {
        std::fprintf(stderr, "audit: %llu invariant violations\n",
                     static_cast<unsigned long long>(
                         m.audit()->violationCount()));
    }
    return 0;
}
