/**
 * @file
 * Runtime auditor suite: clean invariant audits on healthy seeded runs,
 * seeded-fault negative controls that must wedge the machine and trip the
 * watchdog with the culpable resources named, forensic snapshots, and the
 * static checker's DOT export.
 */
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "analysis/deadlock.hpp"
#include "core/machine.hpp"
#include "debug/snapshot.hpp"
#include "routing/multicast.hpp"
#include "routing/route.hpp"
#include "sim/rng.hpp"
#include "sim/timeseries.hpp"

namespace anton2 {
namespace {

MachineConfig
auditConfig(VcPolicy policy = VcPolicy::Anton2)
{
    MachineConfig cfg;
    cfg.radix = { 4, 2, 2 };
    cfg.chip.endpoints_per_node = 4;
    cfg.chip.vc_policy = policy;
    cfg.use_packaging = false;
    cfg.fixed_torus_latency = 12;
    cfg.seed = 7;
    return cfg;
}

AuditConfig
fastAudit(Cycle stall_threshold = 100000)
{
    AuditConfig acfg;
    acfg.audit_interval = 32;
    acfg.watchdog_interval = 16;
    acfg.stall_threshold = stall_threshold;
    return acfg;
}

/** Attach an auditor through the unified bundle (the only attach path)
 * and hand back the bound instance. */
Auditor &
attachAudit(Machine &m, const AuditConfig &acfg)
{
    Instrumentation inst;
    inst.audit = acfg;
    m.attachInstrumentation(inst);
    return *m.audit();
}

/** Seeded random unicast load shared by the clean-audit tests. */
std::uint64_t
driveSeededTraffic(Machine &m, std::uint64_t seed, std::uint64_t count)
{
    Rng traffic(seed * 2654435761ULL + 1);
    const auto nodes = static_cast<std::uint64_t>(m.geom().numNodes());
    std::uint64_t sent = 0;
    for (std::uint64_t i = 0; i < count; ++i) {
        const EndpointAddr src{ static_cast<NodeId>(traffic.below(nodes)),
                                static_cast<int>(traffic.below(4)) };
        const EndpointAddr dst{ static_cast<NodeId>(traffic.below(nodes)),
                                static_cast<int>(traffic.below(4)) };
        if (src.node == dst.node)
            continue;
        const int size = 1 + static_cast<int>(traffic.below(2));
        m.send(m.makeWrite(src, dst, 0, size));
        ++sent;
    }
    return sent;
}

TEST(Audit, CleanOnSeededUniformTraffic)
{
    Machine m(auditConfig());
    Auditor &a = attachAudit(m, fastAudit());
    const auto sent = driveSeededTraffic(m, 71, 200);
    ASSERT_TRUE(m.run(RunSpec::untilDelivered(sent, 500000)).reason == StopReason::Delivered);
    a.runChecksNow(m.now());
    EXPECT_GT(a.auditsRun(), 2u);
    EXPECT_EQ(a.violationCount(), 0u)
        << (a.violations().empty() ? "" : a.violations().front().detail);
    EXPECT_FALSE(a.tripped());
}

TEST(Audit, CleanWhenAuditingEveryCycleOfALookaheadWindow)
{
    // An audit every cycle needs no barrier alignment, so inside a
    // lookahead window it runs while the shards have ticked ahead. The
    // endpoints count a delivery when its side effects run, as the
    // machine does, so the delivery tally agrees on every cycle.
    MachineConfig cfg = auditConfig();
    cfg.lookahead = 0; // auto: the minimum torus link latency, 12
    Machine m(cfg);
    AuditConfig acfg = fastAudit();
    acfg.audit_interval = 1;
    Auditor &a = attachAudit(m, acfg);
    ASSERT_GT(m.engine().window(), 1u);
    const auto sent = driveSeededTraffic(m, 74, 200);
    ASSERT_EQ(m.run(RunSpec::untilDelivered(sent, 500000)).reason,
              StopReason::Delivered);
    EXPECT_GT(a.auditsRun(), 100u);
    EXPECT_EQ(a.violationCount(), 0u)
        << (a.violations().empty() ? "" : a.violations().front().detail);
}

TEST(Audit, CleanOnBaseline2nPolicy)
{
    Machine m(auditConfig(VcPolicy::Baseline2n));
    Auditor &a = attachAudit(m, fastAudit());
    const auto sent = driveSeededTraffic(m, 72, 200);
    ASSERT_TRUE(m.run(RunSpec::untilDelivered(sent, 500000)).reason == StopReason::Delivered);
    a.runChecksNow(m.now());
    EXPECT_EQ(a.violationCount(), 0u)
        << (a.violations().empty() ? "" : a.violations().front().detail);
    EXPECT_FALSE(a.tripped());
}

TEST(Audit, CleanWithMulticastInFlight)
{
    // Multicast expansion clones flits, which the global conservation sum
    // cannot track; the audit must skip that term (not report noise) while
    // copies are in flight, and still come up clean after they drain.
    Machine m(auditConfig());
    Auditor &a = attachAudit(m, fastAudit());

    const NodeId src = m.geom().id({ 1, 0, 0 });
    std::vector<McastDest> dests;
    for (int dx : { 1, 2, 3 }) {
        Coords c = m.geom().coords(src);
        c[0] = (c[0] + dx) % 4;
        dests.push_back({ m.geom().id(c), 2 });
    }
    Rng tie(9);
    const auto tree = buildMcastTree(m.geom(), src, dests,
                                     DimOrder{ 0, 1, 2 }, 0, tie);
    const auto group = m.installTree(tree);
    m.sendMulticast({ src, 0 }, group);
    ASSERT_TRUE(m.run(RunSpec::untilDelivered(dests.size(), 50000)).reason == StopReason::Delivered);
    a.runChecksNow(m.now());
    EXPECT_EQ(a.violationCount(), 0u)
        << (a.violations().empty() ? "" : a.violations().front().detail);
}

TEST(Audit, MaxAgeGaugesPublishedWithoutAuditor)
{
    // The packet-age watermark is plain telemetry: it must appear in the
    // metrics export even when no auditor was ever constructed.
    Machine m(auditConfig());
    Instrumentation inst;
    inst.metrics = true;
    m.attachInstrumentation(inst);
    ASSERT_EQ(m.audit(), nullptr);
    m.send(m.makeWrite({ 0, 0 }, { m.geom().id({ 2, 1, 1 }), 1 }));
    ASSERT_TRUE(m.run(RunSpec::untilDelivered(1, 50000)).reason == StopReason::Delivered);
    const std::string json = m.metricsJson();
    // Dotted gauge paths serialize as a nested tree.
    EXPECT_NE(json.find("\"max_age\""), std::string::npos);
    EXPECT_NE(json.find("\"oldest_age\""), std::string::npos);
    EXPECT_EQ(json.find("\"audit\""), std::string::npos);
}

TEST(Audit, GaugesPublishedWhenBound)
{
    Machine m(auditConfig());
    Instrumentation inst;
    inst.metrics = true;
    m.attachInstrumentation(inst);
    attachAudit(m, fastAudit());
    const auto sent = driveSeededTraffic(m, 73, 40);
    ASSERT_TRUE(m.run(RunSpec::untilDelivered(sent, 100000)).reason == StopReason::Delivered);
    const std::string json = m.metricsJson();
    EXPECT_NE(json.find("\"audit\""), std::string::npos);
    EXPECT_NE(json.find("\"audits\""), std::string::npos);
    EXPECT_NE(json.find("\"violations\""), std::string::npos);
    EXPECT_NE(json.find("\"watchdog_trips\""), std::string::npos);
}

/** Route @p count forced X+ slice-0 packets from @p src to @p dst,
 * which differ only in X. */
std::uint64_t
sendForcedXPlus(Machine &m, NodeId src, NodeId dst, int count)
{
    const PacketRoute route(m.geom(), src, dst, DimOrder{ 0, 1, 2 },
                            { Dir::Pos, Dir::Pos, Dir::Pos }, 0);
    std::uint64_t sent = 0;
    for (int i = 0; i < count; ++i) {
        auto pkt = m.makeWrite({ src, i % 4 }, { dst, 1 }, 0, 2);
        m.setRoute(*pkt, route);
        m.send(pkt);
        ++sent;
    }
    return sent;
}

TEST(Audit, WithholdCreditTripsWatchdogAndNamesLink)
{
    // Negative control 1: node 0's +X slice-0 egress silently discards
    // every returned credit. The first few packets ride the initial
    // credit pool; after that the link is starved forever and the machine
    // wedges with packets in flight.
    Machine m(auditConfig());
    NetworkFault fault;
    fault.kind = NetworkFault::Kind::WithholdTorusCredits;
    fault.node = 0;
    Instrumentation inst;
    inst.faults.push_back(fault);
    m.attachInstrumentation(inst);
    Auditor &a = attachAudit(m, fastAudit(/*stall_threshold=*/300));

    const NodeId dst = m.geom().id({ 2, 0, 0 });
    const auto sent = sendForcedXPlus(m, 0, dst, 40);
    EXPECT_FALSE(m.run(RunSpec::untilDelivered(sent, 100000)).reason == StopReason::Delivered);

    ASSERT_TRUE(a.tripped());
    const MachineSnapshot *snap = a.tripSnapshot();
    ASSERT_NE(snap, nullptr);
    EXPECT_EQ(snap->reason, "watchdog");
    // Lost credits starve a terminal resource; nothing cyclic is waiting.
    EXPECT_EQ(snap->verdict, "livelock");
    EXPECT_FALSE(snap->waits_for.empty());
    ASSERT_FALSE(snap->culprits.empty());
    bool named = false;
    for (const auto &c : snap->culprits)
        named = named || c.rfind("link(n0,X+", 0) == 0;
    EXPECT_TRUE(named) << "culprits: " << snap->culprits.front();

    // The credit-conservation audit must independently flag the leak.
    a.runChecksNow(m.now());
    bool credit_violation = false;
    for (const auto &v : a.violations())
        credit_violation = credit_violation
                           || (v.check == "credit_conservation"
                               && v.detail.rfind("link(n0,X+", 0) == 0);
    EXPECT_TRUE(credit_violation);
}

TEST(Audit, NoPromotionDeadlocksRingWithDeadlockVerdict)
{
    // Negative control 2: the dateline node's +X egress "forgets" to
    // promote the VC, so heavy +X ring traffic builds the classic cyclic
    // buffer dependency the dateline exists to break. The watchdog must
    // classify the wedge as a true deadlock and return the cycle.
    //
    // A long ring with half-way routes makes the wedge deterministic:
    // with 4 of 8 hops per packet, three quarters of every ingress
    // buffer's residents still want the next +X link, so once the ring
    // fills no ejecting head can drain it.
    MachineConfig cfg = auditConfig();
    cfg.radix = { 8, 2, 2 };
    Machine m(cfg);
    NetworkFault fault;
    fault.kind = NetworkFault::Kind::NoDatelinePromotion;
    fault.node = m.geom().id({ 7, 0, 0 }); // dateline between x=7 and x=0
    Instrumentation inst;
    inst.faults.push_back(fault);
    m.attachInstrumentation(inst);
    Auditor &a = attachAudit(m, fastAudit(/*stall_threshold=*/500));

    std::uint64_t sent = 0;
    for (int x = 0; x < 8; ++x) {
        const NodeId src = m.geom().id({ x, 0, 0 });
        const NodeId dst = m.geom().id({ (x + 4) % 8, 0, 0 });
        sent += sendForcedXPlus(m, src, dst, 16);
    }
    EXPECT_FALSE(m.run(RunSpec::untilDelivered(sent, 200000)).reason == StopReason::Delivered);

    ASSERT_TRUE(a.tripped());
    const MachineSnapshot *snap = a.tripSnapshot();
    ASSERT_NE(snap, nullptr);
    EXPECT_EQ(snap->verdict, "deadlock");
    EXPECT_FALSE(snap->cycle.empty());
    // The cycle must run over +X torus links (the faulted ring).
    bool on_ring = false;
    for (const auto &r : snap->cycle)
        on_ring = on_ring || r.find(",X+,") != std::string::npos
                  || r.find(",X+)") != std::string::npos;
    EXPECT_TRUE(on_ring) << "cycle head: " << snap->cycle.front();
    EXPECT_EQ(snap->culprits, snap->cycle);

    // Control: the identical load on an unfaulted machine delivers - the
    // dateline promotion, not luck, is what breaks the cycle.
    Machine healthy(cfg);
    std::uint64_t sent2 = 0;
    for (int x = 0; x < 8; ++x) {
        const NodeId src = healthy.geom().id({ x, 0, 0 });
        const NodeId dst = healthy.geom().id({ (x + 4) % 8, 0, 0 });
        sent2 += sendForcedXPlus(healthy, src, dst, 16);
    }
    EXPECT_TRUE(healthy.run(RunSpec::untilDelivered(sent2, 200000)).reason == StopReason::Delivered);
}

TEST(Audit, OnDemandSnapshotOfHealthyMachine)
{
    Machine m(auditConfig());
    const auto sent = driveSeededTraffic(m, 74, 60);
    m.run(RunSpec::forCycles(40)); // mid-flight: some packets buffered
    const MachineSnapshot snap = m.dumpSnapshot();
    EXPECT_EQ(snap.reason, "on_demand");
    EXPECT_EQ(snap.now, m.now());
    EXPECT_FALSE(snap.packets.empty());
    EXPECT_FALSE(snap.buffers.empty());
    const std::string json = snapshotJson(snap);
    EXPECT_NE(json.find("\"reason\": \"on_demand\""), std::string::npos);
    EXPECT_NE(json.find("\"packets\": ["), std::string::npos);
    ASSERT_TRUE(m.run(RunSpec::untilDelivered(sent, 500000)).reason == StopReason::Delivered);
    // Drained: a second snapshot holds no packets and an empty waits-for.
    const MachineSnapshot done = m.dumpSnapshot("drained");
    EXPECT_TRUE(done.packets.empty());
    EXPECT_TRUE(done.waits_for.empty());
    EXPECT_EQ(done.delivered, sent);
}

TEST(Audit, SnapshotBufferOccupancyIsConsistent)
{
    Machine m(auditConfig());
    driveSeededTraffic(m, 75, 80);
    m.run(RunSpec::forCycles(30));
    const MachineSnapshot snap = m.dumpSnapshot();
    // Flits recorded per buffer must both respect capacity and agree with
    // the per-packet residency rows. A cutting-through packet can hold a
    // buffer with zero flits resident (every arrived flit already sent,
    // tail still upstream), so zero occupancy is legal - negative or
    // over-capacity is not.
    int buffer_flits = 0;
    for (const auto &b : snap.buffers) {
        EXPECT_GE(b.occupancy, 0) << b.resource;
        EXPECT_LE(b.occupancy, b.capacity) << b.resource;
        EXPECT_GT(b.packets, 0) << b.resource;
        buffer_flits += b.occupancy;
    }
    int packet_flits = 0;
    for (const auto &p : snap.packets) {
        EXPECT_GE(p.flits_here, 0) << p.position;
        EXPECT_LE(p.flits_here, p.size_flits) << p.position;
        packet_flits += p.flits_here;
    }
    EXPECT_FALSE(snap.packets.empty());
    EXPECT_EQ(buffer_flits, packet_flits);
}

TEST(Audit, EveryReaderSeesTheSameBuffers)
{
    // The snapshot, the flit census and the time series' chip occupancy
    // read one walk over each chip's buffers: at a cycle that ends a
    // sampling window, with unicast and multicast packets in flight,
    // all three must agree chip by chip.
    MachineConfig cfg = auditConfig();
    cfg.radix = { 4, 4, 4 };
    Machine m(cfg);
    Instrumentation inst;
    TimeseriesConfig scfg;
    scfg.window = 16;
    inst.timeseries = scfg;
    m.attachInstrumentation(inst);

    driveSeededTraffic(m, 76, 400);
    Rng tie(11);
    for (int x = 0; x < 4; ++x) {
        const NodeId src = m.geom().id({ x, x % 2, 1 });
        std::vector<McastDest> dests;
        for (int d = 1; d < 4; ++d)
            dests.push_back({ m.geom().id({ (x + d) % 4, 2, d }), 3 });
        const auto group = m.installTree(
            buildMcastTree(m.geom(), src, dests, DimOrder{ 0, 1, 2 }, 0, tie));
        m.sendMulticast({ src, 1 }, group);
    }
    m.run(RunSpec::forCycles(3 * scfg.window + 1));

    const IntervalSampler &s = *m.timeseries();
    ASSERT_GT(s.numWindows(), 0u);
    const std::size_t w = s.numWindows() - 1;
    ASSERT_EQ(s.windowEnd(w), m.now() - 1); // sampled after the last tick

    std::uint64_t total = 0;
    bool multicast = false;
    for (NodeId n = 0; n < m.geom().numNodes(); ++n) {
        const Chip &chip = m.chip(n);
        MachineSnapshot snap;
        chip.collectSnapshot(m.now(), snap);
        std::uint64_t snapshot_flits = 0;
        for (const auto &b : snap.buffers)
            snapshot_flits += static_cast<std::uint64_t>(b.occupancy);
        const Chip::FlitCensus census = chip.flitCensus();
        const double sampled = s.value(
            s.findSeries("chip." + std::to_string(n) + ".occupancy_flits"),
            w);
        EXPECT_EQ(census.buffered, snapshot_flits) << "chip " << n;
        EXPECT_EQ(static_cast<double>(census.buffered), sampled)
            << "chip " << n;
        total += census.buffered;
        multicast = multicast || census.multicast;
    }
    EXPECT_GT(total, 0u);
    EXPECT_TRUE(multicast) << "no multicast packet in flight";
}

TEST(DeadlockDot, NoDatelineCycleRenderedAndHighlighted)
{
    const TorusGeom geom(4, 1, 1);
    const auto report = checkTorusLevel(geom, VcPolicy::NoDateline,
                                        /*capture_graph=*/true);
    ASSERT_FALSE(report.acyclic);
    ASSERT_FALSE(report.graph_edges.empty());
    const std::string dot = deadlockDot(report);
    EXPECT_EQ(dot.rfind("digraph dependencies {", 0), 0u);
    EXPECT_NE(dot.find("color=red"), std::string::npos);
    // Every cycle resource must appear in the rendered graph.
    for (const auto &r : report.cycle)
        EXPECT_NE(dot.find("\"" + r + "\""), std::string::npos) << r;
}

TEST(DeadlockDot, GraphCaptureIsOptIn)
{
    const TorusGeom geom(4, 1, 1);
    EXPECT_TRUE(checkTorusLevel(geom, VcPolicy::Anton2)
                    .graph_edges.empty());
    EXPECT_FALSE(checkTorusLevel(geom, VcPolicy::Anton2, true)
                     .graph_edges.empty());
}

TEST(DeadlockDot, StaticChipGraphSharesRuntimeLinkNames)
{
    // Satellite contract: the static chip-level dependency graph and the
    // runtime waits-for snapshots name torus links identically, so the
    // two DOT files diff cleanly for one configuration.
    const MachineConfig cfg = auditConfig();
    const TorusGeom geom(cfg.radix);
    const ChipLayout layout(cfg.chip.endpoints_per_node, geom.ndims());
    const auto report = checkChipLevel(geom, layout,
                                       cfg.chip.vc_policy,
                                       anton2DirOrder(), { 0 },
                                       /*capture_graph=*/true);
    ASSERT_TRUE(report.acyclic);
    std::set<std::string> nodes;
    for (const auto &[from, to] : report.graph_edges) {
        nodes.insert(from);
        nodes.insert(to);
    }
    EXPECT_TRUE(nodes.count(linkResName(0, 'X', "+", 0, 0, false)))
        << "static graph lacks the runtime name for link(n0,X+,v0)";
    EXPECT_TRUE(nodes.count(linkResName(1, 'Y', "-", 0, 1, false)));
}

} // namespace
} // namespace anton2
