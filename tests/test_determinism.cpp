/**
 * @file
 * Determinism regression suite: a seeded machine run must produce a
 * byte-identical metrics JSON snapshot every time, and a different seed
 * must produce a different one. This locks in the simulator's
 * bit-reproducibility guarantee end to end - traffic generation, routing
 * randomization, arbitration, and the telemetry serializer itself.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/machine.hpp"
#include "debug/checkpoint.hpp"
#include "debug/snapshot.hpp"
#include "routing/multicast.hpp"
#include "routing/route.hpp"
#include "sim/rng.hpp"

namespace anton2 {
namespace {

constexpr std::uint64_t kPackets = 160;

/** Build a small machine, drive seeded random traffic, snapshot metrics. */
std::string
runAndSnapshot(std::uint64_t seed)
{
    MachineConfig cfg;
    cfg.radix = { 2, 2, 2 };
    cfg.chip.endpoints_per_node = 4;
    cfg.use_packaging = false;
    cfg.fixed_torus_latency = 12;
    cfg.seed = seed;
    Machine m(cfg);
    Instrumentation inst;
    inst.metrics = true;
    m.attachInstrumentation(inst);

    // Destinations and sizes come from a generator derived from the same
    // seed, so the full workload - not just the routing tie-breaks - is a
    // function of the seed.
    Rng traffic(seed * 1315423911ULL + 1);
    const auto nodes = static_cast<std::uint64_t>(m.geom().numNodes());
    std::uint64_t sent = 0;
    for (std::uint64_t i = 0; i < kPackets; ++i) {
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
    EXPECT_TRUE(m.run(RunSpec::untilDelivered(sent, 500000)).reason == StopReason::Delivered);
    EXPECT_EQ(m.totalDelivered(), sent);

    // Registry aggregates must agree with the machine's own accounting.
    const Counter *delivered =
        m.metrics()->findCounter("machine.delivered");
    EXPECT_NE(delivered, nullptr);
    if (delivered != nullptr) {
        EXPECT_EQ(delivered->value(), sent);
    }

    return m.metricsJson();
}

TEST(Determinism, SameSeedProducesByteIdenticalMetricsJson)
{
    const std::string a = runAndSnapshot(71);
    const std::string b = runAndSnapshot(71);
    EXPECT_FALSE(a.empty());
    EXPECT_EQ(a, b) << "same-seed runs must serialize identically";

    // Spot-check that the snapshot actually carries the telemetry tree
    // (a trivially empty report would also compare equal).
    EXPECT_NE(a.find("\"machine\""), std::string::npos);
    EXPECT_NE(a.find("\"latency\""), std::string::npos);
    EXPECT_NE(a.find("\"router\""), std::string::npos);
    EXPECT_NE(a.find("\"ca\""), std::string::npos);
    EXPECT_NE(a.find("\"retransmissions\""), std::string::npos);
}

TEST(Determinism, DifferentSeedProducesDifferentMetricsJson)
{
    EXPECT_NE(runAndSnapshot(71), runAndSnapshot(72));
}

/** Like runAndSnapshot, but with the windowed sampler bound; returns the
 * time-series JSON and heatmap CSV concatenated for one comparison. */
std::string
runAndSnapshotTimeseries(std::uint64_t seed)
{
    MachineConfig cfg;
    cfg.radix = { 2, 2, 2 };
    cfg.chip.endpoints_per_node = 4;
    cfg.use_packaging = false;
    cfg.fixed_torus_latency = 12;
    cfg.seed = seed;
    Machine m(cfg);
    TimeseriesConfig tcfg;
    tcfg.window = 64;
    Instrumentation inst;
    inst.metrics = true;
    inst.timeseries = tcfg;
    m.attachInstrumentation(inst);

    Rng traffic(seed * 1315423911ULL + 1);
    const auto nodes = static_cast<std::uint64_t>(m.geom().numNodes());
    std::uint64_t sent = 0;
    for (std::uint64_t i = 0; i < kPackets; ++i) {
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
    EXPECT_TRUE(m.run(RunSpec::untilDelivered(sent, 500000)).reason == StopReason::Delivered);
    return m.timeseriesJson() + "\n---\n" + m.heatmapCsv();
}

TEST(Determinism, SameSeedProducesByteIdenticalTimeseriesExports)
{
    const std::string a = runAndSnapshotTimeseries(71);
    const std::string b = runAndSnapshotTimeseries(71);
    EXPECT_FALSE(a.empty());
    EXPECT_EQ(a, b)
        << "same-seed time-series exports must serialize identically";

    // The exports must actually carry windows and heatmap rows.
    EXPECT_NE(a.find("\"window_cycles\": 64"), std::string::npos);
    EXPECT_NE(a.find("\"machine.delivered\""), std::string::npos);
    EXPECT_NE(a.find("window,start_cycle,end_cycle,chip,u,v,port,flits,"
                     "utilization"),
              std::string::npos);
}

TEST(Determinism, DifferentSeedProducesDifferentTimeseriesExports)
{
    EXPECT_NE(runAndSnapshotTimeseries(71), runAndSnapshotTimeseries(72));
}

/**
 * Wedge a seeded machine with the withhold-credit fault and return the
 * forensic trip snapshot's JSON and DOT exports concatenated. The faulted
 * link chokes randomized traffic, so the trip state - buffers, packets,
 * waits-for edges - is a function of the seed alone.
 */
std::string
runFaultedSnapshot(std::uint64_t seed)
{
    MachineConfig cfg;
    cfg.radix = { 4, 2, 2 };
    cfg.chip.endpoints_per_node = 4;
    cfg.use_packaging = false;
    cfg.fixed_torus_latency = 12;
    cfg.seed = seed;
    Machine m(cfg);
    NetworkFault fault;
    fault.kind = NetworkFault::Kind::WithholdTorusCredits;
    AuditConfig acfg;
    acfg.audit_interval = 64;
    acfg.watchdog_interval = 16;
    acfg.stall_threshold = 300;
    Instrumentation inst;
    inst.faults.push_back(fault);
    inst.audit = acfg;
    m.attachInstrumentation(inst);
    Auditor &a = *m.audit();

    Rng traffic(seed * 1315423911ULL + 1);
    const auto nodes = static_cast<std::uint64_t>(m.geom().numNodes());
    std::uint64_t sent = 0;
    for (std::uint64_t i = 0; i < 400; ++i) {
        const EndpointAddr src{ static_cast<NodeId>(traffic.below(nodes)),
                                static_cast<int>(traffic.below(4)) };
        const EndpointAddr dst{ static_cast<NodeId>(traffic.below(nodes)),
                                static_cast<int>(traffic.below(4)) };
        if (src.node == dst.node)
            continue;
        m.send(m.makeWrite(src, dst, 0, 2));
        ++sent;
    }
    // A forced stream over the starved link guarantees the wedge for any
    // seed; the random load above shapes the rest of the trip state.
    const NodeId choke_dst = m.geom().id({ 2, 0, 0 });
    const PacketRoute choke(m.geom(), 0, choke_dst, DimOrder{ 0, 1, 2 },
                            { Dir::Pos, Dir::Pos, Dir::Pos }, 0);
    for (int i = 0; i < 30; ++i) {
        auto pkt = m.makeWrite({ 0, i % 4 }, { choke_dst, 1 }, 0, 2);
        m.setRoute(*pkt, choke);
        m.send(pkt);
        ++sent;
    }
    EXPECT_FALSE(m.run(RunSpec::untilDelivered(sent, 200000)).reason == StopReason::Delivered)
        << "faulted run should wedge";
    EXPECT_TRUE(a.tripped());
    if (!a.tripped())
        return {};
    const MachineSnapshot &snap = *a.tripSnapshot();
    return snapshotJson(snap) + "\n---\n" + waitsForDot(snap) + "\n---\n"
           + a.reportJson();
}

TEST(Determinism, SameSeedProducesByteIdenticalForensicSnapshot)
{
    const std::string a = runFaultedSnapshot(71);
    const std::string b = runFaultedSnapshot(71);
    ASSERT_FALSE(a.empty());
    EXPECT_EQ(a, b)
        << "same-seed trip snapshots must serialize identically";
    EXPECT_NE(a.find("\"reason\": \"watchdog\""), std::string::npos);
    EXPECT_NE(a.find("\"waits_for\": ["), std::string::npos);
    EXPECT_NE(a.find("digraph waits_for {"), std::string::npos);
    EXPECT_NE(a.find("\"tripped\": true"), std::string::npos);
}

TEST(Determinism, DifferentSeedProducesDifferentForensicSnapshot)
{
    EXPECT_NE(runFaultedSnapshot(71), runFaultedSnapshot(72));
}

TEST(Determinism, RepeatedSerializationOfOneRunIsStable)
{
    MachineConfig cfg;
    cfg.radix = { 2, 2, 2 };
    cfg.chip.endpoints_per_node = 2;
    cfg.use_packaging = false;
    cfg.seed = 5;
    Machine m(cfg);
    Instrumentation inst;
    inst.metrics = true;
    m.attachInstrumentation(inst);
    m.send(m.makeWrite({ 0, 0 }, { 7, 1 }, 0, 2));
    ASSERT_TRUE(m.run(RunSpec::untilDelivered(1, 100000)).reason == StopReason::Delivered);
    // metricsJson refreshes gauges then serializes; with no intervening
    // engine progress the output must not change.
    EXPECT_EQ(m.metricsJson(), m.metricsJson());
}

/**
 * The FNV-1a hash (ckptHash) of every deterministic export of one seeded
 * 2x2x2 run: pre-injected writes and reads plus one multicast tree, run
 * to quiescence with metrics at @p level, the trace at stride 1, flows
 * sampled every 3rd packet, the auto-steady time series (window 64) and
 * the auditor every 64 cycles. At `full` every export is hashed; at any
 * other level only metricsJson().
 */
std::vector<std::uint64_t>
exportHashes(MetricsLevel level)
{
    MachineConfig cfg;
    cfg.radix = { 2, 2, 2 };
    cfg.chip.endpoints_per_node = 2;
    cfg.use_packaging = false;
    cfg.fixed_torus_latency = 12;
    cfg.seed = 41;
    Machine m(cfg);
    Instrumentation inst;
    inst.metrics = true;
    inst.metrics_level = level;
    inst.trace = TraceConfig{};
    inst.flows = FlowProbeConfig{ .sample = 3 };
    inst.timeseries = TimeseriesConfig{ .window = 64, .auto_steady = true };
    inst.audit = AuditConfig{ .audit_interval = 64,
                              .watchdog_interval = 64 };
    m.attachInstrumentation(inst);

    Rng traffic(4099);
    const auto nodes = static_cast<std::uint64_t>(m.geom().numNodes());
    for (int i = 0; i < 120; ++i) {
        const EndpointAddr src{ static_cast<NodeId>(traffic.below(nodes)),
                                static_cast<int>(traffic.below(2)) };
        const EndpointAddr dst{ static_cast<NodeId>(traffic.below(nodes)),
                                static_cast<int>(traffic.below(2)) };
        if (src.node == dst.node)
            continue;
        if (i % 4 == 3)
            m.send(m.makeRead(src, dst));
        else
            m.send(m.makeWrite(src, dst, 0,
                               1 + static_cast<int>(traffic.below(2))));
    }
    std::vector<McastDest> dests;
    for (NodeId n = 1; n < m.geom().numNodes(); ++n)
        dests.push_back({ n, 1 });
    Rng tie(9);
    m.sendMulticast({ 0, 0 },
                    m.installTree(buildMcastTree(m.geom(), 0, dests,
                                                 DimOrder{ 0, 1, 2 }, 0,
                                                 tie)));
    EXPECT_EQ(m.run(RunSpec::untilQuiescent(200000)).reason,
              StopReason::Quiescent);

    auto hash = [](const std::string &s) {
        return ckptHash(s.data(), s.size());
    };
    if (level != MetricsLevel::Full)
        return { hash(m.metricsJson()) };
    const MachineSnapshot snap = m.dumpSnapshot();
    return { hash(m.metricsJson()),     hash(m.runReportJson(4)),
             hash(m.traceChromeJson()), hash(m.traceFlightCsv()),
             hash(m.flowMatrixCsv()),   hash(m.timeseriesJson()),
             hash(m.heatmapCsv()),      hash(snapshotJson(snap)),
             hash(waitsForDot(snap)) };
}

TEST(Determinism, ExportBytesArePinnedAcrossBuilds)
{
    // Hashes taken from the build before the exporters shared one JSON
    // writer. A change that moves one changed that export's bytes.
    const std::vector<std::uint64_t> full = exportHashes(MetricsLevel::Full);
    const std::vector<std::uint64_t> pinned{
        0xeb072313be8c9da0ULL, 0xe180917aabfc67dfULL, 0x049dcc5cdbf404c3ULL,
        0x887babbc8fbf7331ULL, 0x41d72b35a8ef43cfULL, 0x4ff371d65f5bd9f6ULL,
        0x262dd0d36462eea1ULL, 0x56b053600303d9d1ULL, 0x0b48615d0f37d4f7ULL,
    };
    const char *names[] = { "metricsJson",   "runReportJson",
                            "traceChromeJson", "traceFlightCsv",
                            "flowMatrixCsv", "timeseriesJson",
                            "heatmapCsv",    "snapshotJson",
                            "waitsForDot" };
    ASSERT_EQ(full.size(), pinned.size());
    for (std::size_t i = 0; i < full.size(); ++i)
        EXPECT_EQ(full[i], pinned[i]) << names[i] << std::hex << " 0x"
                                      << full[i];
    EXPECT_EQ(exportHashes(MetricsLevel::Machine).at(0),
              0xf353a08eebf1aa22ULL)
        << "metricsJson at machine level";
}

} // namespace
} // namespace anton2
