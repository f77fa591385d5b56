/**
 * @file
 * Tests for the flow-level observability layer: the per-(src, dst,
 * class) flow matrix, per-hop span attribution, congestion blame, and
 * the determinism contract (flow exports byte-identical across thread
 * counts and lookahead windows). Also the diameter-scaled total-latency
 * histogram regression: worst-path latencies on a large torus must land
 * in real bins, not the overflow bin.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/machine.hpp"
#include "sim/flow.hpp"
#include "sim/rng.hpp"
#include "tiny_json.hpp"

namespace anton2 {
namespace {

using testjson::JsonValue;
using testjson::TinyJsonParser;

constexpr std::uint64_t kPackets = 120;

/**
 * Build a flow-probed 2x2x2 machine (with the trace ring on the same
 * packet-event stream when @p traced) and drive seeded random unicast
 * writes, all injected before the run starts (no serial-phase feedback,
 * so exports are byte-identical across lookahead windows too).
 */
struct FlowRun
{
    std::string flows_json; ///< FlowProbe::reportJson (full matrix)
    std::string csv;        ///< flow-matrix CSV
    std::string report;     ///< Machine::runReportJson
    std::uint64_t sent = 0;
    std::uint64_t flits_sent = 0;
};

FlowRun
runFlows(std::uint64_t seed, int threads, Cycle lookahead,
         std::uint64_t sample = 0, bool traced = false)
{
    MachineConfig cfg;
    cfg.radix = { 2, 2, 2 };
    cfg.chip.endpoints_per_node = 4;
    cfg.use_packaging = false;
    cfg.fixed_torus_latency = 12;
    cfg.seed = seed;
    Machine m(cfg);
    m.setThreads(threads);
    m.setLookahead(lookahead);
    FlowProbeConfig fc;
    fc.sample = sample;
    Instrumentation finst;
    finst.metrics = true;
    finst.flows = fc;
    if (traced)
        finst.trace = TraceConfig{};
    m.attachInstrumentation(finst);

    Rng traffic(seed * 1315423911ULL + 1);
    const auto nodes = static_cast<std::uint64_t>(m.geom().numNodes());
    FlowRun run;
    for (std::uint64_t i = 0; i < kPackets; ++i) {
        const EndpointAddr src{ static_cast<NodeId>(traffic.below(nodes)),
                                static_cast<int>(traffic.below(4)) };
        const EndpointAddr dst{ static_cast<NodeId>(traffic.below(nodes)),
                                static_cast<int>(traffic.below(4)) };
        if (src.node == dst.node)
            continue;
        const int size = 1 + static_cast<int>(traffic.below(2));
        m.send(m.makeWrite(src, dst, 0, size));
        ++run.sent;
        run.flits_sent += static_cast<std::uint64_t>(size);
    }
    EXPECT_TRUE(m.run(RunSpec::untilDelivered(run.sent, 500000)).reason == StopReason::Delivered);

    run.flows_json = m.flows()->reportJson(
        /*full_matrix=*/true, m.geom().numNodes());
    run.csv = m.flowMatrixCsv();
    run.report = m.runReportJson();
    return run;
}

// ---------------------------------------------------------------------
// Determinism: the tentpole's cross-thread / cross-window contract
// ---------------------------------------------------------------------

TEST(FlowExports, ByteIdenticalAcrossThreadsAndWindows)
{
    const auto base = runFlows(71, 1, 1);
    ASSERT_FALSE(base.flows_json.empty());
    ASSERT_FALSE(base.csv.empty());
    for (const Cycle lookahead : { Cycle{ 1 }, Cycle{ 0 } }) {
        // The run report's elapsed-cycles gauge depends on where a
        // delivery-target run stops (a window boundary under lookahead),
        // so the *full* report is only compared across thread counts at
        // a fixed window; the flow exports must match everywhere.
        const auto window_base = runFlows(71, 1, lookahead);
        for (const int threads : { 1, 2, 4 }) {
            const auto run = runFlows(71, threads, lookahead);
            EXPECT_EQ(run.flows_json, base.flows_json)
                << "threads=" << threads << " lookahead=" << lookahead;
            EXPECT_EQ(run.csv, base.csv)
                << "threads=" << threads << " lookahead=" << lookahead;
            EXPECT_EQ(run.report, window_base.report)
                << "threads=" << threads << " lookahead=" << lookahead;
            // The trace ring reads the same packet-event stream; with
            // it attached the flow exports must not change.
            const auto traced = runFlows(71, threads, lookahead, 0, true);
            EXPECT_EQ(traced.flows_json, base.flows_json)
                << "traced, threads=" << threads
                << " lookahead=" << lookahead;
            EXPECT_EQ(traced.csv, base.csv)
                << "traced, threads=" << threads
                << " lookahead=" << lookahead;
        }
    }
    // Different seed, different exports: the identity above is not
    // vacuous.
    EXPECT_NE(runFlows(72, 1, 1).csv, base.csv);
}

// ---------------------------------------------------------------------
// Reconciliation: flow matrix vs. the aggregate telemetry
// ---------------------------------------------------------------------

TEST(FlowMatrix, LatencySumsReconcileExactlyWithAggregateStats)
{
    MachineConfig cfg;
    cfg.radix = { 2, 2, 2 };
    cfg.chip.endpoints_per_node = 4;
    cfg.use_packaging = false;
    cfg.fixed_torus_latency = 12;
    cfg.seed = 9;
    Machine m(cfg);
    Instrumentation finst;
    finst.metrics = true;
    finst.flows = FlowProbeConfig{};
    m.attachInstrumentation(finst);

    Rng traffic(1234567);
    const auto nodes = static_cast<std::uint64_t>(m.geom().numNodes());
    std::uint64_t sent = 0, flits = 0, reads = 0;
    for (std::uint64_t i = 0; i < kPackets; ++i) {
        const EndpointAddr src{ static_cast<NodeId>(traffic.below(nodes)),
                                static_cast<int>(traffic.below(4)) };
        const EndpointAddr dst{ static_cast<NodeId>(traffic.below(nodes)),
                                static_cast<int>(traffic.below(4)) };
        if (src.node == dst.node)
            continue;
        if (traffic.below(4) == 0) {
            // Read requests produce reply-class flows too.
            m.send(m.makeRead(src, dst));
            ++reads;
            ++flits;
        } else {
            const int size = 1 + static_cast<int>(traffic.below(2));
            m.send(m.makeWrite(src, dst, 0, size));
            flits += static_cast<std::uint64_t>(size);
        }
        ++sent;
    }
    ASSERT_GT(reads, 0u);
    // Replies are extra deliveries beyond the requests.
    ASSERT_TRUE(m.run(RunSpec::untilDelivered(sent + reads, 500000)).reason == StopReason::Delivered);

    const FlowProbe &probe = *m.flows();
    std::uint64_t pkt_total = 0, lat_total = 0;
    bool saw_reply_cell = false;
    for (const auto &[key, cell] : probe.cells()) {
        pkt_total += cell.packets;
        lat_total += cell.lat_sum;
        if (key.tc == 1)
            saw_reply_cell = true;
        EXPECT_LE(cell.lat_min, cell.lat_max);
        EXPECT_GE(cell.lat_sum,
                  cell.packets * static_cast<std::uint64_t>(cell.lat_min));
    }
    EXPECT_TRUE(saw_reply_cell);
    EXPECT_EQ(pkt_total, probe.deliveries());
    EXPECT_EQ(pkt_total, m.totalDelivered());

    // Exact cross-check against the machine-wide aggregate: the flow
    // cells and the `machine.latency.total` histogram both record
    // delivered - birth, and every sum here is far below 2^53, so the
    // double-vs-integer comparison is byte-exact.
    const Histogram *h =
        m.metrics()->findHistogram("machine.latency.total");
    ASSERT_NE(h, nullptr);
    EXPECT_EQ(h->stat().count(), pkt_total);
    EXPECT_EQ(h->stat().sum(), static_cast<double>(lat_total));

    // The reply-class rows surface in the CSV vocabulary.
    EXPECT_NE(m.flowMatrixCsv().find(",reply,"), std::string::npos);
}

// ---------------------------------------------------------------------
// Congestion blame: conservation against delivered traffic
// ---------------------------------------------------------------------

TEST(FlowBlame, LinkFlitsConserveAgainstDeliveredHopCrossings)
{
    MachineConfig cfg;
    cfg.radix = { 2, 2, 2 };
    cfg.chip.endpoints_per_node = 4;
    cfg.use_packaging = false;
    cfg.fixed_torus_latency = 12;
    cfg.seed = 5;
    Machine m(cfg);
    Instrumentation finst;
    finst.flows = FlowProbeConfig{};
    m.attachInstrumentation(finst);

    std::uint64_t crossings = 0; // sum over deliveries of flits x hops
    std::uint64_t delivered_pkts = 0;
    m.setDeliverHook([&](const PacketPtr &p, Cycle) {
        crossings += static_cast<std::uint64_t>(p->size_flits)
                     * static_cast<std::uint64_t>(p->hops);
        ++delivered_pkts;
    });

    Rng traffic(4242);
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
    ASSERT_TRUE(m.run(RunSpec::untilDelivered(sent, 500000)).reason == StopReason::Delivered);

    const FlowProbe &probe = *m.flows();
    std::uint64_t link_flits = 0, link_pkt_hops = 0, ep_packets = 0;
    for (const auto &[key, b] : probe.blame()) {
        if (key.kind == TraceUnitKind::ChannelAdapter) {
            link_flits += b.flits;
            link_pkt_hops += b.packets;
            EXPECT_NE(b.name, "?") << "every link unit is registered";
        }
        if (key.kind == TraceUnitKind::Endpoint)
            ep_packets += b.packets;
    }
    // Every delivered packet crossed `hops` torus links, each crossing
    // billed once with the packet's full flit count.
    EXPECT_EQ(delivered_pkts, sent);
    EXPECT_EQ(link_flits, crossings);
    std::uint64_t hop_sum = 0;
    for (const auto &[key, cell] : probe.cells())
        hop_sum += cell.hop_sum;
    EXPECT_EQ(link_pkt_hops, hop_sum);
    // Exactly one source-queueing span per injected packet.
    EXPECT_EQ(ep_packets, sent);
}

// ---------------------------------------------------------------------
// Report schema: digest keys and the dense full-level matrix
// ---------------------------------------------------------------------

TEST(FlowReport, DigestSchemaAndDenseMatrixRowCount)
{
    const auto run = runFlows(71, 1, 1);
    const auto doc = TinyJsonParser(run.flows_json).parse();
    const JsonValue &digest = doc->at("digest");
    EXPECT_EQ(digest.at("k").number, 8.0);
    EXPECT_GT(digest.at("deliveries").number, 0.0);
    EXPECT_GT(digest.at("flows").number, 0.0);
    const JsonValue &worst = digest.at("worst_flows");
    ASSERT_EQ(worst.kind, JsonValue::Kind::Array);
    ASSERT_FALSE(worst.array.empty());
    EXPECT_LE(worst.array.size(), 8u);
    // Ranking: mean latency non-increasing down the digest.
    double prev_mean = -1.0;
    for (std::size_t i = 0; i < worst.array.size(); ++i) {
        const JsonValue &f = *worst.array[i];
        const double mean = f.path("latency.mean").number;
        if (i > 0) {
            EXPECT_LE(mean, prev_mean) << "worst_flows must be sorted";
        }
        prev_mean = mean;
        EXPECT_GT(f.at("packets").number, 0.0);
        const JsonValue &path = f.path("worst_packet.path");
        ASSERT_EQ(path.kind, JsonValue::Kind::Array);
        ASSERT_FALSE(path.array.empty());
        EXPECT_EQ(path.array.front()->at("kind").string, "endpoint");
    }
    for (const char *list : { "blamed_links", "blamed_routers" }) {
        const JsonValue &blamed = digest.at(list);
        ASSERT_EQ(blamed.kind, JsonValue::Kind::Array);
        ASSERT_FALSE(blamed.array.empty());
        double prev_wait = -1.0;
        for (std::size_t i = 0; i < blamed.array.size(); ++i) {
            const double wait = blamed.array[i]->at("queue_wait").number;
            if (i > 0) {
                EXPECT_LE(wait, prev_wait) << list << " must be sorted";
            }
            prev_wait = wait;
        }
    }

    // Full level: a dense num_nodes^2 matrix, zero rows included.
    const JsonValue &matrix = doc->at("matrix");
    ASSERT_EQ(matrix.kind, JsonValue::Kind::Array);
    EXPECT_EQ(matrix.array.size(), 64u); // 2x2x2 nodes squared
    double matrix_packets = 0.0;
    for (const auto &row : matrix.array)
        matrix_packets += row->at("packets").number;
    EXPECT_EQ(matrix_packets, digest.at("deliveries").number);

    // The machine report embeds the same section under "flows".
    const auto report = TinyJsonParser(run.report).parse();
    EXPECT_TRUE(report->at("flows").has("digest"));
    EXPECT_TRUE(report->at("flows").has("matrix"));
}

// ---------------------------------------------------------------------
// Sampled spans: the per-packet hop paths behind the Chrome export
// ---------------------------------------------------------------------

TEST(FlowSpans, SampledPacketsCarryOrderedCompleteHopPaths)
{
    MachineConfig cfg;
    cfg.radix = { 2, 2, 2 };
    cfg.chip.endpoints_per_node = 4;
    cfg.use_packaging = false;
    cfg.fixed_torus_latency = 12;
    cfg.seed = 7;
    Machine m(cfg);
    FlowProbeConfig fc;
    fc.sample = 1; // retain every delivered packet's span
    Instrumentation finst;
    finst.flows = fc;
    m.attachInstrumentation(finst);

    Rng traffic(99);
    const auto nodes = static_cast<std::uint64_t>(m.geom().numNodes());
    std::uint64_t sent = 0;
    for (std::uint64_t i = 0; i < kPackets; ++i) {
        const EndpointAddr src{ static_cast<NodeId>(traffic.below(nodes)),
                                static_cast<int>(traffic.below(4)) };
        const EndpointAddr dst{ static_cast<NodeId>(traffic.below(nodes)),
                                static_cast<int>(traffic.below(4)) };
        if (src.node == dst.node)
            continue;
        m.send(m.makeWrite(src, dst));
        ++sent;
    }
    ASSERT_TRUE(m.run(RunSpec::untilDelivered(sent, 500000)).reason == StopReason::Delivered);

    const FlowProbe &probe = *m.flows();
    EXPECT_EQ(probe.droppedSpans(), 0u);
    ASSERT_EQ(probe.sampledSpans().size(), sent);
    for (const FlowProbe::Span &s : probe.sampledSpans()) {
        ASSERT_FALSE(s.path.empty());
        // The first span of every flight is the source endpoint's
        // injection-queue wait.
        EXPECT_EQ(s.path.front().kind, TraceUnitKind::Endpoint);
        int link_hops = 0;
        Cycle prev_depart = 0;
        for (const PacketEvent &h : s.path) {
            EXPECT_LE(h.arrival, h.grant) << "packet " << s.meta.packet;
            EXPECT_LE(h.grant, h.cycle) << "packet " << s.meta.packet;
            EXPECT_GE(h.arrival, prev_depart)
                << "hops must be chronological, packet " << s.meta.packet;
            prev_depart = h.cycle;
            if (h.kind == TraceUnitKind::ChannelAdapter)
                ++link_hops;
        }
        // Span attribution is complete: one adapter hop per torus hop
        // the packet reported at delivery.
        EXPECT_EQ(link_hops, s.meta.hops) << "packet " << s.meta.packet;
        EXPECT_LE(s.path.back().cycle, s.meta.delivered);
    }
}

// ---------------------------------------------------------------------
// Satellite regression: diameter-scaled total-latency histogram
// ---------------------------------------------------------------------

TEST(LatencyHistogram, BinWidthScalesWithMachineDiameter)
{
    // Small machine, default link latency: the legacy 32-cycle bins are
    // preserved (fig9's default exports stay byte-identical).
    {
        MachineConfig cfg;
        cfg.radix = { 8, 4, 4 };
        cfg.chip.endpoints_per_node = 1;
        cfg.use_packaging = false;
        cfg.fixed_torus_latency = 20;
        Machine m(cfg);
        Instrumentation inst;
        inst.metrics = true;
        m.attachInstrumentation(inst);
        const Histogram *h =
            m.metrics()->findHistogram("machine.latency.total");
        ASSERT_NE(h, nullptr);
        EXPECT_EQ(h->binWidth(), 32.0);
    }
    // Full-scale 8x8x8: wider bins so a worst-path (12-hop) latency
    // lands inside the histogram's 64-bin range.
    {
        MachineConfig cfg;
        cfg.radix = { 8, 8, 8 };
        cfg.chip.endpoints_per_node = 1;
        cfg.use_packaging = false;
        cfg.fixed_torus_latency = 20;
        Machine m(cfg);
        Instrumentation inst;
        inst.metrics = true;
        m.attachInstrumentation(inst);
        const Histogram *h =
            m.metrics()->findHistogram("machine.latency.total");
        ASSERT_NE(h, nullptr);
        EXPECT_EQ(h->binWidth(), 64.0);
    }
}

TEST(LatencyHistogram, WorstPathOnLargeTorusLandsInRealBins)
{
    // 8x8x8 with slow links: before the diameter scaling, the fixed
    // 64 x 32-cycle range (2048 cycles) put every worst-path delivery
    // in the overflow bin.
    MachineConfig cfg;
    cfg.radix = { 8, 8, 8 };
    cfg.chip.endpoints_per_node = 1;
    cfg.use_packaging = false;
    cfg.fixed_torus_latency = 200;
    cfg.seed = 3;
    Machine m(cfg);
    Instrumentation inst;
    inst.metrics = true;
    m.attachInstrumentation(inst);
    const Histogram *h =
        m.metrics()->findHistogram("machine.latency.total");
    ASSERT_NE(h, nullptr);
    EXPECT_EQ(h->binWidth(), 192.0);

    // One packet across the full diameter: 4 hops in each dimension.
    const NodeId a = m.geom().id({ 0, 0, 0 });
    const NodeId b = m.geom().id({ 4, 4, 4 });
    m.send(m.makeWrite({ a, 0 }, { b, 0 }));
    ASSERT_TRUE(m.run(RunSpec::untilDelivered(1, 100000)).reason == StopReason::Delivered);

    ASSERT_EQ(h->stat().count(), 1u);
    const double lat = h->stat().sum();
    // The regression is only meaningful if this latency overflows the
    // legacy fixed-width range ...
    EXPECT_GT(lat, 64.0 * 32.0);
    // ... and the scaled bins must absorb it: overflow bin empty, the
    // delivery counted in the real bin its latency falls in.
    const auto &counts = h->counts();
    EXPECT_EQ(counts.back(), 0u) << "overflow bin must stay empty";
    const auto bin = static_cast<std::size_t>(lat / h->binWidth());
    ASSERT_LT(bin, counts.size() - 1);
    EXPECT_EQ(counts[bin], 1u);
}

} // namespace
} // namespace anton2
