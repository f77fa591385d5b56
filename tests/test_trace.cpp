/**
 * @file
 * Tests for the cycle-level event-tracing layer: RingTraceSink
 * mechanics, packet-lifecycle conservation, Chrome trace-event JSON
 * schema and determinism, the flight-record CSV, and the exact
 * cross-check between stall-attribution totals in the trace export and
 * the metrics tree.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/machine.hpp"
#include "sim/rng.hpp"
#include "trace/chrome_trace.hpp"
#include "trace/flight_record.hpp"
#include "trace/trace.hpp"
#include "tiny_json.hpp"

namespace anton2 {
namespace {

using testjson::JsonValue;
using testjson::TinyJsonParser;

// ---------------------------------------------------------------------
// RingTraceSink
// ---------------------------------------------------------------------

TraceEvent
makeEvent(std::uint64_t packet, Cycle cycle)
{
    TraceEvent ev;
    ev.cycle = cycle;
    ev.packet = packet;
    ev.node = 0;
    ev.unit = 0;
    ev.type = TraceEventType::Inject;
    return ev;
}

TEST(RingTraceSink, KeepsEverythingBelowCapacity)
{
    RingTraceSink sink(8);
    for (std::uint64_t i = 1; i <= 5; ++i)
        sink.push(makeEvent(i, i));
    EXPECT_EQ(sink.size(), 5u);
    EXPECT_EQ(sink.recorded(), 5u);
    EXPECT_EQ(sink.dropped(), 0u);
    const auto events = sink.drain();
    ASSERT_EQ(events.size(), 5u);
    for (std::uint64_t i = 0; i < 5; ++i)
        EXPECT_EQ(events[i].packet, i + 1);
}

TEST(RingTraceSink, OverflowDropsOldestAndCountsIt)
{
    RingTraceSink sink(4);
    for (std::uint64_t i = 1; i <= 10; ++i)
        sink.push(makeEvent(i, i));
    EXPECT_EQ(sink.size(), 4u);
    EXPECT_EQ(sink.recorded(), 10u);
    EXPECT_EQ(sink.dropped(), 6u);
    const auto events = sink.drain();
    ASSERT_EQ(events.size(), 4u);
    // The oldest survivors come out first.
    for (std::uint64_t i = 0; i < 4; ++i)
        EXPECT_EQ(events[i].packet, 7 + i);
}

TEST(RingTraceSink, ClearKeepsCapacityAndSampling)
{
    RingTraceSink sink(4);
    sink.setSampleStride(3);
    sink.push(makeEvent(3, 1));
    sink.clear();
    EXPECT_EQ(sink.size(), 0u);
    EXPECT_EQ(sink.recorded(), 0u);
    EXPECT_EQ(sink.capacity(), 4u);
    EXPECT_EQ(sink.sampleStride(), 3u);
}

TEST(TraceSink, SamplingFiltersByPacketId)
{
    RingTraceSink sink(4);
    EXPECT_TRUE(sink.accepts(1));
    EXPECT_TRUE(sink.accepts(2));
    sink.setSampleStride(4);
    EXPECT_TRUE(sink.accepts(8));
    EXPECT_FALSE(sink.accepts(9));
    EXPECT_TRUE(sink.accepts(0)); // packet-less records always pass
    sink.setSampleStride(0);      // clamps to 1
    EXPECT_TRUE(sink.accepts(9));
}

// ---------------------------------------------------------------------
// Machine-level tracing
// ---------------------------------------------------------------------

constexpr std::uint64_t kPackets = 120;

struct TracedRun
{
    std::string chrome;
    std::string csv;
    std::string metrics;
    std::vector<TraceEvent> events;
    std::uint64_t sent = 0;
};

/** Drive seeded random traffic on a traced 2x2x2 machine (with the
 * flow probe on the same packet-event stream when @p flows). */
TracedRun
runTraced(std::uint64_t seed, std::uint64_t sample = 1, bool flows = false)
{
    MachineConfig cfg;
    cfg.radix = { 2, 2, 2 };
    cfg.chip.endpoints_per_node = 4;
    cfg.use_packaging = false;
    cfg.fixed_torus_latency = 12;
    cfg.seed = seed;
    Machine m(cfg);
    TraceConfig tc;
    tc.capacity = std::size_t{ 1 } << 16;
    tc.sample = sample;
    Instrumentation inst;
    inst.metrics = true;
    inst.trace = tc;
    if (flows)
        inst.flows = FlowProbeConfig{};
    m.attachInstrumentation(inst);

    Rng traffic(seed * 1315423911ULL + 1);
    const auto nodes = static_cast<std::uint64_t>(m.geom().numNodes());
    TracedRun run;
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
    }
    EXPECT_TRUE(m.run(RunSpec::untilDelivered(run.sent, 500000)).reason == StopReason::Delivered);

    run.events = m.trace()->drain();
    EXPECT_EQ(m.trace()->dropped(), 0u)
        << "test ring must be large enough to keep the full trace";
    run.chrome = m.traceChromeJson();
    run.csv = m.traceFlightCsv();
    run.metrics = m.metricsJson();
    return run;
}

TEST(Tracing, EveryInjectedPacketHasMatchingEject)
{
    const auto run = runTraced(71);
    std::set<std::uint64_t> injected, ejected;
    for (const auto &ev : run.events) {
        if (ev.type == TraceEventType::Inject)
            injected.insert(ev.packet);
        if (ev.type == TraceEventType::Eject)
            ejected.insert(ev.packet);
    }
    EXPECT_EQ(injected.size(), run.sent);
    EXPECT_EQ(injected, ejected)
        << "after a drained run, inject and eject id sets must agree";
    // Lifecycle ordering: per packet, inject is the earliest record and
    // eject the latest.
    std::map<std::uint64_t, std::pair<Cycle, Cycle>> bounds;
    for (const auto &ev : run.events) {
        if (ev.packet == 0)
            continue;
        auto [it, fresh] = bounds.try_emplace(
            ev.packet, std::make_pair(ev.cycle, ev.cycle));
        if (!fresh) {
            it->second.first = std::min(it->second.first, ev.cycle);
            it->second.second = std::max(it->second.second, ev.cycle);
        }
        if (ev.type == TraceEventType::Inject) {
            EXPECT_EQ(it->second.first, ev.cycle);
        }
    }
    for (const auto &ev : run.events) {
        if (ev.type == TraceEventType::Eject) {
            EXPECT_EQ(bounds.at(ev.packet).second, ev.cycle);
        }
    }
}

TEST(Tracing, SampleStrideRecordsOnlyMatchingPacketIds)
{
    const auto run = runTraced(71, /*sample=*/4);
    ASSERT_FALSE(run.events.empty());
    for (const auto &ev : run.events) {
        if (ev.packet != 0) {
            EXPECT_EQ(ev.packet % 4, 0u);
        }
    }
}

TEST(Tracing, SameSeedProducesByteIdenticalChromeTrace)
{
    const auto a = runTraced(71);
    const auto b = runTraced(71);
    EXPECT_FALSE(a.chrome.empty());
    EXPECT_EQ(a.chrome, b.chrome);
    EXPECT_EQ(a.csv, b.csv);
    // The flow probe reads the same packet-event stream; attaching it
    // (with no sampled spans) leaves both trace exports unchanged.
    const auto with_flows = runTraced(71, 1, /*flows=*/true);
    EXPECT_EQ(with_flows.chrome, a.chrome);
    EXPECT_EQ(with_flows.csv, a.csv);
    EXPECT_NE(runTraced(72).chrome, a.chrome);
}

TEST(Tracing, ChromeTraceJsonHasTheDocumentedSchema)
{
    const auto run = runTraced(71);
    const auto doc = TinyJsonParser(run.chrome).parse();

    EXPECT_EQ(doc->at("displayTimeUnit").string, "ns");
    const auto &other = doc->at("otherData");
    EXPECT_EQ(other.at("generator").string, "anton2net");
    EXPECT_GT(other.at("end_cycle").number, 0.0);
    EXPECT_EQ(other.at("events_dropped").number, 0.0);
    EXPECT_EQ(other.at("sample_stride").number, 1.0);
    EXPECT_EQ(other.at("events_recorded").number,
              static_cast<double>(run.events.size()));
    const auto &stalls = other.at("stall_totals");
    for (int c = 0; c < kNumStallClasses; ++c)
        EXPECT_TRUE(stalls.has(stallClassName(static_cast<StallClass>(c))))
            << stallClassName(static_cast<StallClass>(c));

    const auto &events = doc->at("traceEvents");
    ASSERT_EQ(events.kind, JsonValue::Kind::Array);
    std::size_t meta = 0, instant = 0, counter = 0;
    for (const auto &ev : events.array) {
        const std::string ph = ev->at("ph").string;
        EXPECT_TRUE(ev->has("pid"));
        if (ph == "M") {
            ++meta;
            EXPECT_TRUE(ev->at("args").has("name"));
        } else if (ph == "i") {
            ++instant;
            EXPECT_TRUE(ev->has("ts"));
            EXPECT_TRUE(ev->has("tid"));
            EXPECT_TRUE(ev->at("args").has("packet"));
            EXPECT_TRUE(ev->at("args").has("cycle"));
            EXPECT_TRUE(ev->at("args").has("vc"));
        } else if (ph == "C") {
            ++counter;
            for (int c = 0; c < kNumStallClasses; ++c)
                EXPECT_TRUE(ev->at("args").has(
                    stallClassName(static_cast<StallClass>(c))));
        } else {
            ADD_FAILURE() << "unexpected event phase: " << ph;
        }
    }
    EXPECT_GT(meta, 0u);
    EXPECT_EQ(instant, run.events.size());
    EXPECT_GT(counter, 0u);
}

TEST(Tracing, StallTotalsInTraceMatchMetricsGaugesExactly)
{
    const auto run = runTraced(71);
    const auto trace_doc = TinyJsonParser(run.chrome).parse();
    const auto metrics_doc = TinyJsonParser(run.metrics).parse();

    const auto &from_trace = trace_doc->at("otherData").at("stall_totals");
    const auto &from_metrics = metrics_doc->path("machine.stall");
    double total = 0.0;
    for (int c = 0; c < kNumStallClasses; ++c) {
        const char *name = stallClassName(static_cast<StallClass>(c));
        EXPECT_EQ(from_trace.at(name).number, from_metrics.at(name).number)
            << "class " << name;
        total += from_trace.at(name).number;
    }
    EXPECT_GT(total, 0.0);

    // Per-port counter events must also sum to the machine-wide totals.
    std::map<std::string, double> per_port;
    for (const auto &ev : trace_doc->at("traceEvents").array) {
        if (ev->at("ph").string != "C")
            continue;
        for (int c = 0; c < kNumStallClasses; ++c) {
            const char *name = stallClassName(static_cast<StallClass>(c));
            per_port[name] += ev->at("args").at(name).number;
        }
    }
    for (int c = 0; c < kNumStallClasses; ++c) {
        const char *name = stallClassName(static_cast<StallClass>(c));
        EXPECT_EQ(per_port[name], from_trace.at(name).number)
            << "class " << name;
    }
}

TEST(Tracing, FlightRecordCoversEveryPacketWithConsistentLatency)
{
    const auto run = runTraced(71);
    std::istringstream csv(run.csv);
    std::string line;
    ASSERT_TRUE(std::getline(csv, line));
    EXPECT_EQ(line,
              "packet,inject_cycle,src_node,src_ep,eject_cycle,dst_node,"
              "dst_ep,latency_cycles,routers,grants,link_hops,ejects,"
              "hops");

    std::uint64_t rows = 0, last_id = 0;
    while (std::getline(csv, line)) {
        ++rows;
        std::vector<std::string> cells;
        std::size_t start = 0;
        while (true) {
            const auto comma = line.find(',', start);
            cells.push_back(line.substr(start, comma == std::string::npos
                                                   ? std::string::npos
                                                   : comma - start));
            if (comma == std::string::npos)
                break;
            start = comma + 1;
        }
        ASSERT_EQ(cells.size(), 13u) << line;
        const auto id = std::stoull(cells[0]);
        EXPECT_GT(id, last_id) << "rows must be sorted by packet id";
        last_id = id;
        // Delivered unicast traffic: all cells populated, latency exact.
        const auto inject = std::stoull(cells[1]);
        const auto eject = std::stoull(cells[4]);
        EXPECT_EQ(std::stoull(cells[7]), eject - inject);
        EXPECT_GE(std::stoull(cells[8]), 1u) << "at least one router";
        EXPECT_EQ(cells[11], "1");
        // The packet's own hop counter must agree with the link
        // traversals independently observed at the adapters (unicast:
        // exactly one LinkTraverse per inter-node hop).
        EXPECT_EQ(cells[12], cells[10]) << line;
        EXPECT_GE(std::stoull(cells[12]), 1u)
            << "cross-node traffic takes at least one torus hop";
    }
    EXPECT_EQ(rows, run.sent);
}

TEST(Tracing, StallSamplerAccountsForEveryConnectedPortCycle)
{
    // One packet crosses an otherwise idle machine, so most routers
    // sleep through most of the run - serially per cycle, and on two
    // lanes at the auto window. Their slept cycles are booked as
    // no_input when the exporter settles them, so every router has
    // classified every cycle since the attach.
    struct Schedule
    {
        int threads;
        Cycle lookahead;
    };
    for (const Schedule sch : { Schedule{ 1, 1 }, Schedule{ 2, 0 } }) {
        MachineConfig cfg;
        cfg.radix = { 2, 2, 2 };
        cfg.chip.endpoints_per_node = 2;
        cfg.use_packaging = false;
        cfg.seed = 3;
        cfg.threads = sch.threads;
        cfg.lookahead = sch.lookahead;
        Machine m(cfg);
        Instrumentation inst;
        inst.trace = TraceConfig{};
        m.attachInstrumentation(inst);
        m.send(m.makeWrite({ 0, 0 }, { 7, 1 }, 0, 2));
        ASSERT_TRUE(m.run(RunSpec::untilDelivered(1, 100000)).reason
                    == StopReason::Delivered);
        EXPECT_LT(m.engine().ticksRun() * 4,
                  m.engine().shardedCount() * m.now())
            << "most components sleep";
        (void)m.traceChromeJson(); // settles the sleeping routers

        std::uint64_t busy = 0;
        for (NodeId n = 0; n < m.geom().numNodes(); ++n) {
            for (RouterId r = 0; r < m.layout().numRouters(); ++r) {
                const RouterStallSampler *s =
                    m.chip(n).router(r).stallSampler();
                ASSERT_NE(s, nullptr);
                EXPECT_EQ(s->sampled_cycles, m.now())
                    << "n=" << n << " r=" << r;
                for (std::size_t o = 0; o < s->ports.size(); ++o) {
                    // Exhaustive classification: a connected port's
                    // class totals sum exactly to the sampled cycles;
                    // unconnected ports are never classified.
                    const auto total = s->ports[o].total();
                    EXPECT_EQ(total, m.chip(n).router(r).outConnected(
                                         static_cast<int>(o))
                                         ? s->sampled_cycles
                                         : 0u)
                        << "n=" << n << " r=" << r << " port=" << o;
                    busy += s->ports[o].cycles[static_cast<std::size_t>(
                        StallClass::Busy)];
                }
            }
        }
        EXPECT_GT(busy, 0u) << "the delivered packet crossed some switch";
    }
}

TEST(Tracing, DisabledTracingLeavesNoSinkOrSampler)
{
    MachineConfig cfg;
    cfg.radix = { 2, 2, 2 };
    cfg.chip.endpoints_per_node = 2;
    cfg.use_packaging = false;
    cfg.seed = 3;
    Machine m(cfg);
    EXPECT_EQ(m.trace(), nullptr);
    EXPECT_EQ(m.chip(0).router(0).stallSampler(), nullptr);
    m.send(m.makeWrite({ 0, 0 }, { 7, 1 }));
    EXPECT_TRUE(m.run(RunSpec::untilDelivered(1, 100000)).reason == StopReason::Delivered);
}

TEST(Tracing, EventAndStallNamesAreStable)
{
    EXPECT_STREQ(traceEventName(TraceEventType::Inject), "inject");
    EXPECT_STREQ(traceEventName(TraceEventType::RouteComputed),
                 "route_computed");
    EXPECT_STREQ(traceEventName(TraceEventType::VcAllocated),
                 "vc_allocated");
    EXPECT_STREQ(traceEventName(TraceEventType::SwitchGrant),
                 "switch_grant");
    EXPECT_STREQ(traceEventName(TraceEventType::LinkTraverse),
                 "link_traverse");
    EXPECT_STREQ(traceEventName(TraceEventType::Retransmit), "retransmit");
    EXPECT_STREQ(traceEventName(TraceEventType::Eject), "eject");
    EXPECT_STREQ(traceEventName(TraceEventType::Depart), "depart");
    EXPECT_STREQ(stallClassName(StallClass::Busy), "busy");
    EXPECT_STREQ(stallClassName(StallClass::LinkBusy), "link_busy");
    EXPECT_STREQ(stallClassName(StallClass::CreditStall), "credit_stall");
    EXPECT_STREQ(stallClassName(StallClass::ArbLoss), "arb_loss");
    EXPECT_STREQ(stallClassName(StallClass::NoInput), "no_input");
}

} // namespace
} // namespace anton2
