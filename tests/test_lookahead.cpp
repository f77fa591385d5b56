/**
 * @file
 * Lookahead-window engine suite: the conservative-window scheduler that
 * lets each worker tick its shards k consecutive cycles between
 * barriers, where k is the minimum cross-shard (torus) wire latency.
 *
 * What is pinned here:
 *  - window-size computation across topologies, including mixed-latency
 *    packaging-derived links, clamping, and the k = 1 degenerate case
 *    (which is exactly the pre-lookahead per-cycle engine);
 *  - the engine-level windowed schedule: shard ticks before the serial
 *    replay, barrier alignment truncation;
 *  - staged cross-shard side effects (packet events, deferred
 *    deliveries) replay in canonical per-cycle order, proven by
 *    byte-identical exports across thread counts at any fixed window;
 *  - feedback-free workloads (pre-injected traffic, no driver/handler
 *    chains) are byte-identical across *windows* too, because the only
 *    window-observable effect is serial-to-shard feedback timing;
 *  - a seeded credit fault trips the watchdog at the same cycle with
 *    the same forensic report whether the run is serial or threaded,
 *    windowed or per-cycle;
 *  - a seeded randomized config sweep (property test) and a pinned
 *    8x8x8 short-run regression matching bench_host_speed --cycles 200.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "analysis/loads.hpp"
#include "core/machine.hpp"
#include "routing/route.hpp"
#include "sim/engine.hpp"
#include "sim/flow.hpp"
#include "sim/rng.hpp"
#include "sim/thread_pool.hpp"
#include "trace/trace.hpp"
#include "traffic/driver.hpp"
#include "traffic/patterns.hpp"

namespace anton2 {
namespace {

// ---------------------------------------------------------------------
// Engine-level windowed schedule
// ---------------------------------------------------------------------

/** Counts its own ticks; busy until it has ticked @p quota times. */
class TickCounter final : public Component
{
  public:
    explicit TickCounter(int quota = 0) : quota_(quota) {}
    void tick(Cycle) override { ++ticks_; }
    bool busy() const override { return ticks_ < quota_; }
    /** Never sleeps: ticks every cycle its shard runs. */
    bool hasWork() const { return true; }
    void setWake(WakeHandle) {}
    int ticks() const { return ticks_; }

  private:
    int quota_;
    int ticks_ = 0;
};

TEST(LookaheadEngine, WindowedShardTicksCompleteBeforeSerialReplay)
{
    Engine e;
    e.setWindow(4);
    EXPECT_EQ(e.window(), 4u);
    TickCounter sharded(1000);
    TickCounter tail;
    const std::size_t shard = e.newShard();
    e.addWakeable(shard, sharded, HostCompClass::Other);
    e.add(tail);

    std::vector<int> sharded_at_phase;
    std::vector<int> tail_at_phase;
    e.addSerialPhase([&](Cycle) {
        sharded_at_phase.push_back(sharded.ticks());
        tail_at_phase.push_back(tail.ticks());
    });

    e.run(10);
    EXPECT_EQ(e.now(), 10u);
    EXPECT_EQ(sharded.ticks(), 10);
    EXPECT_EQ(tail.ticks(), 10);
    // Windows [0,3], [4,7], [8,9] (the last clamped by the budget):
    // every shard tick of the window lands before its serial replay,
    // and the per-cycle serial tail still runs once per cycle.
    EXPECT_EQ(sharded_at_phase,
              (std::vector<int>{ 4, 4, 4, 4, 8, 8, 8, 8, 10, 10 }));
    EXPECT_EQ(tail_at_phase,
              (std::vector<int>{ 0, 1, 2, 3, 4, 5, 6, 7, 8, 9 }));
}

TEST(LookaheadEngine, SetWindowClampsToOne)
{
    Engine e;
    EXPECT_EQ(e.window(), 1u);
    e.setWindow(0);
    EXPECT_EQ(e.window(), 1u);
    e.setWindow(7);
    EXPECT_EQ(e.window(), 7u);
}

TEST(LookaheadEngine, AdvanceHonorsBudgetAndBarrierAlignment)
{
    Engine e;
    e.setWindow(4);
    TickCounter c(1000000);
    const std::size_t shard = e.newShard();
    e.addWakeable(shard, c, HostCompClass::Other);

    // Observation cycles are those == 4 (mod 5); each must be the final
    // cycle of its window, so the schedule alternates 4-cycle and
    // 1-cycle windows: [0,3], [4], [5,8], [9], ...
    e.addBarrierAlignment(5, 4);
    EXPECT_EQ(e.advance(100), 4u);
    EXPECT_EQ(e.now(), 4u);
    EXPECT_EQ(e.advance(100), 1u);
    EXPECT_EQ(e.now(), 5u);
    EXPECT_EQ(e.advance(100), 4u);
    EXPECT_EQ(e.advance(100), 1u);
    EXPECT_EQ(e.now(), 10u);
    // The budget clamps below both the window and the alignment.
    EXPECT_EQ(e.advance(2), 2u);
    EXPECT_EQ(e.now(), 12u);
    EXPECT_EQ(c.ticks(), 12);
}

TEST(LookaheadEngine, ThreadedWindowedScheduleMatchesSerial)
{
    for (int threads : { 1, 2, 4 }) {
        Engine e;
        e.setThreads(threads);
        e.setWindow(6);
        std::deque<TickCounter> cs;
        for (int i = 0; i < 8; ++i)
            cs.emplace_back(1000000);
        for (auto &c : cs) {
            const std::size_t shard = e.newShard();
            e.addWakeable(shard, c, HostCompClass::Other);
        }
        int phase_runs = 0;
        e.addSerialPhase([&](Cycle) { ++phase_runs; });
        e.run(20);
        EXPECT_EQ(e.now(), 20u) << "threads=" << threads;
        EXPECT_EQ(phase_runs, 20) << "threads=" << threads;
        for (const auto &c : cs)
            EXPECT_EQ(c.ticks(), 20) << "threads=" << threads;
    }
}

// ---------------------------------------------------------------------
// Staged packet-event replay
// ---------------------------------------------------------------------

Packet
packetWithId(std::uint64_t id)
{
    Packet p;
    p.id = id;
    return p;
}

TEST(LookaheadTrace, StagedEventsMergeInCanonicalPerCycleOrder)
{
    // One stream feeds both readers: trace records and flow hops staged
    // interleaved on two lanes merge one cycle at a time, lanes in order.
    RingTraceSink ring(64);
    FlowProbeConfig fc;
    fc.sample = 1;
    FlowProbe flows(fc);
    PacketEventStream stream;
    stream.setTrace(&ring);
    stream.setFlows(&flows);
    stream.configure(2, /*window_depth=*/4);
    const Packet p7 = packetWithId(7), p10 = packetWithId(10),
                 p11 = packetWithId(11), p20 = packetWithId(20),
                 p21 = packetWithId(21);
    const EventBinding ep{ &stream, 0, 0, TraceUnitKind::Endpoint };
    auto router = [&](std::int16_t unit) {
        return EventBinding{ &stream, 0, unit, TraceUnitKind::Router };
    };

    // Shard-major recording order (what a windowed worker produces):
    // lane 1 first, and within it cycle 1 before cycle 0. Packet 7's
    // hop spans (flows only) sit between other packets' route-computed
    // records (trace only); its inject record goes to both.
    {
        par::LaneScope lane(1);
        emitPacketEvent(router(9), TraceEventType::RouteComputed, 1, &p21,
                        0, 0);
        emitPacketEvent(router(4), TraceEventType::Depart, 1, &p7, 0, 0,
                        1, 1);
        emitPacketEvent(router(9), TraceEventType::RouteComputed, 0, &p20,
                        0, 0);
        emitPacketEvent(router(2), TraceEventType::Depart, 0, &p7, 0, 0,
                        0, 0);
    }
    {
        par::LaneScope lane(0);
        emitPacketEvent(ep, TraceEventType::Inject, 0, &p7, -1, 0, 0, 0);
        emitPacketEvent(router(1), TraceEventType::Depart, 0, &p7, 0, 0,
                        0, 0);
        emitPacketEvent(router(9), TraceEventType::RouteComputed, 0, &p10,
                        0, 0);
        emitPacketEvent(router(9), TraceEventType::RouteComputed, 1, &p11,
                        0, 0);
        emitPacketEvent(router(3), TraceEventType::Depart, 1, &p7, 0, 0,
                        1, 1);
    }
    EXPECT_EQ(ring.size(), 0u) << "events must stage, not publish";
    EXPECT_TRUE(flows.blame().empty()) << "hops must stage, not apply";

    // The serial replay drains one cycle at a time, lanes in order.
    stream.merge(0);
    stream.merge(1);
    const auto events = ring.drain();
    std::vector<std::uint64_t> ids;
    for (const TraceEvent &ev : events)
        ids.push_back(ev.packet);
    EXPECT_EQ(ids, (std::vector<std::uint64_t>{ 7, 10, 20, 11, 21 }));
    for (std::size_t i = 1; i < events.size(); ++i)
        EXPECT_GE(events[i].cycle, events[i - 1].cycle);

    // Packet 7's path comes out in the same canonical order.
    FlowDeliveryRecord d;
    d.packet = 7;
    d.delivered = 2;
    flows.recordDelivery(d);
    ASSERT_EQ(flows.sampledSpans().size(), 1u);
    std::vector<int> units;
    for (const PacketEvent &hop : flows.sampledSpans()[0].path)
        units.push_back(hop.unit);
    EXPECT_EQ(units, (std::vector<int>{ 0, 1, 2, 3, 4 }));
    EXPECT_EQ(flows.sampledSpans()[0].path.front().kind,
              TraceUnitKind::Endpoint);
}

// ---------------------------------------------------------------------
// Machine window computation
// ---------------------------------------------------------------------

MachineConfig
smallConfig(Cycle latency, Cycle lookahead)
{
    MachineConfig cfg;
    cfg.radix = { 2, 2, 2 };
    cfg.chip.endpoints_per_node = 2;
    cfg.use_packaging = false;
    cfg.fixed_torus_latency = latency;
    cfg.seed = 11;
    cfg.lookahead = lookahead;
    return cfg;
}

TEST(LookaheadWindow, AutoWindowIsMinTorusLatencyAndClamps)
{
    // Default lookahead = 1: the legacy per-cycle engine.
    {
        Machine m(smallConfig(20, 1));
        EXPECT_EQ(m.lookaheadCap(), 20u);
        EXPECT_EQ(m.lookaheadWindow(), 1u);
    }
    // 0 = auto: the machine's safe bound, the min torus link latency.
    {
        Machine m(smallConfig(20, 0));
        EXPECT_EQ(m.lookaheadWindow(), 20u);
    }
    // Explicit windows pass through below the cap and clamp above it.
    {
        Machine m(smallConfig(20, 5));
        EXPECT_EQ(m.lookaheadWindow(), 5u);
        m.setLookahead(100);
        EXPECT_EQ(m.lookaheadWindow(), 20u);
        m.setLookahead(3);
        EXPECT_EQ(m.lookaheadWindow(), 3u);
        m.setLookahead(0);
        EXPECT_EQ(m.lookaheadWindow(), 20u);
    }
    // k = 1 torus links degenerate to per-cycle barriers even on auto.
    {
        Machine m(smallConfig(1, 0));
        EXPECT_EQ(m.lookaheadCap(), 1u);
        EXPECT_EQ(m.lookaheadWindow(), 1u);
    }
}

TEST(LookaheadWindow, PackagingDerivedWindowIsMinOverMixedLatencies)
{
    MachineConfig cfg;
    cfg.radix = { 8, 4, 2 };
    cfg.chip.endpoints_per_node = 2;
    cfg.use_packaging = true; // backplane/rack-dependent link latencies
    cfg.seed = 11;
    cfg.lookahead = 0;
    Machine m(cfg);

    const TorusGeom geom(cfg.radix);
    Cycle expect = kNoCycle;
    for (NodeId n = 0; n < geom.numNodes(); ++n) {
        for (int dim = 0; dim < 3; ++dim) {
            for (Dir dir : kDirs) {
                const Cycle l =
                    PackagingModel::linkLatency(geom, n, dim, dir);
                if (l < expect)
                    expect = l;
            }
        }
    }
    ASSERT_NE(expect, kNoCycle);
    EXPECT_EQ(m.lookaheadCap(), expect);
    EXPECT_EQ(m.lookaheadWindow(), expect);
    EXPECT_GT(m.lookaheadWindow(), 1u)
        << "packaging latencies should allow a real window";
}

// ---------------------------------------------------------------------
// Byte-identity across threads and windows
// ---------------------------------------------------------------------

/** Every deterministic export a fully-instrumented run produces. */
struct RunExports
{
    std::uint64_t delivered = 0;
    Cycle final_cycle = 0;
    std::string metrics;
    std::string chrome;
    std::string flights;
    std::string timeseries;
    std::string heatmap;
    std::string audit;
};

void
expectIdentical(const RunExports &a, const RunExports &b,
                const std::string &what)
{
    EXPECT_EQ(a.delivered, b.delivered) << what;
    EXPECT_EQ(a.final_cycle, b.final_cycle) << what;
    EXPECT_EQ(a.metrics, b.metrics) << what << ": metrics JSON differs";
    EXPECT_EQ(a.chrome, b.chrome) << what << ": Chrome trace differs";
    EXPECT_EQ(a.flights, b.flights) << what << ": flight CSV differs";
    EXPECT_EQ(a.timeseries, b.timeseries)
        << what << ": time-series JSON differs";
    EXPECT_EQ(a.heatmap, b.heatmap) << what << ": heatmap CSV differs";
    EXPECT_EQ(a.audit, b.audit) << what << ": audit report differs";
}

Instrumentation
fullInstrumentation(bool with_trace = true)
{
    Instrumentation inst;
    inst.metrics = true;
    if (with_trace) {
        TraceConfig tcfg;
        tcfg.capacity = std::size_t{ 1 } << 16;
        inst.trace = tcfg;
    }
    TimeseriesConfig scfg;
    scfg.window = 64;
    inst.timeseries = scfg;
    AuditConfig acfg;
    acfg.audit_interval = 32;
    acfg.watchdog_interval = 16;
    inst.audit = acfg;
    return inst;
}

RunExports
captureExports(Machine &m)
{
    RunExports r;
    r.delivered = m.totalDelivered();
    r.final_cycle = m.now();
    r.metrics = m.metricsJson();
    if (m.trace() != nullptr) {
        r.chrome = m.traceChromeJson();
        r.flights = m.traceFlightCsv();
    }
    r.timeseries = m.timeseriesJson();
    r.heatmap = m.heatmapCsv();
    r.audit = m.audit()->reportJson();
    return r;
}

/** Figure 9-style throughput workload: uniform batch over all cores,
 * full instrumentation, driver feedback through the serial phase. */
RunExports
runFig9Style(int threads, Cycle lookahead)
{
    MachineConfig cfg;
    cfg.radix = { 2, 2, 2 };
    cfg.chip.endpoints_per_node = 2;
    cfg.use_packaging = false;
    cfg.fixed_torus_latency = 8;
    cfg.seed = 11;
    cfg.threads = threads;
    cfg.lookahead = lookahead;
    Machine m(cfg);
    m.attachInstrumentation(fullInstrumentation());

    UniformPattern pat(m.geom());
    BatchDriver::Config dcfg;
    dcfg.cores = { 0, 1 };
    dcfg.batch_size = 12;
    dcfg.pattern = &pat;
    BatchDriver driver(m, dcfg);
    m.engine().add(driver);

    EXPECT_EQ(m.run(RunSpec::untilDelivered(driver.deliveredTarget(),
                                            1000000))
                  .reason,
              StopReason::Delivered)
        << "threads=" << threads << " lookahead=" << lookahead;
    EXPECT_EQ(m.run(RunSpec::untilQuiescent(100000)).reason,
              StopReason::Quiescent)
        << "threads=" << threads << " lookahead=" << lookahead;
    return captureExports(m);
}

TEST(LookaheadDeterminism, Fig9ExportsByteIdenticalAcrossThreads)
{
    // At any *fixed* window the thread count must be unobservable.
    // (Across windows a driver workload may differ: serial-to-shard
    // feedback lands at the next window boundary, not the next cycle.)
    for (Cycle lookahead : { Cycle{ 1 }, Cycle{ 0 } }) {
        const RunExports serial = runFig9Style(1, lookahead);
        EXPECT_GT(serial.delivered, 0u);
        EXPECT_NE(serial.metrics.find("\"delivered\""), std::string::npos);
        const std::string tag =
            "fig9 lookahead=" + std::to_string(lookahead);
        expectIdentical(serial, runFig9Style(2, lookahead),
                        tag + " threads=2");
        expectIdentical(serial, runFig9Style(4, lookahead),
                        tag + " threads=4");
    }
}

/**
 * Feedback-free workload: every packet is pre-injected before the run
 * and nothing reaches back from the serial phase into the shards (no
 * drivers, handlers, or read replies). For these, the window itself is
 * unobservable: window-k runs are byte-identical to window-1 runs at
 * every thread count, the strongest form of the lookahead contract.
 */
MachineConfig
preInjectedConfig(int threads, Cycle lookahead, std::uint64_t seed)
{
    MachineConfig cfg;
    cfg.radix = { 2, 2, 2 };
    cfg.chip.endpoints_per_node = 4;
    cfg.use_packaging = false;
    cfg.fixed_torus_latency = 12;
    cfg.seed = seed;
    cfg.threads = threads;
    cfg.lookahead = lookahead;
    return cfg;
}

/** Send up to 200 seeded writes between the nodes of @p m. */
void
preInject(Machine &m, std::uint64_t seed)
{
    Rng traffic(seed * 1315423911ULL + 1);
    const auto nodes = static_cast<std::uint64_t>(m.geom().numNodes());
    for (int i = 0; i < 200; ++i) {
        const EndpointAddr src{ static_cast<NodeId>(traffic.below(nodes)),
                                static_cast<int>(traffic.below(4)) };
        const EndpointAddr dst{ static_cast<NodeId>(traffic.below(nodes)),
                                static_cast<int>(traffic.below(4)) };
        if (src.node == dst.node)
            continue;
        const int size = 1 + static_cast<int>(traffic.below(2));
        m.send(m.makeWrite(src, dst, 0, size));
    }
}

RunExports
runPreInjected(int threads, Cycle lookahead, std::uint64_t seed = 9)
{
    Machine m(preInjectedConfig(threads, lookahead, seed));
    m.attachInstrumentation(fullInstrumentation());
    preInject(m, seed);
    m.run(RunSpec::forCycles(2048));
    return captureExports(m);
}

TEST(LookaheadDeterminism, FeedbackFreeRunsByteIdenticalAcrossWindows)
{
    const RunExports base = runPreInjected(1, 1);
    EXPECT_GT(base.delivered, 0u);
    for (int threads : { 1, 2, 4 }) {
        for (Cycle lookahead : { Cycle{ 1 }, Cycle{ 0 }, Cycle{ 5 } }) {
            if (threads == 1 && lookahead == 1)
                continue;
            expectIdentical(base, runPreInjected(threads, lookahead),
                            "pre-injected threads=" + std::to_string(threads)
                                + " lookahead="
                                + std::to_string(lookahead));
        }
    }
}

TEST(LookaheadDeterminism, OneCycleSamplerReadsWindowFinalState)
{
    // A 1-cycle sampling window observes every cycle, so every cycle
    // must end a lookahead window; otherwise its instant values (chip
    // credits and occupancy, packet ages) read shards that have ticked
    // ahead of the sample.
    auto series = [](Cycle lookahead) {
        Machine m(preInjectedConfig(1, lookahead, 9));
        Instrumentation inst;
        TimeseriesConfig scfg;
        scfg.window = 1;
        inst.timeseries = scfg;
        m.attachInstrumentation(inst);
        preInject(m, 9);
        m.run(RunSpec::forCycles(600));
        return m.timeseriesJson();
    };
    const std::string per_cycle = series(1);
    EXPECT_NE(per_cycle.find("\"chip.0.credits\""), std::string::npos);
    EXPECT_EQ(per_cycle, series(0))
        << "a window-1 time series differs under lookahead windows";
}

// ---------------------------------------------------------------------
// Property test: seeded randomized configs
// ---------------------------------------------------------------------

TEST(LookaheadDeterminism, RandomizedConfigsSerialVsThreadedByteEqual)
{
    const std::vector<std::vector<int>> radixes{
        { 2, 2, 2 }, { 4, 2, 2 }, { 2, 3, 2 }, { 3, 2, 2 }
    };
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        Rng gen(seed * 2654435761ULL + 3);
        MachineConfig cfg;
        cfg.radix = radixes[gen.below(radixes.size())];
        cfg.chip.endpoints_per_node = gen.below(2) == 0 ? 2 : 4;
        cfg.use_packaging = false;
        cfg.fixed_torus_latency = 2 + static_cast<Cycle>(gen.below(19));
        cfg.seed = seed;
        // Tracing on even seeds only: traced machines also pin the
        // staged trace path and the sleeping routers' settled stall
        // samples.
        const bool with_trace = seed % 2 == 0;

        auto run = [&](int threads, Cycle lookahead) {
            MachineConfig c = cfg;
            c.threads = threads;
            c.lookahead = lookahead;
            Machine m(c);
            m.attachInstrumentation(fullInstrumentation(with_trace));
            Rng traffic(seed * 1315423911ULL + 7);
            const auto nodes =
                static_cast<std::uint64_t>(m.geom().numNodes());
            const auto eps = static_cast<std::uint64_t>(
                cfg.chip.endpoints_per_node);
            for (int i = 0; i < 150; ++i) {
                const EndpointAddr src{
                    static_cast<NodeId>(traffic.below(nodes)),
                    static_cast<int>(traffic.below(eps))
                };
                const EndpointAddr dst{
                    static_cast<NodeId>(traffic.below(nodes)),
                    static_cast<int>(traffic.below(eps))
                };
                if (src.node == dst.node)
                    continue;
                const int size = 1 + static_cast<int>(traffic.below(2));
                m.send(m.makeWrite(src, dst, 0, size));
            }
            m.run(RunSpec::forCycles(1536));
            EXPECT_FALSE(m.audit()->tripped())
                << "seed=" << seed << " threads=" << threads;
            return captureExports(m);
        };

        const RunExports base = run(1, 1);
        EXPECT_GT(base.delivered, 0u) << "seed=" << seed;
        const std::string tag =
            "seed=" + std::to_string(seed) + " latency="
            + std::to_string(cfg.fixed_torus_latency);
        expectIdentical(base, run(1, 0), tag + " serial windowed");
        expectIdentical(base, run(2, 0), tag + " threads=2 windowed");
        expectIdentical(base, run(4, 0), tag + " threads=4 windowed");
    }
}

// ---------------------------------------------------------------------
// Seeded-fault watchdog equality under lookahead
// ---------------------------------------------------------------------

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

TEST(LookaheadDeterminism, FaultedWatchdogTripsAtSameCycleUnderLookahead)
{
    // The wedging workload is pre-injected (feedback-free), so the trip
    // cycle and snapshot must agree across thread counts *and* windows;
    // the full report is compared across threads at each fixed window
    // (its audit-pass counts depend on the run-loop stride).
    Cycle ref_trip = 0;
    bool have_ref = false;
    for (Cycle lookahead : { Cycle{ 1 }, Cycle{ 0 } }) {
        std::string window_report;
        for (int threads : { 1, 2, 4 }) {
            MachineConfig cfg;
            cfg.radix = { 4, 2, 2 };
            cfg.chip.endpoints_per_node = 4;
            cfg.use_packaging = false;
            cfg.fixed_torus_latency = 12;
            cfg.seed = 7;
            cfg.threads = threads;
            cfg.lookahead = lookahead;
            Machine m(cfg);

            Instrumentation inst;
            inst.metrics = true;
            NetworkFault fault;
            fault.kind = NetworkFault::Kind::WithholdTorusCredits;
            fault.node = 0;
            inst.faults.push_back(fault);
            AuditConfig acfg;
            acfg.audit_interval = 32;
            acfg.watchdog_interval = 16;
            acfg.stall_threshold = 300;
            inst.audit = acfg;
            m.attachInstrumentation(inst);

            const NodeId dst = m.geom().id({ 2, 0, 0 });
            const auto sent = sendForcedXPlus(m, 0, dst, 40);
            EXPECT_FALSE(m.run(RunSpec::untilDelivered(sent, 100000)).reason == StopReason::Delivered)
                << "threads=" << threads << " lookahead=" << lookahead;

            Auditor &a = *m.audit();
            ASSERT_TRUE(a.tripped())
                << "threads=" << threads << " lookahead=" << lookahead;
            const MachineSnapshot *snap = a.tripSnapshot();
            ASSERT_NE(snap, nullptr);
            if (!have_ref) {
                ref_trip = snap->now;
                have_ref = true;
                EXPECT_GT(ref_trip, 0u);
            } else {
                EXPECT_EQ(snap->now, ref_trip)
                    << "threads=" << threads
                    << " lookahead=" << lookahead;
            }
            if (threads == 1)
                window_report = a.reportJson();
            else
                EXPECT_EQ(a.reportJson(), window_report)
                    << "threads=" << threads
                    << " lookahead=" << lookahead;
        }
    }
}

// ---------------------------------------------------------------------
// Pinned 8x8x8 short-run regression (bench_host_speed --cycles 200)
// ---------------------------------------------------------------------

/** Replicates bench_host_speed's runLoad() at --cycles 200 defaults. */
std::uint64_t
runBenchLoad8x8x8(int threads)
{
    const std::vector<int> radix{ 8, 8, 8 };

    // The bench's default rate: 60% of the analytic saturation point.
    ChipConfig chip;
    chip.endpoints_per_node = 8;
    const TorusGeom geom(radix);
    const ChipLayout layout(8, 3);
    LoadModel lm(geom, layout, chip, 1);
    Rng lrng(2);
    UniformPattern uniform(geom);
    lm.addPattern(0, uniform, firstEndpoints(4), 300, lrng);
    const double rate = 0.6 * lm.idealCoreThroughput(0);

    MachineConfig cfg;
    cfg.radix = radix;
    cfg.chip.endpoints_per_node = 8;
    cfg.use_packaging = false;
    cfg.fixed_torus_latency = 20;
    cfg.seed = 17;
    cfg.threads = threads;
    cfg.lookahead = 0;
    Machine m(cfg);
    EXPECT_EQ(m.lookaheadWindow(), 20u);

    UniformPattern pat(m.geom());
    OpenLoopDriver::Config dcfg;
    dcfg.cores = firstEndpoints(4);
    dcfg.rate = rate;
    dcfg.pattern = &pat;
    OpenLoopDriver driver(m, dcfg);
    m.engine().add(driver);

    m.run(RunSpec::forCycles(200));
    EXPECT_EQ(m.now(), 200u);
    return m.totalDelivered();
}

TEST(LookaheadRegression, BenchHostSpeed8x8x8DeliveredCountIsPinned)
{
    // Pinned from the first audited run of this workload; a change here
    // means the simulated machine itself changed, not just its speed.
    constexpr std::uint64_t kExpectedDelivered = 1791;
    const std::uint64_t serial = runBenchLoad8x8x8(1);
    EXPECT_EQ(serial, kExpectedDelivered);
    EXPECT_EQ(runBenchLoad8x8x8(4), serial)
        << "threaded 8x8x8 short run diverged from serial";
}

} // namespace
} // namespace anton2
