/**
 * @file
 * Serial-vs-threaded determinism suite for the sharded engine.
 *
 * The engine's conservative-window schedule (every inter-component hop is
 * a Wire with latency >= 1, plus a serial per-cycle phase for delivery
 * side effects and trace-lane merging) makes the thread count
 * unobservable: a run at 2 or 4 workers must produce byte-identical
 * exports to the serial run. These tests pin that contract for the
 * Figure 9-style throughput workload (BatchDriver + uniform traffic,
 * full instrumentation attached) and the Figure 11-style ping-pong
 * (counted writes + handler chains), and check that a seeded credit
 * fault trips the watchdog at the same cycle regardless of thread
 * count. Engine-level tests cover the shard/serial-phase schedule and
 * the runUntil check stride, and one test the one-bundle attach.
 */
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "core/machine.hpp"
#include "halo.hpp"
#include "routing/route.hpp"
#include "sim/engine.hpp"
#include "sim/rng.hpp"
#include "traffic/driver.hpp"
#include "traffic/patterns.hpp"

namespace anton2 {
namespace {

// ---------------------------------------------------------------------
// Engine schedule
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

TEST(Engine, ShardedTicksRunBeforeSerialPhaseAndTail)
{
    Engine e;
    TickCounter sharded;
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

    e.run(3);
    EXPECT_EQ(e.now(), 3u);
    EXPECT_EQ(sharded.ticks(), 3);
    EXPECT_EQ(tail.ticks(), 3);
    // Each cycle: shards tick, then the serial phase, then the tail.
    EXPECT_EQ(sharded_at_phase, (std::vector<int>{ 1, 2, 3 }));
    EXPECT_EQ(tail_at_phase, (std::vector<int>{ 0, 1, 2 }));
}

TEST(Engine, ThreadedScheduleMatchesSerial)
{
    for (int threads : { 1, 2, 4 }) {
        Engine e;
        e.setThreads(threads);
        std::vector<TickCounter> cs(8);
        for (auto &c : cs) {
            const std::size_t shard = e.newShard();
            e.addWakeable(shard, c, HostCompClass::Other);
        }
        int phase_runs = 0;
        e.addSerialPhase([&](Cycle) { ++phase_runs; });
        e.run(10);
        EXPECT_EQ(e.now(), 10u) << "threads=" << threads;
        EXPECT_EQ(phase_runs, 10) << "threads=" << threads;
        for (const auto &c : cs)
            EXPECT_EQ(c.ticks(), 10) << "threads=" << threads;
    }
}

TEST(Engine, RunUntilStrideOneIsExact)
{
    Engine e;
    TickCounter c;
    e.add(c);
    EXPECT_TRUE(e.runUntil([&] { return e.now() >= 5; }, 100));
    EXPECT_EQ(e.now(), 5u);
}

TEST(Engine, RunUntilStrideChecksAtIntervalWithFinalExactCheck)
{
    // With check_every = 8 a predicate that turns true at cycle 5 is
    // noticed at the next check (cycle 8) - legal for monotone
    // predicates, and the documented trade of a quiescence wait.
    Engine e;
    TickCounter c;
    e.add(c);
    EXPECT_TRUE(e.runUntil([&] { return e.now() >= 5; }, 100,
                           /*check_every=*/8));
    EXPECT_EQ(e.now(), 8u);

    // The cycle budget still bounds the run exactly, and the final
    // check is performed even when it does not land on the stride.
    Engine e2;
    TickCounter c2;
    e2.add(c2);
    EXPECT_TRUE(e2.runUntil([&] { return e2.now() >= 10; }, 10,
                            /*check_every=*/64));
    EXPECT_EQ(e2.now(), 10u);

    // A predicate that never holds exhausts the budget and reports so.
    Engine e3;
    TickCounter c3;
    e3.add(c3);
    EXPECT_FALSE(e3.runUntil([] { return false; }, 20, /*check_every=*/7));
    EXPECT_EQ(e3.now(), 20u);
}

// ---------------------------------------------------------------------
// Machine-level byte identity
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
fullInstrumentation()
{
    Instrumentation inst;
    inst.metrics = true;
    TraceConfig tcfg;
    tcfg.capacity = std::size_t{ 1 } << 16;
    inst.trace = tcfg;
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
    r.chrome = m.traceChromeJson();
    r.flights = m.traceFlightCsv();
    r.timeseries = m.timeseriesJson();
    r.heatmap = m.heatmapCsv();
    r.audit = m.audit()->reportJson();
    return r;
}

/** Figure 9-style throughput workload: uniform batch over all cores. */
RunExports
runFig9Style(int threads)
{
    MachineConfig cfg;
    cfg.radix = { 2, 2, 2 };
    cfg.chip.endpoints_per_node = 2;
    cfg.use_packaging = false;
    cfg.fixed_torus_latency = 8;
    cfg.seed = 11;
    cfg.threads = threads;
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
        << "threads=" << threads;
    EXPECT_EQ(m.run(RunSpec::untilQuiescent(100000)).reason,
              StopReason::Quiescent)
        << "threads=" << threads;
    return captureExports(m);
}

TEST(ThreadedDeterminism, Fig9WorkloadExportsAreByteIdentical)
{
    const RunExports serial = runFig9Style(1);
    EXPECT_GT(serial.delivered, 0u);
    // A smoke check that the exports have substance before comparing.
    EXPECT_NE(serial.metrics.find("\"delivered\""), std::string::npos);
    EXPECT_NE(serial.chrome.find("traceEvents"), std::string::npos);

    expectIdentical(serial, runFig9Style(2), "fig9 threads=2");
    expectIdentical(serial, runFig9Style(4), "fig9 threads=4");
}

/** Figure 11-style ping-pong: counted writes + handler chains. */
RunExports
runFig11Style(int threads)
{
    MachineConfig cfg;
    cfg.radix = { 4, 2, 2 };
    cfg.chip.endpoints_per_node = 4;
    cfg.use_packaging = false;
    cfg.fixed_torus_latency = 12;
    cfg.seed = 31;
    cfg.threads = threads;
    Machine m(cfg);
    m.attachInstrumentation(fullInstrumentation());

    const EndpointAddr a{ m.geom().id({ 0, 0, 0 }), 0 };
    const EndpointAddr b{ m.geom().id({ 2, 1, 0 }), 1 };
    const int rounds = 6;
    int completed = 0;
    bool done = false;

    std::function<void()> send_ping = [&] {
        m.endpoint(b).armCounter(1, 1);
        m.endpoint(a).armCounter(2, 1);
        m.send(m.makeWrite(a, b, 0, 1, /*counter=*/1));
    };
    m.endpoint(b).setHandlerFn([&](std::int32_t, Cycle) {
        m.send(m.makeWrite(b, a, 0, 1, /*counter=*/2));
    });
    m.endpoint(a).setHandlerFn([&](std::int32_t, Cycle) {
        if (++completed >= rounds)
            done = true;
        else
            send_ping();
    });

    send_ping();
    RunSpec spec;
    spec.max_cycles = 1000000;
    spec.stop = [&] { return done; };
    EXPECT_EQ(m.run(spec).reason, StopReason::Predicate)
        << "threads=" << threads;
    m.endpoint(a).setHandlerFn(nullptr);
    m.endpoint(b).setHandlerFn(nullptr);
    EXPECT_EQ(m.run(RunSpec::untilQuiescent(100000)).reason,
              StopReason::Quiescent)
        << "threads=" << threads;
    return captureExports(m);
}

TEST(ThreadedDeterminism, Fig11PingPongExportsAreByteIdentical)
{
    const RunExports serial = runFig11Style(1);
    EXPECT_EQ(serial.delivered, 12u); // 6 rounds x 2 counted writes
    expectIdentical(serial, runFig11Style(2), "fig11 threads=2");
    expectIdentical(serial, runFig11Style(4), "fig11 threads=4");
}

/** MD-halo steps: multicast copies made on lanes, their originals
 * released across chips at the barrier. */
RunExports
runHaloStyle(int threads)
{
    MachineConfig cfg;
    cfg.radix = { 3, 3, 3 };
    cfg.chip.endpoints_per_node = 2;
    cfg.use_packaging = false;
    cfg.fixed_torus_latency = 8;
    cfg.seed = 13;
    cfg.threads = threads;
    cfg.lookahead = 0;
    Machine m(cfg);
    m.attachInstrumentation(fullInstrumentation());
    const auto groups = test::installHalo(m, 2);
    std::uint64_t expect = 0;
    for (int step = 0; step < 2; ++step) {
        expect += test::sendHaloStep(m, groups, 2, 2, step + 1);
        EXPECT_EQ(m.run(RunSpec::untilQuiescent(1000000)).reason,
                  StopReason::Quiescent)
            << "threads=" << threads;
    }
    EXPECT_EQ(m.totalDelivered(), expect) << "threads=" << threads;
    EXPECT_EQ(test::livePackets(m), 0u) << "threads=" << threads;
    return captureExports(m);
}

TEST(ThreadedDeterminism, HaloMulticastExportsAreByteIdentical)
{
    const RunExports serial = runHaloStyle(1);
    EXPECT_GT(serial.delivered, 0u);
    expectIdentical(serial, runHaloStyle(2), "halo threads=2");
    expectIdentical(serial, runHaloStyle(4), "halo threads=4");
}

// ---------------------------------------------------------------------
// Seeded-fault watchdog equality
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

/** A credit-withholding fault must wedge the run and trip the watchdog
 * at a cycle that does not depend on the thread count. */
TEST(ThreadedDeterminism, FaultedWatchdogTripsAtSameCycle)
{
    Cycle serial_trip = 0;
    std::string serial_report;
    for (int threads : { 1, 2, 4 }) {
        MachineConfig cfg;
        cfg.radix = { 4, 2, 2 };
        cfg.chip.endpoints_per_node = 4;
        cfg.use_packaging = false;
        cfg.fixed_torus_latency = 12;
        cfg.seed = 7;
        cfg.threads = threads;
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
            << "threads=" << threads;

        Auditor &a = *m.audit();
        ASSERT_TRUE(a.tripped()) << "threads=" << threads;
        const MachineSnapshot *snap = a.tripSnapshot();
        ASSERT_NE(snap, nullptr) << "threads=" << threads;
        if (threads == 1) {
            serial_trip = snap->now;
            serial_report = a.reportJson();
            EXPECT_GT(serial_trip, 0u);
        } else {
            EXPECT_EQ(snap->now, serial_trip) << "threads=" << threads;
            EXPECT_EQ(a.reportJson(), serial_report)
                << "threads=" << threads;
        }
    }
}

// ---------------------------------------------------------------------
// API surface
// ---------------------------------------------------------------------

TEST(Instrumentation, SecondAttachThrows)
{
    // A machine takes one bundle. A second attachInstrumentation() throws
    // before it arms a fault or attaches a layer, whatever it carries,
    // and the first bundle goes on recording.
    MachineConfig cfg;
    cfg.radix = { 4, 2, 2 };
    cfg.chip.endpoints_per_node = 4;
    cfg.use_packaging = false;
    cfg.fixed_torus_latency = 12;
    cfg.seed = 7;
    Machine m(cfg);
    Instrumentation first;
    first.metrics = true;
    m.attachInstrumentation(first);
    const MetricsRegistry *reg = m.metrics();
    ASSERT_NE(reg, nullptr);

    Instrumentation second = fullInstrumentation();
    second.flows = FlowProbeConfig{};
    // Withheld credits on node 0's X+ slice-0 link wedge the traffic
    // below (FaultedWatchdogTripsAtSameCycle).
    NetworkFault fault;
    fault.kind = NetworkFault::Kind::WithholdTorusCredits;
    fault.node = 0;
    second.faults.push_back(fault);
    EXPECT_THROW(m.attachInstrumentation(second), std::logic_error);
    EXPECT_THROW(m.attachInstrumentation(first), std::logic_error);
    EXPECT_THROW(m.attachInstrumentation(Instrumentation{}),
                 std::logic_error);
    EXPECT_EQ(m.metrics(), reg);
    EXPECT_EQ(m.trace(), nullptr);
    EXPECT_EQ(m.flows(), nullptr);
    EXPECT_EQ(m.timeseries(), nullptr);
    EXPECT_EQ(m.audit(), nullptr);
    EXPECT_EQ(m.chip(0).router(0).stallSampler(), nullptr);

    // The refused fault was never armed: the traffic it would wedge
    // delivers, exactly as on a machine that took the first bundle only.
    Machine twin(cfg);
    twin.attachInstrumentation(first);
    for (Machine *x : { &m, &twin }) {
        const auto sent =
            sendForcedXPlus(*x, 0, x->geom().id({ 2, 0, 0 }), 40);
        EXPECT_EQ(x->run(RunSpec::untilDelivered(sent, 100000)).reason,
                  StopReason::Delivered);
    }
    EXPECT_EQ(m.now(), twin.now());
    EXPECT_EQ(m.metricsJson(), twin.metricsJson());
}

} // namespace
} // namespace anton2
