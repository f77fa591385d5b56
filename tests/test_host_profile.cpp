/**
 * @file
 * Engine self-profiling suite (src/sim/host_profile.*): the opt-in
 * profiler that attributes the lookahead-window engine's wall time to
 * per-lane shard ticks, barrier waits, and the serial replay, with
 * sampled per-shard straggler and per-component-class attribution.
 *
 * What is pinned here:
 *  - off by default means *zero* profiling clock reads on the engine
 *    hot path (the clock-read counter proves it);
 *  - the per-lane identity tick + wait + serial == profiledSeconds()
 *    (wait is derived as the lane's parallel-span remainder, so the
 *    books balance by construction);
 *  - the `machine.host.engine.*` gauge schema that reports and benches
 *    surface, and its internal consistency;
 *  - sampled windows name a straggler shard and attribute class time;
 *  - every deterministic export is byte-identical with profiling on or
 *    off, at 1/2/4 threads and per-cycle or auto windows;
 *  - the Chrome-trace host timeline loads and covers the run's windows;
 *  - Machine::hostJson(): build + run phase seconds never exceed the
 *    wall seconds, the run shape (threads, window) rides along, and
 *    engine.* gauges appear exactly when the profiler is attached;
 *  - the window-aware --progress line (running rate + ETA);
 *  - bench flag validation: --topk, --host-profile-sample, unwritable
 *    timeline paths, timeline vs. multi-run sweeps, --warmup, --cores,
 *    a --report no run filled, every numeric row of the shared flag
 *    table below its range, an output probe that leaves no file behind,
 *    and the OptionRegistry's ranges and --name=value syntax.
 */
#include <gtest/gtest.h>

#include <climits>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "core/machine.hpp"
#include "sim/host_profile.hpp"
#include "sim/rng.hpp"
#include "sim/timeseries.hpp"
#include "tiny_json.hpp"

using namespace anton2;
using anton2::testjson::TinyJsonParser;

namespace {

/** Feedback-free workload (pre-injected traffic, no drivers): the
 * strongest determinism case - window size and thread count are both
 * unobservable, so one baseline covers the whole profiling matrix. */
Machine
makeLoadedMachine(int threads, Cycle lookahead)
{
    MachineConfig cfg;
    cfg.radix = { 2, 2, 2 };
    cfg.chip.endpoints_per_node = 4;
    cfg.use_packaging = false;
    cfg.fixed_torus_latency = 12;
    cfg.seed = 9;
    cfg.threads = threads;
    cfg.lookahead = lookahead;
    return Machine(cfg);
}

/** Attach the engine profiler through the unified bundle (the only
 * attach path). */
void
attachHostProfile(Machine &m,
                  EngineProfileConfig cfg = EngineProfileConfig{})
{
    Instrumentation inst;
    inst.host_profile = cfg;
    m.attachInstrumentation(inst);
}

void
preInject(Machine &m, int packets = 160)
{
    Rng traffic(4242);
    const auto nodes = static_cast<std::uint64_t>(m.geom().numNodes());
    for (int i = 0; i < packets; ++i) {
        const EndpointAddr src{ static_cast<NodeId>(traffic.below(nodes)),
                                static_cast<int>(traffic.below(4)) };
        const EndpointAddr dst{ static_cast<NodeId>(traffic.below(nodes)),
                                static_cast<int>(traffic.below(4)) };
        if (src.node == dst.node)
            continue;
        m.send(m.makeWrite(src, dst, 0,
                           1 + static_cast<int>(traffic.below(2))));
    }
}

struct RunExports
{
    std::uint64_t delivered = 0;
    std::string metrics;
    std::string chrome;
    std::string flights;
    std::string timeseries;
    std::string heatmap;
    std::string audit;
};

RunExports
runWorkload(int threads, Cycle lookahead, bool profile)
{
    Machine m = makeLoadedMachine(threads, lookahead);
    Instrumentation inst;
    inst.metrics = true;
    TraceConfig tcfg;
    tcfg.capacity = std::size_t{ 1 } << 14;
    inst.trace = tcfg;
    TimeseriesConfig scfg;
    scfg.window = 64;
    inst.timeseries = scfg;
    AuditConfig acfg;
    acfg.audit_interval = 64;
    acfg.watchdog_interval = 32;
    inst.audit = acfg;
    if (profile)
        inst.host_profile = EngineProfileConfig{};
    m.attachInstrumentation(inst);

    preInject(m);
    m.run(RunSpec::forCycles(1024));

    RunExports r;
    r.delivered = m.totalDelivered();
    r.metrics = m.metricsJson();
    r.chrome = m.traceChromeJson();
    r.flights = m.traceFlightCsv();
    r.timeseries = m.timeseriesJson();
    r.heatmap = m.heatmapCsv();
    r.audit = m.audit()->reportJson();
    return r;
}

} // namespace

// ---------------------------------------------------------------------
// Zero overhead when off
// ---------------------------------------------------------------------

TEST(HostProfileOff, NoProfilingClockReadsWithoutProfiler)
{
    // An unprofiled run - threaded and windowed, the full hot path -
    // must not touch the profiling clock at all. The audit counter
    // wraps every prof_detail::nowNs() call, so a zero delta is a
    // zero-clock-read proof, not a sampling argument.
    Machine m = makeLoadedMachine(4, 0);
    preInject(m);
    const std::uint64_t before = hostProfileClockReads();
    m.run(RunSpec::forCycles(1024));
    EXPECT_EQ(hostProfileClockReads() - before, 0u)
        << "engine hot path read the profiling clock with no profiler "
           "attached";
    EXPECT_GT(m.totalDelivered(), 0u);
}

TEST(HostProfileOff, AttachedProfilerDoesReadClocks)
{
    // Control for the test above: with the profiler attached the same
    // workload must produce a nonzero delta, proving the counter is
    // actually wired to the clock reads the off-test asserts away.
    Machine m = makeLoadedMachine(4, 0);
    attachHostProfile(m);
    preInject(m);
    const std::uint64_t before = hostProfileClockReads();
    m.run(RunSpec::forCycles(1024));
    EXPECT_GT(hostProfileClockReads() - before, 0u);
}

// ---------------------------------------------------------------------
// Per-lane accounting identity
// ---------------------------------------------------------------------

TEST(EngineProfiler, LaneTickWaitSerialSumToProfiledSeconds)
{
    for (int threads : { 1, 2, 4 }) {
        Machine m = makeLoadedMachine(threads, 0);
        attachHostProfile(m);
        preInject(m);
        m.run(RunSpec::forCycles(1024));

        const EngineProfiler &p = *m.hostProfile();
        ASSERT_GT(p.windows(), 0u) << "threads=" << threads;
        EXPECT_GT(p.profiledSeconds(), 0.0);
        EXPECT_EQ(p.profiledCycles(), Cycle{ 1024 });
        ASSERT_GE(p.lanes(), 1u);
        for (std::size_t l = 0; l < p.lanes(); ++l) {
            // wait is defined as the lane's parallel-span remainder and
            // serial replay blocks every lane, so each lane's books
            // must balance to the profiled wall time exactly (modulo
            // accumulation roundoff).
            const double sum = p.laneTickSeconds(l)
                               + p.laneWaitSeconds(l)
                               + p.serialSeconds();
            EXPECT_NEAR(sum, p.profiledSeconds(),
                        1e-6 + 1e-9 * p.profiledSeconds())
                << "threads=" << threads << " lane=" << l;
            EXPECT_GE(p.laneTickSeconds(l), 0.0);
            EXPECT_GE(p.laneWaitSeconds(l), 0.0);
        }
        EXPECT_GE(p.tickSecondsMax(),
                  p.tickSecondsMean() - 1e-12);
        if (p.tickSecondsMean() > 0.0) {
            EXPECT_GE(p.imbalance(), 1.0 - 1e-9);
        }
    }
}

TEST(EngineProfiler, SampledWindowsNameStragglerAndClasses)
{
    Machine m = makeLoadedMachine(2, 0);
    EngineProfileConfig cfg;
    cfg.sample_every = 1; // attribute every window
    attachHostProfile(m, cfg);
    preInject(m);
    m.run(RunSpec::forCycles(1024));

    const EngineProfiler &p = *m.hostProfile();
    EXPECT_EQ(p.sampledWindows(), p.windows());
    EXPECT_EQ(p.shards(), 8u); // 2x2x2 chips, one shard each
    ASSERT_NE(p.stragglerShard(), EngineProfiler::npos);
    EXPECT_LT(p.stragglerShard(), p.shards());
    EXPECT_GT(p.stragglerWindows(), 0u);
    EXPECT_LE(p.stragglerWindows(), p.sampledWindows());
    EXPECT_GE(p.shardMaxSeconds(), p.shardMeanSeconds());

    // This workload ticks routers, channel adapters, and endpoints;
    // there is no link-layer component class in the chip build.
    EXPECT_GT(p.classSeconds(HostCompClass::Router), 0.0);
    EXPECT_GT(p.classSeconds(HostCompClass::ChannelAdapter), 0.0);
    EXPECT_GT(p.classSeconds(HostCompClass::Endpoint), 0.0);
    double class_total = 0.0;
    for (std::size_t c = 0; c < kNumHostCompClasses; ++c)
        class_total += p.classSeconds(static_cast<HostCompClass>(c));
    // Class time is a subset of tick time measured with extra clock
    // reads - it must stay in the same ballpark, never above the
    // total parallel time plus slack.
    double tick_total = 0.0;
    for (std::size_t l = 0; l < p.lanes(); ++l)
        tick_total += p.laneTickSeconds(l);
    EXPECT_LE(class_total, tick_total * 1.5 + 1e-3);
}

// ---------------------------------------------------------------------
// Gauge schema
// ---------------------------------------------------------------------

TEST(EngineProfiler, GaugeSchemaAndHostJsonRoundTrip)
{
    Machine m = makeLoadedMachine(2, 0);
    attachHostProfile(m);
    preInject(m);
    m.run(RunSpec::forCycles(1024));

    // The report's host section folds the engine gauges in as
    // machine.host.engine.*.
    const auto root = TinyJsonParser(m.hostJson()).parse();

    for (const char *key : {
             "machine.host.engine.windows",
             "machine.host.engine.sampled_windows",
             "machine.host.engine.lanes",
             "machine.host.engine.shards",
             "machine.host.engine.cycles",
             "machine.host.engine.profiled_seconds",
             "machine.host.engine.cycles_per_sec",
             "machine.host.engine.serial_seconds",
             "machine.host.engine.serial_fraction",
             "machine.host.engine.tick_seconds_max",
             "machine.host.engine.tick_seconds_mean",
             "machine.host.engine.imbalance",
             "machine.host.engine.straggler_shard",
             "machine.host.engine.straggler_windows",
             "machine.host.engine.straggler_share",
             "machine.host.engine.shard_max_seconds",
             "machine.host.engine.shard_mean_seconds",
             "machine.host.engine.class.router_seconds",
             "machine.host.engine.class.channel_adapter_seconds",
             "machine.host.engine.class.endpoint_seconds",
             "machine.host.engine.class.link_layer_seconds",
             "machine.host.engine.class.other_seconds",
             "machine.host.engine.lane.0.tick_seconds",
             "machine.host.engine.lane.0.wait_seconds",
             "machine.host.engine.lane.0.wait_fraction",
             "machine.host.engine.detail_windows",
             "machine.host.engine.detail_dropped",
         }) {
        EXPECT_TRUE(root->has(key)) << "missing gauge: " << key;
    }

    const EngineProfiler &p = *m.hostProfile();
    EXPECT_DOUBLE_EQ(root->at("machine.host.engine.windows").number,
                     static_cast<double>(p.windows()));
    EXPECT_DOUBLE_EQ(root->at("machine.host.engine.lanes").number,
                     static_cast<double>(p.lanes()));
    EXPECT_DOUBLE_EQ(
        root->at("machine.host.engine.profiled_seconds").number,
        p.profiledSeconds());
    // Profiled engine time is a subset of the time inside run(), and
    // so of the wall time.
    EXPECT_LE(root->at("machine.host.engine.profiled_seconds").number,
              root->at("machine.host.phase.run_seconds").number + 1e-6);
    EXPECT_LE(root->at("machine.host.engine.profiled_seconds").number,
              root->at("machine.host.wall_seconds").number + 1e-6);
}

// ---------------------------------------------------------------------
// Determinism: profiling must be unobservable in deterministic exports
// ---------------------------------------------------------------------

TEST(HostProfileDeterminism, ExportsByteIdenticalProfilingOnOrOff)
{
    const RunExports base = runWorkload(1, 1, /*profile=*/false);
    EXPECT_GT(base.delivered, 0u);
    for (int threads : { 1, 2, 4 }) {
        for (Cycle lookahead : { Cycle{ 1 }, Cycle{ 0 } }) {
            const RunExports on =
                runWorkload(threads, lookahead, /*profile=*/true);
            const std::string what = "threads="
                                     + std::to_string(threads)
                                     + " lookahead="
                                     + std::to_string(lookahead);
            EXPECT_EQ(base.delivered, on.delivered) << what;
            EXPECT_EQ(base.metrics, on.metrics)
                << what << ": metrics JSON differs with profiling on";
            EXPECT_EQ(base.chrome, on.chrome)
                << what << ": Chrome trace differs with profiling on";
            EXPECT_EQ(base.flights, on.flights)
                << what << ": flight CSV differs with profiling on";
            EXPECT_EQ(base.timeseries, on.timeseries)
                << what << ": time series differs with profiling on";
            EXPECT_EQ(base.heatmap, on.heatmap)
                << what << ": heatmap differs with profiling on";
            EXPECT_EQ(base.audit, on.audit)
                << what << ": audit report differs with profiling on";
        }
    }
}

// ---------------------------------------------------------------------
// Chrome-trace host timeline
// ---------------------------------------------------------------------

TEST(HostTimeline, ChromeJsonLoadsAndCoversWindows)
{
    Machine m = makeLoadedMachine(2, 0);
    attachHostProfile(m);
    preInject(m);
    m.run(RunSpec::forCycles(1024));

    const std::string json = m.hostTimelineChromeJson();
    const auto root = TinyJsonParser(json).parse();
    ASSERT_TRUE(root->has("traceEvents"));
    const auto &events = root->at("traceEvents");
    ASSERT_FALSE(events.array.empty());

    const EngineProfiler &p = *m.hostProfile();
    EXPECT_DOUBLE_EQ(root->path("otherData.windows").number,
                     static_cast<double>(p.windows()));
    EXPECT_DOUBLE_EQ(root->path("otherData.detail_windows").number,
                     static_cast<double>(p.detailWindows()));

    std::size_t slices = 0, serial_slices = 0;
    bool saw_process_name = false, saw_serial_thread = false;
    const double serial_tid = static_cast<double>(p.lanes());
    for (const auto &ev : events.array) {
        const std::string ph = ev->at("ph").string;
        if (ph == "M") {
            if (ev->at("name").string == "process_name")
                saw_process_name = true;
            if (ev->at("name").string == "thread_name"
                && ev->at("tid").number == serial_tid)
                saw_serial_thread = true;
            continue;
        }
        ASSERT_EQ(ph, "X");
        EXPECT_GE(ev->at("ts").number, 0.0);
        EXPECT_GE(ev->at("dur").number, 0.0);
        ++slices;
        if (ev->at("tid").number == serial_tid)
            ++serial_slices;
    }
    EXPECT_TRUE(saw_process_name);
    EXPECT_TRUE(saw_serial_thread);
    EXPECT_GT(slices, 0u);
    EXPECT_GT(serial_slices, 0u);
    // Every detail window contributes its serial-replay slice (lane
    // tick slices can be skipped when a lane recorded no span).
    EXPECT_EQ(serial_slices, p.detailWindows());
}

// ---------------------------------------------------------------------
// Machine host section
// ---------------------------------------------------------------------

TEST(MachineHostJson, PhaseSecondsNeverExceedWallSeconds)
{
    // Several runs with host work between them: build and run phases
    // are disjoint slices of [construction, end of the last run()].
    Machine m = makeLoadedMachine(1, 1);
    volatile double sink = 0.0;
    for (int i = 0; i < 50000; ++i)
        sink = sink + 1.0;
    preInject(m);
    for (int r = 0; r < 3; ++r) {
        m.run(RunSpec::forCycles(256));
        for (int i = 0; i < 50000; ++i)
            sink = sink + 1.0;
    }
    const auto root = TinyJsonParser(m.hostJson()).parse();
    const double wall = root->at("machine.host.wall_seconds").number;
    const double build = root->at("machine.host.phase.build_seconds").number;
    const double run = root->at("machine.host.phase.run_seconds").number;
    EXPECT_GT(build, 0.0);
    EXPECT_GT(run, 0.0);
    EXPECT_DOUBLE_EQ(run, m.hostRunSeconds());
    EXPECT_LE(build + run, wall + 1e-9);
    EXPECT_DOUBLE_EQ(root->at("machine.host.cycles").number, 768.0);
    EXPECT_GT(root->at("machine.host.cycles_per_sec").number, 0.0);
}

TEST(MachineHostJson, RunShapeAndEngineGaugesOnlyWithProfiler)
{
    Machine m = makeLoadedMachine(2, 0);
    preInject(m);
    m.run(RunSpec::forCycles(256));
    const std::string bare = m.hostJson();
    const auto root = TinyJsonParser(bare).parse();
    EXPECT_DOUBLE_EQ(root->at("machine.host.threads").number, 2.0);
    EXPECT_DOUBLE_EQ(root->at("machine.host.lookahead_window").number,
                     static_cast<double>(m.lookaheadWindow()));
    EXPECT_EQ(bare.find("machine.host.engine."), std::string::npos)
        << "engine gauges without an engine profiler";

    attachHostProfile(m);
    m.run(RunSpec::forCycles(256));
    EXPECT_NE(m.hostJson().find("machine.host.engine.windows"),
              std::string::npos);
}

TEST(MachineHostJson, AwakeFracIsThreadInvariantAndZeroWhenIdle)
{
    // Ticks are counted, never timed: the fraction is a function of the
    // schedule alone, so it is equal at every thread count for a fixed
    // window.
    std::vector<double> fracs;
    for (int threads : { 1, 2, 4 }) {
        Machine m = makeLoadedMachine(threads, 0);
        preInject(m);
        m.run(RunSpec::forCycles(512));
        const auto root = TinyJsonParser(m.hostJson()).parse();
        fracs.push_back(root->at("machine.host.awake_frac").number);
    }
    EXPECT_GT(fracs[0], 0.0);
    EXPECT_LT(fracs[0], 1.0);
    EXPECT_EQ(fracs[1], fracs[0]);
    EXPECT_EQ(fracs[2], fracs[0]);

    // An idle machine: every component ticks once (all start awake),
    // finds no work and sleeps for the rest of the run.
    MachineConfig cfg;
    cfg.radix = { 4, 4, 4 };
    cfg.chip.endpoints_per_node = 8;
    cfg.use_packaging = false;
    cfg.fixed_torus_latency = 20;
    cfg.lookahead = 0;
    Machine idle(cfg);
    idle.run(RunSpec::forCycles(1000));
    EXPECT_LE(idle.engine().ticksRun(), idle.engine().shardedCount());
    const auto root = TinyJsonParser(idle.hostJson()).parse();
    EXPECT_LE(root->at("machine.host.awake_frac").number, 1.0 / 1000.0);
}

// ---------------------------------------------------------------------
// Window-aware --progress line
// ---------------------------------------------------------------------

TEST(ProgressMeter, WindowRateAndEtaFromProfiler)
{
    std::FILE *out = std::tmpfile();
    ASSERT_NE(out, nullptr);
    ProgressMeter::Config cfg;
    cfg.check_every = 1;
    cfg.min_seconds = 0.0;
    cfg.out = out;
    ProgressMeter pm(cfg);
    pm.setRateFn([] { return 2.0e6; });
    pm.setTargetCycles(2'000'000);
    pm.tick(0);       // primes the clock
    pm.tick(1000);    // prints using the wired 2 Mcyc/s rate
    pm.finish();
    EXPECT_EQ(pm.linesPrinted(), 1u);

    std::rewind(out);
    char buf[512] = {};
    const auto n = std::fread(buf, 1, sizeof(buf) - 1, out);
    const std::string line(buf, n);
    std::fclose(out);
    EXPECT_NE(line.find("2.00 Mcyc/s (win)"), std::string::npos) << line;
    EXPECT_NE(line.find("eta 1s"), std::string::npos) << line;
}

TEST(ProgressMeter, FallsBackToRawRateWithoutProfiler)
{
    std::FILE *out = std::tmpfile();
    ASSERT_NE(out, nullptr);
    ProgressMeter::Config cfg;
    cfg.check_every = 1;
    cfg.min_seconds = 0.0;
    cfg.out = out;
    ProgressMeter pm(cfg);
    pm.tick(0);
    pm.tick(1000);
    pm.finish();

    std::rewind(out);
    char buf[512] = {};
    const auto n = std::fread(buf, 1, sizeof(buf) - 1, out);
    const std::string line(buf, n);
    std::fclose(out);
    EXPECT_NE(line.find("Mcyc/s"), std::string::npos) << line;
    EXPECT_EQ(line.find("(win)"), std::string::npos) << line;
    EXPECT_EQ(line.find("eta"), std::string::npos) << line;
}

// ---------------------------------------------------------------------
// Bench flag validation: the shared flag table and registry ranges
// ---------------------------------------------------------------------

namespace {

/** argv builder: keeps the strings alive and hands out char**. */
struct Argv
{
    explicit Argv(std::vector<std::string> args) : strings(std::move(args))
    {
        ptrs.push_back(prog);
        for (auto &s : strings)
            ptrs.push_back(s.data());
    }
    int argc() const { return static_cast<int>(ptrs.size()); }
    char **argv() { return ptrs.data(); }

    char prog[5] = "test";
    std::vector<std::string> strings;
    std::vector<char *> ptrs;
};

/** Read a whole file ("" when it cannot be opened). */
std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return { std::istreambuf_iterator<char>(in),
             std::istreambuf_iterator<char>() };
}

} // namespace

TEST(BenchFlagValidation, TopkMustBePositive)
{
    bench::SharedFlags flags;
    flags.topk = 0;
    testing::internal::CaptureStderr();
    EXPECT_FALSE(flags.validate());
    EXPECT_NE(testing::internal::GetCapturedStderr().find(
                  "error: --topk must be >= 1"),
              std::string::npos);
    flags.topk = -3;
    testing::internal::CaptureStderr();
    EXPECT_FALSE(flags.validate());
    testing::internal::GetCapturedStderr();
}

TEST(BenchFlagValidation, HostProfileSampleMustBePositive)
{
    bench::SharedFlags flags;
    flags.host_profile = true;
    flags.host_profile_sample = 0;
    testing::internal::CaptureStderr();
    EXPECT_FALSE(flags.validate());
    EXPECT_NE(testing::internal::GetCapturedStderr().find(
                  "error: --host-profile-sample must be >= 1"),
              std::string::npos);
}

TEST(BenchFlagValidation, HostProfileTimelinePathMustBeWritable)
{
    bench::SharedFlags flags;
    flags.host_timeline = "/nonexistent-dir-for-test/timeline.json";
    testing::internal::CaptureStderr();
    EXPECT_FALSE(flags.validate());
    EXPECT_NE(testing::internal::GetCapturedStderr().find(
                  "error: cannot open /nonexistent-dir-for-test/"
                  "timeline.json for writing"),
              std::string::npos);
    // The implication still resolves even when the path is bad.
    EXPECT_TRUE(flags.enabled(bench::Layer::Profile));
}

TEST(BenchFlagValidation, WarmupImpliesTimeseries)
{
    bench::SharedFlags flags;
    flags.warmup = 100;
    ASSERT_TRUE(flags.validate());
    EXPECT_TRUE(flags.enabled(bench::Layer::Sampler));
    const Instrumentation inst = flags.instrumentation(TorusGeom(2, 2, 2));
    ASSERT_TRUE(inst.timeseries.has_value())
        << "--warmup without a sampler would never reset the registry";
    EXPECT_EQ(inst.timeseries->warmup_reset, Cycle{ 100 });
}

TEST(BenchFlagValidation, FlowSampleNeedsTheChromeTrace)
{
    // Sampled flow spans are written only into the --trace Chrome trace:
    // without it the stride would select spans no export writes. The
    // check runs before any output path is probed.
    bench::SharedFlags flags;
    flags.flow_sample = 3;
    flags.flows_csv = "/nonexistent-dir-for-test/flows.csv";
    testing::internal::CaptureStderr();
    EXPECT_FALSE(flags.validate());
    const std::string err = testing::internal::GetCapturedStderr();
    EXPECT_NE(err.find("error: --flow-sample needs --trace"),
              std::string::npos)
        << err;
    EXPECT_EQ(err.find("cannot open"), std::string::npos) << err;
    // --trace-csv alone holds no flow spans either.
    flags.trace_csv = "flight.csv";
    testing::internal::CaptureStderr();
    EXPECT_FALSE(flags.validate());
    testing::internal::GetCapturedStderr();

    // With the Chrome trace the stride stands, and implies the probe.
    bench::SharedFlags traced;
    traced.flow_sample = 3;
    const std::string path = testing::TempDir() + "flow-sample-trace.json";
    traced.trace = path.c_str();
    EXPECT_TRUE(traced.validate());
    EXPECT_TRUE(traced.enabled(bench::Layer::Flows));
}

TEST(BenchFlagValidation, TraceSampleNeedsATraceExport)
{
    bench::SharedFlags flags;
    flags.trace_sample = 5;
    flags.report = "/nonexistent-dir-for-test/report.json";
    testing::internal::CaptureStderr();
    EXPECT_FALSE(flags.validate());
    const std::string err = testing::internal::GetCapturedStderr();
    EXPECT_NE(err.find("error: --trace-sample needs --trace or --trace-csv"),
              std::string::npos)
        << err;
    EXPECT_EQ(err.find("cannot open"), std::string::npos) << err;

    // The flight record alone is a trace export the stride thins.
    bench::SharedFlags csv;
    csv.trace_sample = 5;
    const std::string path = testing::TempDir() + "trace-sample-flight.csv";
    csv.trace_csv = path.c_str();
    EXPECT_TRUE(csv.validate());
    EXPECT_TRUE(csv.enabled(bench::Layer::Trace));
}

TEST(BenchFlagValidation, NegativeWarmupIsRejected)
{
    bench::SharedFlags flags;
    flags.warmup = -5;
    testing::internal::CaptureStderr();
    EXPECT_FALSE(flags.validate());
    EXPECT_NE(testing::internal::GetCapturedStderr().find(
                  "error: --warmup must be >= 0"),
              std::string::npos);
}

TEST(BenchFlagValidation, CoresMustFitTheNode)
{
    // The benches declare --cores with the range [1, endpoints per node].
    auto parseCores = [](long value) {
        long cores = 0;
        bench::OptionRegistry reg("t");
        reg.add("--cores", "N", "h", &cores, 1, 8);
        Argv a({ "--cores", std::to_string(value) });
        return reg.parse(a.argc(), a.argv());
    };
    for (long bad : { -1L, 0L, 9L }) {
        testing::internal::CaptureStderr();
        EXPECT_FALSE(parseCores(bad)) << bad;
        EXPECT_NE(testing::internal::GetCapturedStderr().find(
                      "error: --cores must be in [1, 8]"),
                  std::string::npos);
    }
    EXPECT_TRUE(parseCores(1));
    EXPECT_TRUE(parseCores(8));
}

TEST(BenchFlagValidation, ReportWithoutRunBodyFails)
{
    bench::SharedFlags flags;
    EXPECT_TRUE(flags.writeReport("b", "{}", "", "", "{}"))
        << "no --report: nothing to write, nothing to fail";
    flags.report = "/dev/null";
    testing::internal::CaptureStderr();
    EXPECT_FALSE(flags.writeReport("b", "{}", "", "", "{}"));
    EXPECT_NE(testing::internal::GetCapturedStderr().find(
                  "no run produced a report"),
              std::string::npos);
}

TEST(BenchFlagValidation, TimelinePathImpliesProfiling)
{
    bench::SharedFlags flags;
    flags.host_timeline = "/dev/null";
    EXPECT_FALSE(flags.enabled(bench::Layer::Profile));
    EXPECT_TRUE(flags.validate());
    EXPECT_TRUE(flags.enabled(bench::Layer::Profile));
}

TEST(BenchFlagValidation, TimelineRejectsMultiRunSweeps)
{
    bench::SharedFlags flags;
    flags.host_timeline = "/dev/null";
    ASSERT_TRUE(flags.validate());
    testing::internal::CaptureStderr();
    EXPECT_FALSE(bench::validateTimelineSingleRun(flags, 3));
    EXPECT_NE(testing::internal::GetCapturedStderr().find(
                  "error: --host-profile=PATH writes one run's "
                  "timeline"),
              std::string::npos);
    EXPECT_TRUE(bench::validateTimelineSingleRun(flags, 1));
    // No timeline requested: any sweep size is fine.
    bench::SharedFlags plain;
    plain.host_profile = true;
    EXPECT_TRUE(bench::validateTimelineSingleRun(plain, 8));
}

TEST(BenchFlagValidation, EveryNumericRowRejectsValuesBelowItsRange)
{
    int numeric = 0;
    for (const bench::SharedFlag &row : bench::kSharedFlags) {
        if (row.num == nullptr)
            continue;
        ++numeric;
        bench::SharedFlags flags;
        EXPECT_TRUE(flags.validate()) << row.name << " default";
        flags.*row.num = row.lo - 1;
        testing::internal::CaptureStderr();
        EXPECT_FALSE(flags.validate()) << row.name;
        EXPECT_NE(testing::internal::GetCapturedStderr().find(
                      std::string("error: ") + row.name + " must be"),
                  std::string::npos)
            << row.name;
    }
    EXPECT_GE(numeric, 11);
}

TEST(BenchFlagValidation, ProbeLeavesNoFileAndKeepsExistingBytes)
{
    const std::string fresh = testing::TempDir() + "probe_fresh.json";
    const std::string kept = testing::TempDir() + "probe_kept.json";
    std::remove(fresh.c_str());
    bench::writeFile(kept, "keep these bytes");

    bench::SharedFlags flags;
    flags.report = fresh.c_str();
    flags.trace = kept.c_str();
    ASSERT_TRUE(flags.validate());
    EXPECT_FALSE(std::filesystem::exists(fresh))
        << "the probe left the file it created";
    EXPECT_EQ(slurp(kept), "keep these bytes");
    std::remove(kept.c_str());
}

TEST(OptionRegistry, NumericRangeIsCheckedAtParse)
{
    auto parse = [](const std::vector<std::string> &args) {
        long n = 0;
        bench::OptionRegistry reg("t");
        reg.add("--n", "N", "h", &n, 2, 5);
        Argv a(args);
        return reg.parse(a.argc(), a.argv());
    };
    for (const char *bad : { "1", "6", "-3" }) {
        for (const auto &args :
             { std::vector<std::string>{ "--n", bad },
               std::vector<std::string>{ std::string("--n=") + bad } }) {
            testing::internal::CaptureStderr();
            EXPECT_FALSE(parse(args)) << args.back();
            EXPECT_NE(testing::internal::GetCapturedStderr().find(
                          "error: --n must be in [2, 5]"),
                      std::string::npos)
                << args.back();
        }
    }
    for (const char *edge : { "2", "5" }) {
        EXPECT_TRUE(parse({ "--n", edge })) << edge;
        EXPECT_TRUE(parse({ std::string("--n=") + edge })) << edge;
    }
    // Bounded below only: the message names the floor alone.
    long m = 0;
    bench::OptionRegistry reg("t");
    reg.add("--m", "N", "h", &m, 1);
    Argv a({ "--m", "0" });
    testing::internal::CaptureStderr();
    EXPECT_FALSE(reg.parse(a.argc(), a.argv()));
    EXPECT_NE(testing::internal::GetCapturedStderr().find(
                  "error: --m must be >= 1"),
              std::string::npos);

    // A flag narrowed to int is bounded by INT_MAX: 2^32 + 2 no longer
    // wraps to 2. A value past what long holds is out of range, not
    // clamped to LONG_MAX, whatever the flag's bound.
    auto reject = [](long hi, const char *value, const std::string &why) {
        long k = 0;
        bench::OptionRegistry r("t");
        r.add("--k", "N", "h", &k, 2, hi);
        Argv args({ "--k", value });
        testing::internal::CaptureStderr();
        EXPECT_FALSE(r.parse(args.argc(), args.argv())) << value;
        EXPECT_NE(testing::internal::GetCapturedStderr().find(why),
                  std::string::npos)
            << value;
    };
    reject(INT_MAX, "4294967298", "error: --k must be in [2, 2147483647]");
    reject(INT_MAX, "2147483648", "error: --k must be in [2, 2147483647]");
    for (long hi : { long{ INT_MAX }, LONG_MAX }) {
        reject(hi, "99999999999999999999",
               "error: --k value '99999999999999999999' is out of range");
        reject(hi, "-99999999999999999999",
               "error: --k value '-99999999999999999999' is out of range");
    }
    long k = 0;
    bench::OptionRegistry r("t");
    r.add("--k", "N", "h", &k, 2, INT_MAX);
    Argv top({ "--k", "2147483647" });
    EXPECT_TRUE(r.parse(top.argc(), top.argv()));
    EXPECT_EQ(k, INT_MAX);
}

// ---------------------------------------------------------------------
// OptionRegistry: --name=value and the optional-value flag kind
// ---------------------------------------------------------------------

TEST(OptionRegistry, EqualsValueSyntaxForEveryKind)
{
    long n = 0;
    double d = 0.0;
    const char *s = nullptr;
    bench::OptionRegistry reg("t");
    reg.add("--n", "N", "h", &n);
    reg.add("--d", "X", "h", &d);
    reg.add("--s", "S", "h", &s);
    Argv a({ "--n=42", "--d=2.5", "--s=hello" });
    ASSERT_TRUE(reg.parse(a.argc(), a.argv()));
    EXPECT_EQ(n, 42);
    EXPECT_DOUBLE_EQ(d, 2.5);
    EXPECT_STREQ(s, "hello");
}

TEST(OptionRegistry, PlainFlagRejectsAttachedValue)
{
    bool f = false;
    bench::OptionRegistry reg("t");
    reg.add("--f", "h", &f);
    Argv a({ "--f=yes" });
    testing::internal::CaptureStderr();
    EXPECT_FALSE(reg.parse(a.argc(), a.argv()));
    EXPECT_NE(testing::internal::GetCapturedStderr().find(
                  "error: --f does not take a value"),
              std::string::npos);
}

TEST(OptionRegistry, OptionalStringWithAndWithoutValue)
{
    {
        bool present = false;
        const char *path = nullptr;
        bench::OptionRegistry reg("t");
        reg.addOptional("--host-profile", "PATH", "h", &present, &path);
        Argv a({ "--host-profile" });
        ASSERT_TRUE(reg.parse(a.argc(), a.argv()));
        EXPECT_TRUE(present);
        EXPECT_EQ(path, nullptr);
    }
    {
        bool present = false;
        const char *path = nullptr;
        bench::OptionRegistry reg("t");
        reg.addOptional("--host-profile", "PATH", "h", &present, &path);
        Argv a({ "--host-profile=/tmp/t.json" });
        ASSERT_TRUE(reg.parse(a.argc(), a.argv()));
        EXPECT_TRUE(present);
        EXPECT_STREQ(path, "/tmp/t.json");
    }
    {
        // Without '=', a following bare token is NOT consumed as the
        // value - it must parse as the next argument.
        bool present = false;
        const char *path = nullptr;
        const char *pos = nullptr;
        bench::OptionRegistry reg("t");
        reg.addOptional("--host-profile", "PATH", "h", &present, &path);
        reg.addPositional("OUT", "h", &pos);
        Argv a({ "--host-profile", "report.json" });
        ASSERT_TRUE(reg.parse(a.argc(), a.argv()));
        EXPECT_TRUE(present);
        EXPECT_EQ(path, nullptr);
        EXPECT_STREQ(pos, "report.json");
    }
}

TEST(OptionRegistry, UnknownEqualsOptionReportsBareName)
{
    long n = 0;
    bench::OptionRegistry reg("t");
    reg.add("--n", "N", "h", &n);
    Argv a({ "--bogus=1" });
    testing::internal::CaptureStderr();
    EXPECT_FALSE(reg.parse(a.argc(), a.argv()));
    EXPECT_NE(testing::internal::GetCapturedStderr().find(
                  "error: unknown option '--bogus'"),
              std::string::npos);
}
