/**
 * @file
 * Windowed time-series layer: sampler windowing and cross-checks against
 * the aggregate counters, steady-state detection (online detector + MSER
 * rule) on synthetic and simulated series, exporters, and the host-side
 * self-profiling helpers.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "core/machine.hpp"
#include "sim/rng.hpp"
#include "sim/timeseries.hpp"
#include "tiny_json.hpp"
#include "traffic/driver.hpp"
#include "traffic/patterns.hpp"

namespace anton2 {
namespace {

using testjson::TinyJsonParser;

/** Attach a sampler through the unified bundle (the only attach path)
 * and hand back the bound instance. */
IntervalSampler &
attachSampler(Machine &m, const TimeseriesConfig &tcfg, bool metrics = false)
{
    Instrumentation inst;
    inst.metrics = metrics;
    inst.timeseries = tcfg;
    m.attachInstrumentation(inst);
    return *m.timeseries();
}

// ---------------------------------------------------------------------
// ScalarStat snapshots
// ---------------------------------------------------------------------

TEST(ScalarStatSnapshot, DeltasAreExactAndNonDestructive)
{
    ScalarStat s;
    s.add(10.0);
    s.add(20.0);
    const auto first = s.snapshot();
    EXPECT_EQ(first.count, 2u);
    EXPECT_EQ(first.sum, 30.0);

    s.add(40.0);
    const auto second = s.snapshot();
    EXPECT_EQ(second.count, 3u);
    EXPECT_EQ(second.sum, 70.0);
    EXPECT_EQ(ScalarStat::windowMean(second, first), 40.0);

    // Snapshotting never perturbs the stat itself.
    EXPECT_EQ(s.count(), 3u);
    EXPECT_DOUBLE_EQ(s.mean(), 70.0 / 3.0);
}

TEST(ScalarStatSnapshot, EmptyWindowMeanIsNaN)
{
    ScalarStat s;
    s.add(5.0);
    const auto snap = s.snapshot();
    EXPECT_TRUE(std::isnan(ScalarStat::windowMean(snap, snap)));
}

// ---------------------------------------------------------------------
// Steady-state detector on synthetic series
// ---------------------------------------------------------------------

TEST(SteadyStateDetector, StationaryNoiseConvergesAtMinWindows)
{
    SteadyStateConfig cfg;
    cfg.min_windows = 8;
    cfg.rel_tolerance = 0.10;
    SteadyStateDetector det(cfg);
    // +/-2% noise around 1.0 stays well inside the 10% band.
    const double noise[] = { 1.00, 1.02, 0.98, 1.01, 0.99,
                             1.02, 0.98, 1.00, 1.01, 0.99 };
    std::size_t first_converged = 0;
    for (std::size_t i = 0; i < std::size(noise); ++i) {
        det.observe(noise[i]);
        if (det.converged() && first_converged == 0)
            first_converged = i + 1;
    }
    EXPECT_TRUE(det.converged());
    EXPECT_EQ(first_converged, cfg.min_windows);
    EXPECT_EQ(det.steadyStartWindow(), 0u);
}

TEST(SteadyStateDetector, StepChangeRestartsTheStableSuffix)
{
    SteadyStateConfig cfg;
    cfg.min_windows = 4;
    SteadyStateDetector det(cfg);
    for (int i = 0; i < 6; ++i)
        det.observe(1.0);
    EXPECT_TRUE(det.converged());

    // A step to 2.0 revokes convergence and moves the suffix start past
    // the step; the new level then re-converges.
    det.observe(2.0);
    EXPECT_FALSE(det.converged());
    EXPECT_EQ(det.steadyStartWindow(), 6u);
    for (int i = 0; i < 3; ++i)
        det.observe(2.0);
    EXPECT_TRUE(det.converged());
    EXPECT_EQ(det.steadyStartWindow(), 6u);
}

TEST(SteadyStateDetector, SteepRampNeverConverges)
{
    SteadyStateConfig cfg;
    cfg.min_windows = 4;
    cfg.rel_tolerance = 0.10;
    SteadyStateDetector det(cfg);
    // Each step is ~30% above the previous: always out of band.
    double x = 1.0;
    for (int i = 0; i < 40; ++i) {
        det.observe(x);
        x *= 1.3;
    }
    EXPECT_FALSE(det.converged());
}

TEST(SteadyStateDetector, NanExtendsTheSuffixWithoutEvidence)
{
    SteadyStateConfig cfg;
    cfg.min_windows = 4;
    SteadyStateDetector det(cfg);
    det.observe(1.0);
    det.observe(std::nan(""));
    det.observe(1.0);
    det.observe(std::nan(""));
    EXPECT_TRUE(det.converged()); // 4 windows, none out of band
    EXPECT_EQ(det.steadyStartWindow(), 0u);
}

TEST(MserTruncation, FindsTheTransientPrefix)
{
    // 10 windows of ramp-up transient, then stationary noise: MSER must
    // place the truncation point inside / at the end of the transient.
    std::vector<double> xs;
    for (int i = 0; i < 10; ++i)
        xs.push_back(0.1 * i);
    Rng rng(7);
    for (int i = 0; i < 50; ++i)
        xs.push_back(1.0 + 0.01 * static_cast<double>(rng.below(100)) / 100.0);
    const std::size_t d = mserTruncation(xs);
    EXPECT_GE(d, 5u);
    EXPECT_LE(d, 12u);

    // A fully stationary series needs no truncation at all.
    std::vector<double> flat(40, 3.0);
    EXPECT_EQ(mserTruncation(flat), 0u);
}

// ---------------------------------------------------------------------
// IntervalSampler windowing and cross-checks
// ---------------------------------------------------------------------

/** Send up to @p packets seeded random writes; returns how many were
 * sent (a draw whose source and destination share a node is skipped). */
std::uint64_t
sendRandomWrites(Machine &m, std::uint64_t packets, std::uint64_t seed)
{
    Rng traffic(seed * 2654435761ULL + 3);
    const auto nodes = static_cast<std::uint64_t>(m.geom().numNodes());
    std::uint64_t sent = 0;
    for (std::uint64_t i = 0; i < packets; ++i) {
        const EndpointAddr src{ static_cast<NodeId>(traffic.below(nodes)),
                                static_cast<int>(traffic.below(4)) };
        const EndpointAddr dst{ static_cast<NodeId>(traffic.below(nodes)),
                                static_cast<int>(traffic.below(4)) };
        if (src.node == dst.node)
            continue;
        m.send(m.makeWrite(src, dst, 0,
                           1 + static_cast<int>(traffic.below(2))));
        ++sent;
    }
    return sent;
}

/** Drive seeded random traffic through a 2x2x2 machine with sampling. */
Machine &
runSampledMachine(Machine &m, std::uint64_t packets, std::uint64_t seed)
{
    const std::uint64_t sent = sendRandomWrites(m, packets, seed);
    EXPECT_TRUE(m.run(RunSpec::untilDelivered(sent, 500000)).reason == StopReason::Delivered);
    return m;
}

/** Packets the endpoints of @p m have injected so far. */
std::uint64_t
totalInjected(Machine &m)
{
    std::uint64_t total = 0;
    for (NodeId n = 0; n < m.geom().numNodes(); ++n) {
        for (EndpointId e = 0; e < m.layout().numEndpoints(); ++e)
            total += m.chip(n).endpoint(e).injected();
    }
    return total;
}

MachineConfig
smallConfig(std::uint64_t seed)
{
    MachineConfig cfg;
    cfg.radix = { 2, 2, 2 };
    cfg.chip.endpoints_per_node = 4;
    cfg.use_packaging = false;
    cfg.fixed_torus_latency = 12;
    cfg.seed = seed;
    return cfg;
}

TEST(IntervalSampler, WindowGeometryIncludesPartialFinalWindow)
{
    auto cfg = smallConfig(11);
    Machine m(cfg);
    TimeseriesConfig tcfg;
    tcfg.window = 100;
    IntervalSampler &s = attachSampler(m, tcfg);
    runSampledMachine(m, 60, 11);

    const Cycle end = m.now();
    s.finalize(end);
    ASSERT_GE(s.numWindows(), 1u);
    EXPECT_EQ(s.windowStart(0), s.startCycle());
    for (std::size_t w = 0; w + 1 < s.numWindows(); ++w) {
        EXPECT_EQ(s.windowEnd(w) - s.windowStart(w), 100u);
        EXPECT_EQ(s.windowStart(w + 1), s.windowEnd(w));
    }
    EXPECT_EQ(s.windowEnd(s.numWindows() - 1), end);
    // finalize is idempotent: a second call adds nothing.
    const std::size_t n = s.numWindows();
    s.finalize(end);
    EXPECT_EQ(s.numWindows(), n);
}

TEST(IntervalSampler, ZeroWindowIsRejectedInEveryBuild)
{
    // A 0-cycle window would never sample and would shrink every
    // lookahead window to one cycle; the bundle is refused before any
    // layer of it attaches.
    Machine m(smallConfig(11));
    Instrumentation inst;
    inst.metrics = true;
    inst.timeseries = TimeseriesConfig{ .window = 0 };
    EXPECT_THROW(m.attachInstrumentation(inst), std::invalid_argument);
    EXPECT_EQ(m.metrics(), nullptr);
    EXPECT_EQ(m.timeseries(), nullptr);
}

TEST(IntervalSampler, WindowedSumsMatchAggregatesByteExactly)
{
    auto cfg = smallConfig(13);
    Machine m(cfg);
    TimeseriesConfig tcfg;
    tcfg.window = 64;
    IntervalSampler &s = attachSampler(m, tcfg, /*metrics=*/true);
    runSampledMachine(m, 120, 13);
    s.finalize(m.now());

    // Machine-level windowed deltas sum exactly to the run aggregates.
    const std::size_t delivered = s.findSeries("machine.delivered");
    ASSERT_NE(delivered, IntervalSampler::npos);
    EXPECT_EQ(s.seriesSum(delivered),
              static_cast<double>(m.totalDelivered()));

    const std::size_t inj = s.findSeries("machine.injected");
    ASSERT_NE(inj, IntervalSampler::npos);
    EXPECT_EQ(s.seriesSum(inj), static_cast<double>(totalInjected(m)));

    // Every per-link windowed flit count sums exactly to that adapter's
    // flitsSent() counter - the heatmap's integrity guarantee.
    std::size_t links_checked = 0;
    for (NodeId n = 0; n < m.geom().numNodes(); ++n) {
        for (int ca = 0; ca < m.layout().numChannelAdapters(); ++ca) {
            const std::string name =
                "chip." + std::to_string(n) + ".ca."
                + m.layout().channelShortName(ca) + ".flits";
            const std::size_t idx = s.findSeries(name);
            ASSERT_NE(idx, IntervalSampler::npos) << name;
            EXPECT_EQ(s.seriesSum(idx),
                      static_cast<double>(
                          m.chip(n).channelAdapter(ca).flitsSent()))
                << name;
            ++links_checked;
        }
    }
    EXPECT_EQ(links_checked,
              static_cast<std::size_t>(m.geom().numNodes())
                  * static_cast<std::size_t>(
                      m.layout().numChannelAdapters()));

    // And the exported count agrees with the adapter accessor (metrics
    // were attached before the first cycle).
    const auto root = TinyJsonParser(m.metricsJson()).parse();
    EXPECT_EQ(root->path("chip.0.ca.x0p.flits_sent").number,
              static_cast<double>(m.chip(0).channelAdapter(0).flitsSent()));
}

TEST(IntervalSampler, MidRunAttachCountsFromTheAttach)
{
    // A sampler attached mid-run takes its cumulative baselines at the
    // attach: its windows start there and its counters sum to what
    // happened since.
    Machine m(smallConfig(23));
    const std::uint64_t sent = sendRandomWrites(m, 1200, 23);
    m.run(RunSpec::forCycles(100));

    const int links = m.layout().numChannelAdapters();
    auto linkFlits = [&m, links] {
        std::vector<std::uint64_t> flits;
        for (NodeId n = 0; n < m.geom().numNodes(); ++n) {
            for (int ca = 0; ca < links; ++ca)
                flits.push_back(m.chip(n).channelAdapter(ca).flitsSent());
        }
        return flits;
    };
    const Cycle attach = m.now();
    const std::uint64_t delivered0 = m.totalDelivered();
    const std::uint64_t injected0 = totalInjected(m);
    const std::vector<std::uint64_t> flits0 = linkFlits();
    // Part-way: some packets delivered, some still to inject.
    ASSERT_GT(delivered0, 0u);
    ASSERT_LT(injected0, sent);

    TimeseriesConfig tcfg;
    tcfg.window = 64;
    IntervalSampler &s = attachSampler(m, tcfg);
    ASSERT_EQ(m.run(RunSpec::untilDelivered(sent, 500000)).reason,
              StopReason::Delivered);
    s.finalize(m.now());

    ASSERT_GE(s.numWindows(), 2u);
    EXPECT_EQ(s.windowStart(0), attach);
    EXPECT_EQ(s.seriesSum(s.findSeries("machine.delivered")),
              static_cast<double>(m.totalDelivered() - delivered0));
    EXPECT_EQ(s.seriesSum(s.findSeries("machine.injected")),
              static_cast<double>(totalInjected(m) - injected0));
    const std::vector<std::uint64_t> flits = linkFlits();
    std::uint64_t grown = 0;
    for (NodeId n = 0; n < m.geom().numNodes(); ++n) {
        for (int ca = 0; ca < links; ++ca) {
            const std::string name =
                "chip." + std::to_string(n) + ".ca."
                + m.layout().channelShortName(ca) + ".flits";
            const std::size_t idx = s.findSeries(name);
            ASSERT_NE(idx, IntervalSampler::npos) << name;
            const std::size_t i = n * static_cast<std::size_t>(links)
                                  + static_cast<std::size_t>(ca);
            EXPECT_EQ(s.seriesSum(idx),
                      static_cast<double>(flits[i] - flits0[i]))
                << name;
            grown += flits[i] - flits0[i];
        }
    }
    EXPECT_GT(grown, 0u);
}

TEST(IntervalSampler, LatencyWindowMeanReconstructsAggregateMean)
{
    auto cfg = smallConfig(17);
    Machine m(cfg);
    TimeseriesConfig tcfg;
    tcfg.window = 64;
    IntervalSampler &s = attachSampler(m, tcfg);
    runSampledMachine(m, 100, 17);
    s.finalize(m.now());

    const std::size_t lat = s.findSeries("machine.latency_mean");
    const std::size_t del = s.findSeries("machine.delivered");
    ASSERT_NE(lat, IntervalSampler::npos);
    ASSERT_NE(del, IntervalSampler::npos);

    // Delivery-weighted mean over windows == the aggregate latency mean.
    double weighted = 0.0, weight = 0.0;
    for (std::size_t w = 0; w < s.numWindows(); ++w) {
        const double mean = s.value(lat, w);
        const double count = s.value(del, w);
        if (!std::isnan(mean)) {
            weighted += mean * count;
            weight += count;
        }
    }
    ASSERT_GT(weight, 0.0);
    EXPECT_NEAR(weighted / weight, m.latencyStat().mean(), 1e-9);
}

TEST(IntervalSampler, MaxWindowsDropsAreCountedNotSilent)
{
    auto cfg = smallConfig(19);
    Machine m(cfg);
    TimeseriesConfig tcfg;
    tcfg.window = 16;
    tcfg.max_windows = 4;
    IntervalSampler &s = attachSampler(m, tcfg);
    m.run(RunSpec::forCycles(200));
    s.finalize(m.now());
    EXPECT_EQ(s.numWindows(), 4u);
    EXPECT_GT(s.droppedWindows(), 0u);
    EXPECT_NE(s.toJson().find("\"dropped_windows\""), std::string::npos);
}

TEST(IntervalSampler, HeatmapCsvHasOneRowPerLinkPerWindow)
{
    auto cfg = smallConfig(29);
    Machine m(cfg);
    TimeseriesConfig tcfg;
    tcfg.window = 128;
    IntervalSampler &s = attachSampler(m, tcfg);
    runSampledMachine(m, 60, 29);
    const std::string csv = m.heatmapCsv();

    std::size_t rows = 0;
    for (char ch : csv) {
        if (ch == '\n')
            ++rows;
    }
    const std::size_t links =
        static_cast<std::size_t>(m.geom().numNodes())
        * static_cast<std::size_t>(m.layout().numChannelAdapters());
    EXPECT_EQ(rows, 1 + links * s.numWindows()); // header + data
    EXPECT_EQ(csv.compare(0, 7, "window,"), 0);
}

// ---------------------------------------------------------------------
// Auto steady-state integration (low-load open-loop run)
// ---------------------------------------------------------------------

TEST(AutoSteady, LowLoadRunConvergesWithinTheDefaultWarmupBudget)
{
    auto cfg = smallConfig(37);
    Machine m(cfg);

    TimeseriesConfig tcfg;
    tcfg.window = 250;
    tcfg.auto_steady = true;
    IntervalSampler &s = attachSampler(m, tcfg, /*metrics=*/true);

    UniformPattern pat(m.geom());
    OpenLoopDriver::Config dcfg;
    dcfg.cores = firstEndpoints(4);
    dcfg.rate = 0.02; // well below saturation
    dcfg.pattern = &pat;
    OpenLoopDriver driver(m, dcfg);
    m.engine().add(driver);
    m.run(RunSpec::forCycles(kDefaultWarmupCycles + 4000));

    const SteadyStateResult &r = s.steadyState();
    EXPECT_TRUE(r.auto_steady);
    ASSERT_TRUE(r.converged) << "low-load run must reach steady state";
    EXPECT_LE(r.warmup_cycles, kDefaultWarmupCycles)
        << "detector must beat the blind fixed warmup";
    EXPECT_GE(r.detected_cycle, r.warmup_cycles);

    // Convergence reset the bound registry: its delivered count covers
    // only the steady region, strictly less than the machine total.
    EXPECT_NE(r.metrics_reset_cycle, kNoCycle);
    const Counter *delivered =
        m.metrics()->findCounter("machine.delivered");
    ASSERT_NE(delivered, nullptr);
    EXPECT_LT(delivered->value(), m.totalDelivered());
    EXPECT_GT(delivered->value(), 0u);

    // The JSON section reports the outcome.
    const std::string json = m.timeseriesJson();
    EXPECT_NE(json.find("\"steady_state\": {"), std::string::npos);
    EXPECT_NE(json.find("\"converged\": true"), std::string::npos);
    EXPECT_NE(json.find("\"mser_window\""), std::string::npos);
}

TEST(AutoSteady, FixedWarmupResetsRegistryAtTheRequestedCycle)
{
    auto cfg = smallConfig(41);
    Machine m(cfg);

    TimeseriesConfig tcfg;
    tcfg.window = 100;
    tcfg.warmup_reset = 350;
    IntervalSampler &s = attachSampler(m, tcfg, /*metrics=*/true);

    UniformPattern pat(m.geom());
    OpenLoopDriver::Config dcfg;
    dcfg.cores = firstEndpoints(4);
    dcfg.rate = 0.02;
    dcfg.pattern = &pat;
    OpenLoopDriver driver(m, dcfg);
    m.engine().add(driver);
    m.run(RunSpec::forCycles(2000));

    // First boundary at or past cycle 350 with window 100 is cycle 400.
    EXPECT_EQ(s.steadyState().metrics_reset_cycle, 400u);
    const Counter *delivered =
        m.metrics()->findCounter("machine.delivered");
    ASSERT_NE(delivered, nullptr);
    EXPECT_LT(delivered->value(), m.totalDelivered());
}

TEST(AutoSteady, FixedWarmupPastTheLastFullWindowNeverResets)
{
    // The shape of a fig9 4x2x2 batch with --warmup 100: the run ends at
    // cycle 220, inside the first 1024-cycle window. Exporting records
    // that partial window but must not fire the warmup reset: only a
    // full window may, so the report keeps whole-run metrics.
    auto cfg = smallConfig(41);
    Machine m(cfg);
    TimeseriesConfig tcfg; // the default 1024-cycle window
    tcfg.warmup_reset = 100;
    IntervalSampler &s = attachSampler(m, tcfg, /*metrics=*/true);

    UniformPattern pat(m.geom());
    OpenLoopDriver::Config dcfg;
    dcfg.cores = firstEndpoints(4);
    dcfg.rate = 0.02;
    dcfg.pattern = &pat;
    OpenLoopDriver driver(m, dcfg);
    m.engine().add(driver);
    m.run(RunSpec::forCycles(220));

    const std::string report = m.runReportJson();
    ASSERT_EQ(s.numWindows(), 1u);
    EXPECT_EQ(s.windowEnd(0), 220u);
    EXPECT_EQ(s.steadyState().metrics_reset_cycle, kNoCycle);
    EXPECT_NE(report.find("\"metrics_reset_cycle\": null"),
              std::string::npos);
    const Counter *delivered =
        m.metrics()->findCounter("machine.delivered");
    ASSERT_NE(delivered, nullptr);
    EXPECT_GT(delivered->value(), 0u);
    EXPECT_EQ(delivered->value(), m.totalDelivered());
}

// ---------------------------------------------------------------------
// Chrome-trace counter tracks
// ---------------------------------------------------------------------

TEST(ChromeCounters, TimeseriesAppendsCounterTracksToTheTrace)
{
    auto cfg = smallConfig(43);
    Machine m(cfg);
    TimeseriesConfig tcfg;
    tcfg.window = 64;
    Instrumentation inst;
    inst.trace = TraceConfig{};
    inst.timeseries = tcfg;
    m.attachInstrumentation(inst);
    runSampledMachine(m, 60, 43);

    const std::string json = m.traceChromeJson();
    // Machine-wide curves live in the synthetic pid -1 process...
    EXPECT_NE(json.find("\"name\": \"machine\""), std::string::npos);
    EXPECT_NE(json.find("\"name\": \"machine.delivered\", \"ph\": \"C\""),
              std::string::npos);
    // ...and per-link utilization counters sit in their chip's process.
    EXPECT_NE(json.find("\"name\": \"ca.x0p.util\", \"ph\": \"C\""),
              std::string::npos);
    EXPECT_NE(json.find("\"value\": "), std::string::npos);
}

// ---------------------------------------------------------------------
// Live progress line
// ---------------------------------------------------------------------

TEST(ProgressMeter, PrintsRateLimitedStatusLines)
{
    std::FILE *tmp = std::tmpfile();
    ASSERT_NE(tmp, nullptr);
    ProgressMeter::Config cfg;
    cfg.check_every = 1;
    cfg.min_seconds = 0.0; // no wall rate limit in the test
    cfg.out = tmp;
    ProgressMeter meter(cfg);
    meter.setStatusFn([] { return std::string("status"); });
    for (Cycle c = 0; c < 5; ++c)
        meter.tick(c);
    meter.finish();
    EXPECT_GT(meter.linesPrinted(), 0u);

    std::rewind(tmp);
    char buf[512] = {};
    const std::size_t n = std::fread(buf, 1, sizeof(buf) - 1, tmp);
    std::fclose(tmp);
    const std::string out(buf, n);
    EXPECT_NE(out.find("[progress]"), std::string::npos);
    EXPECT_NE(out.find("Mcyc/s"), std::string::npos);
    EXPECT_NE(out.find("status"), std::string::npos);
}

} // namespace
} // namespace anton2
