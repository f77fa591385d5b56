/**
 * @file
 * Scale-proof observability suite: the MetricsLevel verbosity axis, the
 * export-time router -> chip -> machine rollups, the top-K hot-spot
 * digest, and the single-artifact run report.
 *
 * What is pinned here:
 *  - the `machine.*` rollup subtree serializes byte-identically no
 *    matter which MetricsLevel it was reduced from, and the rollup sums
 *    equal the full-level per-component tree exactly;
 *  - coarse levels actually shed state: no `chip.*` keys at machine
 *    level, no per-router/per-adapter subtrees at chip level, no per-VC
 *    detail below full, and a registry footprint that shrinks with the
 *    level;
 *  - Machine::runReportJson() - the deterministic report body - is
 *    byte-identical across thread counts {1,2,4} and lookahead windows
 *    {1, auto} for a feedback-free (pre-injected) workload, with and
 *    without an interval sampler (whose series the body then carries);
 *  - the hot-spot digest is sorted, k-bounded, conserves the axis flit
 *    totals against the raw adapter counters, and is level-independent
 *    (it is built from always-on counters, not from metrics);
 *  - Machine::hostJson() surfaces the `machine.host.mem.*` gauges with
 *    positive values;
 *  - an 8x8x8 short-run delivered-count regression (the
 *    bench_host_speed --cycles 200 workload from test_lookahead.cpp)
 *    exercised at `machine` metrics level, proving coarse telemetry
 *    does not perturb the simulated machine.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/loads.hpp"
#include "core/machine.hpp"
#include "sim/rng.hpp"
#include "sim/rollup.hpp"
#include "sim/timeseries.hpp"
#include "tiny_json.hpp"
#include "traffic/driver.hpp"
#include "traffic/patterns.hpp"

namespace anton2 {
namespace {

using testjson::JsonValue;
using testjson::TinyJsonParser;

// ---------------------------------------------------------------------
// Shared workload: a pre-injected (feedback-free) 2x2x2 run
// ---------------------------------------------------------------------

MachineConfig
baseConfig(MetricsLevel level, int threads = 1, Cycle lookahead = 1)
{
    (void)level; // the level rides in via Instrumentation, not config
    MachineConfig cfg;
    cfg.radix = { 2, 2, 2 };
    cfg.chip.endpoints_per_node = 4;
    cfg.use_packaging = false;
    cfg.fixed_torus_latency = 12;
    cfg.seed = 9;
    cfg.threads = threads;
    cfg.lookahead = lookahead;
    return cfg;
}

/** Pre-inject 200 seeded random writes: no driver, no serial-phase
 * feedback, so the run is byte-identical across windows too. */
void
injectTraffic(Machine &m, std::uint64_t seed = 9)
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

/** Build, instrument at @p level (plus a 64-cycle interval sampler when
 * @p sampled), run the shared workload to the end. */
std::unique_ptr<Machine>
runAtLevel(MetricsLevel level, int threads = 1, Cycle lookahead = 1,
           bool sampled = false)
{
    auto m = std::make_unique<Machine>(baseConfig(level, threads,
                                                  lookahead));
    Instrumentation inst;
    inst.metrics = true;
    inst.metrics_level = level;
    if (sampled) {
        TimeseriesConfig tcfg;
        tcfg.window = 64;
        inst.timeseries = tcfg;
    }
    m->attachInstrumentation(inst);
    injectTraffic(*m);
    m->run(RunSpec::forCycles(2048));
    EXPECT_GT(m->totalDelivered(), 0u);
    return m;
}

/** Extract one top-level object (balanced braces) from pretty JSON.
 * Metric path names never contain braces, so brace counting is exact. */
std::string
topLevelObject(const std::string &json, const std::string &key)
{
    const std::string needle = "\"" + key + "\": {";
    const auto at = json.find(needle);
    if (at == std::string::npos) {
        ADD_FAILURE() << "no top-level \"" << key << "\" in JSON";
        return {};
    }
    std::size_t pos = at + needle.size() - 1;
    int depth = 0;
    for (; pos < json.size(); ++pos) {
        if (json[pos] == '{')
            ++depth;
        else if (json[pos] == '}' && --depth == 0)
            return json.substr(at, pos + 1 - at);
    }
    ADD_FAILURE() << "unbalanced braces after \"" << key << "\"";
    return {};
}

// ---------------------------------------------------------------------
// Cross-level rollup byte-identity
// ---------------------------------------------------------------------

TEST(RollupLevels, MachineSubtreeByteIdenticalAcrossLevels)
{
    const auto full = runAtLevel(MetricsLevel::Full);
    const std::string ref = topLevelObject(full->metricsJson(), "machine");
    ASSERT_FALSE(ref.empty());
    EXPECT_NE(ref.find("\"ep\""), std::string::npos);
    EXPECT_NE(ref.find("\"noc\""), std::string::npos);
    EXPECT_NE(ref.find("\"link\""), std::string::npos);

    for (MetricsLevel level : { MetricsLevel::Machine, MetricsLevel::Chip,
                                MetricsLevel::Router }) {
        const auto m = runAtLevel(level);
        EXPECT_EQ(topLevelObject(m->metricsJson(), "machine"), ref)
            << "machine.* rollups differ at level "
            << metricsLevelName(level);
    }
}

TEST(RollupLevels, CoarseLevelsShedFineStructureAndBytes)
{
    const auto machine = runAtLevel(MetricsLevel::Machine);
    const auto chip = runAtLevel(MetricsLevel::Chip);
    const auto router = runAtLevel(MetricsLevel::Router);
    const auto full = runAtLevel(MetricsLevel::Full);

    // Machine level exports no per-chip subtree at all.
    {
        const auto root =
            TinyJsonParser(machine->metricsJson()).parse();
        EXPECT_TRUE(root->has("machine"));
        EXPECT_FALSE(root->has("chip"))
            << "machine level must not export chip.* paths";
    }
    // Chip level: per-chip aggregates, but no per-router / per-adapter
    // / per-endpoint subtrees.
    {
        const auto root = TinyJsonParser(chip->metricsJson()).parse();
        const JsonValue &chips = root->at("chip");
        ASSERT_EQ(chips.object.size(), 8u);
        for (const auto &[id, c] : chips.object) {
            EXPECT_TRUE(c->has("ep")) << "chip " << id;
            EXPECT_TRUE(c->has("link")) << "chip " << id;
            EXPECT_TRUE(c->has("noc")) << "chip " << id;
            EXPECT_FALSE(c->has("router"))
                << "chip level must not record per-router paths";
            EXPECT_FALSE(c->has("ca"))
                << "chip level must not record per-adapter paths";
        }
    }
    // Router level materializes per-router paths but still no per-VC
    // occupancy detail; full does both.
    {
        const auto root = TinyJsonParser(router->metricsJson()).parse();
        const JsonValue &c0 = root->at("chip").at("0");
        EXPECT_TRUE(c0.has("router"));
        EXPECT_TRUE(c0.has("ca"));
        const std::string rjson = router->metricsJson();
        EXPECT_EQ(rjson.find("\"vc\""), std::string::npos)
            << "per-VC detail must be Full-only";
        EXPECT_NE(full->metricsJson().find("\"vc\""), std::string::npos);
    }
    // The registry footprint shrinks with the level: coarse 8-chip runs
    // hold chip aggregates only, full holds 16 routers x VCs per chip.
    const std::size_t machine_bytes = machine->metrics()->approxBytes();
    const std::size_t full_bytes = full->metrics()->approxBytes();
    EXPECT_GT(machine_bytes, 0u);
    EXPECT_GT(full_bytes, machine_bytes * 3)
        << "full-level registry should dwarf the machine-level one";
    EXPECT_GE(full->metrics()->approxBytes(),
              router->metrics()->approxBytes());
    EXPECT_GE(router->metrics()->approxBytes(),
              chip->metrics()->approxBytes());
}

TEST(RollupLevels, RollupSumsEqualFullLevelTreeExactly)
{
    const auto m = runAtLevel(MetricsLevel::Full);
    const std::string json = m->metricsJson();
    const auto root = TinyJsonParser(json).parse();

    // machine.ep.delivered == the machine's own delivery count == the
    // sum of the per-endpoint counters in the full-level tree.
    const double rolled =
        root->path("machine.ep.delivered").number;
    EXPECT_EQ(rolled, static_cast<double>(m->totalDelivered()));

    double per_ep = 0.0, per_ep_injected = 0.0;
    double per_ca_sent = 0.0;
    const JsonValue &chips = root->at("chip");
    for (const auto &[id, c] : chips.object) {
        // The chip's `ep` object holds per-endpoint subtrees alongside
        // the per-chip rollup leaf gauges; sum only the former.
        for (const auto &[eid, ep] : c->at("ep").object) {
            if (ep->kind != JsonValue::Kind::Object)
                continue;
            per_ep += ep->at("delivered").number;
            per_ep_injected += ep->at("injected").number;
        }
        for (const auto &[name, ca] : c->at("ca").object)
            per_ca_sent += ca->at("flits_sent").number;
    }
    EXPECT_EQ(per_ep, rolled);
    EXPECT_EQ(per_ep_injected,
              root->path("machine.ep.injected").number);
    EXPECT_EQ(per_ca_sent,
              root->path("machine.link.flits_sent").number);

    // The per-chip rollup layer agrees with the machine layer too.
    double chip_layer = 0.0;
    for (const auto &[id, c] : chips.object)
        chip_layer += c->at("ep").at("delivered").number;
    EXPECT_EQ(chip_layer, rolled);

    // The latency stat aggregates record one sample per delivery, so
    // their counts pin the same total a third way.
    EXPECT_EQ(root->path("machine.latency.network.count").number,
              static_cast<double>(m->totalDelivered()));
}

// ---------------------------------------------------------------------
// Run-report determinism across threads and windows
// ---------------------------------------------------------------------

TEST(ReportDeterminism, RunReportByteIdenticalAcrossThreadsAndWindows)
{
    // Feedback-free workload: the strongest contract - byte-identical
    // across thread counts AND windows (1 and auto).
    std::string ref;
    for (Cycle lookahead : { Cycle{ 1 }, Cycle{ 0 } }) {
        for (int threads : { 1, 2, 4 }) {
            const auto m =
                runAtLevel(MetricsLevel::Machine, threads, lookahead);
            const std::string report = m->runReportJson(4);
            if (ref.empty()) {
                ref = report;
                EXPECT_NE(ref.find("\"metrics_level\": \"machine\""),
                          std::string::npos);
                EXPECT_NE(ref.find("\"digest\""), std::string::npos);
                // No sampler / auditor attached: their slots are null
                // and the sampler's series are absent.
                EXPECT_NE(ref.find("\"steady_state\": null"),
                          std::string::npos);
                EXPECT_NE(ref.find("\"audit\": null"),
                          std::string::npos);
                EXPECT_EQ(ref.find("\"timeseries\""), std::string::npos);
            } else {
                EXPECT_EQ(report, ref)
                    << "threads=" << threads
                    << " lookahead=" << lookahead;
            }
        }
    }
    // The report parses, and its delivered count matches the rollup.
    const auto root = TinyJsonParser(ref).parse();
    EXPECT_EQ(root->at("delivered").number,
              root->path("metrics.machine.ep.delivered").number);
    EXPECT_EQ(root->at("metrics_level").string, "machine");

    // With a sampler attached the body carries its windowed series,
    // under the same contract.
    std::string sampled_ts;
    for (Cycle lookahead : { Cycle{ 1 }, Cycle{ 0 } }) {
        for (int threads : { 1, 2, 4 }) {
            const auto m = runAtLevel(MetricsLevel::Machine, threads,
                                      lookahead, /*sampled=*/true);
            const std::string ts =
                topLevelObject(m->runReportJson(4), "timeseries");
            if (sampled_ts.empty()) {
                sampled_ts = ts;
                ASSERT_FALSE(sampled_ts.empty());
            } else {
                EXPECT_EQ(ts, sampled_ts)
                    << "threads=" << threads
                    << " lookahead=" << lookahead;
            }
        }
    }
    const auto ts_root = TinyJsonParser("{" + sampled_ts + "}").parse();
    EXPECT_DOUBLE_EQ(ts_root->path("timeseries.window_cycles").number,
                     64.0);
    EXPECT_GT(ts_root->path("timeseries.windows").number, 0.0);
}

// ---------------------------------------------------------------------
// Hot-spot digest
// ---------------------------------------------------------------------

TEST(HotspotDigestSuite, SortedBoundedConservativeLevelIndependent)
{
    const auto m = runAtLevel(MetricsLevel::Machine);
    HotspotDigest d = m->hotspotDigest(5);

    EXPECT_EQ(d.k, 5u);
    EXPECT_LE(d.links.size(), 5u);
    EXPECT_LE(d.routers.size(), 5u);
    EXPECT_LE(d.oldest.size(), 5u);
    EXPECT_FALSE(d.links.empty());
    EXPECT_FALSE(d.routers.empty());
    for (std::size_t i = 1; i < d.links.size(); ++i)
        EXPECT_GE(d.links[i - 1].flits, d.links[i].flits);
    for (std::size_t i = 1; i < d.routers.size(); ++i)
        EXPECT_GE(d.routers[i - 1].flits, d.routers[i].flits);
    for (std::size_t i = 1; i < d.oldest.size(); ++i)
        EXPECT_GE(d.oldest[i - 1].age, d.oldest[i].age);
    for (const auto &l : d.links) {
        EXPECT_GE(l.utilization, 0.0);
        EXPECT_LE(l.utilization, 1.0);
    }

    // Six torus axes in fixed order; their flit totals conserve the raw
    // adapter counters exactly.
    ASSERT_EQ(d.axes.size(), 6u);
    const std::vector<std::string> order{ "X+", "X-", "Y+",
                                          "Y-", "Z+", "Z-" };
    std::uint64_t axis_flits = 0, axis_links = 0;
    for (std::size_t i = 0; i < 6; ++i) {
        EXPECT_EQ(d.axes[i].axis, order[i]);
        axis_flits += d.axes[i].flits;
        axis_links += d.axes[i].links;
    }
    std::uint64_t raw_flits = 0, raw_links = 0;
    for (NodeId n = 0; n < m->geom().numNodes(); ++n) {
        for (int ca = 0; ca < m->layout().numChannelAdapters(); ++ca) {
            raw_flits += m->chip(n).channelAdapter(ca).flitsSent();
            ++raw_links;
        }
    }
    EXPECT_EQ(axis_flits, raw_flits);
    EXPECT_EQ(axis_links, raw_links);
    EXPECT_GT(raw_flits, 0u);

    // The digest reads always-on counters, not metrics: an identical
    // full-level run (and even a metrics-free run) serializes the same
    // digest bytes.
    const std::string ref = hotspotDigestJson(d);
    {
        const auto f = runAtLevel(MetricsLevel::Full);
        EXPECT_EQ(hotspotDigestJson(f->hotspotDigest(5)), ref);
    }
    {
        Machine bare(baseConfig(MetricsLevel::Full));
        injectTraffic(bare);
        bare.run(RunSpec::forCycles(2048));
        EXPECT_EQ(hotspotDigestJson(bare.hotspotDigest(5)), ref)
            << "digest must not depend on metrics being enabled";
    }
}

// ---------------------------------------------------------------------
// Host memory gauges
// ---------------------------------------------------------------------

TEST(HostMemGauges, SetMemStatsSurfacesPositiveGauges)
{
    // A machine without metrics reports an empty registry footprint.
    {
        Machine bare(baseConfig(MetricsLevel::Chip));
        const auto root = TinyJsonParser(bare.hostJson()).parse();
        EXPECT_EQ(root->at("machine.host.mem.metric_registry_bytes").number,
                  0.0);
    }
    const auto m = runAtLevel(MetricsLevel::Chip);
    const auto root = TinyJsonParser(m->hostJson()).parse();
    EXPECT_GT(root->at("machine.host.mem.peak_rss_bytes").number, 0.0);
    EXPECT_GT(root->at("machine.host.mem.packet_pool_bytes").number, 0.0)
        << "a finished run should have parked packets in the pool";
    EXPECT_GT(root->at("machine.host.mem.metric_registry_bytes").number,
              0.0);
}

// ---------------------------------------------------------------------
// Pinned 8x8x8 regression at machine metrics level
// ---------------------------------------------------------------------

TEST(RollupRegression, Pinned8x8x8DeliveredAtMachineLevel)
{
    // The same workload test_lookahead.cpp pins bare (bench_host_speed
    // --cycles 200): here it runs under `machine`-level telemetry plus
    // the run report, proving coarse observability neither perturbs the
    // simulated machine nor loses the delivered count in the rollup.
    constexpr std::uint64_t kExpectedDelivered = 1791;
    const std::vector<int> radix{ 8, 8, 8 };

    ChipConfig chip;
    chip.endpoints_per_node = 8;
    const TorusGeom geom(radix);
    const ChipLayout layout(8);
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
    cfg.threads = 4;
    cfg.lookahead = 0;
    Machine m(cfg);
    Instrumentation inst;
    inst.metrics = true;
    inst.metrics_level = MetricsLevel::Machine;
    m.attachInstrumentation(inst);

    UniformPattern pat(m.geom());
    OpenLoopDriver::Config dcfg;
    dcfg.cores = firstEndpoints(4);
    dcfg.rate = rate;
    dcfg.pattern = &pat;
    OpenLoopDriver driver(m, dcfg);
    m.engine().add(driver);

    m.run(RunSpec::forCycles(200));
    EXPECT_EQ(m.now(), 200u);
    EXPECT_EQ(m.totalDelivered(), kExpectedDelivered);

    const std::string report = m.runReportJson();
    const auto root = TinyJsonParser(report).parse();
    EXPECT_EQ(root->at("delivered").number,
              static_cast<double>(kExpectedDelivered));
    EXPECT_EQ(root->path("metrics.machine.ep.delivered").number,
              static_cast<double>(kExpectedDelivered));
    EXPECT_FALSE(root->path("metrics").has("chip"))
        << "8x8x8 at machine level must not export per-chip paths";
    // The digest still names hot links even at the coarsest level.
    EXPECT_FALSE(root->path("digest.hot_links").array.empty());
}

} // namespace
} // namespace anton2
