/**
 * @file
 * Unit and property tests for the telemetry layer: Counter, Histogram,
 * MetricsRegistry path registration/aggregation/reset, and toJson()
 * round-trips through the shared in-test JSON parser (tiny_json.hpp).
 */
#include <gtest/gtest.h>

#include <cmath>
#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "core/machine.hpp"
#include "routing/route.hpp"
#include "sim/metrics.hpp"
#include "sim/rng.hpp"
#include "tiny_json.hpp"

namespace anton2 {
namespace {

using testjson::JsonValue;
using testjson::TinyJsonParser;

// ---------------------------------------------------------------------
// Counter
// ---------------------------------------------------------------------

TEST(Counter, IncrementAndReset)
{
    Counter c;
    EXPECT_EQ(c.value(), 0u);
    c.inc();
    c.inc(41);
    EXPECT_EQ(c.value(), 42u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

// ---------------------------------------------------------------------
// ScalarStat empty-state fix
// ---------------------------------------------------------------------

TEST(ScalarStat, EmptyMinMaxIsNan)
{
    ScalarStat s;
    EXPECT_TRUE(std::isnan(s.min()));
    EXPECT_TRUE(std::isnan(s.max()));
    s.add(3.0);
    EXPECT_DOUBLE_EQ(s.min(), 3.0);
    EXPECT_DOUBLE_EQ(s.max(), 3.0);
    s.reset();
    EXPECT_TRUE(std::isnan(s.min()));
    EXPECT_TRUE(std::isnan(s.max()));
}

TEST(ScalarStat, EmptyMinMaxSerializesAsNull)
{
    MetricsRegistry reg;
    reg.scalar("empty.stat");
    const auto doc = TinyJsonParser(reg.toJson()).parse();
    const auto &stat = doc->path("empty.stat");
    EXPECT_EQ(stat.at("count").number, 0.0);
    EXPECT_EQ(stat.at("min").kind, JsonValue::Kind::Null);
    EXPECT_EQ(stat.at("max").kind, JsonValue::Kind::Null);
}

// ---------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------

TEST(Histogram, ResetClearsCountsAndMoments)
{
    Histogram h(8, 4.0);
    for (double x : { 1.0, 5.0, 100.0 })
        h.add(x);
    EXPECT_EQ(h.stat().count(), 3u);
    h.reset();
    EXPECT_EQ(h.stat().count(), 0u);
    for (const auto c : h.counts())
        EXPECT_EQ(c, 0u);
    // Usable after reset.
    h.add(2.0);
    EXPECT_EQ(h.counts()[0], 1u);
}

TEST(Histogram, QuantilesMatchSortedOracleOnRandomData)
{
    // Property: the binned quantile must land within one bin width of
    // the exact order statistic, across several distributions and seeds.
    for (const std::uint64_t seed : { 3u, 17u, 99u }) {
        Rng rng(seed);
        constexpr double kBinWidth = 2.0;
        Histogram h(256, kBinWidth);
        std::vector<double> oracle;
        for (int i = 0; i < 5000; ++i) {
            // Mixture: uniform bulk plus a sparse heavy tail.
            const double x = rng.chance(0.05)
                                 ? 300.0 + rng.uniform() * 200.0
                                 : rng.uniform() * 100.0;
            h.add(x);
            oracle.push_back(x);
        }
        std::sort(oracle.begin(), oracle.end());
        for (const double q : { 0.1, 0.5, 0.9, 0.99 }) {
            const auto rank = static_cast<std::size_t>(
                q * static_cast<double>(oracle.size()));
            const double exact = oracle[rank];
            EXPECT_NEAR(h.quantile(q), exact, kBinWidth)
                << "q=" << q << " seed=" << seed;
        }
        // q=1.0 degenerates to the exact maximum.
        EXPECT_DOUBLE_EQ(h.quantile(1.0), oracle.back());
    }
}

// ---------------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------------

TEST(MetricsRegistry, PathRegistrationReturnsSameObject)
{
    MetricsRegistry reg;
    Counter &a = reg.counter("x.y.count");
    Counter &b = reg.counter("x.y.count");
    EXPECT_EQ(&a, &b);
    a.inc(7);
    EXPECT_EQ(b.value(), 7u);
    EXPECT_EQ(reg.size(), 1u);

    // Shared aggregation: two "components" recording into one scalar.
    ScalarStat &s1 = reg.scalar("machine.latency");
    ScalarStat &s2 = reg.scalar("machine.latency");
    s1.add(1.0);
    s2.add(3.0);
    EXPECT_EQ(reg.findScalar("machine.latency")->count(), 2u);
}

TEST(MetricsRegistry, KindConflictThrows)
{
    MetricsRegistry reg;
    reg.counter("a.b");
    EXPECT_THROW(reg.scalar("a.b"), std::invalid_argument);
    EXPECT_THROW(reg.histogram("a.b", 4, 1.0), std::invalid_argument);
    EXPECT_EQ(reg.findScalar("a.b"), nullptr);
    EXPECT_NE(reg.findCounter("a.b"), nullptr);
}

TEST(MetricsRegistry, NestingConflictThrows)
{
    MetricsRegistry reg;
    reg.counter("a.b");
    // "a.b" is a leaf: neither a child nor a parent may also register.
    EXPECT_THROW(reg.counter("a.b.c"), std::invalid_argument);
    EXPECT_THROW(reg.counter("a"), std::invalid_argument);
    EXPECT_NO_THROW(reg.counter("a.c"));
}

TEST(MetricsRegistry, PathCharacterBelowDotThrows)
{
    // The export writes the sorted map as the hierarchy's depth-first
    // order, which holds only while no character sorts below '.': "a-b"
    // sorts before "a.b", yet its segment "a-b" sorts after "a".
    MetricsRegistry reg;
    reg.counter("a.b");
    for (const std::string path :
         { "a-b", "a b", "a,c.d", "x.y!", "a.b\t", "q+1", "p#" }) {
        EXPECT_THROW(reg.counter(path), std::invalid_argument) << path;
        EXPECT_THROW(reg.setGauge(path, 1.0), std::invalid_argument) << path;
        EXPECT_THROW(reg.histogram(path, 4, 1.0), std::invalid_argument)
            << path;
    }
    EXPECT_EQ(reg.size(), 1u);
    EXPECT_NO_THROW(reg.counter("a_b.c0"));
    EXPECT_NO_THROW(reg.setGauge("z.x0p.utilization", 0.5));
}

TEST(MetricsRegistry, ToJsonNestsDivergingPaths)
{
    // Consecutive paths share objects up to where they diverge, at any
    // depth; a key that extends a sibling's ("bc" after "b") opens a new
    // object, not the sibling's.
    MetricsRegistry reg;
    reg.counter("b").inc(5);
    reg.counter("a0").inc(4);
    reg.counter("a.bc.x").inc(3);
    reg.counter("a.b.d").inc(2);
    reg.counter("a.b.c").inc(1);
    EXPECT_EQ(reg.toJson(), "{\n"
                            "  \"a\": {\n"
                            "    \"b\": {\n"
                            "      \"c\": 1,\n"
                            "      \"d\": 2\n"
                            "    },\n"
                            "    \"bc\": {\n"
                            "      \"x\": 3\n"
                            "    }\n"
                            "  },\n"
                            "  \"a0\": 4,\n"
                            "  \"b\": 5\n"
                            "}\n");
    EXPECT_EQ(MetricsRegistry().toJson(), "{}\n");
}

TEST(MetricsRegistry, ResetClearsEverything)
{
    MetricsRegistry reg;
    reg.counter("c").inc(5);
    reg.scalar("s").add(2.0);
    reg.histogram("h", 4, 1.0).add(0.5);
    reg.setGauge("g", 9.0);
    reg.reset();
    EXPECT_EQ(reg.findCounter("c")->value(), 0u);
    EXPECT_EQ(reg.findScalar("s")->count(), 0u);
    EXPECT_EQ(reg.findHistogram("h")->stat().count(), 0u);
    const auto doc = TinyJsonParser(reg.toJson()).parse();
    EXPECT_EQ(doc->at("g").number, 0.0);
}

// ---------------------------------------------------------------------
// Warmup / reset / measure protocol
// ---------------------------------------------------------------------

namespace warmup_reset {

MachineConfig
machineConfig()
{
    MachineConfig cfg;
    cfg.radix = { 2, 2, 2 };
    cfg.chip.endpoints_per_node = 2;
    cfg.use_packaging = false;
    cfg.fixed_torus_latency = 8;
    cfg.seed = 7;
    return cfg;
}

void
attachMetrics(Machine &m)
{
    Instrumentation inst;
    inst.metrics = true;
    m.attachInstrumentation(inst);
}

/**
 * Drive @p count packets over a fixed src/dst sweep with explicit routes
 * (a dedicated route rng, so both machines see byte-identical packets
 * regardless of how much machine rng the warmup consumed). Packets run
 * one at a time: with the network idle between sends, timing cannot
 * depend on leftover arbiter state from a warmup phase.
 */
void
drive(Machine &m, int count, std::uint64_t route_seed)
{
    Rng tie(route_seed);
    const auto nodes = m.geom().numNodes();
    for (int i = 0; i < count; ++i) {
        const auto a = static_cast<NodeId>(i % nodes);
        const auto b = static_cast<NodeId>((i + 3) % nodes);
        if (a == b)
            continue;
        auto pkt = m.makeWrite({ a, 0 }, { b, 1 });
        const PacketRoute route =
            makeRoute(m.geom(), a, b, DimOrder{ 0, 1, 2 }, 0, tie);
        m.setRoute(*pkt, route);
        m.send(pkt);
        ASSERT_EQ(m.run(RunSpec::untilQuiescent(100000)).reason,
                  StopReason::Quiescent);
    }
}

/**
 * The per-component counts a route fixes, keyed by path, from a
 * full-level export: router flits per input port, adapter flits sent
 * and received, endpoint injections and deliveries.
 */
std::map<std::string, double>
componentCounts(Machine &m)
{
    std::map<std::string, double> out;
    const auto root = TinyJsonParser(m.metricsJson()).parse();
    for (const auto &[id, c] : root->at("chip").object) {
        const std::string chip = "chip." + id;
        for (const auto &[u, col] : c->at("router").object) {
            for (const auto &[v, r] : col->object) {
                for (const auto &[port, n] : r->at("flits_in").object)
                    out[chip + ".router." + u + "." + v + ".flits_in."
                        + port] = n->number;
            }
        }
        for (const auto &[name, ca] : c->at("ca").object) {
            for (const char *leaf : { "flits_sent", "flits_received" })
                out[chip + ".ca." + name + "." + leaf] =
                    ca->at(leaf).number;
        }
        for (const auto &[e, ep] : c->at("ep").object) {
            if (ep->kind != JsonValue::Kind::Object)
                continue; // the chip's rollup leaves
            for (const char *leaf : { "injected", "delivered" })
                out[chip + ".ep." + e + "." + leaf] = ep->at(leaf).number;
        }
    }
    return out;
}

/** The measurement-relevant registry slices (relative quantities only;
 * gauges like machine.cycles depend on absolute time by design). */
struct Snapshot
{
    std::uint64_t delivered;
    std::uint64_t hops_count;
    double hops_mean;
    std::uint64_t lat_count;
    double lat_mean, lat_min, lat_max;
    std::vector<std::uint64_t> lat_histogram;
    std::map<std::string, double> components;

    static Snapshot
    take(Machine &m)
    {
        Snapshot s;
        s.delivered = m.metrics()->findCounter("machine.delivered")->value();
        const ScalarStat *hops = m.metrics()->findScalar("machine.hops");
        s.hops_count = hops->count();
        s.hops_mean = hops->mean();
        const ScalarStat *lat =
            m.metrics()->findScalar("machine.latency.network");
        s.lat_count = lat->count();
        s.lat_mean = lat->mean();
        s.lat_min = lat->min();
        s.lat_max = lat->max();
        s.lat_histogram =
            m.metrics()->findHistogram("machine.latency.total")->counts();
        s.components = componentCounts(m);
        return s;
    }
};

} // namespace warmup_reset

TEST(MetricsRegistry, WarmupResetMeasureMatchesFreshMeasure)
{
    using namespace warmup_reset;

    // Machine A: warmup traffic, quiesce, reset, then measure.
    Machine warmed(machineConfig());
    attachMetrics(warmed);
    drive(warmed, 24, /*route_seed=*/11);
    EXPECT_GT(warmed.metrics()->findCounter("machine.delivered")->value(),
              0u);
    warmed.metrics()->reset();
    EXPECT_EQ(warmed.metrics()->findCounter("machine.delivered")->value(),
              0u);
    drive(warmed, 16, /*route_seed=*/42);
    const auto after_reset = Snapshot::take(warmed);

    // Machine B: the measurement phase alone.
    Machine fresh(machineConfig());
    attachMetrics(fresh);
    drive(fresh, 16, /*route_seed=*/42);
    const auto baseline = Snapshot::take(fresh);

    EXPECT_EQ(after_reset.delivered, baseline.delivered);
    EXPECT_GT(after_reset.delivered, 0u);
    EXPECT_EQ(after_reset.hops_count, baseline.hops_count);
    EXPECT_DOUBLE_EQ(after_reset.hops_mean, baseline.hops_mean);
    EXPECT_EQ(after_reset.lat_count, baseline.lat_count);
    EXPECT_DOUBLE_EQ(after_reset.lat_mean, baseline.lat_mean);
    EXPECT_DOUBLE_EQ(after_reset.lat_min, baseline.lat_min);
    EXPECT_DOUBLE_EQ(after_reset.lat_max, baseline.lat_max);
    EXPECT_EQ(after_reset.lat_histogram, baseline.lat_histogram);
    // The reset restarts the per-component counts too.
    EXPECT_EQ(after_reset.components, baseline.components);
    double sent = 0.0;
    for (const auto &[path, n] : baseline.components)
        sent += path.find(".ca.") != std::string::npos ? n : 0.0;
    EXPECT_GT(sent, 0.0);
}

TEST(Metrics, AttachedBeforeRestoreCountFromRestore)
{
    using namespace warmup_reset;
    // Two machines measure the same cycles. One runs from cycle 0 with
    // packets in flight, saves a checkpoint and resets its registry; the
    // other attaches metrics, then restores that checkpoint. Every count
    // - per component and machine-wide - must cover only the cycles
    // after the restore, so the two exports are byte-identical.
    const std::string image =
        std::string(::testing::TempDir()) + "metrics_restore.ckpt";
    constexpr Cycle kSave = 40;
    constexpr Cycle kRest = 3000;
    Machine ran(machineConfig());
    attachMetrics(ran);
    for (int i = 0; i < 96; ++i) {
        const auto a = static_cast<NodeId>(i % 8);
        const auto b = static_cast<NodeId>((i * 3 + 1) % 8);
        ran.send(ran.makeWrite({ a, i % 2 }, { b, (i / 2) % 2 }, 0,
                               1 + i % 2));
    }
    RunSpec save = RunSpec::forCycles(kSave);
    save.checkpoint_out = image;
    ran.run(save);
    const std::uint64_t before = ran.totalDelivered();
    ran.metrics()->reset();
    ran.run(RunSpec::forCycles(kRest));

    Machine restored(machineConfig());
    attachMetrics(restored);
    RunSpec resume = RunSpec::forCycles(kRest);
    resume.checkpoint_in = image;
    restored.run(resume);
    std::remove(image.c_str());

    ASSERT_EQ(restored.now(), ran.now());
    ASSERT_EQ(restored.totalDelivered(), 96u);
    ASSERT_GT(before, 0u);
    ASSERT_LT(before, 96u);
    const std::string json = restored.metricsJson();
    EXPECT_EQ(json, ran.metricsJson());
    const auto root = TinyJsonParser(json).parse();
    const auto after = static_cast<double>(96 - before);
    EXPECT_EQ(root->path("machine.delivered").number, after);
    EXPECT_EQ(root->path("machine.ep.delivered").number, after);
    EXPECT_EQ(root->path("machine.latency.network.count").number, after);
    double delivered = 0.0;
    for (const auto &[path, n] : componentCounts(restored))
        delivered += path.ends_with(".delivered") ? n : 0.0;
    EXPECT_EQ(delivered, after);
}

TEST(MetricsRegistry, ToJsonRoundTrip)
{
    MetricsRegistry reg;
    reg.counter("chip.0.router.1.2.flits").inc(123);
    reg.counter("chip.0.router.1.2.grants").inc(45);
    reg.counter("chip.10.ca.x0p.flits_sent").inc(9);
    reg.scalar("machine.latency.network").add(10.0);
    reg.scalar("machine.latency.network").add(30.0);
    auto &h = reg.histogram("machine.latency.total", 4, 10.0);
    for (double x : { 1.0, 12.0, 35.0, 99.0 })
        h.add(x);
    reg.setGauge("machine.cycles", 5000.0);

    const std::string json = reg.toJson();
    const auto doc = TinyJsonParser(json).parse();

    EXPECT_EQ(doc->path("chip.0.router.1.2.flits").number, 123.0);
    EXPECT_EQ(doc->path("chip.0.router.1.2.grants").number, 45.0);
    EXPECT_EQ(doc->path("chip.10.ca.x0p.flits_sent").number, 9.0);
    EXPECT_EQ(doc->path("machine.cycles").number, 5000.0);

    const auto &net = doc->path("machine.latency.network");
    EXPECT_EQ(net.at("count").number, 2.0);
    EXPECT_EQ(net.at("mean").number, 20.0);
    EXPECT_EQ(net.at("min").number, 10.0);
    EXPECT_EQ(net.at("max").number, 30.0);

    const auto &tot = doc->path("machine.latency.total");
    EXPECT_EQ(tot.at("bin_width").number, 10.0);
    EXPECT_EQ(tot.at("count").number, 4.0);
    ASSERT_EQ(tot.at("counts").array.size(), 5u); // 4 bins + overflow
    EXPECT_EQ(tot.at("counts").array[0]->number, 1.0);
    EXPECT_EQ(tot.at("counts").array[4]->number, 1.0);

    // Serialization is deterministic.
    EXPECT_EQ(json, reg.toJson());
}

TEST(MetricsRegistry, JsonNumberFormatting)
{
    EXPECT_EQ(jsonNumber(0.0), "0");
    EXPECT_EQ(jsonNumber(42.0), "42");
    EXPECT_EQ(jsonNumber(-3.0), "-3");
    EXPECT_EQ(jsonNumber(std::numeric_limits<double>::quiet_NaN()),
              "null");
    EXPECT_EQ(jsonNumber(std::numeric_limits<double>::infinity()), "null");
    // Fractional values round-trip exactly through the parser.
    const double x = 0.3463203463203463;
    EXPECT_EQ(std::stod(jsonNumber(x)), x);
}

} // namespace
} // namespace anton2
