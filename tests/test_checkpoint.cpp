/**
 * @file
 * Checkpoint/restore round-trip suite.
 *
 * The contract under test (src/debug/checkpoint.*, Machine::save/
 * restoreCheckpoint): a machine saved at cycle C and restored into a
 * freshly constructed machine continues *byte-identically* to the
 * uninterrupted run - same metrics, trace, flow, time-series, and audit
 * exports after C+N cycles - at any thread count and lookahead window.
 * Instrumentation is not checkpointed; both the baseline and the
 * restored run attach the same bundle at cycle C, the restored run after
 * its restore (a restore refuses an instrumented machine).
 *
 * Also pinned here: traffic-driver state rides along through the
 * checkpoint-client registry (a batch saved mid-flight completes after
 * restore), the RunSpec checkpoint_out plumbing, the link
 * layer's field lists, the reader's rejection of corrupted, truncated,
 * version-mismatched, config-mismatched, and client-mismatched files,
 * and a fuzz corpus of checksum-resealed mutations that restore must
 * either reject or survive.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "analysis/loads.hpp"
#include "core/machine.hpp"
#include "debug/checkpoint.hpp"
#include "halo.hpp"
#include "link/link_layer.hpp"
#include "routing/multicast.hpp"
#include "sim/engine.hpp"
#include "sim/rng.hpp"
#include "traffic/driver.hpp"
#include "traffic/patterns.hpp"

namespace anton2 {
namespace {

/** Scratch checkpoint path, unique per test to allow parallel ctest. */
std::string
ckptPath(const char *name)
{
    return std::string(::testing::TempDir()) + "ckpt_" + name + ".bin";
}

MachineConfig
smallConfig(std::uint64_t seed = 7)
{
    MachineConfig cfg;
    cfg.radix = { 2, 2, 2 };
    cfg.chip.endpoints_per_node = 2;
    cfg.use_packaging = false;
    cfg.fixed_torus_latency = 12;
    cfg.seed = seed;
    return cfg;
}

/** Seeded pre-injected workload: no serial-phase feedback, so the run
 * is byte-identical across lookahead windows as well as thread counts. */
void
preInject(Machine &m, std::uint64_t seed, std::uint64_t packets = 96)
{
    Rng traffic(seed * 2654435761ULL + 17);
    const auto nodes = static_cast<std::uint64_t>(m.geom().numNodes());
    for (std::uint64_t i = 0; i < packets; ++i) {
        const EndpointAddr src{ static_cast<NodeId>(traffic.below(nodes)),
                                static_cast<int>(traffic.below(2)) };
        const EndpointAddr dst{ static_cast<NodeId>(traffic.below(nodes)),
                                static_cast<int>(traffic.below(2)) };
        if (src.node == dst.node)
            continue;
        m.send(m.makeWrite(src, dst, 0,
                           1 + static_cast<int>(traffic.below(2))));
    }
}

/** The full observability stack, attached at the fork cycle by both the
 * uninterrupted baseline and every restored run. */
Instrumentation
forkInstrumentation()
{
    Instrumentation inst;
    inst.metrics = true;
    TraceConfig tcfg;
    tcfg.capacity = std::size_t{ 1 } << 16;
    inst.trace = tcfg;
    inst.flows = FlowProbeConfig{};
    TimeseriesConfig scfg;
    scfg.window = 32;
    inst.timeseries = scfg;
    AuditConfig acfg;
    acfg.audit_interval = 32;
    acfg.watchdog_interval = 64;
    inst.audit = acfg;
    return inst;
}

/** Every deterministic export the fork instrumentation produces. */
struct Exports
{
    std::uint64_t delivered = 0;
    Cycle final_cycle = 0;
    std::string metrics;
    std::string chrome;
    std::string flights;
    std::string flows;
    std::string timeseries;
    std::string audit;
};

Exports
capture(Machine &m)
{
    Exports e;
    e.delivered = m.totalDelivered();
    e.final_cycle = m.now();
    e.metrics = m.metricsJson();
    e.chrome = m.traceChromeJson();
    e.flights = m.traceFlightCsv();
    e.flows = m.flowMatrixCsv();
    e.timeseries = m.timeseriesJson();
    e.audit = m.audit()->reportJson();
    return e;
}

void
expectIdentical(const Exports &a, const Exports &b, const std::string &what)
{
    EXPECT_EQ(a.delivered, b.delivered) << what;
    EXPECT_EQ(a.final_cycle, b.final_cycle) << what;
    EXPECT_EQ(a.metrics, b.metrics) << what << ": metrics JSON differs";
    EXPECT_EQ(a.chrome, b.chrome) << what << ": Chrome trace differs";
    EXPECT_EQ(a.flights, b.flights) << what << ": flight CSV differs";
    EXPECT_EQ(a.flows, b.flows) << what << ": flow matrix differs";
    EXPECT_EQ(a.timeseries, b.timeseries)
        << what << ": time-series JSON differs";
    EXPECT_EQ(a.audit, b.audit) << what << ": audit report differs";
}

constexpr Cycle kForkCycle = 60;
constexpr Cycle kTailCycles = 400;

// ---------------------------------------------------------------------
// Byte-identical restore, pre-injected workload
// ---------------------------------------------------------------------

TEST(Checkpoint, RestoredRunMatchesUninterruptedAcrossThreadsAndWindows)
{
    // Uninterrupted baseline: run to C, attach the stack, run N more.
    Machine base(smallConfig());
    preInject(base, smallConfig().seed);
    base.run(RunSpec::forCycles(kForkCycle));
    base.attachInstrumentation(forkInstrumentation());
    base.run(RunSpec::forCycles(kTailCycles));
    const Exports expected = capture(base);
    EXPECT_GT(expected.delivered, 0u);
    EXPECT_EQ(expected.final_cycle, kForkCycle + kTailCycles);

    // Save at C from an identical (instrumentation-free) run.
    const std::string path = ckptPath("roundtrip");
    {
        Machine saver(smallConfig());
        preInject(saver, smallConfig().seed);
        saver.run(RunSpec::forCycles(kForkCycle));
        saver.saveCheckpoint(path);
    }

    // Restore into every thread-count x window combination; each must
    // reproduce the baseline exports byte for byte.
    for (int threads : { 1, 2, 4 }) {
        for (Cycle window : { Cycle{ 1 }, Cycle{ 0 } /* = auto */ }) {
            MachineConfig cfg = smallConfig();
            cfg.threads = threads;
            cfg.lookahead = window;
            Machine m(cfg);
            m.restoreCheckpoint(path);
            EXPECT_EQ(m.now(), kForkCycle);
            EXPECT_EQ(m.restoredFrom(), path);
            EXPECT_EQ(m.restoredCycle(), kForkCycle);
            m.attachInstrumentation(forkInstrumentation());
            m.run(RunSpec::forCycles(kTailCycles));
            expectIdentical(expected, capture(m),
                            "threads=" + std::to_string(threads)
                                + " window=" + std::to_string(window));
        }
    }
    std::remove(path.c_str());
}

TEST(Checkpoint, RestoreRefusesAttachedInstrumentation)
{
    // Instrumentation attaches after any restore: every layer takes its
    // baselines and barrier phase at its attach. restoreCheckpoint() on
    // a machine that has had a bundle attached throws std::logic_error
    // before it opens the image, and the machine runs on as if it had
    // never been asked: its exports equal a twin's.
    const std::string path = ckptPath("refused");
    {
        Machine saver(smallConfig());
        preInject(saver, smallConfig().seed);
        saver.run(RunSpec::forCycles(kForkCycle));
        saver.saveCheckpoint(path);
    }
    auto instrumented = [](Machine &m) {
        preInject(m, smallConfig().seed);
        m.run(RunSpec::forCycles(kForkCycle / 2));
        m.attachInstrumentation(forkInstrumentation());
        m.run(RunSpec::forCycles(kForkCycle / 2));
    };
    Machine twin(smallConfig());
    instrumented(twin);
    Machine m(smallConfig());
    instrumented(m);
    EXPECT_THROW(m.restoreCheckpoint(path), std::logic_error);
    // Refused before the file is opened: a missing one reads the same.
    EXPECT_THROW(m.restoreCheckpoint(ckptPath("refused_missing")),
                 std::logic_error);
    EXPECT_TRUE(m.restoredFrom().empty());
    EXPECT_EQ(m.restoredCycle(), 0u);
    EXPECT_EQ(m.now(), kForkCycle);
    for (Machine *x : { &m, &twin })
        x->run(RunSpec::forCycles(kTailCycles));
    expectIdentical(capture(twin), capture(m), "after a refused restore");

    // An empty bundle is an attach too.
    Machine bare(smallConfig());
    bare.attachInstrumentation(Instrumentation{});
    EXPECT_THROW(bare.restoreCheckpoint(path), std::logic_error);
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// Driver state rides along (checkpoint clients)
// ---------------------------------------------------------------------

/** Drive a fig9-style batch: run to C with the driver mid-flight, then
 * either save (path non-empty) or keep going to completion. */
struct BatchOutcome
{
    std::uint64_t delivered = 0;
    Cycle done_cycle = 0;
    std::string metrics;
};

TEST(Checkpoint, BatchDriverSavedMidFlightCompletesAfterRestore)
{
    // The BatchDriver injects from the serial phase, so runs at
    // different windows legitimately differ: compare baseline and
    // restored runs at a *matched* window.
    for (Cycle window : { Cycle{ 1 }, Cycle{ 0 } /* = auto */ }) {
        MachineConfig cfg = smallConfig(23);
        cfg.lookahead = window;

        auto drive = [&](Machine &m, BatchDriver &driver,
                         const std::string &save_path) {
            m.engine().add(driver);
            m.run(RunSpec::forCycles(kForkCycle));
            // The batch must actually be mid-flight at the fork.
            EXPECT_GT(driver.sentTotal(), 0u);
            EXPECT_LT(m.totalDelivered(), driver.deliveredTarget());
            if (!save_path.empty()) {
                m.saveCheckpoint(save_path);
                return BatchOutcome{};
            }
            Instrumentation inst;
            inst.metrics = true;
            m.attachInstrumentation(inst);
            RunResult res = m.run(
                RunSpec::untilDelivered(driver.deliveredTarget(), 500000));
            EXPECT_EQ(res.reason, StopReason::Delivered);
            EXPECT_TRUE(driver.done(m));
            return BatchOutcome{ m.totalDelivered(), m.now(),
                                 m.metricsJson() };
        };

        // Uninterrupted baseline.
        Machine base(cfg);
        UniformPattern bpat(base.geom());
        BatchDriver::Config dcfg;
        dcfg.cores = { 0, 1 };
        dcfg.batch_size = 24;
        dcfg.pattern = &bpat;
        BatchDriver bdriver(base, dcfg);
        const BatchOutcome expected = drive(base, bdriver, "");

        // Save mid-batch...
        const std::string path = ckptPath("driver");
        {
            Machine saver(cfg);
            UniformPattern spat(saver.geom());
            BatchDriver sdriver(saver, dcfg);
            drive(saver, sdriver, path);
        }

        // ...and restore into a different thread count. The driver's
        // progress is part of the image: the batch completes at the
        // same cycle with the same telemetry.
        MachineConfig rcfg = cfg;
        rcfg.threads = 2;
        Machine restored(rcfg);
        UniformPattern rpat(restored.geom());
        BatchDriver rdriver(restored, dcfg);
        restored.engine().add(rdriver);
        restored.restoreCheckpoint(path);
        EXPECT_GT(rdriver.sentTotal(), 0u);
        Instrumentation inst;
        inst.metrics = true;
        restored.attachInstrumentation(inst);
        RunResult res = restored.run(
            RunSpec::untilDelivered(rdriver.deliveredTarget(), 500000));
        EXPECT_EQ(res.reason, StopReason::Delivered);
        EXPECT_TRUE(rdriver.done(restored));
        EXPECT_EQ(restored.totalDelivered(), expected.delivered)
            << "window=" << window;
        EXPECT_EQ(restored.now(), expected.done_cycle)
            << "window=" << window;
        EXPECT_EQ(restored.metricsJson(), expected.metrics)
            << "window=" << window;
        std::remove(path.c_str());
    }
}

TEST(Checkpoint, WarmStartSamplerAndAuditorCountFromTheRestore)
{
    // A warm start attaches its sampler and auditor after the restore,
    // so both count from the fork: the first window starts at the
    // restored cycle and holds only what happened after it (not every
    // injection since cycle 0), and both barrier schedules are phased
    // to the fork. The exports equal an uninterrupted run's that
    // attached at the save cycle, at any thread count, compared at a
    // matched lookahead window (the driver's injections make runs at
    // different windows differ).
    auto attachSamplerAndAuditor = [](Machine &m) {
        Instrumentation inst;
        TimeseriesConfig scfg;
        scfg.window = 32;
        inst.timeseries = scfg;
        AuditConfig acfg;
        acfg.audit_interval = 32;
        acfg.watchdog_interval = 64;
        inst.audit = acfg;
        m.attachInstrumentation(inst);
    };
    auto injected = [](Machine &m) {
        std::uint64_t n = 0;
        for (NodeId node = 0; node < m.geom().numNodes(); ++node) {
            for (EndpointId e = 0; e < m.layout().numEndpoints(); ++e)
                n += m.chip(node).endpoint(e).injected();
        }
        return n;
    };
    struct Observed
    {
        std::string timeseries;
        std::string heatmap;
        std::string audit;
    };
    auto finish = [](Machine &m, const BatchDriver &driver) {
        EXPECT_EQ(m.run(RunSpec::untilDelivered(driver.deliveredTarget(),
                                                500000))
                      .reason,
                  StopReason::Delivered);
        return Observed{ m.timeseriesJson(), m.heatmapCsv(),
                         m.audit()->reportJson() };
    };

    for (Cycle window : { Cycle{ 1 }, Cycle{ 0 } /* = auto */ }) {
        MachineConfig cfg = smallConfig(23);
        cfg.lookahead = window;
        BatchDriver::Config dcfg;
        dcfg.cores = { 0, 1 };
        dcfg.batch_size = 24;

        // Uninterrupted baseline, attached at the save cycle.
        Machine base(cfg);
        UniformPattern bpat(base.geom());
        dcfg.pattern = &bpat;
        BatchDriver bdriver(base, dcfg);
        base.engine().add(bdriver);
        base.run(RunSpec::forCycles(kForkCycle));
        ASSERT_GT(bdriver.sentTotal(), 0u);
        ASSERT_LT(base.totalDelivered(), bdriver.deliveredTarget());
        attachSamplerAndAuditor(base);
        const Observed expected = finish(base, bdriver);

        const std::string path = ckptPath("warm_sampler");
        {
            Machine saver(cfg);
            UniformPattern spat(saver.geom());
            dcfg.pattern = &spat;
            BatchDriver sdriver(saver, dcfg);
            saver.engine().add(sdriver);
            saver.run(RunSpec::forCycles(kForkCycle));
            saver.saveCheckpoint(path);
        }

        for (int threads : { 1, 2 }) {
            const std::string what = "threads=" + std::to_string(threads)
                                     + " window=" + std::to_string(window);
            MachineConfig rcfg = cfg;
            rcfg.threads = threads;
            Machine m(rcfg);
            UniformPattern rpat(m.geom());
            dcfg.pattern = &rpat;
            BatchDriver rdriver(m, dcfg);
            // Serial-tail order as in the baseline: driver, then layers.
            m.engine().add(rdriver);
            m.restoreCheckpoint(path);
            attachSamplerAndAuditor(m);
            const std::uint64_t injected_at_fork = injected(m);
            ASSERT_GT(injected_at_fork, 0u) << what;
            const Observed got = finish(m, rdriver);

            const IntervalSampler &s = *m.timeseries();
            EXPECT_EQ(s.startCycle(), m.restoredCycle()) << what;
            EXPECT_EQ(s.windowStart(0), kForkCycle) << what;
            EXPECT_EQ(s.seriesSum(s.findSeries("machine.injected")),
                      static_cast<double>(injected(m) - injected_at_fork))
                << what;
            EXPECT_EQ(got.timeseries, expected.timeseries) << what;
            EXPECT_EQ(got.heatmap, expected.heatmap) << what;
            EXPECT_EQ(got.audit, expected.audit) << what;
        }
        std::remove(path.c_str());
    }
}

// ---------------------------------------------------------------------
// RunSpec checkpoint plumbing
// ---------------------------------------------------------------------

TEST(Checkpoint, RunSpecSavesAtRunEndAndRestoresBeforeRunning)
{
    const std::string path = ckptPath("runspec");

    Machine a(smallConfig(31));
    preInject(a, 31);
    RunSpec out_spec = RunSpec::forCycles(kForkCycle);
    out_spec.checkpoint_out = path;
    RunResult res = a.run(out_spec);
    // No steady-state sampler attached: the save lands at run end.
    EXPECT_TRUE(res.checkpoint_saved);
    EXPECT_EQ(res.checkpoint_cycle, kForkCycle);
    EXPECT_EQ(res.end_cycle, kForkCycle);
    a.run(RunSpec::forCycles(kTailCycles));

    // The image restores before the run that continues from it.
    Machine b(smallConfig(31));
    b.restoreCheckpoint(path);
    b.run(RunSpec::forCycles(kTailCycles));
    EXPECT_EQ(b.now(), kForkCycle + kTailCycles);
    EXPECT_EQ(b.restoredCycle(), kForkCycle);
    EXPECT_EQ(b.totalDelivered(), a.totalDelivered());
    std::remove(path.c_str());
}

TEST(Checkpoint, SteadyStateSaveLandsOnFirstCheckAfterConvergence)
{
    // With an auto-steady sampler attached, checkpoint_out is written at
    // the first predicate check after the detector converges - the
    // warm-start image --checkpoint-in runs resume from - not at run
    // end. The check stride (300) differs from the sampling window
    // (250), so the save cycle pins the check cadence, not the sampler's.
    constexpr Cycle kStride = 300;
    constexpr Cycle kSaveCycle = 5100; // pinned
    const std::string path = ckptPath("steady");

    MachineConfig cfg = smallConfig(47);
    cfg.chip.endpoints_per_node = 4;
    Machine m(cfg);
    Instrumentation inst;
    inst.metrics = true;
    TimeseriesConfig scfg;
    scfg.window = 250;
    scfg.auto_steady = true;
    inst.timeseries = scfg;
    m.attachInstrumentation(inst);

    UniformPattern pat(m.geom());
    OpenLoopDriver::Config dcfg;
    dcfg.cores = { 0, 1, 2, 3 };
    dcfg.rate = 0.02;
    dcfg.pattern = &pat;
    OpenLoopDriver driver(m, dcfg);
    m.engine().add(driver);

    RunSpec spec = RunSpec::forCycles(8000);
    spec.check_every = kStride;
    spec.checkpoint_out = path;
    const RunResult res = m.run(spec);

    const SteadyStateResult &ss = m.timeseries()->steadyState();
    ASSERT_TRUE(ss.converged);
    ASSERT_TRUE(res.checkpoint_saved);
    EXPECT_EQ(res.checkpoint_cycle, kSaveCycle);
    EXPECT_EQ(res.checkpoint_cycle % kStride, 0u);
    EXPECT_GT(res.checkpoint_cycle, ss.detected_cycle);
    EXPECT_LE(res.checkpoint_cycle - ss.detected_cycle, kStride);
    EXPECT_LT(res.checkpoint_cycle, res.end_cycle);
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// Rejection: corrupted / mismatched files fail loudly
// ---------------------------------------------------------------------

std::vector<char>
readAll(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return { std::istreambuf_iterator<char>(in),
             std::istreambuf_iterator<char>() };
}

void
writeAll(const std::string &path, const std::vector<char> &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(Checkpoint, MidMulticastImageIsThreadInvariantAndRestores)
{
    // Mid-step, multicast copies are new records made on the lanes and
    // their originals are released across chips at the barrier. None of
    // that reaches the image: ordinals follow the stream, so the image is
    // byte-identical at 1, 2 and 4 threads, and a restore finishes the
    // step exactly as the uninterrupted run does.
    auto config = [](int threads) {
        MachineConfig cfg = smallConfig(41);
        cfg.radix = { 3, 3, 3 };
        cfg.threads = threads;
        cfg.lookahead = 0;
        return cfg;
    };
    const std::string path = ckptPath("mid_mcast");
    std::vector<char> image;
    Exports expected;
    for (int threads : { 1, 2, 4 }) {
        Machine m(config(threads));
        const auto groups = test::installHalo(m, 2);
        test::sendHaloStep(m, groups, 2, 2, 1);
        m.run(RunSpec::forCycles(kForkCycle));
        bool multicast = false;
        for (NodeId n = 0; n < m.geom().numNodes(); ++n)
            multicast = multicast || m.chip(n).flitCensus().multicast;
        ASSERT_TRUE(multicast) << "the save must land mid-multicast";
        m.saveCheckpoint(path);
        if (threads == 1) {
            image = readAll(path);
            m.attachInstrumentation(forkInstrumentation());
            ASSERT_EQ(m.run(RunSpec::untilQuiescent(200000)).reason,
                      StopReason::Quiescent);
            expected = capture(m);
        } else {
            EXPECT_EQ(readAll(path), image) << "threads=" << threads;
        }
    }
    writeAll(path, image);
    for (int threads : { 1, 4 }) {
        Machine m(config(threads));
        m.restoreCheckpoint(path);
        m.attachInstrumentation(forkInstrumentation());
        ASSERT_EQ(m.run(RunSpec::untilQuiescent(200000)).reason,
                  StopReason::Quiescent);
        expectIdentical(expected, capture(m),
                        "restored at threads=" + std::to_string(threads));
        EXPECT_EQ(test::livePackets(m), 0u);
    }
    std::remove(path.c_str());
}

/** A router input's head that holds an output grant with one of its
 * two flits sent: where it sits, its packet, and its grant cycle. */
struct PartlySent
{
    NodeId node = 0;
    RouterId router = 0;
    std::uint64_t packet = 0;
    Cycle grant = 0;
};

/** The first granted 2-flit head with one flit sent in @p m. A head is
 * granted and sends its first flit in one tick, so when this is asked
 * after every cycle, what it finds was granted in the cycle just run. */
std::optional<PartlySent>
findPartlySent(Machine &m)
{
    for (NodeId n = 0; n < m.geom().numNodes(); ++n) {
        for (RouterId r = 0; r < m.layout().numRouters(); ++r) {
            const Router &rt = m.chip(n).router(r);
            for (int p = 0; p < rt.config().num_ports; ++p) {
                for (int v = 0; v < rt.config().num_vcs; ++v) {
                    const VcBuffer &buf = rt.inputBuffer(p, v);
                    if (buf.empty() || !buf.head().granted
                        || buf.head().size_flits != 2
                        || buf.head().sent != 1)
                        continue;
                    return PartlySent{ n, r, buf.head().pkt->id,
                                       m.now() - 1 };
                }
            }
        }
    }
    return std::nullopt;
}

/** The grant cycle on @p at's packet's hop span at its router, from the
 * flow probe's retained spans (kNoCycle if absent). */
Cycle
spanGrant(Machine &m, const PartlySent &at)
{
    for (const FlowProbe::Span &s : m.flows()->sampledSpans()) {
        if (s.meta.packet != at.packet)
            continue;
        for (const PacketEvent &hop : s.path) {
            if (hop.kind == TraceUnitKind::Router
                && hop.node == static_cast<std::int32_t>(at.node)
                && hop.unit == at.router)
                return hop.grant;
        }
    }
    return kNoCycle;
}

/** @p m's run report without its checkpoint-provenance line, which
 * names the image a restored run came from. */
std::string
reportBody(Machine &m)
{
    std::string r = m.runReportJson();
    const std::size_t at = r.find("\n  \"checkpoint\": ");
    if (at != std::string::npos)
        r.erase(at, r.find('\n', at + 1) - at);
    return r;
}

TEST(Checkpoint, OutputGrantCycleSurvivesASaveMidPacket)
{
    // A granted head owns its router output until its tail leaves, and
    // the output keeps the grant cycle its hop span reports; the image
    // keeps it in the head's entry. Save right after a 2-flit packet's
    // grant, with one flit sent: the continuation must export what the
    // uninterrupted run does, grant cycle included.
    Instrumentation inst = forkInstrumentation();
    inst.flows->sample = 1; // retain every delivered packet's hop path
    const std::string path = ckptPath("mid_grant");
    Machine base(smallConfig());
    preInject(base, smallConfig().seed);
    std::optional<PartlySent> at;
    while (!at && base.now() < kTailCycles) {
        base.run(RunSpec::forCycles(1));
        at = findPartlySent(base);
    }
    ASSERT_TRUE(at.has_value()) << "no 2-flit packet was granted";
    const Cycle fork = base.now();
    base.saveCheckpoint(path);
    const std::vector<char> image = readAll(path);
    base.attachInstrumentation(inst);
    base.run(RunSpec::forCycles(kTailCycles));
    const Exports expected = capture(base);
    const std::string report = reportBody(base);
    EXPECT_EQ(spanGrant(base, *at), at->grant);

    Machine m(smallConfig());
    m.restoreCheckpoint(path);
    EXPECT_EQ(m.now(), fork);
    // A re-save writes the output's grant cycle back into the entry.
    m.saveCheckpoint(path);
    EXPECT_EQ(readAll(path), image) << "re-saved image differs";
    m.attachInstrumentation(inst);
    m.run(RunSpec::forCycles(kTailCycles));
    expectIdentical(expected, capture(m), "restored mid-packet");
    EXPECT_EQ(reportBody(m), report) << "run report differs";
    EXPECT_EQ(spanGrant(m, *at), at->grant);
    std::remove(path.c_str());
}

/** Inputs of @p m's inverse-weighted arbiters, routers and adapters,
 * that the priority masks place in the upper window half. */
int
lowPriorityInputs(Machine &m)
{
    int low = 0;
    auto count = [&low](const InverseWeightedArbiter *arb) {
        for (int i = 0; arb != nullptr && i < arb->numInputs(); ++i)
            low += arb->accumulators().highPriority(i) ? 0 : 1;
    };
    for (NodeId n = 0; n < m.geom().numNodes(); ++n) {
        Chip &chip = m.chip(n);
        for (RouterId r = 0; r < m.layout().numRouters(); ++r) {
            for (int port = 0; port < kRouterPorts; ++port)
                count(chip.router(r).outputArbiter(port));
        }
        for (int ca = 0; ca < m.layout().numChannelAdapters(); ++ca) {
            count(chip.channelAdapter(ca).egressArbiter());
            count(chip.channelAdapter(ca).ingressArbiter());
        }
    }
    return low;
}

TEST(Checkpoint, InverseWeightedRoundTripContinuesIdentically)
{
    // The accumulators, weights and round-robin thermometers ride through
    // the image, and restore rebuilds each arbiter's priority mask from
    // the accumulators. Inputs are low priority at the fork, so a stale
    // mask would grant differently from the uninterrupted run.
    MachineConfig cfg = smallConfig(43);
    cfg.chip.arb = ArbPolicy::InverseWeighted;
    Machine base(cfg);
    const UniformPattern uniform(base.geom());
    BatchDriver::Config dcfg;
    dcfg.cores = { 0, 1 };
    dcfg.batch_size = 24;
    dcfg.pattern = &uniform;

    auto weigh = [&](Machine &m) {
        LoadModel lm(m.geom(), m.layout(), cfg.chip, 1);
        Rng rng(5);
        lm.addPattern(0, uniform, dcfg.cores, 200, rng);
        lm.applyWeights(m);
    };
    auto finish = [](Machine &m, BatchDriver &driver) {
        Instrumentation inst;
        inst.metrics = true;
        m.attachInstrumentation(inst);
        const RunResult res = m.run(
            RunSpec::untilDelivered(driver.deliveredTarget(), 500000));
        EXPECT_EQ(res.reason, StopReason::Delivered);
        return BatchOutcome{ m.totalDelivered(), m.now(), m.metricsJson() };
    };

    weigh(base);
    BatchDriver bdriver(base, dcfg);
    base.engine().add(bdriver);
    base.run(RunSpec::forCycles(kForkCycle));
    ASSERT_LT(base.totalDelivered(), bdriver.deliveredTarget());
    const int low_at_fork = lowPriorityInputs(base);
    ASSERT_GT(low_at_fork, 0);
    const BatchOutcome expected = finish(base, bdriver);

    std::vector<char> image;
    for (int threads : { 1, 2 }) {
        const std::string path = ckptPath("inverse_weighted");
        {
            MachineConfig scfg = cfg;
            scfg.threads = threads;
            Machine saver(scfg);
            weigh(saver);
            BatchDriver sdriver(saver, dcfg);
            saver.engine().add(sdriver);
            saver.run(RunSpec::forCycles(kForkCycle));
            saver.saveCheckpoint(path);
        }
        if (threads == 1)
            image = readAll(path);
        else
            EXPECT_EQ(readAll(path), image) << "threads=" << threads;

        // A fresh machine at the other thread count, weights
        // unprogrammed: the image carries them.
        MachineConfig rcfg = cfg;
        rcfg.threads = 3 - threads;
        Machine restored(rcfg);
        BatchDriver rdriver(restored, dcfg);
        restored.engine().add(rdriver);
        restored.restoreCheckpoint(path);
        EXPECT_EQ(lowPriorityInputs(restored), low_at_fork);
        const BatchOutcome got = finish(restored, rdriver);
        EXPECT_EQ(got.delivered, expected.delivered) << "threads=" << threads;
        EXPECT_EQ(got.done_cycle, expected.done_cycle)
            << "threads=" << threads;
        EXPECT_EQ(got.metrics, expected.metrics) << "threads=" << threads;
        std::remove(path.c_str());
    }
}

/** Save a valid checkpoint from a mid-run machine. */
std::string
makeValidCheckpoint(const char *name)
{
    const std::string path = ckptPath(name);
    Machine m(smallConfig());
    preInject(m, smallConfig().seed);
    m.run(RunSpec::forCycles(kForkCycle));
    m.saveCheckpoint(path);
    return path;
}

TEST(CheckpointReject, CorruptedPayloadFailsChecksum)
{
    const std::string path = makeValidCheckpoint("corrupt");
    std::vector<char> bytes = readAll(path);
    ASSERT_GT(bytes.size(), 64u);
    bytes[48] = static_cast<char>(bytes[48] ^ 0x5a); // inside the payload

    writeAll(path, bytes);
    Machine m(smallConfig());
    try {
        m.restoreCheckpoint(path);
        FAIL() << "corrupted checkpoint accepted";
    } catch (const CheckpointError &e) {
        EXPECT_NE(std::string(e.what()).find("checksum"),
                  std::string::npos)
            << "unexpected error: " << e.what();
    }
    std::remove(path.c_str());
}

TEST(CheckpointReject, VersionMismatchNamesBothVersions)
{
    const std::string path = makeValidCheckpoint("version");
    std::vector<char> bytes = readAll(path);
    // Header layout: 8-byte magic, then the little-endian u32 version.
    bytes[8] = static_cast<char>(kCheckpointVersion + 1);

    writeAll(path, bytes);
    Machine m(smallConfig());
    try {
        m.restoreCheckpoint(path);
        FAIL() << "version-mismatched checkpoint accepted";
    } catch (const CheckpointError &e) {
        EXPECT_NE(std::string(e.what()).find("version"), std::string::npos)
            << "unexpected error: " << e.what();
    }
    std::remove(path.c_str());
}

TEST(CheckpointReject, TruncatedFileIsRejected)
{
    const std::string path = makeValidCheckpoint("truncated");
    std::vector<char> bytes = readAll(path);
    bytes.resize(bytes.size() / 2);
    writeAll(path, bytes);
    Machine m(smallConfig());
    EXPECT_THROW(m.restoreCheckpoint(path), CheckpointError);
    std::remove(path.c_str());
}

TEST(CheckpointReject, ConfigFingerprintMismatchIsRejected)
{
    const std::string path = makeValidCheckpoint("fingerprint");
    // A different seed changes the fingerprint (and the RNG state the
    // image would silently clobber); restore must refuse.
    Machine other(smallConfig(/*seed=*/99));
    try {
        other.restoreCheckpoint(path);
        FAIL() << "fingerprint-mismatched checkpoint accepted";
    } catch (const CheckpointError &e) {
        EXPECT_NE(std::string(e.what()).find("fingerprint"),
                  std::string::npos)
            << "unexpected error: " << e.what();
    }
    std::remove(path.c_str());
}

TEST(CheckpointReject, ClientCountMismatchIsRejected)
{
    // Save with a BatchDriver registered as a checkpoint client...
    const std::string path = ckptPath("clients");
    MachineConfig cfg = smallConfig(23);
    {
        Machine m(cfg);
        UniformPattern pat(m.geom());
        BatchDriver::Config dcfg;
        dcfg.cores = { 0, 1 };
        dcfg.batch_size = 24;
        dcfg.pattern = &pat;
        BatchDriver driver(m, dcfg);
        m.engine().add(driver);
        m.run(RunSpec::forCycles(kForkCycle));
        m.saveCheckpoint(path);
    }
    // ...then restore into a machine with no driver: the client
    // registry no longer matches the file.
    Machine bare(cfg);
    try {
        bare.restoreCheckpoint(path);
        FAIL() << "client-mismatched checkpoint accepted";
    } catch (const CheckpointError &e) {
        EXPECT_NE(std::string(e.what()).find("client"), std::string::npos)
            << "unexpected error: " << e.what();
    }
    std::remove(path.c_str());
}

TEST(CheckpointReject, PacketHeldInTwoPlacesIsRejected)
{
    // One packet queued twice for injection: each queue entry would
    // deliver it, and so release it. A restore must refuse the image.
    const std::string path = ckptPath("held_twice");
    MachineConfig cfg = smallConfig();
    {
        Machine m(cfg);
        PacketPtr pkt = m.makeWrite({ 0, 0 }, { 1, 1 });
        m.send(pkt);
        m.send(pkt);
        m.saveCheckpoint(path);
    }
    Machine m(cfg);
    try {
        m.restoreCheckpoint(path);
        FAIL() << "a packet queued twice was restored";
    } catch (const CheckpointError &e) {
        EXPECT_NE(std::string(e.what()).find("held in two places"),
                  std::string::npos)
            << "unexpected error: " << e.what();
    }
    std::remove(path.c_str());
}

TEST(CheckpointReject, StateBreakingAnInvariantIsRejected)
{
    // An image whose state the runtime auditor would flag - here a
    // link that lost credits to a seeded fault - is refused, and the
    // error names the broken invariant.
    const std::string path = ckptPath("withheld");
    {
        Machine m(smallConfig());
        NetworkFault fault;
        fault.kind = NetworkFault::Kind::WithholdTorusCredits;
        Instrumentation inst;
        inst.faults.push_back(fault);
        m.attachInstrumentation(inst);
        preInject(m, smallConfig().seed);
        m.run(RunSpec::forCycles(kForkCycle));
        ASSERT_GT(m.chip(0).channelAdapter(0, Dir::Pos, 0).creditsWithheld(),
                  0u);
        m.saveCheckpoint(path);
    }
    Machine m(smallConfig());
    try {
        m.restoreCheckpoint(path);
        FAIL() << "image with withheld credits accepted";
    } catch (const CheckpointError &e) {
        EXPECT_NE(std::string(e.what()).find("credit_conservation"),
                  std::string::npos)
            << "unexpected error: " << e.what();
    }
    std::remove(path.c_str());
}

TEST(CheckpointReject, MissingFileIsRejected)
{
    Machine m(smallConfig());
    EXPECT_THROW(m.restoreCheckpoint(ckptPath("does_not_exist")),
                 CheckpointError);
}

TEST(Checkpoint, ColdStartReportsNoProvenance)
{
    Machine m(smallConfig());
    EXPECT_EQ(m.restoredFrom(), "");
    EXPECT_EQ(m.restoredCycle(), 0u);
}

/** ckptHash of the whole image a seeded 2x2x2 pre-injected run saves
 * at kForkCycle with packets in flight (inverse-weighted arbiters get
 * sampled uniform-traffic weights first). */
std::uint64_t
midFlightImageHash(ArbPolicy arb, const char *name)
{
    const std::string path = ckptPath(name);
    {
        MachineConfig cfg = smallConfig();
        cfg.chip.arb = arb;
        Machine m(cfg);
        if (arb == ArbPolicy::InverseWeighted) {
            LoadModel lm(m.geom(), m.layout(), cfg.chip, 1);
            Rng rng(5);
            lm.addPattern(0, UniformPattern(m.geom()), firstEndpoints(2), 200,
                          rng);
            lm.applyWeights(m);
        }
        preInject(m, cfg.seed);
        m.run(RunSpec::forCycles(kForkCycle));
        EXPECT_GT(test::livePackets(m), 0u) << "image must be mid-flight";
        m.saveCheckpoint(path);
    }
    const std::vector<char> bytes = readAll(path);
    std::remove(path.c_str());
    return ckptHash(bytes.data(), bytes.size());
}

TEST(Checkpoint, FingerprintsAndImageBytesArePinned)
{
    // Values of the format-v4 build. A change that moves one changes
    // what a saved image means, so it must bump kCheckpointVersion.
    MachineConfig packaged;
    packaged.radix = { 4, 4, 4 };
    packaged.chip.endpoints_per_node = 8;
    packaged.chip.arb = ArbPolicy::InverseWeighted;
    EXPECT_EQ(Machine(packaged).configFingerprint(), 0xe7fc5a22e3270e80ULL);
    EXPECT_EQ(Machine(smallConfig()).configFingerprint(),
              0xcb6671ad4b9b9422ULL);
    EXPECT_EQ(midFlightImageHash(ArbPolicy::RoundRobin, "pinned_rr"),
              0xcd5195fd4dafaf2aULL);
    EXPECT_EQ(midFlightImageHash(ArbPolicy::InverseWeighted, "pinned_iw"),
              0xe27b3f860ec9bd32ULL);
}

// ---------------------------------------------------------------------
// Link layer: the go-back-N state survives a save mid-retransmission
// ---------------------------------------------------------------------

/** A lossy link, ticked every cycle, recording every delivered frame. */
struct LinkRig
{
    LinkRig()
        : fwd(4, 0.001, 5), ack(4, 0.0, 6), sender({}, fwd, ack),
          receiver({}, fwd, ack,
                   [this](const FlitPayload &f, Cycle at) {
                       delivered.emplace_back(at, f);
                   })
    {
        engine.add(sender);
        engine.add(receiver);
    }

    void
    fields(CkptArchive &ar)
    {
        Cycle now = engine.now();
        ar.clock(now);
        fwd.fields(ar);
        ack.fields(ar);
        sender.fields(ar);
        receiver.fields(ar);
    }

    /** Restore the image at @p path, saved at cycle @p at. */
    void
    restore(const std::string &path, Cycle at)
    {
        engine.restoreNow(at);
        CkptArchive in(path, 0);
        in.readPackets({}, {});
        fields(in);
        in.finish();
    }

    Engine engine;
    LossyFrameChannel fwd;
    LossyFrameChannel ack;
    LinkSender sender;
    LinkReceiver receiver;
    std::vector<std::pair<Cycle, FlitPayload>> delivered;
};

TEST(Checkpoint, LinkLayerResumesMidRetransmission)
{
    constexpr Cycle kSave = 300;
    const std::string path = ckptPath("link");
    LinkRig base;
    for (std::uint64_t i = 0; i < 200; ++i)
        base.sender.offer(FlitPayload{ i, i * 7, ~i });
    base.engine.run(kSave);
    // Frames are in flight and at least one window has been resent.
    ASSERT_GT(base.sender.retransmissions(), 0u);
    ASSERT_GT(base.sender.backlog(), 0u);
    CkptArchive out;
    base.fields(out);
    out.writeFile(path, 0, {});
    const std::size_t before = base.delivered.size();
    base.engine.run(20000);

    LinkRig restored;
    restored.engine.restoreNow(kSave);
    CkptArchive in(path, 0);
    in.readPackets({}, {});
    restored.fields(in);
    in.finish();
    restored.engine.run(20000);
    EXPECT_EQ(restored.sender.retransmissions(),
              base.sender.retransmissions());
    const std::vector<std::pair<Cycle, FlitPayload>> tail(
        base.delivered.begin() + static_cast<std::ptrdiff_t>(before),
        base.delivered.end());
    EXPECT_EQ(base.delivered.size(), 200u);
    EXPECT_EQ(restored.delivered, tail);
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// Fuzz: every resealed single-byte mutation, truncation, or bad header
// either throws CheckpointError or restores a machine that runs on
// ---------------------------------------------------------------------

/**
 * A fuzz image's machine. Image A is the pre-injected small machine;
 * image B adds inverse-weighted arbitration, a batch driver, and a
 * multicast tree from node 0 to endpoint 1 of every other node. A
 * restore needs B's driver registered (and ticking) too.
 */
struct FuzzRig
{
    explicit FuzzRig(bool image_b)
        : m([image_b] {
              MachineConfig cfg = smallConfig();
              if (image_b)
                  cfg.chip.arb = ArbPolicy::InverseWeighted;
              return cfg;
          }()),
          pat(m.geom())
    {
        if (!image_b)
            return;
        BatchDriver::Config dcfg;
        dcfg.cores = firstEndpoints(2);
        dcfg.batch_size = 16;
        dcfg.pattern = &pat;
        driver = std::make_unique<BatchDriver>(m, dcfg);
        m.engine().add(*driver);
    }

    Machine m;
    UniformPattern pat;
    std::unique_ptr<BatchDriver> driver;
};

std::vector<char>
fuzzImage(bool image_b)
{
    const std::string path = ckptPath(image_b ? "fuzz_b" : "fuzz_a");
    {
        FuzzRig rig(image_b);
        if (image_b) {
            std::vector<McastDest> dests;
            for (NodeId n = 1; n < rig.m.geom().numNodes(); ++n)
                dests.push_back({ n, 1 });
            Rng tie(5);
            const std::int32_t group = rig.m.installTree(buildMcastTree(
                rig.m.geom(), 0, dests, DimOrder{ 0, 1, 2 }, 0, tie));
            for (int i = 0; i < 4; ++i)
                rig.m.sendMulticast({ 0, 0 }, group);
        }
        preInject(rig.m, smallConfig().seed);
        rig.m.run(RunSpec::forCycles(kForkCycle));
        rig.m.saveCheckpoint(path);
    }
    std::vector<char> bytes = readAll(path);
    std::remove(path.c_str());
    return bytes;
}

/** Header: 8-byte magic, u32 version, u64 fingerprint, u64 payload
 * size; the payload's FNV-1a checksum trails it. */
constexpr std::size_t kHeaderBytes = 28;

/** Rewrite the payload size and checksum to match the bytes. */
void
reseal(std::vector<char> &f)
{
    const std::uint64_t n = f.size() - kHeaderBytes - 8;
    std::memcpy(f.data() + 20, &n, 8);
    const std::uint64_t h = ckptHash(f.data() + kHeaderBytes, n);
    std::memcpy(f.data() + f.size() - 8, &h, 8);
}

/** One corpus case: an image with one payload byte replaced (and the
 * checksum resealed), or a whole file (truncations, bad headers), or a
 * directory. */
struct FuzzCase
{
    bool image_b = false;
    std::string label;
    std::size_t offset = 0; ///< replaced payload byte (byte cases)
    std::uint8_t value = 0;
    std::vector<char> file; ///< whole-file cases
    bool whole_file = false;
    bool directory = false;
    bool must_reject = false; ///< a restore that succeeds fails the case
};

/** Payload offset of the first @p marker section of @p img whose next
 * three 32-bit fields satisfy @p fits (0 if none). */
template <typename Fits>
std::size_t
findSection(const std::vector<char> &img, const char *marker, Fits &&fits)
{
    const auto tag =
        static_cast<std::uint32_t>(ckptHash(marker, std::strlen(marker)));
    for (std::size_t off = kHeaderBytes; off + 16 <= img.size() - 8; ++off) {
        std::uint32_t f[4];
        std::memcpy(f, img.data() + off, sizeof(f));
        if (f[0] == tag && fits(f[1], f[2], f[3]))
            return off;
    }
    return 0;
}

/** Image @p img with the 32-bit field at @p off set to @p value,
 * resealed: a case restore must reject. */
FuzzCase
fieldCase(const std::vector<char> &img, std::string label, std::size_t off,
          std::uint32_t value)
{
    FuzzCase c;
    c.label = std::move(label);
    c.whole_file = true;
    c.must_reject = true;
    c.file = img;
    std::memcpy(c.file.data() + off, &value, sizeof(value));
    reseal(c.file);
    return c;
}

/**
 * Range cases on image A's narrowed state: a VC buffer holding packets
 * (marker, depth, occupancy, entry count) gets an occupancy above its
 * depth, one that is right only in its low 16 bits, and an entry count
 * above depth + 1; a credit counter (marker, depth, VC count, first
 * count) gets a count above its depth and one that is right only in its
 * low 16 bits. Restore reads each as an int and must reject it before
 * narrowing.
 */
std::vector<FuzzCase>
narrowedStateCases(const std::vector<char> &img)
{
    const std::size_t buf = findSection(
        img, "vcbuf", [](std::uint32_t depth, std::uint32_t occ,
                         std::uint32_t n) {
            return depth == 8 && occ >= 1 && occ <= depth && n >= 1
                   && n <= depth + 1;
        });
    const std::size_t credits = findSection(
        img, "credits", [](std::uint32_t depth, std::uint32_t vcs,
                           std::uint32_t c) {
            return depth == 8 && vcs == 8 && c <= depth;
        });
    if (buf == 0 || credits == 0)
        return {};
    std::uint32_t depth, occ, credit;
    std::memcpy(&depth, img.data() + buf + 4, 4);
    std::memcpy(&occ, img.data() + buf + 8, 4);
    std::memcpy(&credit, img.data() + credits + 12, 4);
    std::vector<FuzzCase> out;
    out.push_back(fieldCase(img, "A occupancy above capacity", buf + 8,
                            depth + 1));
    out.push_back(fieldCase(img, "A occupancy past 16 bits", buf + 8,
                            occ + 0x10000));
    out.push_back(fieldCase(img, "A entry count above capacity + 1",
                            buf + 12, depth + 2));
    out.push_back(fieldCase(img, "A credit count above depth",
                            credits + 12, depth + 1));
    out.push_back(fieldCase(img, "A credit count past 16 bits",
                            credits + 12, credit + 0x10000));
    return out;
}

/**
 * The fixed corpus: per image, 500 seeds each of a bit flip, a random
 * byte, and an 0xff byte at a seeded payload offset, plus 8 truncated
 * payloads, all resealed; then one corruption of each header field of
 * image A, an empty file, and a directory.
 */
std::vector<FuzzCase>
fuzzCorpus(const std::vector<char> (&images)[2])
{
    std::vector<FuzzCase> out;
    const char *kinds[] = { "flip", "byte", "0xff" };
    for (int b = 0; b < 2; ++b) {
        const std::vector<char> &img = images[b];
        const std::string name = b != 0 ? "B " : "A ";
        const std::size_t payload = img.size() - kHeaderBytes - 8;
        for (std::uint64_t seed = 0; seed < 500; ++seed) {
            for (int kind = 0; kind < 3; ++kind) {
                Rng r(seed * 3 + static_cast<std::uint64_t>(kind) + 1);
                FuzzCase c;
                c.image_b = b != 0;
                c.offset = kHeaderBytes + r.below(payload);
                const auto old = static_cast<std::uint8_t>(img[c.offset]);
                c.value = kind == 0 ? static_cast<std::uint8_t>(
                                          old ^ (1u << r.below(8)))
                          : kind == 1
                              ? static_cast<std::uint8_t>(r.below(256))
                              : std::uint8_t{ 0xff };
                c.label = name + kinds[kind] + " seed " + std::to_string(seed)
                          + " offset " + std::to_string(c.offset);
                out.push_back(std::move(c));
            }
        }
        for (std::uint64_t t = 0; t < 8; ++t) {
            Rng r(1000 + t);
            const std::size_t keep = r.below(payload);
            FuzzCase c;
            c.image_b = b != 0;
            c.label = name + "truncated to " + std::to_string(keep);
            c.whole_file = true;
            c.file.assign(img.begin(),
                          img.begin()
                              + static_cast<std::ptrdiff_t>(kHeaderBytes
                                                            + keep));
            c.file.resize(c.file.size() + 8);
            reseal(c.file);
            out.push_back(std::move(c));
        }
    }
    const std::pair<const char *, std::size_t> header[] = {
        { "magic", 0 },         { "version", 8 },
        { "fingerprint", 12 },  { "payload size", 20 },
        { "checksum", images[0].size() - 8 },
    };
    for (const auto &[field, off] : header) {
        FuzzCase c;
        c.label = std::string("A header ") + field;
        c.whole_file = true;
        c.file = images[0];
        c.file[off] = static_cast<char>(c.file[off] ^ 0x01);
        out.push_back(std::move(c));
    }
    for (FuzzCase &c : narrowedStateCases(images[0]))
        out.push_back(std::move(c));
    FuzzCase empty;
    empty.label = "empty file";
    empty.whole_file = true;
    out.push_back(std::move(empty));
    FuzzCase dir;
    dir.label = "directory";
    dir.directory = true;
    out.push_back(std::move(dir));
    return out;
}

TEST(CheckpointFuzz, MutatedImagesAreRejectedOrRunOn)
{
    const std::vector<char> images[2] = { fuzzImage(false), fuzzImage(true) };
    const std::vector<FuzzCase> corpus = fuzzCorpus(images);
    ASSERT_EQ(corpus.size(), 2u * (3 * 500 + 8) + 5 + 5 + 2);

    // Cases are independent machines, so worker threads share the list.
    // A byte case patches the mutated byte and resealed checksum into
    // the worker's copy of its image, and restores them afterwards.
    std::atomic<std::size_t> next{ 0 };
    std::atomic<std::size_t> rejected{ 0 };
    std::mutex mu;
    std::vector<std::string> failures;
    const std::string dir = ckptPath("fuzz_dir");
    auto work = [&](int worker) {
        const std::string tag = "fuzz" + std::to_string(worker);
        const std::string file = ckptPath((tag + "_file").c_str());
        const std::string copy[2] = { ckptPath((tag + "_a").c_str()),
                                      ckptPath((tag + "_b").c_str()) };
        writeAll(copy[0], images[0]);
        writeAll(copy[1], images[1]);
        auto patch = [](const std::string &path, std::size_t off,
                        const char *bytes, std::size_t n) {
            std::fstream f(path, std::ios::binary | std::ios::in
                                     | std::ios::out);
            f.seekp(static_cast<std::streamoff>(off));
            f.write(bytes, static_cast<std::streamsize>(n));
        };
        for (std::size_t i; (i = next++) < corpus.size();) {
            const FuzzCase &c = corpus[i];
            const std::vector<char> &img = images[c.image_b ? 1 : 0];
            std::string path = c.directory ? dir : file;
            if (c.whole_file) {
                writeAll(file, c.file);
            } else if (!c.directory) {
                path = copy[c.image_b ? 1 : 0];
                std::vector<char> payload(img.begin() + kHeaderBytes,
                                          img.end() - 8);
                payload[c.offset - kHeaderBytes] =
                    static_cast<char>(c.value);
                const std::uint64_t h =
                    ckptHash(payload.data(), payload.size());
                patch(path, c.offset, &payload[c.offset - kHeaderBytes], 1);
                patch(path, img.size() - 8,
                      reinterpret_cast<const char *>(&h), 8);
            }
            std::string failure;
            {
                FuzzRig rig(c.image_b);
                try {
                    rig.m.restoreCheckpoint(path);
                    rig.m.run(RunSpec::forCycles(kTailCycles));
                    if (c.must_reject)
                        failure = c.label + ": restored";
                } catch (const CheckpointError &) {
                    ++rejected;
                } catch (const std::exception &e) {
                    failure = c.label + ": " + e.what();
                }
            }
            if (!c.whole_file && !c.directory) {
                patch(path, c.offset, &img[c.offset], 1);
                patch(path, img.size() - 8, &img[img.size() - 8], 8);
            }
            if (!failure.empty()) {
                std::lock_guard<std::mutex> lock(mu);
                failures.push_back(failure);
            }
        }
        for (const std::string &f : { file, copy[0], copy[1] })
            std::remove(f.c_str());
    };
    std::filesystem::create_directories(dir);
    const int workers = static_cast<int>(
        std::clamp(std::thread::hardware_concurrency(), 1u, 4u));
    std::vector<std::thread> pool;
    for (int w = 1; w < workers; ++w)
        pool.emplace_back(work, w);
    work(0);
    for (std::thread &t : pool)
        t.join();
    std::filesystem::remove(dir);

    for (const std::string &f : failures)
        ADD_FAILURE() << f;
    // The header corruptions, range cases, empty file, directory, and
    // truncations are rejected at least.
    EXPECT_GE(rejected.load(), 5u + 5u + 2u + 16u);
}

TEST(Checkpoint, LinkSenderTokensOutOfRangeAreRejected)
{
    constexpr Cycle kSave = 300;
    const std::string path = ckptPath("link_tokens");
    {
        LinkRig rig;
        for (std::uint64_t i = 0; i < 200; ++i)
            rig.sender.offer(FlitPayload{ i, i * 7, ~i });
        rig.engine.run(kSave);
        CkptArchive out;
        rig.fields(out);
        out.writeFile(path, 0, {});
    }
    const std::vector<char> img = readAll(path);
    // link.sender: its tag, the queued-frame count and frames, base,
    // next and the last-progress cycle, then the serializer tokens.
    const std::size_t tag = findSection(
        img, "link.sender",
        [](std::uint32_t, std::uint32_t, std::uint32_t) { return true; });
    ASSERT_NE(tag, 0u);
    std::uint32_t queued = 0;
    std::memcpy(&queued, img.data() + tag + 4, 4);
    const std::size_t at = tag + 8 + queued * sizeof(FlitPayload) + 16;
    std::int32_t saved = -1;
    std::memcpy(&saved, img.data() + at, sizeof(saved));
    EXPECT_GE(saved, 0);
    EXPECT_LE(saved, kSerdesTokenCap);

    auto restoreWith = [&](std::int32_t tokens) {
        std::vector<char> f = img;
        std::memcpy(f.data() + at, &tokens, sizeof(tokens));
        reseal(f);
        writeAll(path, f);
        LinkRig rig;
        rig.restore(path, kSave);
    };
    for (const std::int32_t tokens : { 0, kSerdesTokenCap })
        EXPECT_NO_THROW(restoreWith(tokens)) << "tokens " << tokens;
    for (const std::int32_t tokens : { kSerdesTokenCap + 1, -1 }) {
        try {
            restoreWith(tokens);
            ADD_FAILURE() << "tokens " << tokens << " restored";
        } catch (const CheckpointError &e) {
            EXPECT_NE(std::string(e.what()).find("link.sender"),
                      std::string::npos)
                << e.what();
        }
    }
    std::remove(path.c_str());
}

} // namespace
} // namespace anton2
