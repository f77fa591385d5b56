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
 * restored run attach the same bundle at cycle C.
 *
 * Also pinned here: traffic-driver state rides along through the
 * checkpoint-client registry (a batch saved mid-flight completes after
 * restore), the RunSpec checkpoint_in/checkpoint_out plumbing, and the
 * reader's rejection of corrupted, truncated, version-mismatched,
 * config-mismatched, and client-mismatched files.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "core/machine.hpp"
#include "debug/checkpoint.hpp"
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

    Machine b(smallConfig(31));
    RunSpec in_spec = RunSpec::forCycles(kTailCycles);
    in_spec.checkpoint_in = path;
    b.run(in_spec);
    EXPECT_EQ(b.now(), kForkCycle + kTailCycles);
    EXPECT_EQ(b.restoredCycle(), kForkCycle);
    EXPECT_EQ(b.totalDelivered(), a.totalDelivered());
    std::remove(path.c_str());
}

TEST(Checkpoint, SteadyStateSaveLandsOnFirstCheckAfterConvergence)
{
    // With an auto-steady sampler attached, checkpoint_out is written at
    // the first predicate check after the detector converges - the
    // warm-start image batch sweeps fork from - not at run end. The
    // check stride (300) differs from the sampling window (250), so the
    // save cycle pins the check cadence, not the sampler's.
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

} // namespace
} // namespace anton2
