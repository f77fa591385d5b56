/**
 * @file
 * The repository benchmark harness. It drives the simulator library from
 * outside, through its public facade only (Machine, the traffic drivers,
 * LoadModel, the multicast tree builder and Machine::run(RunSpec)), and
 * runs one named workload per invocation:
 *
 *   open_uniform_4x4x4      open-loop uniform stream, serial
 *   batch_uniform_8x8x8_t2  Fig 9 closed batch on 512 nodes, 2 threads
 *   halo_mcast_4x4x4        MD halo multicast steps, serial
 *
 * A run repeats the workload (set-up included) until --seconds have
 * passed, at least kMinReps times, and reports medians over the
 * repetitions, with host times scaled to a reference host speed (see
 * HostSpeed). Every repetition of one seed simulates the same thing, so
 * the harness checks that their simulated digests agree, that packets are
 * conserved, and, for the default seed, that the digest matches the
 * pinned one. With --trace 1 it alternates bare repetitions with ones
 * that attach the engine self-profiler and time the set-up calls into
 * each layer, then measures the cost of every other instrumentation
 * layer on a brief variant of the same workload, and reports per-layer
 * metrics instead.
 *
 * The last stdout line is one JSON object:
 *   {"correct": bool, "attempted": n, "failed": n, "metrics": {...}}
 * The exit code is non-zero when a correctness check fails.
 *
 * `--check-threads` instead runs a shortened batch workload at 1 and 2
 * engine threads and fails unless the digests are identical.
 */
#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "analysis/loads.hpp"
#include "core/machine.hpp"
#include "routing/multicast.hpp"
#include "sim/timeseries.hpp"
#include "traffic/driver.hpp"
#include "traffic/patterns.hpp"

using namespace anton2;

namespace {

using Clock = std::chrono::steady_clock;

const Clock::time_point kProcessStart = Clock::now();

double
since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

constexpr int kMinReps = 3;
constexpr int kMaxReps = 64;
constexpr std::uint64_t kDefaultSeed = 1;

// ---------------------------------------------------------------------
// Host speed reference
// ---------------------------------------------------------------------

std::uint64_t
splitmix(std::uint64_t &s)
{
    std::uint64_t z = (s += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/**
 * A fixed reference kernel. On a shared host the speed of the machine
 * drifts by tens of percent over minutes as other tenants load it, and a
 * wall time taken alone moves with it. This kernel is part of the harness,
 * so no change to the simulator changes it. It mixes the kinds of work the
 * simulator does: dependent loads around a random ring beyond the L2
 * cache, random read-modify-writes behind data-dependent branches, and
 * integer arithmetic. Timed phases run it between their laps (HostTimer)
 * and report their host time at the reference speed: wall seconds times
 * kNominalS over the kernel's time measured alongside.
 */
class HostSpeed
{
  public:
    /// The kernel's time at the reference speed.
    static constexpr double kNominalS = 0.020;

    HostSpeed() : ring_(kRingLen), cells_(kCells)
    {
        // Sattolo's shuffle: one cycle through every slot of the ring,
        // built in place so that no temporary raises the peak RSS.
        std::uint64_t s = 0x243f6a8885a308d3ULL;
        for (std::uint32_t i = 0; i < kRingLen; ++i)
            ring_[i] = i;
        for (std::uint32_t i = kRingLen - 1; i > 0; --i)
            std::swap(ring_[i], ring_[splitmix(s) % i]);
        for (std::uint64_t &c : cells_)
            c = splitmix(s);
    }

    /** Resident bytes of the kernel's data, all touched on construction. */
    std::size_t
    bytes() const
    {
        return ring_.size() * sizeof(ring_[0])
               + cells_.size() * sizeof(cells_[0]);
    }

    /** Run the kernel once; its wall seconds. */
    double
    probe()
    {
        const auto t = Clock::now();
        std::uint32_t p = pos_;
        for (int i = 0; i < kChaseSteps; ++i)
            p = ring_[p];
        pos_ = p;
        std::uint64_t x = state_, acc = 0;
        for (int i = 0; i < kUpdates; ++i) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            std::uint64_t &c = cells_[x & (kCells - 1)];
            if (c & 1)
                acc += c;
            else
                acc ^= c >> 3;
            c += acc & 7;
        }
        state_ = x;
        return since(t);
    }

  private:
    static constexpr std::uint32_t kRingLen = 1u << 21; ///< 8 MiB
    static constexpr std::size_t kCells = 1u << 20;     ///< 8 MiB
    static constexpr int kChaseSteps = 150000;
    static constexpr int kUpdates = 400000;

    std::vector<std::uint32_t> ring_;
    std::vector<std::uint64_t> cells_;
    std::uint32_t pos_ = 0;
    std::uint64_t state_ = 0x9e3779b97f4a7c15ULL;
};

HostSpeed &
hostSpeed()
{
    static HostSpeed hs;
    return hs;
}

/**
 * Host time of a phase timed in laps: its wall seconds, and the same at
 * the reference speed. The reference kernel runs before the first lap and
 * after each one, outside the timed laps, and each lap is scaled by the
 * mean of the two probes on either side of it.
 */
class HostTimer
{
  public:
    void
    start()
    {
        before_ = hostSpeed().probe();
        t_ = Clock::now();
    }

    void
    lap()
    {
        const double w = since(t_);
        const double after = hostSpeed().probe();
        wall_ += w;
        ref_ += w * HostSpeed::kNominalS / (0.5 * (before_ + after));
        before_ = after;
        t_ = Clock::now();
    }

    double wall() const { return wall_; }
    double ref() const { return ref_; }

  private:
    Clock::time_point t_;
    double before_ = 0.0;
    double wall_ = 0.0;
    double ref_ = 0.0;
};

// ---------------------------------------------------------------------
// Workload parameters. Changing any of these changes the simulation, so
// the pinned digests below must be regenerated with it.
// ---------------------------------------------------------------------

struct OpenParams
{
    Cycle warmup = 1000;   ///< untimed, fills the queues
    Cycle measured = 4000; ///< the timed phase
    int laps = 10;         ///< HostTimer laps the timed phase is cut into
};

struct BatchParams
{
    int per_core = 16;      ///< packets per core in the batch
    int threads = 2;        ///< engine threads
    int load_samples = 200; ///< LoadModel route samples per core
    Cycle lap_cycles = 160; ///< HostTimer lap, a multiple of the window
};

constexpr Cycle kBatchCycleCap = 200000;

constexpr int kOpenCores = 4;
constexpr int kBatchCores = 8;
constexpr int kHaloSteps = 8;
constexpr int kHaloParticles = 12; ///< multicasts per node per step
constexpr int kHaloNeighbors = 26;

/** Simulated outcome of one repetition; deterministic for a seed. */
struct Digest
{
    std::uint64_t delivered = 0;
    std::uint64_t flit_hops = 0;
    std::uint64_t lat_p50 = 0;
    std::uint64_t lat_p99 = 0;
    std::uint64_t makespan = 0;
    std::uint64_t final_cycle = 0;

    std::string
    str() const
    {
        std::ostringstream os;
        os << "delivered=" << delivered << " flit_hops=" << flit_hops
           << " lat_p50=" << lat_p50 << " lat_p99=" << lat_p99
           << " makespan=" << makespan << " final_cycle=" << final_cycle;
        return os.str();
    }
};

/** Digests pinned for kDefaultSeed. A change to the simulated model or to
 * the workload parameters re-pins them from the digest a run prints. */
const std::map<std::string, std::string> kPinned = {
    { "open_uniform_4x4x4",
      "delivered=202510 flit_hops=2693238 lat_p50=166 lat_p99=263 "
      "makespan=4257 final_cycle=5264" },
    { "batch_uniform_8x8x8_t2",
      "delivered=65536 flit_hops=1175440 lat_p50=270 lat_p99=426 "
      "makespan=629 final_cycle=640" },
    { "halo_mcast_4x4x4",
      "delivered=319488 flit_hops=1612416 lat_p50=247 lat_p99=502 "
      "makespan=5124 final_cycle=5299" },
};

/** Per-layer figures gathered by a traced repetition. */
struct Layers
{
    std::uint64_t components = 0;
    std::uint64_t packet_pool_bytes = 0;
    std::uint64_t windows = 0;
    double window_cycles = 0.0;
    double tick_s = 0.0;
    double barrier_wait_frac = 0.0;
    double imbalance = 0.0;
    double serial_replay_frac = 0.0;
    double class_s[kNumHostCompClasses] = {};
    std::uint64_t routers = 0, adapters = 0;
    std::uint64_t router_flits = 0;
    std::uint64_t ca_flits_sent = 0, ca_idle_cycles = 0;
    std::uint64_t ep_flits_injected = 0, ep_flits_ejected = 0;
    double inject_backlog = 0.0;
    Cycle cycles = 0; ///< simulated cycles the profiler covered
};

/** One repetition of a workload. */
struct Rep
{
    double setup_s = 0.0; ///< at the reference host speed
    double run_s = 0.0;   ///< at the reference host speed
    double setup_wall_s = 0.0;
    double run_wall_s = 0.0;
    Cycle measured_cycles = 0;
    std::uint64_t measured_flit_hops = 0;
    std::uint64_t attempted = 0;
    std::uint64_t delivered = 0;
    std::vector<std::string> errors; ///< failed correctness checks
    Digest digest;
    double makespan = 0.0; ///< reported value (a mean for halo steps)
    std::uint64_t lat_samples = 0;
    double build_s = 0.0, load_model_s = 0.0, tree_build_s = 0.0;
    double hop_saving = 1.0;
    std::optional<Layers> layers;
};

/** Close the set-up phase of @p rep, timed by @p t. */
void
endSetup(Rep &rep, HostTimer &t)
{
    t.lap();
    rep.setup_s = t.ref();
    rep.setup_wall_s = t.wall();
}

/** Record the measured phase of @p rep, timed by @p t. */
void
endRun(Rep &rep, const HostTimer &t)
{
    rep.run_s = t.ref();
    rep.run_wall_s = t.wall();
}

/** How a repetition runs: what it attaches (nothing, the tracing
 * profiler, or one instrumentation layer for the overhead sweep), and
 * whether it stops once set up (an extra set-up time sample). */
struct Attach
{
    bool traced = false;
    bool setup_only = false;
    Instrumentation inst;
};

EngineProfileConfig
tracedProfileConfig()
{
    EngineProfileConfig c;
    c.max_windows = 64;  // the timeline ring is not used
    c.sample_every = 1;  // attribute every window, not a sample
    return c;
}

std::uint64_t
totalFlitHops(Machine &m)
{
    std::uint64_t hops = 0;
    const auto nr = static_cast<RouterId>(m.layout().numRouters());
    for (NodeId n = 0; n < m.geom().numNodes(); ++n)
        for (RouterId r = 0; r < nr; ++r)
            hops += m.chip(n).router(r).flitsRouted();
    return hops;
}

std::uint64_t
pendingInjections(Machine &m)
{
    std::uint64_t q = 0;
    for (NodeId n = 0; n < m.geom().numNodes(); ++n) {
        Chip &c = m.chip(n);
        for (EndpointId e = 0; e < c.numEndpoints(); ++e)
            q += c.endpoint(e).pendingInjections();
    }
    return q;
}

/** Nearest-rank percentile of @p v (sorted in place). */
std::uint64_t
percentile(std::vector<std::uint64_t> &v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    std::size_t rank = static_cast<std::size_t>(
        q * static_cast<double>(v.size()) + 0.999999);
    rank = std::clamp<std::size_t>(rank, 1, v.size());
    return v[rank - 1];
}

/** Samples the machine-wide injection backlog at run-check boundaries
 * (traced runs only; a pure read, so the schedule is unchanged). */
struct BacklogSampler
{
    Machine *m = nullptr;
    double sum = 0.0;
    std::uint64_t n = 0;

    void
    sample()
    {
        sum += static_cast<double>(pendingInjections(*m));
        ++n;
    }
    double mean() const { return n > 0 ? sum / static_cast<double>(n) : 0.0; }
};

/** Add a backlog sampling predicate to @p spec, chaining any existing
 * stop predicate. */
void
sampleBacklog(RunSpec &spec, BacklogSampler &bs)
{
    if (bs.m == nullptr)
        return;
    auto inner = std::move(spec.stop);
    spec.stop = [&bs, inner = std::move(inner)] {
        bs.sample();
        return inner ? inner() : false;
    };
}

Layers
collectLayers(Machine &m, Cycle cycles, const BacklogSampler &bs)
{
    Layers L;
    L.components = m.engine().componentCount();
    L.packet_pool_bytes = m.packetPoolBytes();
    L.cycles = cycles;
    const EngineProfiler &ep = *m.hostProfile();
    L.windows = ep.windows();
    L.window_cycles = ep.windows() > 0
                          ? static_cast<double>(ep.profiledCycles())
                                / static_cast<double>(ep.windows())
                          : 0.0;
    double wait_frac = 0.0;
    for (std::size_t l = 0; l < ep.lanes(); ++l) {
        L.tick_s = std::max(L.tick_s, ep.laneTickSeconds(l));
        const double span = ep.laneTickSeconds(l) + ep.laneWaitSeconds(l);
        if (span > 0.0)
            wait_frac = std::max(wait_frac, ep.laneWaitSeconds(l) / span);
    }
    L.barrier_wait_frac = wait_frac;
    L.imbalance = ep.lanes() > 1 ? std::max(0.0, ep.imbalance() - 1.0)
                                 : 0.0;
    L.serial_replay_frac = ep.profiledSeconds() > 0.0
                               ? ep.serialSeconds() / ep.profiledSeconds()
                               : 0.0;
    for (std::size_t c = 0; c < kNumHostCompClasses; ++c)
        L.class_s[c] = ep.classSeconds(static_cast<HostCompClass>(c));

    const auto nr = static_cast<RouterId>(m.layout().numRouters());
    const int nca = m.layout().numChannelAdapters();
    for (NodeId n = 0; n < m.geom().numNodes(); ++n) {
        Chip &c = m.chip(n);
        for (RouterId r = 0; r < nr; ++r)
            L.router_flits += c.router(r).flitsRouted();
        for (int a = 0; a < nca; ++a) {
            L.ca_flits_sent += c.channelAdapter(a).flitsSent();
            L.ca_idle_cycles += c.channelAdapter(a).idleCycles();
        }
        for (EndpointId e = 0; e < c.numEndpoints(); ++e) {
            L.ep_flits_injected += c.endpoint(e).flitsInjected();
            L.ep_flits_ejected += c.endpoint(e).flitsEjected();
        }
    }
    L.routers = static_cast<std::uint64_t>(m.geom().numNodes()) * nr;
    L.adapters = static_cast<std::uint64_t>(m.geom().numNodes())
                 * static_cast<std::uint64_t>(nca);
    L.inject_backlog = bs.mean();
    return L;
}

/** Attach @p at to a freshly built machine; returns the backlog sampler
 * target (null unless traced). */
Machine *
attach(Machine &m, const Attach &at)
{
    Instrumentation inst = at.inst;
    if (at.traced)
        inst.host_profile = tracedProfileConfig();
    m.attachInstrumentation(inst);
    return at.traced ? &m : nullptr;
}

// ---------------------------------------------------------------------
// open_uniform_4x4x4
// ---------------------------------------------------------------------

Rep
runOpenUniform(std::uint64_t seed, const OpenParams &p, const Attach &at)
{
    Rep rep;
    HostTimer setup;
    setup.start();
    const auto t0 = Clock::now();
    MachineConfig cfg;
    cfg.radix = { 4, 4, 4 };
    cfg.chip.endpoints_per_node = 8;
    cfg.use_packaging = false;
    cfg.fixed_torus_latency = 20;
    cfg.seed = seed;
    cfg.threads = 1;
    cfg.lookahead = 0;
    Machine m(cfg);
    rep.build_s = since(t0);
    BacklogSampler bs{ attach(m, at) };

    // Rate calibration: 60% of the analytic uniform saturation point.
    const auto cores = firstEndpoints(kOpenCores);
    auto t = Clock::now();
    UniformPattern pat(m.geom());
    LoadModel lm(m.geom(), m.layout(), cfg.chip, 1);
    Rng lrng(seed + 1);
    lm.addPattern(0, pat, cores, 300, lrng);
    const double rate = 0.6 * lm.idealCoreThroughput(0);
    rep.load_model_s = since(t);

    OpenLoopDriver::Config dcfg;
    dcfg.cores = cores;
    dcfg.rate = rate;
    dcfg.pattern = &pat;
    OpenLoopDriver driver(m, dcfg);
    m.engine().add(driver);

    // Latency of the packets offered during the measured phase, timed
    // from when each was due (its birth in the driver's tick).
    Cycle from = kNoCycle, to = kNoCycle, last = 0;
    std::vector<std::uint64_t> lat;
    m.setDeliverHook([&](const PacketPtr &pkt, Cycle now) {
        if (pkt->birth >= from && pkt->birth < to) {
            lat.push_back(now - pkt->birth);
            last = std::max(last, now);
        }
    });
    endSetup(rep, setup);
    if (at.setup_only)
        return rep;

    RunSpec warm = RunSpec::forCycles(p.warmup);
    sampleBacklog(warm, bs);
    m.run(warm);

    from = m.now();
    to = from + p.measured;
    const std::uint64_t hops0 = totalFlitHops(m);
    HostTimer run;
    run.start();
    for (int l = 0; l < p.laps; ++l) {
        RunSpec meas = RunSpec::forCycles(from + p.measured * (l + 1) / p.laps
                                          - m.now());
        sampleBacklog(meas, bs);
        m.run(meas);
        run.lap();
    }
    endRun(rep, run);
    rep.measured_cycles = p.measured;
    rep.measured_flit_hops = totalFlitHops(m) - hops0;

    driver.setEnabled(false);
    RunSpec drain = RunSpec::untilQuiescent(200000);
    drain.check_every = 8;
    sampleBacklog(drain, bs);
    const RunResult dr = m.run(drain);

    rep.attempted = driver.offered();
    rep.delivered = m.totalDelivered();
    if (dr.reason != StopReason::Quiescent)
        rep.errors.push_back("network did not drain");
    if (rep.delivered != rep.attempted)
        rep.errors.push_back("delivered " + std::to_string(rep.delivered)
                             + " != offered "
                             + std::to_string(rep.attempted));

    rep.lat_samples = lat.size();
    rep.digest.delivered = rep.delivered;
    rep.digest.flit_hops = totalFlitHops(m);
    rep.digest.lat_p50 = percentile(lat, 0.50);
    rep.digest.lat_p99 = percentile(lat, 0.99);
    rep.digest.makespan = last > from ? last - from : 0;
    rep.digest.final_cycle = m.now();
    rep.makespan = static_cast<double>(rep.digest.makespan);
    if (at.traced)
        rep.layers = collectLayers(m, m.now(), bs);
    return rep;
}

// ---------------------------------------------------------------------
// batch_uniform_8x8x8_t2
// ---------------------------------------------------------------------

Rep
runBatch(std::uint64_t seed, const BatchParams &p, const Attach &at)
{
    Rep rep;
    HostTimer setup;
    setup.start();
    const auto t0 = Clock::now();
    MachineConfig cfg;
    cfg.radix = { 8, 8, 8 };
    cfg.chip.endpoints_per_node = 8;
    cfg.chip.arb = ArbPolicy::InverseWeighted;
    cfg.use_packaging = false;
    cfg.fixed_torus_latency = 20;
    cfg.seed = seed;
    cfg.threads = p.threads;
    cfg.lookahead = 0;
    Machine m(cfg);
    rep.build_s = since(t0);
    BacklogSampler bs{ attach(m, at) };

    const auto cores = firstEndpoints(kBatchCores);
    auto t = Clock::now();
    UniformPattern pat(m.geom());
    LoadModel lm(m.geom(), m.layout(), cfg.chip, 1);
    Rng lrng(seed + 1);
    lm.addPattern(0, pat, cores, p.load_samples, lrng);
    lm.applyWeights(m);
    rep.load_model_s = since(t);

    BatchDriver::Config dcfg;
    dcfg.cores = cores;
    dcfg.batch_size = static_cast<std::uint64_t>(p.per_core);
    dcfg.pattern = &pat;
    BatchDriver driver(m, dcfg);
    m.engine().add(driver);

    std::vector<std::uint64_t> lat;
    lat.reserve(driver.expected());
    m.setDeliverHook([&](const PacketPtr &pkt, Cycle now) {
        lat.push_back(now - pkt->birth);
    });
    endSetup(rep, setup);
    if (at.setup_only)
        return rep;

    const Cycle start = m.now();
    HostTimer run;
    run.start();
    RunResult res;
    do {
        RunSpec spec = RunSpec::untilDelivered(
            driver.deliveredTarget(),
            std::min(p.lap_cycles, start + kBatchCycleCap - m.now()));
        sampleBacklog(spec, bs);
        res = m.run(spec);
        run.lap();
    } while (res.reason == StopReason::MaxCycles
             && m.now() - start < kBatchCycleCap);
    endRun(rep, run);
    rep.measured_cycles = m.now() - start;
    rep.measured_flit_hops = totalFlitHops(m);

    rep.attempted = driver.expected();
    rep.delivered = m.totalDelivered();
    if (res.reason != StopReason::Delivered)
        rep.errors.push_back("batch not delivered within the cycle cap");
    if (rep.delivered != rep.attempted)
        rep.errors.push_back("delivered " + std::to_string(rep.delivered)
                             + " != batch "
                             + std::to_string(rep.attempted));

    rep.lat_samples = lat.size();
    rep.digest.delivered = rep.delivered;
    rep.digest.flit_hops = rep.measured_flit_hops;
    rep.digest.lat_p50 = percentile(lat, 0.50);
    rep.digest.lat_p99 = percentile(lat, 0.99);
    rep.digest.makespan = driver.completionTime();
    rep.digest.final_cycle = m.now();
    rep.makespan = static_cast<double>(rep.digest.makespan);
    if (at.traced)
        rep.layers = collectLayers(m, rep.measured_cycles, bs);
    return rep;
}

// ---------------------------------------------------------------------
// halo_mcast_4x4x4
// ---------------------------------------------------------------------

Rep
runHalo(std::uint64_t seed, int steps, const Attach &at)
{
    Rep rep;
    HostTimer setup;
    setup.start();
    const auto t0 = Clock::now();
    MachineConfig cfg;
    cfg.radix = { 4, 4, 4 };
    cfg.chip.arb = ArbPolicy::InverseWeighted;
    cfg.seed = seed;
    cfg.threads = 1;
    cfg.lookahead = 0;
    Machine m(cfg);
    rep.build_s = since(t0);
    BacklogSampler bs{ attach(m, at) };
    const TorusGeom &geom = m.geom();
    const NodeId nodes = geom.numNodes();

    // The seed places, on every chip independently, the endpoint that
    // sends and the two endpoints that receive. Independent per-chip
    // draws keep the total work nearly the same from seed to seed.
    Rng pick(seed * 0x9e3779b97f4a7c15ULL + 3);
    const auto neps = static_cast<std::uint64_t>(
        cfg.chip.endpoints_per_node);
    std::vector<EndpointId> src(nodes);
    std::vector<std::array<EndpointId, 2>> recv(nodes);
    for (NodeId n = 0; n < nodes; ++n) {
        src[n] = static_cast<EndpointId>(pick.below(neps));
        const auto r0 = static_cast<EndpointId>(pick.below(neps));
        auto r1 = static_cast<EndpointId>(pick.below(neps - 1));
        if (r1 >= r0)
            ++r1;
        recv[n] = { r0, r1 };
    }

    // Inverse weights from the halo's unicast shadow: every node sends
    // to its 26-node neighbour shell, from and to any endpoint.
    auto t = Clock::now();
    NHopNeighborPattern shell(geom, 1);
    LoadModel lm(geom, m.layout(), cfg.chip, 1);
    Rng lrng(seed + 1);
    lm.addPattern(0, shell, firstEndpoints(cfg.chip.endpoints_per_node), 20,
                  lrng);
    lm.applyWeights(m);
    rep.load_model_s = since(t);

    // Two trees per node (dimension orders XYZ and ZYX, slices 0 and 1)
    // to the receiving endpoints of its neighbour shell.
    t = Clock::now();
    std::vector<std::array<std::int32_t, 2>> groups(nodes);
    Rng tie(seed + 2);
    std::uint64_t tree_hops = 0, unicast_hops = 0;
    for (NodeId n = 0; n < nodes; ++n) {
        std::vector<McastDest> dests;
        for (int dx : { -1, 0, 1 })
            for (int dy : { -1, 0, 1 })
                for (int dz : { -1, 0, 1 }) {
                    if (dx == 0 && dy == 0 && dz == 0)
                        continue;
                    Coords c = geom.coords(n);
                    const int d[3] = { dx, dy, dz };
                    for (int k = 0; k < 3; ++k)
                        c[k] = (c[k] + d[k] + geom.radix(k))
                               % geom.radix(k);
                    const NodeId dst = geom.id(c);
                    for (EndpointId e : recv[dst])
                        dests.push_back({ dst, e });
                }
        const McastTree ta = buildMcastTree(geom, n, dests,
                                            DimOrder{ 0, 1, 2 }, 0, tie);
        const McastTree tb = buildMcastTree(geom, n, dests,
                                            DimOrder{ 2, 1, 0 }, 1, tie);
        groups[n] = { m.installTree(ta), m.installTree(tb) };
        tree_hops += static_cast<std::uint64_t>(ta.torusHops()
                                                + tb.torusHops());
        unicast_hops += 2 * static_cast<std::uint64_t>(
                                unicastTorusHops(geom, n, dests));
    }
    rep.tree_build_s = since(t);
    rep.hop_saving = tree_hops > 0 ? static_cast<double>(unicast_hops)
                                         / static_cast<double>(tree_hops)
                                   : 1.0;

    // Counted-write handlers: one per receiving endpoint per step.
    const int per_ep = kHaloNeighbors * kHaloParticles;
    std::vector<int> fired(static_cast<std::size_t>(nodes) * 2, 0);
    std::uint64_t fired_step = 0;
    Cycle last_fire = 0;
    for (NodeId n = 0; n < nodes; ++n)
        for (std::size_t i = 0; i < 2; ++i)
            m.chip(n).endpoint(recv[n][i]).setHandlerFn(
                [&, slot = static_cast<std::size_t>(n) * 2 + i](
                    std::int32_t, Cycle now) {
                    ++fired[slot];
                    ++fired_step;
                    last_fire = std::max(last_fire, now);
                });
    std::vector<std::uint64_t> lat;
    m.setDeliverHook([&](const PacketPtr &pkt, Cycle now) {
        lat.push_back(now - pkt->birth);
    });
    endSetup(rep, setup);
    if (at.setup_only)
        return rep;

    const std::uint64_t expect_step =
        static_cast<std::uint64_t>(nodes) * 2 * per_ep;
    const auto handlers = static_cast<std::uint64_t>(nodes) * 2;
    const Cycle start = m.now();
    Cycle step_cycles = 0;
    HostTimer run;
    run.start();
    for (int s = 0; s < steps; ++s) {
        const std::int32_t counter = 1 + (s % 2);
        for (NodeId n = 0; n < nodes; ++n)
            for (EndpointId e : recv[n])
                m.chip(n).endpoint(e).armCounter(counter, per_ep);
        std::fill(fired.begin(), fired.end(), 0);
        fired_step = 0;
        const Cycle step_start = m.now();
        const std::uint64_t before = m.totalDelivered();
        for (int p = 0; p < kHaloParticles; ++p)
            for (NodeId n = 0; n < nodes; ++n)
                m.sendMulticast({ n, src[n] }, groups[n][p % 2], 0, 1,
                                counter);
        RunSpec spec;
        spec.max_cycles = 200000;
        spec.stop = [&] { return fired_step >= handlers; };
        sampleBacklog(spec, bs);
        m.run(spec);
        run.lap();
        step_cycles += last_fire > step_start ? last_fire - step_start : 0;
        const std::uint64_t got = m.totalDelivered() - before;
        rep.attempted += expect_step;
        rep.delivered += std::min(got, expect_step);
        const bool once = std::all_of(fired.begin(), fired.end(),
                                      [](int f) { return f == 1; });
        if (got != expect_step || !once) {
            rep.errors.push_back(
                "step " + std::to_string(s) + ": delivered "
                + std::to_string(got) + " of "
                + std::to_string(expect_step)
                + (once ? "" : ", a handler did not fire exactly once"));
            break;
        }
    }
    endRun(rep, run);
    rep.measured_cycles = m.now() - start;
    // The last handler fires while credits are still returning; every
    // packet is delivered, so the network must drain promptly.
    RunSpec drain = RunSpec::untilQuiescent(10000);
    drain.check_every = 8;
    if (m.run(drain).reason != StopReason::Quiescent)
        rep.errors.push_back("network did not drain after the last step");
    rep.measured_flit_hops = totalFlitHops(m);

    rep.lat_samples = lat.size();
    rep.digest.delivered = m.totalDelivered();
    rep.digest.flit_hops = rep.measured_flit_hops;
    rep.digest.lat_p50 = percentile(lat, 0.50);
    rep.digest.lat_p99 = percentile(lat, 0.99);
    rep.digest.makespan = step_cycles;
    rep.digest.final_cycle = m.now();
    rep.makespan =
        static_cast<double>(step_cycles) / static_cast<double>(steps);
    if (at.traced)
        rep.layers = collectLayers(m, rep.measured_cycles, bs);
    return rep;
}

using Runner = std::function<Rep(std::uint64_t seed, const Attach &)>;

/** A named workload: the run that is measured, and the brief variant
 * that the instrumentation-overhead sweep repeats once per layer. */
struct Workload
{
    std::string name;
    Runner full;
    Runner brief;
};

const std::vector<Workload> kWorkloads = {
    { "open_uniform_4x4x4",
      [](std::uint64_t s, const Attach &at) {
          return runOpenUniform(s, OpenParams{}, at);
      },
      [](std::uint64_t s, const Attach &at) {
          return runOpenUniform(
              s, { .warmup = 200, .measured = 400, .laps = 2 }, at);
      } },
    { "batch_uniform_8x8x8_t2",
      [](std::uint64_t s, const Attach &at) {
          return runBatch(s, BatchParams{}, at);
      },
      [](std::uint64_t s, const Attach &at) {
          return runBatch(s, { .per_core = 4, .load_samples = 20 }, at);
      } },
    { "halo_mcast_4x4x4",
      [](std::uint64_t s, const Attach &at) {
          return runHalo(s, kHaloSteps, at);
      },
      [](std::uint64_t s, const Attach &at) { return runHalo(s, 2, at); } },
};

const Workload *
findWorkload(const std::string &name)
{
    for (const Workload &w : kWorkloads)
        if (w.name == name)
            return &w;
    return nullptr;
}

// ---------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

template <typename F>
double
medianOf(const std::vector<Rep> &reps, F f)
{
    std::vector<double> v;
    for (const Rep &r : reps)
        v.push_back(f(r));
    return median(v);
}

double
ratio(double a, double b)
{
    return b > 0.0 ? a / b : 0.0;
}

std::string
jsonStr(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out + "\"";
}

std::string
jsonNum(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
    return buf;
}

/** Ordered (name, value, unit) metrics; printed as lines and as JSON. */
class MetricSet
{
  public:
    void
    add(const std::string &name, double value, const std::string &unit)
    {
        rows_.push_back({ name, value, unit });
    }

    void
    print() const
    {
        for (const Row &r : rows_)
            std::printf("metric %-40s %.6g %s\n", r.name.c_str(), r.value,
                        r.unit.c_str());
    }

    std::string
    json() const
    {
        std::string out = "{";
        for (std::size_t i = 0; i < rows_.size(); ++i) {
            const Row &r = rows_[i];
            out += (i ? ", " : "") + jsonStr(r.name) + ": {\"value\": "
                   + jsonNum(r.value) + ", \"unit\": " + jsonStr(r.unit)
                   + "}";
        }
        return out + "}";
    }

  private:
    struct Row
    {
        std::string name;
        double value;
        std::string unit;
    };
    std::vector<Row> rows_;
};

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(line.find_first_not_of(' ', colon + 1));
        }
    }
    return "unknown";
}

#ifdef __OPTIMIZE__
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

/** Host provenance line: where and how these numbers were measured. */
void
printHost(const std::string &git_rev)
{
#if defined(__clang__)
    const std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
    const std::string compiler = std::string("gcc ") + __VERSION__;
#else
    const std::string compiler = "unknown";
#endif
    std::printf("host {\"nproc\": %u, \"cpu_model\": %s, \"build_type\": "
                "%s, \"optimized\": %s, \"compiler\": %s, \"git_rev\": %s}\n",
                std::thread::hardware_concurrency(),
                jsonStr(cpuModel()).c_str(),
                jsonStr(PERFBENCH_BUILD_TYPE).c_str(),
                kOptimized ? "true" : "false", jsonStr(compiler).c_str(),
                jsonStr(git_rev).c_str());
    if (!kOptimized)
        std::fprintf(stderr,
                     "WARNING: UNOPTIMIZED BUILD - host-time figures are "
                     "not comparable with an optimized build\n");
}

/** The correctness gate's verdict over every repetition a run made. */
struct Verdict
{
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
};

/** Correctness gate over repetitions of one seed. Each must pass its own
 * checks; with @p same_digest each must also match the first one's
 * digest and, if given, the @p pinned one. A repetition that fails a
 * check counts all of its operations as failed. */
void
gate(const std::vector<Rep> &reps, bool same_digest,
     const std::string &pinned, Verdict &v)
{
    const std::string ref = reps.front().digest.str();
    if (same_digest)
        std::printf("digest %s\n", ref.c_str());
    for (std::size_t i = 0; i < reps.size(); ++i) {
        const Rep &r = reps[i];
        bool ok = r.errors.empty();
        for (const std::string &e : r.errors)
            std::printf("FAIL rep %zu: %s\n", i, e.c_str());
        const std::string d = r.digest.str();
        if (same_digest && d != ref) {
            std::printf("FAIL rep %zu: digest differs from rep 0: %s\n", i,
                        d.c_str());
            ok = false;
        }
        if (same_digest && !pinned.empty() && d != pinned) {
            std::printf("FAIL rep %zu: digest differs from the pinned %s\n",
                        i, pinned.c_str());
            ok = false;
        }
        v.attempted += r.attempted;
        v.failed += ok ? r.attempted - std::min(r.delivered, r.attempted)
                       : r.attempted;
        v.correct = v.correct && ok;
    }
}

struct Options
{
    std::string workload;
    std::uint64_t seed = kDefaultSeed;
    double seconds = 0.0;
    bool trace = false;
    bool check_threads = false;
    std::string git_rev = "unknown";
};

void
logRep(const std::string &kind, std::size_t i, const Rep &r)
{
    std::printf("%s rep %zu setup %.4f s run %.4f s (wall %.4f s %.4f s) "
                "cycles %llu\n",
                kind.c_str(), i, r.setup_s, r.run_s, r.setup_wall_s,
                r.run_wall_s,
                static_cast<unsigned long long>(r.measured_cycles));
    std::fflush(stdout);
}

/** Repetitions of an untraced run, and every set-up time sample taken. */
struct Reps
{
    std::vector<Rep> full;
    std::vector<double> setup_s;
};

/**
 * Untraced run: repeat the workload at least kMinReps times, then while
 * another repetition of average length still ends within the budget.
 * Set-up-only repetitions are interleaved, capped at a tenth of the
 * elapsed time, so that cheap set-ups get a median over many samples.
 */
Reps
repeat(const Workload &w, std::uint64_t seed, double budget_end_s)
{
    Reps out;
    Attach bare, setup;
    setup.setup_only = true;
    double full_s = 0.0, setup_only_s = 0.0;
    while (static_cast<int>(out.full.size()) < kMaxReps) {
        const auto n = static_cast<double>(out.full.size());
        if (n >= kMinReps
            && since(kProcessStart) + full_s / n > budget_end_s)
            break;
        auto t = Clock::now();
        out.full.push_back(w.full(seed, bare));
        full_s += since(t);
        const Rep &r = out.full.back();
        out.setup_s.push_back(r.setup_s);
        logRep("bare", out.full.size() - 1, r);
        while (setup_only_s < 0.1 * since(kProcessStart)) {
            t = Clock::now();
            out.setup_s.push_back(w.full(seed, setup).setup_s);
            setup_only_s += since(t);
        }
    }
    return out;
}

/** A labelled way to run a repetition. */
using Config = std::pair<std::string, Attach>;

/**
 * Run @p configs in rounds, each running every config once and starting
 * one config later than the round before, so that no config always runs
 * first. Runs at least @p min_rounds (at least 1) rounds, then while
 * another round of average length still ends by @p budget_end_s. Returns
 * each config's repetitions, one per round.
 */
std::vector<std::vector<Rep>>
rounds(const Runner &run, std::uint64_t seed,
       const std::vector<Config> &configs, double budget_end_s,
       int min_rounds)
{
    std::vector<std::vector<Rep>> out(configs.size());
    const auto t0 = Clock::now();
    for (int n = 0; n < kMaxReps; ++n) {
        if (n >= min_rounds
            && since(kProcessStart) + since(t0) / n > budget_end_s)
            break;
        for (std::size_t k = 0; k < configs.size(); ++k) {
            const std::size_t i =
                (static_cast<std::size_t>(n) + k) % configs.size();
            out[i].push_back(run(seed, configs[i].second));
            logRep(configs[i].first, static_cast<std::size_t>(n),
                   out[i].back());
        }
    }
    return out;
}

/** Median over rounds of run_s(config) / run_s(config 0) - 1, both from
 * the same round, so that slow drift in host speed cancels. */
double
overhead(const std::vector<std::vector<Rep>> &r, std::size_t config)
{
    std::vector<double> v;
    for (std::size_t i = 0; i < r[config].size(); ++i)
        v.push_back(ratio(r[config][i].run_s, r[0][i].run_s) - 1.0);
    return median(v);
}

std::vector<Rep>
concat(const std::vector<std::vector<Rep>> &groups)
{
    std::vector<Rep> out;
    for (const std::vector<Rep> &g : groups)
        out.insert(out.end(), g.begin(), g.end());
    return out;
}

/** The process's peak RSS without the reference kernel's data. */
double
peakRssMib()
{
    return static_cast<double>(hostPeakRssBytes() - hostSpeed().bytes())
           / (1024.0 * 1024.0);
}

/** Host speed during a repetition's measured phase, as a share of the
 * reference speed. */
double
hostSpeedOf(const Rep &r)
{
    return ratio(r.run_s, r.run_wall_s);
}

void
endToEnd(const Reps &all, MetricSet &ms)
{
    const std::vector<Rep> &reps = all.full;
    const Rep &r0 = reps.front();
    ms.add("setup_s", median(all.setup_s), "s");
    ms.add("run_s", medianOf(reps, [](const Rep &r) { return r.run_s; }),
           "s");
    ms.add("sim_cycles_per_s", medianOf(reps, [](const Rep &r) {
               return ratio(static_cast<double>(r.measured_cycles), r.run_s);
           }),
           "cycles/s");
    ms.add("flit_hops_per_s", medianOf(reps, [](const Rep &r) {
               return ratio(static_cast<double>(r.measured_flit_hops),
                            r.run_s);
           }),
           "flit-hops/s");
    ms.add("peak_rss_mib", peakRssMib(), "MiB");
    ms.add("sim_latency_p50_cycles", static_cast<double>(r0.digest.lat_p50),
           "cycles");
    ms.add("sim_latency_p99_cycles", static_cast<double>(r0.digest.lat_p99),
           "cycles");
    ms.add("sim_makespan_cycles", r0.makespan, "cycles");
    std::printf("wall run_s %.6g s, host speed %.4f of the reference\n",
                medianOf(reps, [](const Rep &r) { return r.run_wall_s; }),
                medianOf(reps, hostSpeedOf));
}

/** The instrumentation layers of the overhead sweep, bare first. The
 * engine self-profiler is not among them: its overhead is measured on the
 * traced repetitions themselves. */
std::vector<Config>
sweepLayers()
{
    std::vector<Config> layers;
    auto add = [&](const char *name, auto set) {
        Attach at;
        set(at.inst);
        layers.push_back({ name, at });
    };
    add("bare", [](Instrumentation &) {});
    add("metrics_machine", [](Instrumentation &i) {
        i.metrics = true;
        i.metrics_level = MetricsLevel::Machine;
    });
    add("metrics_full", [](Instrumentation &i) {
        i.metrics = true;
        i.metrics_level = MetricsLevel::Full;
    });
    add("trace", [](Instrumentation &i) { i.trace = TraceConfig{}; });
    add("flows", [](Instrumentation &i) { i.flows = FlowProbeConfig{}; });
    add("timeseries", [](Instrumentation &i) {
        TimeseriesConfig tc;
        tc.max_windows = 64; // a brief run spans a few 1024-cycle windows
        i.timeseries = tc;
    });
    add("audit", [](Instrumentation &i) { i.audit = AuditConfig{}; });
    return layers;
}

void
perLayer(const std::vector<Rep> &reps, double ops_failed_frac,
         MetricSet &ms)
{
    const Rep &r0 = reps.front();
    const Layers &L0 = *r0.layers;
    auto med = [&](auto f) { return medianOf(reps, f); };
    auto cls = [](const Rep &r, HostCompClass c) {
        return r.layers->class_s[static_cast<std::size_t>(c)];
    };
    auto share = [&](const Rep &r, HostCompClass c) {
        double tot = 0.0;
        for (double s : r.layers->class_s)
            tot += s;
        return ratio(cls(r, c), tot);
    };
    const double cycles = static_cast<double>(L0.cycles);

    ms.add("core.build_s", med([](const Rep &r) { return r.build_s; }), "s");
    ms.add("core.packet_pool_bytes",
           static_cast<double>(L0.packet_pool_bytes), "bytes");
    ms.add("core.components", static_cast<double>(L0.components), "count");
    ms.add("analysis.load_model_s",
           med([](const Rep &r) { return r.load_model_s; }), "s");
    ms.add("routing.tree_build_frac", med([](const Rep &r) {
               return ratio(r.tree_build_s, r.setup_wall_s);
           }),
           "fraction");
    ms.add("routing.mcast_hop_saving", r0.hop_saving, "ratio");

    ms.add("sim.engine.tick_s",
           med([](const Rep &r) { return r.layers->tick_s; }), "s");
    ms.add("sim.engine.windows", static_cast<double>(L0.windows), "count");
    ms.add("sim.engine.window_cycles", L0.window_cycles, "cycles");
    ms.add("sim.engine.barrier_wait_frac",
           med([](const Rep &r) { return r.layers->barrier_wait_frac; }),
           "fraction");
    ms.add("sim.engine.imbalance",
           med([](const Rep &r) { return r.layers->imbalance; }),
           "fraction");
    ms.add("sim.engine.serial_replay_frac",
           med([](const Rep &r) { return r.layers->serial_replay_frac; }),
           "fraction");

    const double rf = static_cast<double>(L0.router_flits);
    ms.add("noc.router.host_s", med([&](const Rep &r) {
               return cls(r, HostCompClass::Router);
           }),
           "s");
    ms.add("noc.router.share", med([&](const Rep &r) {
               return share(r, HostCompClass::Router);
           }),
           "fraction");
    ms.add("noc.router.flits", rf, "count");
    ms.add("noc.router.ns_per_flit", med([&](const Rep &r) {
               return 1e9 * ratio(cls(r, HostCompClass::Router), rf);
           }),
           "ns");
    ms.add("noc.router.ns_per_tick", med([&](const Rep &r) {
               return 1e9 * ratio(cls(r, HostCompClass::Router),
                                  static_cast<double>(L0.routers) * cycles);
           }),
           "ns");

    const double cf = static_cast<double>(L0.ca_flits_sent);
    ms.add("noc.channel_adapter.host_s", med([&](const Rep &r) {
               return cls(r, HostCompClass::ChannelAdapter);
           }),
           "s");
    ms.add("noc.channel_adapter.share", med([&](const Rep &r) {
               return share(r, HostCompClass::ChannelAdapter);
           }),
           "fraction");
    ms.add("noc.channel_adapter.flits_sent", cf, "count");
    ms.add("noc.channel_adapter.ns_per_flit", med([&](const Rep &r) {
               return 1e9 * ratio(cls(r, HostCompClass::ChannelAdapter), cf);
           }),
           "ns");
    ms.add("noc.channel_adapter.idle_frac",
           ratio(static_cast<double>(L0.ca_idle_cycles),
                 static_cast<double>(L0.adapters) * cycles),
           "fraction");

    ms.add("noc.endpoint.host_s", med([&](const Rep &r) {
               return cls(r, HostCompClass::Endpoint);
           }),
           "s");
    ms.add("noc.endpoint.share", med([&](const Rep &r) {
               return share(r, HostCompClass::Endpoint);
           }),
           "fraction");
    ms.add("noc.endpoint.flits_injected",
           static_cast<double>(L0.ep_flits_injected), "count");
    ms.add("noc.endpoint.flits_ejected",
           static_cast<double>(L0.ep_flits_ejected), "count");
    ms.add("noc.endpoint.inject_backlog", L0.inject_backlog, "packets");

    ms.add("traffic.offered", static_cast<double>(r0.attempted), "packets");
    ms.add("traffic.delivered", static_cast<double>(r0.delivered),
           "packets");
    ms.add("traffic.ops_failed_frac", ops_failed_frac, "fraction");
    ms.add("traffic.latency_samples", static_cast<double>(r0.lat_samples),
           "count");

    ms.add("host.run_wall_s", med([](const Rep &r) { return r.run_wall_s; }),
           "s");
    ms.add("host.speed", med(hostSpeedOf), "ratio");
}

/**
 * Traced run. The first half of the budget alternates bare repetitions
 * of the workload with traced ones (engine self-profiler attached); the
 * traced ones give the per-layer figures, and each pair gives the
 * profiler's own overhead. The second half sweeps the other
 * instrumentation layers over the workload's brief variant.
 */
void
traced(const Workload &w, std::uint64_t seed, double seconds,
       const std::string &pinned, Verdict &v, MetricSet &ms)
{
    Attach prof;
    prof.traced = true;
    const auto pairs = rounds(w.full, seed,
                              { { "bare", Attach{} }, { "traced", prof } },
                              seconds / 2, 1);
    const std::vector<Config> layers = sweepLayers();
    const auto sweep = rounds(w.brief, seed, layers, seconds, 2);
    std::printf("instr sweep: %zu round(s) of %zu layers\n",
                sweep[0].size(), layers.size());

    // Profiling never changes the simulation, so the traced repetitions
    // must match the bare digest. Some sweep layers move the window
    // schedule, and with it the cycle a run stops at, so there only each
    // repetition's own checks apply.
    gate(concat(pairs), true, pinned, v);
    gate(concat(sweep), false, "", v);

    perLayer(pairs[1],
             ratio(static_cast<double>(v.failed),
                   static_cast<double>(v.attempted)),
             ms);
    for (std::size_t i = 1; i < layers.size(); ++i)
        ms.add("instr." + layers[i].first + ".overhead_frac",
               overhead(sweep, i), "fraction");
    ms.add("instr.host_profile.overhead_frac", overhead(pairs, 1),
           "fraction");
}

int
checkThreads()
{
    Attach bare;
    const Digest d1 =
        runBatch(kDefaultSeed, { .per_core = 2, .threads = 1 }, bare).digest;
    const Digest d2 =
        runBatch(kDefaultSeed, { .per_core = 2, .threads = 2 }, bare).digest;
    std::printf("threads=1 %s\nthreads=2 %s\n", d1.str().c_str(),
                d2.str().c_str());
    const bool same = d1.str() == d2.str();
    std::printf("thread invariance: %s\n", same ? "ok" : "FAILED");
    return same ? 0 : 1;
}

bool
parse(int argc, char **argv, Options &o)
{
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const bool has_val = i + 1 < argc;
        if (a == "--check-threads") {
            o.check_threads = true;
        } else if (a == "--workload" && has_val) {
            o.workload = argv[++i];
        } else if (a == "--seed" && has_val) {
            o.seed = std::strtoull(argv[++i], nullptr, 10);
        } else if (a == "--seconds" && has_val) {
            o.seconds = std::atof(argv[++i]);
        } else if (a == "--trace" && has_val) {
            o.trace = std::string(argv[++i]) != "0";
        } else if (a == "--git-rev" && has_val) {
            o.git_rev = argv[++i];
        } else {
            std::fprintf(stderr, "error: bad argument '%s'\n", a.c_str());
            return false;
        }
    }
    if (o.check_threads)
        return true;
    if (findWorkload(o.workload) == nullptr) {
        std::fprintf(stderr, "error: --workload must be one of:");
        for (const Workload &w : kWorkloads)
            std::fprintf(stderr, " %s", w.name.c_str());
        std::fprintf(stderr, "\n");
        return false;
    }
    if (!(o.seconds > 0.0)) {
        std::fprintf(stderr, "error: --seconds must be given and positive\n");
        return false;
    }
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    Options o;
    if (!parse(argc, argv, o))
        return 2;
    printHost(o.git_rev);
    if (o.check_threads)
        return checkThreads();

    // Allocate the reference kernel's data and bring it into the caches
    // before the first timed phase.
    for (int i = 0; i < 3; ++i)
        hostSpeed().probe();

    const Workload &w = *findWorkload(o.workload);
    std::printf("workload %s seed %llu seconds %g trace %d\n",
                w.name.c_str(), static_cast<unsigned long long>(o.seed),
                o.seconds, o.trace ? 1 : 0);
    const std::string pinned =
        o.seed == kDefaultSeed ? kPinned.at(w.name) : std::string();

    Verdict v;
    MetricSet ms;
    if (o.trace) {
        traced(w, o.seed, o.seconds, pinned, v, ms);
    } else {
        const Reps all = repeat(w, o.seed, o.seconds);
        gate(all.full, true, pinned, v);
        endToEnd(all, ms);
    }
    ms.print();
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": %s}\n",
                v.correct ? "true" : "false",
                static_cast<unsigned long long>(v.attempted),
                static_cast<unsigned long long>(v.failed), ms.json().c_str());
    std::fflush(stdout);
    return v.correct ? 0 : 1;
}
