/**
 * @file
 * Host-performance benchmark for the sharded engine: simulate a fixed
 * open-loop workload serially and on 2/4 worker threads, and report
 * simulated cycles per wall second and flit-hops per wall second for
 * each. Because every inter-component hop crosses a Wire with latency
 * >= 1 and cross-node hops have latency >= the lookahead window, the
 * threaded runs are bit-identical to the serial one - the bench asserts
 * this by comparing delivered packets and flit-hop totals across thread
 * counts, so a scaling number from this harness is always a number for
 * the *same* simulation.
 *
 * `--lookahead` selects the barrier cadence (0 = auto: the machine's
 * minimum torus link latency; 1 = per-cycle barriers, the pre-lookahead
 * engine). All measured thread counts run at the *same* window, so the
 * determinism check stays apples-to-apples.
 *
 * Speedups are computed against the serial (threads == 1) row looked up
 * explicitly - never positionally - and the bench refuses to report
 * speedups if no serial row was measured.
 *
 * `--json` (default BENCH_speed.json) writes the machine-readable
 * report consumed by the CI perf-smoke job, with the host it ran on
 * (CPU count and model, build type, compiler) and the process's peak
 * resident set size over all runs (`peak_rss_mib`). Wall-clock speedup
 * depends on the host's core count; the deterministic columns do not.
 */
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "analysis/loads.hpp"
#include "common.hpp"
#include "core/machine.hpp"
#include "sim/timeseries.hpp"
#include "traffic/driver.hpp"
#include "traffic/patterns.hpp"

using namespace anton2;

namespace {

/** Endpoints per node of every machine this bench builds: the ceiling
 * for --cores. */
constexpr int kEndpointsPerNode = 8;

struct SpeedResult
{
    int threads;
    double wall_seconds;
    Cycle cycles;
    double cycles_per_sec;
    std::uint64_t flit_hops;
    double flit_hops_per_sec;
    std::uint64_t delivered;
    Cycle window; ///< effective lookahead window of the run

    // Engine self-profile: where the wall time went (host_profile.hpp).
    double imbalance;             ///< max/mean per-lane tick seconds
    double barrier_wait_fraction; ///< worst lane's wait share of its span
    double serial_fraction;       ///< serial-replay share of profiled time
    double straggler_shard;       ///< most-often-slowest shard (-1 = none)
    double straggler_share;       ///< its share of the sampled windows
    double class_seconds[kNumHostCompClasses]; ///< sampled attribution
};

std::uint64_t
totalFlitHops(Machine &m)
{
    std::uint64_t hops = 0;
    for (NodeId n = 0; n < m.geom().numNodes(); ++n) {
        const Chip &chip = m.chip(n);
        for (RouterId r = 0;
             r < static_cast<RouterId>(m.layout().numRouters()); ++r)
            hops += chip.router(r).flitsRouted();
    }
    return hops;
}

SpeedResult
runLoad(const std::vector<int> &radix, int cores, double rate,
        Cycle cycles, int threads, Cycle lookahead,
        const bench::SharedFlags &flags)
{
    MachineConfig cfg;
    cfg.radix = radix;
    cfg.chip.endpoints_per_node = kEndpointsPerNode;
    cfg.use_packaging = false;
    cfg.fixed_torus_latency = 20;
    cfg.seed = 17;
    cfg.threads = threads;
    cfg.lookahead = lookahead;
    Machine m(cfg);
    m.attachInstrumentation(flags.instrumentation(m.geom()));

    UniformPattern pat(m.geom());
    OpenLoopDriver::Config dcfg;
    dcfg.cores = firstEndpoints(cores);
    dcfg.rate = rate;
    dcfg.pattern = &pat;
    OpenLoopDriver driver(m, dcfg);
    m.engine().add(driver);

    m.run(RunSpec::forCycles(cycles));
    flags.writeOutputs(m); // timeline (single-thread-count runs only)

    SpeedResult r;
    r.threads = threads;
    // The machine's own host clock: time inside run(), the same timer
    // behind the run report's machine.host.phase.run_seconds.
    r.wall_seconds = m.hostRunSeconds();
    r.cycles = cycles;
    r.cycles_per_sec = r.wall_seconds > 0.0
                           ? static_cast<double>(cycles) / r.wall_seconds
                           : 0.0;
    r.flit_hops = totalFlitHops(m);
    r.flit_hops_per_sec =
        r.wall_seconds > 0.0
            ? static_cast<double>(r.flit_hops) / r.wall_seconds
            : 0.0;
    r.delivered = m.totalDelivered();
    r.window = m.lookaheadWindow();

    const EngineProfiler &ep = *m.hostProfile();
    r.imbalance = ep.imbalance();
    double worst_wait = 0.0;
    for (std::size_t l = 0; l < ep.lanes(); ++l) {
        const double span = ep.laneTickSeconds(l) + ep.laneWaitSeconds(l);
        if (span > 0.0)
            worst_wait = std::max(worst_wait,
                                  ep.laneWaitSeconds(l) / span);
    }
    r.barrier_wait_fraction = worst_wait;
    r.serial_fraction = ep.profiledSeconds() > 0.0
                            ? ep.serialSeconds() / ep.profiledSeconds()
                            : 0.0;
    r.straggler_shard =
        ep.stragglerShard() == EngineProfiler::npos
            ? -1.0
            : static_cast<double>(ep.stragglerShard());
    r.straggler_share =
        ep.sampledWindows() > 0
            ? static_cast<double>(ep.stragglerWindows())
                  / static_cast<double>(ep.sampledWindows())
            : 0.0;
    for (std::size_t c = 0; c < kNumHostCompClasses; ++c)
        r.class_seconds[c] =
            ep.classSeconds(static_cast<HostCompClass>(c));
    return r;
}

/** Parse a comma-separated thread-count list ("1,2,4"); empty on error. */
std::vector<int>
parseThreadList(const char *csv)
{
    std::vector<int> out;
    const char *p = csv;
    while (*p != '\0') {
        char *end = nullptr;
        const long v = std::strtol(p, &end, 10);
        if (end == p || v < 1)
            return {};
        out.push_back(static_cast<int>(v));
        p = end;
        if (*p == ',')
            ++p;
        else if (*p != '\0')
            return {};
    }
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    long kx = 4, ky = 4, kz = 4;
    long cores = 4, cycles_flag = 20000, max_threads = 4;
    long lookahead = 0; // 0 = auto: the machine's min torus link latency
    double rate = 0.0;  // 0 = 60% of the analytic saturation point
    const char *json_path = "BENCH_speed.json";
    const char *threads_csv = nullptr;
    bench::SharedFlags flags;
    bench::OptionRegistry reg(
        "Host speed: simulated cycles/sec and flit-hops/sec, serial vs. "
        "2/4 engine worker threads (bit-identical results)");
    reg.add("--kx", "N", "torus X radix (default 4)", &kx, 2, INT_MAX);
    reg.add("--ky", "N", "torus Y radix (default 4)", &ky, 2, INT_MAX);
    reg.add("--kz", "N", "torus Z radix (default 4)", &kz, 2, INT_MAX);
    reg.add("--cores", "N", "injecting cores per node, 1-8 (default 4)",
            &cores, 1, kEndpointsPerNode);
    reg.add("--cycles", "N", "simulated cycles per run (default 20000)",
            &cycles_flag, 1);
    reg.add("--rate", "R",
            "offered packets/core/cycle (default: 60% of saturation)",
            &rate);
    reg.add("--max-threads", "N",
            "largest worker count measured; doubles up from 1 "
            "(default 4)",
            &max_threads, 1, INT_MAX);
    reg.add("--threads-list", "CSV",
            "explicit thread counts to measure (e.g. 1,2,4; overrides "
            "--max-threads; must include 1 for speedups)",
            &threads_csv);
    reg.add("--lookahead", "N",
            "cycles per barrier window: 0 = auto (min torus link "
            "latency, default), 1 = per-cycle barriers",
            &lookahead, 0);
    reg.add("--json", "PATH",
            "machine-readable report path (default BENCH_speed.json)",
            &json_path);
    flags.registerInto(reg, bench::kGroupHostProfile);
    // The engine profiler is always on here: the per-row imbalance /
    // attribution columns are this bench's product. Its cost is two
    // clock reads per lane per window plus the sampled attribution
    // pass, which is noise next to the ticks being measured.
    flags.host_profile = true;
    if (!reg.parse(argc, argv) || !flags.validate()
        || !bench::probeWritable(json_path))
        return 1;
    std::vector<int> thread_counts;
    if (threads_csv != nullptr) {
        thread_counts = parseThreadList(threads_csv);
        if (thread_counts.empty()) {
            std::fprintf(stderr, "error: --threads-list wants positive "
                                 "integers like 1,2,4\n");
            return 1;
        }
        bool has_serial = false;
        for (int t : thread_counts)
            has_serial = has_serial || t == 1;
        if (!has_serial) {
            std::fprintf(stderr,
                         "error: no serial (threads == 1) run requested; "
                         "speedups need a serial baseline - include 1 in "
                         "--threads-list\n");
            return 1;
        }
    } else {
        for (int t = 1; t <= static_cast<int>(max_threads); t *= 2)
            thread_counts.push_back(t);
    }
    if (!bench::validateTimelineSingleRun(flags, thread_counts.size()))
        return 1;
    const std::vector<int> radix{ static_cast<int>(kx),
                                  static_cast<int>(ky),
                                  static_cast<int>(kz) };
    const auto cycles = static_cast<Cycle>(cycles_flag);

    if (rate <= 0.0) {
        // 60% of the analytic uniform-traffic saturation point: high
        // enough to keep every router busy, low enough to stay out of
        // the congested regime where queue scans dominate.
        ChipConfig chip;
        chip.endpoints_per_node = kEndpointsPerNode;
        const TorusGeom geom(radix);
        const ChipLayout layout(kEndpointsPerNode, 3);
        LoadModel lm(geom, layout, chip, 1);
        Rng lrng(2);
        UniformPattern uniform(geom);
        lm.addPattern(0, uniform, firstEndpoints(static_cast<int>(cores)),
                      300, lrng);
        rate = 0.6 * lm.idealCoreThroughput(0);
    }

    bench::printHeader(
        "Host speed: sharded engine, serial vs. threaded (same "
        "simulation, bit-identical results)");
    std::printf("torus %dx%dx%d, %ld cores/node, rate %.4f pkt/core/cyc, "
                "%llu cycles\n",
                radix[0], radix[1], radix[2], cores, rate,
                static_cast<unsigned long long>(cycles));

    std::vector<SpeedResult> results;
    for (int t : thread_counts)
        results.push_back(runLoad(radix, static_cast<int>(cores), rate,
                                  cycles, t,
                                  static_cast<Cycle>(lookahead), flags));

    // Speedup denominator: the serial row, found by its thread count.
    // Never assume row 0 is serial - the measured set is configurable.
    const SpeedResult *serial = nullptr;
    for (const SpeedResult &r : results) {
        if (r.threads == 1) {
            serial = &r;
            break;
        }
    }
    if (serial == nullptr) {
        std::fprintf(stderr, "error: no serial (threads == 1) run "
                             "measured; speedups need a serial "
                             "baseline - include 1 in --threads-list\n");
        return 1;
    }

    std::printf("lookahead window: %llu cycle(s)%s\n",
                static_cast<unsigned long long>(serial->window),
                lookahead == 0 ? " (auto)" : "");
    std::printf("%8s %12s %14s %16s %10s %8s %8s\n", "threads",
                "wall (s)", "kcycles/s", "Mflit-hops/s", "speedup",
                "imbal", "wait");
    bench::printRule(82);

    bool identical = true;
    for (const SpeedResult &r : results) {
        identical = identical && r.delivered == serial->delivered
                    && r.flit_hops == serial->flit_hops;
        const double speedup =
            r.wall_seconds > 0.0 ? serial->wall_seconds / r.wall_seconds
                                 : 0.0;
        std::printf("%8d %12.3f %14.2f %16.2f %9.2fx %8.2f %7.0f%%\n",
                    r.threads, r.wall_seconds, r.cycles_per_sec / 1e3,
                    r.flit_hops_per_sec / 1e6, speedup, r.imbalance,
                    100.0 * r.barrier_wait_fraction);
    }
    bench::printRule(82);
    std::printf("deterministic across thread counts: %s  (%llu packets "
                "delivered, %llu flit-hops)\n",
                identical ? "yes" : "NO - BUG",
                static_cast<unsigned long long>(serial->delivered),
                static_cast<unsigned long long>(serial->flit_hops));
    const double peak_rss_mib =
        static_cast<double>(hostPeakRssBytes()) / (1024.0 * 1024.0);
    std::printf("peak RSS: %.1f MiB\n", peak_rss_mib);

    JsonWriter report;
    report.beginObject()
        .key("bench").string("host_speed")
        .key("host").raw(bench::hostProvenanceJson())
        .key("config")
        .raw(bench::fieldsJson({ { "kx", radix[0] }, { "ky", radix[1] },
                                 { "kz", radix[2] }, { "cores", cores },
                                 { "rate", rate }, { "cycles", cycles },
                                 { "lookahead", lookahead },
                                 { "window", serial->window } }))
        .key("rows").beginArray(JsonWriter::Inline);
    for (const SpeedResult &r : results) {
        JsonWriter row(0);
        row.beginObject()
            .key("threads").number(r.threads)
            .key("wall_seconds").number(r.wall_seconds)
            .key("cycles_per_sec").number(r.cycles_per_sec)
            .key("flit_hops_per_sec").number(r.flit_hops_per_sec)
            .key("speedup").number(r.wall_seconds > 0.0
                                       ? serial->wall_seconds / r.wall_seconds
                                       : 0.0)
            .key("delivered").number(r.delivered)
            .key("imbalance").number(r.imbalance)
            .key("barrier_wait_fraction").number(r.barrier_wait_fraction)
            .key("serial_fraction").number(r.serial_fraction)
            .key("straggler_shard").number(r.straggler_shard)
            .key("straggler_share").number(r.straggler_share)
            .key("class_seconds").beginObject();
        for (std::size_t c = 0; c < kNumHostCompClasses; ++c)
            row.key(hostCompClassName(static_cast<HostCompClass>(c)))
                .number(r.class_seconds[c]);
        report.raw(row.end().end().take());
    }
    report.end()
        .key("deterministic").boolean(identical)
        .key("peak_rss_mib").number(peak_rss_mib)
        .end();
    bench::writeFile(json_path, report.take() + '\n');
    std::printf("JSON report written to %s\n", json_path);
    return identical ? 0 : 1;
}
