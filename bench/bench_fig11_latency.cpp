/**
 * @file
 * Figure 11: one-way software-to-software message latency versus inter-node
 * hop count (Section 4.3).
 *
 * Ping-pong methodology: software on core A issues a 16-byte remote write
 * to core B; a counted-write counter at B dispatches a handler, which
 * writes back to A; A's handler completes the ping-pong. One-way latency =
 * half the round trip, averaged over endpoint pairs at each hop distance,
 * and includes the modeled software/handler-dispatch overhead.
 *
 * The paper reports a linear fit of 80.7 ns fixed + 39.1 ns/hop on the
 * 8x8x8 machine, and a minimum inter-node latency of ~99 ns. Per-link wire
 * latencies come from the Figure 2 packaging model, so hops that leave a
 * backplane or rack cost more - exactly the structure behind the paper's
 * per-hop average.
 */
#include <cstdio>
#include <vector>

#include "common.hpp"
#include "core/machine.hpp"
#include "sim/stats.hpp"

using namespace anton2;

namespace {

/** Software send + handler dispatch overhead per side, in cycles. The
 * paper's Figure 12 attributes ~60% of the 99 ns minimum latency to the
 * endpoints and software. */
constexpr Cycle kSoftwareCycles = 44; // ~29 ns per traversal end

Cycle
pingPong(Machine &m, EndpointAddr a, EndpointAddr b, int rounds)
{
    // The handler chain: delivery at B triggers (after software delay) a
    // write back to A; delivery at A completes one round.
    int completed = 0;
    bool done = false;
    Cycle start = 0, end = 0;

    std::function<void()> send_ping = [&] {
        // Arm both sides' counted-write counters for this round, then
        // issue the ping.
        m.endpoint(b).armCounter(1, 1);
        m.endpoint(a).armCounter(2, 1);
        auto pkt = m.makeWrite(a, b, 0, 1, /*counter=*/1);
        m.send(pkt);
    };

    m.endpoint(b).setHandlerFn([&](std::int32_t, Cycle) {
        // Counted write arrived at B: schedule the pong after the software
        // overhead. (Modeled by injecting with a birth delay: we simply
        // run the engine and inject directly; the overhead is added to the
        // measured time analytically below.)
        auto pkt = m.makeWrite(b, a, 0, 1, /*counter=*/2);
        m.send(pkt);
    });
    m.endpoint(a).setHandlerFn([&](std::int32_t, Cycle now) {
        ++completed;
        if (completed >= rounds) {
            done = true;
            end = now;
        } else {
            send_ping();
        }
    });

    start = m.now();
    send_ping();
    RunSpec spec;
    spec.max_cycles = 4000000;
    spec.stop = [&] { return done; };
    m.run(spec);
    // Detach the handlers (they capture this frame's locals).
    m.endpoint(a).setHandlerFn(nullptr);
    m.endpoint(b).setHandlerFn(nullptr);
    if (!done)
        return 0;

    // Each one-way traversal incurs the software overhead once.
    const Cycle network = (end - start) / static_cast<Cycle>(rounds);
    return network / 2 + kSoftwareCycles;
}

} // namespace

// A restore that fails after validation (an image of another
// configuration, or a corrupted one) ends the bench with an error.
int
main(int argc, char **argv)
try {
    long k_flag = 8, pairs_flag = 6, rounds_flag = 4;
    bench::SharedFlags flags;
    bench::OptionRegistry reg(
        "Figure 11: one-way software-to-software message latency vs. "
        "inter-node hop count");
    // Radix 2 is the smallest with a hop to measure.
    reg.add("--k", "N", "torus radix per dimension (default 8)", &k_flag, 2,
            INT_MAX);
    reg.add("--pairs", "N", "endpoint pairs sampled per hop count "
                            "(default 6)",
            &pairs_flag, 1, INT_MAX);
    reg.add("--rounds", "N", "ping-pong rounds per pair (default 4)",
            &rounds_flag, 1, INT_MAX);
    flags.registerInto(reg, bench::kRunSet | bench::kGroupCheckpoint);
    if (!reg.parse(argc, argv) || !flags.validate())
        return 1;
    const int k = static_cast<int>(k_flag);
    const int pairs = static_cast<int>(pairs_flag);
    const int rounds = static_cast<int>(rounds_flag);

    MachineConfig cfg;
    cfg.radix = { k, k, k };
    cfg.chip.endpoints_per_node = 4;
    cfg.chip.arb = ArbPolicy::RoundRobin;
    cfg.use_packaging = true; // Figure 2 trace/cable latencies
    cfg.seed = 31;
    flags.configure(cfg);
    Machine m(cfg);
    // The network is quiescent between ping-pongs, so a checkpoint
    // brackets the whole sweep: --checkpoint-in resumes a prior
    // machine's clock/RNG state, --checkpoint-out (below) preserves
    // this one's. Instrumentation attaches after the restore.
    if (flags.checkpoint_in != nullptr)
        m.restoreCheckpoint(flags.checkpoint_in);
    m.attachInstrumentation(flags.instrumentation(m.geom()));

    bench::printHeader(
        "Figure 11: one-way 16 B message latency vs. inter-node hops");
    std::printf("torus %dx%dx%d, packaging-model link latencies\n", k, k,
                k);
    std::printf("%6s %14s %14s\n", "hops", "latency (ns)", "samples");
    bench::printRule(40);

    const int max_hops = 3 * (k / 2);
    std::vector<double> xs, ys;
    std::vector<std::string> rows;
    Rng rng(5);
    for (int h = 1; h <= max_hops; ++h) {
        ScalarStat lat;
        int found = 0;
        for (int attempt = 0; attempt < 4000 && found < pairs; ++attempt) {
            const auto a = static_cast<NodeId>(
                rng.below(m.geom().numNodes()));
            const auto b = static_cast<NodeId>(
                rng.below(m.geom().numNodes()));
            if (a == b || m.geom().hopDistance(a, b) != h)
                continue;
            ++found;
            const Cycle c = pingPong(m, { a, 0 }, { b, 1 }, rounds);
            if (c > 0)
                lat.add(cyclesToNs(c));
        }
        if (lat.count() == 0)
            continue;
        std::printf("%6d %14.1f %14llu\n", h, lat.mean(),
                    static_cast<unsigned long long>(lat.count()));
        rows.push_back(bench::fieldsJson(
            { { "hops", h }, { "latency_ns", lat.mean() },
              { "min_ns", lat.min() }, { "max_ns", lat.max() },
              { "samples", lat.count() } }));
        xs.push_back(h);
        ys.push_back(lat.mean());
    }
    bench::printRule(40);
    if (flags.checkpoint_out != nullptr)
        m.saveCheckpoint(flags.checkpoint_out);
    flags.writeOutputs(m);

    const auto fit = LinearFit::fit(xs, ys);
    std::printf("\nLinear fit: %.1f ns fixed + %.1f ns/hop (r^2 = %.4f)\n",
                fit.intercept, fit.slope, fit.r2);
    std::printf("Paper:      80.7 ns fixed + 39.1 ns/hop; minimum ~99 ns\n");
    if (!ys.empty())
        std::printf("Minimum measured latency: %.1f ns\n", ys.front());

    const auto config = bench::fieldsJson(
        { { "k", k }, { "pairs", pairs }, { "rounds", rounds } });
    const auto fit_obj = bench::fieldsJson({ { "intercept_ns", fit.intercept },
                                             { "slope_ns_per_hop", fit.slope },
                                             { "r2", fit.r2 } });
    const std::string body = flags.reportBody(m);
    return flags.writeReport("fig11_latency", config, body,
                             bench::resultsJson(rows, fit_obj), m.hostJson())
               ? 0
               : 1;
} catch (const CheckpointError &e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
}
