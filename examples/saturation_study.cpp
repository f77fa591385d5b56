/**
 * @file
 * Saturation study: open-loop injection-rate sweep showing latency rising
 * toward the analytically predicted saturation throughput, and the
 * equality-of-service contrast between round-robin and inverse-weighted
 * arbitration beyond saturation (Section 3).
 */
#include <algorithm>
#include <cstdio>
#include <vector>

#include "../bench/common.hpp"
#include "analysis/loads.hpp"
#include "core/machine.hpp"
#include "traffic/driver.hpp"
#include "traffic/patterns.hpp"

using namespace anton2;

int
main(int argc, char **argv)
{
    // The shared flags (--threads, --audit, --flows, ...) are declared
    // once for every bench; see bench/common.hpp.
    const char *heatmap_path = nullptr;
    bench::SharedFlags flags;
    bench::OptionRegistry reg(
        "Saturation study: open-loop injection sweep toward the analytic "
        "saturation point, plus equality-of-service beyond it");
    flags.registerInto(reg, bench::kGroupThreads | bench::kGroupLookahead
                                | bench::kGroupAudit | bench::kGroupFlows
                                | bench::kGroupHostProfile
                                | bench::kGroupCheckpoint);
    reg.addPositional("HEATMAP_CSV",
                      "path for the near-saturation congestion heatmap "
                      "CSV (written from the highest-load sweep point)",
                      &heatmap_path);
    if (!reg.parse(argc, argv) || !flags.validate()
        || (heatmap_path != nullptr && !bench::probeWritable(heatmap_path)))
        return 1;

    const std::vector<int> radix{ 4, 4, 4 };
    const auto cores = firstEndpoints(4);

    // Predicted saturation from the analytic load model.
    ChipConfig chip_for_model;
    chip_for_model.endpoints_per_node = 8;
    const TorusGeom geom(radix);
    const ChipLayout layout(8, 3);
    LoadModel lm(geom, layout, chip_for_model, 1);
    Rng lrng(2);
    UniformPattern uniform(geom);
    lm.addPattern(0, uniform, cores, 300, lrng);
    const double sat = lm.idealCoreThroughput(0);
    std::printf("predicted saturation: %.4f packets/cycle/core\n\n", sat);

    std::printf("%-12s %14s %14s %12s\n", "offered/sat", "mean lat (ns)",
                "delivered/core/kcycle", "warmup");
    for (double frac : { 0.2, 0.4, 0.6, 0.8, 1.0 }) {
        MachineConfig cfg;
        cfg.radix = radix;
        cfg.chip.endpoints_per_node = 8;
        cfg.use_packaging = false;
        cfg.fixed_torus_latency = 20;
        cfg.seed = 3;
        flags.configure(cfg);
        Machine m(cfg);
        UniformPattern pat(m.geom());

        // Windowed sampling with online steady-state detection: the
        // reported warmup column is the detected end of the transient.
        // One bundle carries the sampler plus any requested auditing.
        Instrumentation inst = flags.instrumentation(m.geom());
        TimeseriesConfig tcfg;
        tcfg.window = 250;
        tcfg.auto_steady = true;
        inst.timeseries = tcfg;
        m.attachInstrumentation(inst);
        IntervalSampler &sampler = *m.timeseries();

        OpenLoopDriver::Config dcfg;
        dcfg.cores = cores;
        dcfg.rate = frac * sat;
        dcfg.pattern = &pat;
        OpenLoopDriver driver(m, dcfg);
        m.engine().add(driver);

        // The highest-load point is the interesting one: it gets the
        // checkpoint I/O (--checkpoint-out lands at the sampler's
        // steady-state convergence; --checkpoint-in warm-starts there).
        RunSpec spec = RunSpec::forCycles(8000);
        if (frac == 1.0)
            flags.configure(spec);
        m.run(spec);
        const double per_core =
            static_cast<double>(m.totalDelivered())
            / (static_cast<double>(m.geom().numNodes()) * cores.size())
            / 8.0;
        const SteadyStateResult &steady = sampler.steadyState();
        char warmup[32];
        if (steady.converged) {
            std::snprintf(warmup, sizeof(warmup), "%llu cyc",
                          static_cast<unsigned long long>(
                              steady.warmup_cycles));
        } else {
            std::snprintf(warmup, sizeof(warmup), "n/a");
        }
        std::printf("%-12.1f %14.1f %14.2f %12s\n", frac,
                    cyclesToNs(static_cast<Cycle>(m.latencyStat().mean())),
                    per_core, warmup);

        if (frac == 1.0 && heatmap_path != nullptr) {
            bench::writeFile(heatmap_path, m.heatmapCsv());
            std::printf("\nheatmap CSV written to %s\n", heatmap_path);
        }
        if (frac == 1.0) {
            // The highest-load sweep point's snapshot, flow matrix and
            // host timeline.
            flags.writeOutputs(m);
            if (m.audit() != nullptr) {
                std::printf("audit: %llu passes, %llu violations\n",
                            static_cast<unsigned long long>(
                                m.audit()->auditsRun()),
                            static_cast<unsigned long long>(
                                m.audit()->violationCount()));
            }
        }
    }

    // Beyond saturation: per-core service spread (EoS, Section 3.1).
    std::printf("\nbeyond saturation (batch, 2x offered): per-core service "
                "spread at half-time\n");
    for (ArbPolicy pol : { ArbPolicy::RoundRobin,
                           ArbPolicy::InverseWeighted }) {
        MachineConfig cfg;
        cfg.radix = { 8, 4, 4 };
        cfg.chip.endpoints_per_node = 8;
        cfg.chip.arb = pol;
        cfg.use_packaging = false;
        cfg.fixed_torus_latency = 20;
        cfg.seed = 3;
        flags.configure(cfg);
        Machine m(cfg);
        UniformPattern pat(m.geom());

        LoadModel wl(m.geom(), m.layout(), cfg.chip, 1);
        Rng wrng(5);
        wl.addPattern(0, pat, cores, 150, wrng);
        if (pol == ArbPolicy::InverseWeighted)
            wl.applyWeights(m);

        std::vector<std::uint64_t> per_src(
            m.geom().numNodes() * cores.size(), 0);
        m.setDeliverHook([&](const PacketPtr &p, Cycle) {
            ++per_src[p->src.node * cores.size()
                      + static_cast<std::size_t>(p->src.ep)];
        });

        BatchDriver::Config dcfg;
        dcfg.cores = cores;
        dcfg.batch_size = 256;
        dcfg.pattern = &pat;
        BatchDriver driver(m, dcfg);
        m.engine().add(driver);
        m.run(RunSpec::untilDelivered(driver.expected() / 2, 3000000));

        const auto [mn, mx] =
            std::minmax_element(per_src.begin(), per_src.end());
        std::printf("  %-18s min %4llu / max %4llu packets per core\n",
                    arbPolicyName(pol),
                    static_cast<unsigned long long>(*mn),
                    static_cast<unsigned long long>(*mx));
    }
    return 0;
}
