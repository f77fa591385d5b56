/**
 * @file
 * Figure 10: blending tornado and reverse-tornado traffic under four
 * arbiter-weight configurations (Section 4.2).
 *
 * Packets are split between the two patterns with a fraction varying along
 * the horizontal axis; each packet carries its pattern id. Configurations:
 *   None    - round-robin arbitration;
 *   Forward - a single weight set computed from tornado loads;
 *   Reverse - a single weight set computed from reverse-tornado loads;
 *   Both    - two weight sets, one per pattern (the inverse-weighted
 *             arbiter's headline capability).
 *
 * Paper's result: single-weight-set configurations degrade toward
 * round-robin when the blend moves away from their pattern; Both holds
 * ~85% across the entire range.
 *
 * Default: 8x4x4 torus, 8 cores/node, 256 packets per core (the paper used
 * 8x8x8 with 1,024 per core; --kx/--ky/--kz/--batch scale up).
 */
#include <cstdio>
#include <string>

#include "analysis/loads.hpp"
#include "common.hpp"
#include "core/machine.hpp"
#include "traffic/driver.hpp"
#include "traffic/patterns.hpp"

using namespace anton2;

namespace {

enum class WeightMode { None, Forward, Reverse, Both };

/** Endpoints per node of every machine this bench builds: the ceiling
 * for --cores. */
constexpr int kEndpointsPerNode = 8;

double
runBlend(const std::vector<int> &radix, int cores, std::uint64_t batch,
         WeightMode mode, double reverse_fraction, std::uint64_t seed,
         const bench::SharedFlags &flags, bool probe,
         std::string *report_body, std::string *host_json)
{
    MachineConfig cfg;
    cfg.radix = radix;
    cfg.chip.endpoints_per_node = kEndpointsPerNode;
    cfg.chip.arb = mode == WeightMode::None ? ArbPolicy::RoundRobin
                                            : ArbPolicy::InverseWeighted;
    cfg.use_packaging = false;
    cfg.fixed_torus_latency = 20;
    cfg.seed = seed;
    flags.configure(cfg);
    Machine m(cfg);
    // The probe run (last sweep point, Both mode) carries the run-report
    // and self-profiling instrumentation; the rest of the sweep stays
    // uninstrumented.
    if (probe)
        m.attachInstrumentation(flags.instrumentation(m.geom()));

    const auto eps = firstEndpoints(cores);
    TornadoPattern fwd(m.geom(), false);
    TornadoPattern rev(m.geom(), true);

    // Program weights per the mode. Pattern slot 0 = forward tornado,
    // slot 1 = reverse tornado; packets are labeled accordingly.
    LoadModel lm(m.geom(), m.layout(), cfg.chip, 2);
    Rng lrng(seed + 1);
    switch (mode) {
      case WeightMode::None:
        break;
      case WeightMode::Forward:
        // One weight set used for both labels.
        lm.addPattern(0, fwd, eps, 200, lrng);
        lm.addPattern(1, fwd, eps, 200, lrng);
        lm.applyWeights(m);
        break;
      case WeightMode::Reverse:
        lm.addPattern(0, rev, eps, 200, lrng);
        lm.addPattern(1, rev, eps, 200, lrng);
        lm.applyWeights(m);
        break;
      case WeightMode::Both:
        lm.addPattern(0, fwd, eps, 200, lrng);
        lm.addPattern(1, rev, eps, 200, lrng);
        lm.applyWeights(m);
        break;
    }

    // Normalization: the blended demand's ideal throughput, from a mixed
    // sample stream (blended load = (1-f)*L_fwd + f*L_rev).
    LoadModel norm2(m.geom(), m.layout(), cfg.chip, 1);
    class Mixed : public TrafficPattern
    {
      public:
        Mixed(const TorusGeom &g, double f)
            : TrafficPattern(g), fwd_(g, false), rev_(g, true), f_(f)
        {
        }
        NodeId
        dest(NodeId src, Rng &rng) const override
        {
            return rng.chance(f_) ? rev_.dest(src, rng)
                                  : fwd_.dest(src, rng);
        }
        std::string name() const override { return "mixed"; }

      private:
        TornadoPattern fwd_;
        TornadoPattern rev_;
        double f_;
    } mixed(m.geom(), reverse_fraction);
    Rng nrng2(seed + 3);
    norm2.addPattern(0, mixed, eps, 400, nrng2);
    const double ideal = norm2.idealCoreThroughput(0);

    BatchDriver::Config dcfg;
    dcfg.cores = eps;
    dcfg.batch_size = batch;
    dcfg.pattern = &fwd;
    dcfg.pattern_id = 0;
    dcfg.pattern2 = &rev;
    dcfg.pattern2_id = 1;
    dcfg.blend_fraction2 = reverse_fraction;
    BatchDriver driver(m, dcfg);
    m.engine().add(driver);
    if (m.run(RunSpec::untilDelivered(driver.deliveredTarget(),
                                      static_cast<Cycle>(batch) * 3000
                                          + 300000))
            .reason
        != StopReason::Delivered)
        std::fprintf(stderr, "WARNING: blend run timed out\n");
    if (probe) {
        flags.writeOutputs(m);
        *report_body = flags.reportBody(m);
        *host_json = m.hostJson();
    }
    return driver.throughputPerCore() / ideal;
}

} // namespace

int
main(int argc, char **argv)
{
    long kx = 8, ky = 4, kz = 4;
    long cores = 8, batch_flag = 256, seed_flag = 21, steps_flag = 4;
    bench::SharedFlags flags;
    bench::OptionRegistry reg(
        "Figure 10: tornado / reverse-tornado blending under the four "
        "arbiter weight modes");
    reg.add("--kx", "N", "torus X radix (default 8)", &kx, 2, INT_MAX);
    reg.add("--ky", "N", "torus Y radix (default 4)", &ky, 2, INT_MAX);
    reg.add("--kz", "N", "torus Z radix (default 4)", &kz, 2, INT_MAX);
    reg.add("--cores", "N", "participating cores per node, 1-8 (default 8)",
            &cores, 1, kEndpointsPerNode);
    reg.add("--batch", "N", "packets per core (default 256)", &batch_flag,
            1);
    reg.add("--seed", "N", "simulation seed (default 21)", &seed_flag);
    reg.add("--steps", "N", "blend-fraction sweep steps (default 4)",
            &steps_flag, 1, INT_MAX);
    flags.registerInto(reg, bench::kGroupThreads | bench::kGroupHostProfile
                                | bench::kGroupReport);
    if (!reg.parse(argc, argv) || !flags.validate())
        return 1;
    const std::vector<int> radix{ static_cast<int>(kx),
                                  static_cast<int>(ky),
                                  static_cast<int>(kz) };
    const auto batch = static_cast<std::uint64_t>(batch_flag);
    const auto seed = static_cast<std::uint64_t>(seed_flag);
    const int steps = static_cast<int>(steps_flag);

    bench::printHeader(
        "Figure 10: tornado / reverse-tornado blending (normalized "
        "throughput)");
    std::printf("torus %dx%dx%d, %ld cores/node, %llu packets/core\n",
                radix[0], radix[1], radix[2], cores,
                static_cast<unsigned long long>(batch));
    std::printf("%-22s %8s %8s %8s %8s\n", "fraction reverse", "None",
                "Forward", "Reverse", "Both");
    bench::printRule(60);

    std::string report_body, report_host;
    for (int i = 0; i <= steps; ++i) {
        const double f = static_cast<double>(i) / steps;
        // The last Both run is the probe that fills the report.
        auto blend = [&](WeightMode mode) {
            return runBlend(radix, static_cast<int>(cores), batch, mode, f,
                            seed, flags,
                            mode == WeightMode::Both && i == steps,
                            &report_body, &report_host);
        };
        const double none = blend(WeightMode::None);
        const double fwd = blend(WeightMode::Forward);
        const double rev = blend(WeightMode::Reverse);
        const double both = blend(WeightMode::Both);
        std::printf("%-22.2f %8.3f %8.3f %8.3f %8.3f\n", f, none, fwd, rev,
                    both);
    }
    bench::printRule(60);
    std::printf(
        "Paper (8x8x8): Both holds ~0.85 across all blends; Forward/"
        "Reverse fall\ntoward round-robin as the blend moves away from "
        "their pattern.\n");
    const auto config = bench::fieldsJson(
        { { "kx", radix[0] }, { "ky", radix[1] }, { "kz", radix[2] },
          { "cores", cores }, { "batch", batch }, { "steps", steps } });
    return flags.writeReport("fig10_blend", config, report_body, "",
                             report_host)
               ? 0
               : 1;
}
