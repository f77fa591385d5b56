/**
 * @file
 * Section 2.5 ablation: the VC-promotion scheme (n+1 VCs per traffic
 * class) versus the prior-art baseline (2n VCs), on two axes:
 *
 *  1. Correctness - both schemes' VC dependency graphs are acyclic (the
 *     negative control without datelines is not), verified by explicit
 *     graph construction at the torus level and at the exact chip level.
 *
 *  2. Cost - queue area scales with the VC count; Table 2 makes queues
 *     ~47% of the network area, so cutting VCs from 12 to 8 per router /
 *     channel adapter shrinks the network substantially.
 */
#include <cstdio>

#include "analysis/deadlock.hpp"
#include "area/area_model.hpp"
#include "common.hpp"

using namespace anton2;

int
main(int argc, char **argv)
{
    long k_flag = 4;
    bench::OptionRegistry reg(
        "Section 2.5 ablation: VC promotion (n+1 VCs) vs. baseline-2n, "
        "correctness and area cost");
    // Radix 2 is the smallest torus with a dateline cycle to break.
    reg.add("--k", "N", "torus radix per dimension (default 4)", &k_flag, 2,
            INT_MAX);
    if (!reg.parse(argc, argv))
        return 1;
    const int k = static_cast<int>(k_flag);

    bench::printHeader("Section 2.5: VC-promotion ablation");

    // --- correctness -------------------------------------------------
    std::printf("\nDeadlock checks (%dx%dx%d torus, all dimension orders, "
                "all tie-breaks):\n", k, k, k);
    std::printf("%-14s %8s %12s %12s %10s\n", "policy", "VCs/class",
                "resources", "edges", "acyclic");
    bench::printRule(62);

    const TorusGeom geom(k, k, k);
    const ChipLayout layout(23);
    for (VcPolicy policy : { VcPolicy::Anton2, VcPolicy::Baseline2n,
                             VcPolicy::NoDateline }) {
        const auto report = checkTorusLevel(geom, policy);
        std::printf("%-14s %8d %12zu %12zu %10s\n", vcPolicyName(policy),
                    numUnifiedVcs(policy, 3), report.resources,
                    report.edges, report.acyclic ? "yes" : "NO (cycle)");
    }
    bench::printRule(62);

    std::printf("\nChip-level (exact on-chip channels, sampled endpoints), "
                "4x4x4:\n");
    const TorusGeom small(4, 4, 4);
    for (VcPolicy policy : { VcPolicy::Anton2, VcPolicy::Baseline2n }) {
        const auto report = checkChipLevel(small, layout, policy,
                                           anton2DirOrder(), { 0, 22 });
        std::printf("  %-14s %9zu resources %9zu edges  acyclic: %s\n",
                    vcPolicyName(policy), report.resources, report.edges,
                    report.acyclic ? "yes" : "NO");
    }

    // --- cost ---------------------------------------------------------
    const AreaModel model;
    const auto anton2 = model.evaluate(NetworkSpec::forPolicy(
        VcPolicy::Anton2));
    const auto baseline = model.evaluate(NetworkSpec::forPolicy(
        VcPolicy::Baseline2n));

    std::printf("\nArea impact (calibrated model, %% of die):\n");
    std::printf("%-22s %10s %12s\n", "", "anton2", "baseline-2n");
    bench::printRule(48);
    std::printf("%-22s %10d %12d\n", "VCs per class", 4, 6);
    std::printf("%-22s %10.2f %12.2f\n", "queue area",
                anton2.categoryTotal(AreaCategory::Queues),
                baseline.categoryTotal(AreaCategory::Queues));
    std::printf("%-22s %10.2f %12.2f\n", "network total",
                anton2.networkTotal(), baseline.networkTotal());
    bench::printRule(48);
    std::printf("Network area saved by VC promotion: %.1f%%\n",
                (1.0 - anton2.networkTotal() / baseline.networkTotal())
                    * 100.0);
    std::printf("(The abstract's claim: one-third fewer VCs; queues are "
                "the largest\n area category, Table 2.)\n");
    return 0;
}
