/**
 * @file
 * Section 2.4, Equation (1), Figure 4: the optimization-based search for
 * the on-chip direction-order routing algorithm.
 *
 * Evaluates all 24 direction orders against every permutation switching
 * demand on the external channels (the extreme points of the demand
 * polytope [27]), prints the worst-case mesh-channel load per order, and
 * verifies that V-,U+,U-,V+ is optimal with a worst-case load of two
 * torus channels' worth - with plenty of mesh bandwidth to spare, since a
 * mesh channel (288 Gb/s) carries more than three torus channels' worth
 * (89.6 Gb/s).
 */
#include <cstdio>

#include "analysis/worst_case.hpp"
#include "common.hpp"

using namespace anton2;

int
main(int argc, char **argv)
{
    bench::OptionRegistry reg(
        "Figure 4 / Eq. (1): exhaustive direction-order routing search "
        "(no tunables)");
    if (!reg.parse(argc, argv))
        return 1;
    const ChipLayout layout(23);

    bench::printHeader("Figure 4 / Eq. (1): direction-order routing search");
    std::printf("%-14s %22s\n", "order",
                "worst-case mesh load\n"
                "               (torus channels on one mesh channel)");
    bench::printRule(46);

    const auto results = searchDirectionOrders(layout, 0);
    std::printf("%-14s %6s %12s %10s\n", "", "worst", "#worst-case",
                "mean max");
    for (const auto &r : results) {
        std::printf("%-14s %6d %12d %10.3f%s\n",
                    orderToString(r.order).c_str(), r.worst_load,
                    r.worst_count, r.mean_max_load,
                    r.order == anton2DirOrder() ? "   <- Anton 2" : "");
    }
    bench::printRule(46);

    int anton2_worst = 0;
    SwitchPermutation anton2_perm;
    for (const auto &r : results) {
        if (r.order == anton2DirOrder()) {
            anton2_worst = r.worst_load;
            anton2_perm = r.worst_perm;
        }
    }

    std::printf("\nBest worst-case load found: %d (paper: 2)\n",
                results.front().worst_load);
    std::printf("Anton 2 order (V-,U+,U-,V+) worst-case load: %d\n",
                anton2_worst);

    std::printf("\nA worst-case permutation for the Anton 2 order:\n%s\n",
                permutationToString(anton2_perm).c_str());

    const int eq1_load = maxMeshLoadForPermutation(
        layout, equation1Permutation(), anton2DirOrder(), 0);
    std::printf("\nPaper's Equation (1) permutation:\n%s\n",
                permutationToString(equation1Permutation()).c_str());
    std::printf("Load under the Anton 2 order: %d (paper: 2)\n", eq1_load);

    std::printf("\nMesh channel capacity: 288 Gb/s = %.2f torus channels "
                "(89.6 Gb/s each),\nso a load of 2 leaves substantial "
                "headroom for endpoint traffic (Sec. 2.4).\n",
                288.0 / 89.6);
    return 0;
}
