/**
 * @file
 * Microbenchmarks of the arbiter implementations (Section 3): the
 * gate-level Figure 8 mirror versus the behavioral reference, the full
 * inverse-weighted arbiter, and the baselines. Uses google-benchmark.
 *
 * These are software microbenchmarks of the simulator's hot arbitration
 * path; the paper's latency claim (prioritized arbitration in
 * ceil(log2(k-1)) prefix stages) is a hardware property mirrored by the
 * GateLevelPriorityArb structure.
 */
#include <benchmark/benchmark.h>

#include "arb/basic_arbiters.hpp"
#include "arb/inverse_weighted.hpp"
#include "arb/priority_arb.hpp"
#include "sim/rng.hpp"

using namespace anton2;

namespace {

void
BM_GateLevelGrant(benchmark::State &state)
{
    const int k = static_cast<int>(state.range(0));
    const GateLevelPriorityArb arb(k, 2);
    std::uint8_t pri[32];
    Rng rng(1);
    for (int i = 0; i < k; ++i)
        pri[i] = static_cast<std::uint8_t>(rng.below(2));
    std::uint32_t req = (1u << k) - 1;
    std::uint32_t therm = (1u << (k / 2)) - 1;
    for (auto _ : state) {
        benchmark::DoNotOptimize(arb.grant(req, pri, therm));
        req = (req * 2654435761u) | 1u;
        req &= (1u << k) - 1;
    }
}
BENCHMARK(BM_GateLevelGrant)->Arg(2)->Arg(4)->Arg(6)->Arg(8);

void
BM_ReferenceGrant(benchmark::State &state)
{
    const int k = static_cast<int>(state.range(0));
    std::uint8_t pri[32];
    Rng rng(1);
    for (int i = 0; i < k; ++i)
        pri[i] = static_cast<std::uint8_t>(rng.below(2));
    std::uint32_t req = (1u << k) - 1;
    const std::uint32_t therm = (1u << (k / 2)) - 1;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            priorityArbReference(k, 2, req, pri, therm));
        req = (req * 2654435761u) | 1u;
        req &= (1u << k) - 1;
    }
}
BENCHMARK(BM_ReferenceGrant)->Arg(6);

void
BM_InverseWeightedPick(benchmark::State &state)
{
    const int k = static_cast<int>(state.range(0));
    InverseWeightedArbiter arb(k);
    // Spread over [1, 31] in opposite orders, for up to 16 inputs.
    for (int i = 0; i < k; ++i) {
        arb.accumulators().setWeight(i, 0, 1 + i * 2);
        arb.accumulators().setWeight(i, 1, 31 - i * 2);
    }
    ReqInfo info[32];
    const std::uint32_t req = (1u << k) - 1;
    for (auto _ : state)
        benchmark::DoNotOptimize(arb.pick(req, info));
}
// 6: a router output's ports; 8 and 12: an adapter side's VCs under the
// Anton 2 and Baseline2n policies.
BENCHMARK(BM_InverseWeightedPick)->Arg(6)->Arg(8)->Arg(12);

void
BM_RoundRobinPick(benchmark::State &state)
{
    const int k = static_cast<int>(state.range(0));
    RoundRobinArbiter arb(k);
    const std::uint32_t req = (1u << k) - 1;
    for (auto _ : state)
        benchmark::DoNotOptimize(arb.pick(req, nullptr));
}
BENCHMARK(BM_RoundRobinPick)->Arg(6);

} // namespace

BENCHMARK_MAIN();
