/**
 * @file
 * Tests for the arbiter library (Section 3): baselines, the gate-level
 * Figure 8 prioritized arbiter and the three-mask grant it is the oracle
 * of, and the Figure 6 inverse-weighted accumulators, including the
 * equality-of-service property under pattern blending.
 */
#include <gtest/gtest.h>

#include <bit>
#include <stdexcept>
#include <vector>

#include "arb/basic_arbiters.hpp"
#include "arb/inverse_weighted.hpp"
#include "arb/priority_arb.hpp"
#include "sim/rng.hpp"

namespace anton2 {
namespace {

TEST(RoundRobin, RotatesThroughAllRequesters)
{
    RoundRobinArbiter arb(4);
    const std::uint32_t all = 0b1111;
    std::vector<int> grants;
    for (int i = 0; i < 8; ++i)
        grants.push_back(arb.pick(all, nullptr));
    // Each input granted exactly twice in 8 rounds.
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(std::count(grants.begin(), grants.end(), i), 2);
}

TEST(RoundRobin, SkipsNonRequesters)
{
    RoundRobinArbiter arb(4);
    EXPECT_EQ(arb.pick(0b0100, nullptr), 2);
    EXPECT_EQ(arb.pick(0b0101, nullptr), 0); // pointer past 2
    EXPECT_EQ(arb.pick(0b0101, nullptr), 2);
}

TEST(RoundRobin, EmptyRequestReturnsMinusOne)
{
    RoundRobinArbiter arb(3);
    EXPECT_EQ(arb.pick(0, nullptr), -1);
}

/** The modulo-loop round-robin pick, kept as the reference model for
 * the bit-scan implementation. Returns the grant and updates @p ptr. */
int
referenceRoundRobinPick(int k, int &ptr, std::uint32_t req_mask)
{
    if (req_mask == 0)
        return -1;
    for (int off = 0; off < k; ++off) {
        const int i = (ptr + off) % k;
        if (req_mask & (1u << i)) {
            ptr = (i + 1) % k;
            return i;
        }
    }
    return -1;
}

TEST(RoundRobin, BitScanMatchesModuloReferenceExhaustively)
{
    for (int k = 1; k <= 12; ++k) {
        for (int start = 0; start < k; ++start) {
            for (std::uint32_t req = 0; req < (1u << k); ++req) {
                // Reach pointer position `start` by granting the input
                // just before it alone.
                RoundRobinArbiter arb(k);
                const int before = (start + k - 1) % k;
                ASSERT_EQ(arb.pick(1u << before, nullptr), before);
                ASSERT_EQ(arb.pointer(), start);

                int ref_ptr = start;
                const int want = referenceRoundRobinPick(k, ref_ptr, req);
                ASSERT_EQ(arb.pick(req, nullptr), want)
                    << "k=" << k << " ptr=" << start << " req=" << req;
                ASSERT_EQ(arb.pointer(), ref_ptr)
                    << "k=" << k << " ptr=" << start << " req=" << req;
            }
        }
    }
}

// ---------------------------------------------------------------------
// Figure 8 gate-level arbiter vs. reference model
// ---------------------------------------------------------------------

/** Exhaustive equivalence sweep over (k, P). */
class GateLevelSweep : public ::testing::TestWithParam<std::tuple<int, int>>
{
};

TEST_P(GateLevelSweep, MatchesReferenceExhaustively)
{
    const auto [k, p] = GetParam();
    const GateLevelPriorityArb arb(k, p);
    std::vector<std::uint8_t> pri(static_cast<std::size_t>(k));

    // All request masks x a sample of priority assignments x all valid
    // thermometer states (k+1 of them).
    Rng rng(static_cast<std::uint64_t>(k * 31 + p));
    for (std::uint32_t req = 0; req < (1u << k); ++req) {
        for (int pcase = 0; pcase < 8; ++pcase) {
            for (int i = 0; i < k; ++i)
                pri[static_cast<std::size_t>(i)] =
                    static_cast<std::uint8_t>(rng.below(
                        static_cast<std::uint64_t>(p)));
            for (int boost = 0; boost <= k; ++boost) {
                const std::uint32_t therm = (1u << boost) - 1u;
                const std::uint32_t g = arb.grant(req, pri.data(), therm);
                const int ref = priorityArbReference(k, p, req, pri.data(),
                                                     therm);
                if (req == 0) {
                    EXPECT_EQ(g, 0u);
                    EXPECT_EQ(ref, -1);
                } else {
                    ASSERT_NE(g, 0u);
                    EXPECT_EQ(g & (g - 1), 0u) << "grant must be one-hot";
                    EXPECT_EQ(g, 1u << ref)
                        << "k=" << k << " p=" << p << " req=" << req
                        << " therm=" << therm;
                }
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GateLevelSweep,
    ::testing::Values(std::tuple{ 2, 2 }, std::tuple{ 3, 2 },
                      std::tuple{ 4, 2 }, std::tuple{ 5, 2 },
                      std::tuple{ 6, 2 }, std::tuple{ 7, 2 },
                      std::tuple{ 6, 1 }, std::tuple{ 6, 3 },
                      std::tuple{ 4, 4 }, std::tuple{ 8, 2 }),
    [](const auto &info) {
        return "k" + std::to_string(std::get<0>(info.param)) + "p"
               + std::to_string(std::get<1>(info.param));
    });

TEST(GateLevel, SingleInputAlwaysGranted)
{
    const GateLevelPriorityArb arb(1, 2);
    const std::uint8_t pri = 0;
    EXPECT_EQ(arb.grant(1, &pri, 0), 1u);
    EXPECT_EQ(arb.grant(0, &pri, 0), 0u);
}

TEST(GateLevel, HighPriorityBeatsLowPriority)
{
    const GateLevelPriorityArb arb(4, 2);
    const std::uint8_t pri[4] = { 0, 1, 0, 0 };
    // No boosts: input 1 (high priority) must win over 0, 2, 3.
    EXPECT_EQ(arb.grant(0b1111, pri, 0), 0b0010u);
}

TEST(GateLevel, BoostedLowPriorityTiesWithUnboostedHigh)
{
    // Figure 7's merged middle band: (low pri, boosted) and (high pri,
    // unboosted) share a band; the higher index wins within the band.
    const GateLevelPriorityArb arb(4, 2);
    const std::uint8_t pri[4] = { 0, 0, 0, 1 };
    // Input 0 boosted low-pri, input 3 unboosted high-pri: same band,
    // index 3 wins.
    EXPECT_EQ(arb.grant(0b1001, pri, 0b0001), 0b1000u);
    // But a boosted high-pri input beats both.
    const std::uint8_t pri2[4] = { 1, 0, 0, 1 };
    EXPECT_EQ(arb.grant(0b1001, pri2, 0b0001), 0b0001u);
}

TEST(PriorityArb, MaskGrantMatchesGateLevelExhaustively)
{
    // Every k <= 8, request mask, two-level priority vector and
    // thermometer a grant can leave (inputs below the last grant).
    std::uint64_t cases = 0;
    std::uint64_t mismatches = 0;
    for (int k = 1; k <= 8; ++k) {
        const GateLevelPriorityArb arb(k, 2);
        std::uint8_t pri[8];
        for (std::uint32_t high = 0; high < (1u << k); ++high) {
            for (int i = 0; i < k; ++i)
                pri[i] = static_cast<std::uint8_t>((high >> i) & 1u);
            for (int last = 0; last < k; ++last) {
                const std::uint32_t therm = rrThermAfterGrant(k, last);
                for (std::uint32_t req = 0; req < (1u << k); ++req) {
                    ++cases;
                    const int got = maskPriorityGrant(req, high, therm);
                    const std::uint32_t g = arb.grant(req, pri, therm);
                    const int gate = g == 0 ? -1 : std::countr_zero(g);
                    const int ref =
                        priorityArbReference(k, 2, req, pri, therm);
                    if (got != gate || got != ref) {
                        if (mismatches++ == 0)
                            ADD_FAILURE()
                                << "k=" << k << " req=" << req
                                << " high=" << high << " therm=" << therm
                                << ": mask " << got << ", gate-level "
                                << gate << ", reference " << ref;
                    }
                }
            }
        }
    }
    EXPECT_EQ(cases, 669924u); // sum over k of 4^k * k
    EXPECT_EQ(mismatches, 0u);
}

// ---------------------------------------------------------------------
// Figure 6 accumulators
// ---------------------------------------------------------------------

TEST(Accumulators, GrantAddsInverseWeight)
{
    InvWeightAccumulators acc(2, 5, 1);
    acc.setWeight(0, 0, 7);
    acc.setWeight(1, 0, 3);
    acc.onGrant(0, 0);
    EXPECT_EQ(acc.accumulator(0), 7u);
    EXPECT_EQ(acc.accumulator(1), 0u);
    acc.onGrant(0, 0);
    EXPECT_EQ(acc.accumulator(0), 14u);
}

TEST(Accumulators, PriorityBitIsAccumulatorMsb)
{
    InvWeightAccumulators acc(1, 3, 1); // M=3: window halves at 8
    acc.setWeight(0, 0, 7);
    EXPECT_TRUE(acc.highPriority(0));
    acc.onGrant(0, 0); // 7
    EXPECT_TRUE(acc.highPriority(0));
    acc.onGrant(0, 0); // 7 (msb cleared... 7 < 8 so stays) + 7 = 14
    EXPECT_FALSE(acc.highPriority(0));
}

TEST(Accumulators, WindowShiftOnLowPriorityGrant)
{
    InvWeightAccumulators acc(2, 3, 1);
    acc.setWeight(0, 0, 7);
    acc.setWeight(1, 0, 2);
    // Drive input 0 into the upper half of the window.
    acc.onGrant(0, 0); // 7
    acc.onGrant(0, 0); // 14 -> low priority
    EXPECT_FALSE(acc.highPriority(0));
    // Build some history on input 1.
    acc.onGrant(1, 0); // 2
    EXPECT_EQ(acc.accumulator(1), 2u);
    // Granting low-priority input 0 shifts the window by 2^M = 8:
    // input 0: (14 - 8) + 7 = 13; input 1: high priority -> clamps to 0.
    acc.onGrant(0, 0);
    EXPECT_EQ(acc.accumulator(0), 13u);
    EXPECT_EQ(acc.accumulator(1), 0u);
}

TEST(Accumulators, UnderflowClampsToZero)
{
    InvWeightAccumulators acc(2, 3, 1);
    acc.setWeight(0, 0, 7);
    acc.setWeight(1, 0, 1);
    acc.onGrant(1, 0); // input 1 at 1 (high priority)
    acc.onGrant(0, 0); // 7
    acc.onGrant(0, 0); // 14: low pri
    acc.onGrant(0, 0); // low grant: window shifts; input 1: 1 - 8 -> 0
    EXPECT_EQ(acc.accumulator(1), 0u);
}

TEST(Accumulators, BoundedByTwiceWindow)
{
    InvWeightAccumulators acc(3, 5, 2);
    acc.setWeight(0, 0, 31);
    acc.setWeight(0, 1, 1);
    acc.setWeight(1, 0, 16);
    acc.setWeight(1, 1, 16);
    acc.setWeight(2, 0, 1);
    acc.setWeight(2, 1, 31);
    Rng rng(5);
    for (int i = 0; i < 10000; ++i) {
        acc.onGrant(static_cast<int>(rng.below(3)),
                    static_cast<int>(rng.below(2)));
        for (int j = 0; j < 3; ++j)
            EXPECT_LT(acc.accumulator(j), 64u);
    }
}

/**
 * The inverse-weighted pick as the Figure 8 mirror evaluates it: a
 * priority array rebuilt from the accumulator MSBs, the gate-level
 * grant, a scan for the grant bit, and Figure 6's update visiting every
 * accumulator. The reference for the mask-based arbiter.
 */
struct GateLevelInverseWeighted
{
    GateLevelInverseWeighted(int k, int weight_bits, int num_patterns)
        : k(k),
          msb(1u << weight_bits),
          num_patterns(num_patterns),
          arb(k, 2),
          accum(static_cast<std::size_t>(k), 0),
          weights(static_cast<std::size_t>(k * num_patterns), 1)
    {
    }

    int
    pick(std::uint32_t req, const ReqInfo *info)
    {
        if (req == 0)
            return -1;
        std::uint8_t pri[32];
        for (int i = 0; i < k; ++i)
            pri[i] = (accum[static_cast<std::size_t>(i)] & msb) == 0 ? 1 : 0;
        const int g = std::countr_zero(arb.grant(req, pri, therm));
        const std::uint32_t w = weights[static_cast<std::size_t>(
            g * num_patterns + info[g].pattern)];
        const bool low_grant = pri[g] == 0;
        for (int i = 0; i < k; ++i) {
            std::uint32_t &acc = accum[static_cast<std::size_t>(i)];
            if (i == g)
                acc = (acc & (msb - 1)) + w;
            else if (low_grant)
                acc = pri[i] != 0 ? 0 : acc & (msb - 1);
        }
        therm = (1u << g) - 1;
        return g;
    }

    int k;
    std::uint32_t msb;
    int num_patterns;
    GateLevelPriorityArb arb;
    std::vector<std::uint32_t> accum;
    std::vector<std::uint32_t> weights; ///< [input][pattern]
    std::uint32_t therm = 0;
};

TEST(InverseWeighted, GrantStreamMatchesGateLevelPick)
{
    for (int k = 2; k <= 8; ++k) {
        Rng rng(static_cast<std::uint64_t>(1000 + k));
        InverseWeightedArbiter fast(k, kDefaultWeightBits, kNumPatterns);
        GateLevelInverseWeighted ref(k, kDefaultWeightBits, kNumPatterns);
        for (int i = 0; i < k; ++i) {
            for (int p = 0; p < kNumPatterns; ++p) {
                const auto w = static_cast<std::uint32_t>(1 + rng.below(31));
                fast.accumulators().setWeight(i, p, w);
                ref.weights[static_cast<std::size_t>(i * kNumPatterns + p)] =
                    w;
            }
        }
        ReqInfo info[8];
        std::uint64_t low_grants = 0;
        for (int t = 0; t < 100000; ++t) {
            const auto req =
                static_cast<std::uint32_t>(rng.below(std::uint64_t{ 1 } << k));
            for (int i = 0; i < k; ++i)
                info[i].pattern =
                    static_cast<std::uint8_t>(rng.below(kNumPatterns));
            const std::uint32_t high = fast.accumulators().highMask();
            const int want = ref.pick(req, info);
            const int got = fast.pick(req, info);
            ASSERT_EQ(got, want) << "k=" << k << " t=" << t;
            if (got >= 0 && ((high >> got) & 1u) == 0)
                ++low_grants;
            std::uint32_t want_high = 0;
            for (int i = 0; i < k; ++i) {
                const std::uint32_t a = ref.accum[static_cast<std::size_t>(i)];
                ASSERT_EQ(fast.accumulators().accumulator(i), a)
                    << "k=" << k << " t=" << t << " input " << i;
                want_high |= a < ref.msb ? 1u << i : 0u;
            }
            ASSERT_EQ(fast.accumulators().highMask(), want_high)
                << "k=" << k << " t=" << t;
        }
        // The stream exercises the window shift, not just the fast path.
        EXPECT_GT(low_grants, 0u) << "k=" << k;
    }
}

TEST(InverseWeighted, RejectsShapesItsStateCannotHold)
{
    // The accumulators and weights are bytes in arrays of kMaxInputs
    // inputs: a shape they cannot hold is refused in every build, not by
    // an assert a Release build drops.
    constexpr int kInputs = InvWeightAccumulators::kMaxInputs;
    constexpr int kBits = InvWeightAccumulators::kMaxWeightBits;
    for (int k : { 0, kInputs + 1 }) {
        EXPECT_THROW(InvWeightAccumulators{ k }, std::invalid_argument) << k;
        EXPECT_THROW(InverseWeightedArbiter{ k }, std::invalid_argument) << k;
    }
    for (int bits : { 0, kBits + 1 }) {
        EXPECT_THROW(InvWeightAccumulators(6, bits), std::invalid_argument)
            << bits;
        EXPECT_THROW(InverseWeightedArbiter(6, bits), std::invalid_argument)
            << bits;
    }
    for (int patterns : { 0, kNumPatterns + 1 }) {
        EXPECT_THROW(InvWeightAccumulators(6, kDefaultWeightBits, patterns),
                     std::invalid_argument)
            << patterns;
        EXPECT_THROW(InverseWeightedArbiter(6, kDefaultWeightBits, patterns),
                     std::invalid_argument)
            << patterns;
    }

    // The widest shape holds an (M+1)-bit accumulator up to 2^(M+1) - 2.
    InvWeightAccumulators acc(kInputs, kBits, kNumPatterns);
    const int last = kInputs - 1;
    const std::uint32_t max_w = (1u << kBits) - 1;
    acc.setWeight(last, kNumPatterns - 1, max_w);
    acc.onGrant(last, kNumPatterns - 1);
    acc.onGrant(last, kNumPatterns - 1);
    EXPECT_EQ(acc.accumulator(last), 2 * max_w);
    EXPECT_FALSE(acc.highPriority(last));
    EXPECT_EQ(acc.highMask(), inputMask(kInputs) & ~(1u << last));
    // Weights outside [1, 2^M), and inputs or patterns it lacks.
    EXPECT_THROW(acc.setWeight(0, 0, 0), std::invalid_argument);
    EXPECT_THROW(acc.setWeight(0, 0, max_w + 1), std::invalid_argument);
    EXPECT_THROW(acc.setWeight(kInputs, 0, 1), std::invalid_argument);
    EXPECT_THROW(acc.setWeight(0, kNumPatterns, 1), std::invalid_argument);
}

// ---------------------------------------------------------------------
// Equality of service (Section 3.1-3.2)
// ---------------------------------------------------------------------

/**
 * Saturated-arbiter service shares: with all inputs continuously
 * requesting, grants must divide in proportion to the programmed loads.
 */
class EosSweep
    : public ::testing::TestWithParam<std::vector<double>>
{
};

TEST_P(EosSweep, ServiceProportionalToLoad)
{
    const auto loads = GetParam();
    const int k = static_cast<int>(loads.size());
    InverseWeightedArbiter arb(k);
    // Build single-pattern weights directly from the parameter loads.
    std::vector<std::vector<double>> mat(loads.size());
    for (std::size_t i = 0; i < loads.size(); ++i)
        mat[i] = { loads[i] };
    const auto w = inverseWeightsFromLoads(mat, 5);
    for (int i = 0; i < k; ++i)
        arb.accumulators().setWeight(i, 0, w[static_cast<std::size_t>(i)][0]);

    std::vector<ReqInfo> info(static_cast<std::size_t>(k));
    std::vector<int> grants(static_cast<std::size_t>(k), 0);
    const std::uint32_t all = (1u << k) - 1;
    const int rounds = 200000;
    for (int t = 0; t < rounds; ++t) {
        const int g = arb.pick(all, info.data());
        ASSERT_GE(g, 0);
        ++grants[static_cast<std::size_t>(g)];
    }

    double total_load = 0;
    for (double g : loads)
        total_load += g;
    for (int i = 0; i < k; ++i) {
        const double expected = loads[static_cast<std::size_t>(i)]
                                / total_load;
        const double measured =
            static_cast<double>(grants[static_cast<std::size_t>(i)]) / rounds;
        // Within 6% relative (the integer weights are 5-bit approximations).
        EXPECT_NEAR(measured, expected, expected * 0.06 + 0.002)
            << "input " << i;
    }
}

INSTANTIATE_TEST_SUITE_P(
    LoadShapes, EosSweep,
    ::testing::Values(std::vector<double>{ 1.0, 1.0 },
                      std::vector<double>{ 1.0, 0.5 },
                      std::vector<double>{ 1.0, 2.0, 3.0 },
                      std::vector<double>{ 0.5, 1.0, 1.5, 2.0 },
                      std::vector<double>{ 4.0, 1.0, 1.0, 1.0, 1.0 },
                      std::vector<double>{ 1.0, 1.0, 1.0, 1.0, 1.0, 6.0 }));

TEST(Eos, Figure5Example)
{
    // Figure 5: at arbiter A, input 0 carries load 1 and input 1 load 0.5,
    // so input 0 must be granted twice as often.
    InverseWeightedArbiter arb(2);
    const auto w = inverseWeightsFromLoads({ { 1.0 }, { 0.5 } }, 5);
    arb.accumulators().setWeight(0, 0, w[0][0]);
    arb.accumulators().setWeight(1, 0, w[1][0]);
    ReqInfo info[2];
    int grants[2] = { 0, 0 };
    for (int t = 0; t < 30000; ++t)
        ++grants[arb.pick(0b11, info)];
    EXPECT_NEAR(static_cast<double>(grants[0]) / grants[1], 2.0, 0.1);
}

TEST(Eos, BlendedPatternsPreserveProportionality)
{
    // Two diametrically opposed patterns: input 0 heavy in pattern 0,
    // input 1 heavy in pattern 1. Blend the offered pattern ids and check
    // service stays proportional to the blended load (Section 3.2): the
    // accumulator tracks sum s_{i,n}/gamma_{i,n} without knowing the blend.
    for (double alpha : { 0.0, 0.25, 0.5, 0.75, 1.0 }) {
        InverseWeightedArbiter arb(2);
        const std::vector<std::vector<double>> loads = { { 3.0, 1.0 },
                                                         { 1.0, 3.0 } };
        const auto w = inverseWeightsFromLoads(loads, 5);
        for (int i = 0; i < 2; ++i) {
            for (int n = 0; n < 2; ++n) {
                arb.accumulators().setWeight(
                    i, n, w[static_cast<std::size_t>(i)]
                           [static_cast<std::size_t>(n)]);
            }
        }

        // Each input's request stream carries pattern ids in proportion to
        // the pattern's contribution to that input's blended load (eq. 5).
        const double g0 = alpha * loads[0][0] + (1 - alpha) * loads[0][1];
        const double g1 = alpha * loads[1][0] + (1 - alpha) * loads[1][1];
        Rng rng(17);
        ReqInfo info[2];
        int grants[2] = { 0, 0 };
        const int rounds = 200000;
        for (int t = 0; t < rounds; ++t) {
            info[0].pattern =
                rng.chance(alpha * loads[0][0] / g0) ? 0 : 1;
            info[1].pattern =
                rng.chance(alpha * loads[1][0] / g1) ? 0 : 1;
            ++grants[arb.pick(0b11, info)];
        }
        const double expected = g0 / (g0 + g1);
        const double measured = static_cast<double>(grants[0]) / rounds;
        EXPECT_NEAR(measured, expected, 0.03) << "alpha=" << alpha;
    }
}

TEST(InverseWeights, ComputedFromLoads)
{
    const auto w = inverseWeightsFromLoads({ { 1.0 }, { 0.5 }, { 0.25 } }, 5);
    // Lightest load maps to the max weight 31; ratios preserved.
    EXPECT_EQ(w[2][0], 31u);
    EXPECT_NEAR(static_cast<double>(w[1][0]), 15.5, 1.0);
    EXPECT_NEAR(static_cast<double>(w[0][0]), 7.75, 1.0);
}

TEST(InverseWeights, ZeroLoadGetsMaxWeight)
{
    const auto w = inverseWeightsFromLoads({ { 1.0 }, { 0.0 } }, 5);
    EXPECT_EQ(w[1][0], 31u);
}

TEST(InverseWeights, AlwaysInValidRange)
{
    const auto w = inverseWeightsFromLoads(
        { { 1000.0 }, { 0.001 }, { 1.0 } }, 5);
    for (const auto &row : w) {
        EXPECT_GE(row[0], 1u);
        EXPECT_LE(row[0], 31u);
    }
}

} // namespace
} // namespace anton2
