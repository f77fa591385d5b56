/**
 * @file
 * The inverse-weighted arbiter (Sections 3.2-3.4, Figures 6 and 8).
 *
 * Equality of service requires granting each arbiter input in proportion to
 * its contribution to the load. An accumulator per input tracks service
 * history scaled by the inverse of the input's pre-computed load; the input
 * with the smallest accumulator has the highest priority. The hardware
 * approximation stores accumulators relative to a sliding window of 2^(M+1)
 * values: the accumulator's MSB is the (inverted) priority bit fed to the
 * two-level prioritized arbiter, and the window shifts by 2^M whenever a
 * low-priority input is granted.
 *
 * Multiple traffic patterns are supported by storing one inverse weight per
 * (input, pattern) and marking each packet with its pattern id; any blend
 * of the programmed patterns then receives equality of service without
 * knowledge of the mixing coefficients (Section 3.2).
 */
#pragma once

#include <array>
#include <cassert>
#include <cstdint>
#include <vector>

#include "arb/basic_arbiters.hpp"
#include "arb/priority_arb.hpp"

namespace anton2 {

/** Number of traffic patterns supported by the Anton 2 implementation. */
inline constexpr int kNumPatterns = 2;

/** Inverse-weight width M of Anton 2's arbiters (Section 3.3); weights
 * are in [1, 2^M). Every machine arbiter has it; unit tests of the
 * accumulators also run narrower ones. */
inline constexpr int kDefaultWeightBits = 5;

/**
 * The accumulator-update logic of Figure 6, bit-accurate.
 *
 * Accumulators are (M+1)-bit values. pri[i] = !accum[i][M]. On a grant of
 * input g: accum[g] = (accum[g] with MSB cleared) + inv_weight[g][pattern].
 * If the granted input had low priority the window shifts: every other
 * input's accumulator has 2^M subtracted (by clearing the MSB), clamping to
 * zero on underflow.
 *
 * The state is held inline as bytes, sized for the widest arbiter a
 * machine builds (an adapter side's 12 Baseline2n VCs), so an arbiter
 * owns no heap block.
 */
class InvWeightAccumulators
{
  public:
    /** Most inputs: a router output's ports or an adapter side's VCs
     * (at most CreditCounter::kMaxVcs). */
    static constexpr int kMaxInputs = 16;
    /** Widest inverse weight M: an (M+1)-bit accumulator fits a byte. */
    static constexpr int kMaxWeightBits = 7;

    /** @throws std::invalid_argument for @p k outside [1, kMaxInputs],
     * @p weight_bits outside [1, kMaxWeightBits] or @p num_patterns
     * outside [1, kNumPatterns]. */
    InvWeightAccumulators(int k, int weight_bits = kDefaultWeightBits,
                          int num_patterns = kNumPatterns);

    /** Program the inverse weight for (input, pattern).
     * @throws std::invalid_argument for an input or pattern the
     * arbiter does not have, or a weight outside [1, 2^M). */
    void setWeight(int input, int pattern, std::uint32_t weight);

    std::uint32_t
    weight(int input, int pattern) const
    {
        return weights_[static_cast<std::size_t>(input)]
                       [static_cast<std::size_t>(pattern)];
    }

    /** Priority bit per input: true = high priority (lower window half). */
    bool highPriority(int input) const { return (high_ >> input) & 1u; }

    /** Every input's priority bit: bit i set iff accumulator i's MSB is
     * clear. onGrant keeps it current. */
    std::uint32_t highMask() const { return high_; }

    /** Apply the Figure 6 update after granting @p granted on @p pattern. */
    void
    onGrant(int granted, int pattern)
    {
        const std::uint32_t low_half = (1u << weight_bits_) - 1;
        const std::uint32_t bit = 1u << granted;
        if ((high_ & bit) == 0) {
            // Low-priority grant, so the window shifts: subtract 2^M from
            // every accumulator, clamping the high-priority ones (already
            // below 2^M) to zero. All of them end below 2^M.
            for (int i = 0; i < k_; ++i) {
                std::uint8_t &acc = accum_[static_cast<std::size_t>(i)];
                acc = ((high_ >> i) & 1u) != 0
                          ? 0
                          : static_cast<std::uint8_t>(acc & low_half);
            }
            high_ = inputMask(k_);
        }
        // Granted input: shift out of the window (clear MSB) and add the
        // inverse weight; always < 2^(M+1).
        std::uint8_t &acc = accum_[static_cast<std::size_t>(granted)];
        const std::uint32_t next = (acc & low_half) + weight(granted, pattern);
        assert(next <= 2 * low_half + 1);
        acc = static_cast<std::uint8_t>(next);
        if (next > low_half)
            high_ &= ~bit;
    }

    std::uint32_t
    accumulator(int input) const
    {
        return accum_[static_cast<std::size_t>(input)];
    }

    int weightBits() const { return weight_bits_; }
    int numInputs() const { return k_; }
    int numPatterns() const { return num_patterns_; }

    /** Checkpoint field list: the accumulators and programmed weights,
     * each as a range-checked 32-bit value (restore rebuilds the
     * priority mask from the accumulators). */
    void fields(CkptArchive &ar);

  private:
    std::array<std::uint8_t, kMaxInputs> accum_{}; ///< (M+1)-bit values
    /** The M-bit weights by [input][pattern]; unprogrammed ones are 1. */
    std::array<std::array<std::uint8_t, kNumPatterns>, kMaxInputs> weights_{};
    std::uint32_t high_ = 0; ///< see highMask()
    std::uint8_t k_ = 0;
    std::uint8_t weight_bits_ = 0;
    std::uint8_t num_patterns_ = 0;
};

static_assert(sizeof(InvWeightAccumulators) <= 56);

/**
 * Full inverse-weighted arbiter: Figure 6 accumulators driving the
 * two-priority-level arbiter of Figures 7 and 8 with round-robin
 * tie-breaking, evaluated as maskPriorityGrant() (GateLevelPriorityArb
 * is its oracle).
 */
class InverseWeightedArbiter
{
  public:
    /** @throws std::invalid_argument for a shape the accumulators cannot
     * hold (see InvWeightAccumulators). */
    explicit InverseWeightedArbiter(int num_inputs,
                                    int weight_bits = kDefaultWeightBits,
                                    int num_patterns = kNumPatterns)
        : accum_(num_inputs, weight_bits, num_patterns)
    {
    }

    /** Grant a requesting input (-1 if none) and update the fairness
     * state; the granted input's ReqInfo pattern picks its weight. */
    int
    pick(std::uint32_t req_mask, const ReqInfo *info)
    {
        req_mask &= inputMask(numInputs());
        if (req_mask == 0)
            return -1;
        const int g =
            maskPriorityGrant(req_mask, accum_.highMask(), rr_therm_);
        accum_.onGrant(g, info != nullptr ? info[g].pattern : 0);
        rr_therm_ = rrThermAfterGrant(numInputs(), g);
        return g;
    }

    /** Checkpoint field list: accumulators, weights and thermometer. */
    void fields(CkptArchive &ar);

    int numInputs() const { return accum_.numInputs(); }
    InvWeightAccumulators &accumulators() { return accum_; }
    const InvWeightAccumulators &accumulators() const { return accum_; }

  private:
    InvWeightAccumulators accum_;
    std::uint32_t rr_therm_ = 0;
};

/**
 * Convert a per-(input, pattern) load matrix into integer inverse weights
 * m = nint(beta / gamma), clipped to [1, 2^M - 1] (Section 3.3). beta is
 * chosen as large as possible such that every weight fits in M bits, i.e.
 * beta = (2^M - 1) * min(positive gamma). Inputs with zero load receive the
 * maximum weight.
 *
 * @param loads loads[input][pattern], arbitrary positive scale
 */
std::vector<std::vector<std::uint32_t>>
inverseWeightsFromLoads(const std::vector<std::vector<double>> &loads,
                        int weight_bits = kDefaultWeightBits);

/**
 * One entry of inverseWeightsFromLoads(): the inverse weight of @p load
 * in a matrix whose smallest positive load is @p min_load (0 if none).
 */
std::uint32_t inverseWeight(double load, double min_load,
                            int weight_bits = kDefaultWeightBits);

} // namespace anton2
