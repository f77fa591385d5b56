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
 */
class InvWeightAccumulators
{
  public:
    InvWeightAccumulators(int k, int weight_bits = kDefaultWeightBits,
                          int num_patterns = kNumPatterns);

    /** Program the inverse weight for (input, pattern); in [1, 2^M). */
    void setWeight(int input, int pattern, std::uint32_t weight);

    std::uint32_t
    weight(int input, int pattern) const
    {
        return state_[static_cast<std::size_t>(k_ + input * num_patterns_
                                               + pattern)];
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
                std::uint32_t &acc = state_[static_cast<std::size_t>(i)];
                acc = ((high_ >> i) & 1u) != 0 ? 0 : acc & low_half;
            }
            high_ = inputMask(k_);
        }
        // Granted input: shift out of the window (clear MSB) and add the
        // inverse weight; always < 2^(M+1).
        std::uint32_t &acc = state_[static_cast<std::size_t>(granted)];
        acc = (acc & low_half) + weight(granted, pattern);
        assert(acc <= 2 * low_half + 1);
        if (acc > low_half)
            high_ &= ~bit;
    }

    std::uint32_t
    accumulator(int input) const
    {
        return state_[static_cast<std::size_t>(input)];
    }

    int weightBits() const { return weight_bits_; }
    int numInputs() const { return k_; }
    int numPatterns() const { return num_patterns_; }

    /** Checkpoint field list: the accumulators and programmed weights
     * (restore rebuilds the priority mask from the accumulators). */
    void fields(CkptArchive &ar);

  private:
    int k_;
    int weight_bits_;
    int num_patterns_;
    std::uint32_t high_; ///< see highMask()
    /** The k (M+1)-bit accumulators, then the M-bit weights by
     * [input][pattern]: one allocation keeps the arbiter small. */
    std::vector<std::uint32_t> state_;
};

/**
 * Full inverse-weighted arbiter: Figure 6 accumulators driving the
 * two-priority-level arbiter of Figures 7 and 8 with round-robin
 * tie-breaking, evaluated as maskPriorityGrant() (GateLevelPriorityArb
 * is its oracle).
 */
class InverseWeightedArbiter
{
  public:
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
