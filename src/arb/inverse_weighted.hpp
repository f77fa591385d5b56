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

#include <cstdint>
#include <vector>

#include "arb/arbiter.hpp"
#include "arb/priority_arb.hpp"

namespace anton2 {

/** Number of traffic patterns supported by the Anton 2 implementation. */
inline constexpr int kNumPatterns = 2;

/** Default inverse-weight width M; weights are in [1, 2^M). */
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
    std::uint32_t weight(int input, int pattern) const;

    /** Priority bit per input: true = high priority (lower window half). */
    bool highPriority(int input) const;

    /** Apply the Figure 6 update after granting @p granted on @p pattern. */
    void onGrant(int granted, int pattern);

    std::uint32_t accumulator(int input) const;
    int weightBits() const { return weight_bits_; }
    int numInputs() const { return k_; }
    int numPatterns() const { return num_patterns_; }

    /** Checkpoint field list: the accumulators and programmed weights. */
    void fields(CkptArchive &ar);

  private:
    int k_;
    int weight_bits_;
    int num_patterns_;
    std::vector<std::uint32_t> accum_;   ///< (M+1)-bit values
    std::vector<std::uint32_t> weights_; ///< [input][pattern], M-bit values
};

/**
 * Full inverse-weighted arbiter: Figure 6 accumulators driving the Figure 8
 * two-priority-level arbiter with round-robin tie-breaking.
 */
class InverseWeightedArbiter : public Arbiter
{
  public:
    explicit InverseWeightedArbiter(int num_inputs,
                                    int weight_bits = kDefaultWeightBits,
                                    int num_patterns = kNumPatterns);

    int pick(std::uint32_t req_mask, const ReqInfo *info) override;

    void fields(CkptArchive &ar) override;

    InvWeightAccumulators &accumulators() { return accum_; }
    const InvWeightAccumulators &accumulators() const { return accum_; }

  private:
    InvWeightAccumulators accum_;
    GateLevelPriorityArb arb_;
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
