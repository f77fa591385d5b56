#include "arb/inverse_weighted.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace anton2 {

InvWeightAccumulators::InvWeightAccumulators(int k, int weight_bits,
                                             int num_patterns)
    : k_(k),
      weight_bits_(weight_bits),
      num_patterns_(num_patterns),
      accum_(static_cast<std::size_t>(k), 0),
      weights_(static_cast<std::size_t>(k * num_patterns), 1)
{
    assert(k >= 1 && weight_bits >= 1 && num_patterns >= 1);
}

void
InvWeightAccumulators::setWeight(int input, int pattern, std::uint32_t weight)
{
    assert(weight >= 1 && weight < (1u << weight_bits_));
    weights_[static_cast<std::size_t>(input * num_patterns_ + pattern)] =
        weight;
}

std::uint32_t
InvWeightAccumulators::weight(int input, int pattern) const
{
    return weights_[static_cast<std::size_t>(input * num_patterns_
                                             + pattern)];
}

bool
InvWeightAccumulators::highPriority(int input) const
{
    const std::uint32_t msb = 1u << weight_bits_;
    return (accum_[static_cast<std::size_t>(input)] & msb) == 0;
}

void
InvWeightAccumulators::onGrant(int granted, int pattern)
{
    const std::uint32_t msb = 1u << weight_bits_;
    const bool low_grant = !highPriority(granted);

    for (int i = 0; i < k_; ++i) {
        auto &acc = accum_[static_cast<std::size_t>(i)];
        const std::uint32_t acc_msb0 = acc & (msb - 1);
        if (i == granted) {
            // Granted input: shift out of the window (clear MSB) and add
            // the inverse weight; always < 2^(M+1).
            acc = acc_msb0 + weight(i, pattern);
        } else if (low_grant) {
            // Window shift: subtract 2^M, clamping high-priority
            // (already-below-2^M) accumulators to zero (underflow case).
            acc = highPriority(i) ? 0 : acc_msb0;
        }
        assert(acc < (msb << 1));
    }
}

std::uint32_t
InvWeightAccumulators::accumulator(int input) const
{
    return accum_[static_cast<std::size_t>(input)];
}

InverseWeightedArbiter::InverseWeightedArbiter(int num_inputs,
                                               int weight_bits,
                                               int num_patterns)
    : Arbiter(num_inputs),
      accum_(num_inputs, weight_bits, num_patterns),
      arb_(num_inputs, /*num_pri=*/2)
{
}

int
InverseWeightedArbiter::pick(std::uint32_t req_mask, const ReqInfo *info)
{
    if (req_mask == 0)
        return -1;

    std::uint8_t pri[32];
    for (int i = 0; i < numInputs(); ++i)
        pri[i] = accum_.highPriority(i) ? 1 : 0;

    const std::uint32_t grant = arb_.grant(req_mask, pri, rr_therm_);
    assert(grant != 0 && (grant & (grant - 1)) == 0);
    int g = 0;
    while (!(grant & (1u << g)))
        ++g;

    const int pattern = info != nullptr ? info[g].pattern : 0;
    accum_.onGrant(g, pattern);
    rr_therm_ = rrThermAfterGrant(numInputs(), g);
    return g;
}

std::vector<std::vector<std::uint32_t>>
inverseWeightsFromLoads(const std::vector<std::vector<double>> &loads,
                        int weight_bits)
{
    // beta scales the smallest inverse weight to 1 while keeping the
    // largest representable: beta = max_w * min(positive load) keeps
    // m = beta/gamma <= max_w for the heaviest-loaded... note the LARGEST
    // weight belongs to the LIGHTEST load, so choose beta so that the
    // lightest positive load maps to max_w.
    double min_load = 0.0;
    for (const auto &row : loads) {
        for (double g : row) {
            if (g > 0.0 && (min_load == 0.0 || g < min_load))
                min_load = g;
        }
    }

    std::vector<std::vector<std::uint32_t>> out(loads.size());
    for (std::size_t i = 0; i < loads.size(); ++i) {
        out[i].resize(loads[i].size());
        for (std::size_t n = 0; n < loads[i].size(); ++n)
            out[i][n] = inverseWeight(loads[i][n], min_load, weight_bits);
    }
    return out;
}

std::uint32_t
inverseWeight(double load, double min_load, int weight_bits)
{
    const std::uint32_t max_w = (1u << weight_bits) - 1;
    if (!(load > 0.0))
        return max_w;
    const double beta = max_w * min_load;
    const auto m = static_cast<std::uint32_t>(std::lround(beta / load));
    return std::clamp(m, 1u, max_w);
}

} // namespace anton2
