#include "arb/inverse_weighted.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace anton2 {

InvWeightAccumulators::InvWeightAccumulators(int k, int weight_bits,
                                             int num_patterns)
{
    if (k < 1 || k > kMaxInputs || weight_bits < 1
        || weight_bits > kMaxWeightBits || num_patterns < 1
        || num_patterns > kNumPatterns)
        throw std::invalid_argument("inverse-weighted arbiter holds 1-16 "
                                    "inputs, 1-7 weight bits and 1-2 "
                                    "patterns");
    high_ = inputMask(k);
    k_ = static_cast<std::uint8_t>(k);
    weight_bits_ = static_cast<std::uint8_t>(weight_bits);
    num_patterns_ = static_cast<std::uint8_t>(num_patterns);
    for (auto &row : weights_)
        row.fill(1);
}

void
InvWeightAccumulators::setWeight(int input, int pattern, std::uint32_t weight)
{
    if (input < 0 || input >= k_ || pattern < 0 || pattern >= num_patterns_
        || weight < 1 || weight >= (1u << weight_bits_))
        throw std::invalid_argument("inverse weight outside [1, 2^M) or "
                                    "for an input or pattern the arbiter "
                                    "does not have");
    weights_[static_cast<std::size_t>(input)]
            [static_cast<std::size_t>(pattern)] =
        static_cast<std::uint8_t>(weight);
}

std::vector<std::vector<std::uint32_t>>
inverseWeightsFromLoads(const std::vector<std::vector<double>> &loads,
                        int weight_bits)
{
    // The largest weight belongs to the lightest load, so beta maps the
    // lightest positive load to max_w (see inverseWeight).
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
