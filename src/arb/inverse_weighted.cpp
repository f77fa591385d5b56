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
      high_(inputMask(k)),
      state_(static_cast<std::size_t>(k * (1 + num_patterns)), 1)
{
    assert(k >= 1 && weight_bits >= 1 && num_patterns >= 1);
    std::fill_n(state_.begin(), k, 0u);
}

void
InvWeightAccumulators::setWeight(int input, int pattern, std::uint32_t weight)
{
    assert(weight >= 1 && weight < (1u << weight_bits_));
    state_[static_cast<std::size_t>(k_ + input * num_patterns_ + pattern)] =
        weight;
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
