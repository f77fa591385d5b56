/**
 * @file
 * Checkpoint field lists of the stateful arbiters. Kept out of the
 * headers so the arbiter interfaces need only a forward declaration of
 * the archive.
 */
#include <span>

#include "arb/basic_arbiters.hpp"
#include "arb/inverse_weighted.hpp"
#include "debug/checkpoint.hpp"

namespace anton2 {

void
RoundRobinArbiter::fields(CkptArchive &ar)
{
    ar.marker("arb.rr");
    ar.io(ptr_, 0, num_inputs_ - 1, "round-robin pointer out of range");
}

void
InvWeightAccumulators::fields(CkptArchive &ar)
{
    ar.marker("arb.iw.accum");
    const std::uint32_t msb = 1u << weight_bits_;
    const std::span<std::uint32_t> accum =
        std::span(state_).first(static_cast<std::size_t>(k_));
    const std::span<std::uint32_t> weights =
        std::span(state_).subspan(static_cast<std::size_t>(k_));
    ar.same(static_cast<std::uint32_t>(accum.size()),
            "accumulator count mismatch");
    for (std::uint32_t &a : accum)
        ar.io(a, 0, (msb << 1) - 1, "accumulator outside its window");
    ar.same(static_cast<std::uint32_t>(weights.size()),
            "weight table size mismatch");
    for (std::uint32_t &w : weights)
        ar.io(w, 1, msb - 1, "inverse weight outside [1, 2^M)");
    if (!ar.loading())
        return;
    high_ = 0;
    for (int i = 0; i < k_; ++i)
        high_ |= accum[static_cast<std::size_t>(i)] < msb ? 1u << i : 0u;
}

void
InverseWeightedArbiter::fields(CkptArchive &ar)
{
    ar.marker("arb.iw");
    accum_.fields(ar);
    ar.io(rr_therm_);
    // rrThermAfterGrant: the inputs below the last grant, a thermometer.
    ar.check((rr_therm_ & (rr_therm_ + 1)) == 0
                 && rr_therm_ < (1u << (numInputs() - 1)),
             "round-robin thermometer malformed");
}

} // namespace anton2
