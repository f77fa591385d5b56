/**
 * @file
 * Checkpoint field lists of the stateful arbiters. Kept out of the
 * headers so the arbiter interfaces need only a forward declaration of
 * the archive.
 */
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
    ar.same(static_cast<std::uint32_t>(k_), "accumulator count mismatch");
    for (int i = 0; i < k_; ++i)
        ar.ioAs<std::uint32_t>(accum_[static_cast<std::size_t>(i)], 0,
                               (msb << 1) - 1,
                               "accumulator outside its window");
    ar.same(static_cast<std::uint32_t>(k_ * num_patterns_),
            "weight table size mismatch");
    for (int i = 0; i < k_; ++i) {
        for (int p = 0; p < num_patterns_; ++p)
            ar.ioAs<std::uint32_t>(weights_[static_cast<std::size_t>(i)]
                                           [static_cast<std::size_t>(p)],
                                   1, msb - 1,
                                   "inverse weight outside [1, 2^M)");
    }
    if (!ar.loading())
        return;
    high_ = 0;
    for (int i = 0; i < k_; ++i)
        high_ |= accum_[static_cast<std::size_t>(i)] < msb ? 1u << i : 0u;
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
