/**
 * @file
 * Checkpoint state for the stateful arbiters. Kept out of the headers so
 * the arbiter interfaces need only a forward declaration of the codec.
 */
#include "arb/basic_arbiters.hpp"
#include "arb/inverse_weighted.hpp"
#include "debug/checkpoint.hpp"

namespace anton2 {

void
RoundRobinArbiter::saveState(CkptWriter &w) const
{
    w.tag("arb.rr");
    w.i32(ptr_);
}

void
RoundRobinArbiter::loadState(CkptReader &r)
{
    r.expect("arb.rr");
    const std::int32_t ptr = r.i32();
    if (ptr < 0 || ptr >= numInputs())
        throw CheckpointError("checkpoint: round-robin pointer out of "
                              "range");
    ptr_ = ptr;
}

void
InvWeightAccumulators::saveState(CkptWriter &w) const
{
    w.tag("arb.iw.accum");
    w.u32(static_cast<std::uint32_t>(accum_.size()));
    for (std::uint32_t a : accum_)
        w.u32(a);
    w.u32(static_cast<std::uint32_t>(weights_.size()));
    for (std::uint32_t wt : weights_)
        w.u32(wt);
}

void
InvWeightAccumulators::loadState(CkptReader &r)
{
    r.expect("arb.iw.accum");
    const std::uint32_t na = r.u32();
    if (na != accum_.size())
        throw CheckpointError("checkpoint: accumulator count mismatch");
    for (std::uint32_t &a : accum_)
        a = r.u32();
    const std::uint32_t nw = r.u32();
    if (nw != weights_.size())
        throw CheckpointError("checkpoint: weight table size mismatch");
    for (std::uint32_t &wt : weights_)
        wt = r.u32();
}

void
InverseWeightedArbiter::saveState(CkptWriter &w) const
{
    w.tag("arb.iw");
    accum_.saveState(w);
    w.u32(rr_therm_);
}

void
InverseWeightedArbiter::loadState(CkptReader &r)
{
    r.expect("arb.iw");
    accum_.loadState(r);
    rr_therm_ = r.u32();
}

} // namespace anton2
