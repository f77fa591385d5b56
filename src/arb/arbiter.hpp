/**
 * @file
 * The network arbitration point (Section 3): one policy of a closed set,
 * chosen once at construction.
 *
 * The policies are plain value types (arb/basic_arbiters.hpp,
 * arb/inverse_weighted.hpp). A PortArbiter holds one by value, so a
 * grant is one variant dispatch to an inlined pick, and the
 * inverse-weighted state is reached with std::get_if.
 */
#pragma once

#include <cstdint>
#include <variant>

#include "arb/basic_arbiters.hpp"
#include "arb/inverse_weighted.hpp"

namespace anton2 {

/** The arbiter policies available at network arbitration points. */
enum class ArbPolicy : std::uint8_t
{
    RoundRobin,     ///< locally fair baseline [9]
    InverseWeighted,///< Section 3: per-pattern inverse weights
};

constexpr const char *
arbPolicyName(ArbPolicy p)
{
    switch (p) {
      case ArbPolicy::RoundRobin: return "round-robin";
      case ArbPolicy::InverseWeighted: return "inverse-weighted";
    }
    return "?";
}

/** One arbitration point's arbiter, of any ArbPolicy. Every router
 * output and adapter side holds one inline, so the largest policy sets
 * the size of all of them. */
using PortArbiter = std::variant<RoundRobinArbiter, InverseWeightedArbiter>;
static_assert(sizeof(PortArbiter) <= 64,
              "keep the inverse-weighted arbiter's inline state small");

/** Construct a @p num_inputs-input arbiter of @p policy. */
inline PortArbiter
makeArbiter(ArbPolicy policy, int num_inputs)
{
    if (policy == ArbPolicy::InverseWeighted)
        return InverseWeightedArbiter(num_inputs);
    return RoundRobinArbiter(num_inputs);
}

/**
 * Grant one input of @p req_mask (bit i: input i requests) and update
 * @p arb's fairness state; -1 if the mask is empty. @p info is indexed
 * by input and read for requesting inputs only; it may be null when the
 * policy needs no metadata.
 */
inline int
arbiterPick(PortArbiter &arb, std::uint32_t req_mask, const ReqInfo *info)
{
    return std::visit([&](auto &a) { return a.pick(req_mask, info); }, arb);
}

/** Checkpoint field list of the policy @p arb holds, so fairness state
 * survives a save/restore exactly. */
inline void
arbiterFields(PortArbiter &arb, CkptArchive &ar)
{
    std::visit([&](auto &a) { a.fields(ar); }, arb);
}

} // namespace anton2
