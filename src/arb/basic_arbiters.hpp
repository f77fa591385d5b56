/**
 * @file
 * Simple baseline arbiters: fixed-priority, round-robin, and age-based.
 */
#pragma once

#include <bit>
#include <cassert>

#include "arb/arbiter.hpp"

namespace anton2 {

/** Grants the lowest-indexed requesting input. Stateless. */
class FixedPriorityArbiter : public Arbiter
{
  public:
    using Arbiter::Arbiter;

    int
    pick(std::uint32_t req_mask, const ReqInfo *) override
    {
        if (req_mask == 0)
            return -1;
        return std::countr_zero(req_mask);
    }
};

/**
 * Classic round-robin arbiter: grants the first requesting input at or
 * after the rotating pointer, then advances the pointer past the grant.
 * This is the "simple, locally fair" arbiter of [9] whose accumulated
 * unfairness across a unified network Section 3 sets out to fix.
 *
 * The pick is two bit scans: the requests at or after the pointer, and
 * failing those, the lowest request (the wrap-around).
 */
class RoundRobinArbiter : public Arbiter
{
  public:
    explicit RoundRobinArbiter(int num_inputs)
        : Arbiter(num_inputs),
          valid_(num_inputs >= 32 ? ~0u : (1u << num_inputs) - 1)
    {
    }

    int
    pick(std::uint32_t req_mask, const ReqInfo *) override
    {
        req_mask &= valid_;
        if (req_mask == 0)
            return -1;
        const std::uint32_t ahead = req_mask & (~0u << ptr_);
        const int i = std::countr_zero(ahead != 0 ? ahead : req_mask);
        ptr_ = i + 1 == numInputs() ? 0 : i + 1;
        return i;
    }

    /** The input the next pick favors first. */
    int pointer() const { return ptr_; }

    void fields(CkptArchive &ar) override;

  private:
    std::uint32_t valid_; ///< bit i set iff input i exists
    int ptr_ = 0;
};

/**
 * Age-based arbitration [Abts & Weisser]: grants the input whose packet is
 * oldest (smallest injection timestamp). Provides strong global fairness
 * but is the heavy-weight scheme the inverse-weighted arbiter avoids
 * (per-packet age fields and wide comparators at every arbiter).
 */
class AgeBasedArbiter : public Arbiter
{
  public:
    using Arbiter::Arbiter;

    int
    pick(std::uint32_t req_mask, const ReqInfo *info) override
    {
        if (req_mask == 0)
            return -1;
        assert(info != nullptr);
        if (numInputs() < 32)
            req_mask &= (1u << numInputs()) - 1;
        int best = -1;
        for (; req_mask != 0; req_mask &= req_mask - 1) {
            const int i = std::countr_zero(req_mask);
            if (best < 0 || info[i].age < info[best].age)
                best = i;
        }
        return best;
    }
};

} // namespace anton2
