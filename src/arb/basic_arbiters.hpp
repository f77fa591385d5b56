/**
 * @file
 * Request metadata and the simple baseline arbiters: fixed-priority and
 * round-robin.
 *
 * Each policy is a plain value type owning one arbitration point (e.g. a
 * router output port). Each cycle it is offered a request mask plus
 * per-input metadata and grants at most one input, updating its fairness
 * state. arb/arbiter.hpp closes the set a network arbitration point
 * chooses from.
 */
#pragma once

#include <bit>
#include <cstdint>

namespace anton2 {

class CkptArchive;

/** Per-input request metadata consumed by the inverse-weighted policy. */
struct ReqInfo
{
    std::uint8_t pattern = 0; ///< traffic-pattern id
};

/** Upper bound on one arbitration point's inputs (request masks are
 * 32-bit words). */
inline constexpr int kMaxArbInputs = 32;

/** Bit i set for each input i of a @p k-input arbiter. */
constexpr std::uint32_t
inputMask(int k)
{
    return k >= kMaxArbInputs ? ~0u : (1u << k) - 1;
}

/**
 * This thread's request-metadata scratch, kMaxArbInputs entries. Callers
 * fill only the entries of requesting inputs and arbiters read only
 * those, so it is never cleared. The engine ticks one component at a
 * time on each thread, so one array per thread serves every arbitration
 * point and no component carries its own.
 */
inline ReqInfo *
reqInfoScratch()
{
    thread_local ReqInfo scratch[kMaxArbInputs];
    return scratch;
}

/**
 * Classic round-robin arbiter: grants the first requesting input at or
 * after the rotating pointer, then advances the pointer past the grant.
 * This is the "simple, locally fair" arbiter of [9] whose accumulated
 * unfairness across a unified network Section 3 sets out to fix.
 *
 * The pick is two bit scans: the requests at or after the pointer, and
 * failing those, the lowest request (the wrap-around).
 */
class RoundRobinArbiter
{
  public:
    /** A one-input arbiter: the placeholder a fixed array of arbiters
     * holds until its slots are assigned. */
    RoundRobinArbiter() = default;

    explicit RoundRobinArbiter(int num_inputs)
        : num_inputs_(num_inputs), valid_(inputMask(num_inputs))
    {
    }

    int
    pick(std::uint32_t req_mask, const ReqInfo *)
    {
        req_mask &= valid_;
        if (req_mask == 0)
            return -1;
        const std::uint32_t ahead = req_mask & (~0u << ptr_);
        const int i = std::countr_zero(ahead != 0 ? ahead : req_mask);
        ptr_ = i + 1 == num_inputs_ ? 0 : i + 1;
        return i;
    }

    /** The input the next pick favors first. */
    int pointer() const { return ptr_; }

    /** Checkpoint field list: the pointer. */
    void fields(CkptArchive &ar);

  private:
    int num_inputs_ = 1;
    std::uint32_t valid_ = 1; ///< bit i set iff input i exists
    int ptr_ = 0;
};

} // namespace anton2
