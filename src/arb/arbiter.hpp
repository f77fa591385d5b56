/**
 * @file
 * Common interface for the network arbiters (Section 3).
 *
 * An arbiter owns one arbitration point (e.g. a router output port). Each
 * cycle it is offered a request mask plus per-input metadata and grants at
 * most one input, updating its internal fairness state.
 */
#pragma once

#include <cstdint>
#include <memory>
#include <string>

namespace anton2 {

class CkptArchive;

/** Per-input request metadata consumed by some arbiter policies. */
struct ReqInfo
{
    std::uint8_t pattern = 0; ///< traffic-pattern id (inverse-weighted)
    std::uint64_t age = 0;    ///< packet injection time (age-based)
};

/** Upper bound on one arbitration point's inputs (request masks are
 * 32-bit words). */
inline constexpr int kMaxArbInputs = 32;

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

/** Abstract K-input, single-grant arbiter. */
class Arbiter
{
  public:
    explicit Arbiter(int num_inputs) : num_inputs_(num_inputs) {}
    virtual ~Arbiter() = default;

    Arbiter(const Arbiter &) = delete;
    Arbiter &operator=(const Arbiter &) = delete;

    /**
     * Grant one requesting input.
     *
     * @param req_mask Bit i set iff input i requests this cycle.
     * @param info Per-input metadata, indexed by input; entries for
     *        non-requesting inputs are ignored. May be null if no
     *        requesting input's metadata is needed by the policy.
     * @return The granted input, or -1 if req_mask is empty.
     */
    virtual int pick(std::uint32_t req_mask, const ReqInfo *info) = 0;

    /**
     * Checkpoint field list. Stateless policies keep the empty default;
     * stateful ones (round-robin pointer, inverse-weighted accumulators)
     * override it so fairness state survives a save/restore exactly.
     */
    virtual void fields(CkptArchive &) {}

    int numInputs() const { return num_inputs_; }

  private:
    int num_inputs_;
};

/** The arbiter policies available at network arbitration points. */
enum class ArbPolicy : std::uint8_t
{
    RoundRobin,     ///< locally fair baseline [9]
    InverseWeighted,///< Section 3: per-pattern inverse weights
    AgeBased,       ///< oldest-first baseline [1]
};

constexpr const char *
arbPolicyName(ArbPolicy p)
{
    switch (p) {
      case ArbPolicy::RoundRobin: return "round-robin";
      case ArbPolicy::InverseWeighted: return "inverse-weighted";
      case ArbPolicy::AgeBased: return "age-based";
    }
    return "?";
}

} // namespace anton2
