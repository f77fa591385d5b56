/**
 * @file
 * The optimized prioritized arbiter of Section 3.4 (Figures 7 and 8).
 *
 * A k-input arbiter with P priority levels and round-robin tie-breaking.
 * The key optimization: after the round-robin pointer splits each priority
 * level's request vector into boosted (at-or-below-pointer) and unboosted
 * halves, the adjacent halves of neighboring levels are mutually exclusive
 * and can share one fixed-priority arbiter, reducing the count from 2P to
 * P+1 fixed-priority arbiters.
 *
 * Three implementations are provided:
 *  - priorityArbReference(): straightforward behavioral model.
 *  - GateLevelPriorityArb: a bit-accurate C++ mirror of the SystemVerilog
 *    in Figure 8 (thermometer-encoded round-robin state, thermometer-
 *    encoded unrolled requests, depth-limited Kogge-Stone parallel-prefix
 *    grant generation).
 *  - maskPriorityGrant(): the two-level grant as three request masks and
 *    one bit scan, the kernel the simulator's arbiters run.
 * Tests check all three agree exhaustively; the first two are the
 * oracles of the third.
 */
#pragma once

#include <bit>
#include <cstdint>

namespace anton2 {

/**
 * Reference behavioral model: input i's band counts the thresholds
 * 2p-1 (p = 1..P) that 2*pri[i] + rr_therm[i] meets, as in Figure 8; the
 * highest occupied band wins, and within it the highest index.
 *
 * @param k          number of inputs
 * @param num_pri    P, number of priority levels (pri values in [0, P))
 * @param req        request bit-mask
 * @param pri        per-input priority level
 * @param rr_therm   thermometer round-robin state: bit i set iff input i is
 *                   "boosted"; must satisfy bit i set => bit i-1 set
 * @return granted input, or -1 when req == 0
 */
int priorityArbReference(int k, int num_pri, std::uint32_t req,
                         const std::uint8_t *pri, std::uint32_t rr_therm);

/**
 * The two-level (P = 2) grant as Figure 7's P+1 = 3 fixed-priority
 * arbiters, one request mask each: boosted high-priority inputs, then
 * also unboosted high and boosted low ones, then every request. The
 * highest index of the first non-empty mask wins: priorityArbReference()
 * with num_pri = 2 and pri[i] = bit i of @p high.
 *
 * @return granted input, or -1 when req == 0
 */
inline int
maskPriorityGrant(std::uint32_t req, std::uint32_t high,
                  std::uint32_t rr_therm)
{
    std::uint32_t band = req & high & rr_therm;
    if (band == 0)
        band = req & (high | rr_therm);
    if (band == 0)
        band = req;
    return static_cast<int>(std::bit_width(band)) - 1;
}

/** Bit-accurate mirror of the Figure 8 SystemVerilog module. */
class GateLevelPriorityArb
{
  public:
    /**
     * @param k Number of inputs; (P+1)*k must fit in 64 bits.
     * @param num_pri Number of priority levels P (>= 1).
     */
    GateLevelPriorityArb(int k, int num_pri);

    /**
     * Combinational grant function, exactly as in Figure 8.
     * @return one-hot grant vector (k bits); 0 when req == 0.
     */
    std::uint32_t grant(std::uint32_t req, const std::uint8_t *pri,
                        std::uint32_t rr_therm) const;

    int k() const { return k_; }
    int numPri() const { return num_pri_; }

  private:
    int k_;
    int num_pri_;
};

/** rr_therm value encoding "inputs strictly below @p last_grant are boosted". */
inline std::uint32_t
rrThermAfterGrant(int k, int last_grant)
{
    (void)k;
    return (1u << last_grant) - 1u;
}

} // namespace anton2
