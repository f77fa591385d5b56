/**
 * @file
 * Traffic drivers reproducing the paper's measurement methodology
 * (Section 4.1): every participating core sends a fixed batch of packets
 * as fast as the network accepts them; throughput is the batch size
 * divided by the time at which the last packet is received.
 */
#pragma once

#include <functional>
#include <vector>

#include "core/machine.hpp"
#include "sim/component.hpp"
#include "traffic/patterns.hpp"

namespace anton2 {

/**
 * Closed-batch driver. One logical "core" per (node, endpoint) pair; all
 * cores source packets from a single TrafficPattern, or from a blend of
 * two patterns (Figure 10) selected per packet by blend_fraction. A core
 * sends while its injection queue holds fewer than 2 packets.
 */
class BatchDriver : public Component
{
  public:
    struct Config
    {
        std::vector<EndpointId> cores; ///< participating endpoints per node
        std::uint64_t batch_size = 256;
        int size_flits = 1;

        /** Primary pattern and its arbiter-pattern label. */
        const TrafficPattern *pattern = nullptr;
        std::uint8_t pattern_id = 0;

        /** Optional second pattern for blending experiments. */
        const TrafficPattern *pattern2 = nullptr;
        std::uint8_t pattern2_id = 1;
        double blend_fraction2 = 0.0; ///< probability a packet uses pattern2
    };

    /** Registers the driver's progress state as a machine checkpoint
     * client, so a warm-start image carries the batch mid-flight. */
    BatchDriver(Machine &machine, Config cfg);
    ~BatchDriver() override;

    void tick(Cycle now) override;
    bool busy() const override { return sent_total_ < expected_; }

    /** Total packets the batch will send across all cores. */
    std::uint64_t expected() const { return expected_; }
    std::uint64_t sentTotal() const { return sent_total_; }

    /** Machine-wide delivered() count that completes the batch: run
     * the machine with RunSpec::untilDelivered(deliveredTarget(), ...)
     * after adding the driver to the engine. */
    std::uint64_t deliveredTarget() const { return delivered_target_; }

    /** True once every batch packet has been delivered. */
    bool
    done(const Machine &m) const
    {
        return m.totalDelivered() >= delivered_target_;
    }

    /**
     * Measured per-core throughput in packets/cycle: batch size divided by
     * the completion time, as in Section 4.1.
     */
    double throughputPerCore() const;

    Cycle completionTime() const;

  private:
    Machine &machine_;
    Config cfg_;
    std::vector<EndpointAddr> core_addrs_;
    std::vector<EndpointAdapter *> core_eps_; ///< per core, resolved once
    std::vector<std::uint64_t> sent_; ///< per core
    std::uint64_t sent_total_ = 0;
    std::uint64_t expected_ = 0;
    std::uint64_t delivered_target_ = 0;
    std::uint64_t base_delivered_ = 0;
    Cycle start_ = 0;
    bool started_ = false;
};

/**
 * Open-loop Bernoulli injector: each core offers a packet with probability
 * @p rate per cycle into its injection queue, and drops the offer while
 * the queue holds 16 packets. Used for latency-vs-load studies and the
 * energy experiment's controlled rates.
 */
class OpenLoopDriver : public Component
{
  public:
    struct Config
    {
        std::vector<EndpointId> cores;
        double rate = 0.01; ///< packets per core per cycle
        int size_flits = 1;
        const TrafficPattern *pattern = nullptr;
        std::uint8_t pattern_id = 0;
    };

    OpenLoopDriver(Machine &machine, Config cfg);

    void tick(Cycle now) override;
    bool busy() const override { return false; }

    void setEnabled(bool on) { enabled_ = on; }
    std::uint64_t offered() const { return offered_; }

  private:
    Machine &machine_;
    Config cfg_;
    std::vector<EndpointAddr> core_addrs_;
    std::vector<EndpointAdapter *> core_eps_; ///< per core, resolved once
    bool enabled_ = true;
    std::uint64_t offered_ = 0;
};

/** All (node, endpoint) core addresses for a participating-endpoint list. */
std::vector<EndpointAddr> makeCoreList(const Machine &m,
                                       const std::vector<EndpointId> &eps);

/** The first @p n endpoint ids, a convenient default core set.
 * @throws std::invalid_argument for n < 0. */
std::vector<EndpointId> firstEndpoints(int n);

} // namespace anton2
