#include "traffic/driver.hpp"

#include <cassert>
#include <numeric>
#include <stdexcept>
#include <string>

#include "debug/checkpoint.hpp"

namespace anton2 {

std::vector<EndpointAddr>
makeCoreList(const Machine &m, const std::vector<EndpointId> &eps)
{
    std::vector<EndpointAddr> cores;
    for (NodeId n = 0; n < m.geom().numNodes(); ++n) {
        for (EndpointId e : eps)
            cores.push_back({ n, e });
    }
    return cores;
}

namespace {

/** A batch core sends only while its request injection queue holds
 * fewer packets than this (self-throttling). */
constexpr std::size_t kBatchMaxQueue = 2;

/** An open-loop core drops its offers while its request injection queue
 * holds this many packets. */
constexpr std::size_t kOpenLoopMaxQueue = 16;

/** The endpoint adapter of every core, in core order. */
std::vector<EndpointAdapter *>
coreEndpoints(Machine &m, const std::vector<EndpointAddr> &cores)
{
    std::vector<EndpointAdapter *> eps;
    eps.reserve(cores.size());
    for (const EndpointAddr &a : cores)
        eps.push_back(&m.endpoint(a));
    return eps;
}

} // namespace

std::vector<EndpointId>
firstEndpoints(int n)
{
    if (n < 0)
        throw std::invalid_argument("firstEndpoints: negative count "
                                    + std::to_string(n));
    std::vector<EndpointId> eps(static_cast<std::size_t>(n));
    std::iota(eps.begin(), eps.end(), 0);
    return eps;
}

BatchDriver::BatchDriver(Machine &machine, Config cfg)
    : machine_(machine), cfg_(std::move(cfg))
{
    assert(cfg_.pattern != nullptr);
    core_addrs_ = makeCoreList(machine_, cfg_.cores);
    core_eps_ = coreEndpoints(machine_, core_addrs_);
    sent_.assign(core_addrs_.size(), 0);
    expected_ = cfg_.batch_size * core_addrs_.size();
    base_delivered_ = machine_.totalDelivered();
    delivered_target_ = base_delivered_ + expected_;

    // The batch's progress rides along in machine checkpoints, so a
    // warm-start fork resumes mid-batch instead of restarting it. The
    // restoring machine must construct an identically configured driver
    // before restoreCheckpoint() (the client name pins the pairing).
    machine_.registerCheckpointClient(
        "batch-driver",
        [this](CkptArchive &ar) {
            ar.tag("driver.batch");
            ar.same(static_cast<std::uint32_t>(sent_.size()),
                    "batch-driver core count mismatch");
            for (std::uint64_t &s : sent_)
                ar.io(s, 0, cfg_.batch_size, "core sent past its batch");
            ar.io(sent_total_);
            ar.same(expected_, "batch-driver batch size mismatch");
            ar.io(delivered_target_);
            ar.io(base_delivered_);
            ar.io(start_);
            ar.io(started_);
        },
        this);
}

BatchDriver::~BatchDriver()
{
    machine_.unregisterCheckpointClients(this);
}

void
BatchDriver::tick(Cycle now)
{
    if (!started_) {
        started_ = true;
        start_ = now;
    }
    if (sent_total_ >= expected_)
        return;

    Rng &rng = machine_.rng();
    for (std::size_t i = 0; i < core_addrs_.size(); ++i) {
        if (sent_[i] >= cfg_.batch_size)
            continue;
        const EndpointAddr &src = core_addrs_[i];
        if (core_eps_[i]->injectQueueDepth(TrafficClass::Request)
            >= kBatchMaxQueue) {
            continue;
        }

        const bool second = cfg_.pattern2 != nullptr
                            && rng.chance(cfg_.blend_fraction2);
        const TrafficPattern &pat = second ? *cfg_.pattern2 : *cfg_.pattern;
        const std::uint8_t pat_id = second ? cfg_.pattern2_id
                                           : cfg_.pattern_id;

        const NodeId dst_node = pat.dest(src.node, rng);
        const auto dst_ep = cfg_.cores[rng.below(cfg_.cores.size())];
        auto pkt = machine_.makeWrite(src, { dst_node, dst_ep }, pat_id,
                                      cfg_.size_flits);
        machine_.send(pkt);
        ++sent_[i];
        ++sent_total_;
    }
}

Cycle
BatchDriver::completionTime() const
{
    return machine_.lastDeliveryTime() - start_;
}

double
BatchDriver::throughputPerCore() const
{
    const Cycle t = completionTime();
    if (t == 0)
        return 0.0;
    return static_cast<double>(cfg_.batch_size) / static_cast<double>(t);
}

OpenLoopDriver::OpenLoopDriver(Machine &machine, Config cfg)
    : machine_(machine), cfg_(std::move(cfg))
{
    assert(cfg_.pattern != nullptr);
    core_addrs_ = makeCoreList(machine_, cfg_.cores);
    core_eps_ = coreEndpoints(machine_, core_addrs_);
}

void
OpenLoopDriver::tick(Cycle)
{
    if (!enabled_)
        return;
    Rng &rng = machine_.rng();
    for (std::size_t i = 0; i < core_addrs_.size(); ++i) {
        if (!rng.chance(cfg_.rate))
            continue;
        if (core_eps_[i]->injectQueueDepth(TrafficClass::Request)
            >= kOpenLoopMaxQueue)
            continue;
        const EndpointAddr &src = core_addrs_[i];
        const NodeId dst_node = cfg_.pattern->dest(src.node, rng);
        const auto dst_ep = cfg_.cores[rng.below(cfg_.cores.size())];
        machine_.send(machine_.makeWrite(src, { dst_node, dst_ep },
                                         cfg_.pattern_id,
                                         cfg_.size_flits));
        ++offered_;
    }
}

} // namespace anton2
