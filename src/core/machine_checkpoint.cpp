/**
 * @file
 * Machine-level checkpoint/restore (src/debug/checkpoint.* holds the
 * encoding; this file owns the machine traversal).
 *
 * Layout: machine scalars (clock, RNG, packet-id counter, multicast
 * bookkeeping, delivery statistics), then every torus channel in
 * construction order, then every chip in node order, then the
 * registered checkpoint clients (traffic drivers) in registration
 * order. The writer's packet table dedups shared PacketPtrs across all
 * of it, so virtual cut-through sharing survives the round trip.
 *
 * Instrumentation layers are deliberately NOT part of the image: the
 * contract is attach-at-fork (a restored machine with instrumentation
 * attached at cycle C exports byte-identically to an uninterrupted run
 * that attached at C), which keeps the image format independent of
 * which observability layers happen to be bound.
 */
#include <algorithm>

#include "core/machine.hpp"
#include "debug/checkpoint.hpp"

namespace anton2 {

std::uint64_t
Machine::configFingerprint() const
{
    // Everything structural: what shapes buffers, wire rings, and the
    // routing tables' domains. Thread count and lookahead window are
    // excluded on purpose - restoring across them is the whole point.
    std::uint64_t h = 0xcbf29ce484222325ULL;
    h = ckptHashCombine(h, static_cast<std::uint64_t>(cfg_.radix.size()));
    for (int r : cfg_.radix)
        h = ckptHashCombine(h, static_cast<std::uint64_t>(r));
    const ChipConfig &c = cfg_.chip;
    h = ckptHashCombine(h, static_cast<std::uint64_t>(c.endpoints_per_node));
    h = ckptHashCombine(h, static_cast<std::uint64_t>(c.vc_policy));
    h = ckptHashCombine(h, static_cast<std::uint64_t>(c.arb));
    h = ckptHashCombine(h, static_cast<std::uint64_t>(c.weight_bits));
    h = ckptHashCombine(h, static_cast<std::uint64_t>(c.buf_flits));
    h = ckptHashCombine(h, c.mesh_latency);
    h = ckptHashCombine(h, c.skip_latency);
    h = ckptHashCombine(h, c.attach_latency);
    h = ckptHashCombine(h, c.enable_energy ? 1 : 0);
    h = ckptHashCombine(h, cfg_.seed);
    // Per-link latencies (same traversal order as the wiring loop)
    // subsume use_packaging / fixed_torus_latency / the packaging
    // model's parameters, and pin the torus wires' ring sizes.
    h = ckptHashCombine(h, lookahead_cap_);
    for (NodeId n = 0; n < geom_.numNodes(); ++n) {
        for (int dim = 0; dim < 3; ++dim) {
            for (Dir dir : kDirs) {
                const Cycle latency =
                    cfg_.use_packaging
                        ? cfg_.packaging.linkLatency(geom_, n, dim, dir)
                        : cfg_.fixed_torus_latency;
                h = ckptHashCombine(h, latency);
            }
        }
    }
    return h;
}

void
Machine::registerCheckpointClient(std::string name,
                                  std::function<void(CkptWriter &)> save,
                                  std::function<void(CkptReader &)> load,
                                  const void *owner)
{
    ckpt_clients_.push_back({ std::move(name), std::move(save),
                              std::move(load), owner });
}

void
Machine::unregisterCheckpointClients(const void *owner)
{
    ckpt_clients_.erase(
        std::remove_if(ckpt_clients_.begin(), ckpt_clients_.end(),
                       [owner](const CheckpointClient &c) {
                           return c.owner == owner;
                       }),
        ckpt_clients_.end());
}

void
Machine::saveCheckpoint(const std::string &path)
{
    // Sleeping routers and adapters settle their idle cycles so every
    // component's members reflect the current cycle. Settling is
    // bit-exact with per-cycle ticking, so this perturbs nothing.
    settleIdle();

    CkptWriter w;
    w.tag("machine");
    w.cycle(engine_.now());
    for (std::uint64_t word : rng_.state())
        w.u64(word);
    w.u64(next_packet_id_);
    w.i32(next_group_);
    w.u32(static_cast<std::uint32_t>(group_slices_.size()));
    for (std::uint8_t s : group_slices_)
        w.u8(s);
    w.u64(mcast_sends_);
    w.u64(delivered_);
    w.cycle(last_delivery_);
    const ScalarStat::State lat = latency_.state();
    w.u64(lat.count);
    w.f64(lat.sum);
    w.f64(lat.mean);
    w.f64(lat.m2);
    w.f64(lat.min);
    w.f64(lat.max);

    w.tag("machine.torus");
    w.u32(static_cast<std::uint32_t>(torus_channels_.size()));
    for (const auto &ch : torus_channels_)
        ch->saveState(w);

    for (const auto &c : chips_)
        c->saveState(w);

    w.tag("machine.clients");
    w.u32(static_cast<std::uint32_t>(ckpt_clients_.size()));
    for (const CheckpointClient &client : ckpt_clients_) {
        w.str(client.name);
        client.save(w);
    }

    w.writeFile(path, configFingerprint());
}

void
Machine::restoreCheckpoint(const std::string &path)
{
    CkptReader r(path, configFingerprint(),
                 [this] { return allocPacket(); });
    r.expect("machine");
    // Every component wakes at the restored cycle; the wires restored
    // below re-register their in-flight arrivals' wakes.
    engine_.restoreNow(r.cycle());
    std::array<std::uint64_t, 4> rng_state;
    for (auto &word : rng_state)
        word = r.u64();
    rng_.setState(rng_state);
    next_packet_id_ = r.u64();
    next_group_ = r.i32();
    group_slices_.resize(r.u32());
    for (auto &s : group_slices_)
        s = r.u8();
    mcast_sends_ = r.u64();
    delivered_ = r.u64();
    last_delivery_ = r.cycle();
    ScalarStat::State lat;
    lat.count = r.u64();
    lat.sum = r.f64();
    lat.mean = r.f64();
    lat.m2 = r.f64();
    lat.min = r.f64();
    lat.max = r.f64();
    latency_.restoreState(lat);

    r.expect("machine.torus");
    if (r.u32() != torus_channels_.size())
        throw CheckpointError("torus channel count mismatch");
    for (const auto &ch : torus_channels_)
        ch->loadState(r);

    for (const auto &c : chips_)
        c->loadState(r);

    r.expect("machine.clients");
    if (r.u32() != ckpt_clients_.size()) {
        throw CheckpointError(
            "checkpoint client count mismatch (different drivers "
            "registered at save and restore time)");
    }
    for (CheckpointClient &client : ckpt_clients_) {
        const std::string name = r.str();
        if (name != client.name) {
            throw CheckpointError("checkpoint client order mismatch: file "
                                  "has \"" + name + "\", machine expects \""
                                  + client.name + "\"");
        }
        client.load(r);
    }

    r.finish();
    restored_from_ = path;
    restored_cycle_ = engine_.now();
}

} // namespace anton2
