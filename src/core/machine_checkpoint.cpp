/**
 * @file
 * Machine-level checkpoint/restore (src/debug/checkpoint.* holds the
 * archive; this file owns the machine's field list and packet bounds).
 *
 * Layout: machine scalars (clock, RNG, packet-id counter, multicast
 * bookkeeping, delivery statistics), then every torus channel in
 * construction order, then every chip in node order, then the
 * registered checkpoint clients (traffic drivers) in registration
 * order. The packet table ahead of them dedups packet references across
 * all of it, so virtual cut-through sharing survives the round trip. A
 * restore ends with the checks that span components: whole multicast
 * trees, and the runtime auditor's invariants.
 *
 * Instrumentation layers are deliberately NOT part of the image: the
 * contract is attach-at-fork (a restored machine with instrumentation
 * attached at cycle C exports byte-identically to an uninterrupted run
 * that attached at C), which keeps the image format independent of
 * which observability layers happen to be bound. The order is fixed:
 * restore, then attach; restoreCheckpoint refuses a machine that is
 * already instrumented.
 */
#include <algorithm>
#include <climits>
#include <stdexcept>

#include "arb/inverse_weighted.hpp"
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
    // The chip constants and the retired per-chip energy-meter flag
    // (always off) sit in the slots their config fields had: hashing
    // them keeps format-v4 fingerprints and images.
    h = ckptHashCombine(h, static_cast<std::uint64_t>(kDefaultWeightBits));
    h = ckptHashCombine(h, static_cast<std::uint64_t>(kBufFlitsPerVc));
    h = ckptHashCombine(h, kMeshLatency);
    h = ckptHashCombine(h, kSkipLatency);
    h = ckptHashCombine(h, kAttachLatency);
    h = ckptHashCombine(h, 0);
    h = ckptHashCombine(h, cfg_.seed);
    // Per-link latencies (same traversal order as the wiring loop)
    // subsume use_packaging / fixed_torus_latency / the packaging
    // model's constants, and pin the torus wires' ring sizes.
    h = ckptHashCombine(h, lookahead_cap_);
    for (NodeId n = 0; n < geom_.numNodes(); ++n) {
        for (int dim = 0; dim < 3; ++dim) {
            for (Dir dir : kDirs)
                h = ckptHashCombine(h, torusLatency(n, dim, dir));
        }
    }
    return h;
}

void
Machine::registerCheckpointClient(std::string name,
                                  std::function<void(CkptArchive &)> fields,
                                  const void *owner)
{
    ckpt_clients_.push_back({ std::move(name), std::move(fields), owner });
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
Machine::packetFields(CkptArchive &ar, Packet &p) const
{
    const NodeId last_node = geom_.numNodes() - 1;
    const int last_ep = layout_.numEndpoints() - 1;
    ar.io(p.id);
    ar.io(p.src.node, 0, last_node, "source node outside the machine");
    ar.io(p.src.ep, 0, last_ep, "source endpoint outside the node");
    ar.io(p.dst.node, 0, last_node, "destination node outside the machine");
    ar.io(p.dst.ep, 0, last_ep, "destination endpoint outside the node");
    ar.io(p.tc, TrafficClass::Request, TrafficClass::Reply,
          "traffic class out of range");
    ar.io(p.op, OpKind::Write, OpKind::ReadReply, "operation out of range");
    ar.io(p.pattern, 0, kNumPatterns - 1, "traffic pattern out of range");
    ar.io(p.size_flits, 1, kMaxPacketFlits, "packet size out of range");
    for (FlitPayload &f : p.payload) {
        for (std::uint64_t &word : f)
            ar.io(word);
    }
    ar.io(p.counter);
    // Bounded above once the machine section names the installed groups.
    ar.io(p.mcast_group, -1, INT32_MAX, "multicast group out of range");
    PacketRoute &r = p.route;
    for (std::uint8_t &d : r.order)
        ar.io(d);
    for (Dir &d : r.dirs)
        ar.io(d);
    ar.io(r.slice);
    for (std::uint16_t &n : r.left)
        ar.io(n);
    // A packet part-way along its route has at most the hops its
    // directions take from source to destination left.
    const char *malformed = malformedRoute(r);
    ar.check(malformed == nullptr, malformed);
    const auto hops = r.hops(geom_, p.src.node, p.dst.node);
    for (std::size_t d = 0; d < 3; ++d)
        ar.check(r.left[d] <= hops[d],
                 "hops left exceed the route's distance");
    VcPolicy policy = p.vc.policy();
    auto dims = static_cast<std::uint8_t>(p.vc.dimsCompleted());
    bool crossed = p.vc.crossedInCurrentDim();
    ar.io(policy);
    ar.io(dims, 0, 3, "dimensions completed out of range");
    ar.io(crossed);
    if (ar.loading()) {
        p.vc = VcState(policy);
        p.vc.restoreState(dims, crossed);
    }
    // A packet past its last dimension takes no further torus hop, so
    // only its mesh VC must exist (Baseline2n's torus VC would be 2n).
    const int per_class = cfg_.chip.vcsPerClass();
    ar.check(policy == cfg_.chip.vc_policy && p.vc.meshVc() < per_class
                 && (dims == 3 ? !crossed : p.vc.torusVc() < per_class),
             "promotion state outside the machine's VCs");
    AttachPoint &x = p.chip_exit;
    ar.io(x.kind, AttachPoint::Kind::Endpoint, AttachPoint::Kind::Channel,
          "chip exit kind out of range");
    ar.io(x.endpoint);
    ar.io(x.dim);
    ar.io(x.dir);
    ar.io(x.slice);
    ar.io(p.x_through);
    ar.check(x.kind == AttachPoint::Kind::Endpoint
                 ? x.endpoint >= 0 && x.endpoint <= last_ep && !p.x_through
                 : x.dim < 3 && (x.dir == Dir::Pos || x.dir == Dir::Neg)
                       && x.slice < kNumSlices
                       && (!p.x_through || x.dim == 0),
             "chip exit outside the chip");
    ar.io(p.birth);
    ar.io(p.inject_time);
    ar.io(p.eject_time);
    ar.io(p.hops);
}

void
Machine::fields(CkptArchive &ar)
{
    ar.tag("machine");
    Cycle now = engine_.now();
    ar.clock(now);
    // Every component wakes at the restored cycle; the wires restored
    // below re-register their in-flight arrivals' wakes.
    if (ar.loading())
        engine_.restoreNow(now);
    std::array<std::uint64_t, 4> rng = rng_.state();
    for (std::uint64_t &word : rng)
        ar.io(word);
    ar.io(next_packet_id_);
    ar.io(next_group_, 0, INT32_MAX, "multicast group count out of range");
    for (const PacketPtr &p : ar.packets())
        ar.check(p->mcast_group < next_group_,
                 "packet of a multicast group never installed");
    ar.size(group_slices_, static_cast<std::size_t>(next_group_), 1,
            "multicast group slice");
    ar.check(group_slices_.size() == static_cast<std::size_t>(next_group_),
             "multicast group slices differ from the group count");
    for (std::uint8_t &slice : group_slices_)
        ar.io(slice, 0, kNumSlices - 1, "multicast slice out of range");
    ar.io(mcast_sends_);
    ar.io(delivered_);
    ar.io(last_delivery_);
    ScalarStat::State lat = latency_.state();
    ar.io(lat.count);
    for (double *v : { &lat.sum, &lat.mean, &lat.m2, &lat.min, &lat.max })
        ar.io(*v);

    ar.tag("machine.torus");
    ar.same(static_cast<std::uint32_t>(torus_channels_.size()),
            "torus channel count mismatch");
    for (Channel &ch : torus_channels_)
        ch.fields(ar, cfg_.chip.numVcs());

    for (const auto &c : chips_)
        c->fields(ar);

    ar.tag("machine.clients");
    ar.same(static_cast<std::uint32_t>(ckpt_clients_.size()),
            "checkpoint client count mismatch (different drivers "
            "registered at save and restore time)");
    for (CheckpointClient &client : ckpt_clients_) {
        ar.same(client.name, "checkpoint client order mismatch");
        client.fields(ar);
    }
    if (!ar.loading())
        return;

    rng_.setState(rng);
    latency_.restoreState(lat);
    ar.section("restored state");
    // The multicast tables must hold trees installTree would accept,
    // each rooted at the one entry no hop reaches.
    std::vector<McastTree> trees(group_slices_.size());
    for (NodeId n = 0; n < geom_.numNodes(); ++n) {
        for (const auto &[group, entry] : chips_[n]->mcastTable()) {
            ar.check(group >= 0 && group < next_group_,
                     "multicast entry of a group never installed");
            trees[static_cast<std::size_t>(group)].nodes[n] = entry;
        }
    }
    for (std::size_t g = 0; g < trees.size(); ++g) {
        McastTree &tree = trees[g];
        tree.slice = group_slices_[g];
        std::vector<char> reached(geom_.numNodes(), 0);
        for (const auto &[node, entry] : tree.nodes) {
            for (const McastHop &hop : entry.forward) {
                if (hop.dim < 3 && (hop.dir == Dir::Pos || hop.dir == Dir::Neg))
                    reached[geom_.neighbor(node, hop.dim, hop.dir)] = 1;
            }
        }
        for (NodeId n = geom_.numNodes(); n-- > 0;) {
            if (tree.nodes.count(n) != 0 && !reached[n])
                tree.root = n;
        }
        try {
            validateTree(tree);
        } catch (const std::invalid_argument &e) {
            ar.fail(e.what());
        }
    }
    auditInvariants([&ar](const std::string &check,
                          const std::string &detail) {
        ar.fail(check + ": " + detail);
    });
}

void
Machine::saveCheckpoint(const std::string &path)
{
    // Sleeping routers and adapters settle their idle cycles so every
    // component's members reflect the current cycle. Settling is
    // bit-exact with per-cycle ticking, so this perturbs nothing.
    settleIdle();
    CkptArchive ar;
    fields(ar);
    ar.writeFile(path, configFingerprint(),
                 [this](CkptArchive &a, Packet &p) { packetFields(a, p); });
}

void
Machine::restoreCheckpoint(const std::string &path)
{
    // Every layer takes its baselines (counts, cumulative series) and
    // barrier phase at its attach; a restore under them would move the
    // state they measure from.
    if (attached_)
        throw std::logic_error(
            "restoreCheckpoint: instrumentation is already attached "
            "(restore first, then attach)");
    CkptArchive ar(path, configFingerprint());
    // Every live packet belongs to the state the image replaces; the
    // image's packets go to their source nodes' slabs.
    releases_.clear();
    for (auto &c : chips_)
        c->slab().reset();
    ar.readPackets(
        [this](CkptArchive &a, Packet &p) { packetFields(a, p); },
        [this](const Packet &p) { return chip(p.src.node).slab().copy(p); });
    fields(ar);
    ar.finish();
    restored_from_ = path;
    restored_cycle_ = engine_.now();
}

} // namespace anton2
