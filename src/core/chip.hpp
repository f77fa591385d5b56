/**
 * @file
 * One Anton 2 ASIC's network: the 4x4 mesh, skip channels, 12 torus-channel
 * adapters, and endpoint adapters, assembled per the ChipLayout and bound
 * to the inter-node routing logic (Sections 2.2-2.5, Figure 1).
 */
#pragma once

#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "core/chip_layout.hpp"
#include "debug/snapshot.hpp"
#include "noc/channel_adapter.hpp"
#include "noc/endpoint.hpp"
#include "noc/router.hpp"
#include "routing/multicast.hpp"
#include "routing/vc_promotion.hpp"
#include "sim/engine.hpp"
#include "sim/wire.hpp"
#include "topo/torus.hpp"

namespace anton2 {

/** On-chip wire latencies of the Anton 2 ASIC (Section 2.2, Figure 1):
 * one cycle between mesh neighbours, two on the skip channels that span
 * the chip, one on every router <-> adapter or endpoint link. */
inline constexpr Cycle kMeshLatency = 1;
inline constexpr Cycle kSkipLatency = 2;
inline constexpr Cycle kAttachLatency = 1;
/** Per-VC input buffer depth of routers and channel adapters. An
 * endpoint drains at once; its router link meters twice this. */
inline constexpr int kBufFlitsPerVc = 8;

// On-chip wires ring their receivers' doorbells, which cover latencies
// up to kMaxDoorbellLatency; a zero-latency wire would make the
// evaluation order within a cycle observable.
static_assert(kMeshLatency >= 1 && kMeshLatency <= kMaxDoorbellLatency);
static_assert(kSkipLatency >= 1 && kSkipLatency <= kMaxDoorbellLatency);
static_assert(kAttachLatency >= 1 && kAttachLatency <= kMaxDoorbellLatency);

/** Per-chip static configuration (shared by every chip in a machine). */
struct ChipConfig
{
    int endpoints_per_node = 23;
    VcPolicy vc_policy = VcPolicy::Anton2;
    ArbPolicy arb = ArbPolicy::RoundRobin;
    MeshDirOrder dir_order = anton2DirOrder();

    /** VCs per traffic class implied by the deadlock-avoidance policy. */
    int
    vcsPerClass() const
    {
        return numUnifiedVcs(vc_policy, 3);
    }

    int
    numVcs() const
    {
        return kNumTrafficClasses * vcsPerClass();
    }
};

class Chip
{
  public:
    /**
     * @param layout Shared placement (identical for every chip).
     * @param geom The machine's torus geometry (for dateline decisions).
     * @param routes The machine's on-chip route table (built from
     * @p layout and cfg.dir_order); layout, geom and routes must
     * outlive the chip.
     * @param releases Where the chip's lane stages releases of packets
     * homed on other chips (see LaneRelease in noc/packet_slab.hpp).
     */
    Chip(NodeId node, const ChipConfig &cfg, const ChipLayout &layout,
         const TorusGeom &geom, const RouteTable &routes,
         LaneBuffer<Packet *> &releases);

    /**
     * Register every component of this chip with the engine as one
     * shard of wake-aware components (routers, then channel adapters,
     * then endpoints - the canonical serial order). Chip-granular
     * sharding keeps each chip's components on a single lane of a
     * threaded engine, so only the latency >= 1 torus wires ever cross
     * threads.
     */
    void registerWith(Engine &engine);

    /** Settle the idle cycles every router and channel adapter slept
     * through before @p now (see Router::settleIdle). */
    void settleIdle(Cycle now);

    /**
     * Bind every component of this chip to @p events (see
     * trace/trace.hpp): routers emit lifecycle events and switch-
     * traversal hop spans, channel adapters link-traverse events and
     * torus-link egress spans, endpoints inject/eject events and the
     * flight-closing delivery records. With a trace ring on the stream
     * the routers also sample stalls; with a flow probe the units'
     * names are registered with it. Call again when either attaches.
     */
    void bindEvents(PacketEventStream &events);

    NodeId node() const { return node_; }
    const ChipLayout &layout() const { return layout_; }
    const ChipConfig &config() const { return cfg_; }

    /** The packet slab of this chip's engine shard: injections at this
     * node and multicast copies made here. */
    PacketSlab &slab() { return slab_; }

    Router &router(RouterId r) { return *routers_[r]; }
    ChannelAdapter &channelAdapter(int ca) { return *channel_adapters_[
        static_cast<std::size_t>(ca)]; }
    ChannelAdapter &
    channelAdapter(int dim, Dir dir, int slice)
    {
        return channelAdapter(layout_.channelAdapterIndex(dim, dir, slice));
    }
    EndpointAdapter &endpoint(EndpointId e) { return *endpoints_[
        static_cast<std::size_t>(e)]; }
    int numEndpoints() const { return layout_.numEndpoints(); }

    /** Install a multicast-table entry for @p group at this node. */
    void addMcastEntry(std::int32_t group, McastNodeEntry entry);
    const McastNodeEntry *mcastEntry(std::int32_t group) const;

    /**
     * Prepare a packet's chip-exit attach point given that it must next
     * route in dimension @p next_dim (or eject if @p next_dim < 0).
     * Shared by source injection and ingress turning.
     */
    void setExit(Packet &pkt, int next_dim) const;

    /** Full VC index helpers bound to this chip's configuration. */
    int
    fullVc(TrafficClass tc, int promotion_vc) const
    {
        return fullVcIndex(tc, promotion_vc, cfg_.vcsPerClass());
    }

    // --- runtime-auditor support (chip_audit.cpp) ---------------------

    const Router &router(RouterId r) const { return *routers_[r]; }
    const ChannelAdapter &
    channelAdapter(int ca) const
    {
        return *channel_adapters_[static_cast<std::size_t>(ca)];
    }
    const EndpointAdapter &
    endpoint(EndpointId e) const
    {
        return *endpoints_[static_cast<std::size_t>(e)];
    }

    /** What this chip holds right now, read in one walk over its
     * buffers and credit loops plus its on-chip wires. `multicast` flags
     * any resident multicast packet: expansion clones flits, so the
     * machine-wide flit conservation sum is skipped while one is in
     * flight. */
    struct FlitCensus
    {
        std::uint64_t buffered = 0; ///< router + adapter buffer occupancy
        std::uint64_t on_wires = 0; ///< data phits in flight on-chip
        /** Free credits of the router outputs and torus links. */
        std::uint64_t free_credits = 0;
        /** Injection cycle of the oldest resident packet, in a buffer or
         * an endpoint slot (kNoCycle when empty). */
        Cycle oldest_birth = kNoCycle;
        bool multicast = false;
    };
    FlitCensus flitCensus() const;

    /** Per-chip invariant checks (buffer sanity, on-chip credit
     * conservation, VC-class legality); each violation is reported as
     * (check, detail). */
    void auditInvariants(
        const std::function<void(const std::string &, const std::string &)>
            &report) const;

    /** Append this chip's buffers, credits, resident packets, and
     * blocked-head waits-for edges to @p snap. */
    void collectSnapshot(Cycle now, MachineSnapshot &snap) const;

    /** Resource name of the torus link leaving this node at @p ca. */
    std::string egressLinkName(int ca, int full_vc) const;
    /** Resource name of the torus link feeding this node's adapter
     * @p ca (named from the sending node, like the static checker). */
    std::string ingressLinkName(int ca, int full_vc) const;

    /**
     * Checkpoint field list of this chip: every router, channel adapter,
     * and endpoint in registration order, every on-chip channel in
     * wiring order, and the multicast table. Torus channels belong to
     * the Machine.
     */
    void fields(CkptArchive &ar);

    /** The multicast table, for the restore check of whole trees. */
    const std::unordered_map<std::int32_t, McastNodeEntry> &
    mcastTable() const
    {
        return mcast_;
    }

  private:
    void ingressAt(int ca, PacketPtr pkt, std::vector<IngressCopy> &copies);

    /** The sender of a credit loop (see forEachResource). */
    enum class LoopKind : std::uint8_t
    {
        RouterOut,        ///< router output -> router, adapter, endpoint
        TorusLink,        ///< adapter egress -> the peer chip's ingress
        AdapterToRouter,  ///< adapter ingress -> router input
        EndpointToRouter, ///< endpoint injection -> router input
    };

    /** One VC of one credit loop: the sender's counter and the places on
     * this chip a spent credit can be before it returns. */
    struct CreditLoop
    {
        LoopKind kind;
        const CreditCounter &credits;
        int vc;
        int reserved;           ///< unsent flits of the granted packet
        const Channel &channel; ///< the loop's data and credit wires
        /** Flits in the on-chip buffer the credits meter (0 for an
         * endpoint, which drains at once, and for a torus link, whose
         * buffer is on the peer chip). */
        int downstream_occ;
    };

    /**
     * The chip's resource inventory, in one place (chip_audit.cpp).
     * Calls @p on_buffer(const VcBuffer &, int full_vc, name) for every
     * connected per-VC buffer (router inputs, then each adapter's
     * egress and ingress) and @p on_loop(const CreditLoop &, name) for
     * every credit loop (router outputs, then each adapter's torus link
     * and adapter->router link, then endpoint->router), in the order the
     * per-chip audit reports. `name()` returns the resource's name in
     * the static deadlock checker's scheme and is built only when
     * called.
     */
    template <class OnBuffer, class OnLoop>
    void forEachResource(OnBuffer &&on_buffer, OnLoop &&on_loop) const;

    NodeId node_;
    ChipConfig cfg_;
    const ChipLayout &layout_;
    const TorusGeom &geom_;
    PacketSlab slab_;

    std::vector<std::unique_ptr<Router>> routers_;
    std::vector<std::unique_ptr<ChannelAdapter>> channel_adapters_;
    std::vector<std::unique_ptr<EndpointAdapter>> endpoints_;
    std::vector<Channel> channels_; ///< on-chip, in wiring order
    std::unordered_map<std::int32_t, McastNodeEntry> mcast_;
};

} // namespace anton2
