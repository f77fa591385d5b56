/**
 * @file
 * Torus-channel adapter (Sections 2.2, 4.4).
 *
 * One adapter terminates one external torus channel: it rate-matches
 * between the on-chip mesh (one 24-byte flit per 1.5 GHz cycle, 288 Gb/s)
 * and the external SerDes channel (89.6 Gb/s effective), a ratio of exactly
 * 14/45 flits per core cycle. The adapter implements the full set of
 * 8 VCs with virtual cut-through and credits on both sides, and applies
 * the inter-node routing steps that happen at node boundaries: dateline VC
 * promotion on egress, and next-dimension/ejection decisions (plus
 * multicast expansion) on ingress.
 */
#pragma once

#include <functional>
#include <vector>

#include "arb/arbiter.hpp"
#include "noc/channel.hpp"
#include "noc/packet_slab.hpp"
#include "sim/component.hpp"
#include "trace/trace.hpp"

namespace anton2 {

class Router;

/** Exact SerDes/mesh rate ratio: 89.6 / 288 = 14 / 45 flits per cycle. */
inline constexpr int kSerdesTokensPerCycle = 14;
inline constexpr int kSerdesTokensPerFlit = 45;
/** Idle serializers stop accruing at one flit plus one cycle's worth. */
inline constexpr int kSerdesTokenCap =
    kSerdesTokensPerFlit + kSerdesTokensPerCycle;

struct ChannelAdapterConfig
{
    int num_vcs = 8;
    int buf_flits_per_vc = 8;
    ArbPolicy arb = ArbPolicy::RoundRobin;
};

/** One expanded ingress delivery: a packet copy and its on-chip entry VC. */
struct IngressCopy
{
    PacketPtr pkt = nullptr;
    std::uint8_t vc = 0; ///< VC on the adapter->router channel
};

/**
 * Ingress routing callback, bound by the chip assembly. Called once when a
 * packet becomes head of an ingress VC buffer; it applies VC promotion /
 * dimension-completion updates, computes the packet's exit attach point
 * on this chip, and appends the resulting copies to @p out, which arrives
 * empty and keeps its capacity across packets: the packet itself for
 * unicast, new records for multicast (the adapter then releases the
 * original when its entry retires).
 */
using IngressFn =
    std::function<void(PacketPtr, std::vector<IngressCopy> &out)>;

class ChannelAdapter final : public Component
{
  public:
    /**
     * @param crosses_dateline Whether this adapter's outgoing torus link
     * crosses the dateline (Section 2.5): egress then applies the
     * dateline VC promotion.
     * @param release How retired multicast originals are released (the
     * default: straight to their slab).
     * @throws std::invalid_argument for more than CreditCounter::kMaxVcs
     * VCs.
     */
    ChannelAdapter(const ChannelAdapterConfig &cfg, bool crosses_dateline,
                   IngressFn ingress_fn, LaneRelease release = {});

    /** Channel from the attached router (egress data in, credits out). */
    void connectRouterIn(Channel &ch);
    /** Channel to the attached router (ingress data out, credits in). */
    void connectRouterOut(Channel &ch, int router_buf_flits);
    /** Outgoing torus link to the peer adapter on the neighbor node. */
    void connectTorusOut(Channel &ch, int peer_buf_flits);
    /** Incoming torus link from the peer adapter. */
    void connectTorusIn(Channel &ch);

    void tick(Cycle now) override;
    bool busy() const override;

    /** True while the adapter holds a packet on either side or owes the
     * peer a torus credit. Arrivals - on-chip and over the torus - wake
     * it through its doorbell. */
    bool
    hasWork() const
    {
        return egress_packets_ > 0 || ingress_packets_ > 0
               || !pending_credits_.empty();
    }

    /** Bind the adapter's place in its engine shard (Engine::addWakeable). */
    void setWake(WakeHandle h) { bell_.setWake(h); }

    /**
     * Account the cycles before @p now that the adapter slept through:
     * the one piece of state that evolves while idle is SerDes token
     * accrual (capped at one flit plus one cycle's worth). tick()
     * settles first; a checkpoint settles between runs.
     */
    void settleIdle(Cycle now);

    /** Inverse-weighted egress and ingress arbiters (null for other
     * policies). */
    InverseWeightedArbiter *
    egressArbiter()
    {
        return std::get_if<InverseWeightedArbiter>(&egress_arb_);
    }
    InverseWeightedArbiter *
    ingressArbiter()
    {
        return std::get_if<InverseWeightedArbiter>(&ingress_arb_);
    }

    /**
     * Start emitting packet events into @p events, stamped with this
     * adapter's coordinates (@p node, @p unit = adapter index on the
     * chip): a link-traverse record when a head flit is serialized onto
     * the torus link, and one egress hop span (arrival, link grant,
     * tail-serialized departure) per packet.
     */
    void
    bindEvents(PacketEventStream &events, std::int32_t node,
               std::int16_t unit)
    {
        events_ = { &events, node, unit, TraceUnitKind::ChannelAdapter };
    }

    const ChannelAdapterConfig &config() const { return cfg_; }
    std::uint64_t flitsSent() const { return flits_sent_; }
    std::uint64_t flitsReceived() const { return flits_received_; }
    /** Cycles in which the serializer had tokens but nothing to send. */
    std::uint64_t idleCycles() const { return idle_cycles_; }
    /** Egress grant cycles on which every waiting head lacked torus
     * credits (not checkpointed). */
    std::uint64_t creditStalls() const { return credit_stalls_; }

    // --- runtime-auditor probes (all read-only) -----------------------

    const VcBuffer &egressBuffer(int vc) const { return egress_vcs_[vc]; }
    const VcBuffer &ingressBuffer(int vc) const { return ingress_vcs_[vc]; }
    const CreditCounter &torusCredits() const { return torus_credits_; }
    const CreditCounter &routerCredits() const { return router_credits_; }
    const Channel *routerOut() const { return router_out_; }
    const Channel *torusOut() const { return torus_out_; }

    /** Unsent flits of the packet currently granted the torus link on
     * link VC @p link_vc (VCT reservation; credits already consumed). */
    int egressReservedFlits(int link_vc) const;

    /** Unsent flits of the ingress copy currently granted the router
     * channel on VC @p vc (reservation against router_credits_). */
    int ingressReservedFlits(int vc) const;

    /** Credits for torus VC @p vc queued but not yet on the wire. */
    int pendingTorusCredits(int vc) const;

    /** A head flit persistently blocked on credits at this adapter. */
    struct BlockedHead
    {
        bool egress = true; ///< else ingress side
        int vc = -1;        ///< holding VC buffer
        int want_vc = -1;   ///< VC wanted downstream (link or router)
        PacketPtr pkt = nullptr;
    };

    /** Collect heads blocked on torus-link credits (egress) or on
     * adapter->router credits (ingress) - the adapter's waits-for edges. */
    void collectBlockedHeads(std::vector<BlockedHead> &out) const;

    // --- test-only fault hooks ----------------------------------------

    /**
     * Negative-control fault: silently drop credits returning from the
     * peer for torus VC @p vc (-1 = every VC) instead of releasing them.
     * The link's credit pool drains permanently; the credit-conservation
     * audit and the watchdog must both catch it.
     */
    void
    faultWithholdTorusCredits(int vc)
    {
        fault_withhold_ = true;
        fault_withhold_vc_ = vc;
    }

    std::uint64_t creditsWithheld() const { return credits_withheld_; }

    /**
     * Negative-control fault: this adapter "forgets" the dateline, so
     * packets keep their unpromoted VC across the wrap - the runtime
     * twin of the NoDateline static counterexample.
     */
    void faultNoPromotion() { crosses_dateline_ = false; }

    /** Whether egress applies the dateline promotion (audit probe). */
    bool crossesDateline() const { return crosses_dateline_; }

    /**
     * Checkpoint field list of both sides: VC buffers, credit counters,
     * arbitration state, serialization tokens, active grants, ingress
     * expansion state (at most @p max_copies copies per packet), and the
     * queued torus credits. (The four attached channels are checkpointed
     * by their owners.) A restore checks the grants and copies against
     * the buffers, and the copies' routes at @p to_router.
     */
    void fields(CkptArchive &ar, const Router &to_router,
                std::size_t max_copies);

  private:
    struct IngressEntry
    {
        std::vector<IngressCopy> copies;
        std::size_t next_copy = 0;
        std::uint16_t copy_sent = 0; ///< flits of the active copy sent
    };

    /** Torus-link VC of @p pkt's next hop (peeks; the grant commits
     * the promotion via Packet::vc). */
    std::uint8_t
    linkVc(const Packet &pkt) const
    {
        return static_cast<std::uint8_t>(
            fullVcIndex(pkt.tc, pkt.vc.peekTorusHop(crosses_dateline_),
                        vcs_per_class_));
    }

    void tickEgress(Cycle now, std::uint32_t rung);
    void tickIngress(Cycle now, std::uint32_t rung);
    /** Accrue the tokens of @p slept idle cycles. */
    void accrueIdle(Cycle slept);

    /** Doorbell bits of the two on-chip wires this adapter receives
     * from; the torus wires cross shards, only wake the adapter, and are
     * polled while it is awake. */
    static constexpr unsigned kEgressDataBell = 0;
    static constexpr unsigned kIngressCreditBell = 1;

    /** Queue one torus-link credit for VC @p vc (drained one per cycle). */
    void
    pendingTorusCredit(int vc)
    {
        pending_credits_.push_back(static_cast<std::uint8_t>(vc));
    }

    ChannelAdapterConfig cfg_;
    int vcs_per_class_;       ///< VCs per traffic class (full VC index)
    bool crosses_dateline_;   ///< egress link wraps from k-1 to 0 (or back)
    IngressFn ingress_fn_;
    LaneRelease release_;

    // Egress side: router -> torus.
    Channel *router_in_ = nullptr;
    Channel *torus_out_ = nullptr;
    std::vector<VcBuffer> egress_vcs_;
    std::uint32_t egress_nonempty_ = 0; ///< bit v: egress_vcs_[v] nonempty
    CreditCounter torus_credits_;
    PortArbiter egress_arb_;
    int ser_tokens_ = 0;
    bool egress_busy_ = false;
    int egress_vc_ = -1;           ///< source VC buffer of active packet
    std::uint8_t egress_link_vc_ = 0;
    Cycle egress_grant_at_ = 0;    ///< cycle the active packet won the link

    // Ingress side: torus -> router.
    Channel *torus_in_ = nullptr;
    Channel *router_out_ = nullptr;
    std::vector<VcBuffer> ingress_vcs_;
    std::uint32_t ingress_nonempty_ = 0; ///< bit v: ingress_vcs_[v] nonempty
    std::vector<IngressEntry> ingress_heads_; ///< per VC, expansion state
    std::uint32_t ingress_expanded_ = 0; ///< bit v: head of VC v expanded
    CreditCounter router_credits_;
    PortArbiter ingress_arb_;
    bool ingress_busy_ = false;
    int ingress_vc_ = -1;
    std::vector<std::uint8_t> pending_credits_;
    Doorbell bell_;

    std::uint64_t flits_sent_ = 0;
    std::uint64_t flits_received_ = 0;
    std::uint64_t idle_cycles_ = 0;
    std::uint64_t credit_stalls_ = 0;
    bool fault_withhold_ = false;
    int fault_withhold_vc_ = -1;
    std::uint64_t credits_withheld_ = 0;
    int egress_packets_ = 0;
    int ingress_packets_ = 0;
    /** First cycle neither ticked nor settled (kNoCycle before the first
     * tick and after a restore: nothing to settle). */
    Cycle idle_from_ = kNoCycle;
    EventBinding events_;
};

} // namespace anton2
