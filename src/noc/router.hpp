/**
 * @file
 * The on-chip router (Sections 2.2, 4.4; Figure 12).
 *
 * Six ports, eight VCs (two traffic classes x four promotion VCs), virtual
 * cut-through flow control with credits, and a four-stage pipeline matching
 * Figure 12: route computation (RC), virtual-channel allocation (VA), input
 * switch arbitration (SA1), and output switch arbitration (SA2), followed
 * by switch traversal. Output arbitration is round-robin or the
 * inverse-weighted arbiter of Section 3.
 */
#pragma once

#include <array>
#include <memory>
#include <span>
#include <vector>

#include "arb/arbiter.hpp"
#include "noc/channel.hpp"
#include "noc/packet.hpp"
#include "noc/route_table.hpp"
#include "power/energy.hpp"
#include "sim/component.hpp"
#include "sim/stats.hpp"
#include "trace/trace.hpp"

namespace anton2 {

/** Static configuration of one router instance. */
struct RouterConfig
{
    int num_ports = 6;
    int num_vcs = 8;          ///< 2 classes x numUnifiedVcs(policy, n)
    int buf_flits_per_vc = 8; ///< input buffer depth per VC
    ArbPolicy out_arb = ArbPolicy::RoundRobin;
};

class Router final : public Component
{
  public:
    /** Most ports: the Anton 2 router's six (§2.2). Per-port state is
     * held in arrays of this size. */
    static constexpr int kMaxPorts = 6;

    /**
     * @param routes The route table RC reads (not owned; must outlive
     * the router), and @p id this router's row in it.
     * @throws std::invalid_argument for more than kMaxPorts ports or
     * CreditCounter::kMaxVcs VCs, if @p routes has no row @p id, or if
     * a route in it names a port at or above cfg.num_ports.
     */
    Router(const RouterConfig &cfg, const RouteTable &routes, int id);

    /** Attach the channel arriving at input @p port (data in, credits out). */
    void connectIn(int port, Channel &ch);

    /**
     * Attach the channel leaving output @p port (data out, credits in).
     * @param downstream_buf_flits per-VC buffer depth at the receiver.
     */
    void connectOut(int port, Channel &ch, int downstream_buf_flits);

    void tick(Cycle now) override;
    bool busy() const override;

    /** True while the router buffers a packet: it has pipeline work for
     * the next cycle. Arrivals wake it through its doorbell. */
    bool hasWork() const { return buffered_packets_ > 0; }

    /** Bind the router's place in its engine shard (Engine::addWakeable). */
    void setWake(WakeHandle h) { bell_.setWake(h); }

    /**
     * Account the cycles before @p now that the router slept through
     * (engine wakes, see sim/wake.hpp): each counts as an idle tick, so
     * with stall sampling on every connected output books `no_input`.
     * tick() settles first; readers of the stall totals, checkpoints and
     * a stall-sampling attach settle between runs.
     */
    void settleIdle(Cycle now);

    /** Inverse-weighted output arbiter for @p port (null for other policies). */
    InverseWeightedArbiter *
    outputArbiter(int port)
    {
        return std::get_if<InverseWeightedArbiter>(
            &sa2_[static_cast<std::size_t>(port)]);
    }

    /** Optional energy meter (not owned); charges per-flit events. */
    void setEnergyMeter(RouterEnergyMeter *meter) { energy_ = meter; }

    /**
     * On every tick that finds buffered traffic, add the buffered-flit
     * total to @p total and, with @p per_vc (one stat per VC), each VC's
     * buffered flits across the input ports. The stats are not owned;
     * routers ticked on one engine lane may share them.
     */
    void sampleOccupancy(ScalarStat &total,
                         std::vector<ScalarStat *> per_vc = {});

    /** The stat sampleOccupancy() feeds, or null. */
    const ScalarStat *occupancyStat() const { return occupancy_; }

    /**
     * Start emitting packet events into @p events, stamped with this
     * router's coordinates (@p node, @p unit): route-computed,
     * VC-allocated and switch-grant records, and one hop span (arrival,
     * SA2 grant, tail departure) per packet.
     */
    void
    bindEvents(PacketEventStream &events, std::int32_t node,
               std::int16_t unit)
    {
        events_ = { &events, node, unit, TraceUnitKind::Router };
    }

    /**
     * Start classifying every connected output port's cycles into stall
     * classes (see StallClass). Idempotent; totals accumulate from the
     * first call, and for each connected port the class totals sum
     * exactly to the cycles sampled.
     */
    void enableStallSampling();

    /** Accumulated stall attribution, or null when sampling is off
     * (settled up to the router's last tick; see settleIdle). */
    const RouterStallSampler *stallSampler() const { return stalls_.get(); }

    const RouterConfig &config() const { return cfg_; }
    std::uint64_t flitsRouted() const { return flits_routed_; }

    // --- free-running counts (not checkpointed): the metrics export
    // reports them relative to the attach or last reset ----------------

    /** Flits received on input @p port. */
    std::uint64_t flitsIn(int port) const { return in_[port].flits; }
    /** Output arbitration grants. */
    std::uint64_t sa2Grants() const { return sa2_grants_; }
    /** Requests beaten at output arbitration. */
    std::uint64_t sa2Losses() const { return sa2_losses_; }
    /** Cycles a VC's head sat routed but short of downstream credits. */
    std::uint64_t vaCreditStalls() const { return va_credit_stalls_; }

    // --- runtime-auditor probes (all read-only) -----------------------

    bool inConnected(int port) const { return in_[port].ch != nullptr; }
    bool outConnected(int port) const { return out_[port].ch != nullptr; }
    const Channel *outChannel(int port) const { return out_[port].ch; }
    const VcBuffer &inputBuffer(int port, int vc) const
    {
        return in_[port].vcs[vc];
    }
    const CreditCounter &outCredits(int port) const
    {
        return out_[port].credits;
    }

    /** Flits of the packet granted output @p port that are still in the
     * input buffer (credits already consumed for them - the VCT
     * reservation term of the credit-conservation sum). */
    int outReservedFlits(int port, int vc) const;

    /** A head flit persistently blocked on downstream credits. */
    struct BlockedHead
    {
        int in_port = -1;
        int in_vc = -1;
        int out_port = -1;
        int out_vc = -1;
        PacketPtr pkt = nullptr;
    };

    /** Collect every routed head whose VA/SA is blocked purely by missing
     * downstream credits - the router's waits-for edges. */
    void collectBlockedHeads(std::vector<BlockedHead> &out) const;

    /**
     * Checkpoint field list: every field that carries across cycles -
     * per-input VC buffers and drain state, per-output grant/credit
     * state, arbiter fairness state, and the SA1 winners consumed by
     * next cycle's SA2. (The attached channels are checkpointed by their
     * owner.) A restore checks grants against buffers and rebuilds the
     * live-state masks.
     */
    void fields(CkptArchive &ar);

    /** True if RC at this router has a connected port for @p pkt. */
    bool routable(const Packet &pkt) const;

  private:
    struct InPort
    {
        Channel *ch = nullptr;
        VcBuffer *vcs = nullptr;    ///< num_vcs buffers in bufs_
        std::uint64_t flits = 0;    ///< flits received
        std::uint32_t nonempty = 0; ///< bit v set iff vcs[v] holds packets
        // RC/VA work inside the lookahead window (the first kLookahead
        // entries of each VC), so those stages visit only VCs that have
        // some. Bit v set iff the window of vcs[v] holds an entry that
        std::uint32_t rc_pending = 0; ///< is unrouted
        std::uint32_t va_pending = 0; ///< is routed but not VC-allocated
    };

    struct OutPort
    {
        Channel *ch = nullptr;
        /** SA2 grant cycle of the packet draining through this output:
         * a granted head owns its output until its tail leaves, so one
         * grant cycle per output serves the hop span. */
        Cycle granted_at = 0;
        CreditCounter credits;
        int src_port = -1;
        int src_vc = -1;
        std::uint8_t out_vc = 0;
    };
    static_assert(sizeof(InPort) <= 40 && sizeof(OutPort) <= 64);

    /** Input p's data wire rings doorbell bit p; output o's returning
     * credit wire rings bit kCreditBell + o. */
    static constexpr unsigned kCreditBell = 16;
    static_assert(kMaxPorts <= static_cast<int>(kCreditBell));

    /** Entries per VC that RC and VA look at: the packets behind the
     * head proceed through RC and VA while the head drains, so
     * back-to-back packets on one VC do not restart the pipeline. */
    static constexpr std::size_t kLookahead = 4;

    void receive(Cycle now);
    void stageRc(Cycle now);
    void stageVa(Cycle now);
    void stageSa1(Cycle now);
    void stageSa2(Cycle now);
    void stageSt(Cycle now);
    void sampleStalls();
    /** What @p slept idle ticks would have recorded. */
    void bookIdle(Cycle slept);
    /** Recompute VC @p v of input @p p's RC/VA pending bits (and the
     * port masks) from the entries in its lookahead window. */
    void refreshPending(int p, int v);
    /** Recompute the live-state masks from the buffers and grants
     * (after a checkpoint restore). */
    void rebuildLiveState();

    /** The router's ports: the first num_ports slots of the arrays. */
    std::size_t numPorts() const
    {
        return static_cast<std::size_t>(cfg_.num_ports);
    }
    std::span<const InPort> inPorts() const
    {
        return std::span(in_).first(numPorts());
    }

    RouterConfig cfg_;
    const RouteTable &routes_;
    int id_;              ///< this router's row in routes_
    int vcs_per_class_;   ///< VCs per traffic class (full VC index)
    /** Every input's VC buffers in one block, port-major. */
    std::unique_ptr<VcBuffer[]> bufs_;
    std::array<InPort, kMaxPorts> in_{};
    std::array<OutPort, kMaxPorts> out_{};
    std::array<RoundRobinArbiter, kMaxPorts> sa1_; ///< per input port
    std::array<PortArbiter, kMaxPorts> sa2_;       ///< per output port
    std::array<int, kMaxPorts> sa1_winner_;        ///< vc per input, -1
    Doorbell bell_;                 ///< arrivals on the in/credit wires
    RouterEnergyMeter *energy_ = nullptr;
    ScalarStat *occupancy_ = nullptr;        ///< see sampleOccupancy
    std::vector<ScalarStat *> vc_occupancy_; ///< per VC, or empty
    EventBinding events_;
    std::unique_ptr<RouterStallSampler> stalls_;

    // --- live state: each stage visits only these -------------------
    std::uint32_t live_in_ = 0;   ///< bit p: in_[p] holds packets
    std::uint32_t draining_ = 0;  ///< bit p: in_[p] is crossing the switch
    std::uint32_t busy_out_ = 0;  ///< bit o: out_[o] is granted
    std::uint32_t sa1_mask_ = 0;  ///< bit p: sa1_winner_[p] >= 0
    std::uint32_t rc_ports_ = 0;  ///< bit p: in_[p].rc_pending != 0
    std::uint32_t va_ports_ = 0;  ///< bit p: in_[p].va_pending != 0

    std::uint32_t st_sent_mask_ = 0; ///< bit o: port o sent a flit this cycle
    std::uint64_t flits_routed_ = 0;
    std::uint64_t sa2_grants_ = 0;
    std::uint64_t sa2_losses_ = 0;
    std::uint64_t va_credit_stalls_ = 0;
    int buffered_packets_ = 0;
    /** First cycle neither ticked nor settled (kNoCycle before the first
     * tick and after a restore: nothing to settle). */
    Cycle idle_from_ = kNoCycle;
};

} // namespace anton2
