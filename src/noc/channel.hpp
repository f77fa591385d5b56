/**
 * @file
 * Physical channel bundles (data + reverse credit wires) and credit
 * bookkeeping for virtual cut-through flow control.
 */
#pragma once

#include <cassert>
#include <cstdint>
#include <vector>

#include "noc/packet.hpp"
#include "sim/wire.hpp"

namespace anton2 {

class CkptArchive;

/**
 * A unidirectional channel: a data wire carrying one phit per cycle and a
 * reverse wire returning one credit per cycle.
 */
struct Channel
{
    /** @param slack Extra ring depth for cross-shard channels ticked in
     * lookahead windows (see Wire); both directions get it, since data
     * and credits each cross the shard boundary. */
    explicit Channel(Cycle data_latency = 1, Cycle credit_latency = 1,
                     Cycle slack = 0)
        : data(data_latency, slack), credit(credit_latency, slack)
    {
    }

    Wire<Phit> data;
    Wire<Credit> credit;

    bool busy() const { return data.busy() || credit.busy(); }

    /** Checkpoint field list: both wires (in-flight phits and credits
     * on @p vcs VCs). */
    void fields(CkptArchive &ar, int vcs);
};

/** Phits in flight on @p w for VC @p vc (runtime-audit probe). */
inline int
inFlightPhits(const Wire<Phit> &w, int vc)
{
    int n = 0;
    w.forEachInFlight([&](const Phit &p) {
        if (static_cast<int>(p.vc) == vc)
            ++n;
    });
    return n;
}

/** Credits in flight on @p w for VC @p vc (runtime-audit probe). */
inline int
inFlightCredits(const Wire<Credit> &w, int vc)
{
    int n = 0;
    w.forEachInFlight([&](const Credit &c) {
        if (static_cast<int>(c.vc) == vc)
            ++n;
    });
    return n;
}

/**
 * Upstream-side credit counters for one output channel: tracks free flit
 * slots per VC in the downstream input buffer.
 */
class CreditCounter
{
  public:
    void
    init(int num_vcs, int slots_per_vc)
    {
        credits_.assign(static_cast<std::size_t>(num_vcs), slots_per_vc);
        initial_ = slots_per_vc;
    }

    /** Per-VC depth this counter was initialized with (audit probe). */
    int initialPerVc() const { return initial_; }

    int
    available(int vc) const
    {
        return credits_[static_cast<std::size_t>(vc)];
    }

    /** Reserve @p flits slots at packet-grant time (VCT allocation). */
    void
    consume(int vc, int flits)
    {
        auto &c = credits_[static_cast<std::size_t>(vc)];
        assert(c >= flits);
        c -= flits;
    }

    /** One slot freed downstream. */
    void
    release(int vc)
    {
        ++credits_[static_cast<std::size_t>(vc)];
    }

    int numVcs() const { return static_cast<int>(credits_.size()); }

    /** Free downstream slots summed over all VCs (telemetry probe). */
    int
    totalAvailable() const
    {
        int total = 0;
        for (int c : credits_)
            total += c;
        return total;
    }

    /** Checkpoint field list: the per-VC counter values. */
    void fields(CkptArchive &ar);

  private:
    std::vector<int> credits_;
    int initial_ = 0;
};

/**
 * A per-VC input buffer holding virtual-cut-through packets at flit
 * granularity. Packets are queued whole; `arrived` tracks cut-through
 * progress so a packet can begin leaving before its tail arrives.
 */
class VcBuffer
{
  public:
    struct Entry
    {
        PacketPtr pkt = nullptr;
        std::uint16_t arrived = 0; ///< flits received so far
        std::uint16_t sent = 0;    ///< flits forwarded so far
        Cycle head_at = 0;         ///< cycle the packet became buffer head

        // --- router pipeline state (unused by adapters) ----------------
        bool routed = false;
        bool va_done = false;
        int out_port = -1;
        std::uint8_t out_vc = 0;
        Cycle routed_at = 0;
        Cycle va_at = 0;
        bool granted = false;
        Cycle granted_at = 0;
    };

    void
    init(int capacity_flits)
    {
        capacity_ = capacity_flits;
    }

    int capacity() const { return capacity_; }
    int occupancy() const { return occupancy_; }
    bool empty() const { return entries_.empty(); }

    /** Accept one incoming flit (a head flit enqueues its packet). */
    void
    acceptFlit(const Phit &phit, Cycle now)
    {
        if (phit.head) {
            Entry &e = entries_.emplace_back();
            e.pkt = phit.pkt;
            e.head_at = now;
        }
        assert(!entries_.empty());
        ++entries_.back().arrived;
        ++occupancy_;
        assert(occupancy_ <= capacity_);
    }

    Entry &head() { return entries_.front(); }
    const Entry &head() const { return entries_.front(); }

    /** Record one flit leaving the head packet; frees one slot. */
    void
    sendFlit()
    {
        assert(!entries_.empty());
        auto &e = entries_.front();
        assert(e.sent < e.arrived);
        ++e.sent;
        --occupancy_;
    }

    /**
     * Pop the head packet once fully forwarded. The next entry keeps its
     * arrival timestamp (and any pipeline progress made via lookahead), so
     * back-to-back packets do not restart the pipeline.
     */
    void
    popHead(Cycle now)
    {
        assert(!entries_.empty());
        assert(entries_.front().sent == entries_.front().pkt->size_flits);
        entries_.erase(entries_.begin());
        (void)now;
    }

    std::size_t packetCount() const { return entries_.size(); }

    /** Entry @p i from the head (for pipeline lookahead). */
    Entry &entry(std::size_t i) { return entries_[i]; }
    const Entry &entry(std::size_t i) const { return entries_[i]; }

    /** Checkpoint field list: all entries including pipeline progress
     * (output ports below @p ports, VCs below @p vcs). */
    void fields(CkptArchive &ar, int ports, int vcs);

  private:
    std::vector<Entry> entries_;
    int capacity_ = 0;
    int occupancy_ = 0;
};

} // namespace anton2
