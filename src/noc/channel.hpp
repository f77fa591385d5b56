/**
 * @file
 * Physical channel bundles (data + reverse credit wires) and credit
 * bookkeeping for virtual cut-through flow control.
 */
#pragma once

#include <algorithm>
#include <array>
#include <cassert>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <type_traits>

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
 * slots per VC in the downstream input buffer. The counts live inline
 * (no heap block per channel) as 16-bit values, sized for the 16 VCs
 * routers and adapters accept; Baseline2n's 12 are the most a machine
 * uses.
 */
class CreditCounter
{
  public:
    /** Most VCs one counter tracks (the router and adapter limit). */
    static constexpr int kMaxVcs = 16;

    /** @throws std::invalid_argument for more than kMaxVcs VCs or a
     * depth outside [0, 65535]. */
    void
    init(int num_vcs, int slots_per_vc)
    {
        if (num_vcs < 0 || num_vcs > kMaxVcs || slots_per_vc < 0
            || slots_per_vc > 0xffff)
            throw std::invalid_argument("credit counter holds 0-16 VCs "
                                        "of at most 65535 slots");
        num_vcs_ = static_cast<std::uint8_t>(num_vcs);
        initial_ = static_cast<std::uint16_t>(slots_per_vc);
        credits_.fill(0);
        std::fill_n(credits_.begin(), num_vcs, initial_);
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
        c = static_cast<std::uint16_t>(c - flits);
    }

    /** One slot freed downstream. */
    void
    release(int vc)
    {
        ++credits_[static_cast<std::size_t>(vc)];
    }

    int numVcs() const { return num_vcs_; }

    /** Checkpoint field list: the per-VC counter values (each stored as
     * an int, range-checked against the depth before narrowing). */
    void fields(CkptArchive &ar);

  private:
    std::array<std::uint16_t, kMaxVcs> credits_{};
    std::uint16_t initial_ = 0;
    std::uint8_t num_vcs_ = 0;
};

static_assert(sizeof(CreditCounter) <= 36);

/**
 * A per-VC input buffer holding virtual-cut-through packets at flit
 * granularity. Packets are queued whole; `arrived` tracks cut-through
 * progress so a packet can begin leaving before its tail arrives.
 *
 * The entries are trivially copyable records in one malloc'd array that
 * grows by realloc and pops its head by memmove; nothing is allocated
 * until the first packet arrives.
 */
class VcBuffer
{
  public:
    /** One buffered packet. The router's switch-allocation grant cycle
     * is not here: a granted head owns its output until its tail leaves,
     * so the output keeps it (Router::OutPort). */
    struct Entry
    {
        PacketPtr pkt = nullptr;
        Cycle head_at = 0;   ///< cycle the head flit arrived
        // --- router pipeline state (unused by adapters) ----------------
        Cycle routed_at = 0; ///< RC cycle
        Cycle va_at = 0;     ///< VC-allocation cycle
        std::uint16_t arrived = 0;    ///< flits received so far
        std::uint16_t sent = 0;       ///< flits forwarded so far
        std::uint16_t size_flits = 0; ///< the packet's, copied at arrival
        std::uint8_t pattern = 0;     ///< the packet's, copied at arrival
        std::int8_t out_port = -1;
        std::uint8_t out_vc = 0;
        bool routed = false;
        bool va_done = false;
        bool granted = false;
    };

    /** Largest depth in flits: occupancy and entry counts are 16-bit,
     * and a buffer holds at most one entry more than its depth. */
    static constexpr int kMaxCapacity = 0xfffe;

    VcBuffer() = default;
    VcBuffer(const VcBuffer &) = delete;
    VcBuffer &operator=(const VcBuffer &) = delete;
    ~VcBuffer() { std::free(entries_); }

    /** @throws std::invalid_argument outside [0, kMaxCapacity]. */
    void
    init(int capacity_flits)
    {
        if (capacity_flits < 0 || capacity_flits > kMaxCapacity)
            throw std::invalid_argument("buffer depth outside "
                                        "[0, 65534] flits");
        capacity_ = static_cast<std::uint16_t>(capacity_flits);
    }

    int capacity() const { return capacity_; }
    int occupancy() const { return occupancy_; }
    bool empty() const { return count_ == 0; }

    /** Accept one incoming flit (a head flit enqueues its packet). */
    void
    acceptFlit(const Phit &phit, Cycle now)
    {
        if (phit.head) {
            if (count_ == room_)
                grow(count_ + 1u);
            Entry &e = entries_[count_++];
            e = Entry{};
            e.pkt = phit.pkt;
            e.head_at = now;
            e.size_flits = phit.pkt->size_flits;
            e.pattern = phit.pkt->pattern;
        }
        assert(count_ > 0);
        ++entries_[count_ - 1].arrived;
        ++occupancy_;
        assert(occupancy_ <= capacity_);
    }

    Entry &head() { return entries_[0]; }
    const Entry &head() const { return entries_[0]; }

    /** Record one flit leaving the head packet; frees one slot. */
    void
    sendFlit()
    {
        assert(count_ > 0);
        auto &e = entries_[0];
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
    popHead()
    {
        assert(count_ > 0);
        assert(entries_[0].sent == entries_[0].size_flits);
        --count_;
        std::memmove(static_cast<void *>(entries_), entries_ + 1,
                     count_ * sizeof(Entry));
    }

    std::size_t packetCount() const { return count_; }

    /** Entry @p i from the head (for pipeline lookahead). */
    Entry &entry(std::size_t i) { return entries_[i]; }
    const Entry &entry(std::size_t i) const { return entries_[i]; }

    /**
     * Checkpoint field list: all entries including pipeline progress
     * (output ports below @p ports, VCs below @p vcs). The v4 image
     * keeps a grant cycle in every entry: @p head_grant is written for a
     * granted head and 0 for every other entry, and a restore sets it
     * from the granted head's slot (0 when the head is not granted).
     * Occupancy and the entry count are range-checked against the depth
     * before they are narrowed.
     */
    void fields(CkptArchive &ar, int ports, int vcs, Cycle &head_grant);

  private:
    /** Make room for at least @p n entries. */
    void grow(std::size_t n);

    Entry *entries_ = nullptr; ///< malloc'd, room_ slots
    std::uint16_t count_ = 0;  ///< live entries, the head first
    std::uint16_t room_ = 0;
    std::uint16_t capacity_ = 0; ///< depth in flits
    std::uint16_t occupancy_ = 0;
};

static_assert(std::is_trivially_copyable_v<VcBuffer::Entry>);
static_assert(sizeof(VcBuffer::Entry) <= 48);
static_assert(sizeof(VcBuffer) <= 16);

} // namespace anton2
