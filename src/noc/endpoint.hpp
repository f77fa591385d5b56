/**
 * @file
 * Endpoint adapter (Sections 2.1, 4.3).
 *
 * Endpoint adapters connect compute resources to the on-chip network. The
 * programming model is global distributed memory: remote writes (the common
 * case), remote reads with replies in a separate traffic class, and
 * counted-write synchronization that dispatches a software handler when a
 * counter of expected writes reaches zero.
 *
 * Endpoint adapters implement one VC per traffic class (Section 4.4); the
 * ejection side is a pure sink (it always drains), so it is trivially
 * deadlock-free.
 */
#pragma once

#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "noc/channel.hpp"
#include "noc/packet.hpp"
#include "sim/component.hpp"
#include "trace/trace.hpp"

namespace anton2 {

class Router;

/**
 * A FIFO of packets on a power-of-two ring that allocates nothing until
 * its first push (an empty std::deque allocates its map and a 512-byte
 * node at construction) and doubles when full.
 */
class PacketFifo
{
  public:
    bool empty() const { return size_ == 0; }
    std::size_t size() const { return size_; }
    PacketPtr front() const { return ring_[head_]; }

    /** Element @p i from the front. */
    PacketPtr &operator[](std::size_t i)
    {
        return ring_[(head_ + i) & (cap_ - 1)];
    }
    const PacketPtr &operator[](std::size_t i) const
    {
        return ring_[(head_ + i) & (cap_ - 1)];
    }

    void
    push_back(PacketPtr p)
    {
        if (size_ == cap_)
            grow();
        ring_[(head_ + size_) & (cap_ - 1)] = p;
        ++size_;
    }

    void
    pop_front()
    {
        head_ = (head_ + 1) & (cap_ - 1);
        --size_;
    }

    /** Drop elements from the back or append null ones (a restore
     * resizes, then assigns each element). */
    void
    resize(std::size_t n)
    {
        while (size_ > n)
            --size_;
        while (size_ < n)
            push_back(nullptr);
    }

  private:
    void grow();

    std::unique_ptr<PacketPtr[]> ring_;
    std::uint32_t cap_ = 0; ///< 0 or a power of two
    std::uint32_t head_ = 0;
    std::uint32_t size_ = 0;
};

struct EndpointConfig
{
    int num_vcs = 8; ///< VC indices used on the router link
};

class EndpointAdapter final : public Component
{
  public:
    /**
     * Called for every fully delivered packet with the cycle its head
     * flit arrived and the delivery cycle; the packet is released after
     * the side effects (the pointer is valid for the call only).
     */
    using DeliverFn =
        std::function<void(const PacketPtr &, Cycle head_at, Cycle now)>;
    /**
     * Called when a counted-write counter fires (reaches zero), modeling
     * the hardware handler-dispatch mechanism of [15].
     */
    using HandlerFn = std::function<void(std::int32_t counter, Cycle)>;
    /** Called for an arriving read request; must produce the reply. */
    using ReadFn = std::function<void(const PacketPtr &, Cycle)>;

    /** @throws std::invalid_argument for more than
     * CreditCounter::kMaxVcs VCs. */
    EndpointAdapter(const EndpointConfig &cfg, EndpointAddr addr);

    void connectRouterOut(Channel &ch, int router_buf_flits);
    void connectRouterIn(Channel &ch);

    void tick(Cycle now) override;
    bool busy() const override;

    /** True while the endpoint has a packet to inject. Arrivals wake it
     * through its doorbell, and inject() wakes it. */
    bool
    hasWork() const
    {
        return inj_active_ != nullptr || !inject_q_[0].empty()
               || !inject_q_[1].empty();
    }

    /** Bind the endpoint's place in its engine shard (Engine::addWakeable). */
    void setWake(WakeHandle h) { bell_.setWake(h); }

    /**
     * Queue a packet for injection and wake the endpoint for the next
     * cycle its shard ticks. The packet must have its route fields
     * (route, vc policy, chip_exit) prepared; Machine's packet factory
     * does this. Injection queues model software send descriptors and are
     * unbounded; drivers use injectQueueDepth() for self-throttling.
     * Call between cycles or from the engine's serial phase.
     */
    void inject(const PacketPtr &pkt);

    std::size_t injectQueueDepth(TrafficClass tc) const;

    /** Arm a counted-write counter: handler fires after @p count writes. */
    void armCounter(std::int32_t counter, int count);

    /**
     * Defer delivery side effects out of tick() into flushDeliveries(),
     * setting bit @p bit of @p staged each time a delivery is staged.
     * The side effects touch machine-global state (shared ScalarStats,
     * the machine RNG via the packet factory, software handlers), so a
     * Machine - whose engine may tick chips on several threads - defers
     * them and drains the endpoints whose bit is set from the engine's
     * serial phase in registration order; that one canonical order is
     * what makes threaded runs byte-identical to serial ones. The word
     * must only be shared with endpoints of the same engine shard.
     * Standalone adapters (unit tests) keep the default inline dispatch.
     */
    void
    deferDeliveries(std::uint64_t &staged, unsigned bit)
    {
        staged_ = &staged;
        staged_bit_ = std::uint64_t{ 1 } << bit;
    }

    /**
     * Run the deferred side effects of every packet that finished
     * reassembly at or before cycle @p up_to: the flow-matrix record,
     * the delivery callback, read-reply generation, and counted-write
     * handler dispatch; then release the packet. The
     * engine's serial replay calls this (via Machine) on each simulated
     * cycle with that cycle, for every endpoint holding staged
     * deliveries, so in a lookahead window the deliveries of several
     * cycles, staged during the parallel phase, replay in exact
     * per-cycle order. The default flushes everything (legacy window-1
     * behavior).
     */
    void flushDeliveries(Cycle up_to = kNoCycle);

    bool hasPendingDeliveries() const { return !pending_.empty(); }

    /**
     * Start emitting packet events into @p events, stamped with this
     * endpoint's address: at each injection grant one inject record,
     * which is also the packet's source-queueing hop span, and an eject
     * record at full reassembly. With a flow probe on the stream, the
     * serial delivery flush also closes each unicast packet's flight
     * into its flow-matrix cell.
     */
    void
    bindEvents(PacketEventStream &events)
    {
        events_ = { &events, static_cast<std::int32_t>(addr_.node),
                    static_cast<std::int16_t>(addr_.ep),
                    TraceUnitKind::Endpoint };
    }

    void setDeliverFn(DeliverFn fn) { deliver_fn_ = std::move(fn); }
    void setHandlerFn(HandlerFn fn) { handler_fn_ = std::move(fn); }
    void setReadFn(ReadFn fn) { read_fn_ = std::move(fn); }

    const EndpointAddr &addr() const { return addr_; }
    /** Delivered packets whose side effects have run. */
    std::uint64_t delivered() const { return delivered_; }
    std::uint64_t injected() const { return injected_; }
    Cycle lastDeliveryTime() const { return last_delivery_; }

    // --- runtime-auditor probes (all read-only) -----------------------

    /** Flits placed onto the endpoint->router channel, ever. */
    std::uint64_t flitsInjected() const { return flits_injected_; }
    /** Flits taken off the router->endpoint channel, ever. */
    std::uint64_t flitsEjected() const { return flits_ejected_; }

    const CreditCounter &routerCredits() const { return router_credits_; }
    const Channel *toRouter() const { return to_router_; }

    /** Unsent flits of the packet being streamed into the router on VC
     * @p vc (reservation against router_credits_). */
    int injectReservedFlits(int vc) const;

    /** Packets queued or streaming, not yet fully on the wire. */
    std::size_t pendingInjections() const
    {
        return inject_q_[0].size() + inject_q_[1].size()
               + (inj_active_ != nullptr ? 1 : 0);
    }

    /** Injection cycle of the oldest packet being reassembled or
     * streamed (kNoCycle if none). */
    Cycle oldestBirth() const;

    /**
     * Checkpoint field list: queues, streaming state, reassembly slots,
     * armed counters, and the delivery/injection tallies. Runs at a
     * window boundary (no staged deliveries pending). A restore checks
     * that @p to_router routes every packet still to be injected.
     */
    void fields(CkptArchive &ar, const Router &to_router);

  private:
    void tickInject(Cycle now, std::uint32_t rung);
    void tickEject(Cycle now, std::uint32_t rung);

    /** Doorbell bits of the two router-link wires this adapter
     * receives from. */
    static constexpr unsigned kCreditBell = 0;
    static constexpr unsigned kEjectBell = 1;
    void deliverSideEffects(PacketPtr pkt, Cycle head_at, Cycle now);

    EndpointConfig cfg_;
    EndpointAddr addr_;

    Channel *to_router_ = nullptr;
    Channel *from_router_ = nullptr;
    CreditCounter router_credits_;
    Doorbell bell_;

    /** Per-traffic-class software injection queues. */
    PacketFifo inject_q_[kNumTrafficClasses];
    int next_class_ = 0; ///< round-robin between the classes
    /** In-flight injection (flit streaming). */
    PacketPtr inj_active_ = nullptr;
    std::uint16_t inj_sent_ = 0;

    /** Reassembly of the (at most one per VC) arriving packet. */
    struct EjectSlot
    {
        PacketPtr pkt = nullptr;
        std::uint16_t arrived = 0;
        Cycle head_at = 0; ///< head-flit arrival (latency breakdown)
    };
    std::vector<EjectSlot> eject_;

    /** A delivery completed during tick(), awaiting flushDeliveries(). */
    struct PendingDelivery
    {
        PacketPtr pkt = nullptr;
        Cycle head_at = 0;
        Cycle at = 0;
    };
    std::vector<PendingDelivery> pending_;
    /** Deferred mode: the word and bit flagging staged deliveries. */
    std::uint64_t *staged_ = nullptr;
    std::uint64_t staged_bit_ = 0;

    std::unordered_map<std::int32_t, int> counters_;

    DeliverFn deliver_fn_;
    HandlerFn handler_fn_;
    ReadFn read_fn_;

    std::uint64_t delivered_ = 0;
    std::uint64_t injected_ = 0;
    std::uint64_t flits_injected_ = 0;
    std::uint64_t flits_ejected_ = 0;
    Cycle last_delivery_ = 0;
    EventBinding events_;
};

} // namespace anton2
