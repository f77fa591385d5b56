/**
 * @file
 * Fixed-latency, single-value-per-cycle communication channels, and the
 * arrival doorbells that let a receiver take only the wires that
 * delivered.
 *
 * All inter-component communication in the simulator flows through Wire<T>
 * delay lines with latency >= 1 cycle. Because a value sent at cycle t is
 * visible no earlier than cycle t+1, components may be evaluated in any
 * order within a cycle and the simulation remains deterministic.
 *
 * Doorbells follow a same-shard rule. A wire may ring a Doorbell in its
 * receiver only when sender and receiver tick on the same engine shard
 * (one lane, strictly cycle by cycle), and only when its latency is below
 * kDoorbellSlots. Then every send sets the wire's bit in the receiver's
 * arrival mask for the delivery cycle, and the receiver reads one mask
 * per tick instead of polling each wire. Inside a chip every wire
 * qualifies. The torus wires cross shards: their senders tick on other
 * threads, up to a lookahead window ahead, so they never touch the mask.
 * They only wake their receivers, through a wake staged on the sending
 * lane, and the receivers poll them while awake.
 *
 * Either way the doorbell carries its owner's WakeHandle, so every
 * delivery also wakes the receiver for its arrival cycle (sim/wake.hpp).
 */
#pragma once

#include <array>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "sim/types.hpp"
#include "sim/wake.hpp"

namespace anton2 {

/**
 * Cycles one doorbell ring covers. A receiver reads the mask of cycle t
 * after same-shard senders may already have rung t+latency for sends
 * made at t; the two slots must differ, so a doorbell serves latencies
 * up to kDoorbellSlots - 1. Sized as the smallest power of two above the
 * largest on-chip latency (the 2-cycle skip channels).
 */
inline constexpr Cycle kDoorbellSlots = 4;

/** Largest wire latency a doorbell can serve. */
inline constexpr Cycle kMaxDoorbellLatency = kDoorbellSlots - 1;

/**
 * A receiver's per-cycle arrival masks. Bit b of the mask for cycle c is
 * set iff the wire attached as bit b holds a value deliverable at c.
 * Every ring also wakes the receiver for the delivery cycle.
 */
class Doorbell
{
  public:
    /** Record a delivery at cycle @p at on the wire attached as @p bit. */
    void
    ring(Cycle at, unsigned bit)
    {
        slots_[index(at)] |= 1u << bit;
        wake_.at(at);
    }

    /** Wake the receiver for a delivery at @p at on a wire from another
     * shard (no mask bit: the receiver polls such wires while awake). */
    void ringRemote(Cycle at) { wake_.staged(at); }

    /** Bind the receiver's place in its engine shard (see WakeHandle). */
    void setWake(WakeHandle h) { wake_ = h; }
    const WakeHandle &wake() const { return wake_; }

    /** Return and clear the arrival mask of cycle @p now. */
    std::uint32_t
    take(Cycle now)
    {
        std::uint32_t &slot = slots_[index(now)];
        const std::uint32_t rung = slot;
        slot = 0;
        return rung;
    }

    /** Clear @p bit in every cycle's mask, leaving the other bits. */
    void
    clear(unsigned bit)
    {
        for (std::uint32_t &slot : slots_)
            slot &= ~(1u << bit);
    }

  private:
    static std::size_t
    index(Cycle c)
    {
        return static_cast<std::size_t>(c & (kDoorbellSlots - 1));
    }

    std::array<std::uint32_t, kDoorbellSlots> slots_{};
    WakeHandle wake_;
};

/**
 * A unidirectional delay line carrying at most one value of type T per
 * cycle. Values sent at cycle t are receivable exactly at cycle t+latency.
 *
 * Implemented as a power-of-two ring of {delivery cycle, value} slots
 * indexed by the delivery cycle's low bits. The cycle tag keeps a value
 * from being read at an aliasing cycle when its receiver skipped cycles.
 */
template <typename T>
class Wire
{
  public:
    /**
     * @param latency Delivery delay in cycles; must be >= 1 (checked in
     *        every build: a zero-latency wire would make evaluation
     *        order observable).
     * @param slack Extra ring slots beyond latency+1. A wire crossing
     *        engine shards that tick in lookahead windows of up to w
     *        cycles needs slack >= w-1: the sender may run w cycles ahead
     *        of the receiver within one window, so up to latency+w
     *        deliveries are live at once. Intra-shard wires (strictly
     *        cycle-by-cycle on one lane) keep the default 0.
     */
    explicit Wire(Cycle latency = 1, Cycle slack = 0)
        : latency_(checkedLatency(latency)),
          slots_(std::bit_ceil(static_cast<std::size_t>(latency + slack)
                               + 1)),
          mask_(slots_.size() - 1)
    {
    }

    Cycle latency() const { return latency_; }

    /**
     * Ring @p bell's bit @p bit on every delivery from now on (see the
     * same-shard rule in the file comment). Values already in flight
     * ring too.
     */
    void
    attachDoorbell(Doorbell &bell, unsigned bit)
    {
        if (latency_ > kMaxDoorbellLatency)
            throw std::invalid_argument(
                "wire latency " + std::to_string(latency_)
                + " exceeds the doorbell ring (max "
                + std::to_string(kMaxDoorbellLatency) + ")");
        assert(bit < 32);
        bell_ = &bell;
        bell_bit_ = bit;
        for (const Slot &s : slots_) {
            if (s.at != kNoCycle)
                bell_->ring(s.at, bell_bit_);
        }
    }

    /**
     * Wake @p bell's owner on every delivery from now on, for a wire
     * whose sender ticks on another shard: each send stages the wake on
     * the sending lane instead of ringing a mask bit (see the file
     * comment), and the owner polls this wire while awake. Attach before
     * the first send (restored values wake the owner through
     * restoreSlot); these rings are long, so they are not scanned.
     */
    void
    attachRemote(Doorbell &bell)
    {
        assert(!busy() && "attach a remote doorbell before sending");
        bell_ = &bell;
        bell_bit_ = kRemoteBit;
    }

    /**
     * Send a value at cycle @p now; it becomes visible at now+latency.
     * At most one value may be sent per cycle.
     */
    void
    send(Cycle now, T value)
    {
        const Cycle at = now + latency_;
        Slot &s = slots_[index(at)];
        assert(s.at == kNoCycle && "wire driven twice in one cycle");
        s.at = at;
        s.value = std::move(value);
        if (bell_ != nullptr)
            ring(at);
    }

    /** True if a value is deliverable at cycle @p now. */
    bool
    pending(Cycle now) const
    {
        return slots_[index(now)].at == now;
    }

    /** Consume and return the value deliverable at cycle @p now, if any. */
    std::optional<T>
    take(Cycle now)
    {
        Slot &s = slots_[index(now)];
        if (s.at != now)
            return std::nullopt;
        s.at = kNoCycle;
        return std::optional<T>(std::move(s.value));
    }

    /**
     * True if any value is still in flight anywhere in the delay line.
     * Used for quiescence detection; O(ring size).
     */
    bool
    busy() const
    {
        for (const Slot &s : slots_) {
            if (s.at != kNoCycle)
                return true;
        }
        return false;
    }

    /**
     * Visit every value still in flight, in unspecified order. Read-only:
     * the runtime auditor uses this to count in-transit flits and credits
     * for its conservation checks; O(ring size).
     */
    template <typename Fn>
    void
    forEachInFlight(Fn &&fn) const
    {
        for (const Slot &s : slots_) {
            if (s.at != kNoCycle)
                fn(s.value);
        }
    }

    /**
     * Visit every in-flight value with its absolute delivery cycle, in
     * ring order. The ring order is a pure function of the delivery
     * cycles (slot index = cycle mod ring size), so it is deterministic
     * across runs; checkpointing iterates with this.
     */
    template <typename Fn>
    void
    forEachSlot(Fn &&fn) const
    {
        for (const Slot &s : slots_) {
            if (s.at != kNoCycle)
                fn(s.at, s.value);
        }
    }

    /** Number of ring slots (latency + slack + 1, rounded up to a power
     * of two); checkpoint invariant. */
    std::size_t ringSlots() const { return slots_.size(); }

    /** Drop every in-flight value and this wire's doorbell bits
     * (checkpoint restore starts clean). */
    void
    clearAll()
    {
        for (Slot &s : slots_)
            s = Slot{};
        if (bell_ != nullptr && bell_bit_ != kRemoteBit)
            bell_->clear(bell_bit_);
    }

    /**
     * Reinstate one in-flight value at its absolute delivery cycle, as
     * recorded by forEachSlot, and ring the doorbell for it. Keeping the
     * absolute cycle keeps the ring index consistent with the restored
     * engine clock. False (and nothing restored) if the slot is taken.
     */
    bool
    restoreSlot(Cycle deliver_at, T value)
    {
        Slot &s = slots_[index(deliver_at)];
        if (s.at != kNoCycle)
            return false;
        s.at = deliver_at;
        s.value = std::move(value);
        if (bell_ != nullptr)
            ring(deliver_at);
        return true;
    }

  private:
    /** bell_bit_ of a wire attached with attachRemote. */
    static constexpr unsigned kRemoteBit = 32;

    struct Slot
    {
        Cycle at = kNoCycle; ///< delivery cycle; kNoCycle when empty
        T value{};
    };

    static Cycle
    checkedLatency(Cycle latency)
    {
        if (latency < 1)
            throw std::invalid_argument("wire latency must be >= 1 "
                                        "(zero-latency wires would make "
                                        "evaluation order-dependent)");
        return latency;
    }

    std::size_t
    index(Cycle c) const
    {
        return static_cast<std::size_t>(c) & mask_;
    }

    void
    ring(Cycle at)
    {
        if (bell_bit_ == kRemoteBit)
            bell_->ringRemote(at);
        else
            bell_->ring(at, bell_bit_);
    }

    Cycle latency_;
    std::vector<Slot> slots_;
    std::size_t mask_;
    Doorbell *bell_ = nullptr;
    unsigned bell_bit_ = 0;
};

} // namespace anton2
