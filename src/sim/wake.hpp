/**
 * @file
 * Exact wake cycles: the per-shard bookkeeping that lets the engine tick
 * only the components that have work.
 *
 * Each engine shard keeps an *awake* bitset over its components and a
 * *wake calendar*: one bitset per cycle, in a power-of-two ring that
 * covers the largest wire latency able to wake a component. Every cycle
 * the shard ticks the union of its awake set and that cycle's calendar
 * bitset, in registration order. A wake-aware component whose tick
 * leaves it without work of its own drops out of the awake set, and
 * sleeps until one of these wakes it:
 *
 *  - an arrival on a same-shard (on-chip) wire: the send rings the
 *    receiver's Doorbell, which also sets the receiver's calendar bit for
 *    the arrival cycle;
 *  - an arrival on a cross-shard (torus) wire: the send stages a
 *    (receiver, arrival cycle) wake in the sending lane's buffer
 *    (sim/lane_staging.hpp). Such wires have latency >= the lookahead
 *    window, so the engine drains the staged wakes into their calendars
 *    at the next window boundary, before the arrival is due;
 *  - work handed over by the serial phase (an endpoint injection), which
 *    sets the awake bit for the next cycle the shard ticks.
 *
 * A slept cycle is one on which the component's tick would have had
 * nothing to do. The little an idle tick still changes (SerDes token
 * accrual, stall attribution) is settled by the component itself when it
 * next ticks or is read, so sleeping is exact.
 */
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/lane_staging.hpp"
#include "sim/types.hpp"

namespace anton2 {

class WakeSet;

/** Calendar rings cover at least this many cycles: enough for every
 * on-chip wire (latency <= kMaxDoorbellLatency, see sim/wire.hpp). */
inline constexpr Cycle kMinWakeSlots = 4;

/** A cross-shard wake staged on the sending lane (in the Engine's
 * LaneBuffer) until the next window boundary enters it into its
 * calendar. 16 bytes: a calendar reads only the low bits of the cycle. */
struct StagedWake
{
    WakeSet *set;
    std::uint32_t index;
    std::uint32_t at_low;
};

/** One shard's awake set and wake calendar (owned by the Engine). */
class WakeSet
{
  public:
    explicit WakeSet(LaneBuffer<StagedWake> &staging) : staging_(&staging)
    {
    }

    /**
     * Cover @p components components and a calendar of @p slots cycles
     * (a power of two). Components added by the call start awake. Only
     * valid while no wake is pending (during registration).
     */
    void resize(std::size_t components, std::size_t slots);

    /** Bitset words per cycle. */
    std::size_t words() const { return words_; }
    std::uint64_t *awake() { return awake_.data(); }
    /** Calendar bitset of cycle @p c; the ticking lane clears it. */
    std::uint64_t *due(Cycle c) { return &calendar_[slot(c)]; }

    /** Wake component @p i for cycle @p at (its own lane, or serial).
     * Only the cycle's low bits matter (calendars are far shorter than
     * 2^32 cycles). */
    void
    wakeAt(Cycle at, std::uint32_t i)
    {
        calendar_[slot(at) + (i >> 6)] |= bitOf(i);
    }

    /** Wake component @p i for an arrival at @p at sent from another
     * shard's lane: staged, merged at the next window boundary. */
    void
    stageAt(Cycle at, std::uint32_t i)
    {
        staging_->push(par::currentLane(),
                       { this, i, static_cast<std::uint32_t>(at) });
    }

    /** Wake component @p i for the next cycle its shard ticks (serial
     * context only). */
    void wakeNow(std::uint32_t i) { awake_[i >> 6] |= bitOf(i); }

    /** Forget every calendar entry and wake every component (restore). */
    void wakeAll();

  private:
    static std::uint64_t
    bitOf(std::uint32_t i)
    {
        return std::uint64_t{ 1 } << (i & 63);
    }

    std::size_t
    slot(Cycle c) const
    {
        return static_cast<std::size_t>(c & mask_) * words_;
    }

    // wakeAt's fields first, on one cache line.
    Cycle mask_ = 0;
    std::size_t words_ = 0;
    std::vector<std::uint64_t> calendar_; ///< slots x words_
    std::vector<std::uint64_t> awake_;
    LaneBuffer<StagedWake> *staging_;
    std::size_t components_ = 0;
};

/**
 * A component's place in its shard's wake bookkeeping, kept in its
 * Doorbell. A default (unbound) handle ignores every wake: a component
 * driven outside an engine shard ticks whenever its driver ticks it.
 */
class WakeHandle
{
  public:
    WakeHandle() = default;
    WakeHandle(WakeSet *set, std::uint32_t index) : set_(set), index_(index)
    {
    }

    /** Wake for cycle @p at, from the component's own shard or the
     * serial context. */
    void
    at(Cycle at) const
    {
        if (set_ != nullptr)
            set_->wakeAt(at, index_);
    }

    /** Wake for an arrival at @p at on a wire from another shard. */
    void
    staged(Cycle at) const
    {
        if (set_ != nullptr)
            set_->stageAt(at, index_);
    }

    /** Wake for the next cycle the shard ticks (serial context only). */
    void
    now() const
    {
        if (set_ != nullptr)
            set_->wakeNow(index_);
    }

  private:
    WakeSet *set_ = nullptr;
    std::uint32_t index_ = 0;
};

} // namespace anton2
