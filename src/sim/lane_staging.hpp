/**
 * @file
 * Per-lane staging for side effects made in the engine's parallel phase.
 *
 * A lane that ticks its shards must not touch state other lanes share,
 * so it appends what it would have done to its own buffer, and the
 * serial context drains every buffer in lane order. Lanes hold
 * contiguous shard ranges in registration order, so lane order is the
 * serial order, and the drained stream does not depend on the thread
 * count. One template serves every such stream:
 *
 *  - cross-shard wakes (sim/wake.hpp), entered into their calendars at
 *    the next window boundary;
 *  - releases of packet records homed on another chip
 *    (noc/packet_slab.hpp), applied in the serial replay;
 *  - packet events for the trace ring and the flow probe
 *    (trace/trace.hpp), one buffer per cycle offset of the window, so
 *    the serial replay drains one simulated cycle at a time.
 */
#pragma once

#include <cassert>
#include <cstddef>
#include <vector>

namespace anton2 {

namespace par {
// Declared in sim/thread_pool.hpp: the calling thread's lane index
// during the engine's parallel phase, or -1 on the serial path.
int currentLane();
} // namespace par

/** One append buffer per engine lane for items of type @p T. */
template <typename T>
class LaneBuffer
{
  public:
    /** Hold @p lanes buffers (at least one). Drain first: items still
     * held are dropped. */
    void
    configure(std::size_t lanes)
    {
        lanes_.assign(lanes < 1 ? 1 : lanes, Lane{});
    }

    /** Append @p item from lane @p lane, on that lane's thread (-1, the
     * serial path, appends to lane 0). */
    void
    push(int lane, const T &item)
    {
        const std::size_t i = lane < 0 ? 0 : static_cast<std::size_t>(lane);
        assert(i < lanes_.size() && "staging not configured for this lane");
        lanes_[i].items.push_back(item);
    }

    /** Hand every item to @p apply, lane by lane in lane order, and
     * clear the buffers (serial context only). */
    template <typename Apply>
    void
    drain(Apply &&apply)
    {
        for (Lane &lane : lanes_) {
            for (const T &item : lane.items)
                apply(item);
            lane.items.clear();
        }
    }

    /** Drop every item (a checkpoint restore starts clean). */
    void
    clear()
    {
        for (Lane &lane : lanes_)
            lane.items.clear();
    }

  private:
    /** Padded so concurrent lanes never share the cache line their
     * push_back writes. */
    struct alignas(64) Lane
    {
        std::vector<T> items;
    };
    std::vector<Lane> lanes_{ 1 };
};

} // namespace anton2
