/**
 * @file
 * Per-(lane, cycle-offset) staging for records emitted from the engine's
 * parallel phase, shared by the trace sink and the flow probe.
 *
 * One sink is shared by every component, so when the engine ticks shards
 * on several lanes (or one lane several cycles between barriers), a
 * record emitted on a lane goes into a bucket keyed by (lane, record
 * cycle modulo the window depth) instead of the sink's store. The
 * serial replay then merges one simulated cycle at a time, draining that
 * cycle's bucket of every lane in lane order - the exact (cycle-major,
 * registration-order) stream a serial window-1 run would have produced,
 * so exports are byte-identical at any thread count and window.
 */
#pragma once

#include <cassert>
#include <cstddef>
#include <vector>

#include "sim/types.hpp"

namespace anton2 {

namespace par {
// Declared in sim/thread_pool.hpp: the calling thread's lane index
// during the engine's parallel phase, or -1 on the serial path.
int currentLane();
} // namespace par

/** Staging buckets for records of type @p Record (which carries a
 * `cycle` member). */
template <typename Record>
class LaneStaging
{
  public:
    /**
     * Size the buckets: one per cycle offset for each of @p lanes lanes.
     * @p window_depth is the largest lookahead window the engine may
     * run, so `cycle % depth` is distinct within any one window. Staged
     * records are dropped; reconfigure between windows.
     */
    void
    configure(std::size_t lanes, std::size_t window_depth)
    {
        depth_ = window_depth < 1 ? 1 : window_depth;
        staged_.assign(lanes, std::vector<std::vector<Record>>(depth_));
    }

    /** Stage @p r from lane @p lane (its own thread only). */
    void
    stage(int lane, const Record &r)
    {
        assert(static_cast<std::size_t>(lane) < staged_.size()
               && "staging not configured for this many lanes");
        staged_[static_cast<std::size_t>(lane)]
               [static_cast<std::size_t>(r.cycle % depth_)]
                   .push_back(r);
    }

    /** Hand cycle @p cycle's records to @p apply in lane order and clear
     * them (serial replay only). */
    template <typename Apply>
    void
    merge(Cycle cycle, Apply &&apply)
    {
        const auto bucket = static_cast<std::size_t>(cycle % depth_);
        for (auto &lane : staged_) {
            auto &records = lane[bucket];
            for (const Record &r : records)
                apply(r);
            records.clear();
        }
    }

  private:
    std::size_t depth_ = 1;
    /** One bucket per (lane, cycle % depth_); a bucket is only touched
     * by its lane's thread during the parallel phase and drained by the
     * serial replay between windows. */
    std::vector<std::vector<std::vector<Record>>> staged_;
};

} // namespace anton2
