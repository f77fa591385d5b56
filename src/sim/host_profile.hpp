/**
 * @file
 * Engine self-profiling: host wall-clock attribution for the
 * lookahead-window execution loop.
 *
 * The ROADMAP's "make the engine actually fast" item needs to know
 * *where host time goes* before any further scheduling or layout work:
 * is a thread count unprofitable because of barrier overhead, because
 * one shard straggles, because the serial replay tail dominates, or
 * because one component class (the suspected arbiter scan in Router)
 * burns the cycles? The EngineProfiler answers all four with one
 * opt-in layer:
 *
 *  - Per window, per worker lane: shard-tick time and (derived)
 *    barrier-wait time, from exactly one steady_clock timestamp pair
 *    per lane per window. The serial replay tail is timed once per
 *    window. All buffers are preallocated; the hot path performs no
 *    allocation and no atomics beyond the (compile-time removable)
 *    clock-read audit counter.
 *  - Every Nth window (a *sampled* window) the engine runs a profiled
 *    tick variant that additionally chains timestamps across the
 *    contiguous component-class runs of each shard (routers, then
 *    channel adapters, then endpoints - the registration layout), and
 *    times each shard as a whole. From these the profiler derives the
 *    per-class attribution and the straggler statistics (which shard
 *    was slowest, in how many sampled windows).
 *
 * Zero overhead when off: a Machine without an attached profiler takes
 * the exact pre-existing tick paths and performs zero profiling clock
 * reads (hostProfileClockReads() lets tests pin that). Determinism is
 * untouched either way: the profiler only reads clocks and writes its
 * own buffers, never simulation state, so every deterministic export
 * is byte-identical with profiling on or off; profiling results
 * surface only through the non-deterministic `host` report section
 * (machine.host.engine.* gauges) and the host timeline export.
 */
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "sim/types.hpp"

namespace anton2 {

/**
 * Component classes for the sampled attribution pass. Shard registrars
 * tag each component at registration (Chip::registerWith knows the
 * concrete types); untagged components fall into Other. LinkLayer is
 * reserved for LinkSender/LinkReceiver assemblies (the reliable-link
 * example); the Machine's torus links live inside ChannelAdapter, so a
 * Machine run attributes them there.
 */
enum class HostCompClass : std::uint8_t
{
    Router = 0,
    ChannelAdapter,
    Endpoint,
    LinkLayer,
    Other,
};

inline constexpr std::size_t kNumHostCompClasses = 5;

/** Stable lower-case name used in gauge keys and JSON. */
const char *hostCompClassName(HostCompClass c);

namespace prof_detail {

/** Profiling clock reads so far: every profiling timestamp goes through
 * nowNs(), which bumps this relaxed atomic, and tests assert the count
 * stays zero across an unprofiled run (no timer calls when off). */
extern std::atomic<std::uint64_t> clock_reads;

/** Monotonic nanoseconds; the only clock the engine profiler reads. */
inline std::int64_t
nowNs()
{
    clock_reads.fetch_add(1, std::memory_order_relaxed);
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

} // namespace prof_detail

/** Total profiling clock reads ever performed by this process (always 0
 * while no profiler is attached). */
std::uint64_t hostProfileClockReads();

struct EngineProfileConfig
{
    /** Per-window detail capacity (the host-timeline ring). Running
     * totals keep accumulating after the ring fills; only the timeline
     * slices are dropped (and counted). */
    std::size_t max_windows = 16384;
    /** Run the per-shard / per-class attribution pass every Nth window
     * (1 = every window; larger amortizes its extra clock reads). */
    Cycle sample_every = 16;
};

/**
 * The engine-facing profiler. The Engine drives the hot-path hooks
 * (windowBegin / laneBegin / laneEnd / barrierDone / windowEnd plus
 * the sampled-window shardSampleNs / classSampleNs); everything else
 * is derived read-side API for reports, benches, and the timeline
 * export.
 *
 * Threading contract: laneBegin/laneEnd/shardSampleNs/classSampleNs
 * are called concurrently from worker lanes but touch only that lane's
 * cache-line-padded scratch slot (and, for shards, that shard's
 * disjoint scratch slot); every other hook runs on the calling thread
 * outside the parallel phase. The barrier's acquire/release edge makes
 * lane scratch visible to windowEnd's reduction.
 */
class EngineProfiler
{
  public:
    explicit EngineProfiler(const EngineProfileConfig &cfg = {});

    const EngineProfileConfig &config() const { return cfg_; }

    // -- engine-facing hooks -------------------------------------------

    /** (Re)size per-lane and per-shard buffers. Called by the engine at
     * attach and whenever the lane split changes; totals for existing
     * lanes are preserved (buffers only grow). */
    void configure(std::size_t lanes, std::size_t shards);

    /** Open a window of @p len cycles starting at @p start; returns
     * true when this window is a sampled (attribution) window. */
    bool windowBegin(Cycle start, Cycle len);
    /** First/last timestamp of lane @p lane's parallel phase. */
    void laneBegin(int lane);
    void laneEnd(int lane);
    /** Sampled windows only: shard @p shard's tick time (worker lane). */
    void shardSampleNs(std::size_t shard, std::int64_t ns);
    /** Sampled windows only: lane-local class time accumulation. */
    void classSampleNs(int lane, HostCompClass cls, std::int64_t ns);
    /** All lanes joined (calling thread, right after the barrier). */
    void barrierDone();
    /** Serial replay finished; commits the window (calling thread). */
    void windowEnd();

    // -- derived results -----------------------------------------------

    std::size_t lanes() const { return lanes_; }
    std::size_t shards() const { return shard_total_s_.size(); }
    std::uint64_t windows() const { return windows_; }
    std::uint64_t sampledWindows() const { return sampled_windows_; }
    /** Cycles covered by profiled windows. */
    Cycle profiledCycles() const { return profiled_cycles_; }
    /** Wall seconds covered by profiled windows (sum of window spans). */
    double profiledSeconds() const { return profiled_seconds_; }
    /** Running simulated-cycles-per-wall-second over profiled windows
     * (0 until the first window commits). */
    double cyclesPerSec() const;

    /** Per-lane totals. tick + wait spans the parallel phase exactly;
     * tick + wait + serial equals profiledSeconds() for every lane (the
     * serial replay blocks all lanes), which is the identity the
     * "per-lane sums" test and the ±5 % acceptance check lean on. */
    double laneTickSeconds(std::size_t lane) const;
    double laneWaitSeconds(std::size_t lane) const;
    /** Serial replay total (per window it is shared by every lane). */
    double serialSeconds() const { return serial_seconds_; }

    /** Max / mean of laneTickSeconds over lanes, and their ratio (1.0 =
     * perfectly balanced; meaningful with >= 2 lanes). */
    double tickSecondsMax() const;
    double tickSecondsMean() const;
    double imbalance() const;

    /** Straggler: the shard that was slowest in the most sampled
     * windows (ties to the lowest id); npos before any sampled window. */
    static constexpr std::size_t npos = ~std::size_t{ 0 };
    std::size_t stragglerShard() const;
    /** Sampled windows in which stragglerShard() was the slowest. */
    std::uint64_t stragglerWindows() const;
    /** Max / mean per-shard tick seconds accumulated over sampled
     * windows. */
    double shardMaxSeconds() const;
    double shardMeanSeconds() const;
    /** Accumulated seconds of @p c over sampled windows. */
    double classSeconds(HostCompClass c) const;

    // -- exports -------------------------------------------------------

    /**
     * Every derived figure as ordered (key, value) gauges, keyed
     * relative to the host section ("engine.windows", ...,
     * "engine.lane.0.tick_seconds", ...). Machine::hostJson() emits
     * them as `machine.host.engine.*` in reports.
     */
    std::vector<std::pair<std::string, double>> gauges() const;

    // -- per-window detail (the host-timeline ring) --------------------

    struct WindowDetail
    {
        Cycle start = 0;          ///< first simulated cycle
        Cycle len = 0;            ///< window length in cycles
        std::int64_t t0_ns = 0;   ///< window open (calling thread)
        std::int64_t barrier_ns = 0; ///< all lanes joined
        std::int64_t end_ns = 0;  ///< serial replay done
    };

    std::size_t detailWindows() const { return detail_.size(); }
    std::uint64_t detailDropped() const { return detail_dropped_; }
    const WindowDetail &detail(std::size_t w) const { return detail_[w]; }
    /** Lane @p lane's [begin, end) timestamps in detail window @p w
     * (equal values: the lane recorded nothing, e.g. it did not exist
     * yet when the window ran). */
    std::pair<std::int64_t, std::int64_t>
    laneSlice(std::size_t lane, std::size_t w) const
    {
        return lane_detail_[lane][w];
    }
    /** Timestamp origin for exports: the first window's t0. */
    std::int64_t epochNs() const { return epoch_ns_; }

  private:
    /** Per-lane hot-path scratch, padded so concurrent lanes never
     * share a cache line. */
    struct alignas(64) LaneScratch
    {
        std::int64_t begin_ns = 0;
        std::int64_t end_ns = 0;
        std::int64_t cls_ns[kNumHostCompClasses] = {};
    };

    EngineProfileConfig cfg_;

    std::size_t lanes_ = 1;
    std::vector<LaneScratch> scratch_;
    std::vector<double> lane_tick_s_;
    std::vector<double> lane_wait_s_;
    double serial_seconds_ = 0.0;
    double profiled_seconds_ = 0.0;
    Cycle profiled_cycles_ = 0;
    std::uint64_t windows_ = 0;
    std::uint64_t sampled_windows_ = 0;

    std::vector<std::int64_t> shard_window_ns_; ///< sampled-window scratch
    std::vector<double> shard_total_s_;
    std::vector<std::uint64_t> shard_straggler_;
    double class_total_s_[kNumHostCompClasses] = {};

    // current window state
    bool win_open_ = false;
    bool win_sampled_ = false;
    Cycle win_start_ = 0;
    Cycle win_len_ = 0;
    std::int64_t t0_ns_ = 0;
    std::int64_t barrier_ns_ = 0;
    std::int64_t epoch_ns_ = 0;

    // detail rings (preallocated to cfg_.max_windows)
    std::vector<WindowDetail> detail_;
    std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>>
        lane_detail_;
    std::uint64_t detail_dropped_ = 0;
};

} // namespace anton2
