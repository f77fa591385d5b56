#include "sim/host_profile.hpp"

#include <algorithm>
#include <cassert>

namespace anton2 {

namespace prof_detail {

std::atomic<std::uint64_t> clock_reads{ 0 };

} // namespace prof_detail

std::uint64_t
hostProfileClockReads()
{
    return prof_detail::clock_reads.load(std::memory_order_relaxed);
}

const char *
hostCompClassName(HostCompClass c)
{
    switch (c) {
      case HostCompClass::Router: return "router";
      case HostCompClass::ChannelAdapter: return "channel_adapter";
      case HostCompClass::Endpoint: return "endpoint";
      case HostCompClass::LinkLayer: return "link_layer";
      case HostCompClass::Other: return "other";
    }
    return "other";
}

namespace {

constexpr double kNsToS = 1e-9;

double
toSeconds(std::int64_t ns)
{
    return static_cast<double>(ns) * kNsToS;
}

} // namespace

EngineProfiler::EngineProfiler(const EngineProfileConfig &cfg) : cfg_(cfg)
{
    if (cfg_.max_windows < 1)
        cfg_.max_windows = 1;
    if (cfg_.sample_every < 1)
        cfg_.sample_every = 1;
    detail_.reserve(cfg_.max_windows);
    configure(1, 0);
}

void
EngineProfiler::configure(std::size_t lanes, std::size_t shards)
{
    if (lanes < 1)
        lanes = 1;
    // Grow-only: a thread-count change mid-run keeps the totals already
    // attributed to existing lanes and simply opens new lane slots.
    if (lanes > lanes_ || scratch_.empty()) {
        lanes_ = std::max(lanes, lanes_);
        scratch_.resize(lanes_);
        lane_tick_s_.resize(lanes_, 0.0);
        lane_wait_s_.resize(lanes_, 0.0);
        lane_detail_.resize(lanes_);
        for (auto &ld : lane_detail_) {
            ld.reserve(cfg_.max_windows);
            // Lanes that appear after windows were already recorded pad
            // with empty slices so the rings stay index-aligned.
            ld.resize(detail_.size(), { 0, 0 });
        }
    }
    if (shards > shard_total_s_.size()) {
        shard_window_ns_.resize(shards, 0);
        shard_total_s_.resize(shards, 0.0);
        shard_straggler_.resize(shards, 0);
    }
}

bool
EngineProfiler::windowBegin(Cycle start, Cycle len)
{
    win_open_ = true;
    win_start_ = start;
    win_len_ = len;
    win_sampled_ =
        windows_ % static_cast<std::uint64_t>(cfg_.sample_every) == 0;
    t0_ns_ = prof_detail::nowNs();
    barrier_ns_ = t0_ns_;
    if (windows_ == 0)
        epoch_ns_ = t0_ns_;
    // A lane can sit out a window (fewer lanes than before, or a serial
    // run after a threaded one); reset so stale timestamps from an
    // earlier window cannot leak into this window's reduction.
    for (auto &s : scratch_) {
        s.begin_ns = t0_ns_;
        s.end_ns = t0_ns_;
    }
    return win_sampled_;
}

void
EngineProfiler::laneBegin(int lane)
{
    auto &s = scratch_[static_cast<std::size_t>(lane)];
    s.begin_ns = prof_detail::nowNs();
    s.end_ns = s.begin_ns;
}

void
EngineProfiler::laneEnd(int lane)
{
    scratch_[static_cast<std::size_t>(lane)].end_ns =
        prof_detail::nowNs();
}

void
EngineProfiler::shardSampleNs(std::size_t shard, std::int64_t ns)
{
    // Disjoint per-shard slots: only the lane owning `shard` writes it.
    shard_window_ns_[shard] = ns;
}

void
EngineProfiler::classSampleNs(int lane, HostCompClass cls,
                              std::int64_t ns)
{
    scratch_[static_cast<std::size_t>(lane)]
        .cls_ns[static_cast<std::size_t>(cls)] += ns;
}

void
EngineProfiler::barrierDone()
{
    barrier_ns_ = prof_detail::nowNs();
}

void
EngineProfiler::windowEnd()
{
    if (!win_open_)
        return;
    win_open_ = false;
    const std::int64_t end_ns = prof_detail::nowNs();

    const double parallel_s = toSeconds(barrier_ns_ - t0_ns_);
    for (std::size_t l = 0; l < lanes_; ++l) {
        const LaneScratch &s = scratch_[l];
        double tick = toSeconds(s.end_ns - s.begin_ns);
        if (tick < 0.0)
            tick = 0.0;
        if (tick > parallel_s)
            tick = parallel_s;
        // Wait is derived, not measured: everything of the parallel
        // phase a lane did not spend ticking, it spent waiting (wakeup
        // latency before laneBegin plus barrier spin after laneEnd). By
        // construction tick + wait == the parallel span for every lane.
        lane_tick_s_[l] += tick;
        lane_wait_s_[l] += parallel_s - tick;
    }
    serial_seconds_ += toSeconds(end_ns - barrier_ns_);
    profiled_seconds_ += toSeconds(end_ns - t0_ns_);
    profiled_cycles_ += win_len_;

    if (win_sampled_) {
        ++sampled_windows_;
        for (std::size_t l = 0; l < lanes_; ++l) {
            LaneScratch &s = scratch_[l];
            for (std::size_t c = 0; c < kNumHostCompClasses; ++c) {
                class_total_s_[c] += toSeconds(s.cls_ns[c]);
                s.cls_ns[c] = 0;
            }
        }
        std::size_t worst = npos;
        std::int64_t worst_ns = 0;
        for (std::size_t sh = 0; sh < shard_window_ns_.size(); ++sh) {
            const std::int64_t ns = shard_window_ns_[sh];
            if (ns > worst_ns) {
                worst_ns = ns;
                worst = sh;
            }
            shard_total_s_[sh] += toSeconds(ns);
            shard_window_ns_[sh] = 0;
        }
        // worst_ns == 0 means no shard took measurable time (or none
        // exist): no straggler evidence in this window.
        if (worst != npos)
            ++shard_straggler_[worst];
    }

    if (detail_.size() < cfg_.max_windows) {
        detail_.push_back(
            { win_start_, win_len_, t0_ns_, barrier_ns_, end_ns });
        for (std::size_t l = 0; l < lanes_; ++l) {
            lane_detail_[l].push_back(
                { scratch_[l].begin_ns, scratch_[l].end_ns });
        }
    } else {
        ++detail_dropped_;
    }
    ++windows_;
}

double
EngineProfiler::cyclesPerSec() const
{
    return profiled_seconds_ > 0.0
               ? static_cast<double>(profiled_cycles_)
                     / profiled_seconds_
               : 0.0;
}

double
EngineProfiler::laneTickSeconds(std::size_t lane) const
{
    return lane < lane_tick_s_.size() ? lane_tick_s_[lane] : 0.0;
}

double
EngineProfiler::laneWaitSeconds(std::size_t lane) const
{
    return lane < lane_wait_s_.size() ? lane_wait_s_[lane] : 0.0;
}

double
EngineProfiler::tickSecondsMax() const
{
    double m = 0.0;
    for (double t : lane_tick_s_)
        m = std::max(m, t);
    return m;
}

double
EngineProfiler::tickSecondsMean() const
{
    if (lane_tick_s_.empty())
        return 0.0;
    double sum = 0.0;
    for (double t : lane_tick_s_)
        sum += t;
    return sum / static_cast<double>(lane_tick_s_.size());
}

double
EngineProfiler::imbalance() const
{
    const double mean = tickSecondsMean();
    return mean > 0.0 ? tickSecondsMax() / mean : 0.0;
}

std::size_t
EngineProfiler::stragglerShard() const
{
    std::size_t best = npos;
    std::uint64_t best_n = 0;
    for (std::size_t sh = 0; sh < shard_straggler_.size(); ++sh) {
        if (shard_straggler_[sh] > best_n) {
            best_n = shard_straggler_[sh];
            best = sh;
        }
    }
    return best;
}

std::uint64_t
EngineProfiler::stragglerWindows() const
{
    const std::size_t sh = stragglerShard();
    return sh == npos ? 0 : shard_straggler_[sh];
}

double
EngineProfiler::shardMaxSeconds() const
{
    double m = 0.0;
    for (double s : shard_total_s_)
        m = std::max(m, s);
    return m;
}

double
EngineProfiler::shardMeanSeconds() const
{
    if (shard_total_s_.empty())
        return 0.0;
    double sum = 0.0;
    for (double s : shard_total_s_)
        sum += s;
    return sum / static_cast<double>(shard_total_s_.size());
}

double
EngineProfiler::classSeconds(HostCompClass c) const
{
    return class_total_s_[static_cast<std::size_t>(c)];
}

std::vector<std::pair<std::string, double>>
EngineProfiler::gauges() const
{
    std::vector<std::pair<std::string, double>> out;
    auto put = [&](const char *key, double v) {
        out.emplace_back(std::string("engine.") + key, v);
    };
    put("windows", static_cast<double>(windows_));
    put("sampled_windows", static_cast<double>(sampled_windows_));
    put("lanes", static_cast<double>(lanes_));
    put("shards", static_cast<double>(shards()));
    put("cycles", static_cast<double>(profiled_cycles_));
    put("profiled_seconds", profiled_seconds_);
    put("cycles_per_sec", cyclesPerSec());
    put("serial_seconds", serial_seconds_);
    put("serial_fraction", profiled_seconds_ > 0.0
                               ? serial_seconds_ / profiled_seconds_
                               : 0.0);
    put("tick_seconds_max", tickSecondsMax());
    put("tick_seconds_mean", tickSecondsMean());
    put("imbalance", imbalance());
    const std::size_t straggler = stragglerShard();
    put("straggler_shard",
        straggler == npos ? -1.0 : static_cast<double>(straggler));
    put("straggler_windows", static_cast<double>(stragglerWindows()));
    put("straggler_share",
        sampled_windows_ > 0
            ? static_cast<double>(stragglerWindows())
                  / static_cast<double>(sampled_windows_)
            : 0.0);
    put("shard_max_seconds", shardMaxSeconds());
    put("shard_mean_seconds", shardMeanSeconds());
    for (std::size_t c = 0; c < kNumHostCompClasses; ++c) {
        out.emplace_back(
            std::string("engine.class.")
                + hostCompClassName(static_cast<HostCompClass>(c))
                + "_seconds",
            class_total_s_[c]);
    }
    for (std::size_t l = 0; l < lanes_; ++l) {
        const std::string p = "engine.lane." + std::to_string(l) + ".";
        const double tick = lane_tick_s_[l];
        const double wait = lane_wait_s_[l];
        out.emplace_back(p + "tick_seconds", tick);
        out.emplace_back(p + "wait_seconds", wait);
        out.emplace_back(p + "wait_fraction",
                         profiled_seconds_ > 0.0
                             ? wait / profiled_seconds_
                             : 0.0);
    }
    put("detail_windows", static_cast<double>(detail_.size()));
    put("detail_dropped", static_cast<double>(detail_dropped_));
    return out;
}

} // namespace anton2
