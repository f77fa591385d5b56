#include "sim/engine.hpp"

#include <bit>
#include <cassert>
#include <optional>

#include "sim/thread_pool.hpp"

namespace anton2 {

Engine::Engine() = default;

Engine::~Engine() = default;

void
Engine::add(Component &c)
{
    components_.push_back(&c);
}

std::size_t
Engine::newShard()
{
    shards_.push_back(std::make_unique<Shard>(staged_wakes_));
    lanes_dirty_ = true;
    return shards_.size() - 1;
}

WakeHandle
Engine::addEntry(std::size_t shard, Component &c, TickFn fn,
                 HostCompClass cls)
{
    assert(shard < shards_.size() && "newShard() first");
    Shard &sh = *shards_[shard];
    const auto index = static_cast<std::uint32_t>(sh.entries.size());
    sh.entries.push_back({ &c, fn, cls });
    sh.wake.resize(sh.entries.size(), wake_slots_);
    class_runs_dirty_ = true;
    return WakeHandle(&sh.wake, index);
}

void
Engine::setWakeHorizon(Cycle latency)
{
    wake_slots_ = std::bit_ceil(static_cast<std::size_t>(
        latency > kMinWakeSlots ? latency : kMinWakeSlots));
    for (auto &sh : shards_)
        sh->wake.resize(sh->entries.size(), wake_slots_);
}

void
Engine::addSerialPhase(std::function<void(Cycle)> hook)
{
    serial_phases_.push_back(std::move(hook));
}

void
Engine::setThreads(int n)
{
    threads_ = n < 1 ? 1 : n;
    lanes_dirty_ = true;
    rebuildLanes();
}

std::size_t
Engine::laneCount() const
{
    if (pool_ == nullptr)
        return 1;
    return lanes_.size();
}

void
Engine::rebuildLanes()
{
    lanes_dirty_ = false;
    const std::size_t nshards = shards_.size();
    const std::size_t want =
        std::min<std::size_t>(static_cast<std::size_t>(threads_),
                              nshards == 0 ? 1 : nshards);
    // Staged wakes live in per-lane buffers; enter them before the
    // buffers are resized.
    mergeWakes();
    staged_wakes_.configure(want);
    lane_ticks_.assign(want, LaneTicks{});
    if (want <= 1) {
        pool_.reset();
        lanes_.clear();
        return;
    }
    // Contiguous blocks keep the lane-order concatenation equal to the
    // shard registration order (the serial order), and keep each lane's
    // chips adjacent in memory.
    lanes_.clear();
    lanes_.reserve(want);
    for (std::size_t t = 0; t < want; ++t) {
        Lane lane;
        lane.begin = nshards * t / want;
        lane.end = nshards * (t + 1) / want;
        lanes_.push_back(lane);
    }
    if (pool_ == nullptr || pool_->lanes() != static_cast<int>(want))
        pool_ = std::make_unique<CycleWorkerPool>(static_cast<int>(want));
    if (profiler_ != nullptr)
        profiler_->configure(laneCount(), shards_.size());
}

void
Engine::mergeWakes()
{
    staged_wakes_.drain([](const StagedWake &w) {
        w.set->wakeAt(w.at_low, w.index);
    });
}

void
Engine::setProfiler(EngineProfiler *p)
{
    profiler_ = p;
    if (profiler_ == nullptr)
        return;
    if (lanes_dirty_)
        rebuildLanes();
    profiler_->configure(laneCount(), shards_.size());
    class_runs_dirty_ = true;
}

void
Engine::rebuildClassRuns()
{
    class_runs_dirty_ = false;
    class_runs_.assign(shards_.size(), {});
    for (std::size_t s = 0; s < shards_.size(); ++s) {
        auto &runs = class_runs_[s];
        const auto &entries = shards_[s]->entries;
        for (std::size_t i = 0; i < entries.size(); ++i) {
            const HostCompClass cls = entries[i].cls;
            if (runs.empty() || runs.back().cls != cls)
                runs.push_back({ i + 1, cls });
            else
                runs.back().end = i + 1;
        }
    }
}

void
Engine::setWindow(Cycle w)
{
    window_ = w < 1 ? 1 : w;
}

void
Engine::addBarrierAlignment(Cycle period, Cycle phase)
{
    if (period < 1)
        period = 1;
    alignments_.push_back({ period, phase % period });
}

template <typename Before>
std::uint64_t
Engine::tickShardCycle(Shard &sh, Cycle c, Before &&before)
{
    // The union of the awake set and this cycle's calendar ticks in
    // registration order (bit order); a component whose thunk reports no
    // work leaves the awake set. Sends made here wake receivers for
    // later cycles only (latency >= 1), never this cycle's word.
    WakeSet &ws = sh.wake;
    std::uint64_t *awake = ws.awake();
    std::uint64_t *due = ws.due(c);
    std::uint64_t ticks = 0;
    for (std::size_t w = 0; w < ws.words(); ++w) {
        const std::uint64_t run = awake[w] | due[w];
        due[w] = 0;
        ticks += static_cast<std::uint64_t>(std::popcount(run));
        std::uint64_t keep = run;
        for (std::uint64_t m = run; m != 0; m &= m - 1) {
            const int b = std::countr_zero(m);
            const std::size_t i = w * 64 + static_cast<std::size_t>(b);
            before(i);
            const Entry &e = sh.entries[i];
            if (!e.fn(*e.c, c))
                keep &= ~(std::uint64_t{ 1 } << b);
        }
        awake[w] = keep;
    }
    return ticks;
}

std::uint64_t
Engine::tickShardRange(std::size_t begin, std::size_t end, Cycle start,
                       Cycle window)
{
    std::uint64_t ticks = 0;
    for (std::size_t s = begin; s < end; ++s) {
        Shard &sh = *shards_[s];
        // Cycle-major within the shard: all of a shard's components tick
        // cycle c before any ticks c+1, exactly the serial schedule, so
        // intra-shard latency-1 wires behave as in a window-1 run.
        for (Cycle j = 0; j < window; ++j)
            ticks += tickShardCycle(sh, start + j, [](std::size_t) {});
    }
    return ticks;
}

std::uint64_t
Engine::tickShardRangeProfiled(std::size_t begin, std::size_t end,
                               Cycle start, Cycle window)
{
    const int lane = par::currentLane() >= 0 ? par::currentLane() : 0;
    std::uint64_t ticks = 0;
    for (std::size_t s = begin; s < end; ++s) {
        Shard &sh = *shards_[s];
        const auto &runs = class_runs_[s];
        std::int64_t cls_ns[kNumHostCompClasses] = {};
        // Chained reads: each run's segment ends where the next begins,
        // so a shard costs (runs + 1) clock reads per cycle - amortized
        // further by only running on the profiler's sampled windows.
        std::int64_t t = prof_detail::nowNs();
        const std::int64_t t_shard = t;
        for (Cycle j = 0; j < window; ++j) {
            std::size_t r = 0;
            auto closeRun = [&] {
                const std::int64_t t2 = prof_detail::nowNs();
                cls_ns[static_cast<std::size_t>(runs[r].cls)] += t2 - t;
                t = t2;
                ++r;
            };
            ticks += tickShardCycle(sh, start + j, [&](std::size_t i) {
                while (i >= runs[r].end)
                    closeRun();
            });
            while (r < runs.size())
                closeRun();
        }
        profiler_->shardSampleNs(s, t - t_shard);
        for (std::size_t c = 0; c < kNumHostCompClasses; ++c) {
            if (cls_ns[c] != 0)
                profiler_->classSampleNs(
                    lane, static_cast<HostCompClass>(c), cls_ns[c]);
        }
    }
    return ticks;
}

Cycle
Engine::alignedWindow(Cycle w) const
{
    for (const Alignment &a : alignments_) {
        // Distance from now_ to the next observation cycle; the window
        // containing it must end exactly there.
        const Cycle r = now_ % a.period;
        const Cycle dist = a.phase >= r ? a.phase - r
                                        : a.period - r + a.phase;
        if (dist + 1 < w)
            w = dist + 1;
    }
    return w;
}

Cycle
Engine::advance(Cycle budget)
{
    if (budget < 1)
        return 0;
    if (lanes_dirty_) [[unlikely]]
        rebuildLanes();
    Cycle w = window_ < budget ? window_ : budget;
    if (!alignments_.empty())
        w = alignedWindow(w);
    const Cycle now = now_;

    const bool prof = profiler_ != nullptr;
    bool sampled = false;
    if (prof) [[unlikely]] {
        if (class_runs_dirty_)
            rebuildClassRuns();
        sampled = profiler_->windowBegin(now, w);
    }

    // Cross-shard arrivals staged during the last window (or by a
    // restore) enter their receivers' calendars before any of their
    // cycles tick: their latency is at least the window.
    mergeWakes();

    // One lane's share of the window: shards [begin, end), bracketed by
    // the profiler's lane timestamps when one is attached (without one,
    // no clock is read: `sampled` is false too).
    auto tickLane = [this, now, w, prof, sampled](int lane, std::size_t begin,
                                                  std::size_t end) {
        if (prof) [[unlikely]]
            profiler_->laneBegin(lane);
        const std::uint64_t ticks =
            sampled ? tickShardRangeProfiled(begin, end, now, w)
                    : tickShardRange(begin, end, now, w);
        if (prof) [[unlikely]]
            profiler_->laneEnd(lane);
        return ticks;
    };
    if (pool_ != nullptr) {
        pool_->run([this, &tickLane](int lane) {
            const Lane &l = lanes_[static_cast<std::size_t>(lane)];
            lane_ticks_[static_cast<std::size_t>(lane)].n =
                tickLane(lane, l.begin, l.end);
        });
        for (const LaneTicks &lt : lane_ticks_)
            ticks_run_ += lt.n;
    } else {
        // A serial windowed phase runs "as lane 0" so shared sinks stage
        // per (lane, cycle) exactly as a threaded run would; the serial
        // replay below then restores canonical per-cycle order either
        // way. (At w == 1 the direct path is already canonical.)
        std::optional<par::LaneScope> lane0;
        if (w > 1)
            lane0.emplace(0);
        ticks_run_ += tickLane(0, 0, shards_.size());
    }
    if (prof) [[unlikely]]
        profiler_->barrierDone();

    // Serial replay: for each cycle of the window, in order, the phase
    // hooks (staged-trace merge, deferred-delivery flush) then the
    // serial-tail components - the same per-cycle schedule a window-1
    // run interleaves with the parallel phase.
    for (Cycle j = 0; j < w; ++j) {
        const Cycle c = now + j;
        for (const auto &hook : serial_phases_)
            hook(c);
        for (auto *comp : components_)
            comp->tick(c);
    }
    if (prof) [[unlikely]]
        profiler_->windowEnd();
    now_ = now + w;
    return w;
}

void
Engine::run(Cycle cycles)
{
    const Cycle end = now_ + cycles;
    while (now_ < end)
        advance(end - now_);
}

bool
Engine::busy() const
{
    for (const auto &sh : shards_) {
        for (const Entry &e : sh->entries) {
            if (e.c->busy())
                return true;
        }
    }
    for (const auto *c : components_) {
        if (c->busy())
            return true;
    }
    return false;
}

void
Engine::restoreNow(Cycle now)
{
    now_ = now;
    staged_wakes_.clear();
    for (auto &sh : shards_)
        sh->wake.wakeAll();
}

std::size_t
Engine::componentCount() const
{
    return components_.size() + shardedCount();
}

std::size_t
Engine::shardedCount() const
{
    std::size_t n = 0;
    for (const auto &sh : shards_)
        n += sh->entries.size();
    return n;
}

} // namespace anton2
