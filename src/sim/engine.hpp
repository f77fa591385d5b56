/**
 * @file
 * The cycle-driven simulation engine, with optional sharded (threaded)
 * execution.
 *
 * Because every inter-component path goes through a Wire<T> with latency
 * >= 1, the evaluation order of components within a cycle is
 * unobservable: a value sent at cycle c is first readable at c+1, and
 * the send and take of one cycle land in disjoint ring slots. That is
 * the conservative-window condition of parallel discrete-event
 * simulation, and the engine cashes it in twice:
 *
 *  - Components registered into *shards* (one shard per chip, so each
 *    stays cache-local to one worker) are ticked concurrently on a
 *    persistent worker pool, and the results are bit-identical to
 *    serial execution.
 *
 *  - When every wire that crosses a shard boundary has latency >= k
 *    (the *lookahead window*, setWindow), each shard ticks k consecutive
 *    cycles between barriers instead of one: a cross-shard value sent
 *    anywhere inside a window is deliverable no earlier than the next
 *    window, so no shard can observe another's intra-window progress.
 *    One barrier then amortizes over k cycles of work, and each shard's
 *    state stays hot in cache for k cycles. Such wires need ring slack
 *    >= k-1 (see Wire) because sender and receiver may be up to k-1
 *    cycles apart within a window.
 *
 *  - Inside a shard, a component ticks only on cycles where it has
 *    work: while its last tick left it with work of its own, and on the
 *    exact cycle a wire delivers to it (sim/wake.hpp). Every wire has a
 *    fixed latency, so each send already knows the cycle it wakes its
 *    receiver for; cross-shard sends stage that wake on their lane and
 *    the barrier merges it, which the latency >= k rule keeps in time.
 *    A slept cycle is one whose tick would have done nothing but the
 *    idle evolution the component settles itself, so the schedule is
 *    exact and needs no per-window probing.
 *
 * Work whose side effects escape a shard (shared statistics, packet
 * factories drawing from the machine RNG, software handlers) runs in the
 * *serial phase*: after the barrier, for each cycle of the window in
 * order, registered serial-phase hooks fire on the calling thread, then
 * serial-tail components (traffic drivers, samplers, auditors) tick in
 * registration order - a per-cycle replay in the canonical order. The
 * serial schedule is the same whether the parallel phase ran on one
 * thread or eight, which is what makes the exports byte-identical at
 * any thread count for a fixed window. What a lane cannot apply itself
 * it stages in its own buffer (sim/lane_staging.hpp), drained in lane
 * order: cross-shard wakes at the next window boundary, and - through
 * Machine's serial-phase hook, one cycle at a time - releases of packets
 * homed on other chips and the packet-event stream that feeds the trace
 * ring and the flow probe.
 *
 * Serial-tail work feeding state *into* shards (a driver's injections)
 * is seen by the shards at the start of the next window rather than the
 * next cycle, so runs with different window sizes are each internally
 * deterministic but may differ from one another when such feedback
 * exists; workloads without it (pre-injected traffic) are byte-identical
 * across window sizes too. Observation points that must read shard state
 * at exact cycles (samplers, auditors) register a barrier alignment so
 * their cycles always land on a window's final cycle, where post-barrier
 * state equals per-cycle state.
 */
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "sim/component.hpp"
#include "sim/host_profile.hpp"
#include "sim/types.hpp"
#include "sim/wake.hpp"

namespace anton2 {

class CycleWorkerPool;

/**
 * Steps a fixed set of components through synchronous clock cycles.
 *
 * The engine owns neither the components nor the wires; assemblies (Chip,
 * Machine) own their parts and register them here. Registration order is
 * irrelevant to simulation results because all communication is through
 * latency >= 1 wires; it is, however, the canonical order used for the
 * serial phase, so exports do not depend on the thread count.
 */
class Engine
{
  public:
    Engine();
    ~Engine();

    Engine(const Engine &) = delete;
    Engine &operator=(const Engine &) = delete;

    /**
     * Register a serial-tail component: ticked every cycle on the
     * calling thread *after* the parallel phase and the serial-phase
     * hooks. Use for components with cross-machine side effects
     * (drivers, samplers, auditors, progress meters).
     */
    void add(Component &c);

    /**
     * Open a new shard and return its index. A shard is the unit of
     * parallel work: all of its components tick on one lane, in
     * registration order. Chip-granular sharding (one shard per Chip)
     * is the intended default.
     */
    std::size_t newShard();

    /**
     * Register @p c of concrete type T into shard @p shard as a
     * wake-aware component. It starts awake and ticks - through a
     * qualified (non-virtual) call to T::tick - on every cycle after
     * which T::hasWork() holds, and otherwise sleeps until a wake (see
     * sim/wake.hpp): T::setWake receives the handle its doorbell wakes
     * it through, and its tick must settle whatever it does on the
     * cycles it sleeps through. The class tag @p cls feeds the
     * profiler's sampled attribution pass (and nothing else).
     */
    template <typename T>
    void
    addWakeable(std::size_t shard, T &c, HostCompClass cls)
    {
        c.setWake(addEntry(
            shard, c,
            [](Component &x, Cycle now) {
                T &t = static_cast<T &>(x);
                t.T::tick(now);
                return t.hasWork();
            },
            cls));
    }

    /**
     * Size every shard's wake calendar for wires of latency up to
     * @p latency (the largest latency whose arrivals wake a component;
     * at least kMinWakeSlots). Call before registering components.
     */
    void setWakeHorizon(Cycle latency);

    /**
     * Register a hook that runs on the calling thread each cycle after
     * the parallel phase, before serial-tail components. Hooks run in
     * registration order; Machine uses one to apply staged releases,
     * merge the staged packet-event stream and flush deferred endpoint
     * deliveries.
     */
    void addSerialPhase(std::function<void(Cycle)> hook);

    /**
     * Use @p n threads for the parallel phase (1 = serial, the
     * default). Shards are split into min(n, shards) contiguous lanes;
     * the worker pool persists until the count changes. Safe to call
     * between cycles at any time.
     */
    void setThreads(int n);
    int threads() const { return threads_; }

    /** Lanes the parallel phase runs on (1 when serial). */
    std::size_t laneCount() const;

    /**
     * Tick shards up to @p w consecutive cycles between barriers (the
     * lookahead window; 1 = the legacy barrier-per-cycle schedule). The
     * caller guarantees every cross-shard wire has latency >= w and ring
     * slack >= w-1 (Machine computes and enforces this from the torus
     * link latencies). Safe to change between cycles.
     */
    void setWindow(Cycle w);
    Cycle window() const { return window_; }

    /**
     * Constrain windows so every cycle c with c % period == phase is the
     * *final* cycle of its window. Serial-tail components that read live
     * shard state on a fixed schedule (interval samplers, auditors)
     * register their period here once, at their attach; their
     * observation cycles then see exactly the state a window-1 run would
     * show them.
     */
    void addBarrierAlignment(Cycle period, Cycle phase);

    /**
     * Attach (or detach with null) the host self-profiler. Not owned.
     * With a profiler attached, advance() brackets each window with
     * timestamp hooks and, on the profiler's sampled windows, takes a
     * tick variant that additionally times each shard and its
     * contiguous component-class runs. The schedule itself - tick
     * order, wakes, staging, serial replay - is untouched, so every
     * deterministic export stays byte-identical with profiling on or
     * off. With no profiler (the default), the pre-existing paths run
     * unchanged and zero profiling clock reads happen.
     */
    void setProfiler(EngineProfiler *p);
    EngineProfiler *profiler() const { return profiler_; }

    /** Current simulation time in cycles. */
    Cycle now() const { return now_; }

    /** Advance the simulation by @p cycles clock cycles. */
    void run(Cycle cycles);

    /** Advance one clock cycle. */
    void step() { advance(1); }

    /**
     * Run one lookahead window of at most @p budget cycles (truncated by
     * the window size and barrier alignments); returns the cycles
     * advanced (>= 1 for budget >= 1).
     */
    Cycle advance(Cycle budget);

    /**
     * Run until @p done returns true or @p max_cycles have elapsed;
     * returns true if the predicate fired. The predicate is evaluated
     * between cycles, every @p check_every cycles (default: every
     * cycle), plus a final exact check at the deadline - so a stride
     * greater than 1 is safe for monotone predicates (delivery counts,
     * quiescence after a closed batch) at the cost of overshooting the
     * firing cycle by at most `check_every - 1` cycles. Keep the
     * default stride when the exact stop cycle matters.
     */
    template <typename Pred>
    bool
    runUntil(Pred &&done, Cycle max_cycles, Cycle check_every = 1)
    {
        if (check_every < 1)
            check_every = 1;
        const Cycle end = now_ + max_cycles;
        Cycle next_check = now_;
        while (now_ < end) {
            if (now_ >= next_check) {
                if (done())
                    return true;
                next_check = now_ + check_every;
            }
            // Advance in whole windows up to the next predicate check
            // (or the deadline), never past either.
            const Cycle stop = next_check < end ? next_check : end;
            advance(stop - now_);
        }
        return done();
    }

    /** True if any registered component reports buffered work
     * (asleep or not: busy() reads state, never the awake sets). */
    bool busy() const;

    /**
     * Reinstate the simulation clock from a checkpoint. Only valid
     * between advances, with component state restored to match (wires
     * restored after this call re-register their arrival wakes). Wakes
     * every component and drops every pending wake.
     */
    void restoreNow(Cycle now);

    /** Registered components, sharded and serial-tail alike. */
    std::size_t componentCount() const;

    /** Registered sharded components. */
    std::size_t shardedCount() const;

    /** Sharded component ticks run so far: one per component per cycle
     * it was awake (counted without reading any clock). */
    std::uint64_t ticksRun() const { return ticks_run_; }

  private:
    /** Tick thunk: ticks a component and returns true while it has work
     * of its own for the next cycle. */
    using TickFn = bool (*)(Component &, Cycle);

    struct Entry
    {
        Component *c;
        TickFn fn;
        HostCompClass cls;
    };

    /** One shard: its components in registration order and their wake
     * bookkeeping (bit i of the wake sets is entries[i]). */
    struct Shard
    {
        explicit Shard(LaneBuffer<StagedWake> &staging) : wake(staging) {}
        std::vector<Entry> entries;
        WakeSet wake;
    };

    /** One contiguous same-class run of a shard's entry array: entries
     * [prev.end, end) all carry @p cls. Registration groups classes
     * (routers, then adapters, then endpoints), so a shard has ~3 runs
     * and the profiled tick path needs only ~runs clock reads per cycle
     * instead of one per component. */
    struct ClassRun
    {
        std::size_t end = 0;
        HostCompClass cls = HostCompClass::Other;
    };

    /** Contiguous shard range [begin, end) assigned to one lane. */
    struct Lane
    {
        std::size_t begin = 0;
        std::size_t end = 0;
    };

    /** Ticks run by one lane in the current window, padded so
     * concurrent lanes never share a cache line. */
    struct alignas(64) LaneTicks
    {
        std::uint64_t n = 0;
    };

    /** A serial-tail observation schedule windows must align to. */
    struct Alignment
    {
        Cycle period = 1;
        Cycle phase = 0;
    };

    /** Tick shards [begin, end) for @p window cycles from @p start;
     * returns the component ticks run. */
    std::uint64_t tickShardRange(std::size_t begin, std::size_t end,
                                 Cycle start, Cycle window);
    /** The sampled-window variant: same order, same wakes, plus
     * per-shard and per-class timestamps reported to profiler_. */
    std::uint64_t tickShardRangeProfiled(std::size_t begin,
                                         std::size_t end, Cycle start,
                                         Cycle window);
    /** Tick shard @p sh's awake components at cycle @p c in
     * registration order, calling @p before(i) ahead of entry i; returns
     * the ticks run. */
    template <typename Before>
    static std::uint64_t tickShardCycle(Shard &sh, Cycle c,
                                        Before &&before);
    WakeHandle addEntry(std::size_t shard, Component &c, TickFn fn,
                        HostCompClass cls);
    void rebuildLanes();
    void rebuildClassRuns();
    /** Enter every staged cross-shard wake into its calendar. */
    void mergeWakes();
    /** Largest window <= @p w whose final cycle respects alignments_. */
    Cycle alignedWindow(Cycle w) const;

    LaneBuffer<StagedWake> staged_wakes_;
    std::vector<std::unique_ptr<Shard>> shards_;
    std::vector<Component *> components_; ///< serial tail
    std::vector<std::function<void(Cycle)>> serial_phases_;
    std::vector<Lane> lanes_;
    std::vector<LaneTicks> lane_ticks_;
    std::vector<Alignment> alignments_;
    std::unique_ptr<CycleWorkerPool> pool_;
    EngineProfiler *profiler_ = nullptr;
    std::vector<std::vector<ClassRun>> class_runs_;
    std::size_t wake_slots_ = kMinWakeSlots;
    std::uint64_t ticks_run_ = 0;
    int threads_ = 1;
    Cycle window_ = 1;
    bool lanes_dirty_ = false;
    bool class_runs_dirty_ = true;
    Cycle now_ = 0;
};

} // namespace anton2
