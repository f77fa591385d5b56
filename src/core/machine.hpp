/**
 * @file
 * The whole-machine assembly and the library's primary facade.
 *
 * A Machine is a k_X x k_Y x k_Z torus of Chips whose torus-channel
 * adapters are wired together with latencies from the packaging model
 * (Figure 2). It provides the packet factory (remote writes, remote reads,
 * counted writes, multicast), global delivery statistics, and the single
 * run entry point used by the experiment harnesses.
 */
#pragma once

#include <array>
#include <chrono>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "core/chip.hpp"
#include "core/packaging.hpp"
#include "sim/audit.hpp"
#include "sim/engine.hpp"
#include "sim/flow.hpp"
#include "sim/metrics.hpp"
#include "sim/rng.hpp"
#include "sim/rollup.hpp"
#include "sim/timeseries.hpp"
#include "trace/trace.hpp"

namespace anton2 {

/**
 * A seeded negative-control fault, used to validate that the runtime
 * auditor actually trips on real protocol breaks (Instrumentation::faults).
 */
struct NetworkFault
{
    enum class Kind
    {
        /** The named adapter's egress never returns torus-link credits:
         * the downstream buffer drains but the sender never learns. */
        WithholdTorusCredits,
        /** The named adapter stops applying dateline VC promotion on
         * egress: the runtime twin of the NoDateline counterexample. */
        NoDatelinePromotion,
    };

    Kind kind = Kind::WithholdTorusCredits;
    NodeId node = 0;
    int dim = 0;
    Dir dir = Dir::Pos;
    int slice = 0;
    int vc = -1; ///< WithholdTorusCredits only; -1 = every VC
};

/** Trace recorder sizing and sampling (Instrumentation::trace). */
struct TraceConfig
{
    std::size_t capacity = std::size_t{ 1 } << 19; ///< ring slots
    std::uint64_t sample = 1; ///< record every Nth packet id
};

struct MachineConfig
{
    std::vector<int> radix{ 4, 4, 4 }; ///< torus shape (3-D)
    ChipConfig chip;
    bool use_packaging = true;      ///< per-link latency from PackagingModel
    Cycle fixed_torus_latency = 33; ///< used when use_packaging is false
    std::uint64_t seed = 1;
    /** Worker threads for the engine's parallel phase (1 = serial).
     * Chips are sharded one per lane group and every cross-thread path
     * is a latency >= 1 torus wire, so results - delivery stats,
     * metrics JSON, trace and time-series exports - are bit-identical
     * at any thread count. */
    int threads = 1;
    /** Lookahead window in cycles: how many consecutive cycles each
     * shard ticks between engine barriers. 1 (default) is the legacy
     * barrier-per-cycle schedule; 0 picks the maximum conservative
     * window (the minimum torus link latency); any other value is
     * clamped to that maximum. At any fixed window the simulation is
     * bit-identical across thread counts. Runs at *different* windows
     * may differ from one another when serial-phase feedback exists (a
     * driver's injections become visible to the chips at the next
     * window boundary rather than the next cycle); workloads without
     * such feedback (pre-injected traffic) are bit-identical across
     * windows too. Sampler and auditor observation cycles stay exact at
     * any window via Engine::addBarrierAlignment. */
    Cycle lookahead = 1;
};

/**
 * The one-call instrumentation bundle (Machine::attachInstrumentation):
 * every observability layer and the seeded negative-control faults in a
 * single declarative struct. Disengaged members cost nothing (the
 * layer is simply not constructed). A machine takes one bundle.
 */
struct Instrumentation
{
    /** Create the metrics registry: the components' counts are
     * exported through it from the attach on, and deliveries and busy
     * router ticks sample into it. */
    bool metrics = false;
    /** Telemetry granularity for the registry (see MetricsLevel): how
     * much per-component state is registered and exported. Only
     * consulted when `metrics` is engaged. */
    MetricsLevel metrics_level = MetricsLevel::Full;
    /** Create the trace ring and bind every component. */
    std::optional<TraceConfig> trace;
    /** Create the flow probe: per-hop latency span attribution, the
     * per-(src, dst, class) flow matrix, and congestion blame. */
    std::optional<FlowProbeConfig> flows;
    /** Create the interval sampler with the standard series set. */
    std::optional<TimeseriesConfig> timeseries;
    /** Add the live stderr progress meter. */
    std::optional<ProgressMeter::Config> progress;
    /** Attach the engine self-profiler (per-lane tick/barrier-wait/
     * serial-replay attribution, straggler analysis, sampled component
     * class breakdown). Host wall-clock only: deterministic exports are
     * byte-identical with or without it. */
    std::optional<EngineProfileConfig> host_profile;
    /** Create the runtime auditor / deadlock watchdog. */
    std::optional<AuditConfig> audit;
    /** Seeded negative-control faults, armed before simulating. */
    std::vector<NetworkFault> faults;
};

/** Why a Machine::run(RunSpec) returned. */
enum class StopReason
{
    MaxCycles,  ///< the cycle budget elapsed first
    Predicate,  ///< the custom stop predicate fired
    Delivered,  ///< the delivery target was reached
    Quiescent,  ///< no component held work
    AuditTrip,  ///< the runtime auditor's watchdog tripped
};

/**
 * One run, declaratively: how long, what stops it, and the checkpoint
 * plumbing. This is the single entry point behind every experiment
 * harness and test. Engaged stop conditions compose: the run ends at
 * the first one to fire (the delivery target is checked first, then a
 * trip of the attached auditor's watchdog, which always ends the run,
 * then quiescence and the custom predicate).
 */
struct RunSpec
{
    /** Cycle budget (mandatory; the run never exceeds it). */
    Cycle max_cycles = 0;

    /** Optional custom stop predicate, evaluated between cycles. */
    std::function<bool()> stop;

    /** Predicate-check stride in cycles; 0 = the engine's lookahead
     * window (checks at barrier boundaries, the natural cadence), or
     * max(window, 8) when until_quiescent is set (busy() walks every
     * component, and drain is monotone). Monotone conditions tolerate
     * a coarse stride at the cost of overshooting the firing cycle by
     * at most `check_every - 1`. */
    Cycle check_every = 0;

    /** Stop once totalDelivered() reaches this count (0 = disabled). */
    std::uint64_t until_delivered = 0;

    /** Stop once no component reports buffered work. */
    bool until_quiescent = false;

    /**
     * Save a checkpoint to this path during the run (empty = never).
     * With an auto-steady interval sampler attached, the save happens
     * at the first predicate-check boundary after steady-state
     * convergence - the warm-start image that a second fig9 run
     * restores with --checkpoint-in; otherwise (or if convergence never
     * comes) it is written when the run returns.
     */
    std::string checkpoint_out;

    /** Plain fixed-length run. */
    static RunSpec
    forCycles(Cycle n)
    {
        RunSpec s;
        s.max_cycles = n;
        return s;
    }

    /** Run until @p count total deliveries. */
    static RunSpec
    untilDelivered(std::uint64_t count, Cycle max_cycles)
    {
        RunSpec s;
        s.max_cycles = max_cycles;
        s.until_delivered = count;
        return s;
    }

    /** Drain the network: run until no component holds work. */
    static RunSpec
    untilQuiescent(Cycle max_cycles)
    {
        RunSpec s;
        s.max_cycles = max_cycles;
        s.until_quiescent = true;
        return s;
    }
};

/** What a Machine::run(RunSpec) did. */
struct RunResult
{
    Cycle cycles = 0;            ///< cycles advanced by this run
    Cycle end_cycle = 0;         ///< simulation time at return
    std::uint64_t delivered = 0; ///< totalDelivered() at return
    StopReason reason = StopReason::MaxCycles;
    bool audit_tripped = false;  ///< auditor verdict (false if detached)
    bool checkpoint_saved = false;
    Cycle checkpoint_cycle = 0;  ///< cycle checkpoint_out was written at

    /** True when a requested stop condition fired (a run with no stop
     * conditions only ever returns MaxCycles, which reads as false). */
    bool
    ok() const
    {
        return reason != StopReason::MaxCycles
               && reason != StopReason::AuditTrip;
    }
};

class Machine
{
  public:
    explicit Machine(const MachineConfig &cfg);

    const MachineConfig &config() const { return cfg_; }
    const TorusGeom &geom() const { return geom_; }
    const ChipLayout &layout() const { return layout_; }
    Engine &engine() { return engine_; }
    Rng &rng() { return rng_; }

    Chip &chip(NodeId n) { return *chips_[n]; }
    EndpointAdapter &
    endpoint(const EndpointAddr &a)
    {
        return chip(a.node).endpoint(a.ep);
    }

    // ------------------------------------------------------------------
    // Packet factory (Section 2.1 programming model)
    // ------------------------------------------------------------------

    /**
     * Create a remote write, a record in the source node's packet slab.
     * The route (dimension order, slice, direction tie-breaks) is
     * randomized per Section 2.3; the payload defaults to zero and can be
     * overwritten before send(). The packet is released after its
     * delivery: keep a copy of the record, not the pointer, to read it
     * afterwards.
     *
     * @param counter Counted-write counter id at the destination endpoint,
     *        or -1 for a plain write.
     * @throws std::invalid_argument, before anything is allocated, if
     * @p src or @p dst is not an endpoint of this machine, @p pattern is
     * not below kNumPatterns (the patterns inverse-weighted arbiters
     * hold weights for), or @p size_flits is outside
     * [1, kMaxPacketFlits].
     */
    PacketPtr makeWrite(EndpointAddr src, EndpointAddr dst,
                        std::uint8_t pattern = 0, int size_flits = 1,
                        std::int32_t counter = -1);

    /** Create a remote read request (the reply is generated
     * automatically). @throws std::invalid_argument as makeWrite does. */
    PacketPtr makeRead(EndpointAddr src, EndpointAddr dst,
                       std::uint8_t pattern = 0);

    /** Queue a prepared packet at its source endpoint. */
    void send(const PacketPtr &pkt);

    /**
     * Route an unsent unicast packet along @p route instead of its
     * drawn route, with fresh promotion state and the exit on the
     * source chip.
     * @throws std::invalid_argument if @p route is not a whole route
     * from the packet's source node to its destination node (see
     * malformedRoute).
     */
    void setRoute(Packet &pkt, const PacketRoute &route);

    /**
     * Install a multicast tree on every involved node's tables.
     * @return the group id to pass to sendMulticast().
     * @throws std::invalid_argument, before installing anything, for a
     * malformed tree: a node outside the machine, a slice, hop or local
     * endpoint out of range, or forward hops from the root that land on
     * a node without an entry, reach a node twice, or miss an entry.
     */
    std::int32_t installTree(const McastTree &tree);

    /**
     * Send one packet down an installed tree. The source node's table
     * entry is expanded at injection (one packet per source branch).
     * @throws std::invalid_argument if @p group has no entry at the
     * source node (never installed, negative, or a tree without it), or
     * for a source, pattern or size makeWrite rejects.
     */
    void sendMulticast(EndpointAddr src, std::int32_t group,
                       std::uint8_t pattern = 0, int size_flits = 1,
                       std::int32_t counter = -1);

    // ------------------------------------------------------------------
    // Running and statistics
    // ------------------------------------------------------------------

    /** Extra hook invoked on every delivery, after internal accounting.
     * The packet is released once the delivery's side effects have run,
     * so the pointer is valid for the call only: copy the record to keep
     * it. */
    void setDeliverHook(std::function<void(const PacketPtr &, Cycle)> fn);

    /** The lookahead window in cycles: MachineConfig::lookahead with 0
     * and values above lookaheadCap() clamped to it. */
    Cycle lookaheadWindow() const { return engine_.window(); }
    /** The maximum conservative window: min torus link latency. */
    Cycle lookaheadCap() const { return lookahead_cap_; }

    /**
     * The single run entry point: advance until the first engaged stop
     * condition fires or max_cycles elapse, and save checkpoint_out (if
     * set) at steady-state convergence or run end. Deterministic: for a
     * fixed spec the result and every export are byte-identical at any
     * thread count.
     */
    RunResult run(const RunSpec &spec);

    std::uint64_t totalDelivered() const { return delivered_; }
    Cycle lastDeliveryTime() const { return last_delivery_; }
    Cycle now() const { return engine_.now(); }

    /** Latency statistics over delivered packets (inject -> eject). */
    const ScalarStat &latencyStat() const { return latency_; }

    // ------------------------------------------------------------------
    // Instrumentation
    // ------------------------------------------------------------------

    /**
     * Attach every engaged layer of @p inst: faults are armed first,
     * then metrics, tracing and flows, time series, the progress meter,
     * the host profiler and the auditor (the auditor last, so its
     * serial-tail tick audits a fully settled cycle). A machine takes
     * exactly one bundle, after any restoreCheckpoint(): every layer
     * takes its baselines and its barrier phase at the current cycle.
     * Recording starts immediately, so attach before driving traffic
     * for complete counts.
     * @throws std::logic_error, before arming or attaching anything, on
     * a machine that already has a bundle attached.
     * @throws std::invalid_argument, before arming or attaching
     * anything, for a time-series window below 1 cycle.
     */
    void attachInstrumentation(const Instrumentation &inst);

    /** The bound registry, or null when telemetry is disabled. */
    MetricsRegistry *metrics() { return metrics_.get(); }

    /**
     * Write the components' counts since the attach or the last reset
     * (per component at router/full, per chip from chip up), the
     * derived gauges (elapsed cycles, per-channel utilization, stall
     * and packet-age totals) and the rollups (`machine.noc.*` /
     * `machine.link.*` / `machine.ep.*`) into the registry, then
     * serialize it at its MetricsLevel. Requires attached metrics.
     */
    std::string metricsJson();

    /**
     * Build the top-K hot-spot digest from the components' always-on
     * raw counters: the K hottest torus links and routers, per-chip
     * oldest-packet watermarks, and per-axis torus aggregates. Works at
     * every metrics level (and even with metrics disabled) - this is
     * the coarse-level replacement for the per-link dumps.
     */
    HotspotDigest hotspotDigest(std::size_t k = 8);

    /**
     * The deterministic body of the single-artifact run report: metrics
     * level, elapsed cycles, delivered count, the level-aware metrics
     * tree (rollups included), the hot-spot digest, the steady-state
     * outcome (null without a sampler), and the audit verdict (null
     * without the auditor). Byte-identical across thread counts; bench
     * wrappers append their config and the non-deterministic host
     * section *after* this body. Requires attached metrics.
     */
    std::string runReportJson(std::size_t topk = 8);

    /** Bytes of packet storage in every chip's slab (record chunks and
     * free lists), for the host memory report. */
    std::size_t packetPoolBytes();

    // ------------------------------------------------------------------
    // Host clock (the non-deterministic `host` report section)
    // ------------------------------------------------------------------

    /** Host wall seconds spent inside run(), summed over every call. */
    double hostRunSeconds() const;

    /**
     * The `host` report section: a flat JSON object of
     * `machine.host.*` gauges - wall_seconds (construction to the end
     * of the last run()), cycles (advanced by run()), cycles_per_sec
     * and ticks_per_sec (component-cycles simulated per second, over the
     * time inside run()), awake_frac (component ticks run over sharded
     * components x cycles advanced by run()), the thread count
     * and lookahead window, the mem.* footprint gauges, the engine.*
     * gauges when the engine profiler is attached, and
     * phase.build_seconds (construction to the first run()) and
     * phase.run_seconds (time inside run()). The machine reads the
     * host clock once at construction and twice per run(), never
     * through the profiler's audited clock. Host-dependent by nature:
     * reports keep it last, outside the deterministic body.
     */
    std::string hostJson();

    // ------------------------------------------------------------------
    // Event tracing
    // ------------------------------------------------------------------

    /** The bound trace sink, or null when tracing is disabled. */
    RingTraceSink *trace() { return trace_.get(); }

    /**
     * Export the recorded events plus per-port stall attribution as
     * Chrome trace-event JSON with layout-aware track names. Requires
     * an attached trace layer.
     */
    std::string traceChromeJson();

    /** Export the recorded events as a per-packet flight-record CSV. */
    std::string traceFlightCsv();

    // ------------------------------------------------------------------
    // Flow-level observability
    // ------------------------------------------------------------------

    /** The bound flow probe, or null when flow observability is off. */
    FlowProbe *flows() { return flow_.get(); }

    /** Export the sparse flow matrix as CSV (one row per active
     * (src, dst, class) triple). Requires an attached flow probe. */
    std::string flowMatrixCsv();

    // ------------------------------------------------------------------
    // Windowed time series
    // ------------------------------------------------------------------

    /** The bound sampler, or null when time-series sampling is off. */
    IntervalSampler *timeseries() { return sampler_.get(); }

    /** Finalize the partial last window and serialize the JSON section. */
    std::string timeseriesJson();

    /** Finalize and serialize the per-link congestion heatmap CSV. */
    std::string heatmapCsv();

    /** The bound progress meter, or null. */
    ProgressMeter *progress() { return progress_.get(); }

    // ------------------------------------------------------------------
    // Engine self-profiling (host wall-clock attribution)
    // ------------------------------------------------------------------

    /** The attached engine profiler, or null when profiling is off. */
    EngineProfiler *hostProfile() { return host_profile_.get(); }

    /**
     * Export the profiler's per-window detail ring as a Chrome-trace
     * host timeline: worker lanes as threads, each window's parallel
     * tick as a duration slice (barrier waits appear as the gaps
     * between slices), the serial replay on its own track. Requires
     * an attached host profiler.
     */
    std::string hostTimelineChromeJson();

    // ------------------------------------------------------------------
    // Runtime auditor (invariants, watchdog, forensic snapshots)
    // ------------------------------------------------------------------

    /** The bound auditor, or null when auditing is disabled. */
    Auditor *audit() { return audit_.get(); }

    /**
     * Capture a forensic snapshot of the network right now: per-buffer
     * occupancy and resident packets, depressed credit counters, the
     * waits-for graph of blocked heads, and its deadlock/livelock
     * analysis. Works with or without an attached auditor.
     */
    MachineSnapshot dumpSnapshot(const std::string &reason = "on_demand");

    // ------------------------------------------------------------------
    // Checkpoint / restore
    // ------------------------------------------------------------------

    /**
     * Write the complete machine state to @p path: every router,
     * adapter, and endpoint buffer, credit counter, in-flight phit
     * (with virtual cut-through packet sharing preserved), the
     * multicast tables, the RNG, the delivery statistics, the cycle
     * count, and every registered checkpoint client (traffic drivers).
     * A machine restored from the file continues byte-identically to
     * the uninterrupted run at any thread count and lookahead window.
     * Instrumentation layers are NOT checkpointed: attach them after
     * restoring, as the baseline run attached them at the save cycle.
     * Throws CheckpointError on I/O failure.
     */
    void saveCheckpoint(const std::string &path);

    /**
     * Restore the state written by saveCheckpoint(). The machine must
     * have been constructed with an equivalent MachineConfig (topology,
     * chip configuration, latencies, seed - everything that shapes
     * buffers and wires; thread count and lookahead window are NOT part
     * of the fingerprint and may differ). Checkpoint clients must be
     * registered in the same order as at save time. Throws
     * CheckpointError on version/fingerprint mismatch, corruption, or a
     * value outside its bound - including a restored state that breaks
     * the runtime auditor's invariants, so an image of a run with a
     * seeded network fault does not restore. A restore that throws
     * CheckpointError leaves the machine partly overwritten and
     * unusable: the caller must discard it.
     * @throws std::logic_error, before opening @p path (the machine
     * stays usable), once attachInstrumentation() has been called:
     * instrumentation attaches after the restore, never before.
     */
    void restoreCheckpoint(const std::string &path);

    /** Fingerprint of the structural configuration, stamped into every
     * checkpoint and validated on restore. */
    std::uint64_t configFingerprint() const;

    /**
     * Register extra state to ride along in checkpoints (traffic
     * drivers do this in their constructor): @p fields is the client's
     * one field list, run by both save and restore. Clients are saved
     * and restored in registration order; @p name is validated on
     * restore so a save/restore pairing drift fails loudly. @p owner
     * keys unregisterCheckpointClients (a destructor must remove its
     * hooks).
     */
    void registerCheckpointClient(std::string name,
                                  std::function<void(CkptArchive &)> fields,
                                  const void *owner);

    /** Remove every client registered with @p owner. */
    void unregisterCheckpointClients(const void *owner);

    /** Path this machine was restored from ("" for a cold start). */
    const std::string &restoredFrom() const { return restored_from_; }
    /** Cycle the restored checkpoint was saved at (0 for cold start). */
    Cycle restoredCycle() const { return restored_cycle_; }

  private:
    void doEnableMetrics(MetricsLevel level);
    /** Put the requested trace ring and flow probe on the packet-event
     * stream, then bind every component to it in one pass. */
    void doEnableEvents(const std::optional<TraceConfig> &trace,
                        const std::optional<FlowProbeConfig> &flows);
    void doEnableTimeseries(const TimeseriesConfig &cfg);
    void doEnableAudit(const AuditConfig &cfg); // machine_audit.cpp
    void applyFault(const NetworkFault &f);     // machine_audit.cpp
    using AuditReport = std::function<void(const std::string &check,
                                           const std::string &detail)>;
    /** Run every invariant check, reporting each violation (the
     * auditor's pass, and a restore's last check; machine_audit.cpp). */
    void auditInvariants(const AuditReport &report) const;
    /** The checkpoint field list of the whole machine, and of one packet
     * of its table (machine_checkpoint.cpp). */
    void fields(CkptArchive &ar);
    void packetFields(CkptArchive &ar, Packet &p) const;
    /** Per-cycle post-barrier work: apply staged releases, merge the
     * cycle's staged packet events, then run deferred delivery side
     * effects in endpoint registration order (so a cycle's hop records
     * land before the deliveries that close those packets' flights). */
    void serialPhase(Cycle now);
    /** Settle what sleeping routers and adapters owe their idle cycles
     * up to now() (before stall totals are read or state is saved). */
    void settleIdle();
    /**
     * Every count metricsJson() exports, chip by chip: each router's
     * flits per input port, SA2 grants, SA2 losses and VA credit
     * stalls; each channel adapter's flits sent and received, idle
     * cycles and credit stalls; each endpoint's injections and
     * deliveries.
     */
    void readCounts(std::vector<std::uint64_t> &out) const;
    /** `chip.<n>.router.<u>.<v>`, the metrics path of router @p r. */
    std::string routerPath(NodeId n, RouterId r) const;
    /** Latency of the torus link leaving @p n along (dim, dir): the
     * packaging model's, or the fixed one. */
    Cycle torusLatency(NodeId n, int dim, Dir dir) const;
    void validateTree(const McastTree &tree) const;
    /** Throw std::invalid_argument, naming @p who, for a packet
     * makeWrite rejects. */
    void checkPacket(const char *who, EndpointAddr src, EndpointAddr dst,
                     std::uint8_t pattern, int size_flits) const;
    /** A new record from the slab of @p src's node, with the fields
     * every injection sets. */
    Packet *newPacket(EndpointAddr src, std::uint8_t pattern,
                      int size_flits, std::int32_t counter);
    MachineSnapshot buildSnapshot(Cycle now, const std::string &reason);
    ProgressProbe progressProbe() const;

    /** Host wall-clock bookkeeping behind hostJson(). Declared first so
     * `built` is read before anything else is constructed. */
    struct HostClock
    {
        using Clock = std::chrono::steady_clock;
        Clock::time_point built = Clock::now();
        Clock::time_point first_run{};    ///< start of the first run()
        Clock::time_point last_run_end{}; ///< end of the latest run()
        Clock::duration in_run{};         ///< summed time inside run()
        Cycle run_cycles = 0;             ///< cycles advanced by run()
        std::uint64_t run_ticks = 0;      ///< component ticks in run()
        bool ran = false;
    };
    HostClock host_;

    MachineConfig cfg_;
    TorusGeom geom_;
    ChipLayout layout_;
    RouteTable routes_; ///< one on-chip route table for every chip
    Engine engine_;
    Rng rng_;
    Cycle lookahead_cap_ = 1;
    /** Endpoint total-latency histogram bin width, scaled with the
     * machine diameter at construction (see the ctor). */
    double lat_bin_width_ = 32.0;
    /** Releases staged on engine lanes of packets homed on other chips'
     * slabs, applied at the start of each window's serial replay. */
    LaneBuffer<Packet *> releases_;

    std::vector<std::unique_ptr<Chip>> chips_;
    std::vector<Channel> torus_channels_; ///< in wiring order
    /** Per node, bit e set while endpoint e holds staged deliveries
     * (the serial phase flushes only those, in registration order). */
    std::vector<std::uint64_t> staged_deliveries_;

    std::uint64_t next_packet_id_ = 1;
    std::int32_t next_group_ = 0;
    std::vector<std::uint8_t> group_slices_;
    std::uint64_t mcast_sends_ = 0; ///< multicast injections, ever
    std::uint64_t delivered_ = 0;
    Cycle last_delivery_ = 0;
    ScalarStat latency_;
    std::function<void(const PacketPtr &, Cycle)> deliver_hook_;

    /** Extra state riding along in checkpoints (see
     * registerCheckpointClient). */
    struct CheckpointClient
    {
        std::string name;
        std::function<void(CkptArchive &)> fields;
        const void *owner = nullptr;
    };
    std::vector<CheckpointClient> ckpt_clients_;
    std::string restored_from_; ///< checkpoint provenance (run report)
    Cycle restored_cycle_ = 0;
    bool attached_ = false; ///< attachInstrumentation() has run

    std::unique_ptr<MetricsRegistry> metrics_;
    Counter *m_delivered_ = nullptr; ///< machine.delivered
    ScalarStat *m_hops_ = nullptr;   ///< machine.hops per delivery
    /** machine.latency.{source_queue,network,destination}: the Section 4
     * breakdown of each delivery's latency. */
    std::array<ScalarStat *, 3> m_latency_{};
    Histogram *m_latency_total_ = nullptr; ///< machine.latency.total
    /** readCounts() at the attach or the last reset: metricsJson()
     * exports the counts less these. */
    std::vector<std::uint64_t> count_base_;
    /** What every component emits packet events into; the trace ring
     * and the flow probe attach to it. */
    PacketEventStream events_;
    std::unique_ptr<RingTraceSink> trace_;
    std::unique_ptr<FlowProbe> flow_;
    std::unique_ptr<IntervalSampler> sampler_;
    std::unique_ptr<ProgressMeter> progress_;
    std::unique_ptr<EngineProfiler> host_profile_;
    std::unique_ptr<Auditor> audit_;
};

} // namespace anton2
