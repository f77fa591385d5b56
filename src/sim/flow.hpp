/**
 * @file
 * Flow-level observability: per-hop latency span attribution, the
 * per-(src node, dst node, traffic class) flow matrix, and congestion
 * blame - the "which flows are slow, and which links do they stall on"
 * layer on top of the aggregate telemetry.
 *
 * The aggregate `machine.*.latency.*` stats give the paper's Section 4
 * three-way breakdown but cannot name the slow flows or the links they
 * wait behind. The FlowProbe closes that gap: routers, channel
 * adapters, and endpoints emit one fixed-size FlowHopRecord per packet
 * per hop - arrival, arbitration grant, departure, all cycles the
 * simulation already holds, so an attached probe takes zero additional
 * clock reads and a detached one costs a single pointer test per site.
 *
 * Determinism follows the trace sink's staging contract
 * (sim/lane_staging.hpp): records emitted from an engine parallel lane
 * are staged per-lane and per-cycle-offset, and the serial replay
 * drains each cycle's bucket in lane order, reproducing the exact
 * stream a serial window-1 run would have produced. Every export
 * (report JSON, matrix CSV, Chrome spans) is therefore byte-identical
 * across thread counts and lookahead windows.
 *
 * Aggregation happens at the canonical serial points:
 *  - apply() folds each hop's queue wait (grant - arrival) and transfer
 *    time (departure - grant) into per-unit *blame* counters, and
 *    appends the hop to the packet's in-flight path log;
 *  - recordDelivery() (called by the destination endpoint during the
 *    serial delivery flush) closes the flight into the flow matrix
 *    cell: packet/flit counts, latency count/sum/min/max plus a log2-
 *    bucketed p99 estimate, hop-count stats, and a worst-packet
 *    exemplar carrying its full hop path.
 *
 * Memory is bounded: flow cells are allocated on first packet (sparse
 * in the number of active (src, dst, class) pairs), per-packet path
 * logs live only while the packet is in flight, and digest_only mode
 * drops the per-cell exemplar paths so a cell is a flat ~200 bytes.
 * Multicast packets are excluded (replicas share one packet id, so a
 * per-packet flight log would be ambiguous).
 */
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/lane_staging.hpp"
#include "sim/types.hpp"

namespace anton2 {

/** The kind of unit a flow hop was recorded at. */
enum class FlowUnitKind : std::uint8_t
{
    Endpoint = 0,     ///< source endpoint injection grant
    Router,           ///< mesh router switch traversal
    Link,             ///< channel adapter torus-link egress
};

/** Snake-case kind name used in the flow exports. */
const char *flowUnitKindName(FlowUnitKind k);

struct FlowProbeConfig
{
    /** Retain Chrome-trace span paths for packets whose id falls on
     * this stride (0 = retain none). */
    std::uint64_t sample = 0;
    /** Digest list lengths (worst flows / most-blamed units). */
    std::size_t topk = 8;
    /** Drop per-cell exemplar paths and per-packet path logs (unless
     * sampling needs them) so memory stays flat per cell. */
    bool digest_only = false;
    /** Cap on retained sampled spans; further samples are counted as
     * dropped, never silently lost. */
    std::size_t max_spans = 4096;
};

/**
 * One per-hop span record. Fixed-size and assembled entirely from
 * cycles the emitting unit already tracks; `cycle` is the departure
 * cycle and doubles as the staging key.
 */
struct FlowHopRecord
{
    Cycle cycle = 0;            ///< departure (tail left the unit)
    Cycle arrival = 0;          ///< head flit buffered at the unit
    Cycle grant = 0;            ///< arbitration / injection grant
    std::uint64_t packet = 0;
    std::int32_t node = -1;     ///< chip the emitting unit sits on
    std::int16_t unit = -1;     ///< router id / adapter index / ep id
    std::int16_t port = -1;     ///< output port where meaningful
    std::int16_t size_flits = 0;
    FlowUnitKind kind = FlowUnitKind::Endpoint;
    std::uint8_t vc = 0;
};

/**
 * Delivery-side record, built by the destination endpoint during the
 * serial delivery flush. Closes out the packet's flight.
 */
struct FlowDeliveryRecord
{
    std::uint64_t packet = 0;
    std::int64_t src_node = 0;
    int src_ep = 0;
    std::int64_t dst_node = 0;
    int dst_ep = 0;
    int tc = 0;                 ///< TrafficClass as an int
    int size_flits = 0;
    int hops = 0;               ///< torus link hops (Packet::hops)
    Cycle birth = 0;            ///< packet creation (latency origin)
    Cycle delivered = 0;
};

/** Flow-matrix key: one cell per (src node, dst node, traffic class). */
struct FlowKey
{
    std::int64_t src = 0;
    std::int64_t dst = 0;
    int tc = 0;

    bool
    operator<(const FlowKey &o) const
    {
        if (src != o.src)
            return src < o.src;
        if (dst != o.dst)
            return dst < o.dst;
        return tc < o.tc;
    }
};

/** Number of log2 latency buckets backing the per-cell p99 estimate. */
inline constexpr int kFlowLatencyBuckets = 32;

/** One flow-matrix cell (allocated on the flow's first delivery). */
struct FlowCell
{
    std::uint64_t packets = 0;
    std::uint64_t flits = 0;
    std::uint64_t lat_sum = 0;
    Cycle lat_min = kNoCycle;
    Cycle lat_max = 0;
    std::uint64_t hop_sum = 0;
    int hop_min = 0;
    int hop_max = 0;
    /** lat_log2[b] counts deliveries whose latency has bit-width b. */
    std::array<std::uint32_t, kFlowLatencyBuckets> lat_log2{};
    std::uint64_t worst_packet = 0;
    Cycle worst_latency = 0;
    /** Worst packet's hop path (empty in digest_only mode). */
    std::vector<FlowHopRecord> worst_path;

    /** Upper edge of the bucket holding the 99th percentile. */
    double p99Estimate() const;
};

/** Blame key: one counter set per registered hop unit. */
struct FlowUnitKey
{
    std::int64_t node = 0;
    FlowUnitKind kind = FlowUnitKind::Endpoint;
    int unit = 0;

    bool
    operator<(const FlowUnitKey &o) const
    {
        if (node != o.node)
            return node < o.node;
        if (kind != o.kind)
            return kind < o.kind;
        return unit < o.unit;
    }
};

/** Per-unit blame counters: where packets waited, and for how long. */
struct FlowUnitBlame
{
    std::string name;             ///< e.g. `r1.2`, `x0p`, `ep3`
    std::uint64_t packets = 0;
    std::uint64_t flits = 0;      ///< packet flits that crossed the unit
    std::uint64_t queue_wait = 0; ///< cycles between arrival and grant
    std::uint64_t xfer_cycles = 0; ///< cycles between grant and departure
};

/**
 * The flow probe. One instance is shared by every component (bound via
 * FlowBinding, null until attached), exactly like TraceSink; record()
 * stages from parallel lanes and Machine::serialPhase drains the
 * current cycle's buckets before flushing deliveries, so every hop of
 * a packet is applied before the delivery that closes its flight.
 */
class FlowProbe
{
  public:
    explicit FlowProbe(const FlowProbeConfig &cfg);

    const FlowProbeConfig &config() const { return cfg_; }

    /** Name a hop unit (bind time, serial). Blame counters and path
     * rendering resolve units through this table. */
    void registerUnit(std::int32_t node, FlowUnitKind kind, int unit,
                      std::string name);

    /** Append one hop record (simulation hot path). */
    void
    record(const FlowHopRecord &r)
    {
        const int lane = par::currentLane();
        if (lane >= 0) [[unlikely]] {
            staged_.stage(lane, r);
            return;
        }
        apply(r);
    }

    /** Close a packet's flight into its flow cell (serial flush only). */
    void recordDelivery(const FlowDeliveryRecord &d);

    /** Size the per-lane staging buffers; same contract as
     * TraceSink::configureLanes. */
    void
    configureLanes(std::size_t lanes, std::size_t window_depth = 1)
    {
        staged_.configure(lanes, window_depth);
    }

    /** Apply cycle @p cycle's staged hop records in lane order (serial
     * replay only). A no-op when nothing is staged. */
    void
    mergeStaged(Cycle cycle)
    {
        staged_.merge(cycle, [this](const FlowHopRecord &r) { apply(r); });
    }

    /** Registered unit name, or "?" when unbound. */
    const std::string &unitName(std::int64_t node, FlowUnitKind kind,
                                int unit) const;

    // --- exports -----------------------------------------------------

    /**
     * The deterministic `flows` report section: a digest of the top-K
     * worst flows (by mean latency) and most-blamed links/routers,
     * plus - when @p full_matrix - a dense num_nodes^2 matrix with one
     * row per (src, dst) pair (classes merged per pair; zero rows
     * synthesized so the row count is always num_nodes^2).
     */
    std::string reportJson(bool full_matrix, std::size_t num_nodes,
                           int indent = 2, int depth = 1) const;

    /** Sparse flow-matrix CSV: one row per active (src, dst, class). */
    std::string matrixCsv() const;

    // --- introspection (tests, Chrome-trace export) ------------------

    struct Span
    {
        FlowDeliveryRecord meta;
        std::vector<FlowHopRecord> path;
    };

    const std::map<FlowKey, FlowCell> &cells() const { return cells_; }
    const std::map<FlowUnitKey, FlowUnitBlame> &blame() const
    {
        return blame_;
    }
    /** Delivered spans retained by the `sample` stride, in delivery
     * order (capped at max_spans; see droppedSpans()). */
    const std::vector<Span> &sampledSpans() const { return spans_; }
    std::uint64_t droppedSpans() const { return dropped_spans_; }
    std::uint64_t deliveries() const { return deliveries_; }

  private:
    void apply(const FlowHopRecord &r);
    bool keepPaths(std::uint64_t packet) const;

    FlowProbeConfig cfg_;
    LaneStaging<FlowHopRecord> staged_;

    std::map<FlowKey, FlowCell> cells_;
    std::map<FlowUnitKey, FlowUnitBlame> blame_;
    /** In-flight hop paths, erased at delivery. */
    std::unordered_map<std::uint64_t, std::vector<FlowHopRecord>>
        inflight_;
    std::vector<Span> spans_;
    std::uint64_t dropped_spans_ = 0;
    std::uint64_t deliveries_ = 0;
};

/**
 * A component's binding to the probe plus its coordinates. Components
 * hold one (probe null until bound) and emit through flowHopEvent(),
 * which folds the null test, the multicast filter, and the record
 * assembly into one inlined call site.
 */
struct FlowBinding
{
    FlowProbe *probe = nullptr;
    std::int32_t node = -1;
    std::int16_t unit = -1;
};

inline void
flowHopEvent(const FlowBinding &fb, FlowUnitKind kind,
             std::uint64_t packet, int mcast_group, int size_flits,
             Cycle arrival, Cycle grant, Cycle depart, int port, int vc)
{
    if (fb.probe == nullptr || mcast_group >= 0)
        return;
    FlowHopRecord r;
    r.cycle = depart;
    r.arrival = arrival;
    r.grant = grant;
    r.packet = packet;
    r.node = fb.node;
    r.unit = fb.unit;
    r.port = static_cast<std::int16_t>(port);
    r.size_flits = static_cast<std::int16_t>(size_flits);
    r.kind = kind;
    r.vc = static_cast<std::uint8_t>(vc);
    fb.probe->record(r);
}

} // namespace anton2
