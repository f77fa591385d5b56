/**
 * @file
 * Flow-level observability: per-hop latency span attribution, the
 * per-(src node, dst node, traffic class) flow matrix, and congestion
 * blame - the "which flows are slow, and which links do they stall on"
 * layer on top of the aggregate telemetry.
 *
 * The aggregate `machine.*.latency.*` stats give the paper's Section 4
 * three-way breakdown but cannot name the slow flows or the links they
 * wait behind. The FlowProbe closes that gap. It reads the hop spans of
 * the packet-event stream (trace/trace.hpp): one PacketEvent per unicast
 * packet per hop - the source endpoint's injection grant, each router's
 * and channel adapter's tail departure - carrying the arrival, grant and
 * departure cycles the unit already holds, so an attached probe takes
 * zero additional clock reads and a detached one costs a single pointer
 * test per site.
 *
 * Determinism is the stream's: records emitted on an engine lane are
 * staged per lane and per cycle offset, and the serial replay merges
 * each cycle in lane order, reproducing the exact stream a serial
 * window-1 run would have produced. Every export (report JSON, matrix
 * CSV, Chrome spans) is therefore byte-identical across thread counts
 * and lookahead windows, with or without the trace ring attached to the
 * same stream.
 *
 * Aggregation happens at the canonical serial points:
 *  - addHop() folds each hop's queue wait (grant - arrival) and transfer
 *    time (departure - grant) into per-unit *blame* counters, and
 *    appends the hop to the packet's in-flight path log;
 *  - recordDelivery() (called by the destination endpoint during the
 *    serial delivery flush) closes the flight into the flow matrix
 *    cell: packet/flit counts, latency count/sum/min/max plus a log2-
 *    bucketed p99 estimate, hop-count stats, and a worst-packet
 *    exemplar carrying its full hop path.
 *
 * Memory is bounded: flow cells are allocated on first packet (sparse
 * in the number of active (src, dst, class) pairs), and per-packet path
 * logs live only while the packet is in flight. Multicast packets are
 * excluded (replicas share one packet id, so a per-packet flight log
 * would be ambiguous).
 */
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/types.hpp"
#include "trace/trace.hpp"

namespace anton2 {

class JsonWriter;

/** Snake-case kind name used in the flow exports: endpoint, router, or
 * link (a channel adapter's torus-link egress). */
const char *flowUnitKindName(TraceUnitKind k);

struct FlowProbeConfig
{
    /** Retain Chrome-trace span paths for packets whose id falls on
     * this stride (0 = retain none). */
    std::uint64_t sample = 0;
    /** Digest list lengths (worst flows / most-blamed units). */
    std::size_t topk = 8;
    /** Cap on retained sampled spans; further samples are counted as
     * dropped, never silently lost. */
    std::size_t max_spans = 4096;
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
    /** Worst packet's hop path. */
    std::vector<PacketEvent> worst_path;

    /** Upper edge of the bucket holding the 99th percentile. */
    double p99Estimate() const;
};

/** Blame key: one counter set per registered hop unit. */
struct FlowUnitKey
{
    std::int64_t node = 0;
    TraceUnitKind kind = TraceUnitKind::Endpoint;
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
 * The flow probe. One instance reads the hop spans of the packet-event
 * stream; Machine::serialPhase merges the current cycle's staged records
 * before flushing deliveries, so every hop of a packet is added before
 * the delivery that closes its flight.
 */
class FlowProbe
{
  public:
    explicit FlowProbe(const FlowProbeConfig &cfg);

    const FlowProbeConfig &config() const { return cfg_; }

    /** Name a hop unit (bind time, serial). Blame counters and path
     * rendering resolve units through this table; addHop finds a
     * registered unit's counters by index, with no search. */
    void registerUnit(std::int32_t node, TraceUnitKind kind, int unit,
                      std::string name);

    /** Fold one hop span into its unit's blame and its packet's path
     * log (serial context; the stream delivers in canonical order). */
    void addHop(const PacketEvent &hop);

    /** Close a packet's flight into its flow cell (serial flush only). */
    void recordDelivery(const FlowDeliveryRecord &d);

    /** Registered unit name, or "?" when unbound. */
    const std::string &unitName(std::int64_t node, TraceUnitKind kind,
                                int unit) const;

    // --- exports -----------------------------------------------------

    /**
     * The deterministic `flows` report section: a digest of the top-K
     * worst flows (by mean latency) and most-blamed links/routers,
     * plus - when @p full_matrix - a dense num_nodes^2 matrix with one
     * row per (src, dst) pair (classes merged per pair; zero rows
     * synthesized so the row count is always num_nodes^2), written at
     * @p w's position.
     */
    void writeReport(JsonWriter &w, bool full_matrix,
                     std::size_t num_nodes) const;

    /** The `flows` section as the run report indents it (depth 1). */
    std::string reportJson(bool full_matrix, std::size_t num_nodes) const;

    /** Sparse flow-matrix CSV: one row per active (src, dst, class). */
    std::string matrixCsv() const;

    // --- introspection (tests, Chrome-trace export) ------------------

    struct Span
    {
        FlowDeliveryRecord meta;
        std::vector<PacketEvent> path;
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
    FlowProbeConfig cfg_;

    /** The counters of a hop's unit: the registered ones through
     * units_, any other through blame_ under the name "?". */
    FlowUnitBlame &blameFor(const PacketEvent &hop);

    using PathMap =
        std::unordered_map<std::uint64_t, std::vector<PacketEvent>>;

    std::map<FlowKey, FlowCell> cells_;
    std::map<FlowUnitKey, FlowUnitBlame> blame_;
    /** Registered units' counters (map nodes are stable), indexed by
     * node * kUnitKinds + kind, then by unit. */
    std::vector<std::vector<FlowUnitBlame *>> units_;
    static constexpr int kUnitKinds = 4;
    /** In-flight hop paths, extracted at delivery. */
    PathMap inflight_;
    /** Extracted map nodes, each keeping its path's capacity, reused
     * for the next packets' first hops. */
    std::vector<PathMap::node_type> spare_paths_;
    std::vector<Span> spans_;
    std::uint64_t dropped_spans_ = 0;
    std::uint64_t deliveries_ = 0;
};

} // namespace anton2
