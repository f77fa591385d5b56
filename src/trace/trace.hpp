/**
 * @file
 * The packet-event stream and the trace layer it feeds: packet lifecycle
 * records, flow hop spans, and stall attribution (the event layer
 * underneath the aggregate telemetry of sim/metrics.hpp).
 *
 * The aggregate counters answer "how much"; this layer answers "why a
 * flit waited". Routers, channel adapters, endpoints and link senders
 * each hold one EventBinding and emit one fixed-size PacketEvent, through
 * emitPacketEvent(), at the points a packet changes state (injection,
 * route computation, VC allocation, switch grant, link traversal, tail
 * departure, retransmission, ejection). A record carries the cycle, the
 * emitting unit's coordinates (chip / unit kind / unit / port / VC), the
 * packet id, and for a hop the arrival and grant cycles the unit already
 * holds. An unbound component pays one pointer test per would-be record
 * site, so the tracing build is the normal build.
 *
 * The PacketEventStream routes each record once, at emission, to its
 * readers: lifecycle records to the trace ring when its sampling stride
 * takes the packet, hop spans of unicast packets to the flow probe
 * (sim/flow.hpp), and the injection grant to both. On an engine lane the
 * record is staged (sim/lane_staging.hpp) in the buffer of its cycle
 * offset, and Machine's serial replay merges one simulated cycle at a
 * time in lane order - the exact stream a serial window-1 run delivers -
 * so every export is byte-identical at any thread count and window.
 *
 * Recording is decoupled from interpretation: RingTraceSink stores raw
 * records in a bounded ring (overwriting the oldest on overflow, never
 * allocating on the hot path), and the exporters (chrome_trace.hpp,
 * flight_record.hpp) turn a drained ring into human-facing artifacts.
 *
 * Stall attribution is the complementary per-cycle view: every cycle of
 * every connected router output port is classified into exactly one
 * StallClass, so per-port class totals sum to the sampled cycle count
 * and can be cross-checked against both the metrics tree and the trace.
 */
#pragma once

#include <array>
#include <cstdint>
#include <cstddef>
#include <vector>

#include "noc/packet.hpp"
#include "sim/lane_staging.hpp"
#include "sim/types.hpp"

namespace anton2 {

class FlowProbe;

/** Packet lifecycle states recorded by the packet-event stream. */
enum class TraceEventType : std::uint8_t
{
    Inject = 0,       ///< packet granted injection at its source endpoint
    RouteComputed,    ///< RC stage picked an output port at a router
    VcAllocated,      ///< VA stage reserved downstream VC credits
    SwitchGrant,      ///< SA2 granted the crossbar output port
    LinkTraverse,     ///< head flit serialized onto an external torus link
    Retransmit,       ///< link-layer go-back-N resend (no packet identity)
    Eject,            ///< full packet reassembled at a destination endpoint
    Depart,           ///< tail left a router or adapter (flow hop only)
};

/** Short stable name for an event type (trace schema vocabulary). */
const char *traceEventName(TraceEventType t);

/** The kind of unit that emitted an event. */
enum class TraceUnitKind : std::uint8_t
{
    Endpoint = 0,
    Router,
    ChannelAdapter,
    Link,
};

/** One fixed-size binary trace record, as the ring stores it: the
 * fields of a PacketEvent the trace exports read, in 32 bytes instead of
 * 48 (the default ring holds 2^19 of them). */
struct TraceEvent
{
    Cycle cycle = 0;
    std::uint64_t packet = 0;   ///< packet id, or 0 for packet-less events
    std::int32_t node = -1;     ///< chip the emitting unit sits on
    std::int16_t unit = -1;     ///< router id / adapter index / endpoint id
    std::int16_t port = -1;     ///< output port where meaningful, else -1
    TraceUnitKind unit_kind = TraceUnitKind::Endpoint;
    TraceEventType type = TraceEventType::Inject;
    std::uint8_t vc = 0;
};

/**
 * Bounded in-memory recorder: a ring that reserves its capacity up
 * front, appends until full and then overwrites the oldest record, so
 * memory is touched only as records arrive and the hot path never
 * allocates. Overflow is counted, never silent - the
 * exporters surface `dropped()` so a truncated trace reads as truncated.
 * The sampling filter lives here so every emit site shares one policy
 * (record packets whose id falls on the sample stride; packet-less
 * records always pass).
 */
class RingTraceSink
{
  public:
    explicit RingTraceSink(std::size_t capacity);

    /** Append one record (serial context; the stream merges lanes). */
    void push(const TraceEvent &ev);

    /** True if lifecycle events for @p packet_id should be recorded. */
    bool
    accepts(std::uint64_t packet_id) const
    {
        return sample_ <= 1 || packet_id % sample_ == 0;
    }

    /** Record every Nth packet (1 = every packet). */
    void setSampleStride(std::uint64_t n) { sample_ = n < 1 ? 1 : n; }
    std::uint64_t sampleStride() const { return sample_; }

    /** Records in chronological order (oldest surviving first). */
    std::vector<TraceEvent> drain() const;

    std::size_t capacity() const { return capacity_; }
    /** Records currently held (min(recorded, capacity)). */
    std::size_t size() const { return ring_.size(); }
    /** Total records ever offered, including overwritten ones. */
    std::uint64_t recorded() const { return recorded_; }
    /** Records lost to ring overflow. */
    std::uint64_t dropped() const { return recorded_ - ring_.size(); }

    /** Forget every record (capacity and sampling are kept). */
    void clear();

  private:
    std::size_t capacity_;
    std::vector<TraceEvent> ring_; ///< grows to capacity_, then wraps
    std::size_t next_ = 0;         ///< oldest record once full, else 0
    std::uint64_t recorded_ = 0;
    std::uint64_t sample_ = 1;
};

/**
 * One packet event, as emitted and staged. A lifecycle record reads
 * `cycle`, `packet`, the coordinates, `port` and `vc`; a hop span also
 * reads `arrival`, `grant` and `size_flits`, with `cycle` its departure.
 * `to` names the readers it was routed to at emission.
 */
struct PacketEvent
{
    static constexpr std::uint8_t kToTrace = 1;
    static constexpr std::uint8_t kToFlows = 2;

    Cycle cycle = 0;            ///< event cycle (a hop's departure)
    Cycle arrival = 0;          ///< hop: head flit buffered at the unit
    Cycle grant = 0;            ///< hop: arbitration / injection grant
    std::uint64_t packet = 0;   ///< packet id, or 0 for packet-less events
    std::int32_t node = -1;     ///< chip the emitting unit sits on
    std::int16_t unit = -1;     ///< router id / adapter index / ep id
    std::int16_t port = -1;     ///< output port where meaningful, else -1
    std::int16_t size_flits = 0;
    TraceUnitKind kind = TraceUnitKind::Endpoint;
    TraceEventType type = TraceEventType::Inject;
    std::uint8_t vc = 0;
    std::uint8_t to = 0;        ///< kToTrace | kToFlows
};

/**
 * The one stream every component emits into (owned by the Machine, or a
 * test). The trace ring and the flow probe attach to it; each is
 * optional and not owned.
 */
class PacketEventStream
{
  public:
    void setTrace(RingTraceSink *ring) { trace_ = ring; }
    void setFlows(FlowProbe *probe) { flows_ = probe; }
    RingTraceSink *trace() const { return trace_; }
    FlowProbe *flows() const { return flows_; }

    /** Deliver @p ev, or stage it when called on an engine lane
     * (simulation hot path). */
    void
    emit(const PacketEvent &ev)
    {
        const int lane = par::currentLane();
        if (lane >= 0) [[unlikely]] {
            buckets_[static_cast<std::size_t>(ev.cycle % buckets_.size())]
                .push(lane, ev);
            return;
        }
        deliver(ev);
    }

    /**
     * Size the staging: one LaneBuffer of @p lanes lanes per cycle
     * offset of a window of up to @p window_depth cycles, so
     * `cycle % depth` is distinct within any one window. Call with
     * Engine::laneCount() and the largest lookahead window whenever
     * either changes (between windows: staged records are dropped).
     */
    void configure(std::size_t lanes, std::size_t window_depth);

    /** Deliver cycle @p cycle's staged records in lane order (serial
     * replay only). */
    void
    merge(Cycle cycle)
    {
        if (trace_ == nullptr && flows_ == nullptr)
            return;
        buckets_[static_cast<std::size_t>(cycle % buckets_.size())].drain(
            [this](const PacketEvent &ev) { deliver(ev); });
    }

  private:
    void deliver(const PacketEvent &ev);

    RingTraceSink *trace_ = nullptr;
    FlowProbe *flows_ = nullptr;
    std::vector<LaneBuffer<PacketEvent>> buckets_{ 1 };
};

/**
 * A component's binding to the stream plus its coordinates (stream null
 * until bound). Components emit through emitPacketEvent(), which folds
 * the null test, the routing, and the record assembly into one inlined
 * call site.
 */
struct EventBinding
{
    PacketEventStream *stream = nullptr;
    std::int32_t node = -1;
    std::int16_t unit = -1;
    TraceUnitKind kind = TraceUnitKind::Endpoint;
};

/**
 * Emit one packet event of @p pkt (null for a packet-less retransmit)
 * at @p now. A Depart record is a hop span - the unit held the packet
 * from @p arrival, was granted at @p grant and saw the tail leave at
 * @p now - and goes to the flow probe for a unicast packet. An Inject
 * record is also the source endpoint's hop span (birth to grant) and
 * goes to both readers. Every other type goes to the trace ring only,
 * and the ring takes a record when its sampling stride takes the packet.
 */
inline void
emitPacketEvent(const EventBinding &b, TraceEventType type, Cycle now,
                const Packet *pkt, int port, int vc, Cycle arrival = 0,
                Cycle grant = 0)
{
    if (b.stream == nullptr)
        return;
    const std::uint64_t id = pkt != nullptr ? pkt->id : 0;
    std::uint8_t to = 0;
    if (type != TraceEventType::Depart && b.stream->trace() != nullptr
        && b.stream->trace()->accepts(id))
        to |= PacketEvent::kToTrace;
    if ((type == TraceEventType::Inject || type == TraceEventType::Depart)
        && b.stream->flows() != nullptr && pkt->mcast_group < 0)
        to |= PacketEvent::kToFlows;
    if (to == 0)
        return;
    PacketEvent ev;
    ev.cycle = now;
    ev.arrival = arrival;
    ev.grant = grant;
    ev.packet = id;
    ev.node = b.node;
    ev.unit = b.unit;
    ev.port = static_cast<std::int16_t>(port);
    ev.size_flits =
        static_cast<std::int16_t>(pkt != nullptr ? pkt->size_flits : 0);
    ev.kind = b.kind;
    ev.type = type;
    ev.vc = static_cast<std::uint8_t>(vc);
    ev.to = to;
    b.stream->emit(ev);
}

// ---------------------------------------------------------------------
// Stall attribution
// ---------------------------------------------------------------------

/**
 * Exhaustive classification of one router output-port cycle. Exactly one
 * class applies per connected port per sampled cycle:
 *  - Busy: a flit crossed the switch onto this port.
 *  - LinkBusy: a granted packet holds the port but could not send (the
 *    cut-through gap: its tail has not yet arrived at the input buffer).
 *  - CreditStall: >= 1 routed head wants this port, and every one of
 *    them lacks downstream VC credits.
 *  - ArbLoss: >= 1 routed head wants this port with credits in hand,
 *    but the grant went elsewhere (input-side SA1 conflict, or the
 *    head is still ageing through the VA/SA pipeline registers).
 *  - NoInput: no buffered packet is routed to this port.
 */
enum class StallClass : std::uint8_t
{
    Busy = 0,
    LinkBusy,
    CreditStall,
    ArbLoss,
    NoInput,
};
inline constexpr int kNumStallClasses = 5;

/** Snake-case class name used in the metrics tree and trace exports. */
const char *stallClassName(StallClass c);

/** Per-output-port stall-class cycle totals. */
struct PortStallTotals
{
    std::array<std::uint64_t, kNumStallClasses> cycles{};

    std::uint64_t
    total() const
    {
        std::uint64_t t = 0;
        for (const auto c : cycles)
            t += c;
        return t;
    }
};

/**
 * Per-router stall sampler: one PortStallTotals per output port plus the
 * number of cycles sampled. The router classifies every connected port
 * every cycle while enabled, so for each connected port
 * `ports[p].total() == sampled_cycles`.
 */
struct RouterStallSampler
{
    explicit RouterStallSampler(int num_ports)
        : ports(static_cast<std::size_t>(num_ports))
    {
    }

    std::vector<PortStallTotals> ports;
    Cycle sampled_cycles = 0;

    /** Machine-wide aggregation helper: class totals across all ports. */
    PortStallTotals
    aggregate() const
    {
        PortStallTotals agg;
        for (const auto &p : ports) {
            for (int c = 0; c < kNumStallClasses; ++c)
                agg.cycles[static_cast<std::size_t>(c)] +=
                    p.cycles[static_cast<std::size_t>(c)];
        }
        return agg;
    }
};

} // namespace anton2
