/**
 * @file
 * Cycle-level event tracing: packet lifecycle records and stall
 * attribution (the event layer underneath the aggregate telemetry of
 * sim/metrics.hpp).
 *
 * The aggregate counters answer "how much"; this layer answers "why a
 * flit waited". Components emit fixed-size binary TraceEvent records
 * into a TraceSink at the points a packet changes state (injection,
 * route computation, VC allocation, switch grant, link traversal,
 * retransmission, ejection), carrying the cycle, the emitting unit's
 * coordinates (chip / unit kind / unit / port / VC), and the packet id.
 * The same null-check discipline as MetricsRegistry applies: an unbound
 * component pays one pointer test per would-be record site, so the
 * tracing build is the normal build.
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

#include "sim/lane_staging.hpp"
#include "sim/types.hpp"

namespace anton2 {

/** Packet lifecycle states recorded by the tracing layer. */
enum class TraceEventType : std::uint8_t
{
    Inject = 0,       ///< packet granted injection at its source endpoint
    RouteComputed,    ///< RC stage picked an output port at a router
    VcAllocated,      ///< VA stage reserved downstream VC credits
    SwitchGrant,      ///< SA2 granted the crossbar output port
    LinkTraverse,     ///< head flit serialized onto an external torus link
    Retransmit,       ///< link-layer go-back-N resend (no packet identity)
    Eject,            ///< full packet reassembled at a destination endpoint
};
inline constexpr int kNumTraceEventTypes = 7;

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

/** One fixed-size binary trace record. */
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
 * Destination for trace records. Components hold a `TraceSink *` that is
 * null until bound; the sampling filter lives here so every emit site
 * shares one policy (record packets whose id falls on the sample
 * stride; packet-less records always pass).
 *
 * Threaded and windowed runs: record() on an engine lane stages the
 * event (LaneStaging) and the serial replay merges it with
 * mergeStaged(cycle), so trace exports are byte-identical at any thread
 * count. Truly serial paths (lane -1, outside any engine parallel
 * phase) bypass staging entirely.
 */
class TraceSink
{
  public:
    virtual ~TraceSink() = default;

    /** Append one record (called on the simulation hot path). */
    void
    record(const TraceEvent &ev)
    {
        const int lane = par::currentLane();
        if (lane >= 0) [[unlikely]] {
            staged_.stage(lane, ev);
            return;
        }
        doRecord(ev);
    }

    /** Size the per-lane staging buffers (see LaneStaging::configure;
     * call with Engine::laneCount() and the largest lookahead window
     * whenever either changes). */
    void
    configureLanes(std::size_t lanes, std::size_t window_depth = 1)
    {
        staged_.configure(lanes, window_depth);
    }

    /** Replay cycle @p cycle's staged events into the store in lane
     * order (serial replay only). A no-op when nothing is staged. */
    void
    mergeStaged(Cycle cycle)
    {
        staged_.merge(cycle, [this](const TraceEvent &ev) { doRecord(ev); });
    }

    /** True if lifecycle events for @p packet_id should be recorded. */
    bool
    accepts(std::uint64_t packet_id) const
    {
        return sample_ <= 1 || packet_id % sample_ == 0;
    }

    /** Record every Nth packet (1 = every packet). */
    void setSampleStride(std::uint64_t n) { sample_ = n < 1 ? 1 : n; }
    std::uint64_t sampleStride() const { return sample_; }

  protected:
    /** Append one record to the underlying store. */
    virtual void doRecord(const TraceEvent &ev) = 0;

  private:
    std::uint64_t sample_ = 1;
    LaneStaging<TraceEvent> staged_;
};

/**
 * Bounded in-memory recorder: a preallocated ring that overwrites the
 * oldest record when full. Overflow is counted, never silent - the
 * exporters surface `dropped()` so a truncated trace reads as truncated.
 */
class RingTraceSink : public TraceSink
{
  public:
    explicit RingTraceSink(std::size_t capacity);

    /** Records in chronological order (oldest surviving first). */
    std::vector<TraceEvent> drain() const;

    std::size_t capacity() const { return ring_.size(); }
    /** Records currently held (min(recorded, capacity)). */
    std::size_t size() const;
    /** Total records ever offered, including overwritten ones. */
    std::uint64_t recorded() const { return recorded_; }
    /** Records lost to ring overflow. */
    std::uint64_t dropped() const;

    /** Forget every record (capacity and sampling are kept). */
    void clear();

  protected:
    void doRecord(const TraceEvent &ev) override;

  private:
    std::vector<TraceEvent> ring_;
    std::size_t next_ = 0;       ///< ring slot the next record lands in
    std::uint64_t recorded_ = 0;
};

/**
 * A component's binding to a sink plus its coordinates. Components hold
 * one of these (sink null until bound) and emit through
 * tracePacketEvent(), which folds the null test, the sampling filter,
 * and the record assembly into one inlined call site.
 */
struct TraceBinding
{
    TraceSink *sink = nullptr;
    std::int32_t node = -1;
    std::int16_t unit = -1;
};

inline void
tracePacketEvent(const TraceBinding &tb, TraceUnitKind kind,
                 TraceEventType type, Cycle now, std::uint64_t packet,
                 int port, int vc)
{
    if (tb.sink == nullptr || !tb.sink->accepts(packet))
        return;
    TraceEvent ev;
    ev.cycle = now;
    ev.packet = packet;
    ev.node = tb.node;
    ev.unit = tb.unit;
    ev.port = static_cast<std::int16_t>(port);
    ev.unit_kind = kind;
    ev.type = type;
    ev.vc = static_cast<std::uint8_t>(vc);
    tb.sink->record(ev);
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
