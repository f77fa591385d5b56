#include "trace/chrome_trace.hpp"

#include <map>
#include <utility>

#include "sim/json.hpp"

namespace anton2 {

namespace {

/**
 * Deterministic thread id for a (kind, unit, port) tuple within its
 * process. Ranges are disjoint per kind so tracks never collide:
 * routers get one track per output port.
 */
int
trackTid(TraceUnitKind kind, std::int16_t unit, std::int16_t port)
{
    const int u = unit < 0 ? 0 : unit;
    const int p = port < 0 ? 0 : port + 1;
    switch (kind) {
      case TraceUnitKind::Router: return 1000 + u * 10 + p;
      case TraceUnitKind::ChannelAdapter: return 4000 + u;
      case TraceUnitKind::Endpoint: return 5000 + u;
      case TraceUnitKind::Link: return 6000 + u;
    }
    return 0;
}

const char *
kindName(TraceUnitKind kind)
{
    switch (kind) {
      case TraceUnitKind::Router: return "router";
      case TraceUnitKind::ChannelAdapter: return "ca";
      case TraceUnitKind::Endpoint: return "ep";
      case TraceUnitKind::Link: return "link";
    }
    return "unit";
}

std::string
defaultTrackName(TraceUnitKind kind, std::int16_t unit, std::int16_t port)
{
    std::string name = std::string(kindName(kind)) + " "
                       + std::to_string(unit);
    // A link record's port field counts the frames it rewound.
    if (port >= 0 && kind != TraceUnitKind::Link)
        name += ":" + std::to_string(port);
    return name;
}

/** Simulated microseconds for a Chrome trace "ts" field. */
double
traceUs(Cycle c)
{
    return cyclesToNs(c) / 1000.0;
}

/** A process_name (@p tid < 0) or thread_name metadata event. */
void
writeNameEvent(JsonWriter &w, std::int32_t pid, int tid,
               std::string_view name)
{
    w.beginObject(JsonWriter::Inline)
        .key("name").string(tid < 0 ? "process_name" : "thread_name")
        .key("ph").string("M").key("pid").integer(pid);
    if (tid >= 0)
        w.key("tid").integer(tid);
    w.key("args").beginObject(JsonWriter::Inline)
        .key("name").string(name).end().end();
}

/** Cycles per stall class, as one inline object. */
void
writeStallTotals(JsonWriter &w, const PortStallTotals &t)
{
    w.beginObject(JsonWriter::Inline);
    for (int c = 0; c < kNumStallClasses; ++c)
        w.key(stallClassName(static_cast<StallClass>(c)))
            .integer(t.cycles[static_cast<std::size_t>(c)]);
    w.end();
}

} // namespace

std::string
chromeTraceJson(const ChromeTraceInput &in)
{
    // Collect every track that appears (events plus stall reports) so
    // metadata names exactly the tracks present, in sorted order.
    std::map<std::pair<std::int32_t, int>, std::string> tracks;
    auto noteTrack = [&](TraceUnitKind kind, std::int32_t node,
                         std::int16_t unit, std::int16_t port) {
        const int tid = trackTid(kind, unit, port);
        auto &name = tracks[{ node, tid }];
        if (name.empty()) {
            name = in.track_name ? in.track_name(kind, node, unit, port)
                                 : defaultTrackName(kind, unit, port);
        }
        return tid;
    };
    for (const auto &ev : in.events)
        noteTrack(ev.unit_kind, ev.node, ev.unit, ev.port);
    for (const auto &st : in.stalls)
        noteTrack(TraceUnitKind::Router, st.node, st.unit, st.port);
    // Sampled flow packets: one pre-named track each in the synthetic
    // flows process.
    for (const auto &[tid, name] : in.flow_threads)
        tracks[{ kFlowsPid, tid }] = name;

    // Counter tracks may reference processes with no event tracks (most
    // notably the synthetic machine-wide pid -1); collect every pid that
    // needs a process_name so metadata stays complete and sorted.
    std::map<std::int32_t, bool> pids;
    for (const auto &[key, name] : tracks)
        pids[key.first] = true;
    for (const auto &ct : in.counters)
        pids[ct.node] = true;

    // otherData: provenance plus the machine-wide stall aggregate used
    // by the metrics cross-check.
    PortStallTotals agg;
    for (const auto &st : in.stalls) {
        for (int c = 0; c < kNumStallClasses; ++c)
            agg.cycles[static_cast<std::size_t>(c)] +=
                st.totals.cycles[static_cast<std::size_t>(c)];
    }
    JsonWriter w;
    w.beginObject()
        .key("displayTimeUnit").string("ns")
        .key("otherData").beginObject()
        .key("generator").string("anton2net")
        .key("clock_ns_per_cycle").number(kNsPerCycle)
        .key("end_cycle").number(in.end_cycle)
        .key("events_recorded").number(in.recorded)
        .key("events_dropped").number(in.dropped)
        .key("sample_stride").number(in.sample_stride)
        .key("stall_totals");
    writeStallTotals(w, agg);
    w.end().key("traceEvents");
    // An empty event list prints "[\n  ]", not "[]". Every event below
    // but a flow span belongs to a pid, so the list is empty exactly
    // when there are neither pids nor flow spans.
    if (pids.empty() && in.flow_spans.empty())
        return w.raw("[\n  ]").end().take() + '\n';
    w.beginArray();

    // Track metadata: one process_name per pid (chips, plus the machine
    // pseudo-process when counter tracks use it), one thread_name per
    // track, sorted by (pid, tid) for byte-stable output.
    for (const auto &[pid, unused] : pids) {
        (void)unused;
        writeNameEvent(w, pid, -1,
                       pid == kFlowsPid ? std::string("flows")
                       : pid < 0        ? std::string("machine")
                                        : "chip " + std::to_string(pid));
        for (auto it = tracks.lower_bound({ pid, 0 });
             it != tracks.end() && it->first.first == pid; ++it)
            writeNameEvent(w, pid, it->first.second, it->second);
    }

    // Lifecycle records as thread-scoped instant events.
    for (const auto &ev : in.events) {
        w.beginObject(JsonWriter::Inline)
            .key("name").string(traceEventName(ev.type))
            .key("ph").string("i").key("s").string("t")
            .key("ts").number(traceUs(ev.cycle)).key("pid").integer(ev.node)
            .key("tid").integer(trackTid(ev.unit_kind, ev.unit, ev.port))
            .key("args").beginObject(JsonWriter::Inline)
            .key("packet").integer(ev.packet).key("cycle").integer(ev.cycle)
            .key("vc").integer(ev.vc).key("port").integer(ev.port)
            .end().end();
    }

    // Stall attribution: one stacked counter sample per router output
    // port at the final timestamp (totals over the sampled window).
    for (const auto &st : in.stalls) {
        const int tid = trackTid(TraceUnitKind::Router, st.unit, st.port);
        w.beginObject(JsonWriter::Inline)
            .key("name").string("stalls " + tracks[{ st.node, tid }])
            .key("ph").string("C").key("ts").number(traceUs(in.end_cycle))
            .key("pid").integer(st.node).key("tid").integer(tid)
            .key("args");
        writeStallTotals(w, st.totals);
        w.end();
    }

    // Windowed time-series curves as counter events, one sample per
    // window boundary (tid 0 within the owning process). NaN samples
    // (e.g. latency mean of an empty window) are skipped: Perfetto's
    // counter parser takes finite numbers only.
    for (const auto &ct : in.counters) {
        for (const auto &pt : ct.points) {
            if (pt.value != pt.value)
                continue;
            w.beginObject(JsonWriter::Inline)
                .key("name").string(ct.name)
                .key("ph").string("C").key("ts").number(traceUs(pt.cycle))
                .key("pid").integer(ct.node).key("tid").integer(0)
                .key("args").beginObject(JsonWriter::Inline)
                .key("value").number(pt.value).end().end();
        }
    }

    // Sampled flow packets: one complete ('X') slice per hop, on the
    // packet's own track, spanning head arrival to tail departure.
    for (const auto &fs : in.flow_spans) {
        w.beginObject(JsonWriter::Inline)
            .key("name").string(fs.name).key("ph").string("X")
            .key("ts").number(traceUs(fs.begin))
            .key("dur").number(traceUs(fs.end - fs.begin))
            .key("pid").integer(kFlowsPid).key("tid").integer(fs.tid)
            .key("args").beginObject(JsonWriter::Inline)
            .key("packet").integer(fs.packet).key("cycle").integer(fs.begin)
            .key("queue_cycles").integer(fs.queue)
            .key("xfer_cycles").integer(fs.xfer).end().end();
    }
    return w.end().end().take() + '\n';
}

std::string
hostTimelineJson(const HostTimelineInput &in)
{
    JsonWriter w;
    w.beginObject()
        .key("displayTimeUnit").string("ns")
        .key("otherData").beginObject()
        .key("generator").string("anton2net host profile")
        .key("time_base").string("host wall clock, us since first window")
        .key("windows").number(in.windows)
        .key("detail_windows").number(in.detail_windows)
        .key("detail_dropped").number(in.detail_dropped)
        .key("profiled_seconds").number(in.profiled_seconds)
        .end()
        .key("traceEvents").beginArray();
    writeNameEvent(w, 0, -1, "engine host");
    for (const auto &[tid, name] : in.threads)
        writeNameEvent(w, 0, tid, name);
    for (const auto &sl : in.slices) {
        w.beginObject(JsonWriter::Inline)
            .key("name").string(sl.name).key("ph").string("X")
            .key("ts").number(sl.ts_us).key("dur").number(sl.dur_us)
            .key("pid").integer(0).key("tid").integer(sl.tid)
            .key("args").beginObject(JsonWriter::Inline)
            .key("cycle").integer(sl.start_cycle)
            .key("window_cycles").integer(sl.window).end().end();
    }
    return w.end().end().take() + '\n';
}

} // namespace anton2
