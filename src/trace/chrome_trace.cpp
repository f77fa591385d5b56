#include "trace/chrome_trace.hpp"

#include <map>
#include <utility>

#include "sim/metrics.hpp"

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
std::string
traceTs(Cycle c)
{
    return jsonNumber(cyclesToNs(c) / 1000.0);
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

    std::string out = "{\n  \"displayTimeUnit\": \"ns\",\n";

    // otherData: provenance plus the machine-wide stall aggregate used
    // by the metrics cross-check.
    PortStallTotals agg;
    for (const auto &st : in.stalls) {
        for (int c = 0; c < kNumStallClasses; ++c)
            agg.cycles[static_cast<std::size_t>(c)] +=
                st.totals.cycles[static_cast<std::size_t>(c)];
    }
    out += "  \"otherData\": {\n";
    out += "    \"generator\": \"anton2net\",\n";
    out += "    \"clock_ns_per_cycle\": " + jsonNumber(kNsPerCycle) + ",\n";
    out += "    \"end_cycle\": "
           + jsonNumber(static_cast<double>(in.end_cycle)) + ",\n";
    out += "    \"events_recorded\": "
           + jsonNumber(static_cast<double>(in.recorded)) + ",\n";
    out += "    \"events_dropped\": "
           + jsonNumber(static_cast<double>(in.dropped)) + ",\n";
    out += "    \"sample_stride\": "
           + jsonNumber(static_cast<double>(in.sample_stride)) + ",\n";
    out += "    \"stall_totals\": {";
    for (int c = 0; c < kNumStallClasses; ++c) {
        if (c != 0)
            out += ", ";
        out += "\"";
        out += stallClassName(static_cast<StallClass>(c));
        out += "\": "
               + std::to_string(agg.cycles[static_cast<std::size_t>(c)]);
    }
    out += "}\n  },\n";

    out += "  \"traceEvents\": [";
    bool first = true;
    auto emit = [&](const std::string &ev) {
        out += first ? "\n    " : ",\n    ";
        first = false;
        out += ev;
    };

    // Track metadata: one process_name per pid (chips, plus the machine
    // pseudo-process when counter tracks use it), one thread_name per
    // track, sorted by (pid, tid) for byte-stable output.
    for (const auto &[pid, unused] : pids) {
        (void)unused;
        emit("{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": "
             + std::to_string(pid) + ", \"args\": {\"name\": \""
             + (pid == kFlowsPid ? std::string("flows")
                : pid < 0        ? std::string("machine")
                                 : "chip " + std::to_string(pid))
             + "\"}}");
        for (auto it = tracks.lower_bound({ pid, 0 });
             it != tracks.end() && it->first.first == pid; ++it) {
            emit("{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": "
                 + std::to_string(pid) + ", \"tid\": "
                 + std::to_string(it->first.second)
                 + ", \"args\": {\"name\": \"" + jsonEscape(it->second)
                 + "\"}}");
        }
    }

    // Lifecycle records as thread-scoped instant events.
    for (const auto &ev : in.events) {
        std::string e = "{\"name\": \"";
        e += traceEventName(ev.type);
        e += "\", \"ph\": \"i\", \"s\": \"t\", \"ts\": ";
        e += traceTs(ev.cycle);
        e += ", \"pid\": " + std::to_string(ev.node);
        e += ", \"tid\": "
             + std::to_string(trackTid(ev.unit_kind, ev.unit, ev.port));
        e += ", \"args\": {\"packet\": " + std::to_string(ev.packet);
        e += ", \"cycle\": " + std::to_string(ev.cycle);
        e += ", \"vc\": " + std::to_string(ev.vc);
        e += ", \"port\": " + std::to_string(ev.port);
        e += "}}";
        emit(e);
    }

    // Stall attribution: one stacked counter sample per router output
    // port at the final timestamp (totals over the sampled window).
    for (const auto &st : in.stalls) {
        const int tid = trackTid(TraceUnitKind::Router, st.unit, st.port);
        std::string e = "{\"name\": \"stalls "
                        + jsonEscape(tracks[{ st.node, tid }]);
        e += "\", \"ph\": \"C\", \"ts\": " + traceTs(in.end_cycle);
        e += ", \"pid\": " + std::to_string(st.node);
        e += ", \"tid\": " + std::to_string(tid);
        e += ", \"args\": {";
        for (int c = 0; c < kNumStallClasses; ++c) {
            if (c != 0)
                e += ", ";
            e += "\"";
            e += stallClassName(static_cast<StallClass>(c));
            e += "\": "
                 + std::to_string(
                     st.totals.cycles[static_cast<std::size_t>(c)]);
        }
        e += "}}";
        emit(e);
    }

    // Windowed time-series curves as counter events, one sample per
    // window boundary (tid 0 within the owning process). NaN samples
    // (e.g. latency mean of an empty window) are skipped: Perfetto's
    // counter parser takes finite numbers only.
    for (const auto &ct : in.counters) {
        for (const auto &pt : ct.points) {
            if (pt.value != pt.value)
                continue;
            std::string e = "{\"name\": \"" + jsonEscape(ct.name);
            e += "\", \"ph\": \"C\", \"ts\": " + traceTs(pt.cycle);
            e += ", \"pid\": " + std::to_string(ct.node);
            e += ", \"tid\": 0, \"args\": {\"value\": "
                 + jsonNumber(pt.value) + "}}";
            emit(e);
        }
    }

    // Sampled flow packets: one complete ('X') slice per hop, on the
    // packet's own track, spanning head arrival to tail departure.
    for (const auto &fs : in.flow_spans) {
        std::string e = "{\"name\": \"" + jsonEscape(fs.name);
        e += "\", \"ph\": \"X\", \"ts\": " + traceTs(fs.begin);
        e += ", \"dur\": "
             + jsonNumber(cyclesToNs(fs.end - fs.begin) / 1000.0);
        e += ", \"pid\": " + std::to_string(kFlowsPid);
        e += ", \"tid\": " + std::to_string(fs.tid);
        e += ", \"args\": {\"packet\": " + std::to_string(fs.packet);
        e += ", \"cycle\": " + std::to_string(fs.begin);
        e += ", \"queue_cycles\": " + std::to_string(fs.queue);
        e += ", \"xfer_cycles\": " + std::to_string(fs.xfer);
        e += "}}";
        emit(e);
    }

    out += "\n  ]\n}\n";
    return out;
}

std::string
hostTimelineJson(const HostTimelineInput &in)
{
    std::string out = "{\n  \"displayTimeUnit\": \"ns\",\n";
    out += "  \"otherData\": {\n";
    out += "    \"generator\": \"anton2net host profile\",\n";
    out += "    \"time_base\": \"host wall clock, us since first "
           "window\",\n";
    out += "    \"windows\": "
           + jsonNumber(static_cast<double>(in.windows)) + ",\n";
    out += "    \"detail_windows\": "
           + jsonNumber(static_cast<double>(in.detail_windows)) + ",\n";
    out += "    \"detail_dropped\": "
           + jsonNumber(static_cast<double>(in.detail_dropped)) + ",\n";
    out += "    \"profiled_seconds\": " + jsonNumber(in.profiled_seconds)
           + "\n  },\n";

    out += "  \"traceEvents\": [";
    bool first = true;
    auto emit = [&](const std::string &ev) {
        out += first ? "\n    " : ",\n    ";
        first = false;
        out += ev;
    };

    emit("{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 0, "
         "\"args\": {\"name\": \"engine host\"}}");
    for (const auto &[tid, name] : in.threads) {
        emit("{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 0, "
             "\"tid\": "
             + std::to_string(tid) + ", \"args\": {\"name\": \""
             + jsonEscape(name) + "\"}}");
    }

    for (const auto &sl : in.slices) {
        std::string e = "{\"name\": \"";
        e += sl.name;
        e += "\", \"ph\": \"X\", \"ts\": " + jsonNumber(sl.ts_us);
        e += ", \"dur\": " + jsonNumber(sl.dur_us);
        e += ", \"pid\": 0, \"tid\": " + std::to_string(sl.tid);
        e += ", \"args\": {\"cycle\": "
             + std::to_string(sl.start_cycle);
        e += ", \"window_cycles\": " + std::to_string(sl.window);
        e += "}}";
        emit(e);
    }

    out += "\n  ]\n}\n";
    return out;
}

} // namespace anton2
