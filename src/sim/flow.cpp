#include "sim/flow.hpp"

#include <algorithm>
#include <utility>

#include "sim/json.hpp"

namespace anton2 {

namespace {

/** Stable traffic-class vocabulary for the flow exports. */
const char *
flowTcName(int tc)
{
    switch (tc) {
      case 0: return "request";
      case 1: return "reply";
      default: return "unknown";
    }
}

} // namespace

const char *
flowUnitKindName(TraceUnitKind k)
{
    switch (k) {
      case TraceUnitKind::Endpoint: return "endpoint";
      case TraceUnitKind::Router: return "router";
      case TraceUnitKind::ChannelAdapter: return "link";
      case TraceUnitKind::Link: break; // link senders emit no hops
    }
    return "unknown";
}

double
FlowCell::p99Estimate() const
{
    if (packets == 0)
        return 0.0;
    // ceil(0.99 * packets): the rank of the 99th-percentile delivery.
    const std::uint64_t target = (packets * 99 + 99) / 100;
    std::uint64_t cum = 0;
    for (int b = 0; b < kFlowLatencyBuckets; ++b) {
        cum += lat_log2[static_cast<std::size_t>(b)];
        if (cum >= target) {
            // Bucket b holds latencies of bit-width b: [2^(b-1), 2^b).
            return b == 0 ? 0.0
                          : static_cast<double>(
                                (std::uint64_t{ 1 } << b) - 1);
        }
    }
    return static_cast<double>(lat_max);
}

FlowProbe::FlowProbe(const FlowProbeConfig &cfg)
    : cfg_(cfg)
{
    if (cfg_.topk < 1)
        cfg_.topk = 1;
}

void
FlowProbe::registerUnit(std::int32_t node, TraceUnitKind kind, int unit,
                        std::string name)
{
    FlowUnitBlame &b = blame_[FlowUnitKey{ node, kind, unit }];
    b.name = std::move(name);
    const auto k = static_cast<int>(kind);
    if (node < 0 || unit < 0 || k >= kUnitKinds)
        return;
    const auto row = static_cast<std::size_t>(node) * kUnitKinds
                     + static_cast<std::size_t>(k);
    if (row >= units_.size())
        units_.resize(row + 1);
    auto &col = units_[row];
    if (static_cast<std::size_t>(unit) >= col.size())
        col.resize(static_cast<std::size_t>(unit) + 1, nullptr);
    col[static_cast<std::size_t>(unit)] = &b;
}

FlowUnitBlame &
FlowProbe::blameFor(const PacketEvent &r)
{
    const auto row = static_cast<std::size_t>(r.node) * kUnitKinds
                     + static_cast<std::size_t>(r.kind);
    if (r.node >= 0 && r.unit >= 0 && row < units_.size()
        && static_cast<std::size_t>(r.unit) < units_[row].size()) {
        if (FlowUnitBlame *b = units_[row][static_cast<std::size_t>(r.unit)])
            return *b;
    }
    return blame_
        .try_emplace(FlowUnitKey{ r.node, r.kind, r.unit },
                     FlowUnitBlame{ "?", 0, 0, 0, 0 })
        .first->second;
}

void
FlowProbe::addHop(const PacketEvent &r)
{
    FlowUnitBlame &b = blameFor(r);
    ++b.packets;
    b.flits += static_cast<std::uint64_t>(r.size_flits);
    b.queue_wait += r.grant >= r.arrival ? r.grant - r.arrival : 0;
    b.xfer_cycles += r.cycle >= r.grant ? r.cycle - r.grant : 0;
    auto it = inflight_.find(r.packet);
    if (it == inflight_.end()) {
        if (spare_paths_.empty()) {
            it = inflight_.try_emplace(r.packet).first;
        } else {
            PathMap::node_type node = std::move(spare_paths_.back());
            spare_paths_.pop_back();
            node.key() = r.packet;
            node.mapped().clear();
            it = inflight_.insert(std::move(node)).position;
        }
    }
    it->second.push_back(r);
}

void
FlowProbe::recordDelivery(const FlowDeliveryRecord &d)
{
    ++deliveries_;
    const Cycle lat =
        d.delivered >= d.birth ? d.delivered - d.birth : 0;
    FlowCell &c = cells_[FlowKey{ d.src_node, d.dst_node, d.tc }];
    if (c.packets == 0) {
        c.lat_min = lat;
        c.lat_max = lat;
        c.hop_min = d.hops;
        c.hop_max = d.hops;
    } else {
        c.lat_min = std::min(c.lat_min, lat);
        c.lat_max = std::max(c.lat_max, lat);
        c.hop_min = std::min(c.hop_min, d.hops);
        c.hop_max = std::max(c.hop_max, d.hops);
    }
    ++c.packets;
    c.flits += static_cast<std::uint64_t>(d.size_flits);
    c.lat_sum += lat;
    c.hop_sum += static_cast<std::uint64_t>(d.hops);
    int bucket = 0;
    for (Cycle v = lat; v != 0; v >>= 1)
        ++bucket;
    bucket = std::min(bucket, kFlowLatencyBuckets - 1);
    ++c.lat_log2[static_cast<std::size_t>(bucket)];

    auto path = inflight_.find(d.packet);
    // Strictly-greater keeps the first-delivered worst packet, and
    // deliveries happen in the canonical serial flush order, so the
    // exemplar is thread-count independent.
    if (c.packets == 1 || lat > c.worst_latency) {
        c.worst_packet = d.packet;
        c.worst_latency = lat;
        c.worst_path = path != inflight_.end() ? path->second
                                               : std::vector<PacketEvent>{};
    }
    if (cfg_.sample > 0 && d.packet % cfg_.sample == 0) {
        if (spans_.size() < cfg_.max_spans) {
            Span s;
            s.meta = d;
            if (path != inflight_.end())
                s.path = path->second;
            spans_.push_back(std::move(s));
        } else {
            ++dropped_spans_;
        }
    }
    if (path != inflight_.end())
        spare_paths_.push_back(inflight_.extract(path));
}

const std::string &
FlowProbe::unitName(std::int64_t node, TraceUnitKind kind, int unit) const
{
    static const std::string unknown = "?";
    const auto it = blame_.find(FlowUnitKey{ node, kind, unit });
    return it == blame_.end() ? unknown : it->second.name;
}

namespace {

/** Mean latency comparison without float rounding: cross-multiplied
 * sums (exact in 128-bit), descending; ties break on the key ascending
 * so the ordering is fully deterministic. */
bool
worseFlow(const std::pair<FlowKey, const FlowCell *> &a,
          const std::pair<FlowKey, const FlowCell *> &b)
{
    const auto lhs = static_cast<unsigned __int128>(a.second->lat_sum)
                     * b.second->packets;
    const auto rhs = static_cast<unsigned __int128>(b.second->lat_sum)
                     * a.second->packets;
    if (lhs != rhs)
        return lhs > rhs;
    return a.first < b.first;
}

/** One worst-flow entry of the digest, with its worst packet's path. */
void
writeFlowEntry(JsonWriter &w, const FlowProbe &probe, const FlowKey &key,
               const FlowCell &c)
{
    const auto n = static_cast<double>(c.packets);
    w.beginObject(JsonWriter::Inline)
        .key("src").number(key.src).key("dst").number(key.dst)
        .key("tc").string(flowTcName(key.tc))
        .key("packets").number(n).key("flits").number(c.flits)
        .key("latency").beginObject(JsonWriter::Inline)
        .key("sum").number(c.lat_sum)
        .key("min").number(c.lat_min).key("max").number(c.lat_max)
        .key("mean").number(static_cast<double>(c.lat_sum) / n)
        .key("p99_est").number(c.p99Estimate()).end()
        .key("hops").beginObject(JsonWriter::Inline)
        .key("min").number(c.hop_min).key("max").number(c.hop_max)
        .key("mean").number(static_cast<double>(c.hop_sum) / n).end()
        .key("worst_packet").beginObject(JsonWriter::Inline)
        .key("id").number(c.worst_packet)
        .key("latency").number(c.worst_latency)
        .key("path").beginArray(JsonWriter::Inline);
    for (const PacketEvent &h : c.worst_path) {
        w.beginObject(JsonWriter::Inline)
            .key("node").number(h.node)
            .key("kind").string(flowUnitKindName(h.kind))
            .key("unit").string(probe.unitName(h.node, h.kind, h.unit))
            .key("at").number(h.arrival)
            .key("queue")
            .number(h.grant >= h.arrival ? h.grant - h.arrival : 0)
            .key("xfer").number(h.cycle >= h.grant ? h.cycle - h.grant : 0)
            .end();
    }
    w.end().end().end();
}

/** Top-K blamed units of one kind: queue wait descending, then the
 * (node, unit) key ascending. */
std::vector<std::pair<FlowUnitKey, const FlowUnitBlame *>>
topBlamed(const std::map<FlowUnitKey, FlowUnitBlame> &blame,
          TraceUnitKind kind, std::size_t k)
{
    std::vector<std::pair<FlowUnitKey, const FlowUnitBlame *>> v;
    for (const auto &[key, b] : blame) {
        if (key.kind == kind && b.packets > 0)
            v.emplace_back(key, &b);
    }
    std::sort(v.begin(), v.end(),
              [](const auto &a, const auto &b) {
                  if (a.second->queue_wait != b.second->queue_wait)
                      return a.second->queue_wait > b.second->queue_wait;
                  return a.first < b.first;
              });
    if (v.size() > k)
        v.resize(k);
    return v;
}

} // namespace

void
FlowProbe::writeReport(JsonWriter &w, bool full_matrix,
                       std::size_t num_nodes) const
{
    std::vector<std::pair<FlowKey, const FlowCell *>> worst;
    worst.reserve(cells_.size());
    for (const auto &[key, cell] : cells_)
        worst.emplace_back(key, &cell);
    std::sort(worst.begin(), worst.end(), worseFlow);
    if (worst.size() > cfg_.topk)
        worst.resize(cfg_.topk);

    w.beginObject()
        .key("digest").beginObject()
        .key("k").number(cfg_.topk)
        .key("deliveries").number(deliveries_)
        .key("flows").number(cells_.size())
        .key("worst_flows").beginArray();
    for (const auto &[key, cell] : worst)
        writeFlowEntry(w, *this, key, *cell);
    w.end();
    for (const auto &[name, kind] :
         { std::pair{ "blamed_links", TraceUnitKind::ChannelAdapter },
           std::pair{ "blamed_routers", TraceUnitKind::Router } }) {
        w.key(name).beginArray();
        for (const auto &[key, b] : topBlamed(blame_, kind, cfg_.topk)) {
            w.beginObject(JsonWriter::Inline)
                .key("node").number(key.node).key("unit").string(b->name)
                .key("packets").number(b->packets)
                .key("flits").number(b->flits)
                .key("queue_wait").number(b->queue_wait)
                .key("xfer_cycles").number(b->xfer_cycles).end();
        }
        w.end();
    }
    w.end();

    if (full_matrix) {
        // Classes merged per (src, dst) pair; rows synthesized for
        // every pair so the matrix is always dense (num_nodes^2 rows)
        // regardless of which flows were active.
        struct PairAgg
        {
            std::uint64_t packets = 0;
            std::uint64_t flits = 0;
            std::uint64_t lat_sum = 0;
            Cycle lat_min = kNoCycle;
            Cycle lat_max = 0;
            std::uint64_t hop_sum = 0;
        };
        std::map<std::pair<std::int64_t, std::int64_t>, PairAgg> pairs;
        for (const auto &[key, c] : cells_) {
            PairAgg &a = pairs[{ key.src, key.dst }];
            if (a.packets == 0) {
                a.lat_min = c.lat_min;
                a.lat_max = c.lat_max;
            } else {
                a.lat_min = std::min(a.lat_min, c.lat_min);
                a.lat_max = std::max(a.lat_max, c.lat_max);
            }
            a.packets += c.packets;
            a.flits += c.flits;
            a.lat_sum += c.lat_sum;
            a.hop_sum += c.hop_sum;
        }
        w.key("matrix").beginArray();
        for (std::size_t s = 0; s < num_nodes; ++s) {
            for (std::size_t d = 0; d < num_nodes; ++d) {
                w.beginObject(JsonWriter::Inline)
                    .key("src").number(s).key("dst").number(d)
                    .key("packets");
                const auto it =
                    pairs.find({ static_cast<std::int64_t>(s),
                                 static_cast<std::int64_t>(d) });
                if (it == pairs.end() || it->second.packets == 0) {
                    w.number(0).end();
                    continue;
                }
                const PairAgg &a = it->second;
                const auto n = static_cast<double>(a.packets);
                w.number(n).key("flits").number(a.flits)
                    .key("lat_sum").number(a.lat_sum)
                    .key("lat_min").number(a.lat_min)
                    .key("lat_max").number(a.lat_max)
                    .key("lat_mean").number(static_cast<double>(a.lat_sum) / n)
                    .key("hops_mean")
                    .number(static_cast<double>(a.hop_sum) / n).end();
            }
        }
        w.end();
    }
    w.end();
}

std::string
FlowProbe::reportJson(bool full_matrix, std::size_t num_nodes) const
{
    JsonWriter w(2, 1);
    writeReport(w, full_matrix, num_nodes);
    return w.take();
}

std::string
FlowProbe::matrixCsv() const
{
    std::string out =
        "src_node,dst_node,tc,packets,flits,latency_sum,latency_min,"
        "latency_max,latency_mean,latency_p99_est,hops_min,hops_max,"
        "hops_mean,worst_packet,worst_latency\n";
    for (const auto &[key, c] : cells_) {
        if (c.packets == 0)
            continue;
        const auto n = static_cast<double>(c.packets);
        out += std::to_string(key.src) + ',' + std::to_string(key.dst)
               + ',' + flowTcName(key.tc) + ','
               + std::to_string(c.packets) + ','
               + std::to_string(c.flits) + ','
               + std::to_string(c.lat_sum) + ','
               + std::to_string(c.lat_min) + ','
               + std::to_string(c.lat_max) + ','
               + jsonNumber(static_cast<double>(c.lat_sum) / n) + ','
               + jsonNumber(c.p99Estimate()) + ','
               + std::to_string(c.hop_min) + ','
               + std::to_string(c.hop_max) + ','
               + jsonNumber(static_cast<double>(c.hop_sum) / n) + ','
               + std::to_string(c.worst_packet) + ','
               + std::to_string(c.worst_latency) + '\n';
    }
    return out;
}

} // namespace anton2
