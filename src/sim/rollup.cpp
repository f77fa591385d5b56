#include "sim/rollup.hpp"

#include <algorithm>

namespace anton2 {

void
CountRollup::addOccupancy(const ScalarStat &s)
{
    // An empty stat's min and max are NaN, which std::min/max ignore
    // in this argument order.
    occ_count += s.count();
    occ_sum += s.sum();
    occ_min = std::min(occ_min, s.min());
    occ_max = std::max(occ_max, s.max());
}

void
CountRollup::add(const CountRollup &o)
{
    for (std::size_t i = 0; i < noc.size(); ++i)
        noc[i] += o.noc[i];
    for (std::size_t i = 0; i < link.size(); ++i)
        link[i] += o.link[i];
    for (std::size_t i = 0; i < ep.size(); ++i)
        ep[i] += o.ep[i];
    occ_count += o.occ_count;
    occ_sum += o.occ_sum;
    occ_min = std::min(occ_min, o.occ_min);
    occ_max = std::max(occ_max, o.occ_max);
}

void
writeRollup(MetricsRegistry &reg, const std::string &prefix,
            const CountRollup &r, bool occupancy)
{
    writeCounts(reg, prefix + ".noc", kNocCounts, r.noc);
    writeCounts(reg, prefix + ".link", kLinkCounts, r.link);
    writeCounts(reg, prefix + ".ep", kEpCounts, r.ep);
    if (!occupancy)
        return;
    const std::string base = prefix + ".noc.vc_occupancy";
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const auto n = static_cast<double>(r.occ_count);
    reg.setGauge(base + ".count", n);
    reg.setGauge(base + ".sum", r.occ_count ? r.occ_sum : 0.0);
    reg.setGauge(base + ".mean", r.occ_count ? r.occ_sum / n : 0.0);
    reg.setGauge(base + ".min", r.occ_count ? r.occ_min : nan);
    reg.setGauge(base + ".max", r.occ_count ? r.occ_max : nan);
}

void
finalizeHotspots(HotspotDigest &d)
{
    std::sort(d.links.begin(), d.links.end(),
              [](const HotLink &a, const HotLink &b) {
                  if (a.utilization != b.utilization)
                      return a.utilization > b.utilization;
                  if (a.chip != b.chip)
                      return a.chip < b.chip;
                  return a.link < b.link;
              });
    std::sort(d.routers.begin(), d.routers.end(),
              [](const HotRouter &a, const HotRouter &b) {
                  if (a.flits != b.flits)
                      return a.flits > b.flits;
                  if (a.chip != b.chip)
                      return a.chip < b.chip;
                  if (a.u != b.u)
                      return a.u < b.u;
                  return a.v < b.v;
              });
    std::sort(d.oldest.begin(), d.oldest.end(),
              [](const OldestPacket &a, const OldestPacket &b) {
                  if (a.age != b.age)
                      return a.age > b.age;
                  return a.chip < b.chip;
              });
    if (d.links.size() > d.k)
        d.links.resize(d.k);
    if (d.routers.size() > d.k)
        d.routers.resize(d.k);
    if (d.oldest.size() > d.k)
        d.oldest.resize(d.k);
}

void
writeHotspotDigest(JsonWriter &w, const HotspotDigest &d)
{
    w.beginObject()
        .key("k").number(d.k)
        .key("hot_links").beginArray();
    for (const HotLink &l : d.links) {
        w.beginObject(JsonWriter::Inline)
            .key("chip").number(l.chip).key("link").string(l.link)
            .key("flits").number(l.flits)
            .key("utilization").number(l.utilization).end();
    }
    w.end().key("hot_routers").beginArray();
    for (const HotRouter &r : d.routers) {
        w.beginObject(JsonWriter::Inline)
            .key("chip").number(r.chip).key("u").number(r.u)
            .key("v").number(r.v).key("flits").number(r.flits).end();
    }
    w.end().key("oldest_packets").beginArray();
    for (const OldestPacket &o : d.oldest) {
        w.beginObject(JsonWriter::Inline)
            .key("chip").number(o.chip).key("age").number(o.age).end();
    }
    w.end().key("axes").beginArray();
    for (const AxisAggregate &a : d.axes) {
        w.beginObject(JsonWriter::Inline)
            .key("axis").string(a.axis).key("flits").number(a.flits)
            .key("links").number(a.links)
            .key("utilization").number(a.utilization).end();
    }
    w.end().end();
}

std::string
hotspotDigestJson(const HotspotDigest &d)
{
    JsonWriter w;
    writeHotspotDigest(w, d);
    return w.take();
}

} // namespace anton2
