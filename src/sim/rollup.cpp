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

std::string
hotspotDigestJson(const HotspotDigest &d, int indent, int depth)
{
    const std::string p0(static_cast<std::size_t>(indent * depth), ' ');
    const std::string p1(static_cast<std::size_t>(indent * (depth + 1)),
                         ' ');
    const std::string p2(static_cast<std::size_t>(indent * (depth + 2)),
                         ' ');

    std::string out = "{\n";
    out += p1 + "\"k\": " + jsonNumber(static_cast<double>(d.k)) + ",\n";

    out += p1 + "\"hot_links\": [";
    for (std::size_t i = 0; i < d.links.size(); ++i) {
        const HotLink &l = d.links[i];
        out += i == 0 ? "\n" : ",\n";
        out += p2 + "{\"chip\": "
               + jsonNumber(static_cast<double>(l.chip))
               + ", \"link\": " + jsonString(l.link)
               + ", \"flits\": "
               + jsonNumber(static_cast<double>(l.flits))
               + ", \"utilization\": " + jsonNumber(l.utilization) + "}";
    }
    out += d.links.empty() ? "],\n" : "\n" + p1 + "],\n";

    out += p1 + "\"hot_routers\": [";
    for (std::size_t i = 0; i < d.routers.size(); ++i) {
        const HotRouter &r = d.routers[i];
        out += i == 0 ? "\n" : ",\n";
        out += p2 + "{\"chip\": "
               + jsonNumber(static_cast<double>(r.chip))
               + ", \"u\": " + jsonNumber(r.u) + ", \"v\": "
               + jsonNumber(r.v) + ", \"flits\": "
               + jsonNumber(static_cast<double>(r.flits)) + "}";
    }
    out += d.routers.empty() ? "],\n" : "\n" + p1 + "],\n";

    out += p1 + "\"oldest_packets\": [";
    for (std::size_t i = 0; i < d.oldest.size(); ++i) {
        const OldestPacket &o = d.oldest[i];
        out += i == 0 ? "\n" : ",\n";
        out += p2 + "{\"chip\": "
               + jsonNumber(static_cast<double>(o.chip))
               + ", \"age\": " + jsonNumber(static_cast<double>(o.age))
               + "}";
    }
    out += d.oldest.empty() ? "],\n" : "\n" + p1 + "],\n";

    out += p1 + "\"axes\": [";
    for (std::size_t i = 0; i < d.axes.size(); ++i) {
        const AxisAggregate &a = d.axes[i];
        out += i == 0 ? "\n" : ",\n";
        out += p2 + "{\"axis\": " + jsonString(a.axis) + ", \"flits\": "
               + jsonNumber(static_cast<double>(a.flits))
               + ", \"links\": "
               + jsonNumber(static_cast<double>(a.links))
               + ", \"utilization\": " + jsonNumber(a.utilization) + "}";
    }
    out += d.axes.empty() ? "]\n" : "\n" + p1 + "]\n";

    out += p0 + "}";
    return out;
}

} // namespace anton2
