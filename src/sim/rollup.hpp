/**
 * @file
 * Hierarchical metric rollups and the top-K hot-spot digest - the
 * export-side half of the scale-proof observability layer.
 *
 * Components keep their event counts as plain members. At export,
 * Machine::metricsJson() walks the chips and sums each component's
 * counts into a CountRollup per chip and one for the machine, which
 * writeRollup() turns into gauges (`machine.noc.*`, `machine.link.*`,
 * `machine.ep.*`, and the per-chip `chip.<n>.*` domains). Every rolled-up
 * sample is an integral cycle or flit count, so the sums are exact and
 * the rollup values are byte-identical at every metrics level and
 * thread count - the contract the rollup test suite pins.
 *
 * The HotspotDigest is the coarse-level replacement for per-link dumps:
 * the K hottest torus links and routers, the oldest-packet watermarks,
 * and per-axis torus aggregates, built from the same component counts
 * (so it works at every metrics level, including `machine`, where no
 * per-link path is exported at all).
 */
#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "sim/metrics.hpp"

namespace anton2 {

/** Count leaves of the three rollup domains, in CountRollup order. */
inline constexpr std::array<const char *, 4> kNocCounts = {
    "flits_in", "sa2.grants", "sa2.losses", "va.credit_stalls"
};
inline constexpr std::array<const char *, 5> kLinkCounts = {
    "flits_sent", "flits_received", "idle_cycles", "credit_stalls",
    "retransmissions"
};
inline constexpr std::array<const char *, 2> kEpCounts = { "injected",
                                                           "delivered" };

/**
 * What one node of the router -> chip -> machine hierarchy sums: the
 * routers' (`noc`), channel adapters' (`link`) and endpoints' (`ep`)
 * counts, and the routers' buffered-flit occupancy samples. The merged
 * occupancy keeps count/sum/min/max only - no stddev, whose Welford
 * accumulator depends on the summation order.
 */
struct CountRollup
{
    std::array<std::uint64_t, kNocCounts.size()> noc{};
    std::array<std::uint64_t, kLinkCounts.size()> link{};
    std::array<std::uint64_t, kEpCounts.size()> ep{};
    std::uint64_t occ_count = 0;
    double occ_sum = 0.0;
    double occ_min = std::numeric_limits<double>::infinity();
    double occ_max = -std::numeric_limits<double>::infinity();

    void addOccupancy(const ScalarStat &s);
    void add(const CountRollup &o);
};

/** Set `<prefix>.<names[i]>` to @p values[i] for every i. */
template <std::size_t N>
void
writeCounts(MetricsRegistry &reg, const std::string &prefix,
            const std::array<const char *, N> &names,
            const std::array<std::uint64_t, N> &values)
{
    for (std::size_t i = 0; i < N; ++i)
        reg.setGauge(prefix + "." + names[i],
                     static_cast<double>(values[i]));
}

/**
 * Write @p r's sums under `<prefix>.noc`, `<prefix>.link` and
 * `<prefix>.ep`; with @p occupancy also the merged
 * `<prefix>.noc.vc_occupancy.{count,sum,mean,min,max}`.
 */
void writeRollup(MetricsRegistry &reg, const std::string &prefix,
                 const CountRollup &r, bool occupancy);

/** One torus link in the digest, hottest first. */
struct HotLink
{
    std::int64_t chip = 0;
    std::string link;            ///< channel short name, e.g. `x0p`
    std::uint64_t flits = 0;     ///< flits serialized onto the wire
    double utilization = 0.0;    ///< flits / SerDes capacity so far
};

/** One mesh router in the digest, most flits routed first. */
struct HotRouter
{
    std::int64_t chip = 0;
    int u = 0;
    int v = 0;
    std::uint64_t flits = 0;     ///< flits accepted across all ports
};

/** Oldest in-flight packet watermark for one chip, oldest first. */
struct OldestPacket
{
    std::int64_t chip = 0;
    std::uint64_t age = 0;       ///< cycles since injection
};

/** Aggregate over every link of one torus axis (dimension x direction). */
struct AxisAggregate
{
    std::string axis;            ///< e.g. `X+`, `Z-`
    std::uint64_t flits = 0;
    std::uint64_t links = 0;
    double utilization = 0.0;    ///< mean utilization across the axis
};

struct HotspotDigest
{
    std::size_t k = 8;
    std::vector<HotLink> links;
    std::vector<HotRouter> routers;
    std::vector<OldestPacket> oldest;
    std::vector<AxisAggregate> axes; ///< fixed X+/X-/Y+/... order
};

/**
 * Sort each digest list with deterministic tiebreaks (primary metric
 * descending, then chip/coords/name ascending) and truncate the link,
 * router, and oldest-packet lists to @p d.k entries.
 */
void finalizeHotspots(HotspotDigest &d);

/** Write the digest as a pretty-printed object at @p w's position. */
void writeHotspotDigest(JsonWriter &w, const HotspotDigest &d);

/** The digest as a standalone JSON document. */
std::string hotspotDigestJson(const HotspotDigest &d);

} // namespace anton2
