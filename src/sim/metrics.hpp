/**
 * @file
 * Machine-wide telemetry: a hierarchical registry of counters, scalar
 * statistics, and histograms with deterministic JSON serialization.
 *
 * The paper's entire evaluation (Section 4, Figures 9-13) is built on
 * free-running cycle counters and per-channel/per-arbiter measurements.
 * Components keep those counts as plain members, and the registry is
 * their export: Machine::metricsJson() writes each count, relative to
 * the attach or the last reset, under a dot-separated path (for example
 * `chip.3.router.2.1.sa2.grants`). What the registry records itself is
 * sampled, not counted - the scalar statistics and histograms of
 * deliveries and busy router ticks, and the machine's delivery counter
 * - so a machine built without telemetry pays for plain increments and
 * a null-pointer test at each sample site.
 *
 * Serialization emits deterministic JSON (sorted paths, fixed number
 * formatting, no wall-clock values), so two runs with the same seed
 * produce byte-identical reports - the property the determinism
 * regression suite locks in.
 */
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <variant>

#include "sim/json.hpp"
#include "sim/stats.hpp"

namespace anton2 {

/**
 * Telemetry granularity axis: which paths the registry holds and
 * exports, so a coarse run on a large machine keeps O(chips) metric
 * state instead of O(routers x VCs):
 *
 *  - Machine: only the `machine.*` rollups are exported. The routers
 *    still sample occupancy into one stat per chip - the finest
 *    granularity that never crosses an engine shard, hence
 *    thread-safe - which the export does not show.
 *  - Chip: per-chip sums and occupancy stats (`chip.<n>.{noc,link,ep}`).
 *  - Router: per-router / per-adapter / per-endpoint counts and
 *    occupancy, without the per-VC and per-port breakdowns.
 *  - Full: everything, including per-VC occupancy and per-port flit
 *    counts (the default).
 *
 * Rollups (`machine.noc.*`, `machine.link.*`, `machine.ep.*`) are summed
 * at export time at every level from the same component counts, so
 * their values are byte-identical across levels.
 */
enum class MetricsLevel : std::uint8_t
{
    Machine = 0,
    Chip = 1,
    Router = 2,
    Full = 3,
};

/** Lowercase level name ("machine", "chip", "router", "full"). */
const char *metricsLevelName(MetricsLevel level);

/** Parse a level name; returns false (and leaves @p out alone) on an
 * unknown name. */
bool parseMetricsLevel(const std::string &name, MetricsLevel &out);

/** A monotonically increasing event counter. */
class Counter
{
  public:
    void inc(std::uint64_t n = 1) { value_ += n; }
    std::uint64_t value() const { return value_; }
    void reset() { value_ = 0; }

  private:
    std::uint64_t value_ = 0;
};

/**
 * Hierarchical metric registry. Paths are dot-separated; the registry
 * stores a flat sorted map and writes the hierarchy straight from it at
 * serialization time. Registering the same path twice with the same kind
 * returns the existing metric (so several components may share one
 * aggregate); registering it with a different kind, or a path holding a
 * character that sorts below '.', throws std::invalid_argument.
 *
 * A `gauge` is a plain double set at snapshot time for derived values
 * (utilization ratios, elapsed cycles) that are computed from other
 * metrics rather than accumulated.
 */
class MetricsRegistry
{
  public:
    Counter &counter(const std::string &path);
    ScalarStat &scalar(const std::string &path);
    Histogram &histogram(const std::string &path, std::size_t bins,
                         double bin_width);
    void setGauge(const std::string &path, double value);

    /** Lookup without creating; null if absent or of another kind. */
    const Counter *findCounter(const std::string &path) const;
    const ScalarStat *findScalar(const std::string &path) const;
    const Histogram *findHistogram(const std::string &path) const;

    std::size_t size() const { return metrics_.size(); }

    /**
     * Telemetry granularity (default Full). The Machine sets it when it
     * creates the registry and registers the occupancy stats for it;
     * changing it afterwards does not re-register anything.
     */
    MetricsLevel level() const { return level_; }
    void setLevel(MetricsLevel level) { level_ = level; }

    /**
     * Approximate heap footprint of the registry itself (map nodes, path
     * strings, histogram bins). Reported as `machine.host.mem.*` so
     * full-scale runs can see what the telemetry costs.
     */
    std::size_t approxBytes() const;

    /** Reset every metric to its empty state (gauges to 0), then run
     * the reset hook. */
    void reset();

    /** Run @p fn at the end of every reset(): the Machine restarts the
     * component counts it exports there. */
    void
    setResetHook(std::function<void()> fn)
    {
        reset_hook_ = std::move(fn);
    }

    /**
     * Serialize the full hierarchy as pretty-printed JSON. Counters and
     * gauges become numbers; scalar stats and histograms become objects
     * of their summary fields. NaN (for example the min of an empty
     * stat) serializes as null.
     *
     * At `machine` level the recorded per-chip subtrees (`chip.*`) are
     * elided from the export - their content is preserved in the
     * `machine.*` rollups - so the report stays O(1) in machine size.
     */
    std::string toJson() const;

  private:
    using Metric = std::variant<Counter, ScalarStat, Histogram, double>;

    /** Sorted by path: serialization order is deterministic. */
    std::map<std::string, Metric> metrics_;
    MetricsLevel level_ = MetricsLevel::Full;
    std::function<void()> reset_hook_;
};

} // namespace anton2
