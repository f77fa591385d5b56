/**
 * @file
 * Windowed time-series telemetry: the layer between the end-of-run
 * aggregates of sim/metrics.hpp and the per-packet events of
 * trace/trace.hpp, answering *when* things happen.
 *
 * An IntervalSampler records one value per series every `W` cycles:
 * per-link flit counts (the congestion heatmap source), per-chip buffer
 * occupancy, credit and age levels, and machine-level windowed
 * injection/ejection counts, latency means and the oldest packet's age.
 * The same zero-overhead-when-unbound discipline as MetricsRegistry and
 * the packet-event stream applies: a machine without a sampler pays
 * nothing at all (the sampler is simply never constructed or
 * registered), and a bound sampler touches the simulation only at
 * window boundaries, through one read-only row callback that reads the
 * whole row in one pass over the machine.
 *
 * On top of the sampled series sit:
 *  - a steady-state detector (sliding-window convergence on windowed
 *    ejection rate + mean latency, with an offline MSER truncation rule
 *    for cross-checking) that replaces blind fixed warmup cycle counts;
 *  - deterministic exporters - a per-link heatmap CSV and a time-series
 *    JSON section (byte-identical across same-seed runs, like every
 *    other serializer in the repo);
 *  - the live progress line (ProgressMeter) and the peak-RSS probe
 *    behind the host report's memory gauges. Host wall-clock and memory
 *    values are intentionally kept out of the deterministic exports
 *    (Machine::hostJson() assembles the separate `host` section).
 */
#pragma once

#include <cstdint>
#include <cstdio>
#include <chrono>
#include <functional>
#include <string>
#include <vector>

#include "sim/component.hpp"
#include "sim/metrics.hpp"
#include "sim/stats.hpp"
#include "sim/types.hpp"

namespace anton2 {

/**
 * Default fixed warmup budget (cycles) that benches fall back to when
 * steady-state detection is not enabled. The auto-steady integration
 * test asserts the detector beats this blind bound at low load.
 */
inline constexpr Cycle kDefaultWarmupCycles = 20000;

// ---------------------------------------------------------------------
// Steady-state detection
// ---------------------------------------------------------------------

/** Tuning for the online sliding-window convergence test. */
struct SteadyStateConfig
{
    /** Consecutive in-band windows required to declare convergence. */
    std::size_t min_windows = 8;
    /** Band half-width as a fraction of the running steady-region mean. */
    double rel_tolerance = 0.10;
};

/**
 * Online steady-state detector for one windowed series.
 *
 * Maintains the current *stable suffix* of the observation stream: each
 * new observation either extends the suffix (it lies within the
 * tolerance band around the suffix mean) or restarts it at the current
 * window. Convergence is declared once the suffix spans `min_windows`
 * observations, and - unlike a fixed warmup count - is revoked
 * retroactively by any later excursion (the suffix restarts), so a step
 * change mid-run moves the reported warmup point past the step.
 *
 * NaN observations (e.g. a window with no delivered packets, whose mean
 * latency is undefined) extend the suffix without contributing to its
 * mean: an empty window is no evidence against stability.
 */
class SteadyStateDetector
{
  public:
    explicit SteadyStateDetector(const SteadyStateConfig &cfg = {})
        : cfg_(cfg)
    {
    }

    void observe(double x);

    bool
    converged() const
    {
        return n_ - start_ >= cfg_.min_windows;
    }

    /** First window index of the current stable suffix. */
    std::size_t steadyStartWindow() const { return start_; }
    std::size_t observed() const { return n_; }
    const SteadyStateConfig &config() const { return cfg_; }

  private:
    SteadyStateConfig cfg_;
    std::size_t n_ = 0;       ///< observations seen
    std::size_t start_ = 0;   ///< start of the current stable suffix
    double run_sum_ = 0.0;    ///< sum of non-NaN suffix observations
    std::size_t run_count_ = 0;
};

/**
 * Offline MSER truncation rule: the warmup length `d` (searched over the
 * first half of the series, per the standard rule) minimizing the
 * marginal standard error stddev(x[d..]) / sqrt(n - d). Used to
 * cross-check the online detector in the time-series JSON report.
 */
std::size_t mserTruncation(const std::vector<double> &xs);

// ---------------------------------------------------------------------
// IntervalSampler
// ---------------------------------------------------------------------

/** What a series describes; exporters filter on this. */
enum class SeriesScope : std::uint8_t
{
    Machine, ///< machine-wide (JSON + Chrome counter track)
    Chip,    ///< per-chip aggregate (JSON + Chrome counter track)
    Link,    ///< per torus-channel adapter (heatmap CSV + Chrome track)
};

/** How a window's value is derived from the row's raw value. */
enum class SeriesKind : std::uint8_t
{
    Instant,    ///< raw value at the boundary, stored as-is
    Cumulative, ///< delta of a monotone counter across the window
    WindowMean, ///< windowed mean of a ScalarStat (snapshot delta)
};

/** Static description of one series. */
struct SeriesInfo
{
    std::string name;        ///< dot path, e.g. `chip.3.ca.x0p.flits`
    SeriesScope scope = SeriesScope::Machine;
    SeriesKind kind = SeriesKind::Instant;
    std::int32_t chip = -1;  ///< node id for Chip/Link scopes
    std::int16_t u = -1;     ///< attach-router mesh coords (Link scope)
    std::int16_t v = -1;
    std::string port;        ///< channel short name (Link scope)
    /** Flit capacity per cycle; utilization denominator (Link scope). */
    double capacity_per_cycle = 0.0;
};

struct TimeseriesConfig
{
    /** Sampling interval, cycles. Each sample lands on a window-final
     * cycle, so a 1-cycle window runs per-cycle barriers while the
     * sampler is attached, whatever the lookahead window. */
    Cycle window = 1024;
    std::size_t max_windows = 4096; ///< windows kept; later ones are dropped
    /** Run the steady-state detector on ejection rate + latency mean
     * and reset the bound metrics registry at first convergence. */
    bool auto_steady = false;
    /** Fixed warmup: reset the bound registry at the first window
     * boundary >= this cycle (0 = none; ignored under auto_steady). */
    Cycle warmup_reset = 0;
};

/** Outcome of warmup handling, reported in the JSON section. */
struct SteadyStateResult
{
    bool auto_steady = false;
    bool converged = false;
    /** Start of the detected steady region (cycle), valid if converged. */
    Cycle warmup_cycles = 0;
    /** Cycle at which convergence was first declared. */
    Cycle detected_cycle = 0;
    /** Cycle the metrics registry was reset at, or kNoCycle if never. */
    Cycle metrics_reset_cycle = kNoCycle;
};

/**
 * The windowed sampler. Construct it with the series and the row
 * callback that reads them, add it to the engine, run, then export.
 * Every `window` cycles one value per series is appended to storage
 * that grows with the windows recorded; a final partial window is
 * recorded by finalize(), so cumulative series sum exactly to their
 * end-of-run aggregate counters. Past `max_windows`, further windows
 * are counted as dropped rather than silently growing the buffers.
 */
class IntervalSampler : public Component
{
  public:
    /** Writes the raw value of every Instant and Cumulative series, in
     * series order, to @p out at cycle @p now. */
    using RowFn = std::function<void(Cycle now, double *out)>;

    /**
     * Sample @p series through @p row. The row is read once here, at
     * the attach cycle @p now, for the cumulative baselines (components
     * earlier in the engine's tick order act before the sampler's first
     * tick, so a first-tick baseline would miss their activity in that
     * cycle), and once per recorded window. The WindowMean series, at
     * most one, is the windowed mean of @p mean (not owned).
     */
    IntervalSampler(const TimeseriesConfig &cfg,
                    std::vector<SeriesInfo> series, RowFn row,
                    const ScalarStat *mean, Cycle now);

    /**
     * Watch windowed ejection rate (Cumulative series @p throughput_series,
     * normalized per cycle) and latency (@p latency_series, a WindowMean)
     * for steady state; on first convergence, reset @p reset (may be
     * null). Also arms the fixed warmup_reset path against @p reset.
     */
    void watchSteadyState(std::size_t throughput_series,
                          std::size_t latency_series,
                          MetricsRegistry *reset);

    void tick(Cycle now) override;
    bool busy() const override { return false; }

    /**
     * Record the final partial window up to @p now (idempotent; called
     * by the exporters). Cumulative series then sum exactly to their
     * aggregate counters. A partial window never resets the registry
     * (fixed warmup or steady state): those fire only at full windows.
     */
    void finalize(Cycle now);

    // -- recorded data -------------------------------------------------
    std::size_t numSeries() const { return series_.size(); }
    std::size_t numWindows() const { return window_end_.size(); }
    std::uint64_t droppedWindows() const { return dropped_; }
    Cycle startCycle() const { return start_; }
    const SeriesInfo &seriesInfo(std::size_t s) const { return series_[s]; }
    /** Value of series @p s in window @p w. */
    double value(std::size_t s, std::size_t w) const;
    Cycle windowEnd(std::size_t w) const { return window_end_[w]; }
    Cycle windowStart(std::size_t w) const;
    /** Sum of a series over all recorded windows (exact for counters). */
    double seriesSum(std::size_t s) const;
    /** Index of the series named @p name, or npos. */
    std::size_t findSeries(const std::string &name) const;
    static constexpr std::size_t npos = ~std::size_t{ 0 };

    const SteadyStateResult &steadyState() const { return steady_result_; }
    const TimeseriesConfig &config() const { return cfg_; }

    // -- exporters (deterministic byte-for-byte) -----------------------

    /**
     * JSON object: window geometry, steady-state outcome (including the
     * offline MSER cross-check), and the Machine- and Chip-scope series
     * keyed by name in sorted order, written at @p w's position. NaN
     * serializes as null.
     */
    void writeJson(JsonWriter &w) const;

    /** The writeJson() object as a standalone document. */
    std::string toJson() const;

    /**
     * The steady-state outcome alone as a JSON value: `null` when no
     * warmup handling was configured, else the same object writeJson()
     * embeds (convergence verdict, warmup/detected/reset cycles, and
     * the offline MSER cross-check). The run report embeds this
     * directly.
     */
    void writeSteadyState(JsonWriter &w) const;

    /**
     * Per-link congestion heatmap CSV:
     * `window,start_cycle,end_cycle,chip,u,v,port,flits,utilization`
     * (one row per Link-scope series per window; utilization is flits
     * over the link's flit capacity for the window's length).
     */
    std::string heatmapCsv() const;

  private:
    /** Record the window ending at @p end; only a @p full window (one
     * reached by tick()) may fire the warmup or steady-state reset. */
    void sampleWindow(Cycle end, bool full);

    TimeseriesConfig cfg_;
    std::vector<SeriesInfo> series_;
    RowFn row_;
    std::vector<double> row_now_;    ///< raw row read at this boundary
    std::vector<double> row_prev_;   ///< raw row of the last boundary
    const ScalarStat *mean_;
    ScalarStat::Snapshot mean_prev_; ///< mean_'s last snapshot
    std::vector<double> values_;     ///< window-major, numSeries() stride
    std::vector<Cycle> window_end_;  ///< end cycle per recorded window
    bool started_ = false;
    Cycle start_ = 0;
    Cycle last_ = 0;  ///< end of the last recorded window
    Cycle next_ = 0;  ///< next boundary
    std::uint64_t dropped_ = 0;

    // steady-state / warmup machinery
    std::size_t ss_throughput_ = npos;
    std::size_t ss_latency_ = npos;
    MetricsRegistry *reset_registry_ = nullptr;
    SteadyStateDetector det_throughput_;
    SteadyStateDetector det_latency_;
    bool steady_detected_ = false;
    bool warmup_done_ = false;
    SteadyStateResult steady_result_;
};

// ---------------------------------------------------------------------
// Host-side observability
// ---------------------------------------------------------------------

/** Peak resident set size of this process in bytes (via getrusage),
 * or 0 when the platform does not report it. */
std::size_t hostPeakRssBytes();

/**
 * Opt-in live progress line: a passive engine component that, every
 * `check_every` cycles, rate-limits on wall time and rewrites one
 * stderr status line with the current cycle and the event-loop rate.
 * Purely observational - it reads nothing from the simulation - so
 * registering it cannot perturb results.
 */
class ProgressMeter : public Component
{
  public:
    struct Config
    {
        Cycle check_every = 4096;  ///< cycle stride between clock reads
        double min_seconds = 0.25; ///< min wall time between lines
        std::FILE *out = nullptr;  ///< destination; null = stderr
    };

    ProgressMeter() : ProgressMeter(Config()) {}
    explicit ProgressMeter(const Config &cfg);

    /** Optional extra status appended to each line (e.g. delivered). */
    void setStatusFn(std::function<std::string()> fn)
    {
        status_ = std::move(fn);
    }

    /**
     * Window-aware rate source (cycles per wall second; <= 0 = unknown
     * yet). When set - the Machine wires the engine self-profiler's
     * running rate in here - lines report it instead of the raw
     * cycle-delta rate, which wobbles with driver and export work
     * between windows.
     */
    void setRateFn(std::function<double()> fn) { rate_ = std::move(fn); }

    /** Known end cycle of the current run (0 = none): enables the ETA
     * field. For runs with a stop condition the ETA is an upper bound. */
    void setTargetCycles(Cycle target) { target_ = target; }

    void tick(Cycle now) override;
    bool busy() const override { return false; }

    /** Terminate the status line with a newline (if anything printed). */
    void finish();

    std::uint64_t linesPrinted() const { return lines_; }

  private:
    using ClockT = std::chrono::steady_clock;

    Config cfg_;
    std::function<std::string()> status_;
    std::function<double()> rate_;
    Cycle target_ = 0;
    ClockT::time_point last_wall_;
    Cycle last_cycle_ = 0;
    bool started_ = false;
    std::uint64_t lines_ = 0;
};

} // namespace anton2
