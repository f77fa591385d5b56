/**
 * @file
 * Shared helpers for the experiment harnesses: the declarative option
 * registry (options.hpp), aligned table printing, and the shared flag
 * groups, including the `--report <path>` run-report writer. Every
 * bench prints the paper's rows/series with defaults that reproduce the
 * paper's setup at simulation-tractable scale; flags let you push to
 * the paper's full 8x8x8 (or larger) machine, and `--threads N` runs
 * the sharded engine on N workers with bit-identical results.
 */
#pragma once

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/machine.hpp"
#include "debug/checkpoint.hpp"
#include "options.hpp"
#include "sim/metrics.hpp"

namespace anton2::bench {

/**
 * Order-preserving JSON object builder for bench output. Values are
 * pre-serialized fragments; use num()/str()/arr() to produce them, or
 * pass a serializer's output (the run-report body, the host section)
 * as is.
 */
class JsonObj
{
  public:
    JsonObj &
    add(const std::string &key, std::string raw_value)
    {
        entries_.emplace_back(key, std::move(raw_value));
        return *this;
    }

    std::string
    dump(int indent = 2, int depth = 0) const
    {
        std::string out = "{\n";
        const std::string pad(
            static_cast<std::size_t>(indent * (depth + 1)), ' ');
        for (std::size_t i = 0; i < entries_.size(); ++i) {
            out += pad + "\"" + jsonEscape(entries_[i].first)
                   + "\": " + entries_[i].second;
            if (i + 1 < entries_.size())
                out += ",";
            out += "\n";
        }
        out += std::string(static_cast<std::size_t>(indent * depth), ' ')
               + "}";
        return out;
    }

  private:
    std::vector<std::pair<std::string, std::string>> entries_;
};

inline std::string
num(double x)
{
    return anton2::jsonNumber(x);
}

inline std::string
str(const std::string &s)
{
    return "\"" + anton2::jsonEscape(s) + "\"";
}

/** Join pre-serialized fragments into a JSON array. */
inline std::string
arr(const std::vector<std::string> &items)
{
    std::string out = "[";
    for (std::size_t i = 0; i < items.size(); ++i) {
        if (i != 0)
            out += ", ";
        out += items[i];
    }
    return out + "]";
}

/** Verify a report path is writable before spending simulation time;
 * prints an error and returns false when it is not. Opens in append
 * mode so an existing report is not clobbered by the probe. */
inline bool
checkWritable(const char *path)
{
    std::FILE *f = std::fopen(path, "a");
    if (f == nullptr) {
        std::fprintf(stderr, "error: cannot open %s for writing\n", path);
        return false;
    }
    std::fclose(f);
    return true;
}

/**
 * Validate every (possibly null) output path up front, reporting *all*
 * unwritable ones before giving up. The single fail-fast gate for
 * --report/--trace/--trace-csv/--heatmap: benches pass their full path
 * set here instead of sprinkling per-flag checks.
 */
inline bool
validateOutputPaths(std::initializer_list<const char *> paths)
{
    bool ok = true;
    for (const char *p : paths) {
        if (p != nullptr)
            ok = checkWritable(p) && ok;
    }
    return ok;
}

/** Reject a participating-core count outside [1, @p endpoints] (the
 * endpoints each node of the bench's machine has) before any output
 * path is probed; false = do not simulate. */
inline bool
validateCores(long cores, long endpoints)
{
    if (cores >= 1 && cores <= endpoints)
        return true;
    std::fprintf(stderr, "error: --cores must be in [1, %ld]\n", endpoints);
    return false;
}

inline void
writeFile(const std::string &path, const std::string &content)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        throw std::runtime_error("cannot open " + path + " for writing");
    std::fwrite(content.data(), 1, content.size(), f);
    std::fclose(f);
}

/**
 * Shared event-tracing flags for the figure benches:
 *   --trace <path>        write Chrome trace-event JSON (Perfetto/
 *                         chrome://tracing loadable)
 *   --trace-csv <path>    write the per-packet flight-record CSV
 *   --trace-sample <N>    record every Nth packet id (default 1)
 * Paths are validated before any simulation time is spent.
 */
struct TraceOptions
{
    const char *chrome = nullptr;
    const char *csv = nullptr;
    long sample = 1;

    /** Declare the shared tracing flags on @p reg. */
    void
    registerInto(OptionRegistry &reg)
    {
        reg.add("--trace", "PATH",
                "write Chrome trace-event JSON (Perfetto loadable)",
                &chrome);
        reg.add("--trace-csv", "PATH",
                "write the per-packet flight-record CSV", &csv);
        reg.add("--trace-sample", "N",
                "record every Nth packet id (default 1)", &sample);
    }

    bool enabled() const { return chrome != nullptr || csv != nullptr; }

    /** Fail fast on unwritable output paths (false = do not simulate). */
    bool
    validate() const
    {
        if (sample < 1) {
            std::fprintf(stderr, "error: --trace-sample must be >= 1\n");
            return false;
        }
        return validateOutputPaths({ chrome, csv });
    }

    /** Add the requested tracing to an instrumentation bundle. */
    void
    addTo(Instrumentation &inst) const
    {
        if (!enabled())
            return;
        TraceConfig cfg;
        cfg.sample = static_cast<std::uint64_t>(sample);
        inst.trace = cfg;
    }

    /** Export whatever @p m recorded to the requested paths. */
    void
    write(Machine &m) const
    {
        if (chrome != nullptr)
            writeFile(chrome, m.traceChromeJson());
        if (csv != nullptr)
            writeFile(csv, m.traceFlightCsv());
    }
};

/**
 * Shared flow-observability flags for the figure benches:
 *   --flows[=PATH]     attach the flow probe: per-(src, dst, class)
 *                      flow matrix, per-hop span attribution, and the
 *                      congestion-blame digest in the run report. With
 *                      =PATH, also write the flow-matrix CSV.
 *   --flow-sample <N>  retain Chrome-trace span rows for every Nth
 *                      packet id (implies --flows; the rows ride in the
 *                      --trace export)
 * Paths are validated before any simulation time is spent. A probe-less
 * run takes zero additional clock reads, so leaving these off keeps
 * every pre-existing export byte-identical.
 */
struct FlowOptions
{
    bool flows = false;
    const char *csv = nullptr;
    long sample = 0;

    /** Declare the shared flow flags on @p reg. */
    void
    registerInto(OptionRegistry &reg)
    {
        reg.addOptional("--flows", "PATH",
                        "attach the flow probe (flow matrix + congestion "
                        "blame); =PATH also writes the flow-matrix CSV",
                        &flows, &csv);
        reg.add("--flow-sample", "N",
                "retain Chrome-trace flow spans for every Nth packet id "
                "(implies --flows)",
                &sample);
    }

    bool
    enabled() const
    {
        return flows || csv != nullptr || sample > 0;
    }

    /** Resolve implications; fail fast on bad strides / unwritable
     * paths. Call once, after parse(). */
    bool
    validate()
    {
        flows = enabled();
        if (sample < 0) {
            std::fprintf(stderr, "error: --flow-sample must be >= 0\n");
            return false;
        }
        return validateOutputPaths({ csv });
    }

    /** Add the requested flow probe to an instrumentation bundle. */
    void
    addTo(Instrumentation &inst) const
    {
        if (!enabled())
            return;
        FlowProbeConfig cfg;
        cfg.sample = static_cast<std::uint64_t>(sample);
        inst.flows = cfg;
    }

    /** Write the flow-matrix CSV when a path was given. */
    void
    write(Machine &m) const
    {
        if (csv != nullptr && m.flows() != nullptr) {
            writeFile(csv, m.flowMatrixCsv());
            std::printf("Flow matrix CSV written to %s\n", csv);
        }
    }
};

/**
 * Shared windowed time-series flags for the figure benches:
 *   --timeseries          enable the interval sampler
 *   --window <N>          sampling window in cycles (default 1024)
 *   --heatmap <path>      write the per-link congestion heatmap CSV
 *                         (implies --timeseries)
 *   --auto-steady         detect steady state online and reset the
 *                         metrics registry at convergence (implies
 *                         --timeseries)
 *   --warmup <N>          fixed warmup: reset metrics at the first
 *                         window boundary >= cycle N (N > 0 implies
 *                         --timeseries)
 *   --progress            live stderr progress line (cycle, Mcyc/s)
 * Paths are validated before any simulation time is spent.
 */
struct TimeseriesOptions
{
    bool timeseries = false;
    long window = 1024;
    const char *heatmap = nullptr;
    bool auto_steady = false;
    bool progress = false;
    long warmup = 0;

    /** Declare the shared time-series flags on @p reg. */
    void
    registerInto(OptionRegistry &reg)
    {
        reg.add("--timeseries", "enable the interval sampler",
                &timeseries);
        reg.add("--window", "N", "sampling window in cycles (default 1024)",
                &window);
        reg.add("--heatmap", "PATH",
                "write the per-link congestion heatmap CSV "
                "(implies --timeseries)",
                &heatmap);
        reg.add("--auto-steady",
                "detect steady state online and reset metrics at "
                "convergence (implies --timeseries)",
                &auto_steady);
        reg.add("--warmup", "N",
                "fixed warmup: reset metrics at cycle N (implies "
                "--timeseries)",
                &warmup);
        reg.add("--progress", "live stderr progress line (cycle, Mcyc/s)",
                &progress);
    }

    bool enabled() const { return timeseries; }

    /** Resolve flag implications; fail fast on unwritable paths /
     * nonsense windows. Call once, after parse(). */
    bool
    validate()
    {
        timeseries =
            timeseries || heatmap != nullptr || auto_steady || warmup > 0;
        if (window < 1) {
            std::fprintf(stderr, "error: --window must be >= 1\n");
            return false;
        }
        if (warmup < 0) {
            std::fprintf(stderr, "error: --warmup must be >= 0\n");
            return false;
        }
        return validateOutputPaths({ heatmap });
    }

    /** Add the requested sampling/progress to an instrumentation
     * bundle. */
    void
    addTo(Instrumentation &inst) const
    {
        if (timeseries) {
            TimeseriesConfig cfg;
            cfg.window = static_cast<Cycle>(window);
            cfg.auto_steady = auto_steady;
            cfg.warmup_reset = static_cast<Cycle>(warmup);
            inst.timeseries = cfg;
        }
        if (progress)
            inst.progress = ProgressMeter::Config{};
    }

    /** Write the heatmap CSV and terminate the progress line. */
    void
    write(Machine &m) const
    {
        if (m.progress() != nullptr)
            m.progress()->finish();
        if (heatmap != nullptr && m.timeseries() != nullptr) {
            writeFile(heatmap, m.heatmapCsv());
            std::printf("Heatmap CSV written to %s\n", heatmap);
        }
    }
};

/**
 * Shared runtime-auditor flags for the figure benches:
 *   --audit <N>           run the invariant audit every N cycles
 *   --watchdog <N>        probe forward progress every N cycles
 *   --stall-threshold <N> ejection-stall trip point in cycles
 *                         (default 20000)
 *   --snapshot <path>     write a forensic snapshot JSON: the watchdog's
 *                         trip snapshot if it fired, else an end-of-run
 *                         snapshot (implies --watchdog)
 *   --snapshot-dot <path> the same snapshot's waits-for graph as
 *                         Graphviz DOT (implies --watchdog)
 *   --fault <name>        arm a seeded negative-control fault before
 *                         simulating: `withhold-credit` (node 0 drops
 *                         every credit returning on its X+ slice-0 link)
 *                         or `no-promotion` (the node at the X dateline
 *                         skips VC promotion on its X+ slice-0 egress)
 * Paths are validated before any simulation time is spent.
 */
struct AuditOptions
{
    long audit = 0;
    long watchdog = 0;
    long stall_threshold = 20000;
    const char *snapshot = nullptr;
    const char *snapshot_dot = nullptr;
    const char *fault = nullptr;

    /** Declare the shared auditor flags on @p reg. */
    void
    registerInto(OptionRegistry &reg)
    {
        reg.add("--audit", "N", "run the invariant audit every N cycles",
                &audit);
        reg.add("--watchdog", "N", "probe forward progress every N cycles",
                &watchdog);
        reg.add("--stall-threshold", "N",
                "ejection-stall trip point in cycles (default 20000)",
                &stall_threshold);
        reg.add("--snapshot", "PATH",
                "write a forensic snapshot JSON (implies --watchdog)",
                &snapshot);
        reg.add("--snapshot-dot", "PATH",
                "write the snapshot's waits-for graph as Graphviz DOT "
                "(implies --watchdog)",
                &snapshot_dot);
        reg.add("--fault", "NAME",
                "arm a seeded negative-control fault: withhold-credit or "
                "no-promotion (implies --watchdog)",
                &fault);
    }

    bool enabled() const { return audit > 0 || watchdog > 0; }

    /** Resolve flag implications; fail fast on unwritable paths / bad
     * cadences / unknown faults. Call once, after parse(). */
    bool
    validate()
    {
        // A requested snapshot or fault without an explicit cadence still
        // needs the watchdog armed to classify and capture the wedge.
        if ((snapshot != nullptr || snapshot_dot != nullptr
             || fault != nullptr)
            && watchdog == 0) {
            watchdog = 1024;
        }
        if (audit < 0 || watchdog < 0 || stall_threshold < 1) {
            std::fprintf(stderr,
                         "error: --audit/--watchdog must be >= 0 and "
                         "--stall-threshold >= 1\n");
            return false;
        }
        if (fault != nullptr && std::strcmp(fault, "withhold-credit") != 0
            && std::strcmp(fault, "no-promotion") != 0) {
            std::fprintf(stderr,
                         "error: --fault must be withhold-credit or "
                         "no-promotion\n");
            return false;
        }
        return validateOutputPaths({ snapshot, snapshot_dot });
    }

    /** Add the requested fault and auditor to an instrumentation
     * bundle (@p geom locates the dateline node for no-promotion). */
    void
    addTo(Instrumentation &inst, const TorusGeom &geom) const
    {
        if (fault != nullptr) {
            NetworkFault f;
            if (std::strcmp(fault, "withhold-credit") == 0) {
                f.kind = NetworkFault::Kind::WithholdTorusCredits;
                f.node = 0;
            } else {
                f.kind = NetworkFault::Kind::NoDatelinePromotion;
                // The dateline sits between coordinates k-1 and 0, so the
                // node at x = k-1 is the one whose X+ egress must promote.
                Coords c(static_cast<std::size_t>(geom.ndims()), 0);
                c[0] = geom.radix(0) - 1;
                f.node = geom.id(c);
            }
            inst.faults.push_back(f);
        }
        if (!enabled())
            return;
        AuditConfig cfg;
        cfg.audit_interval = static_cast<Cycle>(audit);
        cfg.watchdog_interval = static_cast<Cycle>(watchdog);
        cfg.stall_threshold = static_cast<Cycle>(stall_threshold);
        inst.audit = cfg;
    }

    /** Write the snapshot JSON / DOT (trip snapshot when tripped). */
    void
    write(Machine &m) const
    {
        if (snapshot == nullptr && snapshot_dot == nullptr)
            return;
        MachineSnapshot snap;
        if (m.audit() != nullptr && m.audit()->tripped())
            snap = *m.audit()->tripSnapshot();
        else
            snap = m.dumpSnapshot("end_of_run");
        if (snapshot != nullptr) {
            writeFile(snapshot, snapshotJson(snap));
            std::printf("Snapshot JSON written to %s\n", snapshot);
        }
        if (snapshot_dot != nullptr) {
            writeFile(snapshot_dot, waitsForDot(snap));
            std::printf("Waits-for DOT written to %s\n", snapshot_dot);
        }
        if (m.audit() != nullptr && m.audit()->tripped()) {
            std::fprintf(stderr, "warning: watchdog tripped (%s) at cycle "
                                 "%llu\n",
                         m.audit()->tripSnapshot()->verdict.c_str(),
                         static_cast<unsigned long long>(
                             m.audit()->tripSnapshot()->now));
        }
    }
};

/**
 * Shared engine self-profiling flags for the Machine-driving benches:
 *   --host-profile[=PATH]      profile the lookahead-window engine loop
 *                              (per-lane tick / barrier-wait / serial
 *                              replay seconds, straggler shard, sampled
 *                              component-class attribution). With =PATH,
 *                              also write a Chrome-trace host timeline
 *                              (workers as tids, windows as slices).
 *   --host-profile-sample <N>  attribute shards/component classes every
 *                              Nth window (default 16; 1 = every window)
 * Profiling only reads the host clock and writes its own buffers, so
 * every deterministic export stays byte-identical with it on or off.
 * The timeline path must be attached with `=` (it is optional).
 */
struct HostProfileOptions
{
    bool enabled = false;
    const char *timeline = nullptr;
    long sample_every = 16;

    /** Declare the shared profiling flags on @p reg. */
    void
    registerInto(OptionRegistry &reg)
    {
        reg.addOptional("--host-profile", "PATH",
                        "profile the engine host loop; =PATH also writes "
                        "a Chrome-trace host timeline",
                        &enabled, &timeline);
        reg.add("--host-profile-sample", "N",
                "attribute component classes every Nth window "
                "(default 16)",
                &sample_every);
    }

    /** Resolve implications (a timeline path implies profiling); fail
     * fast on bad cadences / unwritable paths. Call after parse(). */
    bool
    validate()
    {
        enabled = enabled || timeline != nullptr;
        if (sample_every < 1) {
            std::fprintf(stderr,
                         "error: --host-profile-sample must be >= 1\n");
            return false;
        }
        return validateOutputPaths({ timeline });
    }

    /** Add the requested profiling to an instrumentation bundle. */
    void
    addTo(Instrumentation &inst) const
    {
        if (!enabled)
            return;
        EngineProfileConfig cfg;
        cfg.sample_every = static_cast<Cycle>(sample_every);
        inst.host_profile = cfg;
    }

    /** Write the Chrome-trace host timeline when a path was given. */
    void
    write(Machine &m) const
    {
        if (timeline != nullptr && m.hostProfile() != nullptr) {
            writeFile(timeline, m.hostTimelineChromeJson());
            std::printf("Host timeline written to %s\n", timeline);
        }
    }
};

/** A host timeline is one run's worth of window slices: benches that
 * measure several configurations back to back (bench_host_speed's
 * thread sweep) would overwrite it with whichever run finished last.
 * Gate on the measured-run count; false = refuse to simulate. */
inline bool
validateTimelineSingleRun(const HostProfileOptions &hp,
                          std::size_t run_count)
{
    if (hp.timeline != nullptr && run_count != 1) {
        std::fprintf(stderr,
                     "error: --host-profile=PATH writes one run's "
                     "timeline; measure a single thread count "
                     "(--threads-list N)\n");
        return false;
    }
    return true;
}

/**
 * Shared checkpoint flags for the Machine-driving benches:
 *   --checkpoint-out PATH  write a machine checkpoint: at steady-state
 *                          convergence when --auto-steady is on (the
 *                          warm-start image the batch runner forks
 *                          from), else at the end of the run
 *   --checkpoint-in PATH   restore the machine from a checkpoint before
 *                          simulating; the run report's
 *                          `run.checkpoint` section records the source
 *                          path and fork cycle
 * Only the benches that honor them (fig9, fig11) register these, and
 * they thread them into the RunSpec of their final measured run. The
 * input must be a checkpoint of this format before any output path is
 * probed; a restore that fails later (another configuration's image, or
 * a corrupted one) ends the bench with `error: checkpoint: ...`, exit 1.
 */
struct CheckpointOptions
{
    const char *in = nullptr;
    const char *out = nullptr;

    /** Declare the shared checkpoint flags on @p reg. */
    void
    registerInto(OptionRegistry &reg)
    {
        reg.add("--checkpoint-in", "PATH",
                "restore the machine from a checkpoint before simulating",
                &in);
        reg.add("--checkpoint-out", "PATH",
                "write a checkpoint (at --auto-steady convergence, else "
                "at end of run)",
                &out);
    }

    bool enabled() const { return in != nullptr || out != nullptr; }

    /** Fail fast on an input that is not a readable checkpoint of this
     * format (checked first, so a bad input leaves no probed output
     * behind) and on an unwritable output path. */
    bool
    validate() const
    {
        if (in != nullptr) {
            try {
                checkCheckpointFile(in);
            } catch (const CheckpointError &e) {
                std::fprintf(stderr, "error: %s\n", e.what());
                return false;
            }
        }
        return validateOutputPaths({ out });
    }

    /** Thread the requested checkpoint I/O into a run spec. */
    void
    addTo(RunSpec &spec) const
    {
        if (in != nullptr)
            spec.checkpoint_in = in;
        if (out != nullptr)
            spec.checkpoint_out = out;
    }
};

/**
 * Shared run-report flags for the figure benches:
 *   --metrics-level LEVEL  telemetry granularity: machine, chip, router,
 *                          or full (default full). `machine` keeps the
 *                          registry O(chips) on an 8x8x8 run; rollups
 *                          and the hot-spot digest stay byte-identical
 *                          at every level.
 *   --report PATH          write the single-artifact run report JSON
 *                          (implies metrics)
 *   --topk N               hot-spot digest size (default 8)
 * The report merges bench config, the Machine's deterministic body
 * (rollups, digest, steady state, time series, audit verdict), the
 * bench's own results (table rows, fits), and the Machine's host
 * section; the host section is the LAST key, so byte-comparisons
 * across thread counts stop at `"host":`. Paths are validated before
 * simulating.
 */
struct ReportOptions
{
    const char *level_name = nullptr;
    const char *report = nullptr;
    long topk = 8;
    MetricsLevel level = MetricsLevel::Full;

    /** Declare the shared report flags on @p reg. */
    void
    registerInto(OptionRegistry &reg)
    {
        reg.add("--metrics-level", "LEVEL",
                "telemetry granularity: machine, chip, router, or full "
                "(default full)",
                &level_name);
        reg.add("--report", "PATH",
                "write the single-artifact run report JSON (implies "
                "metrics)",
                &report);
        reg.add("--topk", "N", "hot-spot digest size (default 8)", &topk);
    }

    bool enabled() const { return report != nullptr; }

    /** Parse the level, fail fast on bad values / unwritable paths. */
    bool
    validate()
    {
        if (level_name != nullptr
            && !parseMetricsLevel(level_name, level)) {
            std::fprintf(stderr,
                         "error: --metrics-level must be machine, chip, "
                         "router, or full\n");
            return false;
        }
        if (topk < 1) {
            std::fprintf(stderr, "error: --topk must be >= 1\n");
            return false;
        }
        return validateOutputPaths({ report });
    }

    /** Contribute to an instrumentation bundle: the level always (it
     * only takes effect when metrics engage), metrics when a report
     * was requested. */
    void
    addTo(Instrumentation &inst) const
    {
        inst.metrics_level = level;
        if (report != nullptr)
            inst.metrics = true;
    }

    /** The deterministic report body ("" when --report is off). Call on
     * the probe Machine before it is destroyed. */
    std::string
    bodyJson(Machine &m) const
    {
        return report != nullptr
                   ? m.runReportJson(static_cast<std::size_t>(topk))
                   : std::string();
    }

    /**
     * Compose and write the run report: report_version / bench / config
     * first, the deterministic body under "run", the bench's results
     * (@p results_json; "" = null), and the Machine's non-deterministic
     * host section last. @p config_json must carry only experiment
     * parameters (radix, cores, seed, ...) - never the thread count or
     * lookahead window, which the host section records - so everything
     * before the `"host"` key stays byte-identical across thread
     * counts. True when --report is off or the report was written;
     * false (with an error) when no run produced a report body.
     */
    bool
    write(const char *bench_name, const std::string &config_json,
          const std::string &body, const std::string &results_json,
          const std::string &host_json) const
    {
        if (report == nullptr)
            return true;
        if (body.empty()) {
            std::fprintf(stderr,
                         "error: --report %s: no run produced a report\n",
                         report);
            return false;
        }
        writeFile(report,
                  JsonObj()
                      .add("report_version", num(3))
                      .add("bench", str(bench_name))
                      .add("config", config_json)
                      .add("run", body)
                      .add("results",
                           results_json.empty() ? "null" : results_json)
                      .add("host", host_json)
                      .dump()
                      + "\n");
        std::printf("Run report written to %s\n", report);
        return true;
    }
};

/**
 * The full shared option set for a Machine-driving bench: `--threads`
 * plus the tracing / time-series / auditor / report groups. One
 * registerInto() declares every shared flag, one validate() resolves
 * implications and fail-fasts, and one apply() configures a Machine
 * through the unified Machine::attachInstrumentation() call.
 */
struct RunOptions
{
    long threads = 1;
    long lookahead = 1;
    TraceOptions trace;
    FlowOptions flows;
    TimeseriesOptions ts;
    AuditOptions audit;
    HostProfileOptions host_profile;
    ReportOptions report;

    void
    registerInto(OptionRegistry &reg)
    {
        reg.add("--threads", "N",
                "engine worker threads (results are bit-identical at "
                "any count)",
                &threads);
        reg.add("--lookahead", "N",
                "cycles per barrier window: 0 = auto (min torus link "
                "latency), 1 = per-cycle barriers (default)",
                &lookahead);
        trace.registerInto(reg);
        flows.registerInto(reg);
        ts.registerInto(reg);
        audit.registerInto(reg);
        host_profile.registerInto(reg);
        report.registerInto(reg);
    }

    /** Resolve implications and fail fast; call once after parse(). */
    bool
    validate()
    {
        if (threads < 1) {
            std::fprintf(stderr, "error: --threads must be >= 1\n");
            return false;
        }
        if (lookahead < 0) {
            std::fprintf(stderr, "error: --lookahead must be >= 0\n");
            return false;
        }
        return trace.validate() && flows.validate() && ts.validate()
               && audit.validate() && host_profile.validate()
               && report.validate();
    }

    /** The bundle every requested option group contributes to. */
    Instrumentation
    instrumentation(const Machine &m, bool metrics = false) const
    {
        Instrumentation inst;
        inst.metrics = metrics;
        trace.addTo(inst);
        flows.addTo(inst);
        ts.addTo(inst);
        audit.addTo(inst, m.geom());
        host_profile.addTo(inst);
        report.addTo(inst);
        return inst;
    }

    /** Configure @p m: worker count, lookahead window, and one
     * attachInstrumentation(). Window before instrumentation: tracing
     * and sampling may truncate or disable parts of the window. */
    void
    apply(Machine &m, bool metrics = false) const
    {
        m.setThreads(static_cast<int>(threads));
        m.setLookahead(static_cast<Cycle>(lookahead));
        m.attachInstrumentation(instrumentation(m, metrics));
    }

    /** Write every requested export of @p m (trace, heatmap, snapshot). */
    void
    writeOutputs(Machine &m) const
    {
        trace.write(m);
        flows.write(m);
        ts.write(m);
        audit.write(m);
        host_profile.write(m);
    }
};

/** Render a possibly-NaN value for the text tables ("-" when empty). */
inline std::string
fmtOrDash(double x, const char *fmt = "%.1f")
{
    if (std::isnan(x))
        return "-";
    char buf[48];
    std::snprintf(buf, sizeof(buf), fmt, x);
    return buf;
}

inline void
printHeader(const std::string &title)
{
    std::printf("\n=== %s ===\n", title.c_str());
}

inline void
printRule(int width = 72)
{
    for (int i = 0; i < width; ++i)
        std::putchar('-');
    std::putchar('\n');
}

} // namespace anton2::bench
