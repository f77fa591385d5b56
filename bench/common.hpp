/**
 * @file
 * Shared helpers for the experiment harnesses: the declarative option
 * registry (options.hpp), aligned table printing, the run-report writer,
 * and the one table of flags the benches share. Every bench prints the
 * paper's rows/series with defaults that reproduce the paper's setup at
 * simulation-tractable scale; flags let you push to the paper's full
 * 8x8x8 (or larger) machine, and `--threads N` runs the sharded engine
 * on N workers with bit-identical results.
 */
#pragma once

#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/machine.hpp"
#include "debug/checkpoint.hpp"
#include "options.hpp"
#include "sim/json.hpp"
#include "sim/metrics.hpp"

namespace anton2::bench {

/** Numeric fields as one object in the bench reports' indent-0 layout:
 * a config, a row or a fit. */
inline std::string
fieldsJson(std::initializer_list<std::pair<const char *, double>> fields)
{
    JsonWriter w(0);
    w.beginObject();
    for (const auto &[name, value] : fields)
        w.key(name).number(value);
    return w.end().take();
}

/** A bench's results section at depth 1 of its report: the rows (each
 * a serialized object) and, when given, the fit. */
inline std::string
resultsJson(const std::vector<std::string> &rows,
            const std::string &fit = "")
{
    JsonWriter w(2, 1);
    w.beginObject().key("rows").beginArray(JsonWriter::Inline);
    for (const std::string &row : rows)
        w.raw(row);
    w.end();
    if (!fit.empty())
        w.key("fit").raw(fit);
    return w.end().take();
}

/** Check that @p path can be written before spending simulation time,
 * leaving no trace: a file the probe creates is removed again, and an
 * existing file keeps its bytes. Prints an error and returns false when
 * the path cannot be opened for writing. */
inline bool
probeWritable(const char *path)
{
    std::error_code ec;
    const bool existed = std::filesystem::exists(path, ec);
    std::FILE *f = std::fopen(path, "a");
    if (f == nullptr) {
        std::fprintf(stderr, "error: cannot open %s for writing\n", path);
        return false;
    }
    std::fclose(f);
    if (!existed)
        std::remove(path);
    return true;
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

#ifndef ANTON2_BUILD_TYPE
#define ANTON2_BUILD_TYPE "unknown"
#endif

/** The host's CPU model: the first "model name" of /proc/cpuinfo, or
 * "unknown" where there is none. */
inline std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        const auto colon = line.find(':');
        if (line.rfind("model name", 0) != 0 || colon == std::string::npos)
            continue;
        const auto start = line.find_first_not_of(' ', colon + 1);
        if (start != std::string::npos)
            return line.substr(start);
    }
    return "unknown";
}

/**
 * Where and how these host timings were measured: the fields of
 * perfbench's `host` line but its git revision, which a binary cannot
 * know without a configure-time stamp that goes stale. `build_type` is
 * the CMake build type (bench/CMakeLists.txt).
 */
inline std::string
hostProvenanceJson()
{
#if defined(__clang__)
    const std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
    const std::string compiler = std::string("gcc ") + __VERSION__;
#else
    const std::string compiler = "unknown";
#endif
#ifdef __OPTIMIZE__
    const bool optimized = true;
#else
    const bool optimized = false;
#endif
    return JsonWriter(0)
        .beginObject()
        .key("nproc").number(std::thread::hardware_concurrency())
        .key("cpu_model").string(cpuModel())
        .key("build_type").string(ANTON2_BUILD_TYPE)
        .key("optimized").boolean(optimized)
        .key("compiler").string(compiler)
        .end()
        .take();
}

/** Groups of shared flags; a bench registers the groups it honors. */
enum FlagGroup : unsigned
{
    kGroupThreads = 1u << 0,     ///< --threads
    kGroupLookahead = 1u << 1,   ///< --lookahead
    kGroupTrace = 1u << 2,       ///< event trace and flight record
    kGroupFlows = 1u << 3,       ///< flow probe
    kGroupTimeseries = 1u << 4,  ///< interval sampler, progress line
    kGroupAudit = 1u << 5,       ///< runtime auditor, seeded faults
    kGroupHostProfile = 1u << 6, ///< engine self-profile
    kGroupReport = 1u << 7,      ///< run report
    kGroupCheckpoint = 1u << 8,  ///< checkpoint in / out
    /** What every Machine-driving figure bench honors. */
    kRunSet = kGroupThreads | kGroupLookahead | kGroupTrace | kGroupFlows
              | kGroupTimeseries | kGroupAudit | kGroupHostProfile
              | kGroupReport,
};

/** An instrumentation layer a flag switches on when it is set. Watchdog
 * is the auditor with a watchdog cadence (1024 cycles unless given). */
enum class Layer : unsigned
{
    None, Trace, Flows, Sampler, Progress, Audit, Watchdog, Profile, Metrics
};

/** The shared flags' values, as parsed (kSharedFlags declares them). */
struct FlagValues
{
    long threads = 1, lookahead = 1;
    const char *trace = nullptr, *trace_csv = nullptr;
    long trace_sample = 1;
    bool flows = false;
    const char *flows_csv = nullptr;
    long flow_sample = 0;
    bool timeseries = false, auto_steady = false, progress = false;
    long window = 1024, warmup = 0;
    const char *heatmap = nullptr;
    long audit = 0, watchdog = 0, stall_threshold = 20000;
    const char *snapshot = nullptr, *snapshot_dot = nullptr;
    const char *fault = nullptr;
    bool host_profile = false;
    const char *host_timeline = nullptr;
    long host_profile_sample = 16;
    const char *metrics_level = nullptr, *report = nullptr;
    long topk = 8;
    const char *checkpoint_in = nullptr, *checkpoint_out = nullptr;
};

/** The --snapshot / --snapshot-dot export: the watchdog's trip snapshot
 * when it fired, else an end-of-run snapshot. */
inline MachineSnapshot
finalSnapshot(Machine &m)
{
    if (m.audit() != nullptr && m.audit()->tripped())
        return *m.audit()->tripSnapshot();
    return m.dumpSnapshot("end_of_run");
}

/** One shared flag: where its value lives and what it means. */
struct SharedFlag
{
    const char *name = nullptr;
    const char *placeholder = nullptr; ///< --help value; null = a switch
    const char *help = nullptr;
    unsigned group = 0; ///< its FlagGroup
    long FlagValues::*num = nullptr;         ///< a numeric value
    const char *FlagValues::*text = nullptr; ///< a string / PATH value
    bool FlagValues::*on = nullptr; ///< a switch; with text, `--x[=PATH]`
    long lo = 0, hi = LONG_MAX;     ///< numeric range [lo, hi]
    Layer implies = Layer::None; ///< the layer it switches on when set
    bool output = false;         ///< a PATH probed for writing up front
    /** What writeOutputs() writes to the PATH, and its label. */
    std::string (*exporter)(Machine &) = nullptr;
    const char *what = nullptr;
};

/** Every shared flag, in --help order. */
inline constexpr SharedFlag kSharedFlags[] = {
    { .name = "--threads", .placeholder = "N",
      .help = "engine worker threads (results are bit-identical at any count)",
      .group = kGroupThreads, .num = &FlagValues::threads, .lo = 1,
      .hi = INT_MAX },
    { .name = "--lookahead", .placeholder = "N",
      .help = "cycles per barrier window: 0 = auto (min torus link latency), "
              "1 = per-cycle barriers (default)",
      .group = kGroupLookahead, .num = &FlagValues::lookahead },
    { .name = "--trace", .placeholder = "PATH",
      .help = "write Chrome trace-event JSON (Perfetto loadable)",
      .group = kGroupTrace, .text = &FlagValues::trace,
      .implies = Layer::Trace, .output = true,
      .exporter = [](Machine &m) { return m.traceChromeJson(); },
      .what = "Chrome trace" },
    { .name = "--trace-csv", .placeholder = "PATH",
      .help = "write the per-packet flight-record CSV",
      .group = kGroupTrace, .text = &FlagValues::trace_csv,
      .implies = Layer::Trace, .output = true,
      .exporter = [](Machine &m) { return m.traceFlightCsv(); },
      .what = "Flight record" },
    { .name = "--trace-sample", .placeholder = "N",
      .help = "record every Nth packet id (default 1)",
      .group = kGroupTrace, .num = &FlagValues::trace_sample, .lo = 1 },
    { .name = "--flow-sample", .placeholder = "N",
      .help = "write flow spans of every Nth packet id into the --trace "
              "Chrome trace (implies --flows)",
      .group = kGroupTrace, .num = &FlagValues::flow_sample,
      .implies = Layer::Flows },
    { .name = "--flows", .placeholder = "PATH",
      .help = "attach the flow probe (flow matrix + congestion blame); =PATH "
              "also writes the flow-matrix CSV",
      .group = kGroupFlows, .text = &FlagValues::flows_csv,
      .on = &FlagValues::flows, .implies = Layer::Flows, .output = true,
      .exporter = [](Machine &m) { return m.flowMatrixCsv(); },
      .what = "Flow matrix CSV" },
    { .name = "--timeseries",
      .help = "enable the interval sampler",
      .group = kGroupTimeseries, .on = &FlagValues::timeseries,
      .implies = Layer::Sampler },
    { .name = "--window", .placeholder = "N",
      .help = "sampling window in cycles (default 1024)",
      .group = kGroupTimeseries, .num = &FlagValues::window, .lo = 1 },
    { .name = "--heatmap", .placeholder = "PATH",
      .help = "write the per-link congestion heatmap CSV (implies "
              "--timeseries)",
      .group = kGroupTimeseries, .text = &FlagValues::heatmap,
      .implies = Layer::Sampler, .output = true,
      .exporter = [](Machine &m) { return m.heatmapCsv(); },
      .what = "Heatmap CSV" },
    { .name = "--auto-steady",
      .help = "detect steady state online and reset metrics at convergence "
              "(implies --timeseries)",
      .group = kGroupTimeseries, .on = &FlagValues::auto_steady,
      .implies = Layer::Sampler },
    { .name = "--warmup", .placeholder = "N",
      .help = "fixed warmup: reset metrics at cycle N (implies --timeseries)",
      .group = kGroupTimeseries, .num = &FlagValues::warmup,
      .implies = Layer::Sampler },
    { .name = "--progress",
      .help = "live stderr progress line (cycle, Mcyc/s)",
      .group = kGroupTimeseries, .on = &FlagValues::progress,
      .implies = Layer::Progress },
    { .name = "--audit", .placeholder = "N",
      .help = "run the invariant audit every N cycles",
      .group = kGroupAudit, .num = &FlagValues::audit,
      .implies = Layer::Audit },
    { .name = "--watchdog", .placeholder = "N",
      .help = "probe forward progress every N cycles",
      .group = kGroupAudit, .num = &FlagValues::watchdog,
      .implies = Layer::Audit },
    { .name = "--stall-threshold", .placeholder = "N",
      .help = "ejection-stall trip point in cycles (default 20000)",
      .group = kGroupAudit, .num = &FlagValues::stall_threshold, .lo = 1 },
    { .name = "--snapshot", .placeholder = "PATH",
      .help = "write a forensic snapshot JSON (implies --watchdog)",
      .group = kGroupAudit, .text = &FlagValues::snapshot,
      .implies = Layer::Watchdog, .output = true,
      .exporter = [](Machine &m) { return snapshotJson(finalSnapshot(m)); },
      .what = "Snapshot JSON" },
    { .name = "--snapshot-dot", .placeholder = "PATH",
      .help = "write the snapshot's waits-for graph as Graphviz DOT (implies "
              "--watchdog)",
      .group = kGroupAudit, .text = &FlagValues::snapshot_dot,
      .implies = Layer::Watchdog, .output = true,
      .exporter = [](Machine &m) { return waitsForDot(finalSnapshot(m)); },
      .what = "Waits-for DOT" },
    { .name = "--fault", .placeholder = "NAME",
      .help = "arm a seeded negative-control fault: withhold-credit or "
              "no-promotion (implies --watchdog)",
      .group = kGroupAudit, .text = &FlagValues::fault,
      .implies = Layer::Watchdog },
    { .name = "--host-profile", .placeholder = "PATH",
      .help = "profile the engine host loop; =PATH also writes a Chrome-trace "
              "host timeline",
      .group = kGroupHostProfile, .text = &FlagValues::host_timeline,
      .on = &FlagValues::host_profile, .implies = Layer::Profile,
      .output = true,
      .exporter = [](Machine &m) { return m.hostTimelineChromeJson(); },
      .what = "Host timeline" },
    { .name = "--host-profile-sample", .placeholder = "N",
      .help = "attribute component classes every Nth window (default 16)",
      .group = kGroupHostProfile, .num = &FlagValues::host_profile_sample,
      .lo = 1 },
    { .name = "--metrics-level", .placeholder = "LEVEL",
      .help = "telemetry granularity: machine, chip, router, or full (default "
              "full)",
      .group = kGroupReport, .text = &FlagValues::metrics_level },
    { .name = "--report", .placeholder = "PATH",
      .help = "write the single-artifact run report JSON (implies metrics)",
      .group = kGroupReport, .text = &FlagValues::report,
      .implies = Layer::Metrics, .output = true },
    { .name = "--topk", .placeholder = "N",
      .help = "hot-spot digest size (default 8)",
      .group = kGroupReport, .num = &FlagValues::topk, .lo = 1 },
    { .name = "--checkpoint-in", .placeholder = "PATH",
      .help = "restore the machine from a checkpoint before simulating",
      .group = kGroupCheckpoint, .text = &FlagValues::checkpoint_in },
    { .name = "--checkpoint-out", .placeholder = "PATH",
      .help = "write a checkpoint (at --auto-steady convergence, else at end "
              "of run)",
      .group = kGroupCheckpoint, .text = &FlagValues::checkpoint_out,
      .output = true },
};

/**
 * The shared flags and the one pass that turns them into a run:
 * registerInto() the groups a bench honors, validate() once after
 * parse, configure() the MachineConfig and RunSpec, attach
 * instrumentation(), and writeOutputs() / writeReport() at the end.
 */
class SharedFlags : public FlagValues
{
  public:
    /** Declare every flag of @p groups (FlagGroup bits) on @p reg. */
    void
    registerInto(OptionRegistry &reg, unsigned groups)
    {
        for (const SharedFlag &f : kSharedFlags) {
            if ((f.group & groups) == 0)
                continue;
            if (f.num != nullptr)
                reg.add(f.name, f.placeholder, f.help, &(this->*f.num),
                        f.lo, f.hi);
            else if (f.on != nullptr && f.text != nullptr)
                reg.addOptional(f.name, f.placeholder, f.help,
                                &(this->*f.on), &(this->*f.text));
            else if (f.text != nullptr)
                reg.add(f.name, f.placeholder, f.help, &(this->*f.text));
            else
                reg.add(f.name, f.help, &(this->*f.on));
        }
    }

    /**
     * Check ranges and names, resolve implications, check that each
     * sample stride thins an export that is written and that
     * --checkpoint-in is a checkpoint, then probe every output path
     * (reporting all unwritable ones). Call once, after parse(); false
     * = do not simulate.
     */
    bool
    validate()
    {
        for (const SharedFlag &f : kSharedFlags) {
            if (f.num != nullptr
                && !checkRange(f.name, this->*f.num, f.lo, f.hi))
                return false;
            if (f.implies != Layer::None && isSet(f))
                layers_ |= 1u << static_cast<unsigned>(f.implies);
        }
        // A sample stride only thins an export: sampled flow spans are
        // written into the Chrome trace, and the trace stride thins the
        // Chrome trace and the flight record.
        if (flow_sample > 0 && trace == nullptr) {
            std::fprintf(stderr, "error: --flow-sample needs --trace (the "
                                 "Chrome trace holds the flow spans)\n");
            return false;
        }
        if (trace_sample != 1 && trace == nullptr && trace_csv == nullptr) {
            std::fprintf(stderr, "error: --trace-sample needs --trace or "
                                 "--trace-csv\n");
            return false;
        }
        if (metrics_level != nullptr
            && !parseMetricsLevel(metrics_level, level_)) {
            std::fprintf(stderr, "error: --metrics-level must be machine, "
                                 "chip, router, or full\n");
            return false;
        }
        if (fault != nullptr && std::strcmp(fault, "withhold-credit") != 0
            && std::strcmp(fault, "no-promotion") != 0) {
            std::fprintf(stderr, "error: --fault must be withhold-credit "
                                 "or no-promotion\n");
            return false;
        }
        // A snapshot or fault without an explicit cadence still needs the
        // watchdog armed to classify and capture the wedge.
        if (enabled(Layer::Watchdog)) {
            if (watchdog == 0)
                watchdog = 1024;
            layers_ |= 1u << static_cast<unsigned>(Layer::Audit);
        }
        // The input is checked before any output path is probed.
        if (checkpoint_in != nullptr) {
            try {
                checkCheckpointFile(checkpoint_in);
            } catch (const CheckpointError &e) {
                std::fprintf(stderr, "error: %s\n", e.what());
                return false;
            }
        }
        bool ok = true;
        for (const SharedFlag &f : kSharedFlags) {
            if (f.output && this->*f.text != nullptr)
                ok = probeWritable(this->*f.text) && ok;
        }
        return ok;
    }

    /** Whether @p layer is on (valid after validate()). */
    bool
    enabled(Layer layer) const
    {
        return (layers_ >> static_cast<unsigned>(layer)) & 1u;
    }

    /** Whether any layer or checkpoint I/O was requested. */
    bool
    requested() const
    {
        return layers_ != 0 || checkpoint_in != nullptr
               || checkpoint_out != nullptr;
    }

    /** Set the worker count and lookahead window. */
    void
    configure(MachineConfig &cfg) const
    {
        cfg.threads = static_cast<int>(threads);
        cfg.lookahead = static_cast<Cycle>(lookahead);
    }

    /** Thread the requested checkpoint save into a run (a bench
     * restores --checkpoint-in itself, before it attaches). */
    void
    configure(RunSpec &spec) const
    {
        if (checkpoint_out != nullptr)
            spec.checkpoint_out = checkpoint_out;
    }

    /** The bundle of every requested layer and fault (@p geom locates
     * the dateline node for no-promotion). */
    Instrumentation
    instrumentation(const TorusGeom &geom) const
    {
        Instrumentation inst;
        inst.metrics = enabled(Layer::Metrics);
        inst.metrics_level = level_;
        if (enabled(Layer::Trace))
            inst.trace = TraceConfig{
                .sample = static_cast<std::uint64_t>(trace_sample) };
        if (enabled(Layer::Flows))
            inst.flows = FlowProbeConfig{
                .sample = static_cast<std::uint64_t>(flow_sample) };
        if (enabled(Layer::Sampler)) {
            inst.timeseries.emplace();
            inst.timeseries->window = static_cast<Cycle>(window);
            inst.timeseries->auto_steady = auto_steady;
            inst.timeseries->warmup_reset = static_cast<Cycle>(warmup);
        }
        if (enabled(Layer::Progress))
            inst.progress = ProgressMeter::Config{};
        if (enabled(Layer::Profile))
            inst.host_profile = EngineProfileConfig{
                .sample_every = static_cast<Cycle>(host_profile_sample) };
        if (enabled(Layer::Audit))
            inst.audit = AuditConfig{
                .audit_interval = static_cast<Cycle>(audit),
                .watchdog_interval = static_cast<Cycle>(watchdog),
                .stall_threshold = static_cast<Cycle>(stall_threshold) };
        if (fault != nullptr) {
            NetworkFault f; // the default: withhold-credit at node 0
            if (std::strcmp(fault, "no-promotion") == 0) {
                f.kind = NetworkFault::Kind::NoDatelinePromotion;
                // The dateline sits between coordinates k-1 and 0, so the
                // node at x = k-1 is the one whose X+ egress must promote.
                Coords c(static_cast<std::size_t>(geom.ndims()), 0);
                c[0] = geom.radix(0) - 1;
                f.node = geom.id(c);
            }
            inst.faults.push_back(f);
        }
        return inst;
    }

    /** Write every requested export of @p m, each followed by its
     * `... written to PATH` line, and end the progress line. */
    void
    writeOutputs(Machine &m) const
    {
        if (m.progress() != nullptr)
            m.progress()->finish();
        for (const SharedFlag &f : kSharedFlags) {
            const char *path =
                f.exporter != nullptr ? this->*f.text : nullptr;
            if (path == nullptr)
                continue;
            writeFile(path, f.exporter(m));
            std::printf("%s written to %s\n", f.what, path);
        }
        if ((snapshot != nullptr || snapshot_dot != nullptr)
            && m.audit() != nullptr && m.audit()->tripped()) {
            std::fprintf(stderr,
                         "warning: watchdog tripped (%s) at cycle %llu\n",
                         m.audit()->tripSnapshot()->verdict.c_str(),
                         static_cast<unsigned long long>(
                             m.audit()->tripSnapshot()->now));
        }
    }

    /** The deterministic report body ("" when --report is off). Call
     * on the probe Machine before it is destroyed. */
    std::string
    reportBody(Machine &m) const
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
    writeReport(const char *bench_name, const std::string &config_json,
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
        JsonWriter w;
        w.beginObject()
            .key("report_version").number(3)
            .key("bench").string(bench_name)
            .key("config").raw(config_json)
            .key("run").raw(body)
            .key("results").raw(results_json.empty() ? "null" : results_json)
            .key("host").raw(host_json)
            .end();
        writeFile(report, w.take() + '\n');
        std::printf("Run report written to %s\n", report);
        return true;
    }

  private:
    /** A flag is set when it is true, names a path, or is > 0. */
    bool
    isSet(const SharedFlag &f) const
    {
        if (f.num != nullptr)
            return this->*f.num > 0;
        return (f.on != nullptr && this->*f.on)
               || (f.text != nullptr && this->*f.text != nullptr);
    }

    unsigned layers_ = 0;
    MetricsLevel level_ = MetricsLevel::Full;
};

/** A host timeline is one run's worth of window slices: benches that
 * measure several configurations back to back (bench_host_speed's
 * thread sweep) would overwrite it with whichever run finished last.
 * Gate on the measured-run count; false = refuse to simulate. */
inline bool
validateTimelineSingleRun(const SharedFlags &flags, std::size_t run_count)
{
    if (flags.host_timeline != nullptr && run_count != 1) {
        std::fprintf(stderr,
                     "error: --host-profile=PATH writes one run's "
                     "timeline; measure a single thread count "
                     "(--threads-list N)\n");
        return false;
    }
    return true;
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
