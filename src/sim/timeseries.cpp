#include "sim/timeseries.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <map>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

namespace anton2 {

// ---------------------------------------------------------------------
// SteadyStateDetector
// ---------------------------------------------------------------------

void
SteadyStateDetector::observe(double x)
{
    if (std::isnan(x)) {
        // No evidence either way: the suffix extends, the mean holds.
        ++n_;
        return;
    }
    if (run_count_ > 0) {
        const double mean = run_sum_ / static_cast<double>(run_count_);
        // The floor keeps a near-zero mean from narrowing the band to
        // nothing.
        const double band =
            std::max(cfg_.rel_tolerance * std::fabs(mean), 1e-9);
        if (std::fabs(x - mean) > band) {
            start_ = n_;
            run_sum_ = 0.0;
            run_count_ = 0;
        }
    }
    run_sum_ += x;
    ++run_count_;
    ++n_;
}

std::size_t
mserTruncation(const std::vector<double> &xs)
{
    const std::size_t n = xs.size();
    if (n < 2)
        return 0;

    // Suffix sums let every candidate's variance come out in O(1).
    std::vector<double> sum(n + 1, 0.0), sq(n + 1, 0.0);
    for (std::size_t i = n; i-- > 0;) {
        sum[i] = sum[i + 1] + xs[i];
        sq[i] = sq[i + 1] + xs[i] * xs[i];
    }

    std::size_t best = 0;
    double best_se = std::numeric_limits<double>::infinity();
    for (std::size_t d = 0; d <= n / 2; ++d) {
        const auto m = static_cast<double>(n - d);
        const double mean = sum[d] / m;
        const double var = std::max(0.0, sq[d] / m - mean * mean);
        const double se = var / m; // monotone in stddev/sqrt(m): compare var/m
        if (se < best_se) {
            best_se = se;
            best = d;
        }
    }
    return best;
}

// ---------------------------------------------------------------------
// IntervalSampler
// ---------------------------------------------------------------------

IntervalSampler::IntervalSampler(const TimeseriesConfig &cfg,
                                 std::vector<SeriesInfo> series, RowFn row,
                                 const ScalarStat *mean, Cycle now)
    : cfg_(cfg), series_(std::move(series)), row_(std::move(row)),
      mean_(mean)
{
    assert(cfg_.window >= 1);
    const auto raw = static_cast<std::size_t>(
        std::count_if(series_.begin(), series_.end(), [](const SeriesInfo &s) {
            return s.kind != SeriesKind::WindowMean;
        }));
    assert(series_.size() - raw <= 1
           && (raw == series_.size() || mean_ != nullptr));
    row_now_.resize(raw);
    row_prev_.resize(raw);
    row_(now, row_prev_.data());
    if (mean_ != nullptr)
        mean_prev_ = mean_->snapshot();
}

void
IntervalSampler::watchSteadyState(std::size_t throughput_series,
                                  std::size_t latency_series,
                                  MetricsRegistry *reset)
{
    ss_throughput_ = throughput_series;
    ss_latency_ = latency_series;
    reset_registry_ = reset;
    steady_result_.auto_steady = cfg_.auto_steady;
}

void
IntervalSampler::tick(Cycle now)
{
    if (!started_) {
        started_ = true;
        start_ = now;
        last_ = now;
        next_ = now + cfg_.window;
        return;
    }
    if (now != next_)
        return;
    sampleWindow(now, /*full=*/true);
    next_ += cfg_.window;
}

void
IntervalSampler::finalize(Cycle now)
{
    if (!started_ || now <= last_)
        return;
    // A partial window is recorded but never resets the registry: a run
    // that ends before its warmup (or steady state) keeps its whole-run
    // metrics.
    sampleWindow(now, /*full=*/false);
    next_ = now + cfg_.window;
}

void
IntervalSampler::sampleWindow(Cycle end, bool full)
{
    const Cycle len = end - last_;
    assert(len > 0);

    if (window_end_.size() >= cfg_.max_windows) {
        ++dropped_;
        last_ = end;
        return;
    }

    row_(end, row_now_.data());
    std::size_t raw = 0; // next slot of the raw row
    for (const SeriesInfo &s : series_) {
        double v = 0.0;
        switch (s.kind) {
          case SeriesKind::Instant:
            v = row_now_[raw++];
            break;
          case SeriesKind::Cumulative:
            v = row_now_[raw] - row_prev_[raw];
            ++raw;
            break;
          case SeriesKind::WindowMean: {
              const auto snap = mean_->snapshot();
              v = ScalarStat::windowMean(snap, mean_prev_);
              mean_prev_ = snap;
              break;
          }
        }
        values_.push_back(v);
    }
    row_now_.swap(row_prev_);
    window_end_.push_back(end);
    last_ = end;
    if (!full)
        return;

    // Fixed warmup: one registry reset at the first boundary past it.
    if (!cfg_.auto_steady && cfg_.warmup_reset > 0 && !warmup_done_
        && end >= start_ + cfg_.warmup_reset) {
        warmup_done_ = true;
        if (reset_registry_ != nullptr) {
            reset_registry_->reset();
            steady_result_.metrics_reset_cycle = end;
        }
    }

    // Auto steady state: both series stable -> declare, reset once.
    if (cfg_.auto_steady && ss_throughput_ != npos) {
        const std::size_t last = window_end_.size() - 1;
        // The ejection rate, so a window's length does not weigh in.
        det_throughput_.observe(value(ss_throughput_, last)
                                / static_cast<double>(len));
        det_latency_.observe(value(ss_latency_, last));
        if (!steady_detected_ && det_throughput_.converged()
            && det_latency_.converged()) {
            steady_detected_ = true;
            steady_result_.converged = true;
            const std::size_t w =
                std::max(det_throughput_.steadyStartWindow(),
                         det_latency_.steadyStartWindow());
            steady_result_.warmup_cycles =
                start_ + static_cast<Cycle>(w) * cfg_.window;
            steady_result_.detected_cycle = end;
            if (reset_registry_ != nullptr) {
                reset_registry_->reset();
                steady_result_.metrics_reset_cycle = end;
            }
        }
    }
}

double
IntervalSampler::value(std::size_t s, std::size_t w) const
{
    return values_[w * series_.size() + s];
}

Cycle
IntervalSampler::windowStart(std::size_t w) const
{
    return w == 0 ? start_ : window_end_[w - 1];
}

double
IntervalSampler::seriesSum(std::size_t s) const
{
    double total = 0.0;
    for (std::size_t w = 0; w < window_end_.size(); ++w)
        total += value(s, w);
    return total;
}

std::size_t
IntervalSampler::findSeries(const std::string &name) const
{
    for (std::size_t i = 0; i < series_.size(); ++i) {
        if (series_[i].name == name)
            return i;
    }
    return npos;
}

void
IntervalSampler::writeJson(JsonWriter &w) const
{
    w.beginObject()
        .key("window_cycles").number(cfg_.window)
        .key("start_cycle").number(start_)
        .key("windows").number(window_end_.size())
        .key("dropped_windows").number(dropped_)
        .key("window_end_cycles").beginArray(JsonWriter::Inline);
    for (const Cycle end : window_end_)
        w.number(end);
    // Steady-state outcome plus the offline MSER cross-check on the
    // windowed ejection series.
    w.end().key("steady_state");
    writeSteadyState(w);

    // Machine- and Chip-scope series, sorted by name. Link series are
    // exported through the heatmap CSV instead (a per-link JSON dump
    // would dwarf the report on large machines).
    std::map<std::string, std::size_t> emit;
    for (std::size_t i = 0; i < series_.size(); ++i) {
        const SeriesScope sc = series_[i].scope;
        if (sc == SeriesScope::Machine || sc == SeriesScope::Chip)
            emit[series_[i].name] = i;
    }
    w.key("series").beginObject();
    for (const auto &[name, idx] : emit) {
        w.key(name).beginArray(JsonWriter::Inline);
        for (std::size_t win = 0; win < window_end_.size(); ++win)
            w.number(value(idx, win));
        w.end();
    }
    w.end().end();
}

std::string
IntervalSampler::toJson() const
{
    JsonWriter w;
    writeJson(w);
    return w.take();
}

void
IntervalSampler::writeSteadyState(JsonWriter &w) const
{
    if (!cfg_.auto_steady && cfg_.warmup_reset == 0
        && steady_result_.metrics_reset_cycle == kNoCycle) {
        w.null();
        return;
    }
    std::vector<double> rates;
    if (ss_throughput_ != npos && window_end_.size() >= 2) {
        rates.reserve(window_end_.size());
        for (std::size_t win = 0; win < window_end_.size(); ++win) {
            const auto len = static_cast<double>(window_end_[win]
                                                 - windowStart(win));
            rates.push_back(value(ss_throughput_, win) / len);
        }
    }
    // An unknown cycle or window is NaN, which writes null.
    const double none = std::numeric_limits<double>::quiet_NaN();
    const SteadyStateResult &r = steady_result_;
    const bool reset = r.metrics_reset_cycle != kNoCycle;
    w.beginObject()
        .key("auto").boolean(r.auto_steady)
        .key("converged").boolean(r.converged)
        .key("warmup_cycles").number(r.converged ? r.warmup_cycles : none)
        .key("detected_cycle").number(r.converged ? r.detected_cycle : none)
        .key("metrics_reset_cycle")
        .number(reset ? r.metrics_reset_cycle : none)
        .key("mser_window")
        .number(rates.empty() ? none : mserTruncation(rates))
        .end();
}

std::string
IntervalSampler::heatmapCsv() const
{
    std::string out =
        "window,start_cycle,end_cycle,chip,u,v,port,flits,utilization\n";
    for (std::size_t w = 0; w < window_end_.size(); ++w) {
        const Cycle begin = windowStart(w);
        const Cycle end = window_end_[w];
        const auto len = static_cast<double>(end - begin);
        for (std::size_t i = 0; i < series_.size(); ++i) {
            const SeriesInfo &info = series_[i];
            if (info.scope != SeriesScope::Link)
                continue;
            const double flits = value(i, w);
            const double cap = len * info.capacity_per_cycle;
            out += std::to_string(w);
            out += ',';
            out += jsonNumber(static_cast<double>(begin));
            out += ',';
            out += jsonNumber(static_cast<double>(end));
            out += ',';
            out += std::to_string(info.chip);
            out += ',';
            out += std::to_string(info.u);
            out += ',';
            out += std::to_string(info.v);
            out += ',';
            out += info.port;
            out += ',';
            out += jsonNumber(flits);
            out += ',';
            out += jsonNumber(cap > 0.0 ? flits / cap : 0.0);
            out += '\n';
        }
    }
    return out;
}

// ---------------------------------------------------------------------
// Host memory
// ---------------------------------------------------------------------

std::size_t
hostPeakRssBytes()
{
#if defined(__unix__) || defined(__APPLE__)
    struct rusage ru;
    if (getrusage(RUSAGE_SELF, &ru) != 0)
        return 0;
#if defined(__APPLE__)
    return static_cast<std::size_t>(ru.ru_maxrss); // bytes on Darwin
#else
    return static_cast<std::size_t>(ru.ru_maxrss) * 1024; // KiB on Linux
#endif
#else
    return 0;
#endif
}

// ---------------------------------------------------------------------
// ProgressMeter
// ---------------------------------------------------------------------

ProgressMeter::ProgressMeter(const Config &cfg)
    : cfg_(cfg)
{
    if (cfg_.out == nullptr)
        cfg_.out = stderr;
    if (cfg_.check_every < 1)
        cfg_.check_every = 1;
}

void
ProgressMeter::tick(Cycle now)
{
    if (now % cfg_.check_every != 0)
        return;
    const auto wall = ClockT::now();
    if (!started_) {
        started_ = true;
        last_wall_ = wall;
        last_cycle_ = now;
        return;
    }
    const double secs =
        std::chrono::duration<double>(wall - last_wall_).count();
    if (secs < cfg_.min_seconds)
        return;
    // Prefer the window-aware running rate (the engine profiler's
    // cycles/s over its profiled windows) when one is wired in: the raw
    // cycle-delta rate below also counts whatever the driver and
    // exporters did between our ticks, so it wobbles.
    double rate_cps = rate_ ? rate_() : 0.0;
    const bool windowed = rate_cps > 0.0;
    if (!windowed)
        rate_cps = static_cast<double>(now - last_cycle_) / secs;
    std::fprintf(cfg_.out, "\r[progress] cycle %llu  %.2f Mcyc/s%s",
                 static_cast<unsigned long long>(now), rate_cps / 1e6,
                 windowed ? " (win)" : "");
    if (target_ > now && rate_cps > 0.0) {
        std::fprintf(cfg_.out, "  eta %.0fs",
                     static_cast<double>(target_ - now) / rate_cps);
    }
    if (status_)
        std::fprintf(cfg_.out, "  %s", status_().c_str());
    std::fflush(cfg_.out);
    last_wall_ = wall;
    last_cycle_ = now;
    ++lines_;
}

void
ProgressMeter::finish()
{
    if (lines_ > 0)
        std::fputc('\n', cfg_.out);
}

} // namespace anton2
