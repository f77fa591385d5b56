#include "sim/metrics.hpp"

#include <stdexcept>
#include <string_view>
#include <vector>

namespace anton2 {

const char *
metricsLevelName(MetricsLevel level)
{
    switch (level) {
      case MetricsLevel::Machine: return "machine";
      case MetricsLevel::Chip: return "chip";
      case MetricsLevel::Router: return "router";
      case MetricsLevel::Full: return "full";
    }
    return "full";
}

bool
parseMetricsLevel(const std::string &name, MetricsLevel &out)
{
    if (name == "machine")
        out = MetricsLevel::Machine;
    else if (name == "chip")
        out = MetricsLevel::Chip;
    else if (name == "router")
        out = MetricsLevel::Router;
    else if (name == "full")
        out = MetricsLevel::Full;
    else
        return false;
    return true;
}

namespace {

/**
 * A new path must be non-empty, hold no character below '.', and not
 * nest with a leaf: "a.b" conflicts with both "a" and "a.b.c". Nesting
 * is checked against the sorted map's neighborhood of the insertion
 * point, so registration stays O(log n).
 */
template <typename MetricMap>
void
checkNewPath(const MetricMap &map, const std::string &path)
{
    if (path.empty())
        throw std::invalid_argument("empty metric path");
    // toJson writes the map in path order as the tree's depth-first
    // order. The two agree only while no character sorts below the '.'
    // that separates segments ("a-b" would sort before "a.b", yet the
    // segment "a" before "a-b").
    for (const char c : path) {
        if (static_cast<unsigned char>(c) < '.')
            throw std::invalid_argument("metric path '" + path
                                        + "' holds a character that sorts "
                                          "below '.'");
    }
    // An existing key extending path + '.' sorts directly after path.
    const auto after = map.lower_bound(path);
    if (after != map.end() && after->first.size() > path.size()
        && after->first.compare(0, path.size(), path) == 0
        && after->first[path.size()] == '.') {
        throw std::invalid_argument("metric path '" + path
                                    + "' conflicts with existing subtree");
    }
    // An existing key that is a '.'-bounded prefix of path.
    for (std::size_t dot = path.find('.'); dot != std::string::npos;
         dot = path.find('.', dot + 1)) {
        if (map.count(path.substr(0, dot)) != 0) {
            throw std::invalid_argument(
                "metric path '" + path + "' nests under existing leaf '"
                + path.substr(0, dot) + "'");
        }
    }
}

/** Enforce path-kind consistency on (re-)registration. */
template <typename T, typename... Args>
T &
getOrCreate(std::map<std::string, std::variant<Counter, ScalarStat,
                                               Histogram, double>> &map,
            const std::string &path, Args &&...args)
{
    auto it = map.find(path);
    if (it == map.end()) {
        checkNewPath(map, path);
        it = map.emplace(path, T(std::forward<Args>(args)...)).first;
    } else if (!std::holds_alternative<T>(it->second)) {
        throw std::invalid_argument("metric path '" + path
                                    + "' already registered with a "
                                      "different kind");
    }
    return std::get<T>(it->second);
}

} // namespace

Counter &
MetricsRegistry::counter(const std::string &path)
{
    return getOrCreate<Counter>(metrics_, path);
}

ScalarStat &
MetricsRegistry::scalar(const std::string &path)
{
    return getOrCreate<ScalarStat>(metrics_, path);
}

Histogram &
MetricsRegistry::histogram(const std::string &path, std::size_t bins,
                           double bin_width)
{
    return getOrCreate<Histogram>(metrics_, path, bins, bin_width);
}

void
MetricsRegistry::setGauge(const std::string &path, double value)
{
    getOrCreate<double>(metrics_, path) = value;
}

const Counter *
MetricsRegistry::findCounter(const std::string &path) const
{
    const auto it = metrics_.find(path);
    return it == metrics_.end() ? nullptr
                                : std::get_if<Counter>(&it->second);
}

const ScalarStat *
MetricsRegistry::findScalar(const std::string &path) const
{
    const auto it = metrics_.find(path);
    return it == metrics_.end() ? nullptr
                                : std::get_if<ScalarStat>(&it->second);
}

const Histogram *
MetricsRegistry::findHistogram(const std::string &path) const
{
    const auto it = metrics_.find(path);
    return it == metrics_.end() ? nullptr
                                : std::get_if<Histogram>(&it->second);
}

std::size_t
MetricsRegistry::approxBytes() const
{
    // Rough but stable accounting: red-black tree node overhead plus the
    // key string (including any heap allocation beyond SSO) plus the
    // variant payload and histogram bin storage.
    constexpr std::size_t kNodeOverhead = 4 * sizeof(void *);
    std::size_t total = sizeof(*this);
    for (const auto &[path, m] : metrics_) {
        total += kNodeOverhead + sizeof(path) + sizeof(m);
        if (path.size() >= sizeof(std::string))
            total += path.capacity() + 1;
        if (const auto *h = std::get_if<Histogram>(&m))
            total += h->counts().capacity() * sizeof(std::uint64_t);
    }
    return total;
}

void
MetricsRegistry::reset()
{
    for (auto &[path, m] : metrics_) {
        if (auto *c = std::get_if<Counter>(&m))
            c->reset();
        else if (auto *s = std::get_if<ScalarStat>(&m))
            s->reset();
        else if (auto *h = std::get_if<Histogram>(&m))
            h->reset();
        else
            std::get<double>(m) = 0.0;
    }
    if (reset_hook_)
        reset_hook_();
}

namespace {

/** One metric's value: a number, or an inline object of its summary. */
void
writeLeaf(JsonWriter &w,
          const std::variant<Counter, ScalarStat, Histogram, double> &leaf)
{
    if (const auto *c = std::get_if<Counter>(&leaf)) {
        w.integer(c->value());
    } else if (const auto *s = std::get_if<ScalarStat>(&leaf)) {
        w.beginObject(JsonWriter::Inline)
            .key("count").integer(s->count()).key("sum").number(s->sum())
            .key("mean").number(s->mean())
            .key("min").number(s->min()).key("max").number(s->max())
            .key("stddev").number(s->stddev()).end();
    } else if (const auto *h = std::get_if<Histogram>(&leaf)) {
        const ScalarStat &st = h->stat();
        w.beginObject(JsonWriter::Inline)
            .key("bin_width").number(h->binWidth())
            .key("count").integer(st.count()).key("mean").number(st.mean())
            .key("min").number(st.min()).key("max").number(st.max())
            .key("p50").number(h->quantile(0.50))
            .key("p90").number(h->quantile(0.90))
            .key("p99").number(h->quantile(0.99))
            .key("counts").beginArray(JsonWriter::Inline);
        for (const std::uint64_t n : h->counts())
            w.integer(n);
        w.end().end();
    } else {
        w.number(std::get<double>(leaf));
    }
}

} // namespace

std::string
MetricsRegistry::toJson() const
{
    // One pass over the sorted map. Registration admits no character
    // below '.', so path order is the hierarchy's depth-first order with
    // each object's keys sorted. A path shares the objects still open
    // with the one before it; where the two diverge, close the old
    // objects, then open the new path's.
    JsonWriter w;
    w.beginObject();
    std::vector<std::string_view> open; // keys of the open objects
    std::vector<std::string_view> segs;
    for (const auto &[path, metric] : metrics_) {
        // Machine level records per-chip aggregates (for shard safety)
        // but exports only the machine-wide view.
        if (level_ == MetricsLevel::Machine
            && path.compare(0, 5, "chip.") == 0)
            continue;
        segs.clear();
        for (std::size_t start = 0;;) {
            const auto dot = path.find('.', start);
            const std::size_t stop = dot == std::string::npos ? path.size()
                                                              : dot;
            segs.emplace_back(path.data() + start, stop - start);
            if (dot == std::string::npos)
                break;
            start = dot + 1;
        }
        std::size_t same = 0;
        while (same < open.size() && same + 1 < segs.size()
               && open[same] == segs[same])
            ++same;
        for (; open.size() > same; open.pop_back())
            w.end();
        while (open.size() + 1 < segs.size()) {
            w.key(segs[open.size()]).beginObject();
            open.push_back(segs[open.size()]);
        }
        writeLeaf(w.key(segs.back()), metric);
    }
    for (; !open.empty(); open.pop_back())
        w.end();
    w.end();
    return w.take() + '\n';
}

} // namespace anton2
