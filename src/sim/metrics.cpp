#include "sim/metrics.hpp"

#include <stdexcept>

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
 * A leaf path must not also name an interior node: "a.b" conflicts with
 * both "a" and "a.b.c". Checked against the sorted map's neighborhood of
 * the insertion point, so registration stays O(log n).
 */
template <typename MetricMap>
void
checkPathNesting(const MetricMap &map, const std::string &path)
{
    if (path.empty())
        throw std::invalid_argument("empty metric path");
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
        checkPathNesting(map, path);
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

/** Intermediate tree node for hierarchical serialization. */
struct Node
{
    const std::variant<Counter, ScalarStat, Histogram, double> *leaf =
        nullptr;
    std::map<std::string, Node> children;
};

void
writeNode(JsonWriter &w, const Node &node)
{
    if (node.leaf == nullptr) {
        w.beginObject();
        for (const auto &[key, child] : node.children)
            writeNode(w.key(key), child);
        w.end();
    } else if (const auto *c = std::get_if<Counter>(node.leaf)) {
        w.integer(c->value());
    } else if (const auto *s = std::get_if<ScalarStat>(node.leaf)) {
        w.beginObject(JsonWriter::Inline)
            .key("count").integer(s->count()).key("sum").number(s->sum())
            .key("mean").number(s->mean())
            .key("min").number(s->min()).key("max").number(s->max())
            .key("stddev").number(s->stddev()).end();
    } else if (const auto *h = std::get_if<Histogram>(node.leaf)) {
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
        w.number(std::get<double>(*node.leaf));
    }
}

} // namespace

std::string
MetricsRegistry::toJson() const
{
    Node root;
    for (const auto &[path, metric] : metrics_) {
        // Machine level records per-chip aggregates (for shard safety)
        // but exports only the machine-wide view.
        if (level_ == MetricsLevel::Machine
            && path.compare(0, 5, "chip.") == 0)
            continue;
        Node *node = &root;
        std::size_t start = 0;
        while (true) {
            const auto dot = path.find('.', start);
            const std::string seg =
                path.substr(start, dot == std::string::npos
                                       ? std::string::npos
                                       : dot - start);
            node = &node->children[seg];
            if (dot == std::string::npos)
                break;
            start = dot + 1;
        }
        node->leaf = &metric;
    }
    JsonWriter w;
    writeNode(w, root);
    return w.take() + '\n';
}

} // namespace anton2
