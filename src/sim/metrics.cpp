#include "sim/metrics.hpp"

#include <cmath>
#include <cstdio>
#include <stdexcept>
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

std::string
jsonNumber(double x)
{
    if (!std::isfinite(x))
        return "null";
    char buf[40];
    if (x == std::floor(x) && std::fabs(x) < 9.007199254740992e15) {
        std::snprintf(buf, sizeof(buf), "%.0f", x);
    } else {
        std::snprintf(buf, sizeof(buf), "%.17g", x);
    }
    return buf;
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

std::string
jsonString(const std::string &s)
{
    return "\"" + jsonEscape(s) + "\"";
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
emitIndent(std::string &out, int indent, int depth)
{
    out.append(static_cast<std::size_t>(indent * depth), ' ');
}

void
emitScalarStat(std::string &out, const ScalarStat &s)
{
    out += "{\"count\": " + std::to_string(s.count());
    out += ", \"sum\": " + jsonNumber(s.sum());
    out += ", \"mean\": " + jsonNumber(s.mean());
    out += ", \"min\": " + jsonNumber(s.min());
    out += ", \"max\": " + jsonNumber(s.max());
    out += ", \"stddev\": " + jsonNumber(s.stddev());
    out += "}";
}

void
emitHistogram(std::string &out, const Histogram &h)
{
    out += "{\"bin_width\": " + jsonNumber(h.binWidth());
    out += ", \"count\": " + std::to_string(h.stat().count());
    out += ", \"mean\": " + jsonNumber(h.stat().mean());
    out += ", \"min\": " + jsonNumber(h.stat().min());
    out += ", \"max\": " + jsonNumber(h.stat().max());
    out += ", \"p50\": " + jsonNumber(h.quantile(0.50));
    out += ", \"p90\": " + jsonNumber(h.quantile(0.90));
    out += ", \"p99\": " + jsonNumber(h.quantile(0.99));
    out += ", \"counts\": [";
    for (std::size_t i = 0; i < h.counts().size(); ++i) {
        if (i != 0)
            out += ", ";
        out += std::to_string(h.counts()[i]);
    }
    out += "]}";
}

void
emitNode(std::string &out, const Node &node, int indent, int depth)
{
    if (node.leaf != nullptr) {
        if (const auto *c = std::get_if<Counter>(node.leaf))
            out += std::to_string(c->value());
        else if (const auto *s = std::get_if<ScalarStat>(node.leaf))
            emitScalarStat(out, *s);
        else if (const auto *h = std::get_if<Histogram>(node.leaf))
            emitHistogram(out, *h);
        else
            out += jsonNumber(std::get<double>(*node.leaf));
        return;
    }
    out += "{\n";
    bool first = true;
    for (const auto &[key, child] : node.children) {
        if (!first)
            out += ",\n";
        first = false;
        emitIndent(out, indent, depth + 1);
        out += "\"" + jsonEscape(key) + "\": ";
        emitNode(out, child, indent, depth + 1);
    }
    out += "\n";
    emitIndent(out, indent, depth);
    out += "}";
}

} // namespace

std::string
MetricsRegistry::toJson(int indent) const
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
    std::string out;
    emitNode(out, root, indent, 0);
    out += "\n";
    return out;
}

} // namespace anton2
