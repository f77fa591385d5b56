/**
 * @file
 * Snapshot analysis and serialization (see snapshot.hpp).
 */
#include "debug/snapshot.hpp"

#include <map>
#include <set>
#include <sstream>

#include "sim/metrics.hpp" // jsonNumber / jsonString

namespace anton2 {

namespace {

std::string
jsonInt(std::uint64_t v)
{
    return jsonNumber(static_cast<double>(v));
}

} // namespace

std::vector<int>
findCycle(const std::vector<std::vector<int>> &adj)
{
    enum : char { White, Grey, Black };
    std::vector<char> color(adj.size(), White);
    // The DFS path: each node with the index of its next edge to try.
    // Exactly the grey nodes are on it.
    std::vector<std::pair<int, std::size_t>> path;
    for (std::size_t root = 0; root < adj.size(); ++root) {
        if (color[root] != White)
            continue;
        path.emplace_back(static_cast<int>(root), 0);
        color[root] = Grey;
        while (!path.empty()) {
            auto &[u, next] = path.back();
            const auto &out = adj[static_cast<std::size_t>(u)];
            if (next == out.size()) {
                color[static_cast<std::size_t>(u)] = Black;
                path.pop_back();
                continue;
            }
            const int v = out[next++];
            if (color[static_cast<std::size_t>(v)] == Grey) {
                // Back edge u -> v: the path from v to u is the cycle.
                std::vector<int> cycle;
                auto it = path.begin();
                while (it->first != v)
                    ++it;
                for (; it != path.end(); ++it)
                    cycle.push_back(it->first);
                return cycle;
            }
            if (color[static_cast<std::size_t>(v)] == White) {
                color[static_cast<std::size_t>(v)] = Grey;
                path.emplace_back(v, 0);
            }
        }
    }
    return {};
}

void
analyzeWaitsFor(MachineSnapshot &snap)
{
    // Resources are nodes in first-appearance order over the edge list,
    // so the cycle is a pure function of the snapshot contents.
    std::vector<std::string> names;
    std::map<std::string, int> index;
    auto intern = [&](const std::string &n) {
        auto [it, fresh] =
            index.try_emplace(n, static_cast<int>(names.size()));
        if (fresh)
            names.push_back(n);
        return it->second;
    };
    std::vector<std::vector<int>> adj;
    for (const auto &e : snap.waits_for) {
        const int a = intern(e.holds);
        const int b = intern(e.wants);
        adj.resize(names.size());
        adj[static_cast<std::size_t>(a)].push_back(b);
    }
    snap.cycle.clear();
    for (int n : findCycle(adj))
        snap.cycle.push_back(names[static_cast<std::size_t>(n)]);
    snap.culprits.clear();
    if (!snap.cycle.empty()) {
        snap.verdict = "deadlock";
        snap.culprits = snap.cycle;
        return;
    }
    // No cycle: blame the terminal wanted resources - a blocked head wants
    // them but nothing holding them is itself waiting, so the credits have
    // left the flow-control loop (lost, withheld, or an external sink).
    std::set<std::string> holds;
    for (const auto &e : snap.waits_for)
        holds.insert(e.holds);
    std::set<std::string> terminal;
    for (const auto &e : snap.waits_for) {
        if (holds.find(e.wants) == holds.end())
            terminal.insert(e.wants);
    }
    snap.culprits.assign(terminal.begin(), terminal.end());
}

std::string
snapshotJson(const MachineSnapshot &snap)
{
    std::ostringstream os;
    os << "{\n";
    os << "  \"cycle\": " << jsonInt(snap.now) << ",\n";
    os << "  \"reason\": " << jsonString(snap.reason) << ",\n";
    os << "  \"verdict\": " << jsonString(snap.verdict) << ",\n";
    os << "  \"injected\": " << jsonInt(snap.injected) << ",\n";
    os << "  \"delivered\": " << jsonInt(snap.delivered) << ",\n";
    os << "  \"oldest_age\": " << jsonInt(snap.oldest_age) << ",\n";
    os << "  \"ejection_stall\": " << jsonInt(snap.ejection_stall) << ",\n";

    os << "  \"buffers\": [";
    for (std::size_t i = 0; i < snap.buffers.size(); ++i) {
        const auto &b = snap.buffers[i];
        os << (i ? ",\n    " : "\n    ") << "{\"resource\": "
           << jsonString(b.resource) << ", \"occupancy\": " << b.occupancy
           << ", \"capacity\": " << b.capacity << ", \"packets\": "
           << b.packets << "}";
    }
    os << (snap.buffers.empty() ? "" : "\n  ") << "],\n";

    os << "  \"credits\": [";
    for (std::size_t i = 0; i < snap.credits.size(); ++i) {
        const auto &c = snap.credits[i];
        os << (i ? ",\n    " : "\n    ") << "{\"resource\": "
           << jsonString(c.resource) << ", \"available\": " << c.available
           << ", \"depth\": " << c.depth << "}";
    }
    os << (snap.credits.empty() ? "" : "\n  ") << "],\n";

    os << "  \"packets\": [";
    for (std::size_t i = 0; i < snap.packets.size(); ++i) {
        const auto &p = snap.packets[i];
        os << (i ? ",\n    " : "\n    ") << "{\"id\": " << p.id
           << ", \"age\": " << jsonInt(p.age) << ", \"position\": "
           << jsonString(p.position) << ", \"src\": " << jsonString(p.src)
           << ", \"dst\": " << jsonString(p.dst) << ", \"size_flits\": "
           << p.size_flits << ", \"flits_here\": " << p.flits_here
           << ", \"hops\": " << p.hops << ", \"dims_completed\": "
           << p.dims_completed << ", \"crossed_dateline\": "
           << (p.crossed_dateline ? "true" : "false") << ", \"tc\": "
           << p.traffic_class << "}";
    }
    os << (snap.packets.empty() ? "" : "\n  ") << "],\n";

    os << "  \"waits_for\": [";
    for (std::size_t i = 0; i < snap.waits_for.size(); ++i) {
        const auto &e = snap.waits_for[i];
        os << (i ? ",\n    " : "\n    ") << "{\"holds\": "
           << jsonString(e.holds) << ", \"wants\": " << jsonString(e.wants)
           << ", \"packet\": " << e.packet_id << ", \"age\": "
           << jsonInt(e.age) << "}";
    }
    os << (snap.waits_for.empty() ? "" : "\n  ") << "],\n";

    auto nameList = [&os](const char *key,
                          const std::vector<std::string> &names,
                          bool last) {
        os << "  \"" << key << "\": [";
        for (std::size_t i = 0; i < names.size(); ++i)
            os << (i ? ", " : "") << jsonString(names[i]);
        os << "]" << (last ? "\n" : ",\n");
    };
    nameList("deadlock_cycle", snap.cycle, false);
    nameList("culprits", snap.culprits, true);
    os << "}\n";
    return os.str();
}

std::string
renderDot(const DotGraph &g)
{
    const std::set<std::string> hot(g.highlight.begin(), g.highlight.end());
    std::ostringstream os;
    os << "digraph " << g.title << " {\n";
    os << "  rankdir=LR;\n";
    os << "  node [shape=box, fontsize=10];\n";
    // Declare nodes in first-appearance order so layout is reproducible.
    std::set<std::string> declared;
    auto declare = [&](const std::string &n) {
        if (!declared.insert(n).second)
            return;
        os << "  \"" << n << "\"";
        if (hot.count(n))
            os << " [color=red, penwidth=2.0, fontcolor=red]";
        os << ";\n";
    };
    for (const auto &[a, b] : g.edges) {
        declare(a);
        declare(b);
    }
    for (std::size_t i = 0; i < g.edges.size(); ++i) {
        const auto &[a, b] = g.edges[i];
        os << "  \"" << a << "\" -> \"" << b << "\"";
        const bool on_cycle = hot.count(a) && hot.count(b);
        const bool labeled =
            i < g.edge_labels.size() && !g.edge_labels[i].empty();
        if (on_cycle || labeled) {
            os << " [";
            if (labeled)
                os << "label=\"" << g.edge_labels[i] << "\""
                   << (on_cycle ? ", " : "");
            if (on_cycle)
                os << "color=red, penwidth=2.0";
            os << "]";
        }
        os << ";\n";
    }
    os << "}\n";
    return os.str();
}

std::string
waitsForDot(const MachineSnapshot &snap)
{
    DotGraph g;
    g.title = "waits_for";
    g.highlight = snap.culprits;
    for (const auto &e : snap.waits_for) {
        g.edges.emplace_back(e.holds, e.wants);
        g.edge_labels.push_back("pkt " + std::to_string(e.packet_id)
                                + " age " + std::to_string(e.age));
    }
    return renderDot(g);
}

std::string
chipResName(std::int64_t node, int kind, int from_router, int to_router,
            int adapter, int vc, bool reply)
{
    std::ostringstream os;
    os << "chip(n" << node << ",k" << kind << ",r" << from_router << "->"
       << to_router << ",a" << adapter << ",v" << vc << (reply ? "r" : "")
       << ")";
    return os.str();
}

std::string
linkResName(std::int64_t node, char dim_name, const char *dir, int slice,
            int vc, bool reply)
{
    std::ostringstream os;
    os << "link(n" << node << "," << dim_name << dir;
    if (slice != 0)
        os << ",s" << slice;
    os << ",v" << vc << (reply ? "r" : "") << ")";
    return os.str();
}

} // namespace anton2
