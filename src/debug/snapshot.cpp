/**
 * @file
 * Snapshot analysis and serialization (see snapshot.hpp).
 */
#include "debug/snapshot.hpp"

#include <map>
#include <set>
#include <sstream>

#include "sim/json.hpp"

namespace anton2 {

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
    JsonWriter w;
    w.beginObject()
        .key("cycle").number(snap.now)
        .key("reason").string(snap.reason)
        .key("verdict").string(snap.verdict)
        .key("injected").number(snap.injected)
        .key("delivered").number(snap.delivered)
        .key("oldest_age").number(snap.oldest_age)
        .key("ejection_stall").number(snap.ejection_stall)
        .key("buffers").beginArray();
    for (const auto &b : snap.buffers) {
        w.beginObject(JsonWriter::Inline)
            .key("resource").string(b.resource)
            .key("occupancy").integer(b.occupancy)
            .key("capacity").integer(b.capacity)
            .key("packets").integer(b.packets).end();
    }
    w.end().key("credits").beginArray();
    for (const auto &c : snap.credits) {
        w.beginObject(JsonWriter::Inline)
            .key("resource").string(c.resource)
            .key("available").integer(c.available)
            .key("depth").integer(c.depth).end();
    }
    w.end().key("packets").beginArray();
    for (const auto &p : snap.packets) {
        w.beginObject(JsonWriter::Inline)
            .key("id").integer(p.id).key("age").number(p.age)
            .key("position").string(p.position)
            .key("src").string(p.src).key("dst").string(p.dst)
            .key("size_flits").integer(p.size_flits)
            .key("flits_here").integer(p.flits_here)
            .key("hops").integer(p.hops)
            .key("dims_completed").integer(p.dims_completed)
            .key("crossed_dateline").boolean(p.crossed_dateline)
            .key("tc").integer(p.traffic_class).end();
    }
    w.end().key("waits_for").beginArray();
    for (const auto &e : snap.waits_for) {
        w.beginObject(JsonWriter::Inline)
            .key("holds").string(e.holds).key("wants").string(e.wants)
            .key("packet").integer(e.packet_id)
            .key("age").number(e.age).end();
    }
    w.end();
    for (const auto &[key, names] :
         { std::pair{ "deadlock_cycle", &snap.cycle },
           std::pair{ "culprits", &snap.culprits } }) {
        w.key(key).beginArray(JsonWriter::Inline);
        for (const std::string &name : *names)
            w.string(name);
        w.end();
    }
    return w.end().take() + '\n';
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
