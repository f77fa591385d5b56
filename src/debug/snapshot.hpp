/**
 * @file
 * Forensic machine-state snapshots: a flattened, deterministic picture of
 * every buffered packet, credit counter, and blocked-head dependency in the
 * machine at one cycle, plus the analyses (waits-for cycle detection) and
 * serializers (JSON, Graphviz DOT) that turn it into a debugging artifact.
 *
 * The data model is deliberately plain - strings and integers only - so it
 * has no dependency on the NoC component classes. Machine code fills it in
 * (core/machine_audit.cpp); the runtime auditor (sim/audit.hpp) triggers
 * collection; tools and tests consume the serialized forms.
 *
 * Resource names follow the static deadlock checker's chip-level scheme
 * (`chip(n0,k0,r1->2,a-1,v3)`, `link(n3,X+,v1)`, see analysis/deadlock),
 * so a runtime waits-for DOT diffs cleanly against the static dependency
 * graph of the same configuration.
 */
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "sim/types.hpp"

namespace anton2 {

/** One buffered residency of an in-flight packet (a packet cutting through
 * may appear once per buffer it currently occupies). */
struct SnapshotPacket
{
    std::uint64_t id = 0;
    Cycle age = 0;             ///< cycles since injection accepted
    std::string position;      ///< resource name of the holding buffer
    std::string src;           ///< "n<node>.e<endpoint>"
    std::string dst;
    int size_flits = 0;
    int flits_here = 0;        ///< flits resident in this buffer
    int hops = 0;              ///< torus hops taken so far (route-so-far)
    int dims_completed = 0;    ///< VC-promotion state
    bool crossed_dateline = false;
    int traffic_class = 0;
};

/** Occupancy of one per-VC buffer (only non-empty buffers are recorded). */
struct SnapshotBuffer
{
    std::string resource;
    int occupancy = 0; ///< flits
    int capacity = 0;  ///< flits
    int packets = 0;
};

/** State of one credit counter VC (only counters below full are recorded;
 * the resource names the downstream buffer the credits meter). */
struct SnapshotCredit
{
    std::string resource;
    int available = 0;
    int depth = 0;
};

/** A blocked head flit: the packet holding @p holds cannot advance because
 * it lacks credits for @p wants. */
struct WaitsForEdge
{
    std::string holds;
    std::string wants;
    std::uint64_t packet_id = 0;
    Cycle age = 0;
};

/** Full machine state at one cycle, ready for serialization. */
struct MachineSnapshot
{
    Cycle now = 0;
    std::string reason;           ///< "watchdog", "on_demand", ...
    std::string verdict = "none"; ///< "deadlock", "livelock", or "none"
    std::uint64_t injected = 0;   ///< packets accepted into the network
    std::uint64_t delivered = 0;
    Cycle oldest_age = 0;     ///< oldest in-flight packet age (watermark)
    Cycle ejection_stall = 0; ///< cycles since the last delivery

    std::vector<SnapshotBuffer> buffers;
    std::vector<SnapshotCredit> credits;
    std::vector<SnapshotPacket> packets;
    std::vector<WaitsForEdge> waits_for;

    std::vector<std::string> cycle;    ///< waits-for cycle, if one exists
    std::vector<std::string> culprits; ///< blamed resources (see analyze)
};

/**
 * Run cycle detection over @p snap.waits_for. If a cycle exists, fills
 * `snap.cycle`, sets verdict to "deadlock", and blames the cycle's
 * resources. Otherwise the verdict is left untouched (the watchdog
 * downgrades a trip without a cycle to "livelock") and the culprits are
 * the terminal wanted resources - wanted by some blocked head but not
 * themselves waiting on anything, e.g. a link whose credits were lost.
 */
void analyzeWaitsFor(MachineSnapshot &snap);

/** Deterministic JSON serialization (stable field and row order). */
std::string snapshotJson(const MachineSnapshot &snap);

/** Graphviz DOT of the waits-for graph; cycle/culprit nodes highlighted. */
std::string waitsForDot(const MachineSnapshot &snap);

// --- shared deterministic DOT rendering --------------------------------

/** A directed graph prepared for DOT rendering: edges in emission order,
 * optional per-edge labels, and a set of nodes to highlight. */
struct DotGraph
{
    std::string title = "g";
    std::vector<std::pair<std::string, std::string>> edges;
    std::vector<std::string> edge_labels; ///< empty, or parallel to edges
    std::vector<std::string> highlight;   ///< node names drawn in red
};

/** Render @p g as deterministic DOT text (used by the runtime waits-for
 * export and the static checker's deadlockDot, so both diff cleanly). */
std::string renderDot(const DotGraph &g);

/**
 * A cycle of the directed graph @p adj (successors of each node), found
 * by an iterative three-colour DFS with roots in index order and edges
 * in list order, so the result is a pure function of @p adj. Returns
 * the cycle in traversal order, from the node the closing back edge
 * points at; empty if the graph is acyclic. Shared by the waits-for
 * analysis and the static deadlock checker.
 */
std::vector<int> findCycle(const std::vector<std::vector<int>> &adj);

// --- resource naming (mirrors analysis/deadlock) -----------------------

/** On-chip buffer resource: `chip(n<node>,k<kind>,r<from>-><to>,a<ad>,
 * v<vc>[r])`; @p reply marks the reply traffic class. */
std::string chipResName(std::int64_t node, int kind, int from_router,
                        int to_router, int adapter, int vc, bool reply);

/** Torus link resource: `link(n<sender>,<Dim><dir>[,s<slice>],v<vc>[r])`.
 * Slice 0 is omitted to match the static checker's single-slice names. */
std::string linkResName(std::int64_t node, char dim_name, const char *dir,
                        int slice, int vc, bool reply);

} // namespace anton2
