/**
 * @file
 * Deadlock verification: explicit VC dependency-graph construction and
 * cycle detection (Section 2.5).
 *
 * Two checkers are provided:
 *
 *  - checkTorusLevel(): dimension-generic. Resources are (node, dim, dir,
 *    VC) torus-channel VCs plus one contracted M-group resource per
 *    (node, VC) for intermediate turns; the contraction assumes any-to-any
 *    turning inside a node, which over-approximates the on-chip
 *    connectivity, so acyclicity here is a strictly stronger statement
 *    than needed. Injection holds no network resource and ejection is a
 *    sink (endpoint adapters always drain), per the standard consumption
 *    assumption. Routes are enumerated exhaustively: all (src, dst) pairs
 *    x all dimension orders x all minimal direction tie-breaks.
 *
 *  - checkChipLevel(): exact for the 3-D machine. Resources are
 *    (node, on-chip channel, VC) using the real ChipLayout channels (mesh,
 *    skip, adapter links) plus torus-link VCs, with routes traced through
 *    ChipLayout::route() exactly as the cycle simulator routes them. Each
 *    route is the PacketRoute a packet carries, advanced hop by hop as
 *    Chip::ingressAt advances it, so the proof covers the rule the
 *    simulator runs.
 *
 * Both return the cycle (as resource names) when one exists, so the
 * NoDateline negative control produces a readable counterexample.
 */
#pragma once

#include <string>
#include <vector>

#include "core/chip_layout.hpp"
#include "routing/vc_promotion.hpp"
#include "topo/torus.hpp"

namespace anton2 {

struct DeadlockReport
{
    bool acyclic = true;
    std::size_t resources = 0;
    std::size_t edges = 0;
    std::vector<std::string> cycle; ///< resource names when !acyclic
    /** Full dependency edges (named), filled only when the checker was
     * asked to capture them - the input to deadlockDot(). */
    std::vector<std::pair<std::string, std::string>> graph_edges;
};

/**
 * Torus-level check for an n-dimensional torus under @p policy.
 * @param capture_graph record every named dependency edge in
 *        DeadlockReport::graph_edges (costs memory; off by default).
 */
DeadlockReport checkTorusLevel(const TorusGeom &geom, VcPolicy policy,
                               bool capture_graph = false);

/**
 * Chip-level check for a 3-D machine: exact on-chip channels with
 * endpoint adapters sampled from @p sample_endpoints (all routes between
 * each pair of sampled endpoints on every node pair are traced).
 * @throws std::invalid_argument unless @p geom has three dimensions.
 */
DeadlockReport checkChipLevel(const TorusGeom &geom,
                              const ChipLayout &layout, VcPolicy policy,
                              const MeshDirOrder &order,
                              const std::vector<int> &sample_endpoints,
                              bool capture_graph = false);

/**
 * Render a captured dependency graph as deterministic Graphviz DOT with
 * the detected cycle (if any) highlighted. Node names match the runtime
 * auditor's waits-for snapshots (debug/snapshot), so the two DOT files
 * diff cleanly for the same configuration.
 */
std::string deadlockDot(const DeadlockReport &report);

} // namespace anton2
