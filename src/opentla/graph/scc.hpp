// opentla/graph/scc.hpp
//
// Strongly connected components (iterative Tarjan) over filtered subgraphs
// of a StateGraph. The fair-cycle search repeatedly recomputes SCCs of
// shrinking subgraphs, so the interface takes node and edge filters rather
// than materializing subgraphs.

#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "opentla/graph/state_graph.hpp"

namespace opentla {

/// Filters; a null function means "allow everything".
struct SubgraphFilter {
  std::function<bool(StateId)> node_ok;
  std::function<bool(StateId, StateId)> edge_ok;

  bool node(StateId s) const { return !node_ok || node_ok(s); }
  bool edge(StateId s, StateId t) const { return !edge_ok || edge_ok(s, t); }
};

/// SCCs of the subgraph of `g` induced by `filter`, restricted to nodes
/// reachable from `roots` (roots failing the node filter are skipped).
/// Components are returned in reverse topological order (Tarjan order).
/// Trivial components (single node without an allowed self-loop) are
/// included; callers that need cycles must check nontriviality.
std::vector<std::vector<StateId>> strongly_connected_components(
    const StateGraph& g, const std::vector<StateId>& roots, const SubgraphFilter& filter);

/// Tarjan's per-state arrays, kept across calls. A call resets only the
/// entries it visited, so repeated decompositions of small regions of one
/// graph cost O(region), not O(states) each.
struct SccWorkspace {
  std::vector<std::uint32_t> index;
  std::vector<std::uint32_t> lowlink;
  std::vector<char> on_stack;
};

/// The same decomposition, reusing `ws` (sized to `g` on first use).
std::vector<std::vector<StateId>> strongly_connected_components(
    const StateGraph& g, const std::vector<StateId>& roots, const SubgraphFilter& filter,
    SccWorkspace& ws);

/// True iff the component (a set of nodes of `g`) contains at least one
/// allowed edge between its members — i.e. can host an infinite run.
bool component_has_cycle(const StateGraph& g, const std::vector<StateId>& component,
                         const SubgraphFilter& filter);

}  // namespace opentla
