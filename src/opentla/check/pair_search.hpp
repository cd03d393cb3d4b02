// opentla/check/pair_search.hpp
//
// The one pair search behind the safety checks on explored graphs: the
// targets of the A/G product inclusions (check/inclusion) and
// orthogonality (check/orthogonality). It walks the product of a
// StateGraph with one safety machine breadth first, pairs (graph state,
// machine configuration) interned into a fingerprinting StateStore, and
// stops at the first pair whose configuration is dead. Pairs are numbered
// in discovery order, so the pair ids are the BFS queue and the returned
// trace is as short as any path to a dead configuration.

#pragma once

#include <cstddef>
#include <vector>

#include "opentla/automata/prefix_machine.hpp"
#include "opentla/graph/state_graph.hpp"
#include "opentla/run/budget.hpp"

namespace opentla {

struct PairSearchResult {
  /// True iff no reachable pair has a dead configuration, over the whole
  /// graph. A partial search that found none (stop_reason other than
  /// kCompleted, empty counterexample) neither holds nor refutes.
  bool holds = false;
  /// On failure: the states (graph.state) of a shortest path
  /// from an initial state to the state at which the machine died.
  std::vector<State> counterexample;
  std::size_t pairs_visited = 0;
  /// kCompleted = the whole graph was searched. Otherwise the graph was
  /// partial or the budget stopped the search; a counterexample found
  /// before that is still a real one.
  run::StopReason stop_reason = run::StopReason::kCompleted;

  explicit operator bool() const { return holds; }
};

/// Searches graph x machine for a dead configuration. The machine reads
/// graph.state(s), the state of graph.vars() (a product graph's trailing
/// configuration slots are not part of it). `budget` (optional, not owned)
/// is polled once per pair expansion.
PairSearchResult find_dead_pair(const StateGraph& graph, const SafetyMachine& machine,
                                run::RunBudget* budget = nullptr);

}  // namespace opentla
