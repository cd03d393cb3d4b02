// opentla/graph/fair_cycle.hpp
//
// Fair-cycle (emptiness) search. Finds a reachable cycle satisfying a set
// of generalized-Buechi obligations ("visit this state set or take this
// step set infinitely often") and Streett obligations ("if these trigger
// states are visited infinitely often, these steps must be taken
// infinitely often"), within a filtered subgraph.
//
// The two obligation shapes are exactly what TLA fairness compiles to on a
// lasso (see check/liveness):
//   WF_v(A) holds on a cycle  iff  the cycle takes an <A>_v step or visits
//                                  a state where <A>_v is disabled
//                                  (a Buechi obligation);
//   SF_v(A) holds on a cycle  iff  it takes an <A>_v step or visits no
//                                  state where <A>_v is enabled
//                                  (a Streett obligation).
//
// The Streett pairs are handled by the classical SCC-refinement algorithm:
// an SCC that contains trigger states but no discharging edge cannot host
// a fair cycle through those triggers, so the triggers are removed and the
// remainder re-decomposed.

#pragma once

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "opentla/graph/scc.hpp"
#include "opentla/graph/state_graph.hpp"

namespace opentla {

struct BuchiObligation {
  std::function<bool(StateId)> state_ok;            // may be null
  std::function<bool(StateId, StateId)> step_ok;    // may be null
  std::string label;
};

struct StreettObligation {
  std::function<bool(StateId)> trigger;
  std::function<bool(StateId, StateId)> step_ok;
  std::string label;
};

/// A reachable ultimately-periodic run: prefix from an initial state to the
/// cycle's anchor (prefix.back() == cycle.front()), then the cycle nodes in
/// order (the closing edge cycle.back() -> cycle.front() is implicit).
/// A one-node cycle denotes the self-loop on that node.
struct Lasso {
  std::vector<StateId> prefix;
  std::vector<StateId> cycle;
};

struct FairCycleQuery {
  SubgraphFilter filter;
  std::vector<BuchiObligation> buchi;
  std::vector<StreettObligation> streett;
};

/// Searches for a reachable fair cycle; nullopt when none exists (the
/// verified outcome for liveness proofs).
std::optional<Lasso> find_fair_cycle(const StateGraph& g, const FairCycleQuery& q);

/// Fair-cycle tests on the components of one query's subgraph. Used by
/// leads-to and machine-closure checking to find every fairness-supporting
/// SCC. One membership buffer, one BFS parent buffer and one Tarjan
/// workspace serve every component tested (marked on entry, cleared on
/// exit), so testing all SCCs of a graph costs O(states + edges) rather
/// than O(states) per component. A witness cycle uses only edges the
/// query's filter allows. Holds references to `g` and `q`, which must
/// outlive it.
class FairCycleSearch {
 public:
  FairCycleSearch(const StateGraph& g, const FairCycleQuery& q);
  FairCycleSearch(const FairCycleSearch&) = delete;  // region_ captures `this`
  FairCycleSearch& operator=(const FairCycleSearch&) = delete;

  /// Tests whether `component` (an SCC of the query's filtered subgraph)
  /// hosts a cycle satisfying all obligations; fills `cycle` on success.
  /// Recurses into sub-components after Streett trigger removal.
  bool component_hosts_fair_cycle(const std::vector<StateId>& component,
                                  std::vector<StateId>& cycle);

 private:
  /// One component's test with `comp` marked. nullopt: a Streett pair's
  /// triggers must go, and the non-empty `remaining` is to be re-decomposed.
  std::optional<bool> check_marked(const std::vector<StateId>& comp,
                                   std::vector<StateId>& cycle_out,
                                   std::vector<StateId>& remaining);

  /// Shortest path from `from` to `to` (both ends included) inside the
  /// marked component, over edges the query's filter allows; empty if none.
  std::vector<StateId> path_in_component(StateId from, StateId to);

  const StateGraph& g_;
  const FairCycleQuery& q_;
  std::vector<char> member_;      // by StateId; all zero between calls
  std::vector<StateId> parent_;   // by StateId; kNone between calls
  SccWorkspace scc_;              // for re-decomposition after Streett pruning
  SubgraphFilter region_;         // the query's filter, restricted to members
};

}  // namespace opentla
