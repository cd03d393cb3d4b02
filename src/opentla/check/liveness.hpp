// opentla/check/liveness.hpp
//
// Compiles TLA fairness conditions into fair-cycle obligations over a
// StateGraph (see graph/fair_cycle.hpp for the lasso characterizations).
// Two directions are needed:
//
//   - as *constraints* on the searched behavior (the fairness of the
//     low-level system, which a counterexample must satisfy):
//       WF_v(A)  ->  Buechi  (visit a step of <A>_v or a state where
//                             <A>_v is disabled, infinitely often)
//       SF_v(A)  ->  Streett (if <A>_v-enabled states are visited
//                             infinitely often, take <A>_v steps
//                             infinitely often)
//
//   - as the *negated goal* (the high-level fairness a counterexample must
//     violate), exposed as a subgraph restriction plus extra obligations:
//       ~WF_v(A): only states where <A>_v is enabled, no <A>_v steps
//       ~SF_v(A): no <A>_v steps, and <A>_v-enabled states visited
//                 infinitely often (a Buechi obligation)
//
// ENABLED is cached per state and <A>_v per edge (by the graph's dense edge
// ids), which is what makes repeated fair-cycle queries affordable. The
// first query on any out-edge of s labels all of s's out-edges at once:
// s is decoded once and each target once, and one EvalContext is reused.

#pragma once

#include <memory>
#include <vector>

#include "opentla/expr/eval.hpp"
#include "opentla/graph/fair_cycle.hpp"
#include "opentla/graph/successor.hpp"
#include "opentla/graph/state_graph.hpp"
#include "opentla/tla/spec.hpp"

namespace opentla {

/// Leads-to checking: P ~> Q ("every P state is eventually followed by a
/// Q state") over the fair behaviors of an explored graph. A violation is
/// a reachable state satisfying P /\ ~Q from which a fair behavior avoids
/// Q forever — i.e. a Q-free path into a Q-free fair cycle.
struct LeadsToResult {
  bool holds = false;
  std::vector<State> counterexample_prefix;  // init ... P-state ... cycle entry
  std::vector<State> counterexample_cycle;   // the Q-free fair cycle
  explicit operator bool() const { return holds; }
};

LeadsToResult check_leads_to(const StateGraph& graph, const std::vector<Fairness>& fairness,
                             const Expr& p, const Expr& q);

/// Labels every out-edge s -> t of `graph` with whether <state_of(s),
/// state_of(t)> is an `act` step over `vars`: labels[edge id] = 1 or 0.
/// state_of(s) is fetched once and each target once, and one EvalContext
/// serves every edge. `state_of` gives the state an id stands for: the
/// graph's decoded state, or a refinement-mapped one.
template <typename StateOf>
void label_out_edges(const StateGraph& graph, const VarTable& vars, const Expr& act, StateId s,
                     const StateOf& state_of, std::vector<signed char>& labels) {
  decltype(auto) cur = state_of(s);
  EvalContext ctx;
  ctx.vars = &vars;
  ctx.current = &cur;
  std::uint64_t e = graph.edge_begin(s);
  for (StateId t : graph.successors(s)) {
    if (t == s) {
      ctx.next = &cur;
      labels[e++] = eval_bool(act, ctx) ? 1 : 0;
      continue;
    }
    decltype(auto) next = state_of(t);
    ctx.next = &next;
    labels[e++] = eval_bool(act, ctx) ? 1 : 0;
  }
}

/// Compiles fairness conditions over a fixed graph, caching per-state
/// ENABLED evaluations. The compiler must outlive the obligations and
/// filters it hands out (they capture references to its caches).
class FairnessCompiler {
 public:
  explicit FairnessCompiler(const StateGraph& graph) : graph_(&graph) {}

  /// The fairness condition as a constraint on the searched behavior.
  BuchiObligation constraint_wf(const Fairness& f);
  StreettObligation constraint_sf(const Fairness& f);
  /// Adds `fs` as constraints to `query` (dispatching on kind).
  void add_constraints(const std::vector<Fairness>& fs, FairCycleQuery& query);

  /// The negation of the fairness condition as a restriction of `query`:
  /// conjoins subgraph filters (and, for SF, a Buechi obligation) so that
  /// any fair cycle found violates `f`.
  void restrict_to_violation(const Fairness& f, FairCycleQuery& query);

 private:
  // One cached evaluation unit: <A>_v on edges, ENABLED <A>_v on states.
  // The action is decomposed once (ActionSuccessors) so the per-state
  // ENABLED checks do not re-analyze it.
  struct Compiled {
    Expr act;  // <A>_v = A /\ (v' # v)
    std::shared_ptr<ActionSuccessors> gen;
    std::vector<signed char> enabled_cache;  // by StateId: -1 unknown, else 0/1
    std::vector<signed char> step_label;     // by edge id: -1 unknown, else 0/1
    const StateGraph* graph;
    bool enabled(StateId s);
    /// <A>_v on the edge s -> t; throws std::logic_error on a non-edge.
    bool step(StateId s, StateId t);
  };
  std::shared_ptr<Compiled> compile(const Fairness& f);

  const StateGraph* graph_;
  std::vector<std::shared_ptr<Compiled>> units_;  // keep caches alive
};

}  // namespace opentla
