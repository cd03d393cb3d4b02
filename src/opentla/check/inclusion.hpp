// opentla/check/inclusion.hpp
//
// Safety-inclusion checking: the engine behind the Composition Theorem's
// hypotheses 1 and 2(a), which have the shape
//
//     |= P /\ /\_j Q_j  =>  R
//
// with P, Q_j safety properties (closures, possibly with hidden variables,
// possibly wrapped by the freeze operator) and R a safety property. As the
// paper observes (Section 5), the left-hand side is the specification of a
// *complete system*; we explore that system as a product:
//
//   product node  =  visible state (hidden entries normalized)
//                    x one configuration per left-hand-side machine
//
// Candidate steps come from the union of the components' next-state
// actions ("movers") plus stuttering; every step allowed by the
// conjunction changes some component's subscript variable and is therefore
// an action step of that component, so the union is complete as long as
// every visible variable belongs to some mover's subscript.
//
// The product is a StateGraph built by the one serial BFS, and R holds iff
// its machine stays alive along every reachable product path: the pair
// search of check/pair_search.

#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "opentla/automata/prefix_machine.hpp"
#include "opentla/check/pair_search.hpp"
#include "opentla/graph/successor.hpp"
#include "opentla/state/state.hpp"
#include "opentla/tla/spec.hpp"

namespace opentla {

/// A candidate-step generator for the product exploration.
struct Mover {
  /// Built from a component's next-state action over the full universe.
  std::shared_ptr<ActionSuccessors> generator;
  /// Hidden variables of the owning component, substituted from the
  /// configurations of constraint machine `machine_index` before
  /// generating (-1: generate from the visible state as-is).
  std::vector<VarId> hidden;
  int machine_index = -1;
  std::string label;
};

/// Builds the mover for a canonical spec; `constraint_index` is the
/// position of the spec's machine in the explorer's constraint list (or -1
/// if the spec has no hidden variables). `normalized` lists all variables
/// the exploration normalizes away (so the generator does not enumerate
/// them). The generator walks `spec.next /\ steps`: callers pass the
/// [N]_v of the constraint specs without hidden variables (a machine over
/// such a spec accepts a step exactly when its [N]_v holds), so the mover
/// never generates a candidate those machines would reject.
Mover mover_from_spec(const VarTable& vars, const CanonicalSpec& spec, int constraint_index,
                      const std::vector<VarId>& normalized,
                      const std::vector<Expr>& steps = {});

/// Explores the product of the left-hand-side machines once, as a
/// StateGraph; targets are then checked against that graph.
///
/// A product node is one record in the graph's fingerprint store: the
/// universe values (hidden entries normalized), then one configuration per
/// constraint machine. The successors of a record are the movers'
/// candidates plus the stutter step, each with the configuration tuple
/// stepped; a candidate that kills some constraint machine is dropped, and
/// so is the stutter step that changes no configuration. Records are cut
/// back to the universe width before a mover, machine or trace sees them.
class ConstraintExplorer {
 public:
  /// `init_enum` enumerates candidate initial states of the universe
  /// (typically the conjunction of all components' Init predicates, with
  /// hidden variables included; their values are normalized away and
  /// re-derived by the machines). The product is built by the serial
  /// StateGraph BFS without self-loops (opts.threads and
  /// opts.add_self_loops are ignored). Reaching opts.max_states, or a
  /// breach of opts.budget, stops it gracefully: stop_reason() reports why
  /// and check_target verdicts on the partial product are partial. `vars`
  /// must outlive the explorer (its product graph reads it).
  ConstraintExplorer(const VarTable& vars,
                     const std::vector<std::shared_ptr<const SafetyMachine>>& constraints,
                     const std::vector<Mover>& movers, const Expr& init_enum,
                     const std::vector<VarId>& normalize, const ExploreOptions& opts = {});

  std::size_t num_nodes() const { return graph_->num_states(); }
  std::size_t num_edges() const { return graph_->num_edges(); }
  /// Why product exploration ended (kCompleted = full product built).
  run::StopReason stop_reason() const { return graph_->stop_reason(); }
  /// The product graph over `vars`: each record holds vars.size()
  /// universe values followed by one configuration per constraint machine.
  const StateGraph& graph() const { return *graph_; }

  /// Checks |= LHS => target. On failure the verdict carries a shortest
  /// finite trace of visible states after which the target's machine is
  /// dead. A partial product makes the verdict partial (see
  /// PairSearchResult).
  using Verdict = PairSearchResult;
  Verdict check_target(const SafetyMachine& target) const;

 private:
  run::RunBudget* budget_;
  std::optional<StateGraph> graph_;
};

}  // namespace opentla
