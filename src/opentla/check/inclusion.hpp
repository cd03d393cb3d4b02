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
// R holds iff its machine stays alive along every reachable product path.

#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "opentla/automata/prefix_machine.hpp"
#include "opentla/graph/successor.hpp"
#include "opentla/run/budget.hpp"
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

/// Explores the product of the left-hand-side machines once; targets are
/// then checked against the reified product graph.
class ConstraintExplorer {
 public:
  /// `init_enum` enumerates candidate initial states of the universe
  /// (typically the conjunction of all components' Init predicates, with
  /// hidden variables included; their values are normalized away and
  /// re-derived by the machines).
  /// Reaching `max_nodes`, or a breach of `budget` (optional, not owned),
  /// stops the product exploration gracefully; stop_reason() reports why
  /// and check_target verdicts on the partial product are marked partial.
  ConstraintExplorer(const VarTable& vars,
                     std::vector<std::shared_ptr<const SafetyMachine>> constraints,
                     std::vector<Mover> movers, Expr init_enum, std::vector<VarId> normalize,
                     std::size_t max_nodes = 1'000'000, run::RunBudget* budget = nullptr);

  std::size_t num_nodes() const { return nodes_.size(); }
  std::size_t num_edges() const { return num_edges_; }
  const VarTable& vars() const { return *vars_; }
  /// Why product exploration ended (kCompleted = full product built).
  run::StopReason stop_reason() const { return stop_reason_; }

  /// Checks |= LHS => target. On failure the verdict carries a finite trace
  /// of visible states after which the target's prefix machine is dead.
  struct Verdict {
    std::string target_name;
    bool holds = false;
    std::vector<State> counterexample;
    std::size_t pairs_visited = 0;
    /// kCompleted = definitive. Otherwise the product or the pair BFS was
    /// cut short by a budget: a counterexample is still a real refutation
    /// (the partial product only contains reachable nodes), but `holds`
    /// merely means "no violation found within the budget".
    run::StopReason stop_reason = run::StopReason::kCompleted;

    explicit operator bool() const { return holds; }
  };
  Verdict check_target(const SafetyMachine& target) const;

 private:
  struct Node {
    StateId state;
    Value configs;
    std::uint32_t parent;  // UINT32_MAX for initial nodes
  };

  std::vector<State> trace_to(std::uint32_t node) const;

  const VarTable* vars_;
  std::vector<std::shared_ptr<const SafetyMachine>> constraints_;
  std::vector<Mover> movers_;
  std::vector<VarId> normalize_;
  StateStore visible_;
  std::vector<Node> nodes_;
  std::vector<std::vector<std::uint32_t>> adjacency_;
  std::vector<std::uint32_t> init_nodes_;
  std::size_t num_edges_ = 0;
  run::RunBudget* budget_ = nullptr;
  run::StopReason stop_reason_ = run::StopReason::kCompleted;
};

}  // namespace opentla
