// opentla/graph/successor.hpp
//
// TLC-style successor generation. Given an action A over a finite-domain
// universe, enumerates all states t with A(s, t) for a given s by the lazy
// conjunct walk of opentla/graph/walk.hpp: disjunctions branch wherever
// they are nested, assignments determine most primed variables by
// evaluation, constraints are checked as soon as their variables are
// bound, and only primed variables that nothing on a branch determines
// are enumerated over their domains.
//
// TLA actions have no frame condition: a primed variable that does not
// occur on a branch is unconstrained by it and is enumerated over its
// domain. Successor generation therefore produces exactly the A-successors
// within the declared finite space.

#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include <memory>
#include <string>
#include <unordered_set>

#include "opentla/expr/expr.hpp"
#include "opentla/graph/walk.hpp"
#include "opentla/state/state.hpp"
#include "opentla/state/var_table.hpp"

namespace opentla {

class ActionSuccessors {
 public:
  /// `pinned` variables are never enumerated: if a branch of the action
  /// neither assigns nor constrains one, it keeps its current value instead
  /// of ranging over its domain (the reading of decompose_action on the
  /// action's disjunctive normal form). Callers use this for variables
  /// whose successor values are tracked elsewhere (e.g. other components'
  /// hidden variables in a product exploration). A pinned variable that
  /// occurs primed in a constraint on the branch is still enumerated, so
  /// pinning never loses genuine constraints.
  ActionSuccessors(const VarTable& vars, Expr action, std::vector<VarId> pinned = {});

  const Expr& action() const { return action_; }

  /// Attributes this generator's emissions to `label` in the obs
  /// labeled-counter families: every emitted successor counts toward
  /// ActionFired{action=label} and every run() in which the guards of
  /// some branch held counts toward ActionEnabled{action=label}. Cold path
  /// (interns the label) — call once at construction time.
  void set_label(const std::string& label);

  /// Calls `fn` for every state t with action(s, t), without duplicates.
  void for_each_successor(const State& s, const std::function<void(const State&)>& fn) const;

  /// Calls `fn` for every state t with action(s, t) in the same fixed
  /// order, but may repeat a state (the walk can reach one state on
  /// several branches): for exploration engines, which intern every
  /// emission and dedup by StateId anyway. Repeats count toward the
  /// SuccessorsEnumerated and ActionFired counters.
  void for_each_emission(const State& s, const std::function<void(const State&)>& fn) const;

  /// Convenience: the successor list of s.
  std::vector<State> successors(const State& s) const;

  /// True iff s has at least one successor (= ENABLED action at s).
  bool enabled(const State& s) const;

  /// True iff some branch's guards (the primed-free conjuncts on it) hold
  /// at s. Weaker than enabled(): guards may pass while every completion
  /// fails a constraint or an assignment leaves the declared space.
  /// Coverage reporting uses this to distinguish "the precondition held but
  /// the action could not fire" from "the precondition never held".
  bool guards_enabled(const State& s) const;

  /// Test hook: when set, run() uses the naive oracle instead of the walk:
  /// the action's disjunctive normal form (its top-level disjuncts when the
  /// expansion exceeds to_dnf's cap), each disjunct's unassigned variables
  /// ranged by the flat odometer, and the whole residual tested at every
  /// leaf. The two paths must produce the same successor sets and
  /// enabled()/guards_enabled() verdicts — the differential tests toggle
  /// this to prove it. Global; not for concurrent use with live generators.
  static void set_naive_enumeration_for_test(bool naive);

  /// Enumerates all states satisfying a state predicate, by treating the
  /// primed predicate as an action from an arbitrary base state. Used to
  /// enumerate initial states. `pinned` variables not constrained by the
  /// predicate keep the first value of their domain instead of being
  /// enumerated (for variables whose value the caller normalizes anyway).
  static std::vector<State> states_satisfying(const VarTable& vars, const Expr& predicate,
                                              std::vector<VarId> pinned = {});

 private:
  struct Naive;

  /// `existential_only`: keep every unconstrained variable at its current
  /// value (sufficient for the EXISTENCE of a successor); full generation
  /// enumerates every unpinned one.
  /// `seen` (null: report repeats) filters states already reported.
  bool run(const State& s, bool existential_only, std::unordered_set<State, StateHash>* seen,
           const std::function<bool(const State&)>& fn) const;
  bool run_naive(const State& s, bool existential_only,
                 const std::function<bool(const State&)>& fn) const;
  const Naive& naive() const;

  const VarTable* vars_;
  Expr action_;
  ConjunctWalk walk_;
  std::vector<char> pinned_;  // indexed by VarId
  /// The naive oracle, built on first use by the test hook.
  std::shared_ptr<Naive> naive_;
  /// Obs attribution label (see set_label); 0 = unlabeled.
  std::uint32_t label_ = 0;
  bool has_label_ = false;
};

}  // namespace opentla
