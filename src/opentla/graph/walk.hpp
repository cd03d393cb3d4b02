// opentla/graph/walk.hpp
//
// The lazy conjunct walk: TLC-style successor generation over a per-state
// conjunct list (Yu, Manolios & Lamport, "Model Checking TLA+
// Specifications", 1999). An action is compiled once into a tree of
// conjunct lists; each list holds its
//
//   - guards:       conjuncts without primed variables (state predicates);
//   - assignments:  v' = e and <<v1', ..., vk'>> = <<e1, ..., ek>> with
//                   state-function right-hand sides (UNCHANGED v is v' = v);
//   - constraints:  every other conjunct with a primed variable;
//   - disjunctions: conjuncts of the form A \/ B with a primed variable,
//                   each disjunct compiled into its own conjunct list.
//
// Per state the walk processes a list in that order and branches on every
// disjunction wherever it is nested, depth first, left to right:
//
//   - a guard is evaluated at once; false ends the branch;
//   - an assignment binds its variable if nothing on the branch bound it
//     yet (a value outside the variable's domain ends the branch), and is
//     an equality check otherwise;
//   - a constraint is evaluated as soon as every primed variable it
//     mentions is bound, and waits until then;
//   - a disjunction whose primed variables are all bound is evaluated as a
//     whole instead of being branched on.
//
// At the end of a branch, the primed variables still unbound are ranged
// over their domains: first those the waiting constraints need (ordered so
// each constraint is checked at the shallowest possible depth), then the
// rest, unless the query keeps them at their base value (pinned variables,
// existential queries). Only a variable that nothing on the branch
// determines is ever enumerated.
//
// Every guard, right-hand side and constraint is evaluated by the one
// evaluator (opentla/expr/eval.hpp) in an EvalContext: the walk's own, or
// the caller's when the action may mention bound variables of an enclosing
// quantifier (ENABLED).

#pragma once

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "opentla/expr/eval.hpp"
#include "opentla/expr/expr.hpp"
#include "opentla/state/state.hpp"
#include "opentla/state/var_table.hpp"

namespace opentla {

class ConjunctWalk {
 public:
  /// Compiles `action` into its conjunct lists.
  ConjunctWalk(const VarTable& vars, const Expr& action);

  /// One walk from a state.
  struct Query {
    /// The unprimed state s.
    const State* current = nullptr;
    /// Starting values of the primed variables: the value a variable
    /// keeps when the walk neither binds nor enumerates it. Defaults to s.
    const State* base = nullptr;
    /// Variables bound before the walk starts, to their `base` value (a
    /// given successor's visible part). Empty: none.
    const std::vector<char>* prebound = nullptr;
    /// Variables that keep their base value when nothing on the branch
    /// binds or constrains them. Empty: none.
    const std::vector<char>* pinned = nullptr;
    /// Keep every unconstrained variable at its base value: enough to
    /// decide whether some successor exists.
    bool existential = false;
    /// The context to evaluate in (its locals are the outer environment;
    /// `next` is saved and restored). Null: the walk uses its own.
    EvalContext* ctx = nullptr;
  };

  /// Calls `fn` on every next state the walk reaches, in the walk's
  /// deterministic order (the same state may be reached on several
  /// branches). `fn` returns true to stop; the result is true iff it did.
  /// Safe to call concurrently: all scratch is per call.
  bool run(const Query& q, const std::function<bool(const State&)>& fn) const;

  /// True iff some branch's guards all hold at `q.current` (assignments,
  /// constraints and domains ignored): the disjunctive-normal-form reading
  /// of "the action's precondition holds".
  bool guards_hold(const Query& q) const;

 private:
  friend class WalkRun;

  struct Constraint {
    Expr expr;
    std::vector<VarId> primed;  // ascending
  };
  struct Assignment {
    VarId var;
    Expr rhs;
  };
  struct Disjunction;
  struct List {
    std::vector<Expr> guards;
    std::vector<Assignment> assignments;
    std::vector<Constraint> constraints;
    std::vector<Disjunction> disjunctions;
  };
  struct Disjunction {
    Constraint whole;  // the disjunction as one constraint, once all bound
    std::vector<List> branches;
  };

  static Constraint constraint(const Expr& e);
  void compile(const Expr& conjunction, List& out) const;

  const VarTable* vars_;
  List root_;
};

}  // namespace opentla
