// opentla/expr/eval.hpp
//
// Evaluation of state functions and actions. A state function is evaluated
// against one state; an action against a pair <s, t> with primed variables
// reading from t. Evaluation is exact and throws on spec-level type errors
// (e.g. Head of a non-sequence) rather than guessing.

#pragma once

#include <string>
#include <vector>

#include "opentla/expr/expr.hpp"
#include "opentla/state/state.hpp"
#include "opentla/state/var_table.hpp"

namespace opentla {

/// Evaluation context. `next` may be null, in which case evaluating a
/// primed variable throws (the expression was supposed to be a state
/// function). `vars` supplies the domains needed by ENABLED.
struct EvalContext {
  const VarTable* vars = nullptr;
  const State* current = nullptr;
  const State* next = nullptr;
  /// Bound-variable environment, innermost binding last.
  std::vector<std::pair<std::string, Value>> locals;
};

/// Evaluates `e` in `ctx` to a value.
Value eval(const Expr& e, EvalContext& ctx);

/// Evaluates a boolean expression; throws if the result is not boolean.
bool eval_bool(const Expr& e, EvalContext& ctx);

/// Evaluates a state predicate at `s`.
bool eval_pred(const Expr& e, const VarTable& vars, const State& s);

/// Evaluates a state function at `s`.
Value eval_fn(const Expr& e, const VarTable& vars, const State& s);

/// Evaluates an action on the step <s, t>.
bool eval_action(const Expr& e, const VarTable& vars, const State& s, const State& t);

/// ENABLED A at state s: true iff some state t over `vars` (differing from
/// s only on the primed variables occurring in A) makes <s, t> an A step.
/// Runs the existential conjunct walk (opentla/graph/walk.hpp), so only
/// variables nothing on a branch determines are ever enumerated.
///
/// Note: in this explicit-state engine ENABLED quantifies the next state
/// over the declared finite domains; an action whose assignments would
/// leave the domain counts as disabled (no such state exists in the space).
bool eval_enabled(const Expr& action, const VarTable& vars, const State& s);

/// ENABLED with an outer bound-variable environment visible to the action.
bool enabled_with_locals(const Expr& action, const VarTable& vars, const State& s,
                         const std::vector<std::pair<std::string, Value>>& locals);

/// ENABLED evaluated in a reusable context: `ctx.vars`/`ctx.current` supply
/// the query, `ctx.locals` is the outer environment (read in place, no
/// copy), and `ctx.next` is saved and restored around the internal search.
/// This is the allocation-free path used by hot callers (eval's ENABLED
/// case, successor generation).
bool enabled_with_locals(const Expr& action, EvalContext& ctx);

}  // namespace opentla
