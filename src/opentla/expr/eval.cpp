#include "opentla/expr/eval.hpp"

#include <cstdint>
#include <stdexcept>

#include "opentla/graph/walk.hpp"

namespace opentla {

namespace {
[[noreturn]] void eval_error(const std::string& msg) {
  throw std::runtime_error("eval: " + msg);
}

std::int64_t as_int(const Expr& e, EvalContext& ctx) { return eval(e, ctx).as_int(); }

// Pops one local binding on scope exit, so an eval_error thrown from a
// quantifier body cannot leave a stale binding in a reused context.
struct LocalScope {
  std::vector<std::pair<std::string, Value>>* locals;
  ~LocalScope() { locals->pop_back(); }
};
}  // namespace

// Pinned evaluation-order contract (shared with opentla/vm/):
//
// Operands of every binary operator are evaluated LEFT TO RIGHT, and the
// n-ary connectives And / Or short-circuit in child order. This matters
// only when evaluation can throw: which eval error a spec surfaces (an
// overflow in the left operand vs. a kind mismatch in the right) must not
// depend on the evaluator. C++ leaves the order of function-argument
// evaluation unspecified, so every case below that evaluates two operands
// does it through named temporaries rather than inline calls. The bytecode
// compiler (opentla/vm/compile.cpp) emits code in this same order; the
// differential VM-vs-tree axis in tests/test_differential.cpp holds both
// evaluators to it, down to identical exception messages.
Value eval(const Expr& e, EvalContext& ctx) {
  if (e.is_null()) eval_error("null expression");
  const ExprNode& n = e.node();
  switch (n.kind) {
    case ExprKind::Const:
      return n.value;

    case ExprKind::Var: {
      if (n.primed) {
        if (ctx.next == nullptr) {
          eval_error("primed variable in a state-function context");
        }
        return (*ctx.next)[n.var];
      }
      if (ctx.current == nullptr) eval_error("no current state");
      return (*ctx.current)[n.var];
    }

    case ExprKind::Local: {
      for (auto it = ctx.locals.rbegin(); it != ctx.locals.rend(); ++it) {
        if (it->first == n.local) return it->second;
      }
      eval_error("unbound local '" + n.local + "'");
    }

    case ExprKind::Not:
      return Value::boolean(!eval_bool(n.kids[0], ctx));

    case ExprKind::And: {
      for (const Expr& k : n.kids) {
        if (!eval_bool(k, ctx)) return Value::boolean(false);
      }
      return Value::boolean(true);
    }

    case ExprKind::Or: {
      for (const Expr& k : n.kids) {
        if (eval_bool(k, ctx)) return Value::boolean(true);
      }
      return Value::boolean(false);
    }

    case ExprKind::Implies:
      return Value::boolean(!eval_bool(n.kids[0], ctx) || eval_bool(n.kids[1], ctx));

    case ExprKind::Equiv: {
      const bool a = eval_bool(n.kids[0], ctx);
      const bool b = eval_bool(n.kids[1], ctx);
      return Value::boolean(a == b);
    }

    case ExprKind::Eq: {
      const Value a = eval(n.kids[0], ctx);
      const Value b = eval(n.kids[1], ctx);
      return Value::boolean(a == b);
    }
    case ExprKind::Neq: {
      const Value a = eval(n.kids[0], ctx);
      const Value b = eval(n.kids[1], ctx);
      return Value::boolean(!(a == b));
    }
    case ExprKind::Lt: {
      const std::int64_t a = as_int(n.kids[0], ctx);
      const std::int64_t b = as_int(n.kids[1], ctx);
      return Value::boolean(a < b);
    }
    case ExprKind::Le: {
      const std::int64_t a = as_int(n.kids[0], ctx);
      const std::int64_t b = as_int(n.kids[1], ctx);
      return Value::boolean(a <= b);
    }
    case ExprKind::Gt: {
      const std::int64_t a = as_int(n.kids[0], ctx);
      const std::int64_t b = as_int(n.kids[1], ctx);
      return Value::boolean(a > b);
    }
    case ExprKind::Ge: {
      const std::int64_t a = as_int(n.kids[0], ctx);
      const std::int64_t b = as_int(n.kids[1], ctx);
      return Value::boolean(a >= b);
    }

    case ExprKind::Add: {
      const std::int64_t a = as_int(n.kids[0], ctx);
      const std::int64_t b = as_int(n.kids[1], ctx);
      std::int64_t r = 0;
      if (__builtin_add_overflow(a, b, &r)) {
        eval_error("integer overflow in +");
      }
      return Value::integer(r);
    }
    case ExprKind::Sub: {
      const std::int64_t a = as_int(n.kids[0], ctx);
      const std::int64_t b = as_int(n.kids[1], ctx);
      std::int64_t r = 0;
      if (__builtin_sub_overflow(a, b, &r)) {
        eval_error("integer overflow in -");
      }
      return Value::integer(r);
    }
    case ExprKind::Mul: {
      const std::int64_t a = as_int(n.kids[0], ctx);
      const std::int64_t b = as_int(n.kids[1], ctx);
      std::int64_t r = 0;
      if (__builtin_mul_overflow(a, b, &r)) {
        eval_error("integer overflow in *");
      }
      return Value::integer(r);
    }
    case ExprKind::Mod: {
      const std::int64_t a = as_int(n.kids[0], ctx);
      const std::int64_t b = as_int(n.kids[1], ctx);
      if (b <= 0) eval_error("mod requires b > 0");
      // TLC's floored modulo: the result carries the divisor's sign, so with
      // b > 0 it always lies in [0, b) — e.g. -3 % 2 = 1.
      const std::int64_t r = a % b;
      return Value::integer(r < 0 ? r + b : r);
    }
    case ExprKind::Neg: {
      const std::int64_t a = as_int(n.kids[0], ctx);
      if (a == INT64_MIN) eval_error("integer overflow in unary -");
      return Value::integer(-a);
    }

    case ExprKind::IfThenElse:
      return eval_bool(n.kids[0], ctx) ? eval(n.kids[1], ctx) : eval(n.kids[2], ctx);

    case ExprKind::MakeTuple: {
      Value::Tuple elems;
      elems.reserve(n.kids.size());
      for (const Expr& k : n.kids) elems.push_back(eval(k, ctx));
      return Value::tuple(std::move(elems));
    }

    case ExprKind::Head:
      return seq_head(eval(n.kids[0], ctx));
    case ExprKind::Tail:
      return seq_tail(eval(n.kids[0], ctx));
    case ExprKind::Len:
      return Value::integer(static_cast<std::int64_t>(eval(n.kids[0], ctx).length()));
    case ExprKind::Concat: {
      const Value a = eval(n.kids[0], ctx);
      const Value b = eval(n.kids[1], ctx);
      return seq_concat(a, b);
    }
    case ExprKind::Append: {
      const Value a = eval(n.kids[0], ctx);
      const Value b = eval(n.kids[1], ctx);
      return seq_append(a, b);
    }
    case ExprKind::Index: {
      Value s = eval(n.kids[0], ctx);
      const std::int64_t i = as_int(n.kids[1], ctx);
      const Value::Tuple& t = s.as_tuple();
      if (i < 1 || static_cast<std::size_t>(i) > t.size()) {
        eval_error("sequence index " + std::to_string(i) + " out of range for " +
                   s.to_string());
      }
      return t[static_cast<std::size_t>(i) - 1];
    }

    case ExprKind::ExistsVal:
    case ExprKind::ForallVal: {
      const bool is_exists = (n.kind == ExprKind::ExistsVal);
      ctx.locals.emplace_back(n.local, Value());
      LocalScope scope{&ctx.locals};
      bool result = !is_exists;
      for (const Value& v : n.domain.values()) {
        ctx.locals.back().second = v;
        const bool b = eval_bool(n.kids[0], ctx);
        if (b == is_exists) {
          result = is_exists;
          break;
        }
      }
      return Value::boolean(result);
    }

    case ExprKind::Enabled: {
      if (ctx.vars == nullptr || ctx.current == nullptr) {
        eval_error("ENABLED requires a VarTable and a current state");
      }
      // ENABLED must be evaluated with the *outer* locals visible (the
      // action may mention bound variables of an enclosing quantifier).
      // The context is reused as scratch — no per-query locals copy.
      return Value::boolean(enabled_with_locals(n.kids[0], ctx));
    }
  }
  eval_error("unknown node kind");
}

bool eval_bool(const Expr& e, EvalContext& ctx) {
  Value v = eval(e, ctx);
  if (!v.is_bool()) {
    eval_error("expected a boolean, got " + v.to_string());
  }
  return v.as_bool();
}

bool eval_pred(const Expr& e, const VarTable& vars, const State& s) {
  EvalContext ctx;
  ctx.vars = &vars;
  ctx.current = &s;
  return eval_bool(e, ctx);
}

Value eval_fn(const Expr& e, const VarTable& vars, const State& s) {
  EvalContext ctx;
  ctx.vars = &vars;
  ctx.current = &s;
  return eval(e, ctx);
}

bool eval_action(const Expr& e, const VarTable& vars, const State& s, const State& t) {
  EvalContext ctx;
  ctx.vars = &vars;
  ctx.current = &s;
  ctx.next = &t;
  return eval_bool(e, ctx);
}

bool eval_enabled(const Expr& action, const VarTable& vars, const State& s) {
  return enabled_with_locals(action, vars, s, {});
}

bool enabled_with_locals(const Expr& action, const VarTable& vars, const State& s,
                         const std::vector<std::pair<std::string, Value>>& locals) {
  EvalContext ctx;
  ctx.vars = &vars;
  ctx.current = &s;
  ctx.locals = locals;
  return enabled_with_locals(action, ctx);
}

bool enabled_with_locals(const Expr& action, EvalContext& ctx) {
  if (ctx.vars == nullptr || ctx.current == nullptr) {
    eval_error("ENABLED requires a VarTable and a current state");
  }
  // The existential conjunct walk, on the tree evaluator so the action
  // sees the outer bound variables: the first branch whose bindings and
  // constraints admit a next state is a witness.
  const ConjunctWalk walk(*ctx.vars, action, ConjunctWalk::Evaluator::kTree);
  ConjunctWalk::Query q;
  q.current = ctx.current;
  q.existential = true;
  q.tree_ctx = &ctx;
  return walk.run(q, [](const State&) { return true; });
}

}  // namespace opentla
