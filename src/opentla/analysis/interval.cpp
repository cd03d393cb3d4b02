#include "opentla/analysis/interval.hpp"

#include <algorithm>
#include <limits>

namespace opentla::analysis {

namespace {
constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();

std::int64_t sat(__int128 v) {
  if (v < static_cast<__int128>(kMin)) return kMin;
  if (v > static_cast<__int128>(kMax)) return kMax;
  return static_cast<std::int64_t>(v);
}
}  // namespace

Interval Interval::all() { return {kMin, kMax}; }

Interval meet(Interval a, Interval b) {
  return {std::max(a.lo, b.lo), std::min(a.hi, b.hi)};
}

Interval join(Interval a, Interval b) {
  if (a.empty()) return b;
  if (b.empty()) return a;
  return {std::min(a.lo, b.lo), std::max(a.hi, b.hi)};
}

Interval interval_add(Interval a, Interval b) {
  if (a.empty() || b.empty()) return {};
  return {sat(static_cast<__int128>(a.lo) + b.lo), sat(static_cast<__int128>(a.hi) + b.hi)};
}

Interval interval_sub(Interval a, Interval b) {
  if (a.empty() || b.empty()) return {};
  return {sat(static_cast<__int128>(a.lo) - b.hi), sat(static_cast<__int128>(a.hi) - b.lo)};
}

Interval interval_mul(Interval a, Interval b) {
  if (a.empty() || b.empty()) return {};
  const __int128 c[4] = {static_cast<__int128>(a.lo) * b.lo, static_cast<__int128>(a.lo) * b.hi,
                         static_cast<__int128>(a.hi) * b.lo, static_cast<__int128>(a.hi) * b.hi};
  return {sat(*std::min_element(c, c + 4)), sat(*std::max_element(c, c + 4))};
}

Interval interval_neg(Interval a) {
  if (a.empty()) return {};
  return {sat(-static_cast<__int128>(a.hi)), sat(-static_cast<__int128>(a.lo))};
}

AbsVal AbsVal::integer(Interval iv) {
  if (iv.empty()) return none();
  return {Kind::Int, iv, false, false};
}

AbsVal AbsVal::boolean(bool may_t, bool may_f) {
  if (!may_t && !may_f) return none();
  return {Kind::Bool, {}, may_t, may_f};
}

AbsVal abstract_domain(const Domain& d) {
  if (d.empty()) return AbsVal::none();
  switch (d.shape()) {
    case Domain::Shape::Range:
      return AbsVal::integer({d.lo(), d.hi()});
    case Domain::Shape::Bool:
      return AbsVal::boolean(true, true);
    case Domain::Shape::Seq:
    case Domain::Shape::Tuple:
      return AbsVal::any();
    case Domain::Shape::Explicit:
      break;
  }
  bool all_int = true;
  bool saw_true = false, saw_false = false, all_bool = true;
  std::int64_t lo = kMax, hi = kMin;
  for (const Value& v : d.values()) {
    if (v.is_int()) {
      lo = std::min(lo, v.as_int());
      hi = std::max(hi, v.as_int());
      all_bool = false;
    } else if (v.is_bool()) {
      (v.as_bool() ? saw_true : saw_false) = true;
      all_int = false;
    } else {
      all_int = all_bool = false;
    }
  }
  if (all_int) return AbsVal::integer({lo, hi});
  if (all_bool) return AbsVal::boolean(saw_true, saw_false);
  return AbsVal::any();
}

AbstractEnv initial_env(const VarTable& vars) {
  AbstractEnv env;
  env.reserve(vars.size());
  for (VarId v = 0; v < vars.size(); ++v) env.push_back(abstract_domain(vars.domain(v)));
  return env;
}

namespace {

AbsVal abs_join(const AbsVal& a, const AbsVal& b) {
  if (a.is_none()) return b;
  if (b.is_none()) return a;
  if (a.kind != b.kind) return AbsVal::any();
  if (a.kind == AbsVal::Kind::Int) return AbsVal::integer(join(a.iv, b.iv));
  if (a.kind == AbsVal::Kind::Bool) {
    return AbsVal::boolean(a.may_true || b.may_true, a.may_false || b.may_false);
  }
  return AbsVal::any();
}

AbsVal abs_meet(const AbsVal& a, const AbsVal& b) {
  if (a.is_none() || b.is_none()) return AbsVal::none();
  if (a.kind == AbsVal::Kind::Any) return b;
  if (b.kind == AbsVal::Kind::Any) return a;
  if (a.kind != b.kind) return AbsVal::none();  // int vs bool: no common value
  if (a.kind == AbsVal::Kind::Int) return AbsVal::integer(meet(a.iv, b.iv));
  return AbsVal::boolean(a.may_true && b.may_true, a.may_false && b.may_false);
}

Truth truth_not(Truth t) {
  if (t == Truth::True) return Truth::False;
  if (t == Truth::False) return Truth::True;
  return Truth::Unknown;
}

AbsVal from_truth(Truth t) {
  return AbsVal::boolean(t != Truth::False, t != Truth::True);
}

Truth to_truth(const AbsVal& v) {
  if (v.must_true()) return Truth::True;
  if (v.must_false()) return Truth::False;
  return Truth::Unknown;
}

AbsVal abs_const(const Value& v) {
  if (v.is_int()) return AbsVal::integer(Interval::singleton(v.as_int()));
  if (v.is_bool()) return AbsVal::boolean(v.as_bool(), !v.as_bool());
  return AbsVal::any();
}

// Three-valued comparison of two abstract values under `kind`.
Truth abs_compare(ExprKind kind, const AbsVal& a, const AbsVal& b) {
  if (kind == ExprKind::Eq || kind == ExprKind::Neq) {
    Truth eq = Truth::Unknown;
    if (a.kind == AbsVal::Kind::Int && b.kind == AbsVal::Kind::Int) {
      if (meet(a.iv, b.iv).empty()) {
        eq = Truth::False;
      } else if (a.iv.is_singleton() && a.iv == b.iv) {
        eq = Truth::True;
      }
    } else if (a.kind == AbsVal::Kind::Bool && b.kind == AbsVal::Kind::Bool) {
      const Truth ta = to_truth(a), tb = to_truth(b);
      if (ta != Truth::Unknown && tb != Truth::Unknown) {
        eq = (ta == tb) ? Truth::True : Truth::False;
      }
    } else if ((a.kind == AbsVal::Kind::Int && b.kind == AbsVal::Kind::Bool) ||
               (a.kind == AbsVal::Kind::Bool && b.kind == AbsVal::Kind::Int)) {
      eq = Truth::False;  // Value equality across kinds is plain FALSE
    }
    return kind == ExprKind::Eq ? eq : truth_not(eq);
  }
  // Integer order comparisons.
  if (a.kind != AbsVal::Kind::Int || b.kind != AbsVal::Kind::Int) return Truth::Unknown;
  const Interval& x = a.iv;
  const Interval& y = b.iv;
  switch (kind) {
    case ExprKind::Lt:
      if (x.hi < y.lo) return Truth::True;
      if (x.lo >= y.hi) return Truth::False;
      return Truth::Unknown;
    case ExprKind::Le:
      if (x.hi <= y.lo) return Truth::True;
      if (x.lo > y.hi) return Truth::False;
      return Truth::Unknown;
    case ExprKind::Gt:
      return abs_compare(ExprKind::Lt, b, a);
    case ExprKind::Ge:
      return abs_compare(ExprKind::Le, b, a);
    default:
      return Truth::Unknown;
  }
}

}  // namespace

AbsVal abs_eval(const Expr& e, const AbstractEnv& env) {
  const ExprNode& n = e.node();
  switch (n.kind) {
    case ExprKind::Const:
      return abs_const(n.value);
    case ExprKind::Var:
      if (n.primed) return AbsVal::any();
      return n.var < env.size() ? env[n.var] : AbsVal::any();
    case ExprKind::Local:
      return AbsVal::any();
    case ExprKind::Not:
      return from_truth(truth_not(abs_truth(n.kids[0], env)));
    case ExprKind::And:
    case ExprKind::Or: {
      const Truth determining = (n.kind == ExprKind::Or) ? Truth::True : Truth::False;
      bool all_known = true;
      for (const Expr& k : n.kids) {
        const Truth t = abs_truth(k, env);
        if (t == determining) return from_truth(determining);
        if (t == Truth::Unknown) all_known = false;
      }
      return all_known ? from_truth(truth_not(determining))
                       : AbsVal::boolean(true, true);
    }
    case ExprKind::Implies: {
      const Truth a = abs_truth(n.kids[0], env);
      const Truth b = abs_truth(n.kids[1], env);
      if (a == Truth::False || b == Truth::True) return from_truth(Truth::True);
      if (a == Truth::True && b == Truth::False) return from_truth(Truth::False);
      return AbsVal::boolean(true, true);
    }
    case ExprKind::Equiv: {
      const Truth a = abs_truth(n.kids[0], env);
      const Truth b = abs_truth(n.kids[1], env);
      if (a == Truth::Unknown || b == Truth::Unknown) return AbsVal::boolean(true, true);
      return from_truth(a == b ? Truth::True : Truth::False);
    }
    case ExprKind::Eq:
    case ExprKind::Neq:
    case ExprKind::Lt:
    case ExprKind::Le:
    case ExprKind::Gt:
    case ExprKind::Ge:
      return from_truth(
          abs_compare(n.kind, abs_eval(n.kids[0], env), abs_eval(n.kids[1], env)));
    case ExprKind::Add:
    case ExprKind::Sub:
    case ExprKind::Mul: {
      const AbsVal a = abs_eval(n.kids[0], env);
      const AbsVal b = abs_eval(n.kids[1], env);
      if (a.kind != AbsVal::Kind::Int || b.kind != AbsVal::Kind::Int) return AbsVal::any();
      if (n.kind == ExprKind::Add) return AbsVal::integer(interval_add(a.iv, b.iv));
      if (n.kind == ExprKind::Sub) return AbsVal::integer(interval_sub(a.iv, b.iv));
      return AbsVal::integer(interval_mul(a.iv, b.iv));
    }
    case ExprKind::Mod: {
      const AbsVal a = abs_eval(n.kids[0], env);
      const AbsVal b = abs_eval(n.kids[1], env);
      // TLC's floored modulo needs b > 0 and lands in [0, b). A divisor
      // that may be nonpositive means evaluation may error; abstract that
      // possibility away to Any rather than claim a range.
      if (a.kind != AbsVal::Kind::Int || b.kind != AbsVal::Kind::Int || b.iv.lo <= 0) {
        return AbsVal::any();
      }
      if (a.iv.lo >= 0 && a.iv.hi < b.iv.lo) return a;  // a % b = a here
      return AbsVal::integer({0, b.iv.hi - 1});
    }
    case ExprKind::Neg: {
      const AbsVal a = abs_eval(n.kids[0], env);
      if (a.kind != AbsVal::Kind::Int) return AbsVal::any();
      return AbsVal::integer(interval_neg(a.iv));
    }
    case ExprKind::IfThenElse: {
      const Truth c = abs_truth(n.kids[0], env);
      if (c == Truth::True) return abs_eval(n.kids[1], env);
      if (c == Truth::False) return abs_eval(n.kids[2], env);
      return abs_join(abs_eval(n.kids[1], env), abs_eval(n.kids[2], env));
    }
    case ExprKind::Len:
      return AbsVal::integer({0, kMax});
    case ExprKind::ExistsVal:
    case ExprKind::ForallVal: {
      if (n.domain.empty()) {
        return from_truth(n.kind == ExprKind::ExistsVal ? Truth::False : Truth::True);
      }
      // The body's abstract truth with the local at Any holds for every
      // binding, so a definite body decides both quantifiers.
      const Truth body = abs_truth(n.kids[0], env);
      if (body != Truth::Unknown) return from_truth(body);
      return AbsVal::boolean(true, true);
    }
    case ExprKind::Enabled:
      return AbsVal::boolean(true, true);
    case ExprKind::MakeTuple:
    case ExprKind::Head:
    case ExprKind::Tail:
    case ExprKind::Concat:
    case ExprKind::Append:
    case ExprKind::Index:
      return AbsVal::any();
  }
  return AbsVal::any();
}

Truth abs_truth(const Expr& e, const AbstractEnv& env) {
  return to_truth(abs_eval(e, env));
}

namespace {

ExprKind flip_comparison(ExprKind k) {
  switch (k) {
    case ExprKind::Lt: return ExprKind::Gt;
    case ExprKind::Le: return ExprKind::Ge;
    case ExprKind::Gt: return ExprKind::Lt;
    case ExprKind::Ge: return ExprKind::Le;
    default: return k;  // Eq/Neq are symmetric
  }
}

// Narrows env[v] under the constraint `v cmp rhs`. Returns true if env[v]
// changed.
bool refine_var(ExprKind cmp, VarId v, const AbsVal& rhs, AbstractEnv& env) {
  if (v >= env.size()) return false;
  AbsVal cur = env[v];
  AbsVal next = cur;
  switch (cmp) {
    case ExprKind::Eq:
      next = abs_meet(cur, rhs);
      break;
    case ExprKind::Neq:
      if (rhs.kind == AbsVal::Kind::Int && rhs.iv.is_singleton() &&
          cur.kind == AbsVal::Kind::Int) {
        Interval iv = cur.iv;
        if (iv.lo == rhs.iv.lo) ++iv.lo;
        if (iv.hi == rhs.iv.lo) --iv.hi;
        next = AbsVal::integer(iv);
      } else if (rhs.kind == AbsVal::Kind::Bool && cur.kind == AbsVal::Kind::Bool) {
        if (rhs.must_true()) next = abs_meet(cur, AbsVal::boolean(false, true));
        if (rhs.must_false()) next = abs_meet(cur, AbsVal::boolean(true, false));
      }
      break;
    case ExprKind::Lt:
    case ExprKind::Le:
    case ExprKind::Gt:
    case ExprKind::Ge: {
      if (rhs.kind != AbsVal::Kind::Int || cur.kind != AbsVal::Kind::Int) break;
      Interval iv = cur.iv;
      if (cmp == ExprKind::Lt) {
        if (rhs.iv.hi == kMin) {
          iv = {};  // v < INT64_MIN: impossible
        } else {
          iv.hi = std::min(iv.hi, rhs.iv.hi - 1);
        }
      } else if (cmp == ExprKind::Le) {
        iv.hi = std::min(iv.hi, rhs.iv.hi);
      } else if (cmp == ExprKind::Gt) {
        if (rhs.iv.lo == kMax) {
          iv = {};
        } else {
          iv.lo = std::max(iv.lo, rhs.iv.lo + 1);
        }
      } else {
        iv.lo = std::max(iv.lo, rhs.iv.lo);
      }
      next = AbsVal::integer(iv);
      break;
    }
    default:
      break;
  }
  if (next == cur) return false;
  env[v] = next;
  return true;
}

// One refinement pass over a predicate known to hold. Returns true if any
// env entry changed.
bool refine_atom(const Expr& e, AbstractEnv& env) {
  const ExprNode& n = e.node();
  bool changed = false;
  switch (n.kind) {
    case ExprKind::And:
      for (const Expr& k : n.kids) changed |= refine_atom(k, env);
      return changed;
    case ExprKind::Var:
      // A bare boolean variable used as a predicate: it must be TRUE.
      if (!n.primed) changed = refine_var(ExprKind::Eq, n.var, AbsVal::boolean(true, false), env);
      return changed;
    case ExprKind::Not: {
      const ExprNode& k = n.kids[0].node();
      if (k.kind == ExprKind::Var && !k.primed) {
        return refine_var(ExprKind::Eq, k.var, AbsVal::boolean(false, true), env);
      }
      return false;
    }
    case ExprKind::Eq:
    case ExprKind::Neq:
    case ExprKind::Lt:
    case ExprKind::Le:
    case ExprKind::Gt:
    case ExprKind::Ge: {
      const ExprNode& l = n.kids[0].node();
      const ExprNode& r = n.kids[1].node();
      if (l.kind == ExprKind::Var && !l.primed) {
        changed |= refine_var(n.kind, l.var, abs_eval(n.kids[1], env), env);
      }
      if (r.kind == ExprKind::Var && !r.primed) {
        changed |= refine_var(flip_comparison(n.kind), r.var, abs_eval(n.kids[0], env), env);
      }
      return changed;
    }
    default:
      return false;
  }
}

}  // namespace

bool refine_by_guards(const std::vector<Expr>& guards, AbstractEnv& env) {
  // Narrowing is monotone; the pass cap only bounds time, not soundness.
  for (int pass = 0; pass < 8; ++pass) {
    bool changed = false;
    for (const Expr& g : guards) changed |= refine_atom(g, env);
    if (!changed) break;
  }
  for (const AbsVal& v : env) {
    if (v.is_none()) return false;
  }
  for (const Expr& g : guards) {
    if (abs_truth(g, env) == Truth::False) return false;
  }
  return true;
}

}  // namespace opentla::analysis
