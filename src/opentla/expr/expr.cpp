#include "opentla/expr/expr.hpp"

#include <algorithm>

namespace opentla {
namespace ex {

Expr make(ExprNode node) {
  for (const Expr& k : node.kids) {
    if (!k.is_null()) node.depth = std::max(node.depth, k.depth() + 1);
  }
  return Expr(std::make_shared<const ExprNode>(std::move(node)));
}

namespace {
Expr nary(ExprKind kind, std::vector<Expr> kids) {
  ExprNode n;
  n.kind = kind;
  n.kids = std::move(kids);
  return make(std::move(n));
}
}  // namespace

Expr constant(Value v) {
  ExprNode n;
  n.kind = ExprKind::Const;
  n.value = std::move(v);
  return make(std::move(n));
}

Expr boolean(bool b) { return constant(Value::boolean(b)); }
Expr integer(std::int64_t i) { return constant(Value::integer(i)); }
Expr str(std::string s) { return constant(Value::string(std::move(s))); }
Expr top() { return boolean(true); }
Expr bottom() { return boolean(false); }

Expr var(VarId v) {
  ExprNode n;
  n.kind = ExprKind::Var;
  n.var = v;
  n.primed = false;
  return make(std::move(n));
}

Expr primed_var(VarId v) {
  ExprNode n;
  n.kind = ExprKind::Var;
  n.var = v;
  n.primed = true;
  return make(std::move(n));
}

Expr local(std::string name) {
  ExprNode n;
  n.kind = ExprKind::Local;
  n.local = std::move(name);
  return make(std::move(n));
}

Expr lnot(Expr a) { return nary(ExprKind::Not, {std::move(a)}); }

Expr land(std::vector<Expr> kids) { return nary(ExprKind::And, std::move(kids)); }
Expr land(Expr a, Expr b) { return land(std::vector<Expr>{std::move(a), std::move(b)}); }
Expr land(Expr a, Expr b, Expr c) {
  return land(std::vector<Expr>{std::move(a), std::move(b), std::move(c)});
}

Expr lor(std::vector<Expr> kids) { return nary(ExprKind::Or, std::move(kids)); }
Expr lor(Expr a, Expr b) { return lor(std::vector<Expr>{std::move(a), std::move(b)}); }
Expr lor(Expr a, Expr b, Expr c) {
  return lor(std::vector<Expr>{std::move(a), std::move(b), std::move(c)});
}

Expr implies(Expr a, Expr b) { return nary(ExprKind::Implies, {std::move(a), std::move(b)}); }
Expr equiv(Expr a, Expr b) { return nary(ExprKind::Equiv, {std::move(a), std::move(b)}); }

Expr eq(Expr a, Expr b) { return nary(ExprKind::Eq, {std::move(a), std::move(b)}); }
Expr neq(Expr a, Expr b) { return nary(ExprKind::Neq, {std::move(a), std::move(b)}); }
Expr lt(Expr a, Expr b) { return nary(ExprKind::Lt, {std::move(a), std::move(b)}); }
Expr le(Expr a, Expr b) { return nary(ExprKind::Le, {std::move(a), std::move(b)}); }
Expr gt(Expr a, Expr b) { return nary(ExprKind::Gt, {std::move(a), std::move(b)}); }
Expr ge(Expr a, Expr b) { return nary(ExprKind::Ge, {std::move(a), std::move(b)}); }

Expr add(Expr a, Expr b) { return nary(ExprKind::Add, {std::move(a), std::move(b)}); }
Expr sub(Expr a, Expr b) { return nary(ExprKind::Sub, {std::move(a), std::move(b)}); }
Expr mul(Expr a, Expr b) { return nary(ExprKind::Mul, {std::move(a), std::move(b)}); }
Expr mod(Expr a, Expr b) { return nary(ExprKind::Mod, {std::move(a), std::move(b)}); }
Expr neg(Expr a) { return nary(ExprKind::Neg, {std::move(a)}); }

Expr ite(Expr cond, Expr then_e, Expr else_e) {
  return nary(ExprKind::IfThenElse, {std::move(cond), std::move(then_e), std::move(else_e)});
}

Expr make_tuple(std::vector<Expr> kids) { return nary(ExprKind::MakeTuple, std::move(kids)); }
Expr head(Expr s) { return nary(ExprKind::Head, {std::move(s)}); }
Expr tail(Expr s) { return nary(ExprKind::Tail, {std::move(s)}); }
Expr len(Expr s) { return nary(ExprKind::Len, {std::move(s)}); }
Expr concat(Expr s, Expr t) { return nary(ExprKind::Concat, {std::move(s), std::move(t)}); }
Expr append(Expr s, Expr e) { return nary(ExprKind::Append, {std::move(s), std::move(e)}); }
Expr index(Expr s, Expr i) { return nary(ExprKind::Index, {std::move(s), std::move(i)}); }

Expr exists_val(std::string name, Domain d, Expr body) {
  ExprNode n;
  n.kind = ExprKind::ExistsVal;
  n.local = std::move(name);
  n.domain = std::move(d);
  n.kids = {std::move(body)};
  return make(std::move(n));
}

Expr forall_val(std::string name, Domain d, Expr body) {
  ExprNode n;
  n.kind = ExprKind::ForallVal;
  n.local = std::move(name);
  n.domain = std::move(d);
  n.kids = {std::move(body)};
  return make(std::move(n));
}

Expr enabled(Expr action) { return nary(ExprKind::Enabled, {std::move(action)}); }

Expr unchanged(const std::vector<VarId>& vs) {
  std::vector<Expr> conj;
  conj.reserve(vs.size());
  for (VarId v : vs) conj.push_back(eq(primed_var(v), var(v)));
  return land(std::move(conj));
}

Expr var_tuple(const std::vector<VarId>& vs) {
  std::vector<Expr> kids;
  kids.reserve(vs.size());
  for (VarId v : vs) kids.push_back(var(v));
  return make_tuple(std::move(kids));
}

Expr primed_var_tuple(const std::vector<VarId>& vs) {
  std::vector<Expr> kids;
  kids.reserve(vs.size());
  for (VarId v : vs) kids.push_back(primed_var(v));
  return make_tuple(std::move(kids));
}

}  // namespace ex

std::uint64_t expr_deep_bytes(const Expr& e,
                              std::unordered_set<const ExprNode*>& seen) {
  if (e.is_null()) return 0;
  const ExprNode& n = e.node();
  // Macro splices share whole subtrees between definitions and use sites;
  // each shared node's heap bytes exist once, so count it once.
  if (!seen.insert(&n).second) return 0;
  std::uint64_t bytes = sizeof(ExprNode);
  // The node embeds a Value; value_deep_bytes counts sizeof(Value) itself,
  // so only the spill-over (heap strings, tuple elements) is added here.
  bytes += value_deep_bytes(n.value) - sizeof(Value);
  if (n.local.capacity() > sizeof(std::string) - 1) bytes += n.local.capacity() + 1;
  if (n.kind == ExprKind::ExistsVal || n.kind == ExprKind::ForallVal) {
    bytes += n.domain.deep_bytes();
  }
  bytes += n.kids.capacity() * sizeof(Expr);
  for (const Expr& k : n.kids) bytes += expr_deep_bytes(k, seen);
  return bytes;
}

std::uint64_t expr_deep_bytes(const Expr& e) {
  std::unordered_set<const ExprNode*> seen;
  return expr_deep_bytes(e, seen);
}

}  // namespace opentla
