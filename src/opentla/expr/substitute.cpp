#include "opentla/expr/substitute.hpp"

#include <stdexcept>

namespace opentla {

namespace {
Expr rebuild(const ExprNode& n, std::vector<Expr> kids) {
  ExprNode out;
  out.kind = n.kind;
  out.value = n.value;
  out.var = n.var;
  out.primed = n.primed;
  out.local = n.local;
  out.domain = n.domain;
  out.kids = std::move(kids);
  return ex::make(std::move(out));
}

template <typename LeafFn>
Expr transform(const Expr& e, LeafFn&& leaf) {
  const ExprNode& n = e.node();
  if (n.kind == ExprKind::Var) return leaf(e);
  if (n.kids.empty()) return e;
  std::vector<Expr> kids;
  kids.reserve(n.kids.size());
  bool changed = false;
  for (const Expr& k : n.kids) {
    Expr nk = transform(k, leaf);
    changed = changed || (&nk.node() != &k.node());
    kids.push_back(std::move(nk));
  }
  if (!changed) return e;
  return rebuild(n, std::move(kids));
}
}  // namespace

Expr prime(const Expr& f) {
  const ExprNode& n = f.node();
  if (n.kind == ExprKind::Enabled) {
    throw std::runtime_error("prime: cannot prime an ENABLED expression");
  }
  if (n.kind == ExprKind::Var) {
    if (n.primed) throw std::runtime_error("prime: expression already contains primes");
    return ex::primed_var(n.var);
  }
  if (n.kids.empty()) return f;
  std::vector<Expr> kids;
  kids.reserve(n.kids.size());
  for (const Expr& k : n.kids) kids.push_back(prime(k));
  return rebuild(n, std::move(kids));
}

Expr rename_vars(const Expr& e, const std::map<VarId, VarId>& renaming) {
  return transform(e, [&](const Expr& leaf) {
    const ExprNode& n = leaf.node();
    auto it = renaming.find(n.var);
    if (it == renaming.end()) return leaf;
    return n.primed ? ex::primed_var(it->second) : ex::var(it->second);
  });
}

Expr substitute_vars(const Expr& e, const std::map<VarId, Expr>& map) {
  return transform(e, [&](const Expr& leaf) {
    const ExprNode& n = leaf.node();
    auto it = map.find(n.var);
    if (it == map.end()) return leaf;
    return n.primed ? prime(it->second) : it->second;
  });
}

}  // namespace opentla
