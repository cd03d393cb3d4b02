// opentla/expr/expr.hpp
//
// State functions and actions (Section 2.1). An `Expr` is an immutable
// expression tree over the flexible variables of a VarTable. An expression
// with no primed variables is a *state function* (a *state predicate* if
// boolean-valued); one with primed variables is an *action*, true or false
// of a pair of states, with primed variables referring to the second state.
//
// Construction goes through the small builder DSL in namespace `ex`
// (constants, variables, boolean/arithmetic/sequence operators, bounded
// quantifiers, ENABLED, UNCHANGED).

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "opentla/state/var_table.hpp"
#include "opentla/value/domain.hpp"
#include "opentla/value/value.hpp"

namespace opentla {

enum class ExprKind : std::uint8_t {
  // Leaves
  Const,      // literal value
  Var,        // flexible variable, possibly primed
  Local,      // bound variable of a quantifier, by name
  // Boolean connectives (And/Or are n-ary)
  Not,
  And,
  Or,
  Implies,
  Equiv,
  // Comparisons (Eq/Neq on any values; order on integers)
  Eq,
  Neq,
  Lt,
  Le,
  Gt,
  Ge,
  // Integer arithmetic
  Add,
  Sub,
  Mul,
  Mod,        // a % b, TLC's floored modulo: requires b > 0, result lies in
              // [0, b) for any a (e.g. -3 % 2 = 1); b <= 0 throws
  Neg,
  // Conditional
  IfThenElse,
  // Tuples / sequences
  MakeTuple,  // <<e1, ..., en>>
  Head,
  Tail,
  Len,
  Concat,     // s \o t
  Append,     // Append(s, e)
  Index,      // s[i], 1-based as in TLA
  // Bounded first-order quantifiers over an explicit finite domain
  ExistsVal,  // \E name \in D : body
  ForallVal,  // \A name \in D : body
  // ENABLED A: true in state s iff some successor t makes A(s, t) true
  Enabled,
};

class Expr;

/// One immutable node of an expression tree.
struct ExprNode {
  ExprKind kind;
  // Leaf payloads (used depending on kind):
  Value value;        // Const
  VarId var = 0;      // Var
  bool primed = false;  // Var
  std::string local;  // Local / ExistsVal / ForallVal bound name
  Domain domain;      // ExistsVal / ForallVal
  std::vector<Expr> kids;
  /// Height of the tree rooted here (1 for a leaf), set by ex::make.
  std::size_t depth = 1;
};

/// Value-semantic handle to an immutable expression tree.
class Expr {
 public:
  Expr() = default;  // null handle; using it is an error
  explicit Expr(std::shared_ptr<const ExprNode> node) : node_(std::move(node)) {}

  bool is_null() const { return node_ == nullptr; }
  const ExprNode& node() const { return *node_; }
  ExprKind kind() const { return node_->kind; }
  const std::vector<Expr>& kids() const { return node_->kids; }
  std::size_t depth() const { return node_->depth; }

  /// Renders the expression in mini-TLA concrete syntax using variable
  /// names from `vars`.
  std::string to_string(const VarTable& vars) const;

 private:
  std::shared_ptr<const ExprNode> node_;
};

/// Approximate bytes retained by the tree rooted at `e`: node structs,
/// deep Value/Domain payloads, heap-allocated local names, and the kids
/// vectors. Shared subtrees (macro splices) are counted once — nodes
/// already in `seen` contribute 0 and every visited node is added, so
/// summing over several trees with one shared set counts each unique node
/// exactly once. Null handles count 0. Feeds the parser memory domain.
std::uint64_t expr_deep_bytes(const Expr& e, std::unordered_set<const ExprNode*>& seen);
std::uint64_t expr_deep_bytes(const Expr& e);

namespace ex {

/// Wraps `node`, setting its depth from its kids'. Every node is built
/// through here.
Expr make(ExprNode node);

// --- Leaves ---
Expr constant(Value v);
Expr boolean(bool b);
Expr integer(std::int64_t i);
Expr str(std::string s);
/// The constant TRUE / FALSE, as predicates.
Expr top();
Expr bottom();
/// Unprimed occurrence of variable `v`.
Expr var(VarId v);
/// Primed occurrence of variable `v` (refers to the next state).
Expr primed_var(VarId v);
/// Occurrence of a quantifier-bound variable.
Expr local(std::string name);

// --- Boolean connectives ---
Expr lnot(Expr a);
Expr land(std::vector<Expr> kids);  // TRUE when empty
Expr land(Expr a, Expr b);
Expr land(Expr a, Expr b, Expr c);
Expr lor(std::vector<Expr> kids);   // FALSE when empty
Expr lor(Expr a, Expr b);
Expr lor(Expr a, Expr b, Expr c);
Expr implies(Expr a, Expr b);
Expr equiv(Expr a, Expr b);

// --- Comparisons ---
Expr eq(Expr a, Expr b);
Expr neq(Expr a, Expr b);
Expr lt(Expr a, Expr b);
Expr le(Expr a, Expr b);
Expr gt(Expr a, Expr b);
Expr ge(Expr a, Expr b);

// --- Arithmetic ---
Expr add(Expr a, Expr b);
Expr sub(Expr a, Expr b);
Expr mul(Expr a, Expr b);
/// a % b: remainder on nonnegative integers (throws otherwise).
Expr mod(Expr a, Expr b);
Expr neg(Expr a);

// --- Conditional ---
Expr ite(Expr cond, Expr then_e, Expr else_e);

// --- Tuples / sequences ---
Expr make_tuple(std::vector<Expr> kids);
Expr head(Expr s);
Expr tail(Expr s);
Expr len(Expr s);
Expr concat(Expr s, Expr t);
Expr append(Expr s, Expr e);
/// s[i]: the i-th element of a sequence, 1-based (TLA convention).
Expr index(Expr s, Expr i);

// --- Quantifiers ---
Expr exists_val(std::string name, Domain d, Expr body);
Expr forall_val(std::string name, Domain d, Expr body);

// --- Actions ---
/// ENABLED A (Section 2.1): A is enabled in s iff some t makes <s,t> an
/// A step.
Expr enabled(Expr action);
/// UNCHANGED <<v1, ..., vn>>: conjunction of vi' = vi.
Expr unchanged(const std::vector<VarId>& vs);
/// The state function <<v1, ..., vn>> as a tuple expression.
Expr var_tuple(const std::vector<VarId>& vs);
/// <<v1', ..., vn'>>.
Expr primed_var_tuple(const std::vector<VarId>& vs);

}  // namespace ex

// Operator sugar for the builder DSL. These allocate nodes; they are for
// spec construction, not hot paths.
inline Expr operator&&(Expr a, Expr b) { return ex::land(std::move(a), std::move(b)); }
inline Expr operator||(Expr a, Expr b) { return ex::lor(std::move(a), std::move(b)); }
inline Expr operator!(Expr a) { return ex::lnot(std::move(a)); }
inline Expr operator+(Expr a, Expr b) { return ex::add(std::move(a), std::move(b)); }
inline Expr operator-(Expr a, Expr b) { return ex::sub(std::move(a), std::move(b)); }
inline Expr operator*(Expr a, Expr b) { return ex::mul(std::move(a), std::move(b)); }

}  // namespace opentla
