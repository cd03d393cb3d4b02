// opentla/semantics/oracle.hpp
//
// Exact evaluation of temporal formulas on lasso behaviors — the semantic
// ground truth the production checkers are validated against.
//
// Every operator of tla/formula.hpp is supported:
//   - the temporal combinators by position-indexed evaluation with
//     memoization (truth values are determined by the canonical positions);
//   - WF/SF by their loop characterizations;
//   - canonical specs (with hiding and fairness) by fair-path existence in
//     the product of the lasso with the spec's transition system;
//   - C(F), E +> M, E -> M, F_{+v} and E _|_ M by running prefix machines
//     along the lasso until the joint (position, configurations) state
//     repeats, which makes the infinitely many "holds for the first n
//     states" conditions finitely checkable.
//
// Requirement: specs under C / +> / -> / + / _|_ must be machine-closed
// (Proposition 1's syntactic condition) so that prefix satisfaction equals
// safety-prefix satisfaction; the oracle verifies this and throws
// otherwise.

#pragma once

#include <map>
#include <stdexcept>

#include "opentla/obs/memory.hpp"
#include "opentla/semantics/lasso.hpp"
#include "opentla/tla/formula.hpp"

namespace opentla {

class Oracle {
 public:
  explicit Oracle(const VarTable& vars) : vars_(&vars) {}

  /// sigma |= f ?
  bool evaluate(const Formula& f, const LassoBehavior& sigma);

  /// sigma^pos |= f (the suffix starting at position pos).
  bool evaluate_at(const Formula& f, const LassoBehavior& sigma, std::size_t pos);

 private:
  /// Alive flags of prefix machines run jointly along a lasso suffix.
  /// alive(j, k) = machine j alive after reading k+1 states; periodic from
  /// `wrap_from` back to `wrap_to`.
  struct MachineTrace {
    std::vector<std::vector<char>> alive;  // [machine][index]
    std::size_t wrap_from = 0;
    std::size_t wrap_to = 0;

    bool at(std::size_t machine, std::size_t k) const {
      const std::vector<char>& a = alive[machine];
      while (k >= wrap_from) k = wrap_to + (k - wrap_from);
      return a[k] != 0;
    }
    /// Indices 0..horizon() cover every distinct condition instance.
    std::size_t horizon() const { return wrap_from; }
  };

  bool eval(const Formula& f, const LassoBehavior& sigma, std::size_t pos);
  bool eval_spec(const CanonicalSpec& spec, const LassoBehavior& sigma, std::size_t pos);
  MachineTrace run_machines(const std::vector<const CanonicalSpec*>& specs,
                            const LassoBehavior& sigma, std::size_t pos) const;
  /// True iff the subscript tuple v is constant from absolute position
  /// `from` on (along the suffix into the loop).
  static bool tuple_constant_from(const std::vector<VarId>& v, const LassoBehavior& sigma,
                                  std::size_t from);
  void require_machine_closed(const CanonicalSpec& spec) const;

  const VarTable* vars_;
  std::map<std::pair<const FormulaNode*, std::size_t>, bool> memo_;
  const LassoBehavior* memo_sigma_ = nullptr;
  /// Memory accounting: map-node bytes of memo_, charged per insert and
  /// released when the memo clears at evaluate() start.
  obs::MemTally mem_{obs::MemDomain::Oracle};
};

}  // namespace opentla
