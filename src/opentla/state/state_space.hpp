// opentla/state/state_space.hpp
//
// Enumeration of the full cartesian state space of a VarTable, and of
// partial assignments over a subset of variables. Used by the universe
// graph ("all behaviors" for validity checking), by prefix machines for
// initial hidden assignments, and by the naive successor oracle.
//
// The flat odometer (for_each_completion) takes a bool-returning callback
// so a caller that only needs one witness stops the enumeration instead of
// spinning through the rest of the space.

#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "opentla/state/state.hpp"
#include "opentla/state/var_table.hpp"

namespace opentla {

/// The (finite) cartesian state space over a VarTable.
class StateSpace {
 public:
  explicit StateSpace(const VarTable& vars) : vars_(&vars) {}

  const VarTable& vars() const { return *vars_; }

  /// Number of states in the full space (product of domain sizes).
  /// Throws if the product overflows 2^63.
  std::uint64_t total_states() const;

  /// Invokes `fn` on every state of the full space.
  void for_each_state(const std::function<void(const State&)>& fn) const;

  /// Invokes `fn` on every completion of `base` obtained by assigning all
  /// values of their domains to the variables in `free_vars` (other
  /// variables keep their value from `base`). `free_vars` may be empty, in
  /// which case `fn` is called once with `base` itself. `fn` returns true
  /// to stop the enumeration; the return value is true iff it stopped.
  bool for_each_completion(const State& base, const std::vector<VarId>& free_vars,
                           const std::function<bool(const State&)>& fn) const;

  /// An arbitrary state: every variable at its first domain value.
  State first_state() const;

 private:
  const VarTable* vars_;
};

}  // namespace opentla
