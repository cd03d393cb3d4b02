// opentla/proof/obligation.hpp
//
// Proof obligations and reports. The Composition Theorem verifier and the
// proposition engines record each hypothesis they discharge — what was
// checked, by which method, with what statistics or counterexample — so a
// run reads like the paper's Figure 9 proof sketch, but machine-checked.

#pragma once

#include <string>
#include <vector>

#include "opentla/state/state.hpp"

namespace opentla {

struct Obligation {
  std::string id;           // e.g. "H1[QE^1]", "H2a", "2.1.2"
  std::string description;  // the validity being checked
  bool discharged = false;
  std::string method;  // "product-inclusion", "refinement-mapping", "prop1-syntactic", ...
  std::string detail;  // stats, or a rendered counterexample on failure
  /// On refutation by a trace: the whole trace (`detail` renders at most
  /// its first states).
  std::vector<State> counterexample;
  /// Not discharged, but not refuted either: the run budget stopped the
  /// check before it finished (or before it started). Distinguishes "the
  /// theorem failed" from "the run ran out" — the CLI maps the former to
  /// exit 1 and the latter to the budget exit code.
  bool inconclusive = false;
  double millis = 0.0;

  explicit operator bool() const { return discharged; }
};

}  // namespace opentla
