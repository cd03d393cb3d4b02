// opentla/check/orthogonality.hpp
//
// Orthogonality (Section 4.2): E _|_ M holds of a behavior iff there is no
// n such that E and M both hold for the first n states and both fail for
// the first n+1 states — no single step falsifies both. This is the key to
// removing the freeze operator from proof obligations (Proposition 3), and
// interleaving (Disjoint) guarantees it (Proposition 4).
//
// The checker decides |= R => (E _|_ M) where the behaviors of R are given
// by an explored StateGraph and E, M by safety machines. E _|_ M is itself
// a safety property: its machine runs E's and M's side by side and dies on
// the first step that kills both at once. The check is the pair search of
// check/pair_search over the graph and that machine.

#pragma once

#include "opentla/automata/prefix_machine.hpp"
#include "opentla/check/pair_search.hpp"
#include "opentla/graph/state_graph.hpp"
#include "opentla/run/budget.hpp"

namespace opentla {

/// On failure, `counterexample` holds the states of a shortest finite
/// R-behavior whose last step falsifies both E and M (or, for a one-state
/// trace, whose first state already does).
using OrthogonalityResult = PairSearchResult;

/// Checks |= (behaviors of `generator`) => (E _|_ M). `budget` (optional,
/// not owned) is polled once per pair expansion; a breach, like a partial
/// generator, makes the result partial: stop_reason says why and `holds`
/// stays false.
OrthogonalityResult check_orthogonality(const StateGraph& generator, const SafetyMachine& e,
                                        const SafetyMachine& m,
                                        run::RunBudget* budget = nullptr);

}  // namespace opentla
