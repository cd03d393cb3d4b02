// Replays counterexample traces through safety machines, independently of
// the pair search that found them, and computes the length of a shortest
// refutation by a plain layered search: the checks the product-inclusion
// and orthogonality tests share.

#pragma once

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "opentla/ag/ag_spec.hpp"
#include "opentla/ag/propositions.hpp"
#include "opentla/automata/freeze.hpp"
#include "opentla/automata/prefix_machine.hpp"
#include "opentla/graph/state_graph.hpp"
#include "opentla/proof/report.hpp"

namespace opentla::replay {

/// `trace` refutes |= /\ constraints => target: every constraint machine
/// stays alive on every prefix of the trace, and the target machine is
/// alive on every proper prefix and dead on the whole trace.
inline ::testing::AssertionResult replays_as_refutation(
    const std::vector<const SafetyMachine*>& constraints, const SafetyMachine& target,
    const std::vector<State>& trace) {
  if (trace.empty()) return ::testing::AssertionFailure() << "empty trace";
  std::vector<Value> configs;
  for (const SafetyMachine* c : constraints) configs.push_back(c->initial(trace[0]));
  Value target_config = target.initial(trace[0]);
  for (std::size_t k = 0;; ++k) {
    for (std::size_t i = 0; i < constraints.size(); ++i) {
      if (!constraints[i]->alive(configs[i])) {
        return ::testing::AssertionFailure()
               << constraints[i]->name() << " dies at state " << k + 1;
      }
    }
    const bool last = k + 1 == trace.size();
    if (target.alive(target_config) == last) {
      return ::testing::AssertionFailure()
             << target.name() << (last ? " is alive at the last state "
                                       : " is already dead at state ")
             << k + 1 << " of " << trace.size();
    }
    if (last) return ::testing::AssertionSuccess();
    for (std::size_t i = 0; i < constraints.size(); ++i) {
      configs[i] = constraints[i]->step(configs[i], trace[k], trace[k + 1]);
    }
    target_config = target.step(target_config, trace[k], trace[k + 1]);
  }
}

/// Replays every product-inclusion refutation in `report`, the result of
/// verify_composition(vars, components, goal) with the default freeze
/// tuple: each failed H1[E_i] trace against C(E) /\ /\_j C(M_j) and E_i,
/// a failed H2a trace against C(E)_{+v} /\ /\_j C(M_j) and C(M).
/// `replayed` counts the traces.
inline ::testing::AssertionResult replays_inclusion_refutations(
    const VarTable& vars, const std::vector<AGSpec>& components, const AGSpec& goal,
    const ProofReport& report, std::size_t& replayed) {
  std::vector<std::shared_ptr<const SafetyMachine>> closures;
  std::set<VarId> hidden(goal.guarantee.hidden.begin(), goal.guarantee.hidden.end());
  std::set<VarId> mentioned = spec_variables(goal.assumption);
  for (const AGSpec& c : components) {
    closures.push_back(
        std::make_shared<PrefixMachine>(vars, prop1_closure(c.guarantee).closure));
    for (const CanonicalSpec* s : {&c.guarantee, &c.assumption}) {
      hidden.insert(s->hidden.begin(), s->hidden.end());
      const std::set<VarId> sv = spec_variables(*s);
      mentioned.insert(sv.begin(), sv.end());
    }
  }
  std::vector<VarId> plus_v;
  for (VarId v : mentioned) {
    if (!hidden.contains(v)) plus_v.push_back(v);
  }
  const auto env = std::make_shared<PrefixMachine>(vars, goal.assumption);
  const FreezeMachine frozen_env(env, plus_v);
  const PrefixMachine goal_closure(vars, prop1_closure(goal.guarantee).closure);
  replayed = 0;
  for (const Obligation& ob : report.obligations) {
    if (ob.discharged || ob.counterexample.empty()) continue;
    const bool h2a = ob.id == "H2a";
    std::vector<const SafetyMachine*> constraints = {h2a ? static_cast<const SafetyMachine*>(
                                                               &frozen_env)
                                                         : env.get()};
    for (const auto& c : closures) constraints.push_back(c.get());
    std::unique_ptr<PrefixMachine> component_env;
    const SafetyMachine* target = &goal_closure;
    if (!h2a) {
      std::size_t i = 0;
      while (i < components.size() && ob.id != "H1[" + components[i].assumption.name + "]") ++i;
      if (i == components.size()) continue;  // not a product inclusion (e.g. H2b)
      component_env = std::make_unique<PrefixMachine>(vars, components[i].assumption);
      target = component_env.get();
    }
    ::testing::AssertionResult r = replays_as_refutation(constraints, *target, ob.counterexample);
    if (!r) return r << " (" << ob.id << ")";
    ++replayed;
  }
  return ::testing::AssertionSuccess();
}

/// `trace` breaks E _|_ M: E and M are both alive before its last step
/// and both dead after it (for a one-state trace: both dead on it).
inline ::testing::AssertionResult replays_as_orthogonality_failure(
    const SafetyMachine& e, const SafetyMachine& m, const std::vector<State>& trace) {
  if (trace.empty()) return ::testing::AssertionFailure() << "empty trace";
  Value ce = e.initial(trace[0]);
  Value cm = m.initial(trace[0]);
  for (std::size_t k = 1; k < trace.size(); ++k) {
    if (!e.alive(ce) || !m.alive(cm)) {
      return ::testing::AssertionFailure() << "E or M already dead at state " << k;
    }
    ce = e.step(ce, trace[k - 1], trace[k]);
    cm = m.step(cm, trace[k - 1], trace[k]);
  }
  if (e.alive(ce) || m.alive(cm)) {
    return ::testing::AssertionFailure() << "not both dead at the last state";
  }
  return ::testing::AssertionSuccess();
}

/// Length (in states) of a shortest path in graph x machine from an
/// initial state to a state where `bad(before, after)` holds of the
/// machine configurations across the step (before is null for an initial
/// state); 0 when there is none. A layered search over explicit
/// (state, configuration) sets.
template <typename Bad>
std::size_t shortest_bad_trace(const StateGraph& graph, const SafetyMachine& machine, Bad bad) {
  std::set<std::pair<StateId, Value>> seen;
  std::vector<std::pair<StateId, Value>> layer;
  for (StateId s : graph.initial()) {
    Value c = machine.initial(graph.state(s));
    if (bad(nullptr, c)) return 1;
    if (seen.emplace(s, c).second) layer.emplace_back(s, std::move(c));
  }
  for (std::size_t depth = 2; !layer.empty(); ++depth) {
    std::vector<std::pair<StateId, Value>> next;
    for (const auto& [s, c] : layer) {
      for (StateId t : graph.successors(s)) {
        Value d = machine.step(c, graph.state(s), graph.state(t));
        if (bad(&c, d)) return depth;
        if (seen.emplace(t, d).second) next.emplace_back(t, std::move(d));
      }
    }
    layer = std::move(next);
  }
  return 0;
}

/// Shortest refutation of |= graph => target: the target machine dies.
inline std::size_t shortest_dead_trace(const StateGraph& graph, const SafetyMachine& target) {
  return shortest_bad_trace(graph, target, [&](const Value*, const Value& c) {
    return !target.alive(c);
  });
}

/// Shortest failure of |= graph => (E _|_ M): the first step after which
/// both machines are dead while both were alive before it (or an initial
/// state on which both are dead).
inline std::size_t shortest_orthogonality_failure(const StateGraph& graph,
                                                  const SafetyMachine& e,
                                                  const SafetyMachine& m) {
  // E's and M's configurations side by side, never dead: `bad` decides.
  class SideBySide final : public SafetyMachine {
   public:
    SideBySide(const SafetyMachine& e, const SafetyMachine& m) : e_(e), m_(m) {}
    Value initial(const State& s) const override {
      return Value::tuple({e_.initial(s), m_.initial(s)});
    }
    Value step(const Value& c, const State& s, const State& t) const override {
      return Value::tuple({e_.step(c.as_tuple()[0], s, t), m_.step(c.as_tuple()[1], s, t)});
    }
    bool alive(const Value&) const override { return true; }
    std::string name() const override { return "side-by-side"; }
    bool both(const Value& c, bool alive) const {
      return e_.alive(c.as_tuple()[0]) == alive && m_.alive(c.as_tuple()[1]) == alive;
    }

   private:
    const SafetyMachine& e_;
    const SafetyMachine& m_;
  };
  const SideBySide pair(e, m);
  return shortest_bad_trace(graph, pair, [&](const Value* before, const Value& after) {
    return pair.both(after, /*alive=*/false) &&
           (before == nullptr || pair.both(*before, /*alive=*/true));
  });
}

}  // namespace opentla::replay
