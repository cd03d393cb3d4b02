#include "opentla/check/pair_search.hpp"

#include <algorithm>

#include "opentla/obs/obs.hpp"

namespace opentla {

PairSearchResult find_dead_pair(const StateGraph& graph, const SafetyMachine& machine,
                                run::RunBudget* budget) {
  PairSearchResult result;
  // A search over a partial graph is partial too; a counterexample found
  // on one is still real.
  result.stop_reason = graph.stop_reason();
  // A pair record is <<graph state id, configuration>>.
  StateStore pairs;
  std::vector<StateId> parent;  // pair id -> the pair it was reached from
  const auto node_of = [](const State& pair) { return static_cast<StateId>(pair[0].as_int()); };
  const auto add = [&](StateId node, Value config, StateId from) {
    const std::size_t before = pairs.size();
    pairs.intern(State({Value::integer(node), std::move(config)}));
    if (pairs.size() > before) {
      OPENTLA_OBS_COUNT(InclusionPairs);
      parent.push_back(from);
    }
  };
  // The trace through `from`'s ancestors, then `last`.
  const auto refute = [&](StateId from, State last) {
    result.counterexample.push_back(std::move(last));
    for (StateId p = from; p != StateStore::kNone; p = parent[p]) {
      result.counterexample.push_back(graph.state(node_of(pairs.get(p, 1))));
    }
    std::reverse(result.counterexample.begin(), result.counterexample.end());
    result.holds = false;
    result.pairs_visited = pairs.size();
    return std::move(result);
  };

  for (StateId node : graph.initial()) {
    State s = graph.state(node);
    Value config = machine.initial(s);
    if (!machine.alive(config)) return refute(StateStore::kNone, std::move(s));
    add(node, std::move(config), StateStore::kNone);
  }
  // Pair ids are assigned in discovery order: expanding them in id order
  // is the FIFO of a breadth-first search.
  for (StateId p = 0; p < pairs.size(); ++p) {
    if (budget != nullptr && budget->should_stop()) {
      result.stop_reason = budget->reason();
      break;
    }
    const State pair = pairs.get(p);
    const StateId node = node_of(pair);
    const State s = graph.state(node);
    for (StateId succ : graph.successors(node)) {
      State t = graph.state(succ);
      Value config = machine.step(pair[1], s, t);
      if (!machine.alive(config)) return refute(p, std::move(t));
      add(succ, std::move(config), p);
    }
  }
  result.holds = result.stop_reason == run::StopReason::kCompleted;
  result.pairs_visited = pairs.size();
  return result;
}

}  // namespace opentla
