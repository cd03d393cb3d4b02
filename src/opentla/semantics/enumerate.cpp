#include "opentla/semantics/enumerate.hpp"

#include <unordered_map>

#include "opentla/obs/obs.hpp"
#include "opentla/state/state_space.hpp"

namespace opentla {

namespace {
void enumerate_states(const StateSpace& space, std::vector<State>& all) {
  space.for_each_state([&](const State& s) { all.push_back(s); });
}
}  // namespace

bool for_each_lasso(const VarTable& vars, std::size_t len,
                    const std::function<bool(const LassoBehavior&)>& fn) {
  StateSpace space(vars);
  std::vector<State> all;
  enumerate_states(space, all);

  std::vector<std::size_t> idx(len, 0);
  std::vector<State> states(len, all[0]);
  while (true) {
    for (std::size_t i = 0; i < len; ++i) states[i] = all[idx[i]];
    for (std::size_t loop = 0; loop < len; ++loop) {
      if (fn(LassoBehavior(states, loop))) return true;
    }
    std::size_t p = 0;
    for (; p < len; ++p) {
      if (++idx[p] < all.size()) break;
      idx[p] = 0;
    }
    if (p == len) return false;
  }
}

BoundedValidity check_validity_bounded(const VarTable& vars, const Formula& f,
                                       std::size_t max_len) {
  BoundedValidity result;
  Oracle oracle(vars);
  for (std::size_t len = 1; len <= max_len && result.valid; ++len) {
    // The first violation stops the whole enumeration, instead of spinning
    // through the remaining |S|^len * len lassos of this length.
    for_each_lasso(vars, len, [&](const LassoBehavior& sigma) {
      ++result.behaviors_checked;
      OPENTLA_OBS_COUNT(BehaviorsChecked);
      if (!oracle.evaluate(f, sigma)) {
        result.valid = false;
        result.violation = sigma;
        return true;
      }
      return false;
    });
  }
  return result;
}

LassoBehavior random_lasso(const VarTable& vars, std::size_t len, std::mt19937& rng) {
  std::vector<State> states;
  states.reserve(len);
  std::vector<Value> values(vars.size());
  for (std::size_t i = 0; i < len; ++i) {
    for (VarId v = 0; v < vars.size(); ++v) {
      const Domain& d = vars.domain(v);
      values[v] = d[std::uniform_int_distribution<std::size_t>(0, d.size() - 1)(rng)];
    }
    states.emplace_back(values);
  }
  const std::size_t loop = std::uniform_int_distribution<std::size_t>(0, len - 1)(rng);
  return LassoBehavior(std::move(states), loop);
}

LassoBehavior random_graph_lasso(const StateGraph& g, std::mt19937& rng,
                                 std::size_t max_steps) {
  const std::vector<StateId>& inits = g.initial();
  StateId cur = inits[std::uniform_int_distribution<std::size_t>(0, inits.size() - 1)(rng)];
  std::vector<StateId> walk = {cur};
  // Lookup-only: iteration order of this map never influences the walk, so
  // the result is a pure function of (g, rng state).
  std::unordered_map<StateId, std::size_t> first_seen = {{cur, 0}};
  for (std::size_t step = 0; step < max_steps; ++step) {
    const std::span<const StateId> succ = g.successors(cur);
    if (succ.empty()) break;  // only possible without self-loops
    cur = succ[std::uniform_int_distribution<std::size_t>(0, succ.size() - 1)(rng)];
    auto it = first_seen.find(cur);
    if (it != first_seen.end()) {
      OPENTLA_OBS_HIST(LassoWalkLength, walk.size());
      std::vector<State> states;
      states.reserve(walk.size());
      for (StateId s : walk) states.push_back(g.state(s));
      return LassoBehavior(std::move(states), it->second);
    }
    first_seen.emplace(cur, walk.size());
    walk.push_back(cur);
  }
  // Close on the final state's stuttering self-loop.
  OPENTLA_OBS_HIST(LassoWalkLength, walk.size());
  std::vector<State> states;
  states.reserve(walk.size());
  for (StateId s : walk) states.push_back(g.state(s));
  return LassoBehavior(std::move(states), walk.size() - 1);
}

}  // namespace opentla
