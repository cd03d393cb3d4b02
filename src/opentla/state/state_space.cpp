#include "opentla/state/state_space.hpp"

#include <stdexcept>


namespace opentla {

std::uint64_t StateSpace::total_states() const {
  std::uint64_t total = 1;
  for (VarId v = 0; v < vars_->size(); ++v) {
    const std::uint64_t d = vars_->domain(v).size();
    if (d != 0 && total > (std::uint64_t{1} << 62) / d) {
      throw std::runtime_error("StateSpace::total_states: overflow");
    }
    total *= d;
  }
  return total;
}

State StateSpace::first_state() const {
  std::vector<Value> values;
  values.reserve(vars_->size());
  for (VarId v = 0; v < vars_->size(); ++v) values.push_back(vars_->domain(v).first());
  return State(std::move(values));
}

void StateSpace::for_each_state(const std::function<void(const State&)>& fn) const {
  std::vector<VarId> all = vars_->all_vars();
  for_each_completion(first_state(), all, [&](const State& s) {
    fn(s);
    return false;
  });
}

bool StateSpace::for_each_completion(const State& base, const std::vector<VarId>& free_vars,
                                     const std::function<bool(const State&)>& fn) const {
  State cur = base;
  // Odometer enumeration over the free variables, index 0 fastest-varying.
  std::vector<std::size_t> idx(free_vars.size(), 0);
  for (std::size_t i = 0; i < free_vars.size(); ++i) {
    cur[free_vars[i]] = vars_->domain(free_vars[i])[0];
  }
  while (true) {
    if (fn(cur)) return true;
    std::size_t pos = 0;
    for (; pos < free_vars.size(); ++pos) {
      const VarId v = free_vars[pos];
      if (++idx[pos] < vars_->domain(v).size()) {
        cur[v] = vars_->domain(v)[idx[pos]];
        break;
      }
      idx[pos] = 0;
      cur[v] = vars_->domain(v)[0];
    }
    if (pos == free_vars.size()) return false;
  }
}

}  // namespace opentla
