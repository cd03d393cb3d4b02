#include "opentla/check/inclusion.hpp"

#include <algorithm>
#include <unordered_set>

#include "opentla/obs/obs.hpp"

namespace opentla {

Mover mover_from_spec(const VarTable& vars, const CanonicalSpec& spec, int constraint_index,
                      const std::vector<VarId>& normalized, const std::vector<Expr>& steps) {
  Mover m;
  // Normalized variables other than this component's own hidden ones are
  // tracked by other machines; never enumerate them.
  std::vector<VarId> pinned;
  for (VarId v : normalized) {
    if (std::find(spec.hidden.begin(), spec.hidden.end(), v) == spec.hidden.end()) {
      pinned.push_back(v);
    }
  }
  Expr action = spec.next;
  if (!steps.empty()) {
    std::vector<Expr> conj = {spec.next};
    conj.insert(conj.end(), steps.begin(), steps.end());
    action = ex::land(std::move(conj));
  }
  m.generator = std::make_shared<ActionSuccessors>(vars, std::move(action), std::move(pinned));
  m.hidden = spec.hidden;
  m.machine_index = spec.has_hidden() ? constraint_index : -1;
  m.label = spec.name;
  return m;
}

ConstraintExplorer::ConstraintExplorer(
    const VarTable& vars, const std::vector<std::shared_ptr<const SafetyMachine>>& constraints,
    const std::vector<Mover>& movers, const Expr& init_enum, const std::vector<VarId>& normalize,
    const ExploreOptions& opts)
    : budget_(opts.budget) {
  OPENTLA_OBS_SPAN("ConstraintExplorer.explore");
  const std::size_t width = vars.size();
  auto normalize_in = [&](std::vector<Value>& values) {
    for (VarId v : normalize) values[v] = vars.domain(v).first();
  };

  std::vector<State> init_records;
  for (const State& raw : ActionSuccessors::states_satisfying(vars, init_enum, normalize)) {
    std::vector<Value> record = raw.values();
    normalize_in(record);
    const State s(record);
    bool alive = true;
    for (const auto& c : constraints) {
      Value config = c->initial(s);
      if (!c->alive(config)) {
        alive = false;
        break;
      }
      record.push_back(std::move(config));
    }
    if (alive) init_records.emplace_back(std::move(record));
  }

  // The successors of a record: every distinct candidate t of the movers
  // (with hidden sources drawn from the owning machine's configuration)
  // and the stutter step, which can only grow configurations (internal
  // component moves), with the configuration tuple stepped along s -> t.
  auto successors = [&](const State& record, const std::function<void(const State&)>& emit) {
    const State s(std::vector<Value>(record.values().begin(),
                                     record.values().begin() + static_cast<std::ptrdiff_t>(width)));
    std::unordered_set<State, StateHash> candidates;
    auto consider = [&](const State& raw) {
      std::vector<Value> next = raw.values();
      normalize_in(next);
      auto [it, fresh] = candidates.emplace(next);
      if (!fresh) return;
      OPENTLA_OBS_COUNT(ProductSteps);
      for (std::size_t i = 0; i < constraints.size(); ++i) {
        Value config = constraints[i]->step(record[static_cast<VarId>(width + i)], s, *it);
        if (!constraints[i]->alive(config)) return;
        next.push_back(std::move(config));
      }
      State t(std::move(next));
      if (t == record) return;  // no-op stutter
      emit(t);
    };
    consider(s);
    for (const Mover& m : movers) {
      if (m.machine_index < 0) {
        m.generator->for_each_emission(s, consider);
        continue;
      }
      const Value sources = constraints[m.machine_index]->mover_configs(
          record[static_cast<VarId>(width + m.machine_index)]);
      for (const Value& h : sources.as_tuple()) {
        State source = s;
        const Value::Tuple& hv = h.as_tuple();
        for (std::size_t i = 0; i < m.hidden.size(); ++i) source[m.hidden[i]] = hv[i];
        m.generator->for_each_emission(source, consider);
      }
    }
  };

  ExploreOptions product_opts = opts;
  product_opts.threads = 1;
  product_opts.add_self_loops = false;
  graph_.emplace(vars, init_records, successors, product_opts);
  OPENTLA_OBS_COUNT_N(ProductNodes, graph_->num_states());
  OPENTLA_OBS_GAUGE_MAX(PeakProductNodes, graph_->num_states());
}

ConstraintExplorer::Verdict ConstraintExplorer::check_target(const SafetyMachine& target) const {
  OPENTLA_OBS_SPAN("ConstraintExplorer.check_target");
  OPENTLA_OBS_PHASE("check.inclusion");
  return find_dead_pair(*graph_, target, budget_);
}

}  // namespace opentla
