#include "opentla/check/inclusion.hpp"

#include <algorithm>
#include <deque>
#include <stdexcept>
#include <unordered_map>
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

namespace {
struct NodeKey {
  StateId state;
  Value configs;
  bool operator==(const NodeKey& other) const {
    return state == other.state && configs == other.configs;
  }
};
struct NodeKeyHash {
  std::size_t operator()(const NodeKey& k) const {
    return k.configs.hash() * 1099511628211ULL + k.state;
  }
};
}  // namespace

ConstraintExplorer::ConstraintExplorer(
    const VarTable& vars, std::vector<std::shared_ptr<const SafetyMachine>> constraints,
    std::vector<Mover> movers, Expr init_enum, std::vector<VarId> normalize,
    std::size_t max_nodes, run::RunBudget* budget)
    : vars_(&vars),
      constraints_(std::move(constraints)),
      movers_(std::move(movers)),
      normalize_(std::move(normalize)),
      budget_(budget) {
  OPENTLA_OBS_SPAN("ConstraintExplorer.explore");
  auto normalized = [&](State s) {
    for (VarId v : normalize_) s[v] = vars.domain(v).first();
    return s;
  };
  auto step_configs = [&](const Value& configs, const State& s, const State& t,
                          Value& out) {
    const Value::Tuple& parts = configs.as_tuple();
    Value::Tuple next;
    next.reserve(parts.size());
    for (std::size_t i = 0; i < constraints_.size(); ++i) {
      Value c = constraints_[i]->step(parts[i], s, t);
      if (!constraints_[i]->alive(c)) return false;
      next.push_back(std::move(c));
    }
    out = Value::tuple(std::move(next));
    return true;
  };

  std::unordered_map<NodeKey, std::uint32_t, NodeKeyHash> index;
  std::deque<std::uint32_t> frontier;

  auto add_node = [&](const State& visible, Value configs,
                      std::uint32_t parent) -> std::optional<std::uint32_t> {
    const StateId sid = visible_.intern(visible);
    NodeKey key{sid, configs};
    auto it = index.find(key);
    if (it != index.end()) return it->second;
    if (nodes_.size() >= (std::uint32_t)-2) {
      throw std::runtime_error("ConstraintExplorer: too many product nodes");
    }
    // Node budget reached: refuse the new node gracefully and latch the
    // stop reason — the product built so far is a sound partial result.
    if (nodes_.size() >= max_nodes) {
      stop_reason_ = run::StopReason::kStateBudget;
      return std::nullopt;
    }
    const std::uint32_t id = static_cast<std::uint32_t>(nodes_.size());
    OPENTLA_OBS_COUNT(ProductNodes);
    nodes_.push_back({sid, std::move(key.configs), parent});
    adjacency_.emplace_back();
    index.emplace(NodeKey{sid, nodes_.back().configs}, id);
    frontier.push_back(id);
    return id;
  };

  // --- Initial nodes ---
  {
    std::unordered_set<State, StateHash> seen;
    for (const State& raw :
         ActionSuccessors::states_satisfying(vars, init_enum, normalize_)) {
      State s = normalized(raw);
      if (!seen.insert(s).second) continue;
      Value::Tuple configs;
      bool alive = true;
      for (const auto& c : constraints_) {
        Value cfg = c->initial(s);
        if (!c->alive(cfg)) {
          alive = false;
          break;
        }
        configs.push_back(std::move(cfg));
      }
      if (!alive) continue;
      auto id = add_node(s, Value::tuple(std::move(configs)), UINT32_MAX);
      if (id) init_nodes_.push_back(*id);
    }
  }

  // --- Exploration ---
  while (!frontier.empty()) {
    if (stop_reason_ != run::StopReason::kCompleted) break;
    if (budget_ != nullptr && budget_->should_stop()) {
      stop_reason_ = budget_->reason();
      break;
    }
    const std::uint32_t uid = frontier.front();
    frontier.pop_front();
    const State s = visible_.get(nodes_[uid].state);  // copy: store may grow
    const Value configs = nodes_[uid].configs;
    const Value::Tuple& config_parts = configs.as_tuple();

    // Candidate successors: the movers' actions (with hidden sources drawn
    // from the owning machine's configuration) plus the stutter step, which
    // can only grow configurations (internal component moves).
    std::unordered_set<State, StateHash> candidates;
    candidates.insert(s);
    for (const Mover& m : movers_) {
      if (m.machine_index < 0) {
        m.generator->for_each_successor(
            s, [&](const State& t) { candidates.insert(normalized(t)); });
      } else {
        const Value sources =
            constraints_[m.machine_index]->mover_configs(config_parts[m.machine_index]);
        for (const Value& h : sources.as_tuple()) {
          State source = s;
          const Value::Tuple& hv = h.as_tuple();
          for (std::size_t i = 0; i < m.hidden.size(); ++i) source[m.hidden[i]] = hv[i];
          m.generator->for_each_successor(
              source, [&](const State& t) { candidates.insert(normalized(t)); });
        }
      }
    }

    for (const State& t : candidates) {
      Value next_configs;
      if (!step_configs(configs, s, t, next_configs)) continue;
      if (t == s && next_configs == configs) continue;  // no-op stutter
      auto vid = add_node(t, std::move(next_configs), uid);
      if (vid) {
        adjacency_[uid].push_back(*vid);
        ++num_edges_;
      }
    }
  }
  OPENTLA_OBS_GAUGE_MAX(PeakProductNodes, nodes_.size());
  if (stop_reason_ != run::StopReason::kCompleted && budget_ != nullptr) {
    budget_->request_stop(stop_reason_);
  }
}

std::vector<State> ConstraintExplorer::trace_to(std::uint32_t node) const {
  std::vector<State> out;
  for (std::uint32_t n = node; n != UINT32_MAX; n = nodes_[n].parent) {
    out.push_back(visible_.get(nodes_[n].state));
  }
  std::reverse(out.begin(), out.end());
  return out;
}

ConstraintExplorer::Verdict ConstraintExplorer::check_target(const SafetyMachine& target) const {
  OPENTLA_OBS_SPAN("ConstraintExplorer.check_target");
  OPENTLA_OBS_PHASE("check.inclusion");
  Verdict verdict;
  verdict.target_name = target.name();
  // A partial product makes every "holds" verdict on it partial too.
  verdict.stop_reason = stop_reason_;

  struct PairKey {
    std::uint32_t node;
    Value config;
    bool operator==(const PairKey& o) const { return node == o.node && config == o.config; }
  };
  struct PairKeyHash {
    std::size_t operator()(const PairKey& k) const {
      return k.config.hash() * 1099511628211ULL + k.node;
    }
  };

  std::unordered_set<PairKey, PairKeyHash> visited;
  // (product node, target config, node whose trace witnesses the path)
  std::deque<PairKey> frontier;

  for (std::uint32_t n : init_nodes_) {
    const State& s = visible_.get(nodes_[n].state);
    Value cfg = target.initial(s);
    if (!target.alive(cfg)) {
      verdict.holds = false;
      verdict.counterexample = trace_to(n);
      verdict.pairs_visited = visited.size();
      return verdict;
    }
    PairKey key{n, std::move(cfg)};
    if (visited.insert(key).second) {
      OPENTLA_OBS_COUNT(InclusionPairs);
      frontier.push_back(std::move(key));
    }
  }

  // Parent tracking for counterexample reconstruction.
  std::unordered_map<PairKey, PairKey, PairKeyHash> parent;

  while (!frontier.empty()) {
    if (budget_ != nullptr && budget_->should_stop()) {
      verdict.stop_reason = budget_->reason();
      break;
    }
    PairKey u = std::move(frontier.front());
    frontier.pop_front();
    const State& s = visible_.get(nodes_[u.node].state);
    for (std::uint32_t vnode : adjacency_[u.node]) {
      const State& t = visible_.get(nodes_[vnode].state);
      Value cfg = target.step(u.config, s, t);
      const bool dead = !target.alive(cfg);
      PairKey v{vnode, std::move(cfg)};
      if (!dead && !visited.insert(v).second) continue;
      OPENTLA_OBS_COUNT(InclusionPairs);
      parent.emplace(v, u);
      if (dead) {
        // Reconstruct the visible trace through the pair parents.
        std::vector<State> trace;
        PairKey cur = v;
        while (true) {
          trace.push_back(visible_.get(nodes_[cur.node].state));
          auto it = parent.find(cur);
          if (it == parent.end()) break;
          cur = it->second;
        }
        std::reverse(trace.begin(), trace.end());
        verdict.holds = false;
        verdict.counterexample = std::move(trace);
        verdict.pairs_visited = visited.size();
        return verdict;
      }
      frontier.push_back(std::move(v));
    }
  }
  verdict.holds = true;
  verdict.pairs_visited = visited.size();
  return verdict;
}

}  // namespace opentla
