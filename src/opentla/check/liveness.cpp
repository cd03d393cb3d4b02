#include "opentla/check/liveness.hpp"

#include <algorithm>
#include <deque>

#include "opentla/expr/eval.hpp"
#include "opentla/graph/scc.hpp"
#include "opentla/obs/obs.hpp"

namespace opentla {

LeadsToResult check_leads_to(const StateGraph& graph, const std::vector<Fairness>& fairness,
                             const Expr& p, const Expr& q) {
  OPENTLA_OBS_SPAN("check_leads_to");
  OPENTLA_OBS_PHASE("check.leadsto");
  LeadsToResult result;
  const VarTable& vars = graph.vars();

  EvalContext ctx;
  ctx.vars = &vars;

  std::vector<signed char> is_q(graph.num_states(), -1);
  auto q_at = [&](StateId s) {
    if (is_q[s] < 0) {
      // Local copy: state() decodes by value from the store's arena.
      const State cur = graph.state(s);
      ctx.current = &cur;
      is_q[s] = eval_bool(q, ctx) ? 1 : 0;
    }
    return is_q[s] == 1;
  };

  // Fair cycles inside the Q-free subgraph.
  FairnessCompiler compiler(graph);
  FairCycleQuery query;
  compiler.add_constraints(fairness, query);
  query.filter.node_ok = [&](StateId s) { return !q_at(s); };

  std::vector<StateId> roots(graph.num_states());
  for (std::size_t i = 0; i < roots.size(); ++i) roots[i] = static_cast<StateId>(i);
  std::vector<char> cycle_state(graph.num_states(), 0);
  std::vector<StateId> a_cycle;  // one witness cycle for the report
  for (const std::vector<StateId>& comp :
       strongly_connected_components(graph, roots, query.filter)) {
    std::vector<StateId> cycle;
    if (component_hosts_fair_cycle(graph, query, comp, cycle)) {
      for (StateId s : cycle) cycle_state[s] = 1;
      if (a_cycle.empty()) a_cycle = cycle;
    }
  }
  if (a_cycle.empty()) {
    result.holds = true;
    return result;
  }

  // Backward reachability through Q-free states: which states can escape
  // into a Q-free fair cycle without ever visiting Q?
  std::vector<std::vector<StateId>> reverse(graph.num_states());
  for (StateId u = 0; u < graph.num_states(); ++u) {
    if (q_at(u)) continue;
    for (StateId v : graph.successors(u)) {
      if (!q_at(v)) reverse[v].push_back(u);
    }
  }
  std::vector<char> escapes(graph.num_states(), 0);
  std::deque<StateId> frontier;
  for (StateId s = 0; s < graph.num_states(); ++s) {
    if (cycle_state[s]) {
      escapes[s] = 1;
      frontier.push_back(s);
    }
  }
  while (!frontier.empty()) {
    const StateId v = frontier.front();
    frontier.pop_front();
    for (StateId u : reverse[v]) {
      if (!escapes[u]) {
        escapes[u] = 1;
        frontier.push_back(u);
      }
    }
  }

  // A violation needs a reachable P /\ ~Q state that escapes. (Every graph
  // node is reachable by construction.)
  for (StateId s = 0; s < graph.num_states(); ++s) {
    if (!escapes[s] || q_at(s)) continue;
    const State cur = graph.state(s);
    ctx.current = &cur;
    if (!eval_bool(p, ctx)) continue;
    // Reconstruct: init -> s, then s -> cycle through Q-free states.
    std::vector<StateId> to_p = graph.shortest_path_to([&](StateId t) { return t == s; });
    std::vector<StateId> to_cycle = graph.path(
        s, [&](StateId t) { return cycle_state[t] != 0; },
        [&](StateId t) { return !q_at(t); });
    // Recover the particular cycle this entry reaches.
    const StateId entry = to_cycle.back();
    std::vector<StateId> cycle = a_cycle;
    if (!cycle_state[entry] ||
        std::find(a_cycle.begin(), a_cycle.end(), entry) == a_cycle.end()) {
      // Entry hits some other fair cycle; recompute one through it.
      for (const std::vector<StateId>& comp :
           strongly_connected_components(graph, {entry}, query.filter)) {
        std::vector<StateId> c;
        if (component_hosts_fair_cycle(graph, query, comp, c) &&
            std::find(comp.begin(), comp.end(), entry) != comp.end()) {
          cycle = c;
          // Extend the prefix from the entry to the recomputed cycle.
          std::vector<StateId> more = graph.path(
              entry, [&](StateId t) { return std::find(c.begin(), c.end(), t) != c.end(); },
              [&](StateId t) { return !q_at(t); });
          to_cycle.insert(to_cycle.end(), more.begin() + 1, more.end());
          break;
        }
      }
    }
    result.holds = false;
    for (StateId t : to_p) result.counterexample_prefix.push_back(graph.state(t));
    for (std::size_t i = 1; i < to_cycle.size(); ++i) {
      result.counterexample_prefix.push_back(graph.state(to_cycle[i]));
    }
    for (StateId t : cycle) result.counterexample_cycle.push_back(graph.state(t));
    return result;
  }
  result.holds = true;
  return result;
}

bool FairnessCompiler::Compiled::enabled(StateId s) {
  signed char& cached = enabled_cache[s];
  if (cached < 0) {
    cached = gen->enabled(graph->state(s)) ? 1 : 0;
  }
  return cached == 1;
}

bool FairnessCompiler::Compiled::step(StateId s, StateId t) {
  const std::uint64_t key = (static_cast<std::uint64_t>(s) << 32) | t;
  auto it = step_cache.find(key);
  if (it == step_cache.end()) {
    const bool result = eval_action(act, graph->vars(), graph->state(s), graph->state(t));
    it = step_cache.emplace(key, result).first;
  }
  return it->second;
}

std::shared_ptr<FairnessCompiler::Compiled> FairnessCompiler::compile(const Fairness& f) {
  auto unit = std::make_shared<Compiled>();
  unit->act = action_changing(f.action, f.sub);
  unit->gen = std::make_shared<ActionSuccessors>(graph_->vars(), unit->act);
  unit->enabled_cache.assign(graph_->num_states(), -1);
  unit->graph = graph_;
  units_.push_back(unit);
  return unit;
}

BuchiObligation FairnessCompiler::constraint_wf(const Fairness& f) {
  auto unit = compile(f);
  BuchiObligation ob;
  ob.label = f.label.empty() ? "WF" : f.label;
  ob.state_ok = [unit](StateId s) { return !unit->enabled(s); };
  ob.step_ok = [unit](StateId s, StateId t) { return unit->step(s, t); };
  return ob;
}

StreettObligation FairnessCompiler::constraint_sf(const Fairness& f) {
  auto unit = compile(f);
  StreettObligation ob;
  ob.label = f.label.empty() ? "SF" : f.label;
  ob.trigger = [unit](StateId s) { return unit->enabled(s); };
  ob.step_ok = [unit](StateId s, StateId t) { return unit->step(s, t); };
  return ob;
}

void FairnessCompiler::add_constraints(const std::vector<Fairness>& fs, FairCycleQuery& query) {
  for (const Fairness& f : fs) {
    if (f.kind == Fairness::Kind::Weak) {
      query.buchi.push_back(constraint_wf(f));
    } else {
      query.streett.push_back(constraint_sf(f));
    }
  }
}

namespace {
// Conjoins a condition into a possibly-null filter function.
template <typename Fn>
void conjoin(std::function<Fn>& slot, std::function<Fn> extra) {
  if (!slot) {
    slot = std::move(extra);
    return;
  }
  std::function<Fn> base = std::move(slot);
  if constexpr (std::is_same_v<Fn, bool(StateId)>) {
    slot = [base, extra](StateId s) { return base(s) && extra(s); };
  } else {
    slot = [base, extra](StateId s, StateId t) { return base(s, t) && extra(s, t); };
  }
}
}  // namespace

void FairnessCompiler::restrict_to_violation(const Fairness& f, FairCycleQuery& query) {
  auto unit = compile(f);
  // Either way the cycle must contain no <A>_v step.
  conjoin<bool(StateId, StateId)>(
      query.filter.edge_ok,
      [unit](StateId s, StateId t) { return !unit->step(s, t); });
  if (f.kind == Fairness::Kind::Weak) {
    // ~WF: <A>_v enabled at every state of the cycle. Restricting the whole
    // subgraph to enabled states is sound for cycle search because only the
    // cycle part must satisfy the restriction; the prefix is recomputed on
    // the unrestricted graph by find_fair_cycle.
    conjoin<bool(StateId)>(query.filter.node_ok,
                           [unit](StateId s) { return unit->enabled(s); });
  } else {
    // ~SF: <A>_v enabled infinitely often along the cycle.
    BuchiObligation ob;
    ob.label = "~" + (f.label.empty() ? std::string("SF") : f.label);
    ob.state_ok = [unit](StateId s) { return unit->enabled(s); };
    query.buchi.push_back(std::move(ob));
  }
}

}  // namespace opentla
