#include "opentla/graph/fair_cycle.hpp"

#include <algorithm>
#include <stdexcept>

#include "opentla/obs/obs.hpp"

namespace opentla {

namespace {

// An edge witness inside a component.
struct EdgeWitness {
  StateId from;
  StateId to;
};

// Marks `nodes` in a membership buffer for one scope.
struct Mark {
  std::vector<char>& member;
  const std::vector<StateId>& nodes;
  Mark(std::vector<char>& m, const std::vector<StateId>& n) : member(m), nodes(n) {
    for (StateId s : nodes) member[s] = 1;
  }
  ~Mark() {
    for (StateId s : nodes) member[s] = 0;
  }
  Mark(const Mark&) = delete;
  Mark& operator=(const Mark&) = delete;
};

}  // namespace

FairCycleSearch::FairCycleSearch(const StateGraph& g, const FairCycleQuery& q)
    : g_(g), q_(q), member_(g.num_states(), 0) {
  region_.node_ok = [this](StateId s) { return member_[s] && q_.filter.node(s); };
  region_.edge_ok = q.filter.edge_ok;
}

bool FairCycleSearch::component_hosts_fair_cycle(const std::vector<StateId>& comp,
                                                 std::vector<StateId>& cycle_out) {
  std::vector<StateId> remaining;
  {
    const Mark mark(member_, comp);
    if (const std::optional<bool> verdict = check_marked(comp, cycle_out, remaining)) {
      return *verdict;
    }
  }
  // The triggers are removed: re-decompose what is left, one component at
  // a time, each with only its own nodes marked.
  std::vector<std::vector<StateId>> subs;
  {
    const Mark mark(member_, remaining);
    subs = strongly_connected_components(g_, remaining, region_, scc_);
  }
  for (const std::vector<StateId>& c : subs) {
    if (component_hosts_fair_cycle(c, cycle_out)) return true;
  }
  return false;
}

std::vector<StateId> FairCycleSearch::path_in_component(StateId from, StateId to) {
  // BFS in successor order: without an edge filter a leg is the path
  // StateGraph::path picks. Only visited entries of parent_ are reset.
  if (parent_.empty()) parent_.assign(g_.num_states(), StateStore::kNone);
  std::vector<StateId> visited = {from};
  parent_[from] = from;
  for (std::size_t head = 0; head < visited.size() && parent_[to] == StateStore::kNone;
       ++head) {
    const StateId u = visited[head];
    for (StateId v : g_.successors(u)) {
      if (parent_[v] != StateStore::kNone || !region_.node(v) || !region_.edge(u, v)) continue;
      parent_[v] = u;
      visited.push_back(v);
    }
  }
  std::vector<StateId> path;
  if (parent_[to] != StateStore::kNone) {
    for (StateId s = to; s != from; s = parent_[s]) path.push_back(s);
    path.push_back(from);
    std::reverse(path.begin(), path.end());
  }
  for (StateId s : visited) parent_[s] = StateStore::kNone;
  return path;
}

std::optional<bool> FairCycleSearch::check_marked(const std::vector<StateId>& comp,
                                                  std::vector<StateId>& cycle_out,
                                                  std::vector<StateId>& remaining) {
  OPENTLA_OBS_COUNT(LassoCandidates);

  if (!component_has_cycle(g_, comp, region_)) return false;

  // --- Streett pass ---
  std::vector<char> needs_discharge(q_.streett.size(), 0);
  std::vector<EdgeWitness> discharge(q_.streett.size());
  for (std::size_t i = 0; i < q_.streett.size(); ++i) {
    const StreettObligation& ob = q_.streett[i];
    bool has_trigger = std::any_of(comp.begin(), comp.end(),
                                   [&](StateId s) { return ob.trigger(s); });
    if (!has_trigger) continue;
    bool found = false;
    for (StateId u : comp) {
      for (StateId v : g_.successors(u)) {
        if (!member_[v] || !q_.filter.edge(u, v)) continue;
        if (ob.step_ok(u, v)) {
          discharge[i] = {u, v};
          found = true;
          break;
        }
      }
      if (found) break;
    }
    if (found) {
      needs_discharge[i] = 1;
      continue;
    }
    // The pair's triggers cannot be discharged inside this SCC: remove them
    // and re-decompose (the caller does, once this component is unmarked).
    for (StateId s : comp) {
      if (!ob.trigger(s)) remaining.push_back(s);
    }
    if (remaining.empty()) return false;
    return std::nullopt;
  }

  // --- Buechi pass ---
  // Witnesses to visit: a node (to == kNone) or an edge.
  std::vector<EdgeWitness> witnesses;
  for (const BuchiObligation& ob : q_.buchi) {
    bool satisfied = false;
    if (ob.state_ok) {
      for (StateId s : comp) {
        if (ob.state_ok(s)) {
          witnesses.push_back({s, StateStore::kNone});
          satisfied = true;
          break;
        }
      }
    }
    if (!satisfied && ob.step_ok) {
      for (StateId u : comp) {
        for (StateId v : g_.successors(u)) {
          if (!member_[v] || !q_.filter.edge(u, v)) continue;
          if (ob.step_ok(u, v)) {
            witnesses.push_back({u, v});
            satisfied = true;
            break;
          }
        }
        if (satisfied) break;
      }
    }
    // Shrinking the SCC cannot create a Buechi witness, so fail outright.
    if (!satisfied) return false;
  }
  for (std::size_t i = 0; i < q_.streett.size(); ++i) {
    if (needs_discharge[i]) witnesses.push_back(discharge[i]);
  }

  // --- Cycle construction: stitch witnesses into a closed walk ---
  if (witnesses.empty()) {
    // Any cycle in the SCC will do; find one allowed edge and close it.
    for (StateId u : comp) {
      for (StateId v : g_.successors(u)) {
        if (!member_[v] || !q_.filter.edge(u, v)) continue;
        witnesses.push_back({u, v});
        break;
      }
      if (!witnesses.empty()) break;
    }
  }

  std::vector<StateId> walk;
  const StateId anchor = witnesses.front().from;
  walk.push_back(anchor);
  auto extend_to = [&](StateId target) {
    if (walk.back() == target) return;
    const std::vector<StateId> leg = path_in_component(walk.back(), target);
    if (leg.empty()) {
      throw std::logic_error("fair_cycle: SCC members not mutually reachable");
    }
    walk.insert(walk.end(), leg.begin() + 1, leg.end());
  };
  for (const EdgeWitness& w : witnesses) {
    extend_to(w.from);
    if (w.to != StateStore::kNone) walk.push_back(w.to);
  }
  // Close the cycle back to the anchor.
  if (walk.back() != anchor) {
    extend_to(anchor);
    walk.pop_back();  // anchor repeats at the wrap-around
  } else if (walk.size() > 1) {
    walk.pop_back();
  }
  // A single-node walk denotes the self-loop on the anchor; if the anchor
  // has no allowed self-loop, route the cycle through a neighbor (the SCC
  // is strongly connected, so a round trip exists).
  if (walk.size() == 1) {
    bool self_loop = false;
    for (StateId v : g_.successors(anchor)) {
      if (v == anchor && q_.filter.edge(anchor, anchor)) {
        self_loop = true;
        break;
      }
    }
    if (!self_loop) {
      for (StateId v : g_.successors(anchor)) {
        if (v != anchor && member_[v] && q_.filter.edge(anchor, v)) {
          walk.push_back(v);
          break;
        }
      }
      if (walk.size() == 1) return false;  // no outgoing edge at all
      extend_to(anchor);
      walk.pop_back();
    }
  }
  cycle_out = std::move(walk);
  return true;
}

std::optional<Lasso> find_fair_cycle(const StateGraph& g, const FairCycleQuery& q) {
  OPENTLA_OBS_SPAN("find_fair_cycle");
  // Every node of a StateGraph is reachable from an initial state by
  // construction, and only the *cycle* must satisfy the query's subgraph
  // restriction (the prefix runs on the unrestricted graph). So the SCC
  // decomposition of the restricted subgraph is rooted at every node.
  std::vector<StateId> roots(g.num_states());
  for (std::size_t i = 0; i < roots.size(); ++i) roots[i] = static_cast<StateId>(i);
  std::vector<std::vector<StateId>> components =
      strongly_connected_components(g, roots, q.filter);
  FairCycleSearch search(g, q);
  for (const std::vector<StateId>& comp : components) {
    std::vector<StateId> cycle;
    if (!search.component_hosts_fair_cycle(comp, cycle)) continue;
    Lasso lasso;
    lasso.cycle = std::move(cycle);
    const StateId anchor = lasso.cycle.front();
    lasso.prefix = g.shortest_path_to([&](StateId s) { return s == anchor; });
    return lasso;
  }
  return std::nullopt;
}

}  // namespace opentla
