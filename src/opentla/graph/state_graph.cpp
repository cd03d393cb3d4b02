#include "opentla/graph/state_graph.hpp"

#include <algorithm>
#include <deque>
#include <stdexcept>
#include <string>
#include <thread>

#include "opentla/obs/memory.hpp"
#include "opentla/obs/obs.hpp"
#include "opentla/par/explore.hpp"

namespace opentla {

StateGraph::StateGraph(const VarTable& vars, const std::vector<State>& init_states,
                       const SuccessorFn& succ, const ExploreOptions& opts)
    : vars_(&vars) {
  unsigned threads = opts.threads;
  if (threads == 0) {
    threads = std::thread::hardware_concurrency();
    if (threads == 0) threads = 1;
  }
  if (threads <= 1) {
    explore_serial(init_states, succ, opts.add_self_loops, opts.max_states, opts.budget);
    return;
  }
  par::ExploreResult r = par::explore(init_states, succ, opts, threads);
  store_ = std::move(r.store);
  init_ = std::move(r.init);
  adj_ = std::move(r.adjacency);
  stop_reason_ = r.stop_reason;
  account_adjacency();
}

void StateGraph::account_adjacency() {
  if (!obs::enabled()) return;
  adj_mem_.set(adj_.offsets.capacity() * sizeof(std::uint64_t) +
               adj_.targets.capacity() * sizeof(StateId));
}

std::uint64_t StateGraph::edge_id(StateId s, StateId t) const {
  if (s >= num_states()) {
    throw std::logic_error("StateGraph::edge_id: no state " + std::to_string(s));
  }
  const std::span<const StateId> out = successors(s);
  const auto it = std::lower_bound(out.begin(), out.end(), t);
  if (it == out.end() || *it != t) {
    throw std::logic_error("StateGraph::edge_id: no edge " + std::to_string(s) + " -> " +
                           std::to_string(t));
  }
  return adj_.offsets[s] + static_cast<std::uint64_t>(it - out.begin());
}

CsrAdjacency StateGraph::reverse() const {
  // Counting sort by target: predecessors come out ascending because the
  // sources are visited in id order.
  const std::size_t n = num_states();
  CsrAdjacency rev;
  rev.offsets.assign(n + 1, 0);
  for (StateId t : adj_.targets) ++rev.offsets[t + 1];
  for (std::size_t i = 0; i < n; ++i) rev.offsets[i + 1] += rev.offsets[i];
  rev.targets.resize(adj_.targets.size());
  std::vector<std::uint64_t> fill(rev.offsets.begin(), rev.offsets.end() - 1);
  for (StateId u = 0; u < n; ++u) {
    for (StateId v : successors(u)) rev.targets[fill[v]++] = u;
  }
  return rev;
}

void StateGraph::explore_serial(const std::vector<State>& init_states, const SuccessorFn& succ,
                                bool add_self_loops, std::size_t max_states,
                                run::RunBudget* budget) {
  OPENTLA_OBS_SPAN("StateGraph.explore");
  // The BFS frontier charges the frontier memory domain as it grows.
  std::deque<StateId, obs::CountingAllocator<StateId>> frontier{
      obs::CountingAllocator<StateId>(obs::MemDomain::Frontier)};
  for (const State& s : init_states) {
    // Capacity check BEFORE interning: a state past the cap is never added,
    // so the graph holds exactly min(reachable, max_states) states — the
    // same count the parallel engine produces at the same bound.
    if (store_.size() >= max_states) {
      const StateId known = store_.find(s);
      if (known == StateStore::kNone) {
        stop_reason_ = run::StopReason::kStateBudget;
        continue;
      }
      init_.push_back(known);
      continue;
    }
    const std::size_t before = store_.size();
    const StateId id = store_.intern(s);
    if (store_.size() > before) {
      OPENTLA_OBS_COUNT(StatesGenerated);
      frontier.push_back(id);
    }
    init_.push_back(id);
  }
  std::sort(init_.begin(), init_.end());
  init_.erase(std::unique(init_.begin(), init_.end()), init_.end());

  while (!frontier.empty()) {
    // A capped run stops at the first expansion that overflowed rather than
    // draining the frontier: the budget asked for "no more than N states",
    // not "N states plus every edge among them".
    if (stop_reason_ != run::StopReason::kCompleted) break;
    if (budget != nullptr && budget->should_stop()) {
      stop_reason_ = budget->reason();
      break;
    }
    OPENTLA_OBS_LEVEL_SET(FrontierSize, frontier.size());
    const StateId id = frontier.front();
    frontier.pop_front();
    // FIFO expansion of states numbered in discovery order visits ids in
    // ascending order, so this state's row is the next CSR row.
    if (id != adj_.num_nodes()) throw std::logic_error("StateGraph: BFS left id order");
    // Copy: store_ may reallocate while successors are interned.
    const State s = store_.get(id);
    // Successor ids go straight into the row; the engine, not the
    // provider, removes repeated emissions (sort + unique below).
    std::vector<StateId>& targets = adj_.targets;
    const std::size_t row = targets.size();
    succ(s, [&](const State& t) {
      if (store_.size() >= max_states) {
        const StateId known = store_.find(t);
        if (known == StateStore::kNone) {
          stop_reason_ = run::StopReason::kStateBudget;
          return;
        }
        targets.push_back(known);
        return;
      }
      const std::size_t before = store_.size();
      const StateId tid = store_.intern(t);
      if (store_.size() > before) {
        OPENTLA_OBS_COUNT(StatesGenerated);
        frontier.push_back(tid);
      }
      targets.push_back(tid);
    });
    if (add_self_loops) targets.push_back(id);
    const auto first = targets.begin() + static_cast<std::ptrdiff_t>(row);
    std::sort(first, targets.end());
    targets.erase(std::unique(first, targets.end()), targets.end());
    // Fanout = final deduped out-degree (incl. any stuttering self-loop);
    // the parallel engine observes the same quantity after renumbering,
    // so the histogram is engine-independent for a given spec.
    OPENTLA_OBS_HIST(SuccessorFanout, targets.size() - row);
    adj_.close_row();
  }
  // A partial run leaves discovered states unexpanded: empty rows.
  while (adj_.num_nodes() < store_.size()) adj_.close_row();
  OPENTLA_OBS_LEVEL_SET(FrontierSize, 0);
  OPENTLA_OBS_GAUGE_MAX(PeakGraphStates, store_.size());
  account_adjacency();
  if (stop_reason_ != run::StopReason::kCompleted && budget != nullptr) {
    // Latch the breach into the budget so obs counters and the flight
    // recorder see state-budget stops the same way they see deadline ones.
    budget->request_stop(stop_reason_);
  }
}

std::vector<StateId> StateGraph::shortest_path_to(
    const std::function<bool(StateId)>& goal) const {
  for (StateId s : init_) {
    if (goal(s)) return {s};
  }
  // Multi-source BFS.
  std::vector<StateId> parent(num_states(), StateStore::kNone);
  std::deque<StateId> queue;
  std::vector<bool> visited(num_states(), false);
  for (StateId s : init_) {
    visited[s] = true;
    queue.push_back(s);
  }
  while (!queue.empty()) {
    const StateId u = queue.front();
    queue.pop_front();
    for (StateId v : successors(u)) {
      if (visited[v]) continue;
      visited[v] = true;
      parent[v] = u;
      if (goal(v)) {
        std::vector<StateId> path = {v};
        for (StateId p = u; p != StateStore::kNone; p = parent[p]) path.push_back(p);
        std::reverse(path.begin(), path.end());
        return path;
      }
      queue.push_back(v);
    }
  }
  return {};
}

std::vector<StateId> StateGraph::path(StateId from, const std::function<bool(StateId)>& goal,
                                      const std::function<bool(StateId)>& filter) const {
  if (goal(from)) return {from};
  std::vector<StateId> parent(num_states(), StateStore::kNone);
  std::vector<bool> visited(num_states(), false);
  std::deque<StateId> queue = {from};
  visited[from] = true;
  while (!queue.empty()) {
    const StateId u = queue.front();
    queue.pop_front();
    for (StateId v : successors(u)) {
      if (visited[v]) continue;
      if (filter && !filter(v)) continue;
      visited[v] = true;
      parent[v] = u;
      if (goal(v)) {
        std::vector<StateId> path = {v};
        for (StateId p = u; p != StateStore::kNone && p != from; p = parent[p]) {
          path.push_back(p);
        }
        path.push_back(from);
        std::reverse(path.begin(), path.end());
        return path;
      }
      queue.push_back(v);
    }
  }
  return {};
}

}  // namespace opentla
