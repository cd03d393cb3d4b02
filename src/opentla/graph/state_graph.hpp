// opentla/graph/state_graph.hpp
//
// Explicit reachable-state graphs. A StateGraph is built from a set of
// initial states and a successor provider by breadth-first exploration.
// Because every canonical-form specification's [][N]_v admits stuttering,
// each node carries an implicit self-loop; they are materialized so that
// liveness analysis sees the stuttering behaviors.
//
// Exploration can run on one thread (the classic BFS) or on a worker pool
// (opentla/par). The parallel engine renumbers its result canonically, so
// the graph — state ids, adjacency order, initial() order — is bit-identical
// to the serial BFS regardless of thread count; downstream SCC, fair-cycle,
// and trace code never observes which engine ran.
//
// A record in the store is a state of vars(), optionally followed by
// trailing values the exploration carries along: an A/G product graph
// (check/inclusion) appends one safety-machine configuration per
// constraint machine. The successor function sees whole records; state()
// decodes only the state of vars().
//
// Adjacency is compressed sparse row (CSR): node s's successors are
// targets[offsets[s] .. offsets[s+1]), sorted and duplicate-free, and an
// index into `targets` is the edge's dense id. Per-edge data (fairness
// step labels, see check/liveness) lives in flat arrays indexed by edge id.

#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "opentla/run/budget.hpp"
#include "opentla/state/state.hpp"
#include "opentla/state/var_table.hpp"

namespace opentla {

/// How to explore a state space. Threaded through the checking stack
/// (compose, composition_theorem, tlacheck --threads).
struct ExploreOptions {
  /// Worker threads: 1 = the serial BFS (default), 0 = hardware
  /// concurrency, N > 1 = a pool of N workers with work stealing. With
  /// threads != 1 the successor function must be safe to call concurrently
  /// on distinct states (the engine's ActionSuccessors-based providers are:
  /// they evaluate immutable expression trees with per-call scratch state).
  unsigned threads = 1;
  /// Cap on reached states. Hitting the cap is not an error: exploration
  /// stops gracefully with StopReason::kStateBudget and the graph holds
  /// exactly min(reachable, max_states) states — the same count for the
  /// serial and parallel engines at the same bound.
  std::size_t max_states = 2'000'000;
  /// Materialize the stuttering self-loop on every node.
  bool add_self_loops = true;
  /// Optional run budget (deadline / RSS ceiling / signal stop). Polled
  /// during exploration; a breach halts expansion and surfaces as
  /// StateGraph::stop_reason(). Not owned.
  run::RunBudget* budget = nullptr;
};

/// Compressed sparse row adjacency over nodes 0 .. num_nodes()-1. Node s's
/// neighbors are targets[offsets[s] .. offsets[s+1]); that index is the
/// edge's dense id. Used for the forward graph and its reverse.
struct CsrAdjacency {
  std::vector<std::uint64_t> offsets{0};  // num_nodes() + 1 entries
  std::vector<StateId> targets;

  std::size_t num_nodes() const { return offsets.size() - 1; }
  std::span<const StateId> neighbors(StateId s) const {
    return {targets.data() + offsets[s], targets.data() + offsets[s + 1]};
  }
  /// Closes the row of the next node: its neighbors are the targets
  /// appended since the previous row was closed.
  void close_row() { offsets.push_back(targets.size()); }
};

class StateGraph {
 public:
  using SuccessorFn = std::function<void(const State&, const std::function<void(const State&)>&)>;

  /// Explores from `init_states` using `succ`, configured by `opts`
  /// (serial or parallel, self-loops, state cap, budget). The resulting
  /// graph is identical for every opts.threads value. Reaching
  /// opts.max_states stops exploration gracefully (see stop_reason()).
  StateGraph(const VarTable& vars, const std::vector<State>& init_states, const SuccessorFn& succ,
             const ExploreOptions& opts = {});

  const VarTable& vars() const { return *vars_; }
  const StateStore& store() const { return store_; }
  std::size_t num_states() const { return adj_.num_nodes(); }
  std::size_t num_edges() const { return adj_.targets.size(); }
  const std::vector<StateId>& initial() const { return init_; }
  /// The successors of s, sorted ascending and without duplicates. An
  /// unexpanded frontier state of a partial graph has none.
  std::span<const StateId> successors(StateId s) const { return adj_.neighbors(s); }
  /// Dense id of s's first out-edge: successors(s)[i] is edge
  /// edge_begin(s) + i, and ids run 0 .. num_edges()-1 over the graph.
  std::uint64_t edge_begin(StateId s) const { return adj_.offsets[s]; }
  /// The id of edge s -> t. Throws std::logic_error when t is not a
  /// successor of s: a non-edge never aliases another edge's slot.
  std::uint64_t edge_id(StateId s, StateId t) const;
  /// The reverse graph: reverse().neighbors(t) lists t's predecessors,
  /// ascending. O(states + edges) to build; callers keep the result.
  CsrAdjacency reverse() const;
  /// The interned state of vars(), decoded from the store's arena record
  /// (by value; the record itself stays at one address for the graph's
  /// lifetime — see StateStore::encoded). A record's trailing slots are
  /// not decoded.
  State state(StateId s) const { return store_.get(s, vars_->size()); }

  /// Why exploration ended. kCompleted means the full reachable space is
  /// here; anything else marks a graceful partial graph (state budget,
  /// deadline, memory ceiling, or an interrupt signal).
  run::StopReason stop_reason() const { return stop_reason_; }

  /// Shortest path (as a state-id sequence, inclusive of both ends) from an
  /// initial state to any state satisfying `goal`; empty if unreachable.
  std::vector<StateId> shortest_path_to(const std::function<bool(StateId)>& goal) const;

  /// Shortest path from `from` to any state satisfying `goal`, restricted to
  /// states allowed by `filter` (null = all). Empty if unreachable.
  std::vector<StateId> path(StateId from, const std::function<bool(StateId)>& goal,
                            const std::function<bool(StateId)>& filter) const;

 private:
  void explore_serial(const std::vector<State>& init_states, const SuccessorFn& succ,
                      bool add_self_loops, std::size_t max_states, run::RunBudget* budget);
  /// Re-measure the adjacency arrays into the state-graph memory domain.
  void account_adjacency();

  const VarTable* vars_;
  StateStore store_;
  std::vector<StateId> init_;
  CsrAdjacency adj_;
  run::StopReason stop_reason_ = run::StopReason::kCompleted;
  obs::MemTally adj_mem_{obs::MemDomain::StateGraph};
};

}  // namespace opentla
