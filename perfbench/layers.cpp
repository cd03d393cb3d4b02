// perfbench/layers.cpp — oracle, tracer, composites and the layer replays.

#include <algorithm>
#include <chrono>
#include <sstream>
#include <unordered_set>

#include "bench.hpp"
#include "opentla/graph/scc.hpp"
#include "opentla/graph/successor.hpp"

namespace perfbench {

using namespace opentla;

double now_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint64_t Rng::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::vector<std::size_t> Rng::permutation(std::size_t n) {
  std::vector<std::size_t> p(n);
  for (std::size_t i = 0; i < n; ++i) p[i] = i;
  for (std::size_t i = n; i > 1; --i) std::swap(p[i - 1], p[below(i)]);
  return p;
}

void Oracle::expect(bool ok, const std::string& what) {
  ++attempted_;
  if (ok) return;
  ++failed_;
  if (misses_.size() < 8) misses_.push_back(what);
}

void Oracle::expect_eq(std::uint64_t got, std::uint64_t want, const std::string& what) {
  expect(got == want, what + ": got " + std::to_string(got) + ", want " + std::to_string(want));
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  tracer_->records_[index_].end_s = now_s();
  tracer_->open_.pop_back();
}

Tracer::Scope Tracer::span(std::string name) {
  if (!on_) return Scope(nullptr, -1);
  Record r;
  r.name = std::move(name);
  r.parent = open_.empty() ? -1 : open_.back();
  r.start_s = now_s();
  records_.push_back(std::move(r));
  open_.push_back(static_cast<int>(records_.size() - 1));
  return Scope(this, open_.back());
}

double Tracer::self_ms(std::size_t index) const {
  double ms = records_[index].dur_ms();
  for (const Record& r : records_) {
    if (r.parent == static_cast<int>(index)) ms -= r.dur_ms();
  }
  return ms;
}

std::string Tracer::to_json(const std::string& workload, std::uint64_t seed) const {
  std::ostringstream os;
  os.precision(6);
  os << std::fixed;
  const double t0 = records_.empty() ? 0 : records_.front().start_s;
  os << "{\"workload\": \"" << workload << "\", \"seed\": " << seed << ", \"spans\": [";
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    os << (i == 0 ? "\n" : ",\n") << "  {\"id\": " << i << ", \"parent\": " << r.parent
       << ", \"name\": \"" << obs::json_escape(r.name) << "\", \"start_ms\": "
       << (r.start_s - t0) * 1e3 << ", \"dur_ms\": " << r.dur_ms()
       << ", \"self_ms\": " << self_ms(i) << "}";
  }
  os << "\n]}\n";
  return os.str();
}

StateGraph Composite::build(unsigned threads) const {
  ExploreOptions opts;
  opts.threads = threads;
  opts.max_states = max_states;
  return build_composite_graph(*vars, parts, /*free_tuples=*/{}, pinned, opts);
}

namespace {

double ratio(double num, double den) { return den == 0 ? 0 : num / den; }

}  // namespace

void replay_layers(const std::vector<BuiltGraph>& graphs, double build_ms, Metrics& m) {
  double succ_s = 0, filter_s = 0, intern_s = 0, scc_s = 0;
  double expanded = 0, edges = 0, candidates = 0, accepted = 0, interns = 0;
  const obs::Snapshot before = obs::snapshot();
  for (const BuiltGraph& bg : graphs) {
    const Composite& c = *bg.composite;
    const StateGraph& g = bg.graph;
    edges += static_cast<double>(g.num_edges());

    // The movers exactly as build_composite_graph constructs them.
    std::vector<ActionSuccessors> movers;
    for (const CompositePart& p : c.parts) {
      if (!p.mover) continue;
      std::vector<VarId> pinned = c.pinned;
      pinned.insert(pinned.end(), p.extra_pinned.begin(), p.extra_pinned.end());
      movers.emplace_back(*c.vars, p.spec.next, std::move(pinned));
    }

    // Successor generation, then the compose filter stage (per-source
    // dedup plus every part's step_ok), state by state.
    std::vector<State> cands;
    std::unordered_set<State, StateHash> seen;
    for (StateId s = 0; s < g.num_states(); ++s) {
      // A state-capped build leaves its frontier unexpanded (no edges).
      if (g.successors(s).empty()) continue;
      const State st = g.state(s);
      expanded += 1;
      cands.clear();
      seen.clear();
      const double t0 = now_s();
      for (const ActionSuccessors& mover : movers) {
        mover.for_each_successor(st, [&](const State& t) { cands.push_back(t); });
      }
      const double t1 = now_s();
      for (const State& t : cands) {
        if (!seen.insert(t).second) continue;
        bool ok = true;
        for (const CompositePart& p : c.parts) {
          if (!p.spec.step_ok(*c.vars, st, t)) {
            ok = false;
            break;
          }
        }
        if (ok) accepted += 1;
      }
      const double t2 = now_s();
      succ_s += t1 - t0;
      filter_s += t2 - t1;
      candidates += static_cast<double>(cands.size());
    }

    // The store in the serial build's intern order: initial states, then
    // each state's successors in adjacency (emission) order. The stuttering
    // self-loop is added by the graph, not interned.
    StateStore store;
    std::vector<State> batch;
    auto intern_batch = [&] {
      const double t0 = now_s();
      for (const State& t : batch) store.intern(t);
      intern_s += now_s() - t0;
      interns += static_cast<double>(batch.size());
      batch.clear();
    };
    for (StateId s : g.initial()) batch.push_back(g.state(s));
    intern_batch();
    for (StateId s = 0; s < g.num_states(); ++s) {
      for (StateId t : g.successors(s)) {
        if (t != s) batch.push_back(g.state(t));
      }
      intern_batch();
    }

    const double t0 = now_s();
    strongly_connected_components(g, g.initial(), SubgraphFilter{});
    scc_s += now_s() - t0;
  }
  const Delta d{before, obs::snapshot()};
  m["graph.successor.ns_per_state"] = ratio(succ_s * 1e9, expanded);
  m["graph.successor.completions_per_edge"] =
      ratio(d.counter(obs::Counter::CompletionsPruned), edges);
  m["graph.successor.residual_cuts_per_edge"] =
      ratio(d.counter(obs::Counter::ResidualEarlyCuts), edges);
  m["graph.successor.candidates_per_edge"] = ratio(candidates, edges);
  m["compose.filter_ns_per_candidate"] = ratio(filter_s * 1e9, candidates);
  m["compose.accept_ratio"] = ratio(accepted, candidates);
  m["state.intern_ns"] = ratio(intern_s * 1e9, interns);
  m["graph.scc_ms"] = scc_s * 1e3;
  // Only the successor and filter replays run the VM.
  m["vm.instrs_per_edge"] = ratio(d.counter(obs::Counter::VmInstrsExecuted), edges);
  m["graph.build_ms"] = build_ms;
  m["graph.unattributed_ms"] = build_ms - (succ_s + filter_s + intern_s) * 1e3;
}

const std::vector<MetricSpec>& per_layer_metrics() {
  static const std::vector<MetricSpec> specs = {
      {"ag.h1_ms", "ms"},
      {"ag.h2a_ms", "ms"},
      {"ag.h2b_ms", "ms"},
      {"ag.prop_ms", "ms"},
      {"ag.unattributed_ms", "ms"},
      {"check.inclusion.product_nodes", "count"},
      {"check.inclusion.pairs", "count"},
      {"check.inclusion.ns_per_node", "ns"},
      {"automata.configs_expanded", "count"},
      {"automata.freeze_steps", "count"},
      {"automata.product_steps", "count"},
      {"automata.peak_configs", "count"},
      {"check.refinement_ms", "ms"},
      {"check.refinement.edges_checked", "count"},
      {"check.liveness_ms", "ms"},
      {"graph.scc_ms", "ms"},
      {"graph.scc_passes", "count"},
      {"graph.lasso_candidates", "count"},
      {"graph.successor.enabled_evals", "count"},
      {"graph.successor.ns_per_state", "ns"},
      {"graph.successor.completions_per_edge", "ratio"},
      {"graph.successor.residual_cuts_per_edge", "ratio"},
      {"graph.successor.candidates_per_edge", "ratio"},
      {"compose.filter_ns_per_candidate", "ns"},
      {"compose.accept_ratio", "ratio"},
      {"state.intern_ns", "ns"},
      {"state.probe_mean", "probes"},
      {"state.probe_p99", "probes"},
      {"state.probe_max", "probes"},
      {"state.bytes_per_state", "B"},
      {"state.fingerprint_collisions", "count"},
      {"graph.build_ms", "ms"},
      {"graph.unattributed_ms", "ms"},
      {"vm.instrs_per_edge", "ratio"},
      {"vm.programs_compiled", "count"},
      {"parser.parse_ms", "ms"},
      {"mem.state_store_peak_mb", "MB"},
      {"mem.state_graph_peak_mb", "MB"},
      {"mem.frontier_peak_mb", "MB"},
      {"mem.oracle_peak_mb", "MB"},
      {"par.speedup_2t", "ratio"},
      {"par.steals", "count"},
      {"par.shard_contention", "count"},
      {"par.states_expanded", "count"},
      {"obs.trace_overhead", "ratio"},
  };
  return specs;
}

}  // namespace perfbench
