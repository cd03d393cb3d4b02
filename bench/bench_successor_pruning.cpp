// PRUNING — successor generation: the lazy conjunct walk vs the naive
// enumerate-and-test oracle.
//
// Artifact: for the fig6/fig8/fig9 workloads, the enumeration counters of a
// walk run — successors_enumerated, completions_pruned (domain values the
// walk tried for an undetermined primed variable and rejected), and
// residual_early_cuts (those rejections that cut a whole subtree) — plus a
// naive-vs-walk cross-check that both paths build the same graphs.
//
// Benchmarks: graph construction and enabled() queries, naive vs walk, on
// the composite queue systems and on a synthetic constraint-heavy action
// where subtree cutting dominates.

#include <cstdint>
#include <iomanip>
#include <iostream>

#include "bench_common.hpp"
#include "opentla/check/machine_closure.hpp"
#include "opentla/compose/compose.hpp"
#include "opentla/ag/composition_theorem.hpp"
#include "opentla/graph/successor.hpp"
#include "opentla/state/state_space.hpp"
#include "opentla/queue/double_queue.hpp"
#include "opentla/queue/queue_spec.hpp"
#include "opentla/value/domain.hpp"
#include "opentla/vm/interp.hpp"

using namespace opentla;

namespace {

struct Counts {
  std::uint64_t enumerated = 0;
  std::uint64_t pruned = 0;
  std::uint64_t cuts = 0;
};

template <class Fn>
Counts measure(Fn&& fn) {
  obs::reset();
  obs::set_enabled(true);
  fn();
  obs::set_enabled(false);
  const obs::Snapshot snap = obs::snapshot();
  Counts c;
  c.enumerated = snap.counters[static_cast<std::size_t>(obs::Counter::SuccessorsEnumerated)];
  c.pruned = snap.counters[static_cast<std::size_t>(obs::Counter::CompletionsPruned)];
  c.cuts = snap.counters[static_cast<std::size_t>(obs::Counter::ResidualEarlyCuts)];
  return c;
}

StateGraph fig6_graph() {
  QueueSystem sys = make_queue_system(3, 3);
  return build_composite_graph(sys.vars, {{sys.specs.complete.unhidden(), true}});
}

void fig6_workload() {
  QueueSystem sys = make_queue_system(3, 3);
  StateGraph g = build_composite_graph(sys.vars, {{sys.specs.complete.unhidden(), true}});
  // Machine closure walks the prefix machine of the hidden-variable spec —
  // the walk over hidden completions.
  benchmark::DoNotOptimize(
      check_machine_closure_on_graph(g, sys.specs.complete.unhidden()).machine_closed);
  benchmark::DoNotOptimize(check_prop1_syntactic(sys.specs.complete).machine_closed);
}

StateGraph fig8_graph() {
  DoubleQueueSystem sys = make_double_queue(1, 2);
  CanonicalSpec cdq = make_cdq(sys);
  return build_composite_graph(
      sys.vars,
      {{cdq.unhidden(), true}, {make_pin(sys.vars, {sys.q}, "PinQ"), false}},
      /*free_tuples=*/{}, /*pinned=*/{sys.q});
}

void fig8_workload() { benchmark::DoNotOptimize(fig8_graph().num_states()); }

void fig9_workload() {
  DoubleQueueSystem sys = make_double_queue(1, 2);
  CompositionOptions opts;
  opts.goal_witness = {{"q", sys.qbar}};
  ProofReport proof = verify_composition(sys.vars, sys.components(), sys.goal(), opts);
  benchmark::DoNotOptimize(proof.all_discharged());
}

/// Synthetic residual-heavy action over a 4-variable universe: two
/// variables assigned, two enumerated under mutually constraining residual
/// conjuncts, so most subtrees die at depth 1.
struct Synthetic {
  VarTable vars;
  VarId a, b, c, d;
  Expr action;
  Synthetic() {
    a = vars.declare("a", range_domain(0, 7));
    b = vars.declare("b", range_domain(0, 7));
    c = vars.declare("c", range_domain(0, 7));
    d = vars.declare("d", range_domain(0, 7));
    action = ex::land({ex::eq(ex::primed_var(a), ex::var(a)),
                       ex::eq(ex::primed_var(b), ex::var(b)),
                       ex::eq(ex::primed_var(c), ex::var(a)),          // kills 7/8 of c'
                       ex::lt(ex::primed_var(d), ex::primed_var(c))}); // then bounds d'
  }
  State first() const { return StateSpace(vars).first_state(); }
};

void artifact() {
  std::cout << "=== PRUNING: successor generation, conjunct walk vs enumerate-and-test ===\n";
  if (!obs::compile_time_enabled()) {
    std::cout << "(OPENTLA_OBS=OFF build: counters unavailable, cross-checks only)\n";
  }

  // Cross-check first: naive and walk runs must build the same graphs.
  ActionSuccessors::set_naive_enumeration_for_test(true);
  StateGraph n6 = fig6_graph();
  StateGraph n8 = fig8_graph();
  ActionSuccessors::set_naive_enumeration_for_test(false);
  StateGraph p6 = fig6_graph();
  StateGraph p8 = fig8_graph();
  const bool identical = n6.num_states() == p6.num_states() &&
                         n6.num_edges() == p6.num_edges() &&
                         n6.initial() == p6.initial() &&
                         n8.num_states() == p8.num_states() &&
                         n8.num_edges() == p8.num_edges() &&
                         n8.initial() == p8.initial();
  std::cout << "naive/walk graph identity (fig6, fig8): "
            << (identical ? "identical" : "MISMATCH") << "\n";

  // Same cross-check for the expression evaluator: the graphs a tree-eval
  // run builds must be bit-identical to the bytecode-VM run's.
  vm::set_tree_eval_for_test(true);
  StateGraph t6 = fig6_graph();
  StateGraph t8 = fig8_graph();
  vm::set_tree_eval_for_test(false);
  const bool eval_identical = t6.num_states() == p6.num_states() &&
                              t6.num_edges() == p6.num_edges() &&
                              t6.initial() == p6.initial() &&
                              t8.num_states() == p8.num_states() &&
                              t8.num_edges() == p8.num_edges() &&
                              t8.initial() == p8.initial();
  std::cout << "tree/vm graph identity (fig6, fig8): "
            << (eval_identical ? "identical" : "MISMATCH") << "\n\n";

  std::cout << std::setw(10) << "workload" << std::setw(14) << "successors"
            << std::setw(16) << "compl_pruned" << std::setw(12) << "cuts" << "\n";
  struct Row {
    const char* name;
    void (*fn)();
  };
  const Row rows[] = {{"fig6", fig6_workload}, {"fig8", fig8_workload},
                      {"fig9", fig9_workload}};
  for (const Row& row : rows) {
    const Counts c = measure(row.fn);
    std::cout << std::setw(10) << row.name << std::setw(14) << c.enumerated
              << std::setw(16) << c.pruned << std::setw(12) << c.cuts << "\n";
  }

  Synthetic syn;
  ActionSuccessors gen(syn.vars, syn.action);
  const Counts sc = measure([&] { benchmark::DoNotOptimize(gen.successors(syn.first())); });
  std::cout << std::setw(10) << "synthetic" << std::setw(14) << sc.enumerated
            << std::setw(16) << sc.pruned << std::setw(12) << sc.cuts << "\n";
  std::cout << "(compl_pruned = domain values the walk tried for an undetermined\n"
            << " primed variable and rejected)\n\n";
}

void BM_GraphBuildFig6(benchmark::State& state) {
  ActionSuccessors::set_naive_enumeration_for_test(state.range(0) == 0);
  QueueSystem sys = make_queue_system(static_cast<int>(state.range(1)), 2);
  for (auto _ : state) {
    StateGraph g = build_composite_graph(sys.vars, {{sys.specs.complete.unhidden(), true}});
    benchmark::DoNotOptimize(g.num_states());
  }
  ActionSuccessors::set_naive_enumeration_for_test(false);
  state.SetLabel(state.range(0) == 0 ? "naive" : "walk");
}
BENCHMARK(BM_GraphBuildFig6)
    ->Args({0, 2})->Args({1, 2})->Args({0, 3})->Args({1, 3})
    ->Unit(benchmark::kMillisecond);

void BM_GraphBuildFig8(benchmark::State& state) {
  ActionSuccessors::set_naive_enumeration_for_test(state.range(0) == 0);
  for (auto _ : state) {
    StateGraph g = fig8_graph();
    benchmark::DoNotOptimize(g.num_states());
  }
  ActionSuccessors::set_naive_enumeration_for_test(false);
  state.SetLabel(state.range(0) == 0 ? "naive" : "walk");
}
BENCHMARK(BM_GraphBuildFig8)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_EnabledSynthetic(benchmark::State& state) {
  ActionSuccessors::set_naive_enumeration_for_test(state.range(0) == 0);
  Synthetic syn;
  // d' < 0 can never hold, so enabled() must reject every completion —
  // the worst case for enumerate-and-test.
  Expr hard = ex::land({ex::eq(ex::primed_var(syn.a), ex::var(syn.a)),
                        ex::neq(ex::primed_var(syn.c), ex::primed_var(syn.d)),
                        ex::lt(ex::primed_var(syn.d), ex::integer(0))});
  ActionSuccessors gen(syn.vars, hard);
  const State s = syn.first();
  for (auto _ : state) {
    benchmark::DoNotOptimize(gen.enabled(s));
  }
  ActionSuccessors::set_naive_enumeration_for_test(false);
  state.SetLabel(state.range(0) == 0 ? "naive" : "walk");
}
BENCHMARK(BM_EnabledSynthetic)->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);

void BM_SuccessorsSynthetic(benchmark::State& state) {
  ActionSuccessors::set_naive_enumeration_for_test(state.range(0) == 0);
  Synthetic syn;
  ActionSuccessors gen(syn.vars, syn.action);
  const State s = syn.first();
  for (auto _ : state) {
    benchmark::DoNotOptimize(gen.successors(s));
  }
  ActionSuccessors::set_naive_enumeration_for_test(false);
  state.SetLabel(state.range(0) == 0 ? "naive" : "walk");
}
BENCHMARK(BM_SuccessorsSynthetic)->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);

// --- Evaluator axis: identical walk workloads, tree evaluator vs bytecode
// VM (vm::set_tree_eval_for_test). Successor sets and emission order are
// bit-identical either way; only per-conjunct evaluation cost changes.

void BM_SuccessorsSyntheticEval(benchmark::State& state) {
  vm::set_tree_eval_for_test(state.range(0) == 0);
  Synthetic syn;
  ActionSuccessors gen(syn.vars, syn.action);
  const State s = syn.first();
  for (auto _ : state) {
    benchmark::DoNotOptimize(gen.successors(s));
  }
  vm::set_tree_eval_for_test(false);
  state.SetLabel(state.range(0) == 0 ? "tree" : "vm");
}
BENCHMARK(BM_SuccessorsSyntheticEval)->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);

void BM_GraphBuildFig6Eval(benchmark::State& state) {
  vm::set_tree_eval_for_test(state.range(0) == 0);
  QueueSystem sys = make_queue_system(3, 2);
  for (auto _ : state) {
    StateGraph g = build_composite_graph(sys.vars, {{sys.specs.complete.unhidden(), true}});
    benchmark::DoNotOptimize(g.num_states());
  }
  vm::set_tree_eval_for_test(false);
  state.SetLabel(state.range(0) == 0 ? "tree" : "vm");
}
BENCHMARK(BM_GraphBuildFig6Eval)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_GraphBuildFig8Eval(benchmark::State& state) {
  vm::set_tree_eval_for_test(state.range(0) == 0);
  for (auto _ : state) {
    StateGraph g = fig8_graph();
    benchmark::DoNotOptimize(g.num_states());
  }
  vm::set_tree_eval_for_test(false);
  state.SetLabel(state.range(0) == 0 ? "tree" : "vm");
}
BENCHMARK(BM_GraphBuildFig8Eval)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

}  // namespace

OPENTLA_BENCH_MAIN(artifact)
