// VMEVAL — per-expression evaluation cost: recursive tree walker vs the
// flat bytecode VM (opentla/vm) on the expression shapes the engine
// actually runs hot — guards, UNCHANGED frames, tuple compares, residual
// conjuncts, bounded quantifiers, and a fig-style composite invariant.
//
// Artifact: for each shape, the compiled program size (instructions,
// registers) and a tree/VM agreement check on a sample state; then the
// vm_programs_compiled / vm_instrs_executed counters for one pass over
// every shape.
//
// Benchmarks: one tree/vm pair per shape. The two rows of a pair evaluate
// the identical expression on the identical state triple; only the
// evaluator changes (the vm::set_tree_eval_for_test dispatch that every
// engine integration site uses).

#include <cstdint>
#include <iomanip>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "opentla/expr/eval.hpp"
#include "opentla/expr/expr.hpp"
#include "opentla/state/var_table.hpp"
#include "opentla/vm/compile.hpp"
#include "opentla/vm/interp.hpp"

using namespace opentla;

namespace {

/// A 6-variable universe shaped like the composite queue systems: two
/// counters, two bits, and two short sequences.
struct Universe {
  VarTable vars;
  VarId a, b, s1, s2, q1, q2;
  State cur, nxt;

  Universe() {
    a = vars.declare("a", range_domain(0, 7));
    b = vars.declare("b", range_domain(0, 7));
    s1 = vars.declare("s1", range_domain(0, 1));
    s2 = vars.declare("s2", range_domain(0, 1));
    q1 = vars.declare("q1", seq_domain(range_domain(0, 1), 2));
    q2 = vars.declare("q2", seq_domain(range_domain(0, 1), 2));
    cur = State({Value::integer(3), Value::integer(5), Value::integer(1),
                 Value::integer(0), Value::tuple({Value::integer(1)}),
                 Value::tuple({Value::integer(0), Value::integer(1)})});
    nxt = State({Value::integer(4), Value::integer(5), Value::integer(1),
                 Value::integer(1), Value::tuple({Value::integer(1)}),
                 Value::tuple({Value::integer(0), Value::integer(1)})});
  }
};

struct Shape {
  const char* name;
  Expr expr;
  bool action;  // needs the next state
};

std::vector<Shape> shapes(const Universe& u) {
  std::vector<Shape> out;
  // Guard: the fused-compare fast path.
  out.push_back({"guard", ex::land(ex::eq(ex::var(u.s1), ex::integer(1)),
                                   ex::lt(ex::var(u.a), ex::var(u.b))),
                 false});
  // UNCHANGED frame over four variables — one superinstruction.
  out.push_back({"unchanged", ex::unchanged({u.b, u.s2, u.q1, u.q2}), true});
  // Tuple compare: <<a', s1'>> = <<b, s2>> without materializing tuples.
  out.push_back({"tuple_eq",
                 ex::eq(ex::make_tuple({ex::primed_var(u.a), ex::primed_var(u.s1)}),
                        ex::make_tuple({ex::var(u.b), ex::var(u.s2)})),
                 true});
  // Constraint conjunct: the shape the conjunct walk evaluates at every
  // enumerated value.
  out.push_back({"residual", ex::land(ex::le(ex::primed_var(u.a), ex::var(u.b)),
                                      ex::neq(ex::primed_var(u.a), ex::var(u.a))),
                 true});
  // Bounded quantifier cooperating with short-circuit exit.
  out.push_back({"exists",
                 ex::exists_val("i", range_domain(0, 7),
                                ex::eq(ex::add(ex::var(u.a), ex::local("i")),
                                       ex::var(u.b))),
                 false});
  // Composite invariant: arithmetic, sequence ops, and nesting — the
  // check_invariant workload.
  out.push_back(
      {"invariant",
       ex::land({ex::le(ex::len(ex::var(u.q1)), ex::integer(2)),
                 ex::le(ex::len(ex::var(u.q2)), ex::integer(2)),
                 ex::implies(ex::eq(ex::var(u.s1), ex::var(u.s2)),
                             ex::le(ex::var(u.a), ex::add(ex::var(u.b),
                                                          ex::integer(2)))),
                 ex::forall_val(
                     "i", range_domain(1, 2),
                     ex::implies(
                         ex::le(ex::local("i"), ex::len(ex::var(u.q2))),
                         ex::le(ex::index(ex::var(u.q2), ex::local("i")),
                                ex::integer(1))))}),
       false});
  return out;
}

void artifact() {
  std::cout << "=== VMEVAL: expression evaluation, tree walker vs bytecode VM ===\n";
  Universe u;
  const std::vector<Shape> ss = shapes(u);

  std::cout << std::setw(11) << "shape" << std::setw(8) << "instrs"
            << std::setw(7) << "regs" << std::setw(10) << "agree" << "\n";
  for (const Shape& sh : ss) {
    const vm::Program p = vm::compile(sh.expr);
    EvalContext tctx;
    tctx.vars = &u.vars;
    tctx.current = &u.cur;
    tctx.next = sh.action ? &u.nxt : nullptr;
    vm::VmContext vctx;
    vctx.vars = &u.vars;
    vctx.current = &u.cur;
    vctx.next = sh.action ? &u.nxt : nullptr;
    const bool agree = eval(sh.expr, tctx) == vm::run(p, vctx);
    std::cout << std::setw(11) << sh.name << std::setw(8) << p.instrs.size()
              << std::setw(7) << p.num_regs << std::setw(10)
              << (agree ? "yes" : "MISMATCH") << "\n";
  }

  if (obs::compile_time_enabled()) {
    obs::reset();
    obs::set_enabled(true);
    vm::VmContext vctx;
    vctx.vars = &u.vars;
    vctx.current = &u.cur;
    for (const Shape& sh : ss) {
      const vm::CompiledExpr ce(sh.expr);
      vctx.next = sh.action ? &u.nxt : nullptr;
      benchmark::DoNotOptimize(ce.eval(vctx));
    }
    obs::set_enabled(false);
    const obs::Snapshot snap = obs::snapshot();
    std::cout << "\none pass over all shapes: vm_programs_compiled = "
              << snap.counter(obs::Counter::VmProgramsCompiled)
              << ", vm_instrs_executed = "
              << snap.counter(obs::Counter::VmInstrsExecuted) << "\n\n";
  } else {
    std::cout << "\n(OPENTLA_OBS=OFF build: vm counters unavailable)\n\n";
  }
}

/// One benchmark over all shapes; range(0) picks the evaluator. Evaluating
/// through CompiledExpr measures the same dispatch the engine pays.
void BM_EvalShapes(benchmark::State& state) {
  vm::set_tree_eval_for_test(state.range(0) == 0);
  Universe u;
  const std::vector<Shape> ss = shapes(u);
  std::vector<vm::CompiledExpr> compiled;
  compiled.reserve(ss.size());
  for (const Shape& sh : ss) compiled.emplace_back(sh.expr);
  vm::VmContext ctx;
  ctx.vars = &u.vars;
  ctx.current = &u.cur;
  for (auto _ : state) {
    for (std::size_t i = 0; i < ss.size(); ++i) {
      ctx.next = ss[i].action ? &u.nxt : nullptr;
      benchmark::DoNotOptimize(compiled[i].eval(ctx));
    }
  }
  vm::set_tree_eval_for_test(false);
  state.SetLabel(state.range(0) == 0 ? "tree" : "vm");
}
BENCHMARK(BM_EvalShapes)->Arg(0)->Arg(1)->Unit(benchmark::kNanosecond);

/// Per-shape pairs so the artifact tables in EXPERIMENTS.md can report
/// which idioms gain the most.
void BM_EvalOneShape(benchmark::State& state) {
  vm::set_tree_eval_for_test(state.range(1) == 0);
  Universe u;
  const std::vector<Shape> ss = shapes(u);
  const Shape& sh = ss[static_cast<std::size_t>(state.range(0))];
  const vm::CompiledExpr ce(sh.expr);
  vm::VmContext ctx;
  ctx.vars = &u.vars;
  ctx.current = &u.cur;
  ctx.next = sh.action ? &u.nxt : nullptr;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ce.eval(ctx));
  }
  vm::set_tree_eval_for_test(false);
  state.SetLabel(std::string(sh.name) + "/" +
                 (state.range(1) == 0 ? "tree" : "vm"));
}
BENCHMARK(BM_EvalOneShape)
    ->ArgsProduct({{0, 1, 2, 3, 4, 5}, {0, 1}})
    ->Unit(benchmark::kNanosecond);

}  // namespace

OPENTLA_BENCH_MAIN(artifact)
