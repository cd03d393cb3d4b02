// Unit tests for explicit-state graphs, SCCs, and the fair-cycle engine
// (opentla/graph).

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <stdexcept>

#include "opentla/check/liveness.hpp"
#include "opentla/graph/fair_cycle.hpp"
#include "opentla/graph/scc.hpp"
#include "opentla/graph/state_graph.hpp"
#include "opentla/graph/successor.hpp"

namespace opentla {
namespace {

// A counter modulo 4 with an explicit wrap step.
class CounterGraphTest : public ::testing::Test {
 protected:
  CounterGraphTest() : x(vars.declare("x", range_domain(0, 3))) {
    up = ex::land(ex::lt(ex::var(x), ex::integer(3)),
                  ex::eq(ex::primed_var(x), ex::add(ex::var(x), ex::integer(1))));
    wrap = ex::land(ex::eq(ex::var(x), ex::integer(3)),
                    ex::eq(ex::primed_var(x), ex::integer(0)));
  }

  StateGraph build(Expr next, bool self_loops = true) {
    ActionSuccessors gen(vars, std::move(next));
    ExploreOptions opts;
    opts.add_self_loops = self_loops;
    return StateGraph(
        vars, {State({Value::integer(0)})},
        [&gen](const State& s, const std::function<void(const State&)>& emit) {
          gen.for_each_successor(s, emit);
        },
        opts);
  }

  VarTable vars;
  VarId x;
  Expr up, wrap;
};

TEST_F(CounterGraphTest, ReachabilityAndSelfLoops) {
  StateGraph g = build(ex::lor(up, wrap));
  EXPECT_EQ(g.num_states(), 4u);
  // Each state: one action successor plus its stuttering self-loop.
  for (StateId s = 0; s < g.num_states(); ++s) {
    EXPECT_EQ(g.successors(s).size(), 2u);
  }
}

TEST_F(CounterGraphTest, EdgeIdsAreDenseAndNonEdgesThrow) {
  StateGraph g = build(ex::lor(up, wrap));
  std::uint64_t next_id = 0;
  for (StateId s = 0; s < g.num_states(); ++s) {
    const std::span<const StateId> out = g.successors(s);
    EXPECT_TRUE(std::is_sorted(out.begin(), out.end()));
    EXPECT_EQ(g.edge_begin(s), next_id);
    for (std::size_t i = 0; i < out.size(); ++i) {
      EXPECT_EQ(g.edge_id(s, out[i]), next_id + i);
    }
    next_id += out.size();
    for (StateId t = 0; t < g.num_states(); ++t) {
      if (std::find(out.begin(), out.end(), t) == out.end()) {
        EXPECT_THROW(g.edge_id(s, t), std::logic_error) << s << " -> " << t;
      }
    }
  }
  EXPECT_EQ(next_id, g.num_edges());
  EXPECT_THROW(g.edge_id(static_cast<StateId>(g.num_states()), 0), std::logic_error);
}

TEST_F(CounterGraphTest, ReverseListsEveryPredecessorAscending) {
  StateGraph g = build(ex::lor(up, wrap));
  const CsrAdjacency rev = g.reverse();
  ASSERT_EQ(rev.num_nodes(), g.num_states());
  EXPECT_EQ(rev.targets.size(), g.num_edges());
  for (StateId t = 0; t < g.num_states(); ++t) {
    std::vector<StateId> expected;
    for (StateId s = 0; s < g.num_states(); ++s) {
      const std::span<const StateId> out = g.successors(s);
      if (std::find(out.begin(), out.end(), t) != out.end()) expected.push_back(s);
    }
    EXPECT_TRUE(std::ranges::equal(rev.neighbors(t), expected)) << "predecessors of " << t;
  }
}

TEST_F(CounterGraphTest, PartialGraphKeepsEmptyRowsForUnexpandedStates) {
  // 0 steps to 1 and 2; at a cap of 3 states, expanding 1 overflows and
  // the run stops before 2 is expanded.
  const Expr jump = ex::land(ex::lt(ex::var(x), ex::integer(2)),
                             ex::eq(ex::primed_var(x), ex::add(ex::var(x), ex::integer(2))));
  ActionSuccessors gen(vars, ex::lor(up, jump));
  auto succ = [&gen](const State& s, const std::function<void(const State&)>& emit) {
    gen.for_each_successor(s, emit);
  };
  ExploreOptions opts;
  opts.max_states = 3;
  StateGraph g(vars, {State({Value::integer(0)})}, succ, opts);
  ASSERT_EQ(g.num_states(), 3u);
  EXPECT_EQ(g.stop_reason(), run::StopReason::kStateBudget);
  EXPECT_EQ(g.successors(0).size(), 3u);  // 1, 2 and the self-loop
  EXPECT_EQ(g.successors(1).size(), 2u);  // 2 and the self-loop; 3 is past the cap
  EXPECT_TRUE(g.successors(2).empty());   // discovered, never expanded
  EXPECT_EQ(g.num_edges(), 5u);
}

TEST_F(CounterGraphTest, FairnessStepOnNonEdgeThrows) {
  StateGraph g = build(up);  // 0 -> 1 -> 2 -> 3, no edge 0 -> 2
  FairnessCompiler compiler(g);
  Fairness wf;
  wf.kind = Fairness::Kind::Weak;
  wf.sub = {x};
  wf.action = up;
  const BuchiObligation ob = compiler.constraint_wf(wf);
  EXPECT_TRUE(ob.step_ok(0, 1));
  EXPECT_FALSE(ob.step_ok(0, 0));
  EXPECT_THROW(ob.step_ok(0, 2), std::logic_error);
  EXPECT_THROW(ob.step_ok(3, 0), std::logic_error);
}

TEST_F(CounterGraphTest, UnreachableStatesAreNotExplored) {
  StateGraph g = build(up);  // no wrap: 0 -> 1 -> 2 -> 3
  EXPECT_EQ(g.num_states(), 4u);
  StateGraph g2(vars, {State({Value::integer(2)})},
                [this](const State& s, const std::function<void(const State&)>& emit) {
                  ActionSuccessors gen(vars, up);
                  gen.for_each_successor(s, emit);
                });
  EXPECT_EQ(g2.num_states(), 2u);  // 2 and 3 only
}

TEST_F(CounterGraphTest, ShortestPath) {
  StateGraph g = build(ex::lor(up, wrap));
  std::vector<StateId> path =
      g.shortest_path_to([&](StateId s) { return g.state(s)[x].as_int() == 3; });
  ASSERT_EQ(path.size(), 4u);
  EXPECT_EQ(g.state(path[0])[x].as_int(), 0);
  EXPECT_EQ(g.state(path[3])[x].as_int(), 3);
}

TEST_F(CounterGraphTest, StateLimitStopsGracefully) {
  ActionSuccessors gen(vars, ex::lor(up, wrap));
  auto succ = [&gen](const State& s, const std::function<void(const State&)>& emit) {
    gen.for_each_successor(s, emit);
  };
  ExploreOptions opts;
  opts.max_states = 2;
  StateGraph g(vars, {State({Value::integer(0)})}, succ, opts);
  EXPECT_EQ(g.num_states(), 2u);
  EXPECT_EQ(g.stop_reason(), run::StopReason::kStateBudget);
}

TEST_F(CounterGraphTest, SccOfCycleIsOneComponent) {
  StateGraph g = build(ex::lor(up, wrap));
  SubgraphFilter all;
  std::vector<StateId> roots(g.num_states());
  for (std::size_t i = 0; i < roots.size(); ++i) roots[i] = static_cast<StateId>(i);
  std::vector<std::vector<StateId>> comps = strongly_connected_components(g, roots, all);
  ASSERT_EQ(comps.size(), 1u);
  EXPECT_EQ(comps[0].size(), 4u);
  EXPECT_TRUE(component_has_cycle(g, comps[0], all));
}

TEST_F(CounterGraphTest, SccOfChainIsSingletons) {
  StateGraph g = build(up, /*self_loops=*/false);
  SubgraphFilter all;
  std::vector<StateId> roots(g.num_states());
  for (std::size_t i = 0; i < roots.size(); ++i) roots[i] = static_cast<StateId>(i);
  std::vector<std::vector<StateId>> comps = strongly_connected_components(g, roots, all);
  EXPECT_EQ(comps.size(), 4u);
  for (const auto& c : comps) EXPECT_FALSE(component_has_cycle(g, c, all));
}

TEST_F(CounterGraphTest, EdgeFilterCutsCycle) {
  StateGraph g = build(ex::lor(up, wrap), /*self_loops=*/false);
  SubgraphFilter no_wrap;
  no_wrap.edge_ok = [&](StateId s, StateId t) {
    return !(g.state(s)[x].as_int() == 3 && g.state(t)[x].as_int() == 0);
  };
  std::vector<StateId> roots(g.num_states());
  for (std::size_t i = 0; i < roots.size(); ++i) roots[i] = static_cast<StateId>(i);
  for (const auto& c : strongly_connected_components(g, roots, no_wrap)) {
    EXPECT_FALSE(component_has_cycle(g, c, no_wrap));
  }
}

TEST_F(CounterGraphTest, FairCycleWithoutObligationsFindsAnyCycle) {
  StateGraph g = build(ex::lor(up, wrap));
  FairCycleQuery q;
  std::optional<Lasso> lasso = find_fair_cycle(g, q);
  ASSERT_TRUE(lasso.has_value());
  EXPECT_FALSE(lasso->cycle.empty());
  EXPECT_FALSE(lasso->prefix.empty());
  EXPECT_EQ(lasso->prefix.back(), lasso->cycle.front());
}

TEST_F(CounterGraphTest, BuchiObligationSteersCycle) {
  StateGraph g = build(ex::lor(up, wrap));
  FairCycleQuery q;
  BuchiObligation visit3;
  visit3.state_ok = [&](StateId s) { return g.state(s)[x].as_int() == 3; };
  q.buchi.push_back(visit3);
  std::optional<Lasso> lasso = find_fair_cycle(g, q);
  ASSERT_TRUE(lasso.has_value());
  bool visits = false;
  for (StateId s : lasso->cycle) visits |= (g.state(s)[x].as_int() == 3);
  EXPECT_TRUE(visits);
}

TEST_F(CounterGraphTest, BuchiObligationCanBeUnsatisfiable) {
  StateGraph g = build(up);  // chain: only self-loop cycles
  FairCycleQuery q;
  BuchiObligation step;
  // Require an x-changing step infinitely often: impossible on self-loops.
  step.step_ok = [&](StateId s, StateId t) {
    return g.state(s)[x].as_int() != g.state(t)[x].as_int();
  };
  q.buchi.push_back(step);
  EXPECT_FALSE(find_fair_cycle(g, q).has_value());
}

TEST_F(CounterGraphTest, WeakFairnessConstraintExcludesStutterCycles) {
  // WF on the counter action: a fair behavior cannot stutter forever while
  // the action is enabled, so the only fair cycle is the full loop.
  StateGraph g = build(ex::lor(up, wrap));
  FairnessCompiler compiler(g);
  FairCycleQuery q;
  Fairness wf;
  wf.kind = Fairness::Kind::Weak;
  wf.sub = {x};
  wf.action = ex::lor(up, wrap);
  compiler.add_constraints({wf}, q);
  std::optional<Lasso> lasso = find_fair_cycle(g, q);
  ASSERT_TRUE(lasso.has_value());
  EXPECT_EQ(lasso->cycle.size(), 4u);
}

TEST_F(CounterGraphTest, StreettConstraint) {
  // SF(wrap): any cycle visiting x = 3 infinitely often must take the wrap
  // step infinitely often. The self-loop at 3 alone is excluded, but the
  // full loop (which wraps) is allowed.
  StateGraph g = build(ex::lor(up, wrap));
  FairnessCompiler compiler(g);
  FairCycleQuery q;
  Fairness sf;
  sf.kind = Fairness::Kind::Strong;
  sf.sub = {x};
  sf.action = wrap;
  compiler.add_constraints({sf}, q);
  // Restrict to the subgraph containing only state 3 and its self-loop:
  q.filter.node_ok = [&](StateId s) { return g.state(s)[x].as_int() == 3; };
  EXPECT_FALSE(find_fair_cycle(g, q).has_value());
  // Unrestricted, the wrap cycle satisfies SF.
  FairCycleQuery q2;
  FairnessCompiler compiler2(g);
  Fairness sf2 = sf;
  compiler2.add_constraints({sf2}, q2);
  EXPECT_TRUE(find_fair_cycle(g, q2).has_value());
}

TEST_F(CounterGraphTest, ViolationSearchForWeakFairness) {
  // Search for a cycle violating WF(up \/ wrap): every state enabled, no
  // action step — i.e. a pure stutter cycle. It exists (self-loops).
  StateGraph g = build(ex::lor(up, wrap));
  FairnessCompiler compiler(g);
  FairCycleQuery q;
  Fairness wf;
  wf.kind = Fairness::Kind::Weak;
  wf.sub = {x};
  wf.action = ex::lor(up, wrap);
  compiler.restrict_to_violation(wf, q);
  std::optional<Lasso> lasso = find_fair_cycle(g, q);
  ASSERT_TRUE(lasso.has_value());
  EXPECT_EQ(lasso->cycle.size(), 1u);  // a self-loop
}

TEST(FairCycleWitness, ViolationCycleTakesNoStepTheFilterForbids) {
  // x in 0..2; B: x' = x + 1 mod 3, A: x' = x + 2 mod 3. A WF(B)-fair cycle
  // violating WF(A) exists (0 -> 1 -> 2 -> 0 by B), but the shortest way
  // back along the witness cycle is an A step, which ~WF(A) forbids. The
  // reported cycle, closing edge included, must take no A step.
  VarTable vars;
  const VarId x = vars.declare("x", range_domain(0, 2));
  const auto plus = [&](std::int64_t k) {
    return ex::eq(ex::primed_var(x), ex::mod(ex::add(ex::var(x), ex::integer(k)), ex::integer(3)));
  };
  const Expr a = plus(2);
  const Expr b = plus(1);
  ActionSuccessors gen(vars, ex::lor(a, b));
  StateGraph g(vars, {State({Value::integer(0)})},
               [&gen](const State& s, const std::function<void(const State&)>& emit) {
                 gen.for_each_successor(s, emit);
               });
  Fairness wf_a;
  wf_a.sub = {x};
  wf_a.action = a;
  Fairness wf_b;
  wf_b.sub = {x};
  wf_b.action = b;
  FairnessCompiler compiler(g);
  FairCycleQuery q;
  compiler.add_constraints({wf_b}, q);
  compiler.restrict_to_violation(wf_a, q);
  const std::optional<Lasso> lasso = find_fair_cycle(g, q);
  ASSERT_TRUE(lasso.has_value());
  const Expr a_step = action_changing(a, {x});
  bool takes_b = false;
  for (std::size_t i = 0; i < lasso->cycle.size(); ++i) {
    const State s = g.state(lasso->cycle[i]);
    const State t = g.state(lasso->cycle[(i + 1) % lasso->cycle.size()]);
    EXPECT_FALSE(eval_action(a_step, vars, s, t))
        << "A step " << s.to_string(vars) << " -> " << t.to_string(vars);
    takes_b |= eval_action(action_changing(b, {x}), vars, s, t);
  }
  EXPECT_TRUE(takes_b);
}

// Leads-to on a long chain x' = x + 1 under WF: every state is its own
// SCC (a singleton with its stuttering self-loop), so the fair-cycle
// search tests 2 x 10^5 components. Each must cost O(its size), not
// O(states): with a states-sized buffer per component this took seconds.
TEST(LongChain, LeadsToOnTwoHundredThousandStatesHolds) {
  constexpr std::int64_t kLast = 199'999;
  VarTable vars;
  const VarId x = vars.declare("x", range_domain(0, kLast));
  const Expr step = ex::land(ex::lt(ex::var(x), ex::integer(kLast)),
                             ex::eq(ex::primed_var(x), ex::add(ex::var(x), ex::integer(1))));
  ActionSuccessors gen(vars, step);
  StateGraph g(vars, {State({Value::integer(0)})},
               [&gen](const State& s, const std::function<void(const State&)>& emit) {
                 gen.for_each_successor(s, emit);
               });
  ASSERT_EQ(g.num_states(), static_cast<std::size_t>(kLast + 1));
  Fairness wf;
  wf.kind = Fairness::Kind::Weak;
  wf.sub = {x};
  wf.action = step;
  EXPECT_TRUE(check_leads_to(g, {wf}, ex::eq(ex::var(x), ex::integer(0)),
                             ex::eq(ex::var(x), ex::integer(kLast)))
                  .holds);
  // Without fairness the chain may stutter forever short of the end.
  EXPECT_FALSE(check_leads_to(g, {}, ex::eq(ex::var(x), ex::integer(0)),
                              ex::eq(ex::var(x), ex::integer(kLast)))
                   .holds);
}

// 5 x 10^4 two-state SCCs {(x,0), (x,1)} in a row: Toggle flips b, Up
// moves from (x,1) to (x+1,0). Under SF(Up) every SCC's Up trigger (x,1)
// cannot be discharged inside it, so each is pruned and re-decomposed;
// WF(Toggle) then rules out stuttering at (x,0). Each re-decomposition
// must cost O(its region), not O(states).
TEST(LongChain, StreettPruningOnFiftyThousandSccsHolds) {
  constexpr std::int64_t kLast = 49'999;
  VarTable vars;
  const VarId x = vars.declare("x", range_domain(0, kLast));
  const VarId b = vars.declare("b", range_domain(0, 1));
  const Expr toggle = ex::land(ex::eq(ex::primed_var(b), ex::sub(ex::integer(1), ex::var(b))),
                               ex::eq(ex::primed_var(x), ex::var(x)));
  const Expr up = ex::land({ex::eq(ex::var(b), ex::integer(1)),
                            ex::lt(ex::var(x), ex::integer(kLast)),
                            ex::eq(ex::primed_var(x), ex::add(ex::var(x), ex::integer(1))),
                            ex::eq(ex::primed_var(b), ex::integer(0))});
  ActionSuccessors gen(vars, ex::lor(toggle, up));
  StateGraph g(vars, {State({Value::integer(0), Value::integer(0)})},
               [&gen](const State& s, const std::function<void(const State&)>& emit) {
                 gen.for_each_successor(s, emit);
               });
  ASSERT_EQ(g.num_states(), static_cast<std::size_t>(2 * (kLast + 1)));
  Fairness wf;
  wf.sub = {x, b};
  wf.action = toggle;
  Fairness sf;
  sf.kind = Fairness::Kind::Strong;
  sf.sub = {x, b};
  sf.action = up;
  const Expr p = ex::eq(ex::var(x), ex::integer(0));
  const Expr q = ex::eq(ex::var(x), ex::integer(kLast));
  EXPECT_TRUE(check_leads_to(g, {wf, sf}, p, q).holds);
  // Weak fairness on Up is not enough: Toggle can keep disabling it.
  sf.kind = Fairness::Kind::Weak;
  EXPECT_FALSE(check_leads_to(g, {wf, sf}, p, q).holds);
}

}  // namespace
}  // namespace opentla
