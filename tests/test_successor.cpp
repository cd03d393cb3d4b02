// Unit tests for TLC-style successor generation (opentla/graph/successor).

#include <gtest/gtest.h>

#include <algorithm>

#include "opentla/expr/eval.hpp"
#include "opentla/graph/successor.hpp"
#include "opentla/obs/obs.hpp"
#include "opentla/state/state_space.hpp"

namespace opentla {
namespace {

class SuccessorTest : public ::testing::Test {
 protected:
  SuccessorTest() {
    x = vars.declare("x", range_domain(0, 3));
    y = vars.declare("y", range_domain(0, 2));
  }
  State st(std::int64_t xv, std::int64_t yv) {
    return State({Value::integer(xv), Value::integer(yv)});
  }
  /// Ordered by value, so successor lists compare as sets.
  static std::vector<State> sorted(std::vector<State> states) {
    std::sort(states.begin(), states.end(),
              [](const State& a, const State& b) { return a.values() < b.values(); });
    return states;
  }
  VarTable vars;
  VarId x = 0, y = 0;
};

TEST_F(SuccessorTest, AssignmentsAreDeterministic) {
  // x' = x + 1 /\ y' = y: exactly one successor (until the domain edge).
  ActionSuccessors gen(vars, ex::land(ex::eq(ex::primed_var(x), ex::add(ex::var(x), ex::integer(1))),
                                      ex::unchanged({y})));
  std::vector<State> succ = gen.successors(st(1, 2));
  ASSERT_EQ(succ.size(), 1u);
  EXPECT_EQ(succ[0], st(2, 2));
  // At the top of the domain the assignment leaves the space: no successor.
  EXPECT_TRUE(gen.successors(st(3, 0)).empty());
  EXPECT_FALSE(gen.enabled(st(3, 0)));
  EXPECT_TRUE(gen.enabled(st(0, 0)));
}

TEST_F(SuccessorTest, GuardsPruneDisjuncts) {
  Expr up = ex::land(ex::lt(ex::var(x), ex::integer(3)),
                     ex::eq(ex::primed_var(x), ex::add(ex::var(x), ex::integer(1))),
                     ex::unchanged({y}));
  Expr reset = ex::land(ex::eq(ex::var(x), ex::integer(3)),
                        ex::eq(ex::primed_var(x), ex::integer(0)), ex::unchanged({y}));
  ActionSuccessors gen(vars, ex::lor(up, reset));
  EXPECT_EQ(gen.successors(st(1, 0)), (std::vector<State>{st(2, 0)}));
  EXPECT_EQ(gen.successors(st(3, 0)), (std::vector<State>{st(0, 0)}));
}

TEST_F(SuccessorTest, UnconstrainedPrimedVariableRangesOverDomain) {
  // TLA actions have no frame: x' = 0 leaves y' free.
  ActionSuccessors gen(vars, ex::eq(ex::primed_var(x), ex::integer(0)));
  std::vector<State> succ = gen.successors(st(2, 1));
  EXPECT_EQ(succ.size(), 3u);  // y' in {0, 1, 2}
  for (const State& t : succ) EXPECT_EQ(t[x].as_int(), 0);
}

TEST_F(SuccessorTest, PinnedVariablesKeepTheirValue) {
  ActionSuccessors gen(vars, ex::eq(ex::primed_var(x), ex::integer(0)), {y});
  std::vector<State> succ = gen.successors(st(2, 1));
  ASSERT_EQ(succ.size(), 1u);
  EXPECT_EQ(succ[0], st(0, 1));
}

TEST_F(SuccessorTest, PinnedVariableInResidualIsStillEnumerated) {
  // y' # y constrains a pinned variable: pinning must not lose successors.
  ActionSuccessors gen(vars, ex::land(ex::eq(ex::primed_var(x), ex::var(x)),
                                      ex::neq(ex::primed_var(y), ex::var(y))),
                       {y});
  EXPECT_EQ(gen.successors(st(0, 0)).size(), 2u);
}

TEST_F(SuccessorTest, ResidualConstraintsFilter) {
  // x' # x /\ x' # 3 /\ y' = y
  ActionSuccessors gen(vars, ex::land(ex::neq(ex::primed_var(x), ex::var(x)),
                                      ex::neq(ex::primed_var(x), ex::integer(3)),
                                      ex::unchanged({y})));
  std::vector<State> succ = gen.successors(st(0, 0));
  EXPECT_EQ(succ.size(), 2u);  // x' in {1, 2}
}

TEST_F(SuccessorTest, DuplicateSuccessorsAcrossDisjunctsAreMerged) {
  Expr a = ex::land(ex::eq(ex::primed_var(x), ex::integer(1)), ex::unchanged({y}));
  ActionSuccessors gen(vars, ex::lor(a, a));
  EXPECT_EQ(gen.successors(st(0, 0)).size(), 1u);
}

TEST_F(SuccessorTest, MatchesBruteForceEnumeration) {
  // Cross-check the generator against direct evaluation over all pairs.
  Expr act = ex::lor(ex::land(ex::lt(ex::var(x), ex::var(y)),
                              ex::eq(ex::primed_var(x), ex::var(y)),
                              ex::neq(ex::primed_var(y), ex::var(y))),
                     ex::land(ex::eq(ex::primed_var(y), ex::integer(0)),
                              ex::ge(ex::var(x), ex::var(y)),
                              ex::eq(ex::primed_var(x), ex::var(x))));
  ActionSuccessors gen(vars, act);
  StateSpace space(vars);
  space.for_each_state([&](const State& s) {
    std::vector<State> expected;
    space.for_each_state([&](const State& t) {
      if (eval_action(act, vars, s, t)) expected.push_back(t);
    });
    std::vector<State> got = gen.successors(s);
    auto key = [&](const State& st_) { return st_.to_string(vars); };
    std::sort(expected.begin(), expected.end(),
              [&](const State& a, const State& b) { return key(a) < key(b); });
    std::sort(got.begin(), got.end(),
              [&](const State& a, const State& b) { return key(a) < key(b); });
    EXPECT_EQ(got, expected) << "at state " << s.to_string(vars);
  });
}

TEST_F(SuccessorTest, GuardsEnabledIsWeakerThanEnabled) {
  // x < 3 guards a disjunct whose residual (y' < y - 5) can never hold:
  // guards_enabled sees the precondition, enabled() sees the dead residual.
  Expr act = ex::land(ex::lt(ex::var(x), ex::integer(3)),
                      ex::eq(ex::primed_var(x), ex::var(x)),
                      ex::lt(ex::primed_var(y), ex::sub(ex::var(y), ex::integer(5))));
  ActionSuccessors gen(vars, act);
  EXPECT_TRUE(gen.guards_enabled(st(0, 0)));
  EXPECT_FALSE(gen.enabled(st(0, 0)));
  EXPECT_FALSE(gen.guards_enabled(st(3, 0)));
  EXPECT_FALSE(gen.enabled(st(3, 0)));
}

TEST_F(SuccessorTest, NaiveAndWalkEnumerationsAgree) {
  // Enumerate-and-test (test hook) vs the conjunct walk: the same
  // successor sets and enabled() verdicts.
  Expr act = ex::lor(ex::land(ex::neq(ex::primed_var(x), ex::var(x)),
                              ex::neq(ex::primed_var(y), ex::var(y)),
                              ex::lt(ex::primed_var(x), ex::integer(3))),
                     ex::eq(ex::primed_var(y), ex::integer(0)));
  ActionSuccessors gen(vars, act);
  StateSpace space(vars);
  space.for_each_state([&](const State& s) {
    ActionSuccessors::set_naive_enumeration_for_test(true);
    std::vector<State> naive = gen.successors(s);
    const bool naive_enabled = gen.enabled(s);
    ActionSuccessors::set_naive_enumeration_for_test(false);
    EXPECT_EQ(sorted(gen.successors(s)), sorted(naive)) << "at state " << s.to_string(vars);
    EXPECT_EQ(gen.enabled(s), naive_enabled);
  });
}

TEST_F(SuccessorTest, NestedDisjunctionBranchesInsteadOfEnumerating) {
  // (x' = 0 \/ x' = 2) /\ y' = y: each branch binds x', so the walk tries
  // no domain value at all.
  ActionSuccessors gen(vars, ex::land(ex::lor(ex::eq(ex::primed_var(x), ex::integer(0)),
                                              ex::eq(ex::primed_var(x), ex::integer(2))),
                                      ex::unchanged({y})));
  EXPECT_EQ(gen.successors(st(1, 1)), (std::vector<State>{st(0, 1), st(2, 1)}));
}

TEST_F(SuccessorTest, WalkCountsOnlyRejectedDomainValues) {
  if (!obs::compile_time_enabled()) GTEST_SKIP() << "obs compiled out";
  const auto rejected = [](const ActionSuccessors& gen, const State& s) {
    obs::reset();
    obs::set_enabled(true);
    gen.successors(s);
    obs::set_enabled(false);
    return obs::snapshot().counter(obs::Counter::CompletionsPruned);
  };
  // Nested assignments: nothing is enumerated, so nothing is rejected.
  ActionSuccessors nested(vars, ex::land(ex::lor(ex::eq(ex::primed_var(x), ex::integer(0)),
                                                 ex::eq(ex::primed_var(x), ex::integer(2))),
                                         ex::unchanged({y})));
  EXPECT_EQ(rejected(nested, st(1, 1)), 0u);
  // x' # x ranges x' over its four values and rejects exactly one.
  ActionSuccessors ranged(vars, ex::land(ex::neq(ex::primed_var(x), ex::var(x)),
                                         ex::unchanged({y})));
  EXPECT_EQ(rejected(ranged, st(1, 1)), 1u);
}

TEST_F(SuccessorTest, WalkRangesConstrainedVariablesBeforeFrameVariables) {
  if (!obs::compile_time_enabled()) GTEST_SKIP() << "obs compiled out";
  // x' # x /\ y' # x' leaves z' unmentioned. The walk ranges x' first (its
  // constraint has the fewest unbound variables), then y', then the frame
  // variable z', and checks each constraint as soon as its variables are
  // bound. So it rejects one x' value and two (x', y') pairs, all above
  // the leaves. Frame variables first, or checks only at the leaves, would
  // reject every value once per z' value.
  VarTable v3;
  const VarId a = v3.declare("x", range_domain(0, 3));
  const VarId b = v3.declare("y", range_domain(0, 2));
  v3.declare("z", range_domain(0, 2));
  ActionSuccessors gen(v3, ex::land(ex::neq(ex::primed_var(a), ex::var(a)),
                                    ex::neq(ex::primed_var(b), ex::primed_var(a))));
  obs::reset();
  obs::set_enabled(true);
  const std::vector<State> succ =
      gen.successors(State({Value::integer(1), Value::integer(0), Value::integer(0)}));
  obs::set_enabled(false);
  const obs::Snapshot snap = obs::snapshot();
  // x' in {0, 2, 3}; y' # x' leaves 2, 2 and 3 values; z' ranges 3.
  EXPECT_EQ(succ.size(), 21u);
  EXPECT_EQ(snap.counter(obs::Counter::CompletionsPruned), 3u);
  EXPECT_EQ(snap.counter(obs::Counter::ResidualEarlyCuts), 3u);
}

TEST_F(SuccessorTest, LaterAssignmentToABoundVariableIsAnEqualityCheck) {
  // x' = y /\ (x' = 1 \/ y' = 0): on the first branch x' = 1 checks the
  // binding x' = y; y' is free there. On the second, x' keeps the value y.
  Expr act = ex::land(ex::eq(ex::primed_var(x), ex::var(y)),
                      ex::lor(ex::eq(ex::primed_var(x), ex::integer(1)),
                              ex::eq(ex::primed_var(y), ex::integer(0))));
  ActionSuccessors gen(vars, act);
  // At y = 2 the first branch fails its check; only y' = 0 remains.
  EXPECT_EQ(gen.successors(st(0, 2)), (std::vector<State>{st(2, 0)}));
  // At y = 1 the first branch ranges y' over its domain.
  EXPECT_EQ(sorted(gen.successors(st(0, 1))),
            sorted({st(1, 0), st(1, 1), st(1, 2)}));
}

TEST_F(SuccessorTest, PinningIsPerBranch) {
  // (x' = 0 /\ y' # y) \/ x' = 1 with y pinned: the first branch
  // constrains y' and ranges it; the second leaves y' alone, so y keeps
  // its value there.
  Expr act = ex::land(ex::lt(ex::var(x), ex::integer(3)),
                      ex::lor(ex::land(ex::eq(ex::primed_var(x), ex::integer(0)),
                                       ex::neq(ex::primed_var(y), ex::var(y))),
                              ex::eq(ex::primed_var(x), ex::integer(1))));
  ActionSuccessors gen(vars, act, {y});
  EXPECT_EQ(sorted(gen.successors(st(2, 0))), sorted({st(0, 1), st(0, 2), st(1, 0)}));
}

TEST_F(SuccessorTest, ConstraintWaitsForItsVariables) {
  // y' > x' comes before the disjunction that binds x'; it is checked on
  // each branch once x' is bound, and y' is ranged only for the survivors.
  Expr act = ex::land(ex::gt(ex::primed_var(y), ex::primed_var(x)),
                      ex::lor(ex::eq(ex::primed_var(x), ex::integer(1)),
                              ex::eq(ex::primed_var(x), ex::integer(3))));
  ActionSuccessors gen(vars, act);
  EXPECT_EQ(gen.successors(st(0, 0)), (std::vector<State>{st(1, 2)}));
  EXPECT_TRUE(gen.enabled(st(0, 0)));
}

TEST_F(SuccessorTest, GuardsEnabledReadsTheBranches) {
  // x = 0 /\ ((y = 1 /\ x' = 1) \/ (y = 2 /\ x' = 2)): the guards hold
  // only where some branch's guards all hold.
  Expr act = ex::land(ex::eq(ex::var(x), ex::integer(0)),
                      ex::lor(ex::land(ex::eq(ex::var(y), ex::integer(1)),
                                       ex::eq(ex::primed_var(x), ex::integer(1))),
                              ex::land(ex::eq(ex::var(y), ex::integer(2)),
                                       ex::eq(ex::primed_var(x), ex::integer(2)))));
  ActionSuccessors gen(vars, act);
  EXPECT_TRUE(gen.guards_enabled(st(0, 1)));
  EXPECT_TRUE(gen.guards_enabled(st(0, 2)));
  EXPECT_FALSE(gen.guards_enabled(st(0, 0)));
  EXPECT_FALSE(gen.guards_enabled(st(1, 1)));
}

TEST_F(SuccessorTest, EarlyExitStopsEnumeration) {
  // fn returning true must stop the generator mid-enumeration: asking for
  // the first successor of an action with many must invoke fn exactly once.
  ActionSuccessors gen(vars, ex::eq(ex::primed_var(x), ex::integer(0)));
  int seen = 0;
  // for_each_successor has a void callback; enabled() exercises the
  // bool-returning early exit underneath.
  EXPECT_TRUE(gen.enabled(st(0, 0)));
  gen.for_each_successor(st(0, 0), [&](const State&) { ++seen; });
  EXPECT_EQ(seen, 3);  // y' in {0, 1, 2}: the void path still sees all
}

TEST_F(SuccessorTest, StatesSatisfyingEnumeratesPredicate) {
  std::vector<State> states = ActionSuccessors::states_satisfying(
      vars, ex::land(ex::eq(ex::var(x), ex::integer(0)), ex::lt(ex::var(y), ex::integer(2))));
  EXPECT_EQ(states.size(), 2u);
  std::vector<State> pinned = ActionSuccessors::states_satisfying(
      vars, ex::eq(ex::var(x), ex::integer(0)), {y});
  EXPECT_EQ(pinned.size(), 1u);
}

}  // namespace
}  // namespace opentla
