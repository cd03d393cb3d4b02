// Unit tests for the orthogonality checker (opentla/check/orthogonality)
// and its agreement with Proposition 4 and the lasso oracle.

#include <gtest/gtest.h>

#include "opentla/ag/propositions.hpp"
#include "opentla/check/orthogonality.hpp"
#include "opentla/compose/compose.hpp"
#include "opentla/semantics/enumerate.hpp"
#include "opentla/semantics/oracle.hpp"
#include "opentla/tla/disjoint.hpp"
#include "replay.hpp"

namespace opentla {
namespace {

class OrthogonalityTest : public ::testing::Test {
 protected:
  OrthogonalityTest() {
    x = vars.declare("x", range_domain(0, 1));
    y = vars.declare("y", range_domain(0, 1));
    ex_spec = stays_zero(x, "Ex");
    my_spec = stays_zero(y, "My");
  }

  CanonicalSpec stays_zero(VarId v, std::string name) {
    CanonicalSpec s;
    s.name = std::move(name);
    s.init = ex::eq(ex::var(v), ex::integer(0));
    s.next = ex::bottom();
    s.sub = {v};
    return s;
  }

  // A generator that moves x and y freely, one at a time (interleaved) or
  // together, depending on `interleaved`.
  StateGraph generator(bool interleaved) {
    CanonicalSpec frame;
    frame.name = "Frame";
    frame.init = ex::land(ex::eq(ex::var(x), ex::integer(0)),
                          ex::eq(ex::var(y), ex::integer(0)));
    frame.next = ex::top();
    frame.sub = {x, y};
    std::vector<CompositePart> parts = {{frame, false}};
    if (interleaved) parts.push_back({make_disjoint({{x}, {y}}), false});
    std::vector<std::vector<VarId>> free_tuples =
        interleaved ? std::vector<std::vector<VarId>>{{x}, {y}}
                    : std::vector<std::vector<VarId>>{{x, y}};
    return build_composite_graph(vars, parts, free_tuples);
  }

  VarTable vars;
  VarId x = 0, y = 0;
  CanonicalSpec ex_spec, my_spec;
};

TEST_F(OrthogonalityTest, InterleavedGeneratorIsOrthogonal) {
  StateGraph g = generator(/*interleaved=*/true);
  PrefixMachine e(vars, ex_spec);
  PrefixMachine m(vars, my_spec);
  OrthogonalityResult r = check_orthogonality(g, e, m);
  EXPECT_TRUE(r.holds);
  EXPECT_GT(r.pairs_visited, 0u);
}

TEST_F(OrthogonalityTest, SimultaneousMovesBreakOrthogonality) {
  StateGraph g = generator(/*interleaved=*/false);
  PrefixMachine e(vars, ex_spec);
  PrefixMachine m(vars, my_spec);
  OrthogonalityResult r = check_orthogonality(g, e, m);
  EXPECT_FALSE(r.holds);
  EXPECT_TRUE(replay::replays_as_orthogonality_failure(e, m, r.counterexample));
  EXPECT_EQ(r.counterexample.size(), replay::shortest_orthogonality_failure(g, e, m));
  // The counterexample's last step falsifies both: x and y jump together.
  ASSERT_EQ(r.counterexample.size(), 2u);
  const State& last = r.counterexample.back();
  EXPECT_EQ(last[x].as_int(), 1);
  EXPECT_EQ(last[y].as_int(), 1);
}

TEST(Orthogonality, CounterexampleIsAShortestPathToTheJointFailure) {
  // x and y climb 0..2 alone or together; E = "x <= 1", M = "y <= 1". The
  // joint step (1, 1) -> (2, 2) kills both: reached after 3 states by the
  // joint climb, not after the 4-state interleaved one.
  VarTable vars;
  const VarId x = vars.declare("x", range_domain(0, 2));
  const VarId y = vars.declare("y", range_domain(0, 2));
  const StateGraph g(
      vars, {State({Value::integer(0), Value::integer(0)})},
      [&](const State& s, const std::function<void(const State&)>& emit) {
        const std::int64_t a = s[x].as_int(), b = s[y].as_int();
        if (a < 2) emit(State({Value::integer(a + 1), Value::integer(b)}));
        if (b < 2) emit(State({Value::integer(a), Value::integer(b + 1)}));
        if (a < 2 && b < 2) emit(State({Value::integer(a + 1), Value::integer(b + 1)}));
      });
  auto at_most_one = [&](VarId v, std::string name) {
    CanonicalSpec s;
    s.name = std::move(name);
    s.init = ex::le(ex::var(v), ex::integer(1));
    s.next = ex::le(ex::primed_var(v), ex::integer(1));
    s.sub = {v};
    return s;
  };
  PrefixMachine e(vars, at_most_one(x, "Ex"));
  PrefixMachine m(vars, at_most_one(y, "My"));
  OrthogonalityResult r = check_orthogonality(g, e, m);
  EXPECT_FALSE(r.holds);
  EXPECT_TRUE(replay::replays_as_orthogonality_failure(e, m, r.counterexample));
  EXPECT_EQ(replay::shortest_orthogonality_failure(g, e, m), 3u);
  ASSERT_EQ(r.counterexample.size(), 3u);
  EXPECT_EQ(r.counterexample[1], State({Value::integer(1), Value::integer(1)}));
}

TEST_F(OrthogonalityTest, TrippedBudgetMakesTheResultPartial) {
  StateGraph g = generator(/*interleaved=*/true);
  PrefixMachine e(vars, ex_spec);
  PrefixMachine m(vars, my_spec);
  run::RunBudget budget;
  budget.request_stop(run::StopReason::kDeadline);
  OrthogonalityResult r = check_orthogonality(g, e, m, &budget);
  // Neither holds nor refutes: the search stopped before expanding a pair.
  EXPECT_FALSE(r.holds);
  EXPECT_TRUE(r.counterexample.empty());
  EXPECT_EQ(r.stop_reason, run::StopReason::kDeadline);
  // The same search without the budget holds.
  EXPECT_TRUE(check_orthogonality(g, e, m).holds);
}

TEST_F(OrthogonalityTest, AgreesWithOracleOnAllLassos) {
  // E _|_ M as evaluated by the oracle must match a direct prefix-machine
  // simulation on every lasso of the universe (up to length 3).
  Oracle oracle(vars);
  Formula orth = tf::orthogonal(ex_spec, my_spec);
  PrefixMachine e(vars, ex_spec);
  PrefixMachine m(vars, my_spec);
  std::size_t checked = 0;
  for (std::size_t len = 1; len <= 3; ++len) {
    for_each_lasso(vars, len, [&](const LassoBehavior& b) {
      ++checked;
      // Direct simulation around the lasso (two full loops is enough for
      // machines whose configurations are monotone-dead here).
      bool direct = true;
      Value ce = e.initial(b.at(0));
      Value cm = m.initial(b.at(0));
      // n = 0: both vacuously hold for the empty prefix; both failing in
      // the first state already violates orthogonality.
      if (!e.alive(ce) && !m.alive(cm)) direct = false;
      std::size_t pos = 0;
      for (std::size_t k = 0; k < 2 * b.length() + 2 && direct; ++k) {
        const bool e_was = e.alive(ce);
        const bool m_was = m.alive(cm);
        std::size_t next = b.successor(pos);
        ce = e.step(ce, b.at(pos), b.at(next));
        cm = m.step(cm, b.at(pos), b.at(next));
        if (e_was && m_was && !e.alive(ce) && !m.alive(cm)) direct = false;
        pos = next;
      }
      EXPECT_EQ(oracle.evaluate(orth, b), direct) << b.to_string(vars);
      return false;
    });
  }
  EXPECT_GT(checked, 200u);
}

TEST_F(OrthogonalityTest, Prop4SyntacticAgreesWithSemanticCheck) {
  // Under Disjoint(x, y), Proposition 4 concludes orthogonality; the
  // semantic check on the interleaved generator confirms it.
  Obligation prop4 = prop4_orthogonality(vars, ex_spec, {x}, my_spec, {y});
  EXPECT_TRUE(prop4);
  StateGraph g = generator(true);
  PrefixMachine e(vars, ex_spec);
  PrefixMachine m(vars, my_spec);
  EXPECT_TRUE(check_orthogonality(g, e, m).holds);
}

TEST_F(OrthogonalityTest, WhilePlusEquivalenceUnderOrthogonality) {
  // Section 4.2: E _|_ M implies that E -> M and E +> M agree. Verify on
  // every lasso where orthogonality holds.
  Oracle oracle(vars);
  Formula orth = tf::orthogonal(ex_spec, my_spec);
  Formula wp = tf::while_plus(ex_spec, my_spec);
  Formula aw = tf::arrow_while(ex_spec, my_spec);
  for (std::size_t len = 1; len <= 3; ++len) {
    for_each_lasso(vars, len, [&](const LassoBehavior& b) {
      if (oracle.evaluate(orth, b)) {
        EXPECT_EQ(oracle.evaluate(wp, b), oracle.evaluate(aw, b)) << b.to_string(vars);
      }
      return false;
    });
  }
}

}  // namespace
}  // namespace opentla
