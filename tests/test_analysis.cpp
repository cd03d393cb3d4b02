// Unit tests for expression analysis: free variables, flattening, action
// decomposition, DNF expansion, structural equality (opentla/expr/analysis).

#include <gtest/gtest.h>

#include "opentla/expr/analysis.hpp"
#include "opentla/expr/expr.hpp"

namespace opentla {
namespace {

class AnalysisTest : public ::testing::Test {
 protected:
  AnalysisTest() {
    x = vars.declare("x", range_domain(0, 3));
    y = vars.declare("y", range_domain(0, 3));
  }
  VarTable vars;
  VarId x = 0, y = 0;
};

TEST_F(AnalysisTest, FreeVarsSplitsPrimed) {
  Expr e = ex::eq(ex::primed_var(x), ex::add(ex::var(y), ex::integer(1)));
  FreeVars fv = free_vars(e);
  EXPECT_EQ(fv.primed, (std::set<VarId>{x}));
  EXPECT_EQ(fv.unprimed, (std::set<VarId>{y}));
  EXPECT_FALSE(is_state_function(e));
  EXPECT_TRUE(is_state_function(ex::var(y)));
}

TEST_F(AnalysisTest, EnabledHidesPrimedVars) {
  Expr e = ex::enabled(ex::eq(ex::primed_var(x), ex::var(y)));
  FreeVars fv = free_vars(e);
  EXPECT_TRUE(fv.primed.empty());
  EXPECT_EQ(fv.unprimed, (std::set<VarId>{y}));
  EXPECT_TRUE(is_state_function(e));
}

TEST_F(AnalysisTest, FlattenDropsUnits) {
  Expr e = ex::land(ex::land(ex::var(x), ex::top()), ex::var(y));
  EXPECT_EQ(flatten_and(e).size(), 2u);
  Expr o = ex::lor(ex::bottom(), ex::lor(ex::var(x), ex::var(y)));
  EXPECT_EQ(flatten_or(o).size(), 2u);
}

TEST_F(AnalysisTest, DecomposeGuardAssignResidual) {
  // x < 3 /\ x' = x + 1 /\ y' # y
  Expr act = ex::land({ex::lt(ex::var(x), ex::integer(3)),
                       ex::eq(ex::primed_var(x), ex::add(ex::var(x), ex::integer(1))),
                       ex::neq(ex::primed_var(y), ex::var(y))});
  std::vector<ActionDisjunct> ds = decompose_action(act);
  ASSERT_EQ(ds.size(), 1u);
  EXPECT_EQ(ds[0].guards.size(), 1u);
  ASSERT_EQ(ds[0].assignments.size(), 1u);
  EXPECT_EQ(ds[0].assignments[0].first, x);
  EXPECT_EQ(ds[0].residual.size(), 1u);
  EXPECT_EQ(ds[0].unassigned_primed, (std::vector<VarId>{y}));
}

TEST_F(AnalysisTest, DecomposeHandlesSymmetricEquality) {
  // 0 = x' is an assignment too.
  Expr act = ex::eq(ex::integer(0), ex::primed_var(x));
  std::vector<ActionDisjunct> ds = decompose_action(act);
  ASSERT_EQ(ds.size(), 1u);
  ASSERT_EQ(ds[0].assignments.size(), 1u);
  EXPECT_EQ(ds[0].assignments[0].first, x);
}

TEST_F(AnalysisTest, DecomposeTupleAssignment) {
  // <<x', y'>> = <<y, x>> splits into two assignments.
  Expr act = ex::eq(ex::primed_var_tuple({x, y}), ex::make_tuple({ex::var(y), ex::var(x)}));
  std::vector<ActionDisjunct> ds = decompose_action(act);
  ASSERT_EQ(ds.size(), 1u);
  EXPECT_EQ(ds[0].assignments.size(), 2u);
  EXPECT_TRUE(ds[0].residual.empty());
}

TEST_F(AnalysisTest, DoubleAssignmentBecomesResidual) {
  // x' = 0 /\ x' = y: the second constraint must be checked, not dropped.
  Expr act = ex::land(ex::eq(ex::primed_var(x), ex::integer(0)),
                      ex::eq(ex::primed_var(x), ex::var(y)));
  std::vector<ActionDisjunct> ds = decompose_action(act);
  ASSERT_EQ(ds.size(), 1u);
  EXPECT_EQ(ds[0].assignments.size(), 1u);
  EXPECT_EQ(ds[0].residual.size(), 1u);
}

TEST_F(AnalysisTest, DisjunctsDecomposeIndependently) {
  Expr a = ex::eq(ex::primed_var(x), ex::integer(0));
  Expr b = ex::eq(ex::primed_var(y), ex::integer(1));
  std::vector<ActionDisjunct> ds = decompose_action(ex::lor(a, b));
  ASSERT_EQ(ds.size(), 2u);
  EXPECT_EQ(ds[0].assignments[0].first, x);
  EXPECT_EQ(ds[1].assignments[0].first, y);
}

TEST_F(AnalysisTest, ToDnfDistributes) {
  // (A \/ B) /\ (C \/ D) -> 4 disjuncts.
  Expr a = ex::eq(ex::var(x), ex::integer(0));
  Expr b = ex::eq(ex::var(x), ex::integer(1));
  Expr c = ex::eq(ex::var(y), ex::integer(0));
  Expr d = ex::eq(ex::var(y), ex::integer(1));
  Expr dnf = to_dnf(ex::land(ex::lor(a, b), ex::lor(c, d)));
  EXPECT_EQ(flatten_or(dnf).size(), 4u);
}

TEST_F(AnalysisTest, ToDnfLimitsExpansion) {
  std::vector<Expr> big;
  for (int i = 0; i < 6; ++i) {
    big.push_back(ex::lor(ex::eq(ex::var(x), ex::integer(0)),
                          ex::eq(ex::var(x), ex::integer(1))));
  }
  EXPECT_THROW(to_dnf(ex::land(std::move(big)), 8), std::runtime_error);
}

TEST_F(AnalysisTest, FreeVarsThroughNestedEnabled) {
  // ENABLED(x' = y /\ ENABLED(y' = x)): all primes are quantified away at
  // every nesting level; only the unprimed reads leak out.
  Expr inner = ex::enabled(ex::eq(ex::primed_var(y), ex::var(x)));
  Expr e = ex::enabled(ex::land(ex::eq(ex::primed_var(x), ex::var(y)), inner));
  FreeVars fv = free_vars(e);
  EXPECT_TRUE(fv.primed.empty());
  EXPECT_EQ(fv.unprimed, (std::set<VarId>{x, y}));
  EXPECT_TRUE(is_state_function(e));

  // A prime outside the ENABLED still counts.
  Expr mixed = ex::land(e, ex::eq(ex::primed_var(x), ex::integer(0)));
  EXPECT_EQ(free_vars(mixed).primed, (std::set<VarId>{x}));
}

TEST_F(AnalysisTest, ToDnfAtTheLimitStillSucceeds) {
  // 2^2 = 4 disjuncts with max_disjuncts = 4: exactly at the limit, no
  // throw; at 3 the same formula must throw.
  Expr pair = ex::lor(ex::eq(ex::var(x), ex::integer(0)),
                      ex::eq(ex::var(x), ex::integer(1)));
  Expr e = ex::land(pair, pair);
  EXPECT_EQ(flatten_or(to_dnf(e, 4)).size(), 4u);
  EXPECT_THROW(to_dnf(e, 3), std::runtime_error);
}

TEST_F(AnalysisTest, TupleAssignmentArityMismatchStaysResidual) {
  // <<x', y'>> = <<0>>: arities differ, so the equality cannot be split
  // into assignments and must be kept as a residual constraint.
  Expr act = ex::eq(ex::primed_var_tuple({x, y}), ex::make_tuple({ex::integer(0)}));
  std::vector<ActionDisjunct> ds = decompose_action(act);
  ASSERT_EQ(ds.size(), 1u);
  EXPECT_TRUE(ds[0].assignments.empty());
  ASSERT_EQ(ds[0].residual.size(), 1u);
  EXPECT_EQ(ds[0].unassigned_primed, (std::vector<VarId>{x, y}));
}

TEST_F(AnalysisTest, TupleAssignmentWithPrimedRhsStaysResidual) {
  // <<x', y'>> = <<y', x>>: the rhs is not a state function, so this is a
  // constraint to check, not an executable assignment.
  Expr act = ex::eq(ex::primed_var_tuple({x, y}),
                    ex::make_tuple({ex::primed_var(y), ex::var(x)}));
  std::vector<ActionDisjunct> ds = decompose_action(act);
  ASSERT_EQ(ds.size(), 1u);
  EXPECT_TRUE(ds[0].assignments.empty());
  EXPECT_EQ(ds[0].residual.size(), 1u);
}

TEST_F(AnalysisTest, MixedTupleLhsIsNotAnAssignment)  {
  // <<x', y>> = <<0, 1>>: one lhs element is unprimed, so the tuple is not
  // an assignment shape.
  Expr act = ex::eq(ex::make_tuple({ex::primed_var(x), ex::var(y)}),
                    ex::make_tuple({ex::integer(0), ex::integer(1)}));
  std::vector<ActionDisjunct> ds = decompose_action(act);
  ASSERT_EQ(ds.size(), 1u);
  EXPECT_TRUE(ds[0].assignments.empty());
  EXPECT_EQ(ds[0].residual.size(), 1u);
}

TEST_F(AnalysisTest, TupleAssignmentSwappedOrientation) {
  // <<y, x>> = <<x', y'>> orients to the primed side and splits.
  Expr act = ex::eq(ex::make_tuple({ex::var(y), ex::var(x)}),
                    ex::primed_var_tuple({x, y}));
  std::vector<ActionDisjunct> ds = decompose_action(act);
  ASSERT_EQ(ds.size(), 1u);
  ASSERT_EQ(ds[0].assignments.size(), 2u);
  EXPECT_EQ(ds[0].assignments[0].first, x);
  EXPECT_EQ(ds[0].assignments[1].first, y);
  EXPECT_TRUE(ds[0].residual.empty());
}

TEST_F(AnalysisTest, FoldConstantEvaluatesClosedExpressions) {
  // (1 + 2) * 3 = 9, comparisons, and sequence operators.
  Expr nine = ex::mul(ex::add(ex::integer(1), ex::integer(2)), ex::integer(3));
  ASSERT_TRUE(fold_constant(nine).has_value());
  EXPECT_EQ(fold_constant(nine)->as_int(), 9);
  EXPECT_EQ(fold_constant(ex::lt(ex::integer(2), ex::integer(1)))->as_bool(), false);
  Expr seq = ex::make_tuple({ex::integer(4), ex::integer(5)});
  EXPECT_EQ(fold_constant(ex::len(seq))->as_int(), 2);
  EXPECT_EQ(fold_constant(ex::head(seq))->as_int(), 4);
  EXPECT_EQ(fold_constant(ex::index(seq, ex::integer(2)))->as_int(), 5);
}

TEST_F(AnalysisTest, FoldConstantShortCircuits) {
  // FALSE /\ x' = 0 folds to FALSE even though one conjunct is open.
  Expr open = ex::eq(ex::primed_var(x), ex::integer(0));
  EXPECT_EQ(fold_constant(ex::land(ex::bottom(), open))->as_bool(), false);
  EXPECT_EQ(fold_constant(ex::lor(ex::top(), open))->as_bool(), true);
  // An open expression with no determining constant does not fold.
  EXPECT_FALSE(fold_constant(ex::land(ex::top(), open)).has_value());
  EXPECT_FALSE(fold_constant(ex::var(x)).has_value());
  EXPECT_FALSE(fold_constant(ex::enabled(open)).has_value());
}

TEST_F(AnalysisTest, FoldConstantRefusesOverflowAndBadMod) {
  // Arithmetic that would overflow (or a nonpositive divisor) never folds:
  // evaluation reports these as errors, and folding them to a wrapped value
  // would silently change program behavior.
  const Expr max = ex::integer(INT64_MAX);
  const Expr min = ex::integer(INT64_MIN);
  EXPECT_FALSE(fold_constant(ex::add(max, ex::integer(1))).has_value());
  EXPECT_FALSE(fold_constant(ex::sub(min, ex::integer(1))).has_value());
  EXPECT_FALSE(fold_constant(ex::mul(max, ex::integer(2))).has_value());
  EXPECT_FALSE(fold_constant(ex::neg(min)).has_value());
  EXPECT_FALSE(fold_constant(ex::mod(ex::integer(1), ex::integer(0))).has_value());
  EXPECT_FALSE(fold_constant(ex::mod(ex::integer(1), ex::integer(-2))).has_value());
  // Floored modulo folds like it evaluates: -3 % 2 = 1.
  EXPECT_EQ(fold_constant(ex::mod(ex::integer(-3), ex::integer(2)))->as_int(), 1);
}

TEST_F(AnalysisTest, ResidualPrimedCoversAssignedVarsInResidual) {
  // x' = x + 1 /\ y' # x': x' is assigned AND occurs in the residual, so
  // residual_primed = {x, y} while unassigned_primed = {y}. Footprint
  // analysis unions residual_primed with the assignments, so nothing is
  // lost either way.
  Expr act = ex::land({ex::eq(ex::primed_var(x), ex::add(ex::var(x), ex::integer(1))),
                       ex::neq(ex::primed_var(y), ex::primed_var(x))});
  std::vector<ActionDisjunct> ds = decompose_action(act);
  ASSERT_EQ(ds.size(), 1u);
  EXPECT_EQ(ds[0].residual_primed, (std::vector<VarId>{x, y}));
  EXPECT_EQ(ds[0].unassigned_primed, (std::vector<VarId>{y}));
  // A disjunct with no residual has no residual primed variables.
  std::vector<ActionDisjunct> plain =
      decompose_action(ex::eq(ex::primed_var(x), ex::integer(0)));
  ASSERT_EQ(plain.size(), 1u);
  EXPECT_TRUE(plain[0].residual_primed.empty());
}

TEST_F(AnalysisTest, StructuralEquality) {
  Expr a = ex::land(ex::eq(ex::var(x), ex::integer(0)), ex::unchanged({y}));
  Expr b = ex::land(ex::eq(ex::var(x), ex::integer(0)), ex::unchanged({y}));
  Expr c = ex::land(ex::eq(ex::var(x), ex::integer(1)), ex::unchanged({y}));
  EXPECT_TRUE(structurally_equal(a, b));
  EXPECT_FALSE(structurally_equal(a, c));
  EXPECT_TRUE(structurally_equal(ex::local("v"), ex::local("v")));
  EXPECT_FALSE(structurally_equal(ex::local("v"), ex::local("w")));
  EXPECT_FALSE(structurally_equal(ex::var(x), ex::primed_var(x)));
}

}  // namespace
}  // namespace opentla
