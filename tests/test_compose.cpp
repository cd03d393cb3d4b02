// Unit tests for composition-as-conjunction (opentla/compose): composite
// graphs, conjunction_as_spec, pins, free tuples, coverage errors, and the
// Disjoint interleaving condition; and a differential test of the
// composite walk against the generate-and-filter oracle (each mover's
// successors filtered by every part's [N]_v) on the paper's systems and on
// random three-part composites under Disjoint.

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <set>
#include <unordered_set>

#include "opentla/ag/ag_spec.hpp"
#include "opentla/compose/compose.hpp"
#include "opentla/expr/eval.hpp"
#include "opentla/graph/successor.hpp"
#include "opentla/queue/double_queue.hpp"
#include "opentla/queue/queue_spec.hpp"
#include "opentla/tla/disjoint.hpp"

namespace opentla {
namespace {

class ComposeTest : public ::testing::Test {
 protected:
  ComposeTest() {
    a = vars.declare("a", range_domain(0, 1));
    b = vars.declare("b", range_domain(0, 1));
    // Component A: toggles a; component B: toggles b.
    toggler_a = toggler(a, "A");
    toggler_b = toggler(b, "B");
  }

  CanonicalSpec toggler(VarId v, std::string name) {
    CanonicalSpec s;
    s.name = std::move(name);
    s.init = ex::eq(ex::var(v), ex::integer(0));
    s.next = ex::eq(ex::primed_var(v), ex::sub(ex::integer(1), ex::var(v)));
    s.sub = {v};
    return s;
  }

  VarTable vars;
  VarId a = 0, b = 0;
  CanonicalSpec toggler_a, toggler_b;
};

TEST_F(ComposeTest, ConjunctionAllowsSimultaneousMoves) {
  // Without Disjoint, [N_A]_a /\ [N_B]_b admits the step toggling both.
  StateGraph g = build_composite_graph(vars, {{toggler_a, true}, {toggler_b, true}});
  EXPECT_EQ(g.num_states(), 4u);
  // From (0,0): stutter, toggle a (b free via N_A's missing frame? no:
  // N_A leaves b' unconstrained, so toggling a enumerates b too; B's
  // constraint then requires b' = b or a toggle — both allowed).
  const StateId s00 = g.initial()[0];
  EXPECT_EQ(g.successors(s00).size(), 4u);  // all four states reachable in one step
}

TEST_F(ComposeTest, DisjointRestrictsToInterleavings) {
  CanonicalSpec disjoint = make_disjoint({{a}, {b}});
  StateGraph g = build_composite_graph(
      vars, {{toggler_a, true}, {toggler_b, true}, {disjoint, false}});
  const StateId s00 = g.initial()[0];
  // Now only stutter, toggle-a, toggle-b: the double-toggle is filtered.
  EXPECT_EQ(g.successors(s00).size(), 3u);
}

TEST_F(ComposeTest, StepDisjointHelper) {
  State s({Value::integer(0), Value::integer(0)});
  State both({Value::integer(1), Value::integer(1)});
  State onea({Value::integer(1), Value::integer(0)});
  EXPECT_TRUE(step_disjoint({{a}, {b}}, s, s));
  EXPECT_TRUE(step_disjoint({{a}, {b}}, s, onea));
  EXPECT_FALSE(step_disjoint({{a}, {b}}, s, both));
}

TEST_F(ComposeTest, ConjunctionAsSpecMatchesCompositeGraph) {
  CanonicalSpec conj = conjunction_as_spec({toggler_a, toggler_b}, "AB");
  StateGraph direct = build_composite_graph(vars, {{conj, true}});
  StateGraph parts = build_composite_graph(vars, {{toggler_a, true}, {toggler_b, true}});
  EXPECT_EQ(direct.num_states(), parts.num_states());
  EXPECT_EQ(direct.num_edges(), parts.num_edges());
}

TEST_F(ComposeTest, ConjunctionAsSpecCollectsPieces) {
  CanonicalSpec fair = toggler_a;
  Fairness f;
  f.kind = Fairness::Kind::Weak;
  f.sub = {a};
  f.action = fair.next;
  fair.fairness.push_back(f);
  fair.hidden = {a};
  CanonicalSpec conj = conjunction_as_spec({fair, toggler_b}, "AB");
  EXPECT_EQ(conj.sub.size(), 2u);
  EXPECT_EQ(conj.fairness.size(), 1u);
  EXPECT_EQ(conj.hidden, std::vector<VarId>{a});
}

TEST_F(ComposeTest, CoverageErrorForUnconstrainedVariable) {
  EXPECT_THROW(build_composite_graph(vars, {{toggler_a, true}}), std::runtime_error);
}

TEST_F(ComposeTest, PinFreezesVariables) {
  CanonicalSpec pin = make_pin(vars, {b}, "PinB");
  StateGraph g = build_composite_graph(vars, {{toggler_a, true}, {pin, false}}, {}, {b});
  EXPECT_EQ(g.num_states(), 2u);  // b stays at its first domain value
  for (StateId s = 0; s < g.num_states(); ++s) {
    EXPECT_EQ(g.state(s)[b].as_int(), 0);
  }
}

TEST_F(ComposeTest, FreeTuplesGenerateEnvironmentMoves) {
  // Only A is a mover, but b may move freely via the free tuple (covered
  // by a frame part).
  CanonicalSpec frame;
  frame.name = "FrameB";
  frame.init = ex::eq(ex::var(b), ex::integer(0));
  frame.next = ex::top();
  frame.sub = {b};
  StateGraph g =
      build_composite_graph(vars, {{toggler_a, true}, {frame, false}}, {{b}});
  EXPECT_EQ(g.num_states(), 4u);
}

TEST_F(ComposeTest, AllFairnessConcatenates) {
  CanonicalSpec fa = toggler_a;
  Fairness f;
  f.kind = Fairness::Kind::Weak;
  f.sub = {a};
  f.action = fa.next;
  fa.fairness.push_back(f);
  EXPECT_EQ(all_fairness({fa, toggler_b}).size(), 1u);
  EXPECT_EQ(all_fairness({fa, fa}).size(), 2u);
}

// ------------------------------------------- composite walk vs the oracle

/// The generate-and-filter oracle: each mover's successors (pinned as the
/// composite walk pins them) and each free-tuple move, kept only when every
/// part's [N]_v allows the step.
StateGraph filtered_composite(const VarTable& vars, const std::vector<CompositePart>& parts,
                              const std::vector<std::vector<VarId>>& free_tuples,
                              const std::vector<VarId>& pinned) {
  std::vector<Expr> inits;
  std::vector<ActionSuccessors> movers;
  for (const CompositePart& p : parts) {
    inits.push_back(p.spec.init);
    if (!p.mover) continue;
    std::vector<VarId> part_pinned = pinned;
    part_pinned.insert(part_pinned.end(), p.extra_pinned.begin(), p.extra_pinned.end());
    movers.emplace_back(vars, p.spec.next, std::move(part_pinned));
  }
  for (const std::vector<VarId>& tuple : free_tuples) {
    std::vector<VarId> complement;
    for (VarId v = 0; v < vars.size(); ++v) {
      if (std::find(tuple.begin(), tuple.end(), v) == tuple.end()) complement.push_back(v);
    }
    movers.emplace_back(vars, ex::unchanged(complement));
  }
  auto succ = [&vars, &parts, movers = std::move(movers)](
                  const State& s, const std::function<void(const State&)>& emit) {
    std::unordered_set<State, StateHash> seen;
    for (const ActionSuccessors& mover : movers) {
      mover.for_each_successor(s, [&](const State& t) {
        if (!seen.insert(t).second) return;
        for (const CompositePart& p : parts) {
          if (!p.spec.step_ok(vars, s, t)) return;
        }
        emit(t);
      });
    }
  };
  return StateGraph(vars,
                    ActionSuccessors::states_satisfying(vars, ex::land(std::move(inits)), pinned),
                    succ, ExploreOptions{});
}

/// The graph as sets of states, initial states and edges (ids differ when
/// the emission order does).
struct GraphSets {
  std::set<std::vector<Value>> states, initial;
  std::set<std::pair<std::vector<Value>, std::vector<Value>>> edges;
  bool operator==(const GraphSets&) const = default;
};

GraphSets sets_of(const StateGraph& g) {
  GraphSets out;
  for (StateId s = 0; s < g.num_states(); ++s) {
    const std::vector<Value> from = g.state(s).values();
    out.states.insert(from);
    for (StateId t : g.successors(s)) out.edges.insert({from, g.state(t).values()});
  }
  for (StateId s : g.initial()) out.initial.insert(g.state(s).values());
  return out;
}

void expect_walk_matches_oracle(const VarTable& vars, const std::vector<CompositePart>& parts,
                                const std::vector<std::vector<VarId>>& free_tuples,
                                const std::vector<VarId>& pinned) {
  const StateGraph walk = build_composite_graph(vars, parts, free_tuples, pinned);
  const StateGraph oracle = filtered_composite(vars, parts, free_tuples, pinned);
  ASSERT_EQ(walk.num_states(), oracle.num_states());
  ASSERT_EQ(walk.num_edges(), oracle.num_edges());
  EXPECT_TRUE(sets_of(walk) == sets_of(oracle));
}

TEST(CompositeWalk, MatchesOracleOnFig6CompleteQueue) {
  const QueueSystem sys = make_queue_system(2, 2);
  expect_walk_matches_oracle(sys.vars, {{sys.specs.complete.unhidden(), true}}, {}, {});
}

TEST(CompositeWalk, MatchesOracleOnFig9CompleteDoubleQueue) {
  const DoubleQueueSystem sys = make_double_queue(1, 2);
  expect_walk_matches_oracle(
      sys.vars, {{make_cdq(sys).unhidden(), true}, {make_pin(sys.vars, {sys.q}, "PinQ"), false}},
      {}, {sys.q});
}

TEST(CompositeWalk, MatchesOracleOnClosedTripleChain) {
  const TripleQueueSystem t = make_triple_queue(1, 1);
  expect_walk_matches_oracle(t.vars,
                             {{t.big.env, true},
                              {t.qm1.unhidden(), true},
                              {t.qm2.unhidden(), true},
                              {t.qm3.unhidden(), true},
                              {t.g, false},
                              {make_pin(t.vars, {t.q}, "PinQ"), false}},
                             {}, {t.q});
}

/// The H2b product of formula (4) as verify_composition builds it: the goal
/// environment, G as a filter, the unhidden queues, and the goal's fresh
/// hidden buffer pinned by PinUnconstrained.
TEST(CompositeWalk, MatchesOracleOnFormula4H2bProduct) {
  const DoubleQueueSystem sys = make_double_queue(1, 2);
  const std::vector<VarId> pin_tuple = {sys.q};
  expect_walk_matches_oracle(sys.vars,
                             {{sys.dbl.env, true},
                              {sys.g, false},
                              {sys.qm1.unhidden(), true},
                              {sys.qm2.unhidden(), true},
                              {make_pin(sys.vars, pin_tuple, "PinUnconstrained"), false}},
                             {}, pin_tuple);
  // The free-tuple form: the environment's outputs move freely instead of
  // by the goal environment's actions.
  CanonicalSpec env_frame;
  env_frame.name = "EnvFrame";
  env_frame.init = sys.dbl.env.init;
  env_frame.next = ex::top();
  env_frame.sub = sys.env_out;
  expect_walk_matches_oracle(sys.vars,
                             {{env_frame, false},
                              {sys.g, false},
                              {sys.qm1.unhidden(), true},
                              {sys.qm2.unhidden(), true},
                              {make_pin(sys.vars, pin_tuple, "PinUnconstrained"), false}},
                             {sys.env_out}, pin_tuple);
}

/// The triple proof's H2b product under the interleaving optimization:
/// each mover pins every variable outside its outputs and buffer.
TEST(CompositeWalk, MatchesOracleOnTripleH2bProductWithExtraPins) {
  const TripleQueueSystem t = make_triple_queue(1, 1);
  const std::vector<VarId> hidden = {t.q1, t.q2, t.q3, t.q};
  const auto pins = [&](std::vector<VarId> own) {
    std::vector<VarId> pinned = hidden;
    for (VarId v = 0; v < t.vars.size(); ++v) {
      if (std::find(own.begin(), own.end(), v) == own.end()) pinned.push_back(v);
    }
    return pinned;
  };
  const std::vector<VarId> pin_tuple = {t.q};
  expect_walk_matches_oracle(
      t.vars,
      {{t.big.env, true, pins({t.i.sig, t.i.val, t.o.ack})},
       {t.g, false},
       {t.qm1.unhidden(), true, pins({t.z1.sig, t.z1.val, t.i.ack, t.q1})},
       {t.qm2.unhidden(), true, pins({t.z2.sig, t.z2.val, t.z1.ack, t.q2})},
       {t.qm3.unhidden(), true, pins({t.o.sig, t.o.val, t.z2.ack, t.q3})},
       {make_pin(t.vars, pin_tuple, "PinUnconstrained"), false}},
      {}, pin_tuple);
}

/// Formula (3) has no Disjoint part, so both queues may move in one step.
/// H2b pins every component's hidden buffer for each mover; the walk still
/// reaches the joint steps, because the other queue's [N]_v branch binds
/// its buffer. The mover+filter oracle under the same pins loses them (48
/// of 2326 edges), which once let H2b "prove" formula (3); the unpinned
/// oracle is the exact conjunction.
TEST(CompositeWalk, KeepsJointStepsOfFormula3H2bProductUnderHiddenPins) {
  const DoubleQueueSystem sys = make_double_queue(1, 2);
  const std::vector<VarId> pin_tuple = {sys.q};
  const std::vector<VarId> hidden = {sys.q1, sys.q2, sys.q};
  const auto parts = [&](const std::vector<VarId>& pins) {
    return std::vector<CompositePart>{
        {sys.dbl.env, true, pins},
        {sys.qm1.unhidden(), true, pins},
        {sys.qm2.unhidden(), true, pins},
        {make_pin(sys.vars, pin_tuple, "PinUnconstrained"), false}};
  };
  const StateGraph walk = build_composite_graph(sys.vars, parts(hidden), {}, pin_tuple);
  const StateGraph exact = filtered_composite(sys.vars, parts({}), {}, pin_tuple);
  EXPECT_TRUE(sets_of(walk) == sets_of(exact));
  EXPECT_GT(walk.num_edges(),
            filtered_composite(sys.vars, parts(hidden), {}, pin_tuple).num_edges());
}

/// Random three-part composites: two movers with nested actions over their
/// own outputs (reading everything) and a Disjoint filter part. A mover may
/// pin everything outside its outputs, the interleaving optimization the
/// Disjoint part makes sound.
class RandomComposite {
 public:
  explicit RandomComposite(unsigned seed) : rng_(seed) {
    x_ = vars_.declare("x", range_domain(0, 2));
    y_ = vars_.declare("y", range_domain(0, 2));
    z_ = vars_.declare("z", range_domain(0, 1));
  }

  const VarTable& vars() const { return vars_; }

  std::vector<CompositePart> parts() {
    CanonicalSpec a = spec("A", {x_});
    CanonicalSpec b = spec("B", {y_, z_});
    std::vector<CompositePart> out = {{a, true, maybe_pins({y_, z_})},
                                      {b, true, maybe_pins({x_})}};
    out.insert(out.begin() + pick(3), {make_disjoint({{x_}, {y_, z_}}), false});
    return out;
  }

 private:
  int pick(int n) { return std::uniform_int_distribution<int>(0, n - 1)(rng_); }
  Expr val(VarId v) { return ex::integer(pick(v == z_ ? 2 : 3)); }
  std::vector<VarId> maybe_pins(std::vector<VarId> others) {
    return pick(2) == 0 ? std::vector<VarId>{} : others;
  }
  VarId any() { return std::vector<VarId>{x_, y_, z_}[static_cast<std::size_t>(pick(3))]; }

  CanonicalSpec spec(std::string name, std::vector<VarId> own) {
    CanonicalSpec s;
    s.name = std::move(name);
    s.init = pick(2) == 0 ? ex::top() : ex::eq(ex::var(own[0]), ex::integer(0));
    std::vector<Expr> ds;
    for (int i = 1 + pick(2); i > 0; --i) ds.push_back(conjunction(own, /*depth=*/1));
    s.next = ex::lor(std::move(ds));
    s.sub = std::move(own);
    return s;
  }

  Expr conjunction(const std::vector<VarId>& own, int depth) {
    std::vector<Expr> cs;
    for (int i = 1 + pick(3); i > 0; --i) {
      const VarId o = own[static_cast<std::size_t>(pick(static_cast<int>(own.size())))];
      switch (pick(depth > 0 ? 7 : 6)) {
        case 0: cs.push_back(ex::eq(ex::var(any()), val(o))); break;
        case 1: cs.push_back(ex::eq(ex::primed_var(o), val(o))); break;
        case 2: cs.push_back(ex::neq(ex::primed_var(o), ex::var(o))); break;
        case 3: cs.push_back(ex::unchanged({o})); break;
        case 4: cs.push_back(ex::le(ex::primed_var(o), ex::var(any()))); break;
        case 5: cs.push_back(ex::eq(ex::primed_var(o), ex::var(any()))); break;
        default:
          cs.push_back(ex::lor(conjunction(own, depth - 1), conjunction(own, depth - 1)));
      }
    }
    return ex::land(std::move(cs));
  }

  VarTable vars_;
  VarId x_ = 0, y_ = 0, z_ = 0;
  std::mt19937 rng_;
};

class CompositeWalkHarness : public ::testing::TestWithParam<unsigned> {};

TEST_P(CompositeWalkHarness, MatchesOracleOnRandomDisjointComposites) {
  RandomComposite gen(GetParam());
  for (int c = 0; c < 40; ++c) {
    SCOPED_TRACE("seed=" + std::to_string(GetParam()) + " case=" + std::to_string(c));
    const std::vector<CompositePart> parts = gen.parts();
    ASSERT_NO_FATAL_FAILURE(expect_walk_matches_oracle(gen.vars(), parts, {}, {}));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CompositeWalkHarness, ::testing::Range(0u, 8u));

}  // namespace
}  // namespace opentla
