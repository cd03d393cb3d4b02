// Randomized differential harness: ~2000 seeded random small systems, each
// checked three ways against each other —
//
//   1. the serial StateGraph vs the parallel StateGraph (bit-identical:
//      ids, adjacency, initial());
//   2. the graph-based invariant checker's verdict on both graphs;
//   3. the semantic layer: check_validity_bounded's exhaustive lasso
//      enumeration and the independent Oracle must agree with the graph
//      verdict (violations come with a witness the Oracle refutes; a
//      "holds" verdict means no bounded lasso may violate the claim), and
//      random graph walks (random_graph_lasso) must be behaviors of the
//      spec per the Oracle.
//
// A fourth differential axis targets successor generation itself: the
// walker against the naive odometer (behind
// ActionSuccessors::set_naive_enumeration_for_test) and against brute-force
// evaluation of the action on every pair of states, over random actions
// with nested disjunctions, UNCHANGED frames, tuple assignments, three-
// valued domains and a sequence variable. Successor sets, enabled() and
// guards_enabled() must agree.
//
// Every assertion carries the failing seed and case index so a failure is
// reproducible in isolation.

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <unordered_map>
#include <vector>

#include "opentla/analysis/independence.hpp"
#include "opentla/check/invariant.hpp"
#include "opentla/compose/compose.hpp"
#include "opentla/expr/eval.hpp"
#include "opentla/graph/successor.hpp"
#include "opentla/state/state_space.hpp"
#include "opentla/semantics/enumerate.hpp"
#include "opentla/semantics/oracle.hpp"
#include "opentla/state/arena.hpp"
#include "opentla/state/sharded_store.hpp"
#include "opentla/state/state.hpp"

namespace opentla {
namespace {

constexpr unsigned kSeeds = 8;
constexpr unsigned kCasesPerSeed = 250;  // 8 x 250 = 2000 systems

/// Same tiny-universe generator idiom as test_properties's RandomSpecs:
/// two binary variables, random guarded-assignment specs over them.
class CaseGen {
 public:
  explicit CaseGen(unsigned seed) : rng_(seed) {
    x_ = vars_.declare("x", range_domain(0, 1));
    y_ = vars_.declare("y", range_domain(0, 1));
  }

  VarTable& vars() { return vars_; }
  VarId x() const { return x_; }
  VarId y() const { return y_; }
  std::mt19937& rng() { return rng_; }

  std::int64_t bit() { return std::uniform_int_distribution<int>(0, 1)(rng_); }
  bool coin() { return bit() == 1; }

  Expr predicate(VarId v) { return ex::eq(ex::var(v), ex::integer(bit())); }

  Expr guarded_assign(VarId v, VarId pin) {
    std::vector<Expr> conj;
    if (coin()) conj.push_back(ex::eq(ex::var(v), ex::integer(bit())));
    conj.push_back(ex::eq(ex::primed_var(v), ex::integer(bit())));
    conj.push_back(ex::unchanged({pin}));
    return ex::land(std::move(conj));
  }

  CanonicalSpec spec(VarId v, VarId other, std::string name) {
    CanonicalSpec s;
    s.name = std::move(name);
    s.init = coin() ? ex::top() : predicate(v);
    std::vector<Expr> disjuncts = {guarded_assign(v, other)};
    if (coin()) disjuncts.push_back(guarded_assign(v, other));
    s.next = ex::lor(std::move(disjuncts));
    s.sub = {v};
    return s;
  }

 private:
  VarTable vars_;
  VarId x_ = 0, y_ = 0;
  std::mt19937 rng_;
};

ExploreOptions with_threads(unsigned threads) {
  ExploreOptions opts;
  opts.threads = threads;
  return opts;
}

class DifferentialHarness : public ::testing::TestWithParam<unsigned> {};

TEST_P(DifferentialHarness, SerialParallelAndSemanticVerdictsAgree) {
  const unsigned seed = GetParam();
  CaseGen gen(seed);
  Oracle oracle(gen.vars());

  for (unsigned c = 0; c < kCasesPerSeed; ++c) {
    SCOPED_TRACE("seed=" + std::to_string(seed) + " case=" + std::to_string(c));

    CanonicalSpec sx = gen.spec(gen.x(), gen.y(), "SX");
    CanonicalSpec sy = gen.spec(gen.y(), gen.x(), "SY");
    const std::vector<CompositePart> parts = {{sx, true}, {sy, true}};

    // 1. The parallel engine must reproduce the serial graph bit for bit.
    // Cycle through worker counts so stealing and contention paths vary.
    const unsigned threads = 2u << (c % 3);  // 2, 4, 8
    StateGraph serial = build_composite_graph(gen.vars(), parts, {}, {}, with_threads(1));
    StateGraph parallel =
        build_composite_graph(gen.vars(), parts, {}, {}, with_threads(threads));
    ASSERT_EQ(serial.num_states(), parallel.num_states());
    ASSERT_EQ(serial.num_edges(), parallel.num_edges());
    ASSERT_EQ(serial.initial(), parallel.initial());
    for (StateId s = 0; s < serial.num_states(); ++s) {
      ASSERT_EQ(serial.state(s), parallel.state(s)) << "state id " << s;
      ASSERT_EQ(serial.successors(s), parallel.successors(s)) << "adjacency of " << s;
    }

    // 2. Both graphs yield the same invariant verdict.
    Expr p = ex::lor(gen.predicate(gen.x()), gen.predicate(gen.y()));
    InvariantResult rs = check_invariant(serial, p);
    InvariantResult rp = check_invariant(parallel, p);
    ASSERT_EQ(rs.holds, rp.holds);

    // 3. The semantic layer agrees. The claim: SX /\ SY => [](p).
    Formula claim =
        tf::implies(tf::land(tf::spec(sx), tf::spec(sy)), tf::always(tf::pred(p)));
    if (rs.holds) {
      // No lasso up to the bound may violate a claim the checker proved
      // over the full reachable graph.
      BoundedValidity bv = check_validity_bounded(gen.vars(), claim, /*max_len=*/3);
      EXPECT_TRUE(bv.valid) << (bv.violation ? bv.violation->to_string(gen.vars())
                                             : std::string("(no witness)"));
    } else {
      // The checker's counterexample, closed by stuttering, must refute
      // the claim per the independent oracle.
      LassoBehavior witness(rs.counterexample, rs.counterexample.size() - 1);
      EXPECT_FALSE(oracle.evaluate(claim, witness)) << witness.to_string(gen.vars());
    }

    // Random walks over the (parallel) graph are behaviors of the safety
    // conjunction — the graph adds nothing the specs don't allow.
    if (serial.num_states() > 0 && !serial.initial().empty()) {
      Formula both = tf::land(tf::spec(sx), tf::spec(sy));
      LassoBehavior walk = random_graph_lasso(parallel, gen.rng(), /*max_steps=*/16);
      EXPECT_TRUE(oracle.evaluate(both, walk)) << walk.to_string(gen.vars());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialHarness, ::testing::Range(0u, kSeeds));

/// Random actions over a four-variable universe: x and y range over three
/// values, z over two, and s is a sequence over {0, 1} of length at most 1.
/// The shapes are biased toward residual constraints (primed-primed
/// comparisons, negative constraints) and, for the widened generator,
/// toward the paper's shapes: disjunctions nested inside conjunctions,
/// UNCHANGED frames, tuple assignments and sequence updates. The narrow
/// generator (widened = false) keeps the original three-variable universe
/// and flat shapes; the independence harness uses it.
class ActionGen {
 public:
  explicit ActionGen(unsigned seed, bool widened = true) : rng_(seed), widened_(widened) {
    v_[0] = vars_.declare("x", range_domain(0, 2));
    v_[1] = vars_.declare("y", range_domain(0, 2));
    v_[2] = vars_.declare("z", range_domain(0, 1));
    if (widened_) s_ = vars_.declare("s", seq_domain(range_domain(0, 1), 1));
  }

  VarTable& vars() { return vars_; }

  Expr action() {
    const int disjuncts = 1 + pick(2);
    std::vector<Expr> ds;
    for (int i = 0; i < disjuncts; ++i) ds.push_back(disjunct(/*depth=*/2));
    return ex::lor(std::move(ds));
  }

  /// A random subset of the universe (possibly empty), for pinning.
  std::vector<VarId> subset() {
    std::vector<VarId> p;
    for (VarId v : vars_.all_vars()) {
      if (pick(3) == 0) p.push_back(v);
    }
    return p;
  }

  /// A random non-empty variable pool (each of x, y, z by coin flip).
  std::vector<VarId> pool() {
    std::vector<VarId> p;
    for (VarId v : v_) {
      if (pick(2) == 1) p.push_back(v);
    }
    if (p.empty()) p.push_back(v_[pick(3)]);
    return p;
  }

  /// A component-style action: conjuncts touch only `p`'s variables and
  /// everything outside `p` is framed with UNCHANGED. Two such actions
  /// over disjoint pools have disjoint footprints, so the independence
  /// harness actually gets claimed-independent pairs to refute.
  Expr framed_action(const std::vector<VarId>& p) {
    std::vector<VarId> complement;
    for (VarId v : v_) {
      if (std::find(p.begin(), p.end(), v) == p.end()) complement.push_back(v);
    }
    const int disjuncts = 1 + pick(2);
    std::vector<Expr> ds;
    for (int i = 0; i < disjuncts; ++i) {
      const int n = 1 + pick(3);
      std::vector<Expr> cs;
      for (int j = 0; j < n; ++j) cs.push_back(conjunct_over(p));
      if (!complement.empty()) cs.push_back(ex::unchanged(complement));
      ds.push_back(ex::land(std::move(cs)));
    }
    return ex::lor(std::move(ds));
  }

 private:
  int pick(int n) { return std::uniform_int_distribution<int>(0, n - 1)(rng_); }
  Expr val(VarId v) { return ex::integer(pick(v == v_[2] ? 2 : 3)); }

  Expr conjunct() {
    if (widened_ && pick(2) == 0) return widened_conjunct();
    return conjunct_over({v_[0], v_[1], v_[2]});
  }

  Expr conjunct_over(const std::vector<VarId>& p) {
    const VarId a = p[static_cast<std::size_t>(pick(static_cast<int>(p.size())))];
    const VarId b = p[static_cast<std::size_t>(pick(static_cast<int>(p.size())))];
    switch (pick(6)) {
      case 0: return ex::eq(ex::var(a), val(a));                       // guard
      case 1: return ex::eq(ex::primed_var(a), val(a));                // assignment
      case 2: return ex::neq(ex::primed_var(a), val(a));               // residual, 1 var
      case 3: return ex::neq(ex::primed_var(a), ex::primed_var(b));    // residual, 2 vars
      case 4: return ex::le(ex::primed_var(a), ex::var(b));            // residual, 1 var
      default: return ex::eq(ex::primed_var(a), ex::var(b));           // assignment
    }
  }

  /// UNCHANGED frames, tuple assignments and sequence updates. Partial
  /// operators (Head, Tail) sit behind a Len guard in the same
  /// conjunction, so left-to-right evaluation never applies them to <<>>.
  Expr widened_conjunct() {
    const VarId a = v_[pick(3)];
    const VarId b = v_[(static_cast<std::size_t>(a) + 1 + pick(2)) % 3];
    const Expr s = ex::var(s_);
    const Expr s_next = ex::primed_var(s_);
    const Expr nonempty = ex::gt(ex::len(s), ex::integer(0));
    switch (pick(7)) {
      case 0: {
        std::vector<VarId> frame = subset();
        if (frame.empty()) frame.push_back(a);
        return ex::unchanged(frame);
      }
      case 1:  // <<a', b'>> = <<e1, e2>>
        return ex::eq(ex::make_tuple({ex::primed_var(a), ex::primed_var(b)}),
                      ex::make_tuple({pick(2) == 0 ? val(a) : ex::var(b),
                                      pick(2) == 0 ? val(b) : ex::var(a)}));
      case 2: return ex::eq(s_next, ex::append(s, ex::integer(pick(2))));
      case 3: return ex::land(nonempty, ex::eq(s_next, ex::tail(s)));
      case 4: return ex::land(nonempty, ex::eq(ex::primed_var(a), ex::head(s)));
      case 5: return ex::neq(s_next, s);                               // residual on s
      default:
        return ex::le(ex::len(s_next), ex::primed_var(a));             // residual, 2 vars
    }
  }

  Expr disjunct(int depth) {
    const int n = 1 + pick(depth == 2 ? 4 : 3);
    std::vector<Expr> cs;
    for (int i = 0; i < n; ++i) {
      if (widened_ && depth > 0 && pick(3) == 0) {
        cs.push_back(nested_or(depth - 1));
      } else {
        cs.push_back(conjunct());
      }
    }
    return ex::land(std::move(cs));
  }

  /// A disjunction nested inside a conjunction, as in QE /\ q' = q.
  Expr nested_or(int depth) {
    const int branches = 2 + pick(2);
    std::vector<Expr> bs;
    for (int i = 0; i < branches; ++i) bs.push_back(disjunct(depth));
    return ex::lor(std::move(bs));
  }

  VarTable vars_;
  VarId v_[3] = {0, 0, 0};
  VarId s_ = 0;
  std::mt19937 rng_;
  bool widened_ = true;
};

/// Sorted by value, so successor sets compare as sets.
std::vector<State> sorted_states(std::vector<State> states) {
  std::sort(states.begin(), states.end(), [](const State& a, const State& b) {
    return a.values() < b.values();
  });
  return states;
}

/// RAII toggle so an ASSERT early-exit can't leave the naive switch set.
struct ForceNaiveEnumeration {
  ForceNaiveEnumeration() { ActionSuccessors::set_naive_enumeration_for_test(true); }
  ~ForceNaiveEnumeration() { ActionSuccessors::set_naive_enumeration_for_test(false); }
};

class WalkVsNaiveHarness : public ::testing::TestWithParam<unsigned> {};

TEST_P(WalkVsNaiveHarness, SameSuccessorSetsEnabledAndGuardVerdicts) {
  const unsigned seed = GetParam();
  ActionGen gen(seed);
  const VarTable& vars = gen.vars();
  StateSpace space(vars);
  std::vector<State> all;
  space.for_each_state([&](const State& t) { all.push_back(t); });

  for (unsigned c = 0; c < kCasesPerSeed; ++c) {
    SCOPED_TRACE("seed=" + std::to_string(seed) + " case=" + std::to_string(c));
    const Expr act = gen.action();
    ActionSuccessors succ(vars, act);
    // Pinning changes which successors exist, so the pinned generator is
    // held to the naive odometer only.
    const std::vector<VarId> pinned = gen.subset();
    ActionSuccessors pinned_succ(vars, act, pinned);

    for (const State& s : all) {
      std::vector<State> naive, naive_pinned;
      bool naive_guards = false;
      {
        ForceNaiveEnumeration force;
        naive = succ.successors(s);
        naive_guards = succ.guards_enabled(s);
        naive_pinned = pinned_succ.successors(s);
      }
      const std::vector<State> walk = succ.successors(s);
      const auto where = [&] {
        return "action " + act.to_string(vars) + " at " + s.to_string(vars);
      };
      ASSERT_EQ(sorted_states(walk), sorted_states(naive)) << where();
      ASSERT_EQ(succ.enabled(s), !naive.empty()) << where();
      ASSERT_EQ(succ.guards_enabled(s), naive_guards) << where();
      ASSERT_EQ(sorted_states(pinned_succ.successors(s)), sorted_states(naive_pinned))
          << where();
      ASSERT_EQ(pinned_succ.enabled(s), !naive_pinned.empty()) << where();

      // Brute force: the action evaluated on every pair of the space.
      std::vector<State> expected;
      EvalContext ctx;
      ctx.vars = &vars;
      ctx.current = &s;
      for (const State& t : all) {
        ctx.next = &t;
        if (eval_bool(act, ctx)) expected.push_back(t);
      }
      ASSERT_EQ(sorted_states(walk), sorted_states(expected)) << where();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WalkVsNaiveHarness, ::testing::Range(0u, kSeeds));

/// Fifth differential axis: the static independence relation against
/// brute-force commutation. For random component-style action pairs, every
/// pair the footprint analysis claims independent must exhibit the diamond
/// property from EVERY state of the 18-state universe — executing A then B
/// and B then A yield the same successor-state sets, and when both are
/// enabled, neither step disables the other. A single violation would be a
/// false independence claim (unsound partial-order reduction); the
/// acceptance bar is zero.
class PairIndependenceHarness : public ::testing::TestWithParam<unsigned> {};

TEST_P(PairIndependenceHarness, ClaimedIndependentPairsCommuteFromEveryState) {
  const unsigned seed = GetParam();
  ActionGen gen(seed, /*widened=*/false);
  StateSpace space(gen.vars());
  const std::vector<VarId> scope = gen.vars().all_vars();

  unsigned claimed_independent = 0;
  for (unsigned c = 0; c < kCasesPerSeed; ++c) {
    SCOPED_TRACE("seed=" + std::to_string(seed) + " case=" + std::to_string(c));
    const Expr a = gen.framed_action(gen.pool());
    const Expr b = gen.framed_action(gen.pool());
    const analysis::Footprint fa = analysis::action_footprint(a, scope);
    const analysis::Footprint fb = analysis::action_footprint(b, scope);
    const analysis::PairVerdict v =
        analysis::pair_independence(gen.vars(), "A", fa, "B", fb);
    if (!v.independent) continue;
    ++claimed_independent;

    ActionSuccessors sa(gen.vars(), a);
    ActionSuccessors sb(gen.vars(), b);
    space.for_each_state([&](const State& s) {
      auto image = [&](const ActionSuccessors& first, const ActionSuccessors& second) {
        std::vector<State> out;
        for (const State& t : first.successors(s)) {
          for (const State& u : second.successors(t)) out.push_back(u);
        }
        std::sort(out.begin(), out.end(), [&](const State& l, const State& r) {
          return l.to_string(gen.vars()) < r.to_string(gen.vars());
        });
        out.erase(std::unique(out.begin(), out.end()), out.end());
        return out;
      };
      ASSERT_EQ(image(sa, sb), image(sb, sa))
          << "A = " << a.to_string(gen.vars()) << "\nB = " << b.to_string(gen.vars())
          << "\nat " << s.to_string(gen.vars());
      if (sa.enabled(s) && sb.enabled(s)) {
        for (const State& t : sa.successors(s)) {
          ASSERT_TRUE(sb.enabled(t)) << "A disables B at " << t.to_string(gen.vars());
        }
        for (const State& t : sb.successors(s)) {
          ASSERT_TRUE(sa.enabled(t)) << "B disables A at " << t.to_string(gen.vars());
        }
      }
    });
  }
  // Non-vacuity: disjoint pools are common enough that every seed must
  // yield claimed-independent pairs to actually exercise the check.
  EXPECT_GT(claimed_independent, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PairIndependenceHarness, ::testing::Range(0u, kSeeds));

/// Sixth differential axis: the fingerprinted arena-backed stores
/// against a plain map-based reference interner. Random state streams
/// (rich in duplicates and look-alike values) are interned into a
/// StateStore, a ShardedStateSet, and a std::unordered_map keyed by the
/// full state — ids, novelty verdicts, lookups, and round-trips must
/// match exactly, with the arena resident or spilled to disk.
class RandomStateGen {
 public:
  explicit RandomStateGen(unsigned seed) : rng_(seed) {}

  Value value(int depth) {
    switch (pick(depth > 0 ? 7 : 5)) {
      case 0: return Value::boolean(pick(2) == 1);
      case 1: return Value::integer(pick(5) - 2);
      case 2: return Value::string("");
      case 3: case 4: {
        std::string s;
        const int n = pick(4);
        for (int i = 0; i < n; ++i) s.push_back(static_cast<char>('a' + pick(3)));
        return Value::string(std::move(s));
      }
      default: {
        Value::Tuple t;
        const int n = pick(3);
        for (int i = 0; i < n; ++i) t.push_back(value(depth - 1));
        return Value::tuple(std::move(t));
      }
    }
  }

  State state() {
    std::vector<Value> vs;
    const int n = 1 + pick(3);
    for (int i = 0; i < n; ++i) vs.push_back(value(2));
    return State(std::move(vs));
  }

 private:
  int pick(int n) { return std::uniform_int_distribution<int>(0, n - 1)(rng_); }
  std::mt19937 rng_;
};

class StoreVsMapHarness : public ::testing::TestWithParam<unsigned> {};

TEST_P(StoreVsMapHarness, InternVerdictsIdsAndRoundTripsMatchMapReference) {
  const unsigned seed = GetParam();
  RandomStateGen gen(seed ^ 0x51ed270bu);

  for (int round = 0; round < 8; ++round) {
    const bool spill = (round % 2) == 1;
    SCOPED_TRACE("seed=" + std::to_string(seed) + " round=" + std::to_string(round) +
                 (spill ? " (spill)" : " (resident)"));
    // Odd rounds force the disk path: 128-byte segments, 1-byte budget.
    struct SegmentGuard {
      explicit SegmentGuard(std::size_t b) { set_arena_segment_bytes_for_test(b); }
      ~SegmentGuard() { set_arena_segment_bytes_for_test(0); }
    } guard(spill ? 128 : 0);

    StateStore store;
    if (spill) store.set_spill_threshold(1);
    ShardedStateSet sharded(/*shard_count=*/4, /*spill_at=*/spill ? 1 : 0);
    std::unordered_map<State, StateId, StateHash> ref;

    for (int i = 0; i < 400; ++i) {
      const State s = gen.state();
      const auto [it, inserted] = ref.emplace(s, static_cast<StateId>(ref.size()));
      ASSERT_EQ(store.intern(s), it->second) << "intern #" << i;
      const ShardedStateSet::InternResult r = sharded.intern(s);
      // Serial calls: the atomic id allocator degenerates to discovery
      // order, so even the sharded ids must match the reference exactly.
      ASSERT_EQ(r.id, it->second) << "intern #" << i;
      ASSERT_EQ(r.inserted, inserted) << "intern #" << i;
    }

    ASSERT_EQ(store.size(), ref.size());
    ASSERT_EQ(sharded.size(), ref.size());
    for (const auto& [s, id] : ref) {
      ASSERT_EQ(store.get(id), s);
      ASSERT_EQ(store.find(s), id);
    }
    // A state never interned resolves to kNone in the store and is absent
    // from the map — probe-chain termination agrees with the reference.
    const State absent({Value::string("never-interned-sentinel")});
    ASSERT_EQ(ref.find(absent), ref.end());
    ASSERT_EQ(store.find(absent), StateStore::kNone);
    if (spill) {
      EXPECT_GT(store.arena().spilled_segments(), 0u);
    } else {
      EXPECT_EQ(store.arena().spilled_segments(), 0u);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StoreVsMapHarness, ::testing::Range(0u, kSeeds));

}  // namespace
}  // namespace opentla
