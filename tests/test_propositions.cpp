// Tests for Propositions 1-4 as reduction rules (opentla/ag/propositions)
// and the paper-route discharge of hypothesis 2(a) via Propositions 3 and 4
// (Figure 9, steps 2.1/2.2).

#include <gtest/gtest.h>

#include "opentla/ag/composition_theorem.hpp"
#include "opentla/ag/propositions.hpp"
#include "opentla/check/machine_closure.hpp"
#include "opentla/compose/compose.hpp"
#include "opentla/queue/double_queue.hpp"
#include "opentla/queue/queue_spec.hpp"
#include "replay.hpp"

namespace opentla {
namespace {

TEST(Prop1, AcceptsSubActionFairness) {
  QueueSystem sys = make_queue_system(2, 2);
  Prop1Result r = prop1_closure(sys.specs.queue);
  EXPECT_TRUE(r.obligation);
  EXPECT_TRUE(r.closure.fairness.empty());
  EXPECT_EQ(r.closure.hidden, sys.specs.queue.hidden);
}

TEST(Prop1, RejectsFairnessOutsideNext) {
  QueueSystem sys = make_queue_system(2, 2);
  CanonicalSpec bad = sys.specs.queue;
  Fairness f;
  f.kind = Fairness::Kind::Weak;
  f.sub = bad.sub;
  // An action that is NOT a disjunct of N: acknowledging the output.
  f.action = ack_action(sys.out);
  f.label = "WF(alien)";
  bad.fairness.push_back(std::move(f));
  EXPECT_FALSE(prop1_closure(bad).obligation);
}

TEST(Prop1, SemanticCheckAgreesOnSmallSpec) {
  VarTable vars;
  VarId x = vars.declare("x", range_domain(0, 1));
  CanonicalSpec s;
  s.name = "S";
  s.init = ex::eq(ex::var(x), ex::integer(0));
  s.next = ex::eq(ex::primed_var(x), ex::integer(1));
  s.sub = {x};
  Fairness ok;
  ok.kind = Fairness::Kind::Weak;
  ok.sub = {x};
  ok.action = s.next;
  s.fairness = {ok};
  EXPECT_TRUE(check_prop1_semantic(vars, s));
  // A fairness action that is not an [N]_v step.
  s.fairness[0].action = ex::eq(ex::primed_var(x), ex::sub(ex::integer(1), ex::var(x)));
  EXPECT_FALSE(check_prop1_semantic(vars, s));
}

TEST(Prop2, DetectsSharedHiddenVariables) {
  DoubleQueueSystem sys = make_double_queue(1, 2);
  // Legitimate: q1 and q2 are private.
  Obligation ok = prop2_side_conditions(
      sys.vars, {&sys.qe1, &sys.qm1, &sys.qm2}, sys.dbl.queue);
  EXPECT_TRUE(ok);
  // Violation: pretend both components hide q1.
  CanonicalSpec clash = sys.qm2;
  clash.hidden = {sys.q1};
  clash.sub.push_back(sys.q1);
  Obligation bad = prop2_side_conditions(sys.vars, {&sys.qm1, &clash}, sys.dbl.queue);
  EXPECT_FALSE(bad);
  EXPECT_NE(bad.detail.find("q1"), std::string::npos);
}

TEST(Prop3, SideConditionRequiresVarsInFreezeTuple) {
  DoubleQueueSystem sys = make_double_queue(1, 2);
  std::vector<VarId> all_visible = {sys.i.sig, sys.i.ack, sys.i.val, sys.z.sig, sys.z.ack,
                                    sys.z.val, sys.o.sig, sys.o.ack, sys.o.val};
  EXPECT_TRUE(prop3_side_condition(sys.vars, sys.dbl.queue.safety_part(), all_visible));
  // Dropping o from v breaks the condition (QM^dbl mentions o).
  std::vector<VarId> missing_o = {sys.i.sig, sys.i.ack, sys.i.val};
  Obligation bad = prop3_side_condition(sys.vars, sys.dbl.queue.safety_part(), missing_o);
  EXPECT_FALSE(bad);
}

TEST(Prop4, SideConditionsOnQueueComponents) {
  DoubleQueueSystem sys = make_double_queue(1, 2);
  // QE^dbl (outputs <i.snd, o.ack>) vs QM^dbl (outputs <i.ack, o.snd>).
  std::vector<VarId> m_out = {sys.i.ack, sys.o.sig, sys.o.val};
  Obligation ok = prop4_orthogonality(sys.vars, sys.dbl.env, sys.env_out,
                                      sys.dbl.queue.safety_part(), m_out);
  EXPECT_TRUE(ok) << ok.detail;
  // Sharing an output variable violates the interleaving shape.
  std::vector<VarId> overlapping = {sys.i.sig, sys.o.sig, sys.o.val};
  EXPECT_FALSE(prop4_orthogonality(sys.vars, sys.dbl.env, sys.env_out,
                                   sys.dbl.queue.safety_part(), overlapping));
}

TEST(Prop3Route, DischargesH2aForTheDoubleQueue) {
  DoubleQueueSystem sys = make_double_queue(1, 2);
  Prop3Route route;
  route.env_outputs = sys.env_out;                       // <i.snd, o.ack>
  route.guarantee_outputs = {sys.i.ack, sys.o.sig, sys.o.val};  // <i.ack, o.snd>
  CompositionOptions opts;
  opts.goal_witness = {{"q", sys.qbar}};
  std::vector<Obligation> obs =
      discharge_h2a_via_prop3(sys.vars, sys.components(), sys.goal(), route, opts);
  ASSERT_FALSE(obs.empty());
  for (const Obligation& ob : obs) {
    EXPECT_TRUE(ob.discharged) << ob.id << ": " << ob.detail;
  }
  // The route's steps are present: side conditions, 2.1, 2.2, conclusion.
  EXPECT_EQ(obs.back().id, "H2a(via Prop3)");
}

TEST(Prop3Route, OrthogonalityFailsWithoutG) {
  // Without the Disjoint component among the M_j, R admits a step that
  // falsifies QE^dbl and QM^dbl simultaneously, so step 2.1 must fail.
  DoubleQueueSystem sys = make_double_queue(1, 2);
  std::vector<AGSpec> components = {{sys.qe1, sys.qm1}, {sys.qe2, sys.qm2}};
  Prop3Route route;
  route.env_outputs = sys.env_out;
  route.guarantee_outputs = {sys.i.ack, sys.o.sig, sys.o.val};
  CompositionOptions opts;
  opts.goal_witness = {{"q", sys.qbar}};
  std::vector<Obligation> obs =
      discharge_h2a_via_prop3(sys.vars, components, sys.goal(), route, opts);
  bool failed_21 = false;
  for (const Obligation& ob : obs) {
    if (ob.id != "2.1" || ob.discharged) continue;
    failed_21 = true;
    // The counterexample is a real one: one step kills C(E) and C(M).
    PrefixMachine e(sys.vars, sys.goal().assumption);
    PrefixMachine m(sys.vars, prop1_closure(sys.goal().guarantee).closure);
    EXPECT_TRUE(replay::replays_as_orthogonality_failure(e, m, ob.counterexample));
  }
  EXPECT_TRUE(failed_21);
}

TEST(HiddenAssumption, TheoremHandlesHiddenVariablesInE) {
  // A goal assumption with its own hidden variable: an environment with an
  // internal credit of 2 sends, EE k : ... Under it, a capacity-1 queue
  // implements a capacity-2 queue even with liveness — the environment can
  // never overfill it... actually at most 2 sends fit a 1-queue only if
  // drained; what we check is the plain corollary instance
  // (E +> M) => (E +> M) threading the hidden-E machinery end to end, plus
  // a false goal that must be refuted.
  VarTable vars;
  Channel in = declare_channel(vars, "i", range_domain(0, 1));
  Channel out = declare_channel(vars, "o", range_domain(0, 1));
  VarId k = vars.declare("k", range_domain(0, 2));
  VarId q = vars.declare("q", seq_domain(range_domain(0, 1), 2));

  // E: the queue environment with a hidden send credit.
  CanonicalSpec env;
  env.name = "BoundedEnv";
  env.init = ex::land(channel_init(in), ex::eq(ex::var(k), ex::integer(2)));
  Expr put = ex::land({ex::gt(ex::var(k), ex::integer(0)), send_any_action(in),
                       ex::eq(ex::primed_var(k), ex::sub(ex::var(k), ex::integer(1))),
                       channel_unchanged(out)});
  Expr get = ex::land(ack_action(out), channel_unchanged(in), ex::unchanged({k}));
  env.next = ex::lor(put, get);
  env.sub = {in.sig, in.val, out.ack, k};
  env.hidden = {k};

  QueueSpecs m = build_queue_specs(vars, in, out, q, /*capacity=*/1, "^h");
  CompositionOptions opts;
  opts.goal_witness = {{"q", ex::var(q)}, {"k", ex::constant(Value::integer(0))}};
  ProofReport identity = verify_refinement_corollary(vars, env, m.queue, m.queue, opts);
  EXPECT_TRUE(identity.all_discharged()) << identity.to_string();

  // A stronger goal guarantee — "the queue never acknowledges anything"
  // (its output i.ack stays 0) — must be refuted under the same E.
  CanonicalSpec silent;
  silent.name = "Silent";
  silent.init = ex::eq(ex::var(in.ack), ex::integer(0));
  silent.next = ex::bottom();
  silent.sub = {in.ack};
  ProofReport refuted = verify_refinement_corollary(vars, env, m.queue, silent, opts);
  EXPECT_FALSE(refuted.all_discharged());
}

TEST(MachineClosure, GraphCheckDetectsNonClosedSpec) {
  // x may step to 1; SF on a step that is enabled only at x = 1 while the
  // system can get stuck at... construct a spec where a reachable state has
  // no fair continuation: next allows 0->1 and 1->2; fairness demands
  // infinitely many 0->1 steps; from state 2 nothing is enabled and the
  // 0->1 step can never recur, yet WF is satisfiable (disabled forever) —
  // so instead demand SF on 0->1 with a trap: SF is satisfied when the
  // action is eventually never enabled. To genuinely break machine
  // closure, use fairness on an action outside N: every behavior reaching
  // 2 can still only stutter, but the fairness action 2->0 is NOT in N, so
  // <A>_v steps never happen while A stays enabled at 2: no fair
  // continuation from 2.
  VarTable vars;
  VarId x = vars.declare("x", range_domain(0, 2));
  CanonicalSpec s;
  s.name = "Trap";
  s.init = ex::eq(ex::var(x), ex::integer(0));
  Expr step01 = ex::land(ex::eq(ex::var(x), ex::integer(0)),
                         ex::eq(ex::primed_var(x), ex::integer(1)));
  Expr step12 = ex::land(ex::eq(ex::var(x), ex::integer(1)),
                         ex::eq(ex::primed_var(x), ex::integer(2)));
  s.next = ex::lor(step01, step12);
  s.sub = {x};
  Fairness wf;
  wf.kind = Fairness::Kind::Weak;
  wf.sub = {x};
  wf.action = ex::land(ex::eq(ex::var(x), ex::integer(2)),
                       ex::eq(ex::primed_var(x), ex::integer(0)));  // not in N!
  wf.label = "WF(escape)";
  s.fairness = {wf};

  EXPECT_FALSE(check_prop1_syntactic(s));

  StateGraph g = build_composite_graph(vars, {{s.safety_part(), true}});
  MachineClosureResult mc = check_machine_closure_on_graph(g, s);
  EXPECT_FALSE(mc.machine_closed) << mc.detail;
}

}  // namespace
}  // namespace opentla
