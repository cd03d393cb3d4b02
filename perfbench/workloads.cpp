// perfbench/workloads.cpp — the three workloads.
//
// ag_proof      the Composition Theorem as the paper uses it: formula (4)
//               proved, formula (3) (no G) refuted, the triple-queue chain
//               proved with four components and interleaved outputs.
// closed_build  closed-system state-graph construction plus invariants: the
//               fig6 CQ capped at 10^5 states, the fig9 CDQ, and the closed
//               triple chain with |qbar| <= 3N+2 attained.
// wide_explore  a seeded mini-TLA spec of k independent counters, parsed
//               from text: a large graph with no residual enumeration.
//
// Instance sizes are chosen so one pass takes at most a few seconds and a
// measured run holds several passes (perfbench/layers.json records the
// sizes and why some are smaller than the paper-scale ones).
//
// The seed permutes the paper instances' components and parts, which keeps
// every verdict and graph size (conjunction commutes) but moves state
// numbering and hash layout; the capped CQ has one part and stays fixed.
// For wide_explore it generates the spec.

#include <memory>
#include <optional>
#include <sstream>

#include "bench.hpp"
#include "opentla/ag/composition_theorem.hpp"
#include "opentla/check/invariant.hpp"
#include "opentla/check/liveness.hpp"
#include "opentla/check/refinement.hpp"
#include "opentla/expr/eval.hpp"
#include "opentla/parser/parser.hpp"
#include "opentla/queue/double_queue.hpp"
#include "opentla/queue/queue_spec.hpp"

namespace perfbench {

using namespace opentla;

namespace {

std::vector<AGSpec> double_queue_without_g(const DoubleQueueSystem& s) {
  return {{s.qe1, s.qm1}, {s.qe2, s.qm2}};
}

/// The CDQ (fig8/fig9) closed over its hidden big-queue buffer, as the
/// library's tests and benches explore it.
Composite cdq_composite(const DoubleQueueSystem& s, const std::vector<std::size_t>& order) {
  Composite c;
  c.name = "cdq";
  c.vars = &s.vars;
  c.parts = permuted(std::vector<CompositePart>{{make_cdq(s).unhidden(), true},
                                                {make_pin(s.vars, {s.q}, "PinQ"), false}},
                     order);
  c.pinned = {s.q};
  return c;
}

double elapsed_ms(double since) { return (now_s() - since) * 1e3; }

// ---------------------------------------------------------------- ag_proof

class AgProof : public Workload {
 public:
  void setup(std::uint64_t seed) override {
    Rng rng(seed);
    dq_ = std::make_unique<DoubleQueueSystem>(make_double_queue(kDqCapacity, kDqValues));
    tq_ = std::make_unique<TripleQueueSystem>(make_triple_queue(1, kTqValues));
    cases_.clear();

    CompositionOptions dq_opts;
    dq_opts.goal_witness = {{"q", dq_->qbar}};
    cases_.push_back({"formula4", &dq_->vars, permuted(dq_->components(), rng.permutation(3)),
                      dq_->goal(), dq_opts, true});
    cases_.push_back({"formula3", &dq_->vars,
                      permuted(double_queue_without_g(*dq_), rng.permutation(2)), dq_->goal(),
                      dq_opts, false});

    // The interleaving optimization, sound because G3 is a component; the
    // output tuples stay aligned with the permuted components.
    const TripleQueueSystem& t = *tq_;
    const std::vector<std::size_t> order = rng.permutation(4);
    CompositionOptions tq_opts;
    tq_opts.goal_witness = {{"q", t.qbar}};
    tq_opts.env_outputs = {t.i.sig, t.i.val, t.o.ack};
    tq_opts.component_outputs = permuted(std::vector<std::vector<VarId>>{
                                             {},
                                             {t.z1.sig, t.z1.val, t.i.ack},
                                             {t.z2.sig, t.z2.val, t.z1.ack},
                                             {t.o.sig, t.o.val, t.z2.ack}},
                                         order);
    cases_.push_back(
        {"triple", &t.vars, permuted(t.components(), order), t.goal(), tq_opts, true});
  }

  void pass(Oracle& oracle, Tracer& tracer) override {
    reports_.clear();
    proof_ms_.clear();
    for (const Case& c : cases_) {
      const double t0 = now_s();
      ProofReport r;
      {
        auto span = tracer.span("verify_composition:" + c.name);
        r = verify_composition(*c.vars, c.components, c.goal, c.opts);
      }
      oracle.expect(r.all_discharged() == c.provable,
                    c.name + (c.provable ? " must be proved" : " must be refuted"));
      if (tracer.on()) {
        proof_ms_.push_back(elapsed_ms(t0));
        reports_.push_back(std::move(r));
      }
    }
  }

  void ledger(Oracle& oracle, Tracer& tracer, const obs::Snapshot& pass_snap,
              Metrics& m) override {
    double h1 = 0, h2a = 0, h2b = 0, prop = 0, wall = 0;
    for (double ms : proof_ms_) wall += ms;
    for (const ProofReport& r : reports_) {
      for (const Obligation& ob : r.obligations) {
        if (ob.id.rfind("H1", 0) == 0) {
          h1 += ob.millis;
        } else if (ob.id == "H2a") {
          h2a += ob.millis;
        } else if (ob.id == "H2b") {
          h2b += ob.millis;
        } else {
          prop += ob.millis;
        }
      }
    }
    m["ag.h1_ms"] = h1;
    m["ag.h2a_ms"] = h2a;
    m["ag.h2b_ms"] = h2b;
    m["ag.prop_ms"] = prop;
    m["ag.unattributed_ms"] = wall - (h1 + h2a + h2b + prop);
    const double nodes =
        static_cast<double>(pass_snap.counter(obs::Counter::ProductNodes));
    m["check.inclusion.ns_per_node"] = nodes == 0 ? 0 : (h1 + h2a) * 1e6 / nodes;

    // H2b's refinement check on its own: CDQ => CQ^dbl under the paper's
    // witness, on the N=2 CDQ graph.
    const DoubleQueueSystem cdq_sys = make_double_queue(2, 2);
    const Composite cdq = cdq_composite(cdq_sys, {0, 1});
    std::vector<BuiltGraph> graphs;
    const double t0 = now_s();
    {
      auto span = tracer.span("build_composite_graph:cdq");
      graphs.push_back({&cdq, cdq.build()});
    }
    const double build_ms = elapsed_ms(t0);
    const StateGraph& g = graphs.back().graph;
    oracle.expect_eq(g.num_states(), 3574, "cdq states");
    oracle.expect_eq(g.num_edges(), 12310, "cdq edges");

    const RefinementMapping mapping =
        mapping_by_name(cdq_sys.vars, cdq_sys.vars, {{"q", cdq_sys.qbar}});
    const obs::Snapshot before = obs::snapshot();
    const double t1 = now_s();
    RefinementResult r;
    {
      auto span = tracer.span("check_refinement:cdq");
      r = check_refinement(g, make_cdq(cdq_sys).fairness, cdq_sys.dbl.complete, mapping);
    }
    m["check.refinement_ms"] = elapsed_ms(t1);
    m["check.refinement.edges_checked"] =
        Delta{before, obs::snapshot()}.counter(obs::Counter::RefinementEdgesChecked);
    oracle.expect(r.holds, "cdq must refine CQ^dbl");

    replay_layers(graphs, build_ms, m);
  }

 private:
  // Formula (4)/(3) at N=1 with two values and the triple proof at N=1
  // with one value keep a pass near half a second, so a run holds dozens.
  static constexpr int kDqCapacity = 1;
  static constexpr int kDqValues = 2;
  static constexpr int kTqValues = 1;

  struct Case {
    std::string name;
    const VarTable* vars = nullptr;
    std::vector<AGSpec> components;
    AGSpec goal;
    CompositionOptions opts;
    bool provable = false;
  };

  std::unique_ptr<DoubleQueueSystem> dq_;
  std::unique_ptr<TripleQueueSystem> tq_;
  std::vector<Case> cases_;
  std::vector<ProofReport> reports_;
  std::vector<double> proof_ms_;
};

// ------------------------------------------------------------ closed_build

class ClosedBuild : public Workload {
 public:
  void setup(std::uint64_t seed) override {
    Rng rng(seed);
    cq_ = std::make_unique<QueueSystem>(make_queue_system(kCqCapacity, kCqValues));
    dq_ = std::make_unique<DoubleQueueSystem>(make_double_queue(2, 2));
    tq_ = std::make_unique<TripleQueueSystem>(make_triple_queue(kChainCapacity, 1));
    systems_.clear();

    Composite cq;
    cq.name = "cq";
    cq.vars = &cq_->vars;
    cq.parts = {{cq_->specs.complete.unhidden(), true}};
    cq.max_states = kCqStateCap;
    // Only the state count is known at the cap: which edges the capped
    // frontier keeps depends on emission order.
    systems_.push_back({std::move(cq), kCqStateCap, 0, run::StopReason::kStateBudget,
                        ex::le(ex::len(ex::var(cq_->q)), ex::integer(kCqCapacity)), Expr()});

    const Expr dq_len = ex::len(dq_->qbar);
    const int dq_cap = 2 * dq_->capacity + 1;
    systems_.push_back({cdq_composite(*dq_, rng.permutation(2)), 3574, 12310, run::StopReason::kCompleted,
                        ex::le(dq_len, ex::integer(dq_cap)), ex::lt(dq_len, ex::integer(dq_cap))});

    const TripleQueueSystem& t = *tq_;
    Composite chain;
    chain.name = "chain";
    chain.vars = &t.vars;
    chain.parts = permuted(std::vector<CompositePart>{{t.big.env, true},
                                                      {t.qm1.unhidden(), true},
                                                      {t.qm2.unhidden(), true},
                                                      {t.qm3.unhidden(), true},
                                                      {t.g, false},
                                                      {make_pin(t.vars, {t.q}, "PinQ"), false}},
                           rng.permutation(6));
    chain.pinned = {t.q};
    const Expr chain_len = ex::len(t.qbar);
    const int chain_cap = 3 * t.capacity + 2;
    systems_.push_back({std::move(chain), 864, 3456, run::StopReason::kCompleted,
                        ex::le(chain_len, ex::integer(chain_cap)),
                        ex::lt(chain_len, ex::integer(chain_cap))});
  }

  void pass(Oracle& oracle, Tracer& tracer) override {
    graphs_.clear();
    build_ms_ = 0;
    for (const System& sys : systems_) {
      const Composite& c = sys.composite;
      const double t0 = now_s();
      std::optional<StateGraph> g;
      {
        auto span = tracer.span("build_composite_graph:" + c.name);
        g.emplace(c.build());
      }
      const double build_ms = elapsed_ms(t0);
      oracle.expect(g->stop_reason() == sys.stop, c.name + " stop reason");
      oracle.expect_eq(g->num_states(), sys.states, c.name + " states");
      if (sys.edges != 0) oracle.expect_eq(g->num_edges(), sys.edges, c.name + " edges");
      {
        auto span = tracer.span("check_invariant:" + c.name + ":bound");
        oracle.expect(check_invariant(*g, sys.bound_holds).holds, c.name + " bound must hold");
      }
      if (!sys.bound_attained.is_null()) {
        auto span = tracer.span("check_invariant:" + c.name + ":attained");
        oracle.expect(!check_invariant(*g, sys.bound_attained).holds,
                      c.name + " bound must be attained");
      }
      if (tracer.on()) {
        build_ms_ += build_ms;
        graphs_.push_back({&c, std::move(*g)});
      }
    }
  }

  void ledger(Oracle&, Tracer&, const obs::Snapshot&, Metrics& m) override {
    replay_layers(graphs_, build_ms_, m);
    graphs_.clear();
  }

 private:
  static constexpr int kCqCapacity = 6;
  static constexpr int kCqValues = 6;
  static constexpr std::size_t kCqStateCap = 100'000;
  // N=2 with one value keeps the chain's generate-and-filter blow-up
  // (hundreds of candidates per edge) at about two seconds; the N=1,
  // two-value chain takes about 45 s, longer than a measured run.
  static constexpr int kChainCapacity = 2;

  /// One closed system with its known answers.
  struct System {
    Composite composite;
    std::uint64_t states = 0;
    std::uint64_t edges = 0;  // 0: not checked
    run::StopReason stop = run::StopReason::kCompleted;
    Expr bound_holds;
    Expr bound_attained;  // null: the bound is not claimed to be attained
  };

  std::unique_ptr<QueueSystem> cq_;
  std::unique_ptr<DoubleQueueSystem> dq_;
  std::unique_ptr<TripleQueueSystem> tq_;
  std::vector<System> systems_;
  std::vector<BuiltGraph> graphs_;
  double build_ms_ = 0;
};

// ------------------------------------------------------------ wide_explore

class WideExplore : public Workload {
 public:
  void setup(std::uint64_t seed) override {
    Rng rng(seed);
    std::vector<int> step(kCounters), init(kCounters), dist(kCounters);
    for (int j = 0; j < kCounters; ++j) {
      step[j] = 2 * static_cast<int>(rng.below(kModulus / 2)) + 1;  // odd: coprime to 8
      init[j] = static_cast<int>(rng.below(kModulus));
      dist[j] = 1 + static_cast<int>(rng.below(kModulus - 1));
    }
    const std::vector<std::size_t> order = rng.permutation(kCounters);
    const int fair = static_cast<int>(rng.below(kCounters));
    const int reach = 1 + static_cast<int>(rng.below(kModulus - 1));
    cex_states_ = 1;
    for (int d : dist) cex_states_ += static_cast<std::size_t>(d);

    auto x = [](int j) { return "x" + std::to_string(j); };
    auto mod = [](long v) { return std::to_string(((v % kModulus) + kModulus) % kModulus); };
    std::ostringstream os;
    os << "MODULE Wide\n";
    for (std::size_t j : order) os << "VARIABLE " << x(j) << " \\in 0.." << kModulus - 1 << "\n";
    std::string sum, bad;
    for (int j = 0; j < kCounters; ++j) {
      sum += (j == 0 ? "" : " + ") + x(j);
      bad += (j == 0 ? "" : " /\\ ") + x(j) + " = " + mod(init[j] + step[j] * dist[j]);
    }
    os << "DEFINE InvOk == " << sum << " <= " << kCounters * (kModulus - 1) << "\n";
    os << "DEFINE InvBad == ~(" << bad << ")\n";
    os << "DEFINE P == " << x(fair) << " = " << init[fair] << "\n";
    os << "DEFINE Q == " << x(fair) << " = " << mod(init[fair] + step[fair] * reach) << "\n";
    os << "INIT ";
    for (int j = 0; j < kCounters; ++j) os << (j == 0 ? "" : " /\\ ") << x(j) << " = " << init[j];
    os << "\n";
    for (int j = 0; j < kCounters; ++j) {
      os << "ACTION S" << j << " == " << x(j) << "' = (" << x(j) << " + " << step[j] << ") % "
         << kModulus << " /\\ UNCHANGED <<";
      bool first = true;
      for (int i = 0; i < kCounters; ++i) {
        if (i == j) continue;
        os << (first ? "" : ", ") << x(i);
        first = false;
      }
      os << ">>\n";
    }
    os << "NEXT ";
    for (int j = 0; j < kCounters; ++j) os << (j == 0 ? "" : " \\/ ") << "S" << j;
    os << "\nSUBSCRIPT <<";
    for (int j = 0; j < kCounters; ++j) os << (j == 0 ? "" : ", ") << x(j);
    os << ">>\nFAIRNESS WF S" << fair << "\n";
    text_ = os.str();

    module_ = std::make_unique<ParsedModule>(parse_module(text_));
    composite_.name = "wide";
    composite_.vars = module_->vars.get();
    composite_.parts = {{module_->spec.unhidden(), true}};
  }

  void pass(Oracle& oracle, Tracer& tracer) override {
    graphs_.clear();
    const double t0 = now_s();
    std::optional<StateGraph> g;
    {
      auto span = tracer.span("build_composite_graph:wide");
      g.emplace(composite_.build());
    }
    const double build_ms = elapsed_ms(t0);
    check_counts(oracle, *g, "wide");

    const auto& defs = module_->definitions;
    {
      auto span = tracer.span("check_invariant:wide:ok");
      oracle.expect(check_invariant(*g, defs.at("InvOk")).holds, "InvOk must hold");
    }
    {
      auto span = tracer.span("check_invariant:wide:bad");
      const InvariantResult r = check_invariant(*g, defs.at("InvBad"));
      oracle.expect(!r.holds, "InvBad must fail");
      oracle.expect(!r.counterexample.empty() &&
                        !eval_pred(defs.at("InvBad"), *module_->vars, r.counterexample.back()),
                    "InvBad counterexample must end in a violating state");
      oracle.expect_eq(r.counterexample.size(), cex_states_, "InvBad counterexample length");
    }
    {
      auto span = tracer.span("check_leads_to:wide");
      oracle.expect(check_leads_to(*g, module_->spec.fairness, defs.at("P"), defs.at("Q")).holds,
                    "P ~> Q must hold");
    }
    if (tracer.on()) {
      build_ms_ = build_ms;
      graphs_.push_back({&composite_, std::move(*g)});
    }
  }

  void ledger(Oracle& oracle, Tracer& tracer, const obs::Snapshot&, Metrics& m) override {
    const double t0 = now_s();
    {
      auto span = tracer.span("parse_module:wide");
      parse_module(text_);
    }
    m["parser.parse_ms"] = elapsed_ms(t0);

    replay_layers(graphs_, build_ms_, m);

    // The same build on two worker threads: same counts, and the speedup
    // over the serial traced build.
    const obs::Snapshot before = obs::snapshot();
    const double t1 = now_s();
    {
      auto span = tracer.span("build_composite_graph:wide:2t");
      const StateGraph g2 = composite_.build(2);
      check_counts(oracle, g2, "wide 2-thread");
    }
    const double par_ms = elapsed_ms(t1);
    const Delta d{before, obs::snapshot()};
    m["par.speedup_2t"] = build_ms_ / par_ms;
    m["par.steals"] = d.counter(obs::Counter::ParSteals);
    m["par.shard_contention"] = d.counter(obs::Counter::ParShardContention);
    m["par.states_expanded"] = d.counter(obs::Counter::ParStatesExpanded);
    graphs_.clear();
  }

 private:
  // k counters modulo m: m^k states and (k+1) m^k edges with self-loops.
  static constexpr int kCounters = 6;
  static constexpr int kModulus = 8;

  static void check_counts(Oracle& oracle, const StateGraph& g, const std::string& what) {
    std::uint64_t states = 1;
    for (int j = 0; j < kCounters; ++j) states *= kModulus;
    oracle.expect(g.stop_reason() == run::StopReason::kCompleted, what + " must complete");
    oracle.expect_eq(g.num_states(), states, what + " states");
    oracle.expect_eq(g.num_edges(), (kCounters + 1) * states, what + " edges");
  }

  std::string text_;
  std::unique_ptr<ParsedModule> module_;
  Composite composite_;
  std::size_t cex_states_ = 0;
  std::vector<BuiltGraph> graphs_;
  double build_ms_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "ag_proof") return std::make_unique<AgProof>();
  if (name == "closed_build") return std::make_unique<ClosedBuild>();
  if (name == "wide_explore") return std::make_unique<WideExplore>();
  return nullptr;
}

}  // namespace perfbench
