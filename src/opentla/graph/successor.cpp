#include "opentla/graph/successor.hpp"

#include <atomic>
#include <mutex>
#include <stdexcept>
#include <unordered_set>

#include "opentla/expr/analysis.hpp"
#include "opentla/expr/eval.hpp"
#include "opentla/expr/substitute.hpp"
#include "opentla/obs/obs.hpp"
#include "opentla/state/state_space.hpp"

namespace opentla {

namespace {
std::atomic<bool> g_naive_enumeration{false};

bool naive_forced() { return g_naive_enumeration.load(std::memory_order_relaxed); }
}  // namespace

void ActionSuccessors::set_naive_enumeration_for_test(bool naive) {
  g_naive_enumeration.store(naive, std::memory_order_relaxed);
}

/// The naive oracle: decompose_action over the action's disjunctive normal
/// form, built once on first use.
struct ActionSuccessors::Naive {
  std::once_flag built;
  std::vector<ActionDisjunct> disjuncts;
};

ActionSuccessors::ActionSuccessors(const VarTable& vars, Expr action, std::vector<VarId> pinned)
    : vars_(&vars),
      action_(std::move(action)),
      walk_(vars, action_),
      pinned_(vars.size(), 0),
      naive_(std::make_shared<Naive>()) {
  for (VarId v : pinned) pinned_[v] = 1;
}

void ActionSuccessors::set_label(const std::string& label) {
  label_ = obs::intern_label(label);
  has_label_ = true;
}

const ActionSuccessors::Naive& ActionSuccessors::naive() const {
  std::call_once(naive_->built, [&] {
    Expr dnf = action_;
    try {
      dnf = to_dnf(action_);
    } catch (const std::runtime_error&) {
      // Past the cap: the top-level disjuncts, with nested disjunctions
      // left in their residuals.
    }
    naive_->disjuncts = decompose_action(dnf);
  });
  return *naive_;
}

bool ActionSuccessors::run(const State& s, bool existential_only,
                           std::unordered_set<State, StateHash>* seen,
                           const std::function<bool(const State&)>& fn) const {
  // `fn` returns true to stop early; the walk stops immediately. The walk
  // may reach one state on several branches; with `seen`, repeats are
  // filtered here and callers see each successor once.
  //
  // Determinism contract: for a fixed `s`, successors are visited in a
  // fixed order — the walk's branch order (disjunctions left to right,
  // depth first), and within a branch the enumeration order of its unbound
  // variables (see graph/walk.hpp). The unordered `seen` set only
  // suppresses repeats. The parallel engine's canonical renumbering
  // (opentla/par/explore.hpp) depends on this. `run` is also safe to call
  // concurrently on distinct states: it mutates no member data.
  std::uint64_t fired = 0;
  const auto emit = [&](const State& t) {
    if (seen != nullptr && !seen->insert(t).second) return false;
    OPENTLA_OBS_COUNT(SuccessorsEnumerated);
    ++fired;
    return fn(t);
  };
  bool stopped;
  if (naive_forced()) {
    stopped = run_naive(s, existential_only, emit);
  } else {
    ConjunctWalk::Query q;
    q.current = &s;
    q.pinned = &pinned_;
    q.existential = existential_only;
    stopped = walk_.run(q, emit);
  }
  // Per-run attribution for coverage: `fired` counts emissions; the action
  // counts as enabled when some branch's guards held, even when a
  // constraint or a domain check then rejected every completion.
  if (has_label_ && obs::compile_time_enabled() && obs::enabled()) {
    if (fired > 0) OPENTLA_OBS_COUNT_LABELED(ActionFired, label_, fired);
    if (fired > 0 || guards_enabled(s)) OPENTLA_OBS_COUNT_LABELED(ActionEnabled, label_, 1);
  }
  return stopped;
}

bool ActionSuccessors::run_naive(const State& s, bool existential_only,
                                 const std::function<bool(const State&)>& fn) const {
  StateSpace space(*vars_);
  EvalContext ctx;
  ctx.vars = vars_;
  ctx.current = &s;
  for (const ActionDisjunct& d : naive().disjuncts) {
    ctx.next = nullptr;
    bool feasible = true;
    for (const Expr& g : d.guards) {
      if (!eval_bool(g, ctx)) {
        feasible = false;
        break;
      }
    }
    if (!feasible) continue;

    State base = s;
    std::vector<char> assigned(vars_->size(), 0);
    for (const auto& [v, rhs] : d.assignments) {
      Value val = eval(rhs, ctx);
      if (!vars_->domain(v).contains(val)) {
        feasible = false;  // successor falls outside the declared space
        break;
      }
      base[v] = std::move(val);
      assigned[v] = 1;
    }
    if (!feasible) continue;

    // Existence needs only the residual's unassigned variables; full
    // generation ranges every unassigned variable that is not pinned (a
    // pinned one in the residual still ranges).
    std::vector<VarId> free = d.unassigned_primed;
    if (!existential_only) {
      std::vector<char> in_residual(vars_->size(), 0);
      for (VarId v : d.unassigned_primed) in_residual[v] = 1;
      free.clear();
      for (VarId v = 0; v < vars_->size(); ++v) {
        if (!assigned[v] && (!pinned_[v] || in_residual[v])) free.push_back(v);
      }
    }
    const bool stopped = space.for_each_completion(base, free, [&](const State& t) {
      ctx.next = &t;
      for (const Expr& r : d.residual) {
        if (!eval_bool(r, ctx)) return false;
      }
      return fn(t);
    });
    if (stopped) return true;
  }
  return false;
}

bool ActionSuccessors::guards_enabled(const State& s) const {
  if (naive_forced()) {
    EvalContext ctx;
    ctx.vars = vars_;
    ctx.current = &s;
    for (const ActionDisjunct& d : naive().disjuncts) {
      bool ok = true;
      for (const Expr& g : d.guards) {
        if (!eval_bool(g, ctx)) {
          ok = false;
          break;
        }
      }
      if (ok) return true;
    }
    return false;
  }
  ConjunctWalk::Query q;
  q.current = &s;
  return walk_.guards_hold(q);
}

void ActionSuccessors::for_each_successor(const State& s,
                                          const std::function<void(const State&)>& fn) const {
  std::unordered_set<State, StateHash> seen;
  run(s, /*existential_only=*/false, &seen, [&](const State& t) {
    fn(t);
    return false;
  });
}

void ActionSuccessors::for_each_emission(const State& s,
                                         const std::function<void(const State&)>& fn) const {
  run(s, /*existential_only=*/false, nullptr, [&](const State& t) {
    fn(t);
    return false;
  });
}

std::vector<State> ActionSuccessors::successors(const State& s) const {
  std::vector<State> out;
  for_each_successor(s, [&](const State& t) { out.push_back(t); });
  return out;
}

bool ActionSuccessors::enabled(const State& s) const {
  OPENTLA_OBS_COUNT(EnabledEvaluations);
  // The first emission stops the run: nothing to filter.
  return run(s, /*existential_only=*/true, nullptr, [](const State&) { return true; });
}

std::vector<State> ActionSuccessors::states_satisfying(const VarTable& vars,
                                                       const Expr& predicate,
                                                       std::vector<VarId> pinned) {
  ActionSuccessors gen(vars, prime(predicate), std::move(pinned));
  StateSpace space(vars);
  return gen.successors(space.first_state());
}

}  // namespace opentla
