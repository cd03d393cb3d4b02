#include "opentla/graph/walk.hpp"

#include <algorithm>
#include <memory>

#include "opentla/expr/analysis.hpp"
#include "opentla/obs/obs.hpp"

namespace opentla {

ConjunctWalk::ConjunctWalk(const VarTable& vars, const Expr& action, Evaluator evaluator)
    : vars_(&vars), evaluator_(evaluator) {
  compile(action, root_);
}

ConjunctWalk::Leaf ConjunctWalk::leaf(const Expr& e) const {
  Leaf l;
  l.expr = e;
  if (evaluator_ == Evaluator::kVm) l.code = vm::CompiledExpr(e);
  return l;
}

ConjunctWalk::Constraint ConjunctWalk::constraint(const Expr& e) const {
  const FreeVars fv = free_vars(e);
  return {leaf(e), std::vector<VarId>(fv.primed.begin(), fv.primed.end())};
}

void ConjunctWalk::compile(const Expr& conjunction, List& out) const {
  for (const Expr& c : flatten_and(conjunction)) {
    if (is_state_function(c)) {
      out.guards.push_back(leaf(c));
      continue;
    }
    if (c.kind() == ExprKind::Or) {
      const std::vector<Expr> disjuncts = flatten_or(c);
      if (disjuncts.size() == 1) {  // the others were FALSE
        compile(disjuncts[0], out);
        continue;
      }
      Disjunction d;
      d.whole = constraint(c);
      d.branches.resize(disjuncts.size());
      for (std::size_t i = 0; i < disjuncts.size(); ++i) compile(disjuncts[i], d.branches[i]);
      out.disjunctions.push_back(std::move(d));
      continue;
    }
    std::vector<std::pair<VarId, Expr>> assigns;
    if (match_assignments(c, assigns)) {
      for (const auto& [v, rhs] : assigns) out.assignments.push_back({v, leaf(rhs)});
      continue;
    }
    out.constraints.push_back(constraint(c));
  }
}

/// One walk. Bindings are undone on the way back up, so a branch sees
/// exactly the bindings and waiting constraints of the conjunct lists on
/// its path.
class WalkRun {
 public:
  using Walk = ConjunctWalk;

  WalkRun(const Walk& w, const Walk::Query& q, const std::function<bool(const State&)>* fn)
      : w_(w),
        q_(q),
        base_(q.base != nullptr ? *q.base : *q.current),
        scratch_(acquire()),
        cur_(scratch_->cur),
        bound_(scratch_->bound),
        bound_trail_(scratch_->bound_trail),
        waiting_(scratch_->waiting),
        checked_trail_(scratch_->checked_trail),
        order_(scratch_->order),
        checks_at_(scratch_->checks_at),
        taken_(scratch_->taken),
        fn_(fn) {
    if (q.prebound != nullptr) {
      bound_.assign(q.prebound->begin(), q.prebound->end());
    } else {
      bound_.assign(w.vars_->size(), 0);
    }
    // With every variable bound up front nothing is ever written: the walk
    // reads the base state in place instead of a copy.
    if (std::find(bound_.begin(), bound_.end(), 0) == bound_.end()) {
      next_ = &base_;
    } else {
      cur_ = base_;
      next_ = &cur_;
    }
    if (w.evaluator_ == Walk::Evaluator::kVm) {
      vctx_.vars = w.vars_;
      vctx_.current = q.current;
      vctx_.next = next_;
    } else {
      saved_next_ = q.tree_ctx->next;
      q.tree_ctx->next = next_;
    }
  }
  ~WalkRun() {
    if (q_.tree_ctx != nullptr) q_.tree_ctx->next = saved_next_;
    bound_trail_.clear();
    waiting_.clear();
    checked_trail_.clear();
    pool().push_back(std::move(scratch_));
  }
  WalkRun(const WalkRun&) = delete;
  WalkRun& operator=(const WalkRun&) = delete;

  bool walk() { return enter(w_.root_, nullptr); }
  bool guards() { return guards_in(w_.root_); }

 private:
  /// The rest of the walk after a disjunction: the remaining disjunctions
  /// of `list` from `index` on, then the parent's continuation.
  struct Cont {
    const Walk::List* list;
    std::size_t index;
    const Cont* parent;
  };
  struct Waiting {
    const Walk::Constraint* c;
    bool checked;
  };
  /// Buffers that keep their capacity from one walk to the next on the
  /// same thread. A walk can start another (ENABLED inside a guard), so
  /// each live walk takes its own from a per-thread pool.
  struct Scratch {
    State cur;
    std::vector<char> bound;
    std::vector<VarId> bound_trail;
    std::vector<Waiting> waiting;
    std::vector<std::size_t> checked_trail;
    std::vector<VarId> order;
    std::vector<std::vector<const Walk::Constraint*>> checks_at;
    std::vector<char> taken;
  };
  static std::vector<std::unique_ptr<Scratch>>& pool() {
    static thread_local std::vector<std::unique_ptr<Scratch>> free_list;
    return free_list;
  }
  static std::unique_ptr<Scratch> acquire() {
    std::vector<std::unique_ptr<Scratch>>& p = pool();
    if (p.empty()) return std::make_unique<Scratch>();
    std::unique_ptr<Scratch> s = std::move(p.back());
    p.pop_back();
    return s;
  }

  Value eval(const Walk::Leaf& l) {
    if (w_.evaluator_ == Walk::Evaluator::kVm) return l.code.eval(vctx_);
    return opentla::eval(l.expr, *q_.tree_ctx);
  }
  bool holds(const Walk::Leaf& l) {
    if (w_.evaluator_ == Walk::Evaluator::kVm) return l.code.eval_bool(vctx_);
    return eval_bool(l.expr, *q_.tree_ctx);
  }
  bool all_bound(const std::vector<VarId>& vs) const {
    return std::all_of(vs.begin(), vs.end(), [&](VarId v) { return bound_[v] != 0; });
  }

  /// Checks the waiting constraints the latest bindings completed.
  bool check_waiting() {
    for (std::size_t i = 0; i < waiting_.size(); ++i) {
      Waiting& wc = waiting_[i];
      if (wc.checked || !all_bound(wc.c->primed)) continue;
      if (!holds(wc.c->leaf)) return false;
      wc.checked = true;
      checked_trail_.push_back(i);
    }
    return true;
  }

  bool enter(const Walk::List& list, const Cont* k) {
    const std::size_t bound_mark = bound_trail_.size();
    const std::size_t waiting_mark = waiting_.size();
    const std::size_t checked_mark = checked_trail_.size();
    const bool stop = enter_body(list, k, bound_mark);
    for (std::size_t i = checked_mark; i < checked_trail_.size(); ++i) {
      waiting_[checked_trail_[i]].checked = false;
    }
    checked_trail_.resize(checked_mark);
    waiting_.resize(waiting_mark);
    for (std::size_t i = bound_mark; i < bound_trail_.size(); ++i) {
      const VarId v = bound_trail_[i];
      bound_[v] = 0;
      cur_[v] = base_[v];
    }
    bound_trail_.resize(bound_mark);
    return stop;
  }

  bool enter_body(const Walk::List& list, const Cont* k, std::size_t bound_mark) {
    for (const Walk::Leaf& g : list.guards) {
      if (!holds(g)) return false;
    }
    for (const Walk::Assignment& a : list.assignments) {
      Value val = eval(a.rhs);
      if (bound_[a.var]) {
        if (!((*next_)[a.var] == val)) return false;
        continue;
      }
      if (!w_.vars_->domain(a.var).contains(val)) return false;  // outside the space
      cur_[a.var] = std::move(val);
      bound_[a.var] = 1;
      bound_trail_.push_back(a.var);
    }
    if (bound_trail_.size() > bound_mark && !check_waiting()) return false;
    for (const Walk::Constraint& c : list.constraints) {
      if (!all_bound(c.primed)) {
        waiting_.push_back({&c, false});
      } else if (!holds(c.leaf)) {
        return false;
      }
    }
    return disjunctions_from(list, 0, k);
  }

  bool disjunctions_from(const Walk::List& list, std::size_t i, const Cont* k) {
    for (; i < list.disjunctions.size(); ++i) {
      const Walk::Disjunction& d = list.disjunctions[i];
      if (all_bound(d.whole.primed)) {
        if (!holds(d.whole.leaf)) return false;
        continue;
      }
      const Cont rest{&list, i + 1, k};
      for (const Walk::List& b : d.branches) {
        if (enter(b, &rest)) return true;
      }
      return false;
    }
    if (k != nullptr) return disjunctions_from(*k->list, k->index, k->parent);
    return finish();
  }

  /// End of a branch: range the unbound variables over their domains.
  bool finish() {
    // The constraints still waiting, each with its unbound variables.
    std::vector<const Walk::Constraint*> open;
    std::vector<std::vector<VarId>> missing;
    for (const Waiting& wc : waiting_) {
      if (wc.checked) continue;
      open.push_back(wc.c);
      std::vector<VarId> m;
      for (VarId v : wc.c->primed) {
        if (!bound_[v]) m.push_back(v);
      }
      missing.push_back(std::move(m));
    }

    // Greedy order: bind next the variables of the open constraint with
    // the fewest still unbound (ties by position), so each constraint is
    // checked at the shallowest depth. checks_at[d] lists the constraints
    // decidable once order[0..d] are bound.
    order_.clear();
    checks_at_.clear();
    std::vector<char> placed(open.size(), 0);
    std::vector<char>& taken = taken_;
    taken.assign(bound_.size(), 0);
    for (std::size_t round = 0; round < open.size(); ++round) {
      std::size_t best = open.size();
      std::size_t best_missing = 0;
      for (std::size_t i = 0; i < open.size(); ++i) {
        if (placed[i]) continue;
        std::size_t n = 0;
        for (VarId v : missing[i]) n += taken[v] ? 0 : 1;
        if (best == open.size() || n < best_missing) {
          best = i;
          best_missing = n;
        }
      }
      if (best == open.size()) break;
      std::vector<VarId> fresh;
      for (VarId v : missing[best]) {
        if (!taken[v]) fresh.push_back(v);
      }
      for (VarId v : fresh) {
        taken[v] = 1;
        order_.push_back(v);
        checks_at_.emplace_back();
      }
      for (std::size_t i = 0; i < open.size(); ++i) {
        if (placed[i]) continue;
        bool ready = true;
        for (VarId v : missing[i]) ready = ready && taken[v];
        if (ready) {
          checks_at_.back().push_back(open[i]);
          placed[i] = 1;
        }
      }
    }
    constrained_ = order_.size();
    // Then the variables nothing on the branch mentions, in ascending
    // order, unless the query keeps them at their base value.
    if (!q_.existential) {
      for (VarId v = 0; v < bound_.size(); ++v) {
        if (bound_[v] || taken[v]) continue;
        if (q_.pinned != nullptr && (*q_.pinned)[v]) continue;
        order_.push_back(v);
      }
    }
    const bool stop = enumerate(0);
    for (VarId v : order_) cur_[v] = base_[v];
    return stop;
  }

  /// Depth-first over order_: order_[0] varies slowest.
  bool enumerate(std::size_t depth) {
    if (depth == order_.size()) return (*fn_)(*next_);
    const VarId v = order_[depth];
    for (const Value& val : w_.vars_->domain(v).values()) {
      cur_[v] = val;
      bool ok = true;
      if (depth < constrained_) {
        for (const Walk::Constraint* c : checks_at_[depth]) {
          if (!holds(c->leaf)) {
            ok = false;
            break;
          }
        }
      }
      if (!ok) {
        OPENTLA_OBS_COUNT(CompletionsPruned);
        if (depth + 1 < order_.size()) OPENTLA_OBS_COUNT(ResidualEarlyCuts);
        continue;
      }
      if (enumerate(depth + 1)) return true;
    }
    return false;
  }

  /// Guards read only the current state, so whether some branch through
  /// a list has all its guards holding does not depend on the branches
  /// taken elsewhere: each disjunction needs one such branch of its own.
  bool guards_in(const Walk::List& list) {
    for (const Walk::Leaf& g : list.guards) {
      if (!holds(g)) return false;
    }
    return std::all_of(list.disjunctions.begin(), list.disjunctions.end(),
                       [&](const Walk::Disjunction& d) {
                         return std::any_of(d.branches.begin(), d.branches.end(),
                                            [&](const Walk::List& b) { return guards_in(b); });
                       });
  }

  const Walk& w_;
  const Walk::Query& q_;
  const State& base_;
  std::unique_ptr<Scratch> scratch_;
  State& cur_;
  const State* next_ = nullptr;  // cur_, or base_ when everything is prebound
  std::vector<char>& bound_;
  std::vector<VarId>& bound_trail_;
  std::vector<Waiting>& waiting_;
  std::vector<std::size_t>& checked_trail_;
  std::vector<VarId>& order_;
  std::vector<std::vector<const Walk::Constraint*>>& checks_at_;
  std::vector<char>& taken_;
  std::size_t constrained_ = 0;
  const std::function<bool(const State&)>* fn_;
  vm::VmContext vctx_;
  const State* saved_next_ = nullptr;
};

bool ConjunctWalk::run(const Query& q, const std::function<bool(const State&)>& fn) const {
  WalkRun r(*this, q, &fn);
  return r.walk();
}

bool ConjunctWalk::guards_hold(const Query& q) const {
  WalkRun r(*this, q, nullptr);
  return r.guards();
}

}  // namespace opentla
