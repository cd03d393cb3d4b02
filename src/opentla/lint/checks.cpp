#include "opentla/lint/checks.hpp"

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <sstream>

#include "opentla/analysis/footprint.hpp"
#include "opentla/analysis/independence.hpp"
#include "opentla/analysis/interval.hpp"
#include "opentla/expr/analysis.hpp"

namespace opentla::lint {

namespace {

/// Name and location of the DEFINE/ACTION a spliced expression came from,
/// when the expression is structurally a whole definition body. Macro
/// splicing erases names; this recovers them for readable diagnostics.
struct NamedExpr {
  std::string name;
  SourceLoc loc;
};

std::optional<NamedExpr> definition_of(const ParsedModule& mod, const Expr& e) {
  for (const auto& [name, body] : mod.definitions) {
    if (structurally_equal(e, body)) {
      auto it = mod.locs.definitions.find(name);
      return NamedExpr{name, it == mod.locs.definitions.end() ? SourceLoc{} : it->second};
    }
  }
  return std::nullopt;
}

Diagnostic make(const char* code, Severity severity, const ParsedModule& mod,
                std::string context, SourceLoc loc, std::string message) {
  Diagnostic d;
  d.code = code;
  d.severity = severity;
  d.message = std::move(message);
  d.module_name = mod.name;
  d.context = std::move(context);
  d.loc = loc;
  return d;
}

std::string join_names(const VarTable& vars, const std::vector<VarId>& vs) {
  std::string out;
  for (VarId v : vs) {
    if (!out.empty()) out += ", ";
    out += vars.name(v);
  }
  return out;
}

// --- OTL001: variable declared but never read or constrained ---

void check_unused_variable(const ParsedModule& mod, const LintOptions&, std::vector<Diagnostic>& out) {
  std::set<VarId> used;
  auto collect = [&used](const Expr& e) {
    if (e.is_null()) return;
    FreeVars fv = free_vars(e);
    used.insert(fv.unprimed.begin(), fv.unprimed.end());
    used.insert(fv.primed.begin(), fv.primed.end());
  };
  collect(mod.spec.init);
  collect(mod.spec.next);
  for (const Fairness& f : mod.spec.fairness) collect(f.action);
  for (const std::vector<VarId>& tuple : mod.disjoint_tuples) {
    used.insert(tuple.begin(), tuple.end());
  }
  for (VarId v : mod.declared) {
    if (used.contains(v)) continue;
    auto it = mod.locs.variables.find(v);
    out.push_back(make("OTL001", Severity::Warning, mod, mod.vars->name(v),
                       it == mod.locs.variables.end() ? SourceLoc{} : it->second,
                       "variable '" + mod.vars->name(v) +
                           "' is declared but never read or constrained"));
  }
}

// --- OTL002: primed variable inside INIT ---

void check_primed_in_init(const ParsedModule& mod, const LintOptions&, std::vector<Diagnostic>& out) {
  if (mod.spec.init.is_null()) return;
  FreeVars fv = free_vars(mod.spec.init);
  for (VarId v : fv.primed) {
    out.push_back(make("OTL002", Severity::Error, mod, mod.vars->name(v), mod.locs.init,
                       "INIT is a state predicate but mentions the primed variable '" +
                           mod.vars->name(v) + "''"));
  }
}

// --- OTL003: action disjunct reads a variable it leaves unconstrained ---

void check_frame_gap(const ParsedModule& mod, const LintOptions&, std::vector<Diagnostic>& out) {
  if (mod.spec.next.is_null() || mod.is_disjoint()) return;
  for (const Expr& disjunct : flatten_or(mod.spec.next)) {
    FreeVars fv = free_vars(disjunct);
    std::optional<NamedExpr> named = definition_of(mod, disjunct);
    for (VarId v : fv.unprimed) {
      if (fv.primed.contains(v)) continue;
      const std::string where =
          named ? "action '" + named->name + "'" : "an action disjunct of NEXT";
      out.push_back(make("OTL003", Severity::Warning, mod, mod.vars->name(v),
                         named && named->loc.known() ? named->loc : mod.locs.next,
                         where + " reads '" + mod.vars->name(v) + "' but places no " +
                             "constraint on " + mod.vars->name(v) +
                             "' (frame-condition gap: missing UNCHANGED?)"));
    }
  }
}

// --- OTL004: DISJOINT tuples overlap ---

void check_disjoint_overlap(const ParsedModule& mod, const LintOptions&, std::vector<Diagnostic>& out) {
  for (std::size_t i = 0; i < mod.disjoint_tuples.size(); ++i) {
    for (std::size_t j = i + 1; j < mod.disjoint_tuples.size(); ++j) {
      std::vector<VarId> overlap;
      for (VarId v : mod.disjoint_tuples[i]) {
        const std::vector<VarId>& other = mod.disjoint_tuples[j];
        if (std::find(other.begin(), other.end(), v) != other.end()) {
          overlap.push_back(v);
        }
      }
      if (overlap.empty()) continue;
      out.push_back(make("OTL004", Severity::Error, mod, join_names(*mod.vars, overlap), mod.locs.disjoint,
                         "Disjoint tuples " + std::to_string(i + 1) + " and " +
                             std::to_string(j + 1) + " share {" +
                             join_names(*mod.vars, overlap) +
                             "}; Proposition 4's precondition fails"));
    }
  }
}

// --- OTL005: fairness action not a syntactic subaction of NEXT ---

void check_fairness_subaction(const ParsedModule& mod, const LintOptions&, std::vector<Diagnostic>& out) {
  if (mod.spec.next.is_null()) return;
  const std::vector<Expr> next_disjuncts = flatten_or(mod.spec.next);
  for (std::size_t i = 0; i < mod.spec.fairness.size(); ++i) {
    const Fairness& f = mod.spec.fairness[i];
    for (const Expr& a : flatten_or(f.action)) {
      const bool found =
          std::any_of(next_disjuncts.begin(), next_disjuncts.end(),
                      [&](const Expr& n) { return structurally_equal(a, n); });
      if (found) continue;
      std::optional<NamedExpr> named = definition_of(mod, a);
      const std::string what =
          named ? "'" + named->name + "'" : "a disjunct of its action";
      out.push_back(make("OTL005", Severity::Warning, mod, f.label,
                         i < mod.locs.fairness.size() ? mod.locs.fairness[i] : SourceLoc{},
                         "fairness condition " + std::to_string(i + 1) + " (" + f.label +
                             "): " + what + " is not syntactically a disjunct of NEXT; " +
                             "Proposition 1 (machine closure) does not apply syntactically"));
      break;  // one finding per fairness condition is enough
    }
  }
}

// --- OTL007: state-space size estimate ---

void check_state_space_estimate(const ParsedModule& mod, const LintOptions& opts, std::vector<Diagnostic>& out) {
  long double product = 1.0L;
  for (VarId v : mod.declared) {
    product *= mod.vars->domain(v).approx_size();
  }
  if (mod.declared.empty() || product <= static_cast<long double>(opts.state_bound)) return;
  std::ostringstream estimate;
  estimate.precision(3);
  estimate << product;
  out.push_back(make("OTL007", Severity::Warning, mod, "", mod.locs.module_kw,
                     "declared domains span ~" + estimate.str() +
                         " states (bound " + std::to_string(opts.state_bound) +
                         "); exploration may be intractable"));
}

// --- OTL008: constant-foldable guard / dead disjunct ---

void check_constant_guards(const ParsedModule& mod, const LintOptions&, std::vector<Diagnostic>& out) {
  if (mod.spec.next.is_null() || mod.is_disjoint()) return;
  for (const Expr& disjunct : flatten_or(mod.spec.next)) {
    std::optional<NamedExpr> named = definition_of(mod, disjunct);
    const std::string where =
        named ? "action '" + named->name + "'" : "an action disjunct of NEXT";
    const SourceLoc loc =
        named && named->loc.known() ? named->loc : mod.locs.next;
    std::vector<ActionDisjunct> parts = decompose_action(disjunct);
    bool dead = false;
    for (const ActionDisjunct& part : parts) {
      for (const Expr& guard : part.guards) {
        std::optional<Value> v = fold_constant(guard);
        if (!v || !v->is_bool()) continue;
        if (!v->as_bool()) {
          out.push_back(make("OTL008", Severity::Warning, mod, named ? named->name : "", loc,
                             where + " is dead: a guard folds to FALSE"));
          dead = true;
          break;
        }
        out.push_back(make("OTL008", Severity::Warning, mod, named ? named->name : "", loc,
                           where + " has a guard that folds to TRUE (redundant)"));
      }
      if (dead) break;
    }
  }
}

// --- OTL009: guard unsatisfiable over the declared domains ---

// True iff some guard of `part` folds to the constant FALSE — OTL008's
// territory; OTL009 skips such parts instead of double-reporting.
bool has_constant_false_guard(const ActionDisjunct& part) {
  for (const Expr& guard : part.guards) {
    std::optional<Value> v = fold_constant(guard);
    if (v && v->is_bool() && !v->as_bool()) return true;
  }
  return false;
}

void check_guard_unsat(const ParsedModule& mod, const LintOptions&, std::vector<Diagnostic>& out) {
  if (mod.spec.next.is_null() || mod.is_disjoint()) return;
  for (const Expr& disjunct : flatten_or(mod.spec.next)) {
    std::optional<NamedExpr> named = definition_of(mod, disjunct);
    const std::string where =
        named ? "action '" + named->name + "'" : "an action disjunct of NEXT";
    const SourceLoc loc = named && named->loc.known() ? named->loc : mod.locs.next;
    for (const ActionDisjunct& part : decompose_action(disjunct)) {
      if (has_constant_false_guard(part)) continue;
      analysis::AbstractEnv env = analysis::initial_env(*mod.vars);
      if (!analysis::refine_by_guards(part.guards, env)) {
        out.push_back(make("OTL009", Severity::Warning, mod, named ? named->name : "", loc,
                           where + " has guards that are unsatisfiable over the declared "
                                   "domains; the action can never fire"));
        break;  // one finding per disjunct
      }
    }
  }
}

// --- OTL010: primed assignment provably outside the declared domain ---

void check_domain_escape(const ParsedModule& mod, const LintOptions&, std::vector<Diagnostic>& out) {
  if (mod.spec.next.is_null() || mod.is_disjoint()) return;
  for (const Expr& disjunct : flatten_or(mod.spec.next)) {
    std::optional<NamedExpr> named = definition_of(mod, disjunct);
    const std::string where =
        named ? "action '" + named->name + "'" : "an action disjunct of NEXT";
    const SourceLoc loc = named && named->loc.known() ? named->loc : mod.locs.next;
    for (const ActionDisjunct& part : decompose_action(disjunct)) {
      analysis::AbstractEnv env = analysis::initial_env(*mod.vars);
      if (!analysis::refine_by_guards(part.guards, env)) continue;  // OTL009's finding
      for (const auto& [v, rhs] : part.assignments) {
        const Domain& dom = mod.vars->domain(v);
        bool escapes = false;
        if (std::optional<Value> c = fold_constant(rhs)) {
          // A constant right-hand side checks exactly (this also catches
          // holes in non-contiguous domains).
          escapes = !dom.contains(*c);
        } else {
          const analysis::AbsVal a = analysis::abs_eval(rhs, env);
          const analysis::AbsVal d = analysis::abstract_domain(dom);
          if (a.kind == analysis::AbsVal::Kind::Int && d.kind == analysis::AbsVal::Kind::Int) {
            escapes = analysis::meet(a.iv, d.iv).empty();
          } else if (a.kind == analysis::AbsVal::Kind::Bool &&
                     d.kind == analysis::AbsVal::Kind::Bool) {
            escapes = (a.must_true() && !d.may_true) || (a.must_false() && !d.may_false);
          } else if ((a.kind == analysis::AbsVal::Kind::Int &&
                      d.kind == analysis::AbsVal::Kind::Bool) ||
                     (a.kind == analysis::AbsVal::Kind::Bool &&
                      d.kind == analysis::AbsVal::Kind::Int)) {
            escapes = true;  // integer vs boolean: no common value
          }
        }
        if (!escapes) continue;
        out.push_back(make("OTL010", Severity::Error, mod, mod.vars->name(v), loc,
                           where + " assigns " + mod.vars->name(v) +
                               "' a value provably outside the declared domain of '" +
                               mod.vars->name(v) + "'; the step can never be taken"));
      }
    }
  }
}

// --- OTL011: dead disjunct subsumption ---

// Identical effect: the same assignment map (by variable, structurally
// equal right-hand sides) and the same residual conjuncts.
bool same_effect(const ActionDisjunct& a, const ActionDisjunct& b) {
  if (a.assignments.size() != b.assignments.size()) return false;
  if (a.residual.size() != b.residual.size()) return false;
  std::map<VarId, Expr> bm;
  for (const auto& [v, rhs] : b.assignments) bm.emplace(v, rhs);
  for (const auto& [v, rhs] : a.assignments) {
    auto it = bm.find(v);
    if (it == bm.end() || !structurally_equal(rhs, it->second)) return false;
  }
  for (std::size_t i = 0; i < a.residual.size(); ++i) {
    if (!structurally_equal(a.residual[i], b.residual[i])) return false;
  }
  return true;
}

// True iff every guard of `weaker` provably holds whenever `stronger`'s
// guards do: structurally present, or abstractly True in the interval
// environment refined by `stronger`'s guards.
bool guards_imply(const VarTable& vars, const std::vector<Expr>& stronger,
                  const std::vector<Expr>& weaker) {
  analysis::AbstractEnv env = analysis::initial_env(vars);
  if (!analysis::refine_by_guards(stronger, env)) return false;  // unsat: OTL009's finding
  for (const Expr& g : weaker) {
    const bool structural = std::any_of(stronger.begin(), stronger.end(), [&](const Expr& s) {
      return structurally_equal(g, s);
    });
    if (structural) continue;
    if (analysis::abs_truth(g, env) != analysis::Truth::True) return false;
  }
  return true;
}

void check_subsumed_disjunct(const ParsedModule& mod, const LintOptions&, std::vector<Diagnostic>& out) {
  if (mod.spec.next.is_null() || mod.is_disjoint()) return;
  const std::vector<Expr> disjuncts = flatten_or(mod.spec.next);
  std::vector<std::vector<ActionDisjunct>> parts;
  parts.reserve(disjuncts.size());
  for (const Expr& d : disjuncts) parts.push_back(decompose_action(d));
  std::vector<std::optional<NamedExpr>> named(disjuncts.size());
  for (std::size_t i = 0; i < disjuncts.size(); ++i) named[i] = definition_of(mod, disjuncts[i]);
  auto display = [&](std::size_t i) {
    return named[i] ? "action '" + named[i]->name + "'"
                    : "NEXT disjunct " + std::to_string(i + 1);
  };
  for (std::size_t i = 0; i < disjuncts.size(); ++i) {
    for (std::size_t j = i + 1; j < disjuncts.size(); ++j) {
      if (parts[i].size() != 1 || parts[j].size() != 1) continue;
      const ActionDisjunct& a = parts[i][0];
      const ActionDisjunct& b = parts[j][0];
      if (!same_effect(a, b)) continue;
      // If b's guards imply a's, every b step is already an a step: b is
      // dead (and symmetrically).
      const bool b_subsumed = guards_imply(*mod.vars, b.guards, a.guards);
      const bool a_subsumed = !b_subsumed && guards_imply(*mod.vars, a.guards, b.guards);
      if (!b_subsumed && !a_subsumed) continue;
      const std::size_t dead = b_subsumed ? j : i;
      const std::size_t live = b_subsumed ? i : j;
      out.push_back(make("OTL011", Severity::Warning, mod,
                         named[dead] ? named[dead]->name : "",
                         named[dead] && named[dead]->loc.known() ? named[dead]->loc
                                                                 : mod.locs.next,
                         display(dead) + " is subsumed by " + display(live) +
                             ": identical effect and its guard implies the other's "
                             "(dead disjunct)"));
    }
  }
}

}  // namespace

const std::vector<LintCheck>& check_registry() {
  static const std::vector<LintCheck> registry = {
      {"OTL001", "variable declared but never read or constrained", Severity::Warning,
       check_unused_variable},
      {"OTL002", "primed variable inside INIT", Severity::Error, check_primed_in_init},
      {"OTL003", "action disjunct leaves a read variable unconstrained", Severity::Warning,
       check_frame_gap},
      {"OTL004", "DISJOINT tuples overlap", Severity::Error, check_disjoint_overlap},
      {"OTL005", "fairness action is not a syntactic subaction of NEXT", Severity::Warning,
       check_fairness_subaction},
      {"OTL007", "state-space estimate exceeds the configured bound", Severity::Warning,
       check_state_space_estimate},
      {"OTL008", "constant-foldable guard / dead action disjunct", Severity::Warning,
       check_constant_guards},
      {"OTL009", "guards unsatisfiable over the declared domains", Severity::Warning,
       check_guard_unsat},
      {"OTL010", "primed assignment provably outside the declared domain", Severity::Error,
       check_domain_escape},
      {"OTL011", "dead disjunct subsumption (identical effect, implied guard)", Severity::Warning,
       check_subsumed_disjunct},
  };
  return registry;
}

std::vector<Diagnostic> lint_module(const ParsedModule& mod, const LintOptions& opts) {
  std::vector<Diagnostic> out;
  for (const LintCheck& check : check_registry()) check.run(mod, opts, out);
  return out;
}

std::vector<Diagnostic> lint_pair(const ParsedModule& a, const ParsedModule& b,
                                  const LintOptions&) {
  std::vector<Diagnostic> out;
  const std::vector<VarId> wa = analysis::write_footprint(a.spec.next);
  const std::vector<VarId> wb = analysis::write_footprint(b.spec.next);
  std::vector<VarId> overlap;
  std::set_intersection(wa.begin(), wa.end(), wb.begin(), wb.end(),
                        std::back_inserter(overlap));
  if (overlap.empty()) return out;
  Diagnostic d;
  d.code = "OTL006";
  d.severity = Severity::Warning;
  d.module_name = a.name;
  d.context = join_names(*a.vars, overlap);
  d.loc = a.locs.next;
  d.message = "modules '" + a.name + "' and '" + b.name +
              "' can both change {" + join_names(*a.vars, overlap) +
              "}; the footprint argument for '" + a.name + "' _|_ '" + b.name +
              "' (Proposition 4 via Disjoint) fails syntactically";
  out.push_back(std::move(d));
  return out;
}

namespace {

// --- OTL012: a component action writes across DISJOINT tuples ---
//
// Disjoint(t_1, ..., t_n) declares the composed system an interleaving:
// every step changes at most one tuple, so actions confined to different
// tuples commute (Proposition 4). A component whose action unit writes
// variables of two tuples cannot be a step of any single tuple's
// interleaving — its row of the static independence matrix contradicts
// the declaration.
std::vector<Diagnostic> lint_disjoint_contradiction(const ParsedModule& disjoint_mod,
                                                    const ParsedModule& component) {
  std::vector<Diagnostic> out;
  for (const analysis::ActionUnit& u : analysis::module_action_units(component)) {
    std::vector<std::size_t> touched;
    std::vector<VarId> witnesses;
    for (std::size_t t = 0; t < disjoint_mod.disjoint_tuples.size(); ++t) {
      const std::vector<VarId>& tuple = disjoint_mod.disjoint_tuples[t];
      for (VarId v : u.fp.writes) {
        if (std::find(tuple.begin(), tuple.end(), v) != tuple.end()) {
          touched.push_back(t);
          witnesses.push_back(v);
          break;
        }
      }
    }
    if (touched.size() < 2) continue;
    auto loc_it = component.locs.definitions.find(u.name);
    Diagnostic d;
    d.code = "OTL012";
    d.severity = Severity::Error;
    d.module_name = component.name;
    d.context = u.name;
    d.loc = loc_it != component.locs.definitions.end() ? loc_it->second
                                                       : component.locs.next;
    d.message = "action '" + u.name + "' of module '" + component.name +
                "' writes across Disjoint tuples " + std::to_string(touched[0] + 1) +
                " and " + std::to_string(touched[1] + 1) + " of '" + disjoint_mod.name +
                "' (" + join_names(*component.vars, {witnesses[0]}) + " and " +
                join_names(*component.vars, {witnesses[1]}) +
                "); the static independence matrix contradicts the declared interleaving";
    out.push_back(std::move(d));
  }
  return out;
}

}  // namespace

std::vector<Diagnostic> lint_modules(const std::vector<ParsedModule>& mods,
                                     const LintOptions& opts) {
  std::vector<Diagnostic> out;
  for (const ParsedModule& mod : mods) {
    std::vector<Diagnostic> diags = lint_module(mod, opts);
    out.insert(out.end(), diags.begin(), diags.end());
  }
  for (std::size_t i = 0; i < mods.size(); ++i) {
    for (std::size_t j = i + 1; j < mods.size(); ++j) {
      if (mods[i].vars != mods[j].vars) continue;  // distinct universes
      std::vector<Diagnostic> diags = lint_pair(mods[i], mods[j], opts);
      out.insert(out.end(), diags.begin(), diags.end());
      // OTL012 pairs a DISJOINT declaration with each component module.
      for (auto [d, m] : {std::pair{i, j}, std::pair{j, i}}) {
        if (!mods[d].is_disjoint() || mods[m].is_disjoint()) continue;
        std::vector<Diagnostic> contra = lint_disjoint_contradiction(mods[d], mods[m]);
        out.insert(out.end(), contra.begin(), contra.end());
      }
    }
  }
  return out;
}

}  // namespace opentla::lint
