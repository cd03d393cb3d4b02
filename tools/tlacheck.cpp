// tlacheck — command-line model checker for mini-TLA modules.
//
//   tlacheck info   SPEC.tla [--format json]    parse and summarize
//   tlacheck states SPEC.tla [--format json]    explore; print state count
//                     [--dump]                  ... and every state
//   tlacheck check  SPEC.tla [--invariant EXPR] check [](EXPR); without
//                                               --invariant, checks TRUE
//                                               (i.e. just explores)
//   tlacheck closure SPEC.tla                   machine closure (Prop 1 +
//                                               on-graph validation)
//   tlacheck deadlock SPEC.tla                  any reachable state with no
//                                               non-stuttering successor?
//   tlacheck refine LOW.tla HIGH.tla            check LOW => HIGH under a
//                     [--witness VAR=EXPR]...   refinement mapping (by-name
//                                               plus the given witnesses;
//                                               EXPR is over LOW's variables)
//   tlacheck leadsto SPEC.tla --from P --to Q   check P ~> Q under the
//                                               module's FAIRNESS
//   tlacheck simulate SPEC.tla                  print a random run
//                     [--steps N] [--seed S]
//   tlacheck compose --goal ENV.tla,GUAR.tla    verify the Composition
//            [--component ENV.tla,GUAR.tla]...  Theorem instance
//            [--constraint FILE.tla]...           /\_j (E_j +> M_j) => (E +> M)
//            [--witness VAR=EXPR]...            (constraints are TRUE +> G
//                                               conjuncts, e.g. DISJOINT
//                                               modules; all modules share
//                                               one universe by name)
//   tlacheck coverage SPEC.tla                  per-action coverage over the
//                   [--format human|json]       reachable states: how often
//                                               each ACTION was enabled and
//                                               fired; exits 1 and names the
//                                               action if any never fires
//   tlacheck lint SPEC.tla [SPEC2.tla ...]      static analysis (OTL001-012)
//                   [--format json] [--werror]  without state exploration;
//                   [--state-bound N]           several files share one
//                                               universe and are also
//                                               checked pairwise (OTL006,
//                                               OTL012)
//   tlacheck analyze SPEC.tla [SPEC2.tla ...]   whole-spec dataflow: action
//                   [--format human|json]       footprints (reads/writes/
//                   [--independence]            guard reads per NEXT
//                   [--footprints]              disjunct) and the N x N
//                                               static independence matrix
//                                               with per-pair provenance;
//                                               with neither section flag,
//                                               both sections are emitted.
//                                               JSON follows
//                                               tools/analyze_schema.json
//                                               and is deterministic.
//   tlacheck profile SUBCOMMAND ARGS...         run any subcommand under
//                   [--format human|json|trace] full opentla::obs
//                   [--out FILE]                instrumentation and render
//                                               the counters and spans
//                                               (trace = Chrome trace_event,
//                                               loadable in chrome://tracing
//                                               and Perfetto)
//
// Global flags: --stats appends an opentla::obs stats block to any
// subcommand's output (most useful with check/refine/compose); --threads N
// explores on N workers (default 1 = serial, 0 = hardware concurrency) —
// the explored graph, and so every verdict and counterexample, is
// bit-identical for every N.
//
// Run budgets (work in every build, including OPENTLA_OBS=OFF): each
// breach stops exploration gracefully, the run prints whatever partial
// result it has plus a machine-readable `stop_reason: "..."` line, and
// exits 3:
//   --deadline-ms N     wall-clock budget for the whole run
//   --rss-limit-mb N    resident-set ceiling (polled during exploration)
//   --max-states N      state budget (serial and parallel runs stop at the
//                       same state count; no longer an error)
// A SIGINT/SIGTERM during a budgeted run requests the same graceful stop
// (stop_reason: "interrupted").
//
// Live observability (require a build with OPENTLA_OBS=ON; an
// -DOPENTLA_OBS=OFF binary rejects them with exit 2 instead of emitting
// empty files):
//   --progress[=MS]     heartbeat lines on stderr every MS milliseconds
//                       (default 250): elapsed time, states interned,
//                       frontier size, states/sec, RSS. stdout is
//                       untouched, so `--format json` stays parseable.
//   --events FILE       append-only JSONL event stream (phase events +
//                       progress samples; schema tools/events_schema.json)
//   --metrics-out FILE  OpenMetrics/Prometheus text exposition of the
//                       run's final counters/gauges/histograms
//   --flight-recorder[=N]  bounded in-memory ring of the last N (default
//                       4096) phase/progress/budget events, dumped as
//                       JSONL (schema tools/flight_schema.json) on budget
//                       breach, uncaught exception, or fatal signal
//   --flight-out FILE   flight-recorder dump path (default
//                       flight_recorder.jsonl)
//   --serve-metrics PORT  embedded HTTP server on 127.0.0.1:PORT (0 =
//                       ephemeral; the chosen port is printed to stderr):
//                       GET /metrics (OpenMetrics), GET /progress (JSON)
//   --serve-hold-ms MS  keep serving MS milliseconds after the verdict
//                       (scrape window for tests/collectors)
//   --run-ledger FILE   append one JSONL line per run: spec content hash,
//                       options, stop reason, exit code, final counters
//                       (schema tools/ledger_schema.json)
//
// Exit codes (uniform across subcommands; `profile` returns the wrapped
// subcommand's code):
//   0  info/states/simulate printed; check/closure/deadlock/refine/
//      leadsto/compose: the property holds; lint: clean; coverage: every
//      action fired
//   1  check/closure/deadlock/refine/leadsto/compose: the property is
//      violated; lint: any Error finding (or any finding with --werror);
//      coverage: some action never fired
//   2  usage error or unreadable/unparseable input
//   3  a run budget stopped the run before a definite verdict: partial
//      result printed with `stop_reason: "state_budget"|"deadline"|
//      "memory"|"interrupted"` (a violation found before the stop still
//      exits 1 — counterexamples on partial graphs are real)

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "opentla/ag/composition_theorem.hpp"
#include "opentla/analysis/independence.hpp"
#include "opentla/check/invariant.hpp"
#include "opentla/check/liveness.hpp"
#include "opentla/check/machine_closure.hpp"
#include "opentla/check/refinement.hpp"
#include "opentla/compose/compose.hpp"
#include "opentla/graph/successor.hpp"
#include "opentla/lint/checks.hpp"
#include "opentla/obs/export.hpp"
#include "opentla/obs/flight_recorder.hpp"
#include "opentla/obs/metrics_server.hpp"
#include "opentla/obs/obs.hpp"
#include "opentla/obs/profiler.hpp"
#include "opentla/obs/progress.hpp"
#include "opentla/parser/parser.hpp"
#include "opentla/run/budget.hpp"
#include "opentla/run/ledger.hpp"

using namespace opentla;

namespace {

/// Most workers --threads accepts.
constexpr std::uint64_t kMaxThreads = 1024;

/// The value of a numeric flag: digits only, at most `max`. Anything else
/// (a sign, a suffix, an empty string, an out-of-range number) is a usage
/// error naming the flag and the text, which main reports with exit 2.
std::uint64_t parse_count(const std::string& flag, const std::string& text,
                          std::uint64_t max = std::numeric_limits<std::uint64_t>::max()) {
  std::uint64_t value = 0;
  const char* end = text.data() + text.size();
  const bool digits = !text.empty() && std::all_of(text.begin(), text.end(), [](char c) {
    return c >= '0' && c <= '9';
  });
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (!digits || ec != std::errc() || ptr != end || value > max) {
    std::string expects = flag + " expects a non-negative integer";
    if (digits && max != std::numeric_limits<std::uint64_t>::max()) {
      expects += " at most " + std::to_string(max);
    }
    throw std::runtime_error(expects + ", got '" + text + "'");
  }
  return value;
}

int usage() {
  std::cerr
      << "usage: tlacheck info|states|check|closure|deadlock|simulate|coverage SPEC.tla\n"
         "                [options]\n"
         "       tlacheck refine LOW.tla HIGH.tla [--witness VAR=EXPR]...\n"
         "       tlacheck leadsto SPEC.tla --from EXPR --to EXPR\n"
         "       tlacheck compose --goal ENV.tla,GUAR.tla [--component ENV.tla,GUAR.tla]...\n"
         "                [--constraint FILE.tla]... [--witness VAR=EXPR]...\n"
         "       tlacheck lint SPEC.tla [SPEC2.tla ...] [--format json] [--werror]\n"
         "                [--state-bound N]\n"
         "       tlacheck analyze SPEC.tla [SPEC2.tla ...] [--format human|json]\n"
         "                [--independence] [--footprints]\n"
         "       tlacheck profile SUBCOMMAND ARGS... [--format human|json|trace|folded]\n"
         "                [--out FILE] [--top N] [--sample-hz N]\n"
         "options: --invariant EXPR   --dump   --max-states N   --steps N   --seed S\n"
         "         --threads N (exploration workers, at most 1024; 1 = serial,\n"
         "         0 = hardware concurrency; the graph is identical for every N)\n"
         "         --spill-at BYTES (state-store resident budget: past it, sealed\n"
         "         arena segments spill to mmap-backed temp files; the graph is\n"
         "         identical spill on or off; 0 = never, the default)\n"
         "         --format json (info|states|lint|coverage)   --stats (any subcommand)\n"
         "         --deadline-ms N   --rss-limit-mb N (run budgets: graceful stop,\n"
         "         partial result with stop_reason, exit 3; work in every build)\n"
         "         --progress[=MS] (heartbeats on stderr)   --events FILE (JSONL)\n"
         "         --metrics-out FILE (OpenMetrics)\n"
         "         --flight-recorder[=N] (crash/budget event ring; dump is JSONL)\n"
         "         --flight-out FILE (dump path, default flight_recorder.jsonl)\n"
         "         --serve-metrics PORT (live /metrics + /progress on 127.0.0.1)\n"
         "         --serve-hold-ms MS (keep serving after the verdict)\n"
         "         --run-ledger FILE (append one JSONL line per run)\n"
         "         --sample-hz N (span-stack sampling profiler; `profile --format\n"
         "         folded` emits collapsed stacks for flamegraph.pl/speedscope)\n"
         "         --top N (profile: rows in the self-time table, default 10)\n"
         "         (the live-observability flags need OPENTLA_OBS=ON)\n"
         "exit codes (all subcommands; profile forwards the wrapped one's):\n"
         "  0  printed / property holds / lint clean\n"
         "  1  property violated (check, closure, deadlock, refine, leadsto,\n"
         "     compose) or lint errors (any finding with --werror)\n"
         "  2  usage or input error\n"
         "  3  run budget stopped the run (partial result, stop_reason printed)\n";
  return 2;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

StateGraph explore(const ParsedModule& mod, const ExploreOptions& eopts) {
  // An open module (one whose subscript does not cover every declared
  // variable — e.g. an environment assumption like QE1) leaves the rest
  // unconstrained: explore them as free environment moves, exactly like
  // the composition verifier's EnvFrame.
  CanonicalSpec spec = mod.spec.unhidden();
  std::vector<char> covered(mod.vars->size(), 0);
  for (VarId v : spec.sub) covered[v] = 1;
  std::vector<VarId> env_free;
  for (VarId v = 0; v < mod.vars->size(); ++v) {
    if (!covered[v]) env_free.push_back(v);
  }
  std::vector<CompositePart> parts = {{spec, /*mover=*/true}};
  std::vector<std::vector<VarId>> free_tuples;
  if (!env_free.empty()) {
    CanonicalSpec frame;
    frame.name = "EnvFrame";
    frame.init = ex::top();
    frame.next = ex::top();
    frame.sub = env_free;
    parts.push_back({frame, /*mover=*/false});
    free_tuples.push_back(env_free);
  }
  return build_composite_graph(*mod.vars, parts, free_tuples, {}, eopts);
}

/// Uniform partial-result trailer for budget-stopped runs. The
/// `stop_reason: "..."` line is the machine-readable contract scripts and
/// the budget tests grep for; the return value is the CLI exit code.
int partial_result(run::StopReason r, std::size_t states) {
  std::cout << "PARTIAL RESULT: run budget stopped exploration after " << states
            << " states\nstop_reason: \"" << run::to_string(r) << "\"\n";
  return run::kBudgetExitCode;
}

// JSON emission follows the lint renderer's conventions: compact objects,
// two-space indent, escaped strings, always-valid output.
int cmd_info(const ParsedModule& mod, const std::string& format) {
  if (format == "json") {
    std::cout << "{\n  \"module\": \"" << obs::json_escape(mod.name) << "\",\n"
              << "  \"variables\": [";
    for (VarId v = 0; v < mod.vars->size(); ++v) {
      const bool hidden = std::find(mod.spec.hidden.begin(), mod.spec.hidden.end(), v) !=
                          mod.spec.hidden.end();
      if (v > 0) std::cout << ",";
      std::cout << "\n    {\"name\": \"" << obs::json_escape(mod.vars->name(v))
                << "\", \"hidden\": " << (hidden ? "true" : "false")
                << ", \"domain_size\": " << mod.vars->domain(v).size() << "}";
    }
    if (mod.vars->size() > 0) std::cout << "\n  ";
    std::cout << "],\n  \"definitions\": [";
    bool first = true;
    for (const auto& [name, def] : mod.definitions) {
      if (!first) std::cout << ",";
      first = false;
      std::cout << "\n    {\"name\": \"" << obs::json_escape(name) << "\", \"expr\": \""
                << obs::json_escape(def.to_string(*mod.vars)) << "\"}";
    }
    if (!first) std::cout << "\n  ";
    std::cout << "],\n  \"spec\": \"" << obs::json_escape(mod.spec.to_string(*mod.vars))
              << "\"\n}\n";
    return 0;
  }
  std::cout << "module " << mod.name << "\n";
  for (VarId v = 0; v < mod.vars->size(); ++v) {
    const bool hidden = std::find(mod.spec.hidden.begin(), mod.spec.hidden.end(), v) !=
                        mod.spec.hidden.end();
    std::cout << "  " << (hidden ? "hidden " : "var    ") << mod.vars->name(v) << " : "
              << mod.vars->domain(v).size() << " values\n";
  }
  for (const auto& [name, def] : mod.definitions) {
    std::cout << "  def    " << name << " == " << def.to_string(*mod.vars) << "\n";
  }
  std::cout << "  spec   " << mod.spec.to_string(*mod.vars) << "\n";
  return 0;
}

int cmd_states(const ParsedModule& mod, bool dump, const ExploreOptions& eopts,
               const std::string& format) {
  StateGraph g = explore(mod, eopts);
  const bool partial = g.stop_reason() != run::StopReason::kCompleted;
  if (format == "json") {
    std::cout << "{\n  \"module\": \"" << obs::json_escape(mod.name) << "\",\n"
              << "  \"states\": " << g.num_states() << ",\n  \"edges\": " << g.num_edges()
              << ",\n  \"initial\": " << g.initial().size();
    if (partial) {
      std::cout << ",\n  \"stop_reason\": \"" << run::to_string(g.stop_reason()) << "\"";
    }
    if (dump) {
      std::cout << ",\n  \"state_list\": [";
      for (StateId s = 0; s < g.num_states(); ++s) {
        if (s > 0) std::cout << ",";
        std::cout << "\n    \"" << obs::json_escape(g.state(s).to_string(*mod.vars)) << "\"";
      }
      if (g.num_states() > 0) std::cout << "\n  ";
      std::cout << "]";
    }
    std::cout << "\n}\n";
    return partial ? run::kBudgetExitCode : 0;
  }
  std::cout << g.num_states() << " states, " << g.num_edges() << " edges, "
            << g.initial().size() << " initial\n";
  if (dump) {
    for (StateId s = 0; s < g.num_states(); ++s) {
      std::cout << "  " << s << ": " << g.state(s).to_string(*mod.vars) << "\n";
    }
  }
  if (partial) return partial_result(g.stop_reason(), g.num_states());
  return 0;
}

int cmd_check(const ParsedModule& mod, const std::string& invariant_src,
              const ExploreOptions& eopts) {
  // Without --invariant, check TRUE: the graph is still fully explored
  // (useful under `profile`), and the invariant trivially holds.
  Expr invariant = invariant_src.empty()
                       ? ex::top()
                       : parse_expression(invariant_src, *mod.vars, &mod.definitions);
  StateGraph g = explore(mod, eopts);
  InvariantResult r = check_invariant(g, invariant);
  if (!r.holds) {
    // A violation on a partial graph is still a real violation: every
    // state in the graph is genuinely reachable.
    std::cout << "INVARIANT VIOLATED:\n" << format_trace(*mod.vars, r.counterexample);
    return 1;
  }
  if (r.stop_reason != run::StopReason::kCompleted) {
    std::cout << "invariant holds over the " << r.states_checked
              << " states explored before the budget stop\n";
    return partial_result(r.stop_reason, r.states_checked);
  }
  std::cout << "invariant holds over " << r.states_checked << " states\n";
  return 0;
}

int cmd_closure(const ParsedModule& mod, const ExploreOptions& eopts) {
  MachineClosureResult syn = check_prop1_syntactic(mod.spec);
  std::cout << "Proposition 1 (syntactic): " << (syn ? "applies" : "does NOT apply") << " — "
            << syn.detail << "\n";
  StateGraph g = explore(mod, eopts);
  if (g.stop_reason() != run::StopReason::kCompleted) {
    // On-graph validation needs the complete graph (a missing successor
    // would look like a closure failure), so a budget stop leaves it
    // unevaluated; the syntactic refutation above still stands.
    std::cout << "on-graph machine closure: not evaluated (run budget stop)\n";
    if (!syn) return 1;
    return partial_result(g.stop_reason(), g.num_states());
  }
  MachineClosureResult sem = check_machine_closure_on_graph(g, mod.spec.unhidden());
  std::cout << "on-graph machine closure: " << (sem ? "confirmed" : "REFUTED") << " — "
            << sem.detail << "\n";
  return (syn && sem) ? 0 : 1;
}

int cmd_deadlock(const ParsedModule& mod, const ExploreOptions& eopts) {
  // A deadlock is a reachable state whose only successor is itself
  // (stuttering); canonical specs always allow stuttering, so "no real
  // step" is the meaningful notion.
  StateGraph g = explore(mod, eopts);
  if (g.stop_reason() != run::StopReason::kCompleted) {
    // A budget-truncated graph can show spurious deadlocks (a state whose
    // real successors were cut by the budget), so no verdict either way.
    return partial_result(g.stop_reason(), g.num_states());
  }
  for (StateId s = 0; s < g.num_states(); ++s) {
    const std::vector<StateId>& succ = g.successors(s);
    const bool stuck = succ.size() == 1 && succ[0] == s;
    if (stuck) {
      std::vector<StateId> path = g.shortest_path_to([&](StateId t) { return t == s; });
      std::cout << "DEADLOCK (no non-stuttering step):\n";
      std::vector<State> states;
      for (StateId p : path) states.push_back(g.state(p));
      std::cout << format_trace(*mod.vars, states);
      return 1;
    }
  }
  std::cout << "no deadlock over " << g.num_states() << " states\n";
  return 0;
}

int cmd_refine(const ParsedModule& low, const ParsedModule& high,
               const std::vector<std::pair<std::string, std::string>>& witness_srcs,
               const ExploreOptions& eopts) {
  std::vector<std::pair<std::string, Expr>> witnesses;
  for (const auto& [name, src] : witness_srcs) {
    witnesses.emplace_back(name, parse_expression(src, *low.vars, &low.definitions));
  }
  StateGraph g = explore(low, eopts);
  if (g.stop_reason() != run::StopReason::kCompleted) {
    // Refinement (with its liveness side) is only sound on the complete
    // low graph.
    return partial_result(g.stop_reason(), g.num_states());
  }
  RefinementMapping mapping = mapping_by_name(*low.vars, *high.vars, witnesses);
  RefinementResult r = check_refinement(g, low.spec.fairness, high.spec, mapping);
  if (r.holds) {
    std::cout << low.name << " refines " << high.name << " (" << r.states << " states, "
              << r.edges << " edges)\n";
    return 0;
  }
  std::cout << "REFINEMENT FAILS at " << r.failed_part << ":\n"
            << format_trace(*low.vars, r.counterexample_prefix);
  if (!r.counterexample_cycle.empty()) {
    std::cout << "cycle:\n" << format_trace(*low.vars, r.counterexample_cycle);
  }
  return 1;
}

int cmd_leadsto(const ParsedModule& mod, const std::string& from_src,
                const std::string& to_src, const ExploreOptions& eopts) {
  Expr p = parse_expression(from_src, *mod.vars, &mod.definitions);
  Expr q = parse_expression(to_src, *mod.vars, &mod.definitions);
  StateGraph g = explore(mod, eopts);
  if (g.stop_reason() != run::StopReason::kCompleted) {
    // Leads-to needs the complete graph: both a "holds" and a lasso
    // counterexample depend on successors the budget may have cut.
    return partial_result(g.stop_reason(), g.num_states());
  }
  LeadsToResult r = check_leads_to(g, mod.spec.fairness, p, q);
  if (r.holds) {
    std::cout << from_src << "  ~>  " << to_src << "  holds over " << g.num_states()
              << " states\n";
    return 0;
  }
  std::cout << "LEADS-TO VIOLATED: " << from_src << " ~> " << to_src << "\n"
            << "prefix:\n" << format_trace(*mod.vars, r.counterexample_prefix)
            << "cycle (repeats forever):\n"
            << format_trace(*mod.vars, r.counterexample_cycle);
  return 1;
}

int cmd_simulate(const ParsedModule& mod, std::size_t steps, unsigned seed,
                 const ExploreOptions& eopts) {
  StateGraph g = explore(mod, eopts);
  if (g.stop_reason() != run::StopReason::kCompleted) {
    return partial_result(g.stop_reason(), g.num_states());
  }
  std::mt19937 rng(seed);
  StateId cur = g.initial()[std::uniform_int_distribution<std::size_t>(
      0, g.initial().size() - 1)(rng)];
  std::cout << "   0: " << g.state(cur).to_string(*mod.vars) << "\n";
  for (std::size_t i = 1; i <= steps; ++i) {
    // Prefer non-stuttering steps when available.
    std::vector<StateId> moves;
    for (StateId t : g.successors(cur)) {
      if (t != cur) moves.push_back(t);
    }
    if (moves.empty()) {
      std::cout << "   (only stuttering steps remain)\n";
      break;
    }
    cur = moves[std::uniform_int_distribution<std::size_t>(0, moves.size() - 1)(rng)];
    std::cout << std::setw(4) << i << ": " << g.state(cur).to_string(*mod.vars) << "\n";
  }
  return 0;
}

int cmd_coverage(const ParsedModule& mod, const std::string& format,
                 const ExploreOptions& eopts) {
  // The coverage units are the module's ACTION definitions; a module
  // written without them (bare NEXT) is covered per top-level disjunct.
  struct Unit {
    std::string name;
    Expr action;
  };
  std::vector<Unit> units;
  for (const std::string& name : mod.action_names) {
    units.push_back({name, mod.definitions.at(name)});
  }
  if (units.empty()) {
    std::vector<Expr> disjuncts = flatten_or(mod.spec.next);
    for (std::size_t i = 0; i < disjuncts.size(); ++i) {
      units.push_back({"disjunct_" + std::to_string(i + 1), disjuncts[i]});
    }
  }

  StateGraph g = explore(mod, eopts);

  // Exact per-action tallies over the reachable states, computed directly
  // (independent of the obs registry, so `coverage` works in
  // OPENTLA_OBS=OFF builds too). The generators are still labeled, so a
  // `profile coverage` run sees the same attribution in action_fired /
  // action_enabled.
  struct Row {
    std::string name;
    std::uint64_t enabled_states = 0;  // reachable states where the guards hold
    std::uint64_t fired = 0;           // successor emissions over all reachable states
  };
  std::vector<Row> rows;
  for (const Unit& u : units) {
    ActionSuccessors gen(*mod.vars, u.action);
    gen.set_label(u.name);
    Row row;
    row.name = u.name;
    for (StateId s = 0; s < g.num_states(); ++s) {
      std::uint64_t here = 0;
      gen.for_each_successor(g.state(s), [&](const State&) { ++here; });
      // Guard-based attribution: a state counts as enabled when the
      // action's precondition held, even if the residual or a domain check
      // then rejected every completion. fired == 0 with enabled_states > 0
      // pinpoints exactly those "guard passes, action can't step" states.
      if (gen.guards_enabled(g.state(s))) ++row.enabled_states;
      row.fired += here;
    }
    rows.push_back(std::move(row));
  }

  std::vector<std::string> never_fired;
  for (const Row& r : rows) {
    if (r.fired == 0) never_fired.push_back(r.name);
  }

  if (format == "json") {
    std::cout << "{\n  \"module\": \"" << obs::json_escape(mod.name) << "\",\n"
              << "  \"states\": " << g.num_states() << ",\n  \"actions\": [";
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const Row& r = rows[i];
      if (i > 0) std::cout << ",";
      std::cout << "\n    {\"name\": \"" << obs::json_escape(r.name)
                << "\", \"enabled_states\": " << r.enabled_states
                << ", \"fired\": " << r.fired
                << ", \"never_fired\": " << (r.fired == 0 ? "true" : "false") << "}";
    }
    if (!rows.empty()) std::cout << "\n  ";
    std::cout << "],\n  \"never_fired\": [";
    for (std::size_t i = 0; i < never_fired.size(); ++i) {
      if (i > 0) std::cout << ", ";
      std::cout << "\"" << obs::json_escape(never_fired[i]) << "\"";
    }
    std::cout << "]\n}\n";
  } else {
    std::cout << "coverage of " << mod.name << " over " << g.num_states()
              << " reachable states\n";
    std::size_t width = 6;
    for (const Row& r : rows) width = std::max(width, r.name.size());
    std::cout << "  " << std::left << std::setw(static_cast<int>(width)) << "action"
              << std::right << std::setw(16) << "enabled-states" << std::setw(12)
              << "fired" << "\n";
    for (const Row& r : rows) {
      std::cout << "  " << std::left << std::setw(static_cast<int>(width)) << r.name
                << std::right << std::setw(16) << r.enabled_states << std::setw(12)
                << r.fired << (r.fired == 0 ? "   NEVER FIRED" : "") << "\n";
    }
    for (const std::string& name : never_fired) {
      std::cout << "action " << name << " never fired in the explored space\n";
    }
  }
  if (g.stop_reason() != run::StopReason::kCompleted) {
    // The tallies above cover the explored prefix; "never fired" over a
    // truncated space is inconclusive, so the budget exit wins.
    return partial_result(g.stop_reason(), g.num_states());
  }
  return never_fired.empty() ? 0 : 1;
}

int cmd_compose(const std::vector<std::pair<std::string, std::string>>& component_files,
                const std::vector<std::string>& constraint_files,
                const std::pair<std::string, std::string>& goal_files,
                const std::vector<std::pair<std::string, std::string>>& witness_srcs,
                std::size_t max_states, unsigned threads, std::uint64_t spill_at,
                run::RunBudget* budget) {
  // All modules share one universe, merged by variable name.
  auto universe = std::make_shared<VarTable>();
  std::vector<AGSpec> components;
  for (const std::string& file : constraint_files) {
    ParsedModule mod = parse_module(slurp(file), universe);
    components.push_back(property_as_ag(mod.spec, /*mover=*/false));
  }
  for (const auto& [env_file, guar_file] : component_files) {
    ParsedModule env = parse_module(slurp(env_file), universe);
    ParsedModule guar = parse_module(slurp(guar_file), universe);
    components.push_back({env.spec, guar.spec});
  }
  ParsedModule goal_env = parse_module(slurp(goal_files.first), universe);
  ParsedModule goal_guar = parse_module(slurp(goal_files.second), universe);
  AGSpec goal{goal_env.spec, goal_guar.spec};

  CompositionOptions opts;
  opts.max_states = max_states;
  opts.max_nodes = max_states;
  opts.threads = threads;
  opts.spill_at = spill_at;
  opts.budget = budget;
  for (const auto& [name, src] : witness_srcs) {
    opts.goal_witness.emplace_back(name, parse_expression(src, *universe));
  }
  ProofReport report = verify_composition(*universe, components, goal, opts);
  std::cout << report.to_string();
  if (report.all_discharged()) return 0;
  // A definitively refuted hypothesis beats any budget noise; only a run
  // where every undischarged obligation is inconclusive exits as partial.
  for (const Obligation& ob : report.obligations) {
    if (!ob.discharged && !ob.inconclusive) return 1;
  }
  const run::StopReason reason =
      budget != nullptr && budget->stopped() ? budget->reason() : run::StopReason::kDeadline;
  std::cout << "stop_reason: \"" << run::to_string(reason) << "\"\n";
  return run::kBudgetExitCode;
}

int cmd_lint(const std::vector<std::string>& files, const std::string& format, bool werror,
             const lint::LintOptions& opts) {
  // Several files share one universe (merged by variable name, like
  // `compose`), so pairwise footprint checks (OTL006) see the same VarIds.
  std::shared_ptr<VarTable> universe =
      files.size() > 1 ? std::make_shared<VarTable>() : nullptr;
  std::vector<ParsedModule> mods;
  mods.reserve(files.size());
  for (const std::string& file : files) {
    mods.push_back(parse_module(slurp(file), universe));
  }
  std::vector<lint::Diagnostic> diags = lint::lint_modules(mods, opts);
  for (lint::Diagnostic& d : diags) {
    // Map each finding back to the input file via its module name.
    for (std::size_t i = 0; i < mods.size(); ++i) {
      if (mods[i].name == d.module_name) {
        d.file = files[i];
        break;
      }
    }
  }
  if (format == "json") {
    std::cout << lint::render_json(diags);
  } else {
    std::cout << lint::render_human(diags);
    if (diags.empty()) {
      std::cout << "clean: " << files.size()
                << (files.size() == 1 ? " module, " : " modules, ")
                << lint::check_registry().size() << " checks, 0 findings\n";
    }
  }
  if (lint::has_errors(diags)) return 1;
  if (werror && !diags.empty()) return 1;
  return 0;
}

int cmd_analyze(const std::vector<std::string>& files, const std::string& format,
                bool want_independence, bool want_footprints) {
  // With neither section flag, emit both sections.
  if (!want_independence && !want_footprints) want_independence = want_footprints = true;

  // Several files share one universe by variable name (like `lint` and
  // `compose`), so cross-module footprints compare the same VarIds.
  std::shared_ptr<VarTable> universe =
      files.size() > 1 ? std::make_shared<VarTable>() : nullptr;
  std::vector<ParsedModule> mods;
  mods.reserve(files.size());
  for (const std::string& file : files) {
    mods.push_back(parse_module(slurp(file), universe));
  }
  const VarTable& vars = *mods.front().vars;

  std::vector<analysis::ActionUnit> units;
  for (const ParsedModule& mod : mods) {
    std::vector<analysis::ActionUnit> mu = analysis::module_action_units(mod);
    units.insert(units.end(), std::make_move_iterator(mu.begin()),
                 std::make_move_iterator(mu.end()));
  }
  const analysis::IndependenceMatrix m = analysis::compute_independence(vars, std::move(units));
  const std::size_t n = m.size();

  auto var_names = [&](const std::vector<VarId>& vs) {
    std::vector<std::string> names;
    names.reserve(vs.size());
    for (VarId v : vs) names.push_back(vars.name(v));
    return names;
  };

  if (format == "json") {
    // Emission order is fixed (file order, then NEXT-disjunct order, then
    // row-major pairs), so repeated runs produce byte-identical output.
    auto str_array = [](const std::vector<std::string>& xs) {
      std::string out = "[";
      for (std::size_t i = 0; i < xs.size(); ++i) {
        if (i > 0) out += ", ";
        out += "\"" + obs::json_escape(xs[i]) + "\"";
      }
      return out + "]";
    };
    std::cout << "{\n  \"schema\": \"opentla-analyze-v1\",\n  \"modules\": [";
    for (std::size_t i = 0; i < mods.size(); ++i) {
      if (i > 0) std::cout << ", ";
      std::cout << "\"" << obs::json_escape(mods[i].name) << "\"";
    }
    std::cout << "],\n  \"units\": [";
    for (std::size_t i = 0; i < n; ++i) {
      const analysis::ActionUnit& u = m.units()[i];
      if (i > 0) std::cout << ",";
      std::cout << "\n    {\"name\": \"" << obs::json_escape(u.name) << "\", \"module\": \""
                << obs::json_escape(u.module) << "\"}";
    }
    if (n > 0) std::cout << "\n  ";
    std::cout << "]";
    if (want_footprints) {
      std::cout << ",\n  \"footprints\": [";
      for (std::size_t i = 0; i < n; ++i) {
        const analysis::ActionUnit& u = m.units()[i];
        if (i > 0) std::cout << ",";
        std::cout << "\n    {\"unit\": \"" << obs::json_escape(u.name) << "\", \"module\": \""
                  << obs::json_escape(u.module)
                  << "\", \"reads\": " << str_array(var_names(u.fp.reads))
                  << ", \"writes\": " << str_array(var_names(u.fp.writes))
                  << ", \"guard_reads\": " << str_array(var_names(u.fp.guard_reads))
                  << ", \"conservative\": " << (u.fp.conservative ? "true" : "false") << "}";
      }
      if (n > 0) std::cout << "\n  ";
      std::cout << "]";
    }
    if (want_independence) {
      char density[32];
      std::snprintf(density, sizeof density, "%.6f", m.density());
      std::cout << ",\n  \"independence\": {\n    \"independent_pairs\": "
                << m.independent_pairs() << ",\n    \"dependent_pairs\": " << m.dependent_pairs()
                << ",\n    \"density\": " << density << ",\n    \"matrix\": [";
      for (std::size_t i = 0; i < n; ++i) {
        if (i > 0) std::cout << ",";
        std::cout << "\n      [";
        for (std::size_t j = 0; j < n; ++j) {
          if (j > 0) std::cout << ", ";
          std::cout << (m.independent(i, j) ? 1 : 0);
        }
        std::cout << "]";
      }
      if (n > 0) std::cout << "\n    ";
      std::cout << "],\n    \"dependent\": [";
      bool first = true;
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = i + 1; j < n; ++j) {
          if (m.independent(i, j)) continue;
          if (!first) std::cout << ",";
          first = false;
          std::cout << "\n      {\"a\": \"" << obs::json_escape(m.units()[i].name)
                    << "\", \"b\": \"" << obs::json_escape(m.units()[j].name)
                    << "\", \"reason\": \"" << obs::json_escape(m.reason(i, j)) << "\"}";
        }
      }
      if (!first) std::cout << "\n    ";
      std::cout << "]\n  }";
    }
    std::cout << "\n}\n";
    return 0;
  }

  std::cout << "analyze";
  for (const ParsedModule& mod : mods) std::cout << " " << mod.name;
  std::cout << ": " << n << " action unit" << (n == 1 ? "" : "s") << "\n";
  auto set_str = [&](const std::vector<VarId>& vs) {
    std::string out = "{";
    for (std::size_t i = 0; i < vs.size(); ++i) {
      if (i > 0) out += ", ";
      out += vars.name(vs[i]);
    }
    return out + "}";
  };
  std::size_t width = 4;
  for (const analysis::ActionUnit& u : m.units()) width = std::max(width, u.name.size());
  if (want_footprints) {
    std::cout << "footprints:\n";
    for (const analysis::ActionUnit& u : m.units()) {
      std::cout << "  " << std::left << std::setw(static_cast<int>(width)) << u.name
                << std::right << "  reads " << set_str(u.fp.reads) << "  writes "
                << set_str(u.fp.writes) << "  guards " << set_str(u.fp.guard_reads)
                << (u.fp.conservative ? "  [conservative]" : "") << "\n";
    }
  }
  if (want_independence) {
    char density[32];
    std::snprintf(density, sizeof density, "%.2f", m.density());
    std::cout << "independence: " << m.independent_pairs() << "/"
              << (m.independent_pairs() + m.dependent_pairs())
              << " unordered pairs independent (density " << density << ")\n";
    if (n > 0) {
      // Matrix rows: '.' independent, 'X' dependent (diagonal included).
      std::cout << "  matrix ('.' independent, 'X' dependent):\n";
      for (std::size_t i = 0; i < n; ++i) {
        std::cout << "  " << std::left << std::setw(static_cast<int>(width))
                  << m.units()[i].name << std::right << "  ";
        for (std::size_t j = 0; j < n; ++j) std::cout << (m.independent(i, j) ? '.' : 'X');
        std::cout << "\n";
      }
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = i + 1; j < n; ++j) {
          if (m.independent(i, j)) continue;
          std::cout << "  " << m.units()[i].name << " ~ " << m.units()[j].name << ": "
                    << m.reason(i, j) << "\n";
        }
      }
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const auto run_start = std::chrono::steady_clock::now();
  std::vector<std::string> args(argv + 1, argv + argc);
  if (args.size() < 2) return usage();
  std::string cmd = args[0];

  // `profile SUBCOMMAND ...` wraps another subcommand; --format/--out then
  // configure the profile renderer, not the wrapped subcommand.
  const bool profiling = cmd == "profile";
  if (profiling) {
    args.erase(args.begin());
    if (args.size() < 2) return usage();
    cmd = args[0];
    if (cmd == "profile") return usage();
  }

  // Common options.
  std::string invariant_src;
  std::string from_src, to_src;
  bool dump = false;
  bool stats = false;
  std::size_t max_states = 2'000'000;
  unsigned threads = 1;
  std::uint64_t spill_at = 0;  // 0 = never spill
  std::size_t steps = 16;
  unsigned seed = 0;
  std::string format = "human";
  std::string out_file;
  long progress_ms = -1;  // <0 = off
  std::string events_file;
  std::string metrics_file;
  long deadline_ms = -1;   // <0 = off
  long rss_limit_mb = -1;  // <0 = off
  long flight_cap = -1;    // <0 = off
  long sample_hz = -1;     // <0 = off
  long top_n = 10;
  std::string flight_out = "flight_recorder.jsonl";
  int serve_port = -1;  // <0 = off (0 = ephemeral)
  long serve_hold_ms = 0;
  std::string ledger_file;
  bool werror = false;
  bool want_independence = false;
  bool want_footprints = false;
  lint::LintOptions lint_opts;
  std::vector<std::pair<std::string, std::string>> witnesses;
  std::vector<std::pair<std::string, std::string>> component_files;
  std::vector<std::string> constraint_files;
  std::pair<std::string, std::string> goal_files;
  std::vector<std::string> files;
  try {
  auto split_pair = [&](const std::string& arg) {
    const std::size_t comma = arg.find(',');
    if (comma == std::string::npos) {
      throw std::runtime_error("expected ENV.tla,GUAR.tla, got " + arg);
    }
    return std::make_pair(arg.substr(0, comma), arg.substr(comma + 1));
  };
  for (std::size_t i = 1; i < args.size(); ++i) {
    if (args[i] == "--invariant" && i + 1 < args.size()) {
      invariant_src = args[++i];
    } else if (args[i] == "--dump") {
      dump = true;
    } else if (args[i] == "--max-states" && i + 1 < args.size()) {
      max_states = parse_count(args[i], args[i + 1]);
      ++i;
    } else if (args[i] == "--threads" && i + 1 < args.size()) {
      threads = static_cast<unsigned>(parse_count(args[i], args[i + 1], kMaxThreads));
      ++i;
    } else if (args[i] == "--spill-at" && i + 1 < args.size()) {
      spill_at = parse_count(args[i], args[i + 1]);
      ++i;
    } else if (args[i] == "--from" && i + 1 < args.size()) {
      from_src = args[++i];
    } else if (args[i] == "--to" && i + 1 < args.size()) {
      to_src = args[++i];
    } else if (args[i] == "--steps" && i + 1 < args.size()) {
      steps = parse_count(args[i], args[i + 1]);
      ++i;
    } else if (args[i] == "--seed" && i + 1 < args.size()) {
      seed = static_cast<unsigned>(
          parse_count(args[i], args[i + 1], std::numeric_limits<unsigned>::max()));
      ++i;
    } else if (args[i] == "--format" && i + 1 < args.size()) {
      format = args[++i];
      // "trace" (Chrome trace_event) and "folded" (collapsed stacks for
      // flamegraph.pl) only make sense for `profile`.
      if (format != "human" && format != "json" &&
          !(profiling && (format == "trace" || format == "folded"))) {
        return usage();
      }
    } else if (args[i] == "--out" && i + 1 < args.size()) {
      out_file = args[++i];
    } else if (args[i] == "--progress") {
      progress_ms = 250;
    } else if (args[i].rfind("--progress=", 0) == 0) {
      progress_ms = std::stol(args[i].substr(std::string("--progress=").size()));
      if (progress_ms <= 0) return usage();
    } else if (args[i] == "--events" && i + 1 < args.size()) {
      events_file = args[++i];
    } else if (args[i] == "--metrics-out" && i + 1 < args.size()) {
      metrics_file = args[++i];
    } else if (args[i] == "--deadline-ms" && i + 1 < args.size()) {
      deadline_ms = std::stol(args[++i]);
      if (deadline_ms <= 0) return usage();
    } else if (args[i] == "--rss-limit-mb" && i + 1 < args.size()) {
      rss_limit_mb = std::stol(args[++i]);
      if (rss_limit_mb <= 0) return usage();
    } else if (args[i] == "--flight-recorder") {
      flight_cap = 4096;
    } else if (args[i].rfind("--flight-recorder=", 0) == 0) {
      flight_cap = std::stol(args[i].substr(std::string("--flight-recorder=").size()));
      if (flight_cap <= 0) return usage();
    } else if (args[i] == "--sample-hz" && i + 1 < args.size()) {
      sample_hz = std::stol(args[++i]);
      if (sample_hz <= 0) return usage();
    } else if (args[i] == "--top" && i + 1 < args.size()) {
      top_n = std::stol(args[++i]);
      if (top_n <= 0) return usage();
    } else if (args[i] == "--flight-out" && i + 1 < args.size()) {
      flight_out = args[++i];
    } else if (args[i] == "--serve-metrics" && i + 1 < args.size()) {
      serve_port = static_cast<int>(parse_count(args[i], args[i + 1], 65535));
      ++i;
    } else if (args[i] == "--serve-hold-ms" && i + 1 < args.size()) {
      serve_hold_ms = std::stol(args[++i]);
      if (serve_hold_ms < 0) return usage();
    } else if (args[i] == "--run-ledger" && i + 1 < args.size()) {
      ledger_file = args[++i];
    } else if (args[i] == "--stats") {
      stats = true;
    } else if (args[i] == "--werror") {
      werror = true;
    } else if (args[i] == "--independence") {
      want_independence = true;
    } else if (args[i] == "--footprints") {
      want_footprints = true;
    } else if (args[i] == "--state-bound" && i + 1 < args.size()) {
      lint_opts.state_bound = parse_count(args[i], args[i + 1]);
      ++i;
    } else if (args[i] == "--witness" && i + 1 < args.size()) {
      const std::string w = args[++i];
      const std::size_t eq = w.find('=');
      if (eq == std::string::npos) return usage();
      witnesses.emplace_back(w.substr(0, eq), w.substr(eq + 1));
    } else if (args[i] == "--component" && i + 1 < args.size()) {
      component_files.push_back(split_pair(args[++i]));
    } else if (args[i] == "--constraint" && i + 1 < args.size()) {
      constraint_files.push_back(args[++i]);
    } else if (args[i] == "--goal" && i + 1 < args.size()) {
      goal_files = split_pair(args[++i]);
    } else if (!args[i].empty() && args[i][0] == '-') {
      return usage();
    } else {
      files.push_back(args[i]);
    }
  }

    // Under `profile`, --format belongs to the profile renderer; the
    // wrapped subcommand renders its default (human) output.
    const std::string inner_format = profiling ? "human" : format;

    ExploreOptions eopts;
    eopts.threads = threads;
    eopts.max_states = max_states;
    eopts.spill_at = spill_at;

    // Run budget: armed by any limit flag. The flight recorder arms it too
    // (signal watch only) so SIGINT/SIGTERM end in a dump plus a graceful
    // partial result instead of the default fatal exit, and a ledger run
    // gets a limit-free budget so max_states stops latch a reason the
    // ledger can record. Budget flags work in OPENTLA_OBS=OFF builds —
    // limits are a correctness feature, not an observability one.
    const bool want_limits = deadline_ms >= 0 || rss_limit_mb >= 0 || flight_cap >= 0;
    std::unique_ptr<run::RunBudget> budget;
    if (want_limits || !ledger_file.empty()) {
      run::BudgetLimits limits;
      if (deadline_ms >= 0) limits.deadline_ms = static_cast<std::uint64_t>(deadline_ms);
      if (rss_limit_mb >= 0) {
        limits.max_rss_bytes = static_cast<std::uint64_t>(rss_limit_mb) * 1024 * 1024;
      }
      limits.watch_signals = want_limits;
      budget = std::make_unique<run::RunBudget>(limits);
      eopts.budget = budget.get();
    }

    auto dispatch = [&]() -> int {
      if (cmd == "compose") {
        if (goal_files.first.empty() || component_files.empty()) return usage();
        return cmd_compose(component_files, constraint_files, goal_files, witnesses,
                           max_states, threads, spill_at, budget.get());
      }
      if (cmd == "lint") {
        if (files.empty()) return usage();
        return cmd_lint(files, inner_format, werror, lint_opts);
      }
      if (cmd == "analyze") {
        if (files.empty()) return usage();
        return cmd_analyze(files, inner_format, want_independence, want_footprints);
      }
      if (cmd == "refine") {
        if (files.size() != 2) return usage();
        ParsedModule low = parse_module(slurp(files[0]));
        ParsedModule high = parse_module(slurp(files[1]));
        return cmd_refine(low, high, witnesses, eopts);
      }
      if (files.size() != 1) return usage();
      ParsedModule mod = parse_module(slurp(files[0]));
      if (cmd == "info") return cmd_info(mod, inner_format);
      if (cmd == "states") return cmd_states(mod, dump, eopts, inner_format);
      if (cmd == "check") return cmd_check(mod, invariant_src, eopts);
      if (cmd == "closure") return cmd_closure(mod, eopts);
      if (cmd == "deadlock") return cmd_deadlock(mod, eopts);
      if (cmd == "simulate") return cmd_simulate(mod, steps, seed, eopts);
      if (cmd == "coverage") return cmd_coverage(mod, inner_format, eopts);
      if (cmd == "leadsto") {
        if (from_src.empty() || to_src.empty()) return usage();
        return cmd_leadsto(mod, from_src, to_src, eopts);
      }
      return usage();
    };

    // Live observability flags need the instrumentation compiled in; an
    // OPENTLA_OBS=OFF binary would silently record nothing, so reject the
    // flags outright instead of emitting empty files.
    const bool live_obs = progress_ms >= 0 || !events_file.empty() || !metrics_file.empty() ||
                          flight_cap >= 0 || serve_port >= 0 || !ledger_file.empty() ||
                          sample_hz >= 0;
    if (live_obs && !obs::compile_time_enabled()) {
      std::cerr << "error: --progress/--events/--metrics-out/--flight-recorder/"
                   "--serve-metrics/--run-ledger/--sample-hz require a build with "
                   "OPENTLA_OBS=ON (this binary was configured with -DOPENTLA_OBS=OFF)\n";
      return 2;
    }

    std::unique_ptr<obs::JsonlWriter> events;
    if (!events_file.empty()) {
      events = std::make_unique<obs::JsonlWriter>(events_file);
      if (!events->ok()) {
        std::cerr << "error: cannot write " << events_file << "\n";
        return 2;
      }
      obs::set_phase_sink(
          [ev = events.get()](const obs::PhaseEvent& p) { ev->write_phase(p); });
    }
    // Clears the phase sink before `events` is destroyed, including when
    // dispatch throws.
    struct PhaseSinkGuard {
      bool active;
      ~PhaseSinkGuard() {
        if (active) obs::set_phase_sink(nullptr);
      }
    } sink_guard{events != nullptr};

    if (live_obs) obs::set_enabled(true);

    if (flight_cap >= 0) {
      obs::flight_recorder_enable(static_cast<std::size_t>(flight_cap), flight_out);
    }

    std::unique_ptr<obs::MetricsServer> server;
    if (serve_port >= 0) {
      server = std::make_unique<obs::MetricsServer>(static_cast<std::uint16_t>(serve_port));
      if (!server->ok()) {
        std::cerr << "error: cannot bind 127.0.0.1:" << serve_port << "\n";
        return 2;
      }
      std::cerr << "[serve] http://127.0.0.1:" << server->port()
                << " (/metrics, /progress)\n";
    }

    // The recorder and the /progress endpoint need heartbeats even when the
    // user didn't ask for a console progress line: run a silent sampler.
    std::unique_ptr<obs::ProgressSampler> sampler;
    const bool verbose_progress = progress_ms >= 0;
    if (verbose_progress || server != nullptr || flight_cap >= 0) {
      const long period_ms = verbose_progress ? progress_ms : 100;
      sampler = std::make_unique<obs::ProgressSampler>(
          std::chrono::milliseconds(period_ms),
          [ev = events.get(), srv = server.get(),
           verbose_progress](const obs::ProgressSample& s) {
            if (verbose_progress) {
              std::fprintf(stderr,
                           "[progress] t=%.2fs states=%llu frontier=%llu rate=%.0f/s "
                           "rss=%.1fMB\n",
                           static_cast<double>(s.elapsed_us) / 1e6,
                           static_cast<unsigned long long>(s.states),
                           static_cast<unsigned long long>(s.frontier), s.states_per_sec,
                           static_cast<double>(s.rss_bytes) / (1024.0 * 1024.0));
              std::fflush(stderr);
            }
            if (ev) ev->write_progress(s);
            if (srv) srv->set_progress(s);
            if (obs::flight_recorder_enabled()) {
              obs::flight_recorder_record(obs::FlightKind::kProgress, "", s.states,
                                          s.frontier, s.rss_bytes);
            }
          });
    }

    // Span-stack sampling profiler: walks every registered thread's span
    // stack at --sample-hz and folds the observations for flamegraphs.
    // Read-only on atomics, so exploration order (and the bit-identical
    // graph contract) is unaffected.
    std::unique_ptr<obs::SamplingProfiler> span_profiler;
    if (sample_hz > 0) {
      obs::set_enabled(true);
      span_profiler =
          std::make_unique<obs::SamplingProfiler>(static_cast<double>(sample_hz));
    }

    auto finish = [&](int rc) {
      if (span_profiler) span_profiler->stop();
      if (sampler) sampler->stop();
      obs::gauge_max(obs::Gauge::PeakRssBytes, obs::read_rss_bytes());
      if (budget != nullptr && budget->stopped()) {
        // A budget-stopped run never exits 0: "success" on a partial graph
        // is not a verdict. Definite failures (rc 1) keep their exit code.
        if (rc == 0) rc = run::kBudgetExitCode;
        if (obs::flight_recorder_enabled()) {
          const std::size_t n = obs::flight_recorder_dump("budget_stop");
          std::cerr << "[flight-recorder] wrote " << n << " events to " << flight_out
                    << "\n";
        }
      }
      if (!metrics_file.empty()) {
        std::ofstream out(metrics_file);
        out << obs::render_openmetrics(obs::snapshot());
        if (!out) {
          std::cerr << "error: cannot write " << metrics_file << "\n";
          return 2;
        }
      }
      if (server) {
        if (serve_hold_ms > 0) {
          std::this_thread::sleep_for(std::chrono::milliseconds(serve_hold_ms));
        }
        server->stop();
      }
      if (!ledger_file.empty()) {
        run::RunRecord rec;
        rec.command = cmd;
        std::uint64_t h = run::fnv1a64(nullptr, 0);
        auto fold = [&h](const std::string& path) {
          try {
            const std::string text = slurp(path);
            h = run::fnv1a64(text.data(), text.size(), h);
          } catch (const std::exception&) {
            // Unreadable inputs already failed the run; the ledger still
            // records the attempt.
          }
        };
        for (const std::string& f : files) fold(f);
        for (const auto& [env, guar] : component_files) fold(env), fold(guar);
        for (const std::string& f : constraint_files) fold(f);
        if (!goal_files.first.empty()) fold(goal_files.first), fold(goal_files.second);
        char hex[17];
        std::snprintf(hex, sizeof hex, "%016llx", static_cast<unsigned long long>(h));
        rec.spec_hash = hex;
        for (std::size_t i = 0; i < args.size(); ++i) {
          if (i != 0) rec.options += ' ';
          rec.options += args[i];
        }
        rec.stop_reason =
            run::to_string(budget != nullptr ? budget->reason() : run::StopReason::kCompleted);
        rec.exit_code = rc;
        rec.states = obs::counter_value(obs::Counter::StatesGenerated);
        rec.budget_stops = obs::counter_value(obs::Counter::BudgetStops);
        rec.elapsed_us = static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::microseconds>(
                std::chrono::steady_clock::now() - run_start)
                .count());
        rec.peak_rss_bytes = obs::gauge_value(obs::Gauge::PeakRssBytes);
        const obs::Snapshot mem_snap = obs::snapshot();
        rec.tracked_peak_bytes = mem_snap.mem_tracked_peak_bytes;
        rec.bytes_per_state = mem_snap.bytes_per_state();
        if (!run::append_run_ledger(ledger_file, rec)) {
          std::cerr << "warning: cannot append run ledger " << ledger_file << "\n";
        }
      }
      return rc;
    };

    if (!profiling && !stats) return finish(dispatch());

    obs::ScopedSink sink;
    const int rc = dispatch();
    // Sampling ends with the measured work (stop() is idempotent; finish()
    // calls it again harmlessly) so folded counts are complete here.
    if (span_profiler) span_profiler->stop();
    obs::Snapshot snap = sink.take();
    if (!profiling) {
      std::cout << "--- stats ---\n" << obs::render_human(snap);
      return finish(rc);
    }
    // Folded stacks come from the live sampler when one ran; when it did
    // not (or the run was too short for any tick to land on an open span),
    // they are derived from the completed spans so the flamegraph always
    // renders.
    const auto folded_text = [&] {
      std::vector<obs::FoldedStack> stacks;
      if (span_profiler) stacks = span_profiler->folded();
      if (stacks.empty()) stacks = obs::folded_from_spans(snap);
      return obs::render_folded(stacks);
    };
    const std::string rendered =
        format == "trace"    ? obs::render_chrome_trace(snap)
        : format == "json"   ? obs::render_json(snap)
        : format == "folded" ? folded_text()
                             : obs::render_human(snap) +
                                   obs::render_profile_table(
                                       obs::profile_rows(snap),
                                       static_cast<std::size_t>(top_n));
    if (out_file.empty()) {
      std::cout << rendered;
    } else {
      std::ofstream out(out_file);
      out << rendered;
      if (!out) {
        std::cerr << "error: cannot write " << out_file << "\n";
        return finish(2);
      }
    }
    return finish(rc);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    if (obs::flight_recorder_enabled()) obs::flight_recorder_dump("exception");
    return 2;
  }
}
