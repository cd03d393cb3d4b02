// opentla/parser/parser.hpp
//
// Recursive-descent parser for the mini-TLA concrete syntax: expressions
// and actions over a declared universe, and whole modules that assemble a
// canonical-form specification. Example module:
//
//     MODULE Counter
//     VARIABLE x \in 0..3
//     DEFINE AtMax == x = 3
//     INIT x = 0
//     ACTION Incr == x < 3 /\ x' = x + 1
//     ACTION Reset == AtMax /\ x' = 0
//     NEXT Incr \/ Reset
//     SUBSCRIPT <<x>>
//     FAIRNESS WF Incr
//
// Domains: `a..b` (integer range), `{1, 2, 5}`, `BOOLEAN`,
// `Seq(<domain>, maxlen)`. `HIDDEN` declares an internal variable (it is
// appended to the subscript automatically if missing). Definitions are
// macros: each use splices the defining expression.

#pragma once

#include <cstddef>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "opentla/expr/expr.hpp"
#include "opentla/obs/memory.hpp"
#include "opentla/tla/spec.hpp"

namespace opentla {

/// The one nesting cap on parsed input: no expression the parser builds
/// is deeper than this, and its recursion (parentheses, `~`, unary `-`,
/// `=>`, Seq domains) goes no deeper. Past it the parse fails with an
/// error instead of overflowing the stack in the parser or in any later
/// recursive pass (evaluation, printing, analysis). Bundled specs nest
/// under ten levels.
inline constexpr std::size_t kMaxExprDepth = 512;

/// Parses one expression/action over `vars`. `definitions` (optional)
/// provides named macros.
Expr parse_expression(const std::string& src, const VarTable& vars,
                      const std::map<std::string, Expr>* definitions = nullptr);

/// A position in the module source (1-based; {0, 0} means "unknown").
struct SourceLoc {
  std::size_t line = 0;
  std::size_t column = 0;

  bool known() const { return line != 0; }
};

/// Source locations of a module's declarations and statements, recorded by
/// the parser so later passes (the linter, error reporters) can point at
/// the offending line instead of just naming a construct.
struct ModuleLocations {
  SourceLoc module_kw;                          // the MODULE statement
  SourceLoc init;                               // the INIT statement
  SourceLoc next;                               // the NEXT statement
  SourceLoc subscript;                          // the SUBSCRIPT statement
  SourceLoc disjoint;                           // the DISJOINT statement
  std::map<std::string, SourceLoc> definitions; // DEFINE/ACTION name tokens
  std::map<VarId, SourceLoc> variables;         // declaration name tokens
  std::vector<SourceLoc> fairness;              // one per FAIRNESS statement,
                                                // aligned with spec.fairness
};

struct ParsedModule {
  std::string name;
  std::shared_ptr<VarTable> vars;
  std::map<std::string, Expr> definitions;
  /// Names introduced with ACTION (not DEFINE), in statement order.
  /// Coverage reporting treats these as the module's named actions.
  std::vector<std::string> action_names;
  CanonicalSpec spec;
  /// Variables this module itself declares (a shared universe may hold
  /// more), in declaration order.
  std::vector<VarId> declared;
  /// The tuples of a DISJOINT module, in statement order (empty otherwise).
  std::vector<std::vector<VarId>> disjoint_tuples;
  ModuleLocations locs;
  /// Memory accounting: expression-tree bytes of the parsed module
  /// (definitions, init, next, fairness actions), charged to the parser
  /// domain at parse completion and released with the module.
  obs::MemTally mem{obs::MemDomain::Parser};

  bool is_disjoint() const { return !disjoint_tuples.empty(); }
};

/// Parses a full module into a canonical specification. Throws
/// std::runtime_error with position information on syntax or resolution
/// errors.
///
/// `shared_vars` (optional) supplies the universe: declarations of a name
/// already present must repeat the same domain (modules describing
/// components of one system each declare the variables they touch, and the
/// tables merge). A `DISJOINT <<a, b>>, <<c>>, ...` statement replaces
/// INIT/NEXT and produces the interleaving spec of Section 2.3.
ParsedModule parse_module(const std::string& src,
                          std::shared_ptr<VarTable> shared_vars = nullptr);

}  // namespace opentla
