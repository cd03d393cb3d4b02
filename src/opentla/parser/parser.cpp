#include "opentla/parser/parser.hpp"

#include <algorithm>
#include <set>
#include <stdexcept>

#include "opentla/expr/substitute.hpp"
#include "opentla/parser/lexer.hpp"
#include "opentla/tla/disjoint.hpp"

namespace opentla {

namespace {

[[noreturn]] void parse_error(const Token& at, const std::string& msg) {
  throw std::runtime_error("parse error at " + std::to_string(at.line) + ":" +
                           std::to_string(at.column) + ": " + msg + " (got '" +
                           (at.text.empty() ? to_string(at.kind) : at.text) + "')");
}

/// Token-stream cursor over a newline-free token slice.
class Cursor {
 public:
  explicit Cursor(std::vector<Token> tokens) : tokens_(std::move(tokens)) {
    // The end marker sits at the last token, so errors at the end of
    // input still point into the source.
    Token end;
    end.kind = TokenKind::End;
    if (!tokens_.empty()) {
      end.line = tokens_.back().line;
      end.column = tokens_.back().column;
    }
    tokens_.push_back(std::move(end));
  }

  const Token& peek(std::size_t ahead = 0) const {
    return tokens_[std::min(pos_ + ahead, tokens_.size() - 1)];
  }
  const Token& advance() { return tokens_[std::min(pos_++, tokens_.size() - 1)]; }
  bool at(TokenKind kind) const { return peek().kind == kind; }
  bool accept(TokenKind kind) {
    if (!at(kind)) return false;
    advance();
    return true;
  }
  const Token& expect(TokenKind kind, const std::string& what) {
    if (!at(kind)) parse_error(peek(), "expected " + what);
    return advance();
  }
  bool done() const { return at(TokenKind::End); }

 private:
  std::vector<Token> tokens_;
  std::size_t pos_ = 0;
};

class ExprParser {
 public:
  ExprParser(Cursor& cur, const VarTable& vars, const std::map<std::string, Expr>* defs)
      : cur_(&cur), vars_(&vars), defs_(defs) {}

  Expr parse() {
    Nest nest(*this);
    return bounded(parse_equiv());
  }

  /// Parses a domain: a..b | {c, ...} | BOOLEAN | Seq(domain, n).
  Domain parse_domain() {
    if (cur_->at(TokenKind::LBrace)) {
      cur_->advance();
      std::vector<Value> values;
      if (!cur_->at(TokenKind::RBrace)) {
        do {
          values.push_back(parse_constant());
        } while (cur_->accept(TokenKind::Comma));
      }
      cur_->expect(TokenKind::RBrace, "'}'");
      return Domain(std::move(values));
    }
    if (cur_->at(TokenKind::Ident) && cur_->peek().text == "BOOLEAN") {
      cur_->advance();
      return bool_domain();
    }
    if (cur_->at(TokenKind::Ident) && cur_->peek().text == "Seq") {
      cur_->advance();
      cur_->expect(TokenKind::LParen, "'('");
      Nest nest(*this);
      Domain elems = parse_domain();
      cur_->expect(TokenKind::Comma, "','");
      const Token& n = cur_->expect(TokenKind::Number, "sequence length bound");
      cur_->expect(TokenKind::RParen, "')'");
      return seq_domain(elems, static_cast<std::size_t>(n.number));
    }
    // a..b
    Value lo = parse_constant();
    cur_->expect(TokenKind::DotDot, "'..'");
    Value hi = parse_constant();
    return range_domain(lo.as_int(), hi.as_int());
  }

 private:
  /// One level of parser recursion, held for its lifetime.
  class Nest {
   public:
    explicit Nest(ExprParser& p) : p_(p) {
      if (p_.nesting_ == kMaxExprDepth) p_.too_deep();
      ++p_.nesting_;
    }
    ~Nest() { --p_.nesting_; }
    Nest(const Nest&) = delete;
    Nest& operator=(const Nest&) = delete;

   private:
    ExprParser& p_;
  };

  [[noreturn]] void too_deep() const {
    parse_error(cur_->peek(),
                "expression nested deeper than " + std::to_string(kMaxExprDepth) + " levels");
  }
  /// `e`, unless it is deeper than the cap. Checked wherever a loop or a
  /// recursion can grow a tree, so no over-deep tree is ever built.
  Expr bounded(Expr e) const {
    if (e.depth() > kMaxExprDepth) too_deep();
    return e;
  }

  Value parse_constant() {
    bool negative = cur_->accept(TokenKind::Minus);
    const Token& t = cur_->peek();
    if (t.kind == TokenKind::Number) {
      cur_->advance();
      return Value::integer(negative ? -t.number : t.number);
    }
    if (negative) parse_error(t, "expected a number after '-'");
    if (t.kind == TokenKind::String) {
      cur_->advance();
      return Value::string(t.text);
    }
    if (t.kind == TokenKind::Ident && (t.text == "TRUE" || t.text == "FALSE")) {
      cur_->advance();
      return Value::boolean(t.text == "TRUE");
    }
    parse_error(t, "expected a constant");
  }

  Expr parse_equiv() {
    Expr lhs = parse_implies();
    while (cur_->accept(TokenKind::Equiv)) lhs = bounded(ex::equiv(lhs, parse_implies()));
    return lhs;
  }

  Expr parse_implies() {
    Expr lhs = parse_or();
    if (!cur_->accept(TokenKind::Implies)) return lhs;
    Nest nest(*this);
    return bounded(ex::implies(lhs, parse_implies()));
  }

  Expr parse_or() {
    Expr lhs = parse_and();
    if (!cur_->at(TokenKind::Or)) return lhs;
    std::vector<Expr> kids = {lhs};
    while (cur_->accept(TokenKind::Or)) kids.push_back(parse_and());
    return ex::lor(std::move(kids));
  }

  Expr parse_and() {
    Expr lhs = parse_not();
    if (!cur_->at(TokenKind::And)) return lhs;
    std::vector<Expr> kids = {lhs};
    while (cur_->accept(TokenKind::And)) kids.push_back(parse_not());
    return ex::land(std::move(kids));
  }

  Expr parse_not() {
    if (!cur_->accept(TokenKind::Not)) return parse_comparison();
    Nest nest(*this);
    return bounded(ex::lnot(parse_not()));
  }

  Expr parse_comparison() {
    Expr lhs = parse_additive();
    switch (cur_->peek().kind) {
      case TokenKind::Eq:
        cur_->advance();
        return ex::eq(lhs, parse_additive());
      case TokenKind::Neq:
        cur_->advance();
        return ex::neq(lhs, parse_additive());
      case TokenKind::Lt:
        cur_->advance();
        return ex::lt(lhs, parse_additive());
      case TokenKind::Le:
        cur_->advance();
        return ex::le(lhs, parse_additive());
      case TokenKind::Gt:
        cur_->advance();
        return ex::gt(lhs, parse_additive());
      case TokenKind::Ge:
        cur_->advance();
        return ex::ge(lhs, parse_additive());
      default:
        return lhs;
    }
  }

  Expr parse_additive() {
    Expr lhs = parse_multiplicative();
    while (true) {
      if (cur_->accept(TokenKind::Plus)) {
        lhs = bounded(ex::add(lhs, parse_multiplicative()));
      } else if (cur_->accept(TokenKind::Minus)) {
        lhs = bounded(ex::sub(lhs, parse_multiplicative()));
      } else if (cur_->accept(TokenKind::ConcatOp)) {
        lhs = bounded(ex::concat(lhs, parse_multiplicative()));
      } else {
        return lhs;
      }
    }
  }

  Expr parse_multiplicative() {
    Expr lhs = parse_unary();
    while (true) {
      if (cur_->accept(TokenKind::Star)) {
        lhs = bounded(ex::mul(lhs, parse_unary()));
      } else if (cur_->accept(TokenKind::Percent)) {
        lhs = bounded(ex::mod(lhs, parse_unary()));
      } else {
        return lhs;
      }
    }
  }

  Expr parse_unary() {
    if (!cur_->accept(TokenKind::Minus)) return parse_postfix();
    Nest nest(*this);
    return bounded(ex::neg(parse_unary()));
  }

  Expr parse_postfix() {
    Expr e = parse_atom();
    while (true) {
      if (cur_->accept(TokenKind::Prime)) {
        e = prime(e);
      } else if (cur_->accept(TokenKind::LBracket)) {
        e = bounded(ex::index(e, parse()));
        cur_->expect(TokenKind::RBracket, "']'");
      } else {
        return e;
      }
    }
  }

  Expr parse_call(std::size_t arity_min, std::size_t arity_max, std::vector<Expr>& args) {
    cur_->expect(TokenKind::LParen, "'('");
    if (!cur_->at(TokenKind::RParen)) {
      do {
        args.push_back(parse());
      } while (cur_->accept(TokenKind::Comma));
    }
    cur_->expect(TokenKind::RParen, "')'");
    if (args.size() < arity_min || args.size() > arity_max) {
      parse_error(cur_->peek(), "wrong number of arguments");
    }
    return Expr();
  }

  Expr parse_quantifier(bool exists) {
    const Token& name = cur_->expect(TokenKind::Ident, "bound variable");
    cur_->expect(TokenKind::In, "'\\in'");
    Domain d = parse_domain();
    cur_->expect(TokenKind::Colon, "':'");
    locals_.push_back(name.text);
    Expr body = parse();  // quantifier body extends as far right as possible
    locals_.pop_back();
    return exists ? ex::exists_val(name.text, std::move(d), std::move(body))
                  : ex::forall_val(name.text, std::move(d), std::move(body));
  }

  Expr parse_atom() {
    const Token& t = cur_->peek();
    switch (t.kind) {
      case TokenKind::Number:
        cur_->advance();
        return ex::integer(t.number);
      case TokenKind::String:
        cur_->advance();
        return ex::str(t.text);
      case TokenKind::LParen: {
        cur_->advance();
        Expr e = parse();
        cur_->expect(TokenKind::RParen, "')'");
        return e;
      }
      case TokenKind::LTuple: {
        cur_->advance();
        std::vector<Expr> kids;
        if (!cur_->at(TokenKind::RTuple)) {
          do {
            kids.push_back(parse());
          } while (cur_->accept(TokenKind::Comma));
        }
        cur_->expect(TokenKind::RTuple, "'>>'");
        return ex::make_tuple(std::move(kids));
      }
      case TokenKind::Exists:
        cur_->advance();
        return parse_quantifier(/*exists=*/true);
      case TokenKind::Forall:
        cur_->advance();
        return parse_quantifier(/*exists=*/false);
      case TokenKind::Ident:
        break;  // handled below
      default:
        parse_error(t, "expected an expression");
    }

    const std::string name = t.text;
    cur_->advance();

    if (name == "TRUE") return ex::top();
    if (name == "FALSE") return ex::bottom();
    if (name == "IF") {
      Expr cond = parse();
      const Token& then_tok = cur_->expect(TokenKind::Ident, "'THEN'");
      if (then_tok.text != "THEN") parse_error(then_tok, "expected 'THEN'");
      Expr then_e = parse();
      const Token& else_tok = cur_->expect(TokenKind::Ident, "'ELSE'");
      if (else_tok.text != "ELSE") parse_error(else_tok, "expected 'ELSE'");
      return ex::ite(std::move(cond), std::move(then_e), parse());
    }
    if (name == "Head" || name == "Tail" || name == "Len" || name == "ENABLED") {
      std::vector<Expr> args;
      parse_call(1, 1, args);
      if (name == "Head") return ex::head(args[0]);
      if (name == "Tail") return ex::tail(args[0]);
      if (name == "Len") return ex::len(args[0]);
      return ex::enabled(args[0]);
    }
    if (name == "Append") {
      std::vector<Expr> args;
      parse_call(2, 2, args);
      return ex::append(args[0], args[1]);
    }
    if (name == "UNCHANGED") {
      // UNCHANGED <<v1, ..., vn>> or UNCHANGED v.
      std::vector<VarId> vs;
      if (cur_->accept(TokenKind::LTuple)) {
        do {
          const Token& v = cur_->expect(TokenKind::Ident, "variable");
          vs.push_back(resolve_var(v));
        } while (cur_->accept(TokenKind::Comma));
        cur_->expect(TokenKind::RTuple, "'>>'");
      } else {
        const Token& v = cur_->expect(TokenKind::Ident, "variable");
        vs.push_back(resolve_var(v));
      }
      return ex::unchanged(vs);
    }

    // Bound local?
    if (std::find(locals_.rbegin(), locals_.rend(), name) != locals_.rend()) {
      return ex::local(name);
    }
    // Definition macro?
    if (defs_ != nullptr) {
      auto it = defs_->find(name);
      if (it != defs_->end()) return it->second;
    }
    // Flexible variable.
    std::optional<VarId> id = vars_->find(name);
    if (!id) parse_error(t, "unknown identifier '" + name + "'");
    return ex::var(*id);
  }

  VarId resolve_var(const Token& t) {
    std::optional<VarId> id = vars_->find(t.text);
    if (!id) parse_error(t, "unknown variable '" + t.text + "'");
    return *id;
  }

  Cursor* cur_;
  const VarTable* vars_;
  const std::map<std::string, Expr>* defs_;
  std::vector<std::string> locals_;
  std::size_t nesting_ = 0;
};

std::vector<Token> strip_newlines(std::vector<Token> tokens) {
  tokens.erase(std::remove_if(tokens.begin(), tokens.end(),
                              [](const Token& t) { return t.kind == TokenKind::Newline; }),
               tokens.end());
  return tokens;
}

}  // namespace

Expr parse_expression(const std::string& src, const VarTable& vars,
                      const std::map<std::string, Expr>* definitions) {
  Cursor cur(strip_newlines(tokenize(src)));
  ExprParser parser(cur, vars, definitions);
  Expr e = parser.parse();
  if (!cur.done()) parse_error(cur.peek(), "trailing input");
  return e;
}

namespace {

const std::set<std::string> kStatementKeywords = {
    "MODULE", "VARIABLE", "VARIABLES", "HIDDEN",    "DEFINE",
    "INIT",   "ACTION",   "NEXT",      "SUBSCRIPT", "FAIRNESS", "DISJOINT"};

/// One statement: keyword plus its newline-free token slice.
struct Statement {
  Token keyword;
  std::vector<Token> body;
};

std::vector<Statement> split_statements(const std::vector<Token>& tokens) {
  std::vector<Statement> out;
  bool at_line_start = true;
  for (const Token& t : tokens) {
    if (t.kind == TokenKind::Newline) {
      at_line_start = true;
      continue;
    }
    if (t.kind == TokenKind::End) break;
    if (at_line_start && t.kind == TokenKind::Ident && kStatementKeywords.contains(t.text)) {
      out.push_back({t, {}});
    } else {
      if (out.empty()) parse_error(t, "expected a statement keyword (e.g. MODULE)");
      out.back().body.push_back(t);
    }
    at_line_start = false;
  }
  return out;
}

SourceLoc loc_of(const Token& t) { return SourceLoc{t.line, t.column}; }

/// Expression-tree bytes retained by a finished module, for the parser
/// memory domain. One shared visited set across all trees, so subtrees
/// macro-spliced into several places count exactly once.
std::uint64_t module_tree_bytes(const ParsedModule& mod) {
  std::unordered_set<const ExprNode*> seen;
  std::uint64_t bytes = 0;
  for (const auto& [name, body] : mod.definitions) bytes += expr_deep_bytes(body, seen);
  bytes += expr_deep_bytes(mod.spec.init, seen);
  bytes += expr_deep_bytes(mod.spec.next, seen);
  for (const Fairness& f : mod.spec.fairness) bytes += expr_deep_bytes(f.action, seen);
  return bytes;
}

}  // namespace

ParsedModule parse_module(const std::string& src, std::shared_ptr<VarTable> shared_vars) {
  ParsedModule mod;
  mod.vars = shared_vars ? std::move(shared_vars) : std::make_shared<VarTable>();
  std::vector<Statement> statements = split_statements(tokenize(src));

  Expr next;
  std::vector<VarId> subscript;
  std::vector<std::vector<VarId>> disjoint_tuples;
  bool have_disjoint = false;
  bool have_subscript = false;
  std::vector<std::pair<bool, std::vector<Token>>> fairness_bodies;  // (is_strong, body)
  std::vector<VarId> hidden;

  // Pass 1: declarations (so expressions can refer to any variable).
  for (const Statement& st : statements) {
    const std::string& kw = st.keyword.text;
    if (kw == "MODULE") {
      if (st.body.size() != 1 || st.body[0].kind != TokenKind::Ident) {
        parse_error(st.keyword, "MODULE expects a name");
      }
      mod.name = st.body[0].text;
      mod.locs.module_kw = loc_of(st.keyword);
    } else if (kw == "VARIABLE" || kw == "VARIABLES" || kw == "HIDDEN") {
      Cursor cur(st.body);
      do {
        const Token& name = cur.expect(TokenKind::Ident, "variable name");
        cur.expect(TokenKind::In, "'\\in' and a domain");
        ExprParser dp(cur, *mod.vars, nullptr);
        Domain domain = dp.parse_domain();
        VarId id;
        if (std::optional<VarId> existing = mod.vars->find(name.text)) {
          // Shared universe: re-declarations must agree on the domain.
          if (!(mod.vars->domain(*existing) == domain)) {
            parse_error(name, "variable '" + name.text +
                                  "' re-declared with a different domain");
          }
          id = *existing;
        } else {
          id = mod.vars->declare(name.text, std::move(domain));
        }
        if (std::find(mod.declared.begin(), mod.declared.end(), id) == mod.declared.end()) {
          mod.declared.push_back(id);
        }
        mod.locs.variables.emplace(id, loc_of(name));
        if (kw == "HIDDEN") hidden.push_back(id);
      } while (cur.accept(TokenKind::Comma));
      if (!cur.done()) parse_error(cur.peek(), "trailing input after declaration");
    }
  }

  // Pass 2: definitions and spec parts, in order (macros see earlier ones).
  for (const Statement& st : statements) {
    const std::string& kw = st.keyword.text;
    if (kw == "MODULE" || kw == "VARIABLE" || kw == "VARIABLES" || kw == "HIDDEN") continue;

    Cursor cur(st.body);
    if (kw == "DEFINE" || kw == "ACTION") {
      const Token& name = cur.expect(TokenKind::Ident, "definition name");
      cur.expect(TokenKind::DefEq, "'=='");
      ExprParser parser(cur, *mod.vars, &mod.definitions);
      Expr body = parser.parse();
      if (!cur.done()) parse_error(cur.peek(), "trailing input in definition");
      mod.definitions.emplace(name.text, std::move(body));
      mod.locs.definitions.emplace(name.text, loc_of(name));
      if (kw == "ACTION") mod.action_names.push_back(name.text);
    } else if (kw == "INIT") {
      mod.locs.init = loc_of(st.keyword);
      ExprParser parser(cur, *mod.vars, &mod.definitions);
      mod.spec.init = parser.parse();
      if (!cur.done()) parse_error(cur.peek(), "trailing input after INIT");
    } else if (kw == "NEXT") {
      mod.locs.next = loc_of(st.keyword);
      ExprParser parser(cur, *mod.vars, &mod.definitions);
      next = parser.parse();
      if (!cur.done()) parse_error(cur.peek(), "trailing input after NEXT");
    } else if (kw == "SUBSCRIPT") {
      mod.locs.subscript = loc_of(st.keyword);
      cur.expect(TokenKind::LTuple, "'<<'");
      if (!cur.at(TokenKind::RTuple)) {
        do {
          const Token& v = cur.expect(TokenKind::Ident, "variable");
          std::optional<VarId> id = mod.vars->find(v.text);
          if (!id) parse_error(v, "unknown variable '" + v.text + "'");
          subscript.push_back(*id);
        } while (cur.accept(TokenKind::Comma));
      }
      cur.expect(TokenKind::RTuple, "'>>'");
      have_subscript = true;
    } else if (kw == "DISJOINT") {
      mod.locs.disjoint = loc_of(st.keyword);
      have_disjoint = true;
      do {
        cur.expect(TokenKind::LTuple, "'<<'");
        std::vector<VarId> tuple;
        if (!cur.at(TokenKind::RTuple)) {
          do {
            const Token& v = cur.expect(TokenKind::Ident, "variable");
            std::optional<VarId> id = mod.vars->find(v.text);
            if (!id) parse_error(v, "unknown variable '" + v.text + "'");
            tuple.push_back(*id);
          } while (cur.accept(TokenKind::Comma));
        }
        cur.expect(TokenKind::RTuple, "'>>'");
        disjoint_tuples.push_back(std::move(tuple));
      } while (cur.accept(TokenKind::Comma));
      if (!cur.done()) parse_error(cur.peek(), "trailing input after DISJOINT");
    } else if (kw == "FAIRNESS") {
      const Token& kind = cur.expect(TokenKind::Ident, "'WF' or 'SF'");
      if (kind.text != "WF" && kind.text != "SF") parse_error(kind, "expected 'WF' or 'SF'");
      std::vector<Token> rest;
      while (!cur.done()) rest.push_back(cur.advance());
      fairness_bodies.emplace_back(kind.text == "SF", std::move(rest));
      mod.locs.fairness.push_back(loc_of(st.keyword));
    }
  }

  if (have_disjoint) {
    if (!mod.spec.init.is_null() || !next.is_null() || !fairness_bodies.empty()) {
      throw std::runtime_error("a DISJOINT module cannot also have INIT/NEXT/FAIRNESS");
    }
    mod.spec = make_disjoint(disjoint_tuples, mod.name.empty() ? "Disjoint" : mod.name);
    mod.disjoint_tuples = std::move(disjoint_tuples);
    OPENTLA_OBS_MEM_TALLY_ADD(mod.mem, module_tree_bytes(mod));
    return mod;
  }
  if (mod.spec.init.is_null()) throw std::runtime_error("module has no INIT");
  if (next.is_null()) throw std::runtime_error("module has no NEXT");
  mod.spec.name = mod.name.empty() ? "Spec" : mod.name;
  mod.spec.next = std::move(next);
  mod.spec.hidden = hidden;
  if (!have_subscript) {
    subscript = mod.vars->all_vars();
  } else {
    for (VarId h : hidden) {
      if (std::find(subscript.begin(), subscript.end(), h) == subscript.end()) {
        subscript.push_back(h);
      }
    }
  }
  mod.spec.sub = std::move(subscript);

  for (auto& [is_strong, body] : fairness_bodies) {
    Cursor cur(body);
    Fairness f;
    f.kind = is_strong ? Fairness::Kind::Strong : Fairness::Kind::Weak;
    // Optional <<subscript>> before the action; defaults to the spec's.
    if (cur.at(TokenKind::LTuple)) {
      cur.advance();
      do {
        const Token& v = cur.expect(TokenKind::Ident, "variable");
        std::optional<VarId> id = mod.vars->find(v.text);
        if (!id) parse_error(v, "unknown variable '" + v.text + "'");
        f.sub.push_back(*id);
      } while (cur.accept(TokenKind::Comma));
      cur.expect(TokenKind::RTuple, "'>>'");
    } else {
      f.sub = mod.spec.sub;
    }
    ExprParser parser(cur, *mod.vars, &mod.definitions);
    f.action = parser.parse();
    if (!cur.done()) parse_error(cur.peek(), "trailing input after FAIRNESS");
    f.label = std::string(is_strong ? "SF" : "WF");
    mod.spec.fairness.push_back(std::move(f));
  }

  OPENTLA_OBS_MEM_TALLY_ADD(mod.mem, module_tree_bytes(mod));
  return mod;
}

}  // namespace opentla
