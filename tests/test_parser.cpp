// Unit tests for the mini-TLA lexer and parser (opentla/parser).

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "opentla/expr/eval.hpp"
#include "opentla/parser/lexer.hpp"
#include "opentla/parser/parser.hpp"

namespace opentla {
namespace {

/// `n` copies of `s`.
std::string repeat(std::size_t n, const std::string& s) {
  std::string out;
  for (std::size_t i = 0; i < n; ++i) out += s;
  return out;
}

/// The message a parse of `parse` throws, or "" if it parses.
template <class Parse>
std::string parse_error_of(Parse&& parse) {
  try {
    parse();
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

TEST(Lexer, OperatorsAndLiterals) {
  std::vector<Token> toks = tokenize("x' = 12 /\\ ~(y <= 3) \\/ q \\o <<\"a\">>");
  std::vector<TokenKind> kinds;
  for (const Token& t : toks) kinds.push_back(t.kind);
  EXPECT_EQ(kinds, (std::vector<TokenKind>{
                       TokenKind::Ident, TokenKind::Prime, TokenKind::Eq, TokenKind::Number,
                       TokenKind::And, TokenKind::Not, TokenKind::LParen, TokenKind::Ident,
                       TokenKind::Le, TokenKind::Number, TokenKind::RParen, TokenKind::Or,
                       TokenKind::Ident, TokenKind::ConcatOp, TokenKind::LTuple,
                       TokenKind::String, TokenKind::RTuple, TokenKind::End}));
}

TEST(Lexer, CommentsAndDottedIdents) {
  std::vector<Token> toks = tokenize("i.sig \\* this is a comment\ni.ack");
  ASSERT_GE(toks.size(), 4u);
  EXPECT_EQ(toks[0].text, "i.sig");
  EXPECT_EQ(toks[1].kind, TokenKind::Newline);
  EXPECT_EQ(toks[2].text, "i.ack");
}

TEST(Lexer, RangeVersusDottedName) {
  std::vector<Token> toks = tokenize("0..3");
  EXPECT_EQ(toks[0].kind, TokenKind::Number);
  EXPECT_EQ(toks[1].kind, TokenKind::DotDot);
  EXPECT_EQ(toks[2].kind, TokenKind::Number);
}

TEST(Lexer, ErrorsCarryPosition) {
  try {
    tokenize("x = @");
    FAIL() << "expected lex error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("1:5"), std::string::npos);
  }
}

class ParseExprTest : public ::testing::Test {
 protected:
  ParseExprTest() {
    x = vars.declare("x", range_domain(0, 3));
    y = vars.declare("y", range_domain(0, 3));
    q = vars.declare("q", seq_domain(range_domain(0, 1), 2));
  }

  bool pred(const std::string& src, std::int64_t xv, std::int64_t yv) {
    State s({Value::integer(xv), Value::integer(yv), Value::empty_seq()});
    return eval_pred(parse_expression(src, vars), vars, s);
  }

  VarTable vars;
  VarId x = 0, y = 0, q = 0;
};

TEST_F(ParseExprTest, Precedence) {
  EXPECT_TRUE(pred("x + 1 * 2 = 3", 1, 0));          // * binds tighter than +
  EXPECT_TRUE(pred("x = 1 /\\ y = 2 \\/ y = 0", 1, 0));  // /\ tighter than \/
  EXPECT_TRUE(pred("~x = 1 \\/ x = 1", 1, 0));       // ~ applies to the comparison
  EXPECT_TRUE(pred("x = 0 => y = 9", 1, 2));         // implication is lazy
  EXPECT_TRUE(pred("(x = 1) <=> (y = 0)", 1, 0));
}

TEST_F(ParseExprTest, RightAssociativeImplication) {
  // a => b => c parses as a => (b => c): with a false the whole formula is
  // true, whereas the left-associative reading would demand c.
  EXPECT_TRUE(pred("x = 0 => x = 1 => y = 9", 3, 0));
}

TEST_F(ParseExprTest, SequencesAndCalls) {
  State s({Value::integer(0), Value::integer(0),
           Value::tuple({Value::integer(1), Value::integer(0)})});
  EXPECT_TRUE(eval_pred(parse_expression("Len(q) = 2 /\\ Head(q) = 1", vars), vars, s));
  EXPECT_TRUE(eval_pred(parse_expression("Tail(q) = <<0>>", vars), vars, s));
  EXPECT_TRUE(eval_pred(parse_expression("Append(q, 1) = q \\o <<1>>", vars), vars, s));
  EXPECT_TRUE(eval_pred(parse_expression("q # <<>>", vars), vars, s));
}

TEST_F(ParseExprTest, PrimesAndUnchanged) {
  State s({Value::integer(1), Value::integer(2), Value::empty_seq()});
  State t({Value::integer(2), Value::integer(2), Value::empty_seq()});
  EXPECT_TRUE(eval_action(parse_expression("x' = x + 1 /\\ UNCHANGED <<y, q>>", vars),
                          vars, s, t));
  EXPECT_TRUE(eval_action(parse_expression("(x + y)' = 4", vars), vars, s, t));
}

TEST_F(ParseExprTest, QuantifiersAndConditionals) {
  EXPECT_TRUE(pred("\\E v \\in 0..3 : v = x", 2, 0));
  EXPECT_FALSE(pred("\\A v \\in {0, 2} : v < x", 2, 0));
  EXPECT_TRUE(pred("IF x > y THEN x = 3 ELSE y >= x", 1, 2));
}

TEST_F(ParseExprTest, ModuloAndIndexing) {
  EXPECT_TRUE(pred("(x + y) % 2 = 1", 1, 2));
  State s({Value::integer(0), Value::integer(0),
           Value::tuple({Value::integer(1), Value::integer(0)})});
  EXPECT_TRUE(eval_pred(parse_expression("q[1] = 1 /\\ q[2] = 0", vars), vars, s));
  EXPECT_TRUE(eval_pred(parse_expression("q[Len(q)] = 0", vars), vars, s));
  EXPECT_THROW(eval_pred(parse_expression("q[3] = 0", vars), vars, s), std::runtime_error);
  // Precedence: % binds like *.
  EXPECT_TRUE(pred("1 + x % 2 = 2", 3, 0));
}

TEST_F(ParseExprTest, EnabledKeyword) {
  EXPECT_TRUE(pred("ENABLED(x < 3 /\\ x' = x + 1)", 0, 0));
  EXPECT_FALSE(pred("ENABLED(x < 3 /\\ x' = x + 1)", 3, 0));
}

TEST_F(ParseExprTest, Errors) {
  EXPECT_THROW(parse_expression("x +", vars), std::runtime_error);
  EXPECT_THROW(parse_expression("unknown_var = 1", vars), std::runtime_error);
  EXPECT_THROW(parse_expression("x = 1 x", vars), std::runtime_error);
  EXPECT_THROW(parse_expression("Head(q, q)", vars), std::runtime_error);
}

TEST_F(ParseExprTest, NestingPastTheCapIsAParseError) {
  const std::size_t cap = kMaxExprDepth;
  // Each parenthesis is one level of parser recursion (the outermost
  // expression is the first); each `+ 1` is one tree level.
  const auto parens = [](std::size_t n) { return repeat(n, "(") + "x = 1" + repeat(n, ")"); };
  const auto plus = [](std::size_t n) { return "x" + repeat(n, " + 1"); };
  EXPECT_TRUE(pred(parens(cap - 1), 1, 0));
  const Expr at_cap = parse_expression(plus(cap - 1), vars);
  EXPECT_EQ(at_cap.depth(), cap);
  const State s({Value::integer(1), Value::integer(0), Value::empty_seq()});
  EXPECT_EQ(eval_fn(at_cap, vars, s), Value::integer(static_cast<std::int64_t>(cap)));

  const std::string too_deep = "nested deeper than " + std::to_string(cap) + " levels";
  for (const std::string& src :
       {parens(cap), plus(cap), parens(10000), repeat(10000, "~") + "TRUE",
        repeat(10000, "-") + "x", plus(10000), repeat(10000, "x = 0 => ") + "TRUE",
        repeat(10000, "\\E v \\in 0..1 : ") + "TRUE"}) {
    const std::string err = parse_error_of([&] { parse_expression(src, vars); });
    EXPECT_NE(err.find(too_deep), std::string::npos) << src.substr(0, 40) << ": " << err;
  }
}

TEST(ParseModule, NestingCapCoversSplicedDefinitionsAndDomains) {
  // Each definition splices the previous one a level deeper, so no single
  // statement nests deeply but the spliced tree does.
  std::string chain = "MODULE M\nVARIABLE x \\in 0..1\nDEFINE D0 == x\n";
  for (std::size_t i = 1; i <= kMaxExprDepth; ++i) {
    chain += "DEFINE D" + std::to_string(i) + " == D" + std::to_string(i - 1) + " + 1\n";
  }
  chain += "INIT x = 0\nNEXT x' = x\nSUBSCRIPT <<x>>\n";
  EXPECT_NE(parse_error_of([&] { parse_module(chain); }).find("nested deeper than"),
            std::string::npos);
  const std::string seqs = "MODULE M\nVARIABLE x \\in " + repeat(10000, "Seq(") + "0..1" +
                           repeat(10000, ", 1)") + "\nINIT TRUE\nNEXT TRUE\n";
  EXPECT_NE(parse_error_of([&] { parse_module(seqs); }).find("nested deeper than"),
            std::string::npos);
}

TEST(ParseModule, CounterRoundTrip) {
  const std::string src = R"(
MODULE Counter
VARIABLE x \in 0..3
DEFINE AtMax == x = 3
INIT x = 0
ACTION Incr == x < 3 /\ x' = x + 1
ACTION Reset == AtMax /\ x' = 0
NEXT Incr \/ Reset
SUBSCRIPT <<x>>
FAIRNESS WF Incr \/ Reset
)";
  ParsedModule mod = parse_module(src);
  EXPECT_EQ(mod.name, "Counter");
  EXPECT_EQ(mod.vars->size(), 1u);
  EXPECT_EQ(mod.spec.sub.size(), 1u);
  ASSERT_EQ(mod.spec.fairness.size(), 1u);
  EXPECT_EQ(mod.spec.fairness[0].kind, Fairness::Kind::Weak);

  const VarId x = mod.vars->require("x");
  State s0({Value::integer(0)});
  State s1({Value::integer(1)});
  EXPECT_TRUE(eval_pred(mod.spec.init, *mod.vars, s0));
  EXPECT_FALSE(eval_pred(mod.spec.init, *mod.vars, s1));
  EXPECT_TRUE(eval_action(mod.spec.next, *mod.vars, s0, s1));
  EXPECT_FALSE(eval_action(mod.spec.next, *mod.vars, s1, s0));  // Reset only from 3
  State s3({Value::integer(3)});
  EXPECT_TRUE(eval_action(mod.spec.next, *mod.vars, s3, s0));
  (void)x;
}

TEST(ParseModule, HiddenVariablesAndDomains) {
  const std::string src = R"(
MODULE Q
VARIABLE b \in BOOLEAN
HIDDEN q \in Seq({0, 1}, 2)
INIT q = <<>> /\ b = FALSE
NEXT q' = Append(q, 0) /\ b' = b
SUBSCRIPT <<b>>
)";
  ParsedModule mod = parse_module(src);
  EXPECT_EQ(mod.spec.hidden.size(), 1u);
  // The hidden variable is appended to the subscript automatically.
  EXPECT_EQ(mod.spec.sub.size(), 2u);
  EXPECT_EQ(mod.vars->domain(mod.vars->require("q")).size(), 7u);
  EXPECT_EQ(mod.vars->domain(mod.vars->require("b")).size(), 2u);
}

TEST(ParseModule, MissingPartsAreErrors) {
  EXPECT_THROW(parse_module("MODULE M\nVARIABLE x \\in 0..1\nNEXT x' = x"),
               std::runtime_error);
  EXPECT_THROW(parse_module("MODULE M\nVARIABLE x \\in 0..1\nINIT x = 0"),
               std::runtime_error);
}

TEST(ParseModule, MultiVariableDeclaration) {
  ParsedModule mod = parse_module(R"(
MODULE M
VARIABLES a \in 0..1, b \in 0..2
INIT a = 0 /\ b = 0
NEXT UNCHANGED <<a, b>>
)");
  EXPECT_EQ(mod.vars->size(), 2u);
  EXPECT_EQ(mod.spec.sub.size(), 2u);  // defaults to all variables
}

}  // namespace
}  // namespace opentla
