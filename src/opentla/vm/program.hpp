// opentla/vm/program.hpp
//
// Flat register-based bytecode for expression evaluation (ROADMAP item 1).
// A `Program` is the lowered form of one `Expr`: a flat instruction array
// over a register file, with interned-value immediates (the deduplicated
// constant pool), slot-indexed bound-variable access (no name lookups at
// eval time), and superinstructions for the fig-spec idioms — UNCHANGED
// frames, tuple compare, fused variable/constant comparisons, and bounded
// \E / \A loops that short-circuit exactly like the tree evaluator.
//
// The VM exists for speed only: `vm::run` on a compiled program and
// `eval` on the source tree must be observationally identical — same
// values, same verdicts, and the same `std::runtime_error` text on every
// failing input. The pinned left-to-right evaluation-order contract both
// evaluators follow is documented at the top of opentla/expr/eval.cpp;
// tests/test_differential.cpp's VM axis enforces it.

#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "opentla/expr/expr.hpp"
#include "opentla/state/var_table.hpp"
#include "opentla/value/domain.hpp"
#include "opentla/value/value.hpp"

namespace opentla::vm {

enum class Op : std::uint8_t {
  // --- Leaves ---
  LoadConst,     // r[dst] = consts[imm]
  LoadVar,       // r[dst] = current[a]; kPrimed flag reads next[a] instead
  LoadLocal,     // r[dst] = locals[a] (slot-indexed, bound by Exists/Forall)
  UnboundLocal,  // throw "eval: unbound local '<names[imm]>'" — a Local with
                 // no enclosing binder errors only if reached, like the tree
  NullExpr,      // throw "eval: null expression" — a null kid errors only
                 // if reached, like the tree
  // --- Control flow (targets are absolute instruction indices in imm) ---
  Jump,          // pc = imm
  JumpIfFalse,   // bool-check r[a]; if false, pc = imm
  JumpIfTrue,    // bool-check r[a]; if true, pc = imm
  // --- Boolean ---
  Not,           // r[dst] = !bool(r[a])
  TestBool,      // bool-check r[a]; r[dst] = r[a]
  Equiv,         // r[dst] = bool(r[a]) == bool(r[b]), a checked first
  // --- Comparison / arithmetic (a evaluated before b, like the tree) ---
  Eq,            // r[dst] = (r[a] == r[b]); kNegate gives /=
  Lt,            // r[dst] = int(r[a]) < int(r[b])
  Le, Gt, Ge,
  Add,           // r[dst] = r[a] + r[b], checked ("eval: integer overflow in +")
  Sub, Mul,
  Mod,           // TLC floored modulo; b <= 0 throws "eval: mod requires b > 0"
  Neg,           // r[dst] = -int(r[a]), checked
  // --- Conditional is compiled to jumps; no opcode ---
  // --- Tuples / sequences ---
  MakeTuple,     // r[dst] = << r[a], ..., r[a+b-1] >>
  Head, Tail, Len,
  Concat,        // r[dst] = r[a] \o r[b]
  Append,
  Index,         // r[dst] = r[a][int(r[b])], 1-based
  // --- Superinstructions ---
  // UNCHANGED <<v...>>: r[dst] = /\ next[v] = current[v] over varlists[imm].
  // Requires a next state (first primed read errors like the tree's).
  Unchanged,
  // Tuple compare without materializing tuples: both element lists are
  // already in registers r[a..a+imm) (lhs) and r[b..b+imm) (rhs);
  // r[dst] = pairwise equality. kNegate gives /=.
  TupleEq,
  // Fused comparisons — the constraint shapes (x' = e, d' < c') that
  // dominate the successor walk's checks. flags carry the comparison kind
  // (kCmpMask) plus kPrimedA/kPrimedB; `a` (and `b` for CmpVarVar) are
  // VarIds, CmpVarConst compares against consts[imm]. Order/type errors
  // are identical to LoadVar + LoadConst + compare.
  CmpVarVar,
  CmpVarConst,
  // Len(v) without copying the sequence into a register: r[dst] =
  // Len(current[a]) (kPrimedA reads next[a]). The tree walker pays a full
  // sequence copy here; error order (state-lookup, then kind check) is
  // identical to LoadVar + Len.
  LenVar,
  // State-lookup check with no copy and no register write: reads
  // current[a] (kPrimedA: next[a]) and discards it. Emitted before an
  // EqVarReg whose variable is the *left* operand, so the variable's
  // state-lookup error still fires before the right-hand side evaluates
  // — the tree's order.
  VarCheck,
  // r[dst] = (var a == r[b]), compared against the state's value in
  // place — the `x' = <rhs>` residual shape with a sequence-valued rhs
  // never copies the variable through a register. kNegate gives /=,
  // kPrimedA reads next[a]. Value equality never converts, so operand
  // order carries no error-order obligation beyond VarCheck above.
  EqVarReg,
  // --- Bounded quantifiers (structured: the body is the instruction range
  // (pc, pc + imm_lo], result lands in r[b]) ---
  // r[dst] = \E/\A locals[a] \in domains[imm_hi] : body. Short-circuits in
  // domain order exactly like the tree evaluator.
  Exists,
  Forall,
  // ENABLED A: delegates to the tree-side decomposition-driven search
  // (enabled_with_locals) with the compile-time scope rebuilt from local
  // slots — verdict-identical to the tree by construction.
  Enabled,       // r[dst] = ENABLED enabled_sites[imm].action
};

const char* to_string(Op op);

// Instr.flags bits.
inline constexpr std::uint8_t kCmpMask = 0x07;  // CmpKind for CmpVar*
inline constexpr std::uint8_t kPrimedA = 0x08;  // operand a reads next state
inline constexpr std::uint8_t kPrimedB = 0x10;  // operand b reads next state
inline constexpr std::uint8_t kNegate = 0x20;   // Eq/TupleEq: invert result
inline constexpr std::uint8_t kSwapped = 0x40;  // CmpVarConst: const is lhs

/// Comparison kind carried in the low flag bits of CmpVarVar/CmpVarConst.
enum class CmpKind : std::uint8_t { Eq = 0, Neq = 1, Lt = 2, Le = 3, Gt = 4, Ge = 5 };

/// One fixed-width instruction: op + flags + three register/id operands +
/// a 32-bit immediate (pool index, jump target, or packed pair).
struct Instr {
  Op op;
  std::uint8_t flags = 0;
  std::uint16_t dst = 0;
  std::uint16_t a = 0;
  std::uint16_t b = 0;
  std::uint32_t imm = 0;

  // Exists/Forall pack (body length, domain index) into imm.
  std::uint32_t imm_lo() const { return imm & 0xffff; }
  std::uint32_t imm_hi() const { return imm >> 16; }

  friend bool operator==(const Instr& x, const Instr& y) = default;
};

/// One ENABLED occurrence: the action subtree (evaluated by the tree-side
/// search) plus the bound-variable scope visible at that program point,
/// outermost first, as (name, local slot) pairs.
struct EnabledSite {
  Expr action;
  std::vector<std::pair<std::string, std::uint16_t>> scope;
};

/// A compiled expression. The result of executing `instrs` lands in
/// register 0. All pools are deduplicated where cheap (consts, names), so
/// compiling the same tree twice yields structurally identical programs —
/// tests/test_vm.cpp pins this (determinism) and the disassembly text.
struct Program {
  std::vector<Instr> instrs;
  std::vector<Value> consts;                // interned: one slot per distinct value
  std::vector<Domain> domains;              // quantifier domains
  std::vector<std::vector<VarId>> var_lists;  // Unchanged frames
  std::vector<std::string> names;           // UnboundLocal diagnostic names
  std::vector<EnabledSite> enabled_sites;
  std::uint16_t num_regs = 0;
  std::uint16_t num_locals = 0;
};

/// Approximate bytes retained by a program's pools — instruction array,
/// constant pool (deep), quantifier domains, UNCHANGED var lists, name
/// pool, and ENABLED sites. Feeds the vm_pools memory domain.
std::uint64_t program_bytes(const Program& p);

/// Stable, line-per-instruction rendering used by the golden tests:
/// "0003 CmpVarVar r2 <- v1' < v0" style. Registers print as rN, flexible
/// variables as vK (primed with '), locals as lS, pools by index.
std::string disassemble(const Program& p);

}  // namespace opentla::vm
