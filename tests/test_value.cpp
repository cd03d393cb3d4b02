// Unit tests for the TLA value universe (opentla/value).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <thread>
#include <unordered_set>
#include <utility>

#include "opentla/analysis/interval.hpp"
#include "opentla/state/state_space.hpp"
#include "opentla/state/var_table.hpp"
#include "opentla/value/domain.hpp"
#include "opentla/value/value.hpp"

namespace opentla {
namespace {

TEST(Value, DefaultIsFalse) {
  Value v;
  EXPECT_TRUE(v.is_bool());
  EXPECT_FALSE(v.as_bool());
}

TEST(Value, KindsAndAccessors) {
  EXPECT_TRUE(Value::boolean(true).as_bool());
  EXPECT_EQ(Value::integer(-7).as_int(), -7);
  EXPECT_EQ(Value::string("hi").as_string(), "hi");
  EXPECT_EQ(Value::tuple({Value::integer(1)}).as_tuple().size(), 1u);
}

TEST(Value, AccessorThrowsOnKindMismatch) {
  EXPECT_THROW(Value::integer(1).as_bool(), std::runtime_error);
  EXPECT_THROW(Value::boolean(true).as_int(), std::runtime_error);
  EXPECT_THROW(Value::integer(1).as_tuple(), std::runtime_error);
  EXPECT_THROW(Value::tuple({}).as_string(), std::runtime_error);
}

TEST(Value, EqualityIsStructural) {
  EXPECT_EQ(Value::tuple({Value::integer(1), Value::integer(2)}),
            Value::tuple({Value::integer(1), Value::integer(2)}));
  EXPECT_FALSE(Value::tuple({Value::integer(1)}) == Value::tuple({Value::integer(2)}));
  EXPECT_FALSE(Value::integer(0) == Value::boolean(false));
}

TEST(Value, TotalOrderAcrossKinds) {
  // Bool < Int < String < Tuple by kind index.
  EXPECT_LT(Value::boolean(true), Value::integer(0));
  EXPECT_LT(Value::integer(100), Value::string(""));
  EXPECT_LT(Value::string("zzz"), Value::tuple({}));
}

TEST(Value, TupleOrderIsLexicographic) {
  EXPECT_LT(Value::tuple({}), Value::tuple({Value::integer(0)}));
  EXPECT_LT(Value::tuple({Value::integer(0)}),
            Value::tuple({Value::integer(0), Value::integer(0)}));
  EXPECT_LT(Value::tuple({Value::integer(0), Value::integer(5)}),
            Value::tuple({Value::integer(1)}));
}

TEST(Value, HashAgreesWithEquality) {
  Value a = Value::tuple({Value::integer(3), Value::string("x")});
  Value b = Value::tuple({Value::integer(3), Value::string("x")});
  EXPECT_EQ(a.hash(), b.hash());
  std::unordered_set<Value, ValueHash> set;
  set.insert(a);
  set.insert(b);
  EXPECT_EQ(set.size(), 1u);
}

TEST(Value, HashIsPlatformStableGolden) {
  // Value::hash is an in-house FNV-1a over fixed little-endian bytes, so
  // these values hold on every platform and standard library (the old
  // std::hash<std::string> String case varied per implementation). The
  // 64-bit state fingerprints feed persisted formats; a golden mismatch
  // here means the hash recipe changed and must be bumped deliberately.
  EXPECT_EQ(Value::boolean(false).hash(), 0xa31e272015f12c43ULL);
  EXPECT_EQ(Value::boolean(true).hash(), 0x842360170b01e222ULL);
  EXPECT_EQ(Value::integer(42).hash(), 0xed599cafa26114e8ULL);
  EXPECT_EQ(Value::integer(-1).hash(), 0x20434c8ee71f287aULL);
  EXPECT_EQ(Value::string("").hash(), 0x0521fb8fefc6fbc1ULL);
  EXPECT_EQ(Value::string("abc").hash(), 0x346d367f17090306ULL);
  EXPECT_EQ(Value::tuple({}).hash(), 0xb623e5c7dcb1e380ULL);
  EXPECT_EQ(Value::tuple({Value::integer(1), Value::string("x")}).hash(),
            0x306b47be84abf747ULL);
}

TEST(Value, NestedEmptyTuplesHashDistinctly) {
  // Regression for the weak-mixing bug: the old hash mixed tuple elements
  // before the length, so an empty tuple contributed only a trailing zero
  // and deep nests <<>>, <<<<>>>>, ... hashed nearly identically. Length-
  // first mixing gives every nesting depth a distinct running hash.
  const Value e0 = Value::tuple({});
  const Value e1 = Value::tuple({e0});
  const Value e2 = Value::tuple({e1});
  EXPECT_NE(e0.hash(), e1.hash());
  EXPECT_NE(e1.hash(), e2.hash());
  EXPECT_NE(e0.hash(), e2.hash());
  EXPECT_EQ(e1.hash(), 0xcc8957142d4ed700ULL);
  EXPECT_EQ(e2.hash(), 0x906fa8fb5b896e5dULL);
  // Nesting is not associative for the hash either: <<<<>>, <<>>>> and
  // <<<<<<>>>>>> have the same leaf count but must hash apart.
  EXPECT_NE(Value::tuple({e0, e0}).hash(), Value::tuple({e1}).hash());
}

TEST(Value, Printing) {
  EXPECT_EQ(Value::boolean(true).to_string(), "TRUE");
  EXPECT_EQ(Value::integer(-3).to_string(), "-3");
  EXPECT_EQ(Value::string("q").to_string(), "\"q\"");
  EXPECT_EQ(Value::tuple({Value::integer(1), Value::integer(2)}).to_string(), "<<1, 2>>");
  EXPECT_EQ(Value::empty_seq().to_string(), "<<>>");
}

TEST(Value, SequenceOperations) {
  Value s = Value::tuple({Value::integer(1), Value::integer(2), Value::integer(3)});
  EXPECT_EQ(seq_head(s), Value::integer(1));
  EXPECT_EQ(seq_tail(s), Value::tuple({Value::integer(2), Value::integer(3)}));
  EXPECT_EQ(seq_append(Value::empty_seq(), Value::integer(9)),
            Value::tuple({Value::integer(9)}));
  EXPECT_EQ(seq_concat(seq_tail(s), Value::tuple({Value::integer(1)})),
            Value::tuple({Value::integer(2), Value::integer(3), Value::integer(1)}));
  EXPECT_THROW(seq_head(Value::empty_seq()), std::runtime_error);
  EXPECT_THROW(seq_tail(Value::empty_seq()), std::runtime_error);
}

TEST(Domain, SortedAndDeduplicated) {
  Domain d({Value::integer(3), Value::integer(1), Value::integer(3)});
  ASSERT_EQ(d.size(), 2u);
  EXPECT_EQ(d[0], Value::integer(1));
  EXPECT_EQ(d[1], Value::integer(3));
  EXPECT_TRUE(d.contains(Value::integer(3)));
  EXPECT_FALSE(d.contains(Value::integer(2)));
  EXPECT_EQ(d.index_of(Value::integer(3)), 1u);
  EXPECT_THROW(d.index_of(Value::integer(7)), std::runtime_error);
}

TEST(Domain, Builders) {
  EXPECT_EQ(bool_domain().size(), 2u);
  EXPECT_EQ(bit_domain().size(), 2u);
  EXPECT_EQ(range_domain(2, 5).size(), 4u);
  EXPECT_TRUE(range_domain(5, 2).empty());
}

TEST(Domain, SeqDomainCountsAllLengths) {
  // 1 + 2 + 4 + 8 sequences over two values up to length 3.
  Domain d = seq_domain(range_domain(0, 1), 3);
  EXPECT_EQ(d.size(), 15u);
  EXPECT_TRUE(d.contains(Value::empty_seq()));
  EXPECT_TRUE(d.contains(Value::tuple({Value::integer(1), Value::integer(0)})));
  EXPECT_FALSE(d.contains(Value::tuple(
      {Value::integer(0), Value::integer(0), Value::integer(0), Value::integer(0)})));
  // The same values in the same (sorted) order as a domain built from the
  // sequences listed out of order.
  std::vector<Value> listed;
  for (std::size_t i = d.size(); i-- > 0;) listed.push_back(d[i]);
  EXPECT_EQ(d, Domain(std::move(listed)));
  EXPECT_TRUE(std::is_sorted(d.values().begin(), d.values().end()));
}

TEST(Domain, TupleDomainIsCartesianProduct) {
  Domain d = tuple_domain({range_domain(0, 1), range_domain(0, 2)});
  EXPECT_EQ(d.size(), 6u);
  EXPECT_TRUE(d.contains(Value::tuple({Value::integer(1), Value::integer(2)})));
}

// --- DomainShape: structural domains against the enumerated oracle ---
//
// The oracle lists every member independently of the shape code (all
// sequences by length, all tuples by nested loops) and keeps them as an
// explicit Domain: sorted, deduplicated, and answering membership by
// binary search. Every structural shape must agree with it on contains,
// size, first value, value order and set equality.

Value I(std::int64_t i) { return Value::integer(i); }
Value B(bool b) { return Value::boolean(b); }
Value T(Value::Tuple t) { return Value::tuple(std::move(t)); }

/// All sequences over `elems` of length <= max_len, listed by length.
std::vector<Value> oracle_seqs(const std::vector<Value>& elems, std::size_t max_len) {
  std::vector<Value> all = {Value::empty_seq()};
  std::vector<Value> level = {Value::empty_seq()};
  for (std::size_t k = 1; k <= max_len; ++k) {
    std::vector<Value> next;
    for (const Value& s : level) {
      for (const Value& e : elems) next.push_back(seq_append(s, e));
    }
    all.insert(all.end(), next.begin(), next.end());
    level = std::move(next);
  }
  return all;
}

/// All tuples whose i-th component ranges over comps[i].
std::vector<Value> oracle_tuples(const std::vector<std::vector<Value>>& comps) {
  std::vector<Value> all = {Value::empty_seq()};
  for (const std::vector<Value>& c : comps) {
    std::vector<Value> next;
    for (const Value& partial : all) {
      for (const Value& e : c) next.push_back(seq_append(partial, e));
    }
    all = std::move(next);
  }
  return all;
}

std::vector<Value> ints(std::int64_t lo, std::int64_t hi) {
  std::vector<Value> out;
  for (std::int64_t i = lo; i <= hi; ++i) out.push_back(I(i));
  return out;
}

struct ShapeCase {
  std::string name;
  Domain shape;
  Domain oracle;  // explicit list of the same set
};

std::vector<ShapeCase> shape_cases() {
  const std::vector<Value> mixed = {B(true), I(2), Value::string("a"), T({I(1)}),
                                    Value::empty_seq()};
  const std::vector<Value> bools = {B(false), B(true)};
  std::vector<ShapeCase> cs;
  const auto add = [&](std::string name, Domain shape, std::vector<Value> listed) {
    cs.push_back({std::move(name), std::move(shape), Domain(std::move(listed))});
  };
  add("empty range", range_domain(3, 2), {});
  add("negative range", range_domain(-3, -1), ints(-3, -1));
  add("single point", range_domain(5, 5), {I(5)});
  add("bits", range_domain(0, 1), ints(0, 1));
  add("explicit bits", Domain(ints(0, 1)), ints(0, 1));
  add("explicit point", Domain({I(5)}), {I(5)});
  add("BOOLEAN", bool_domain(), bools);
  add("explicit BOOLEAN", Domain(bools), bools);
  add("mixed explicit", Domain(mixed), mixed);
  add("Seq(0..2, 3)", seq_domain(range_domain(0, 2), 3), oracle_seqs(ints(0, 2), 3));
  add("Seq(-1..0, 2)", seq_domain(range_domain(-1, 0), 2), oracle_seqs(ints(-1, 0), 2));
  add("Seq(5..5, 3)", seq_domain(range_domain(5, 5), 3), oracle_seqs({I(5)}, 3));
  add("Seq(BOOLEAN, 2)", seq_domain(bool_domain(), 2), oracle_seqs(bools, 2));
  add("Seq(mixed, 2)", seq_domain(Domain(mixed), 2), oracle_seqs(mixed, 2));
  add("Seq(0..1, 0)", seq_domain(range_domain(0, 1), 0), {Value::empty_seq()});
  add("Seq({}, 3)", seq_domain(Domain(), 3), {Value::empty_seq()});
  add("Seq(Seq(0..1, 1), 2)", seq_domain(seq_domain(range_domain(0, 1), 1), 2),
      oracle_seqs(oracle_seqs(ints(0, 1), 1), 2));
  add("tuple 0..1 x BOOLEAN x Seq(0..1, 1)",
      tuple_domain({range_domain(0, 1), bool_domain(), seq_domain(range_domain(0, 1), 1)}),
      oracle_tuples({ints(0, 1), bools, oracle_seqs(ints(0, 1), 1)}));
  add("tuple 0..2 x 0..1", tuple_domain({range_domain(0, 2), range_domain(0, 1)}),
      oracle_tuples({ints(0, 2), ints(0, 1)}));
  add("tuple of nothing", tuple_domain({}), {Value::empty_seq()});
  add("tuple with an empty factor", tuple_domain({range_domain(0, 1), range_domain(1, 0)}), {});
  add("Seq of tuples", seq_domain(tuple_domain({range_domain(0, 1), bool_domain()}), 2),
      oracle_seqs(oracle_tuples({ints(0, 1), bools}), 2));
  return cs;
}

/// Every member of every case, plus non-members of each kind: wrong kind,
/// too long, an element out of range, nested one level too deep.
std::vector<Value> probes(const std::vector<ShapeCase>& cs) {
  std::vector<Value> out = {
      B(false), B(true), I(-4), I(0), I(6), I(std::numeric_limits<std::int64_t>::min()),
      I(std::numeric_limits<std::int64_t>::max()), Value::string("a"), Value::string("b"),
      Value::empty_seq(), T({I(3)}), T({I(-2)}), T({I(0), I(0), I(0), I(0)}),
      T({T({I(0)})}), T({T({T({I(0)})})}), T({T({I(0), I(1)})}), T({I(0), B(true), I(0)}),
      T({I(0), B(true), T({I(2)})}), T({B(false), I(0)}), T({Value::string("a")}),
      T({I(0), I(1), I(2)}), T({I(0), I(1), I(2), I(0)})};
  for (const ShapeCase& c : cs) {
    for (const Value& v : c.oracle.values()) out.push_back(v);
  }
  return out;
}

TEST(DomainShape, ContainsSizeAndFirstMatchTheOracle) {
  const std::vector<ShapeCase> cs = shape_cases();
  const std::vector<Value> pool = probes(cs);
  for (const ShapeCase& c : cs) {
    SCOPED_TRACE(c.name);
    EXPECT_EQ(c.shape.size(), c.oracle.size());
    EXPECT_EQ(c.shape.approx_size(), static_cast<long double>(c.oracle.size()));
    EXPECT_EQ(c.shape.empty(), c.oracle.empty());
    if (c.oracle.empty()) {
      EXPECT_THROW(c.shape.first(), std::runtime_error);
    } else {
      EXPECT_EQ(c.shape.first(), c.oracle[0]);
    }
    for (const Value& v : pool) {
      EXPECT_EQ(c.shape.contains(v), c.oracle.contains(v)) << v;
    }
  }
}

TEST(DomainShape, ValuesKeepTheSortedOrder) {
  for (const ShapeCase& c : shape_cases()) {
    SCOPED_TRACE(c.name);
    EXPECT_EQ(c.shape.values(), c.oracle.values());
    // The list is built once and then kept.
    EXPECT_EQ(&c.shape.values(), &c.shape.values());
    for (std::size_t i = 0; i < c.oracle.size(); ++i) EXPECT_EQ(c.shape[i], c.oracle[i]);
  }
}

TEST(DomainShape, EqualityIsSetEquality) {
  const std::vector<ShapeCase> cs = shape_cases();
  for (const ShapeCase& a : cs) {
    for (const ShapeCase& b : cs) {
      const bool same_set = a.oracle.values() == b.oracle.values();
      EXPECT_EQ(a.shape == b.shape, same_set) << a.name << " vs " << b.name;
      EXPECT_EQ(a.shape == b.oracle, same_set) << a.name << " vs listed " << b.name;
    }
  }
  // Shapes that differ only deep inside.
  EXPECT_FALSE(seq_domain(range_domain(0, 2), 2) == seq_domain(range_domain(0, 2), 3));
  EXPECT_FALSE(seq_domain(range_domain(0, 2), 2) == seq_domain(range_domain(1, 3), 2));
  EXPECT_TRUE(seq_domain(range_domain(0, 1), 2) == seq_domain(Domain(ints(0, 1)), 2));
  // Saturated sizes agree, so the shapes alone must tell these apart.
  EXPECT_FALSE(seq_domain(range_domain(0, 9), 30) == seq_domain(range_domain(0, 9), 31));
  EXPECT_TRUE(seq_domain(range_domain(0, 9), 30) == seq_domain(range_domain(0, 9), 30));
  EXPECT_FALSE(tuple_domain({range_domain(0, 1), range_domain(0, 2)}) ==
               tuple_domain({range_domain(0, 2), range_domain(0, 1)}));
}

TEST(DomainShape, StructuralQueriesLeaveTheListUnbuilt) {
  // 1111111111 sequences: listing them would take tens of gigabytes.
  const Domain d = seq_domain(range_domain(0, 9), 9);
  const Domain y = range_domain(0, 1'000'000'000);
  EXPECT_EQ(d.size(), 1'111'111'111u);
  EXPECT_EQ(y.size(), 1'000'000'001u);
  EXPECT_EQ(d.first(), Value::empty_seq());
  EXPECT_TRUE(d.contains(T({I(9), I(0), I(9), I(0), I(9), I(0), I(9), I(0), I(9)})));
  EXPECT_FALSE(d.contains(T({I(9), I(0), I(9), I(0), I(9), I(0), I(9), I(0), I(9), I(0)})));
  EXPECT_TRUE(y.contains(I(1'000'000'000)));
  EXPECT_TRUE(d == seq_domain(range_domain(0, 9), 9));
  EXPECT_FALSE(d == seq_domain(range_domain(0, 9), 8));
  // The state-space and analysis consumers read the shapes too.
  VarTable vars;
  vars.declare("q", d);
  vars.declare("y", y);
  const StateSpace space(vars);
  EXPECT_EQ(space.total_states(), 1'111'111'111ull * 1'000'000'001ull);
  EXPECT_EQ(space.first_state(), State({Value::empty_seq(), I(0)}));
  EXPECT_EQ(analysis::abstract_domain(y), analysis::AbsVal::integer({0, 1'000'000'000}));
  EXPECT_EQ(analysis::abstract_domain(d), analysis::AbsVal::any());
  // Still unlisted: only the descriptions are counted, well under a
  // kilobyte each.
  EXPECT_LT(d.deep_bytes(), 1024u);
  EXPECT_LT(y.deep_bytes(), 1024u);
}

TEST(DomainShape, ToStringPrintsTheShape) {
  EXPECT_EQ(range_domain(0, 9).to_string(), "0..9");
  EXPECT_EQ(range_domain(-2, 2).to_string(), "-2..2");
  EXPECT_EQ(bool_domain().to_string(), "BOOLEAN");
  // About 1.1e30 sequences: printing must not list them.
  EXPECT_EQ(seq_domain(range_domain(0, 9), 30).to_string(), "Seq(0..9, 30)");
  EXPECT_EQ(seq_domain(bool_domain(), 2).to_string(), "Seq(BOOLEAN, 2)");
  EXPECT_EQ(tuple_domain({range_domain(0, 1), bool_domain(), seq_domain(range_domain(0, 1), 1)})
                .to_string(),
            "0..1 \\X BOOLEAN \\X Seq(0..1, 1)");
  EXPECT_EQ(tuple_domain({tuple_domain({range_domain(0, 1), bool_domain()}), range_domain(2, 3)})
                .to_string(),
            "(0..1 \\X BOOLEAN) \\X 2..3");
  EXPECT_EQ(tuple_domain({range_domain(0, 1)}).to_string(), "{<<e>> : e \\in 0..1}");
  EXPECT_EQ(Domain({I(3), I(1)}).to_string(), "{1, 3}");
  EXPECT_EQ(Domain().to_string(), "{}");
  EXPECT_EQ(range_domain(1, 0).to_string(), "{}");
}

TEST(DomainShape, SizeSaturates) {
  // sum_{k=0..30} 10^k is about 1.1e30, far past SIZE_MAX.
  const Domain d = seq_domain(range_domain(0, 9), 30);
  EXPECT_EQ(d.size(), std::numeric_limits<std::size_t>::max());
  EXPECT_NEAR(static_cast<double>(d.approx_size() / 1.111111111111e30L), 1.0, 1e-9);
  EXPECT_EQ(tuple_domain({d, bool_domain()}).size(), std::numeric_limits<std::size_t>::max());
  const Domain all = range_domain(std::numeric_limits<std::int64_t>::min(),
                                  std::numeric_limits<std::int64_t>::max());
  EXPECT_EQ(all.size(), std::numeric_limits<std::size_t>::max());
  EXPECT_TRUE(all.contains(I(std::numeric_limits<std::int64_t>::min())));
  // A length bound in the billions over one element does not loop.
  EXPECT_EQ(seq_domain(range_domain(7, 7), 4'000'000'000u).size(), 4'000'000'001u);
}

TEST(DomainShape, FailedListingCanBeRetried) {
  // 2^61 values cannot be listed; the error reaches every caller, and a
  // failed build leaves the domain usable instead of stuck.
  const Domain huge = range_domain(0, std::int64_t{1} << 61);
  EXPECT_THROW(huge.values(), std::length_error);
  EXPECT_THROW(huge.values(), std::length_error);
  EXPECT_TRUE(huge.contains(I(std::int64_t{1} << 61)));
}

TEST(DomainShape, ConcurrentFirstValuesBuildOnce) {
  // Parallel exploration shares one VarTable across workers, so the first
  // values() may race. Four threads on one unbuilt domain, then four
  // threads on four copies of another, must each see the one shared list,
  // in the oracle's order.
  const Domain oracle(oracle_seqs(ints(0, 3), 5));
  const Domain one = seq_domain(range_domain(0, 3), 5);
  const std::vector<Domain> copies(4, seq_domain(range_domain(0, 3), 5));
  for (const bool on_copies : {false, true}) {
    SCOPED_TRACE(on_copies ? "copies" : "one domain");
    std::vector<const std::vector<Value>*> seen(4, nullptr);
    std::vector<std::thread> threads;
    for (std::size_t i = 0; i < 4; ++i) {
      threads.emplace_back([&, i] { seen[i] = &(on_copies ? copies[i] : one).values(); });
    }
    for (std::thread& t : threads) t.join();
    for (const std::vector<Value>* list : seen) EXPECT_EQ(list, seen[0]);
    EXPECT_EQ(*seen[0], oracle.values());
  }
}

}  // namespace
}  // namespace opentla
