// opentla/value/domain.hpp
//
// Finite domains. The explicit-state engine requires every flexible
// variable to range over a finite set of values; `Domain` is that set.
// Helpers build the domains used by the paper's examples: bits, bounded
// integer ranges, and bounded sequences (the queue buffer q ranges over
// sequences of length <= N over the value domain).
//
// A domain is described by its shape: an integer range, BOOLEAN,
// Seq(E, n), a tuple (Cartesian product) of component domains, or an
// explicit sorted list. Membership, size and the first value come from
// the shape alone, so checking that an assigned value lies in a variable's
// domain never lists the domain. The sorted list of values is built only
// when something ranges over the domain (values(), operator[]): the
// successor walk's unbound variables, quantifiers, the naive odometer and
// random lassos.

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "opentla/value/value.hpp"

namespace opentla {

/// A finite set of values. Copies share one immutable description and one
/// lazily built value list, so copying is cheap.
class Domain {
 public:
  /// How the set is described. Only Explicit holds its values from the
  /// start; the others build the list on first use.
  enum class Shape : std::uint8_t { Explicit, Range, Bool, Seq, Tuple };

  /// The empty set.
  Domain() = default;
  /// An explicit set of `values`, sorted and deduplicated.
  explicit Domain(std::vector<Value> values);

  Shape shape() const;
  /// Number of values, saturating at SIZE_MAX.
  std::size_t size() const;
  /// Number of values as a floating-point count that does not saturate
  /// (Seq(0..9, 30) has about 1.1e30), for estimates and reports.
  long double approx_size() const;
  bool empty() const { return size() == 0; }
  /// Membership, decided from the shape in time linear in the size of `v`.
  bool contains(const Value& v) const;
  /// The least value, i.e. values()[0], without building the list.
  /// Throws std::runtime_error on the empty domain.
  const Value& first() const;
  /// Bounds of a Range-shaped domain (lo <= hi); unspecified otherwise.
  std::int64_t lo() const;
  std::int64_t hi() const;

  /// All values in ascending order (Value's total order). Built on the
  /// first call, shared with every copy, and safe to call concurrently.
  const std::vector<Value>& values() const;
  const Value& operator[](std::size_t i) const { return values()[i]; }
  /// Index of `v` within values(); throws if absent.
  std::size_t index_of(const Value& v) const;

  /// Set equality, decided from the shapes without listing either side
  /// unless one of them is already an explicit list.
  friend bool operator==(const Domain& a, const Domain& b);

  /// Approximate bytes the description occupies, plus the value list if
  /// it has been built. Feeds the obs memory accounting.
  std::uint64_t deep_bytes() const;

  /// Renders the set by its shape, never listing a structural one:
  /// "0..9", "BOOLEAN", "Seq(0..9, 9)", "0..1 \X BOOLEAN" (a one-component
  /// product: "{<<e>> : e \in D}"); an explicit list as {v1, v2, ...}.
  /// The forms the module parser reads (ranges, BOOLEAN, Seq, lists) parse
  /// back to an equal domain.
  std::string to_string() const;

 private:
  struct Node;
  explicit Domain(std::shared_ptr<const Node> node) : node_(std::move(node)) {}
  const Node& node() const;

  friend Domain bool_domain();
  friend Domain range_domain(std::int64_t lo, std::int64_t hi);
  friend Domain seq_domain(const Domain& elems, std::size_t max_len);
  friend Domain tuple_domain(const std::vector<Domain>& components);

  std::shared_ptr<const Node> node_;  // null: the empty set
};

/// {FALSE, TRUE}.
Domain bool_domain();
/// {0, 1} as integers — the paper's bit-valued signal/ack wires.
Domain bit_domain();
/// {lo, lo+1, ..., hi} as integers (empty if hi < lo).
Domain range_domain(std::int64_t lo, std::int64_t hi);
/// All sequences over `elems` of length <= max_len (includes << >>).
/// Size is sum_{k=0..max_len} |elems|^k.
Domain seq_domain(const Domain& elems, std::size_t max_len);
/// Cartesian product of component domains, as tuple values.
Domain tuple_domain(const std::vector<Domain>& components);

}  // namespace opentla
