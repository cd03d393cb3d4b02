#include "opentla/value/domain.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <mutex>
#include <sstream>
#include <stdexcept>

namespace opentla {

namespace {

constexpr std::size_t kSat = std::numeric_limits<std::size_t>::max();

std::size_t sat_add(std::size_t a, std::size_t b) { return a > kSat - b ? kSat : a + b; }

std::size_t sat_mul(std::size_t a, std::size_t b) {
  if (a == 0 || b == 0) return 0;
  return a > kSat / b ? kSat : a * b;
}

}  // namespace

struct Domain::Node {
  explicit Node(Shape s) : shape(s), built(s == Shape::Explicit) {}

  Shape shape;
  std::int64_t lo = 0, hi = -1;  // Range
  std::size_t max_len = 0;       // Seq
  std::vector<Domain> parts;     // Seq: {elements}; Tuple: the components
  std::size_t size = 0;          // saturated
  long double approx = 0;
  Value first;
  // The value list: set at construction for Explicit, built once on
  // demand for every other shape. Readers that see `built` skip the
  // lock. A build that throws leaves `built` false, so the next caller
  // retries (std::call_once gives no such guarantee everywhere: under
  // ThreadSanitizer a throwing call_once leaves later callers waiting).
  mutable std::mutex build_mutex;
  mutable std::atomic<bool> built;
  mutable std::vector<Value> values;

  void build() const;
};

void Domain::Node::build() const {
  std::vector<Value> out;
  switch (shape) {
    case Shape::Explicit:
      return;
    case Shape::Range:
      out.reserve(size);
      for (std::int64_t i = lo;; ++i) {
        out.push_back(Value::integer(i));
        if (i == hi) break;
      }
      break;
    case Shape::Bool:
      out = {Value::boolean(false), Value::boolean(true)};
      break;
    case Shape::Seq: {
      // Depth first, elements in domain order: every sequence comes right
      // after its prefix and before the next element's subtree, which is
      // exactly the sorted order.
      const std::vector<Value>& elems = parts[0].values();
      out.reserve(size);
      Value::Tuple prefix;
      const auto extend = [&](const auto& self) -> void {
        out.push_back(Value::tuple(prefix));
        if (prefix.size() == max_len) return;
        for (const Value& e : elems) {
          prefix.push_back(e);
          self(self);
          prefix.pop_back();
        }
      };
      extend(extend);
      break;
    }
    case Shape::Tuple: {
      // Odometer, last component fastest: lexicographic, hence sorted.
      std::vector<const std::vector<Value>*> comps;
      for (const Domain& c : parts) comps.push_back(&c.values());
      std::vector<std::size_t> idx(comps.size(), 0);
      Value::Tuple cur;
      for (const auto* c : comps) cur.push_back((*c)[0]);
      out.reserve(size);
      while (true) {
        out.push_back(Value::tuple(cur));
        bool advanced = false;
        for (std::size_t pos = comps.size(); pos-- > 0 && !advanced;) {
          if (++idx[pos] < comps[pos]->size()) {
            cur[pos] = (*comps[pos])[idx[pos]];
            advanced = true;
          } else {
            idx[pos] = 0;
            cur[pos] = (*comps[pos])[0];
          }
        }
        if (!advanced) break;
      }
      break;
    }
  }
  values = std::move(out);
}

const Domain::Node& Domain::node() const {
  // A default-constructed domain holds no node, so building and copying
  // the empty domain (every expression node embeds one) costs nothing.
  static const Node empty(Shape::Explicit);
  return node_ ? *node_ : empty;
}

Domain::Domain(std::vector<Value> values) {
  if (!std::is_sorted(values.begin(), values.end())) std::sort(values.begin(), values.end());
  values.erase(std::unique(values.begin(), values.end()), values.end());
  auto node = std::make_shared<Node>(Shape::Explicit);
  node->size = values.size();
  node->approx = static_cast<long double>(values.size());
  if (!values.empty()) node->first = values.front();
  node->values = std::move(values);
  node_ = std::move(node);
}

Domain::Shape Domain::shape() const { return node().shape; }
std::size_t Domain::size() const { return node().size; }
long double Domain::approx_size() const { return node().approx; }
std::int64_t Domain::lo() const { return node().lo; }
std::int64_t Domain::hi() const { return node().hi; }

const Value& Domain::first() const {
  if (node().size == 0) throw std::runtime_error("Domain::first: the domain is empty");
  return node().first;
}

bool Domain::contains(const Value& v) const {
  const Node& n = node();
  switch (n.shape) {
    case Shape::Explicit:
      return std::binary_search(n.values.begin(), n.values.end(), v);
    case Shape::Range: {
      if (!v.is_int()) return false;
      const std::int64_t i = v.as_int();
      return n.lo <= i && i <= n.hi;
    }
    case Shape::Bool:
      return v.is_bool();
    case Shape::Seq: {
      if (!v.is_tuple()) return false;
      const Value::Tuple& t = v.as_tuple();
      if (t.size() > n.max_len) return false;
      const Domain& elems = n.parts[0];
      return std::all_of(t.begin(), t.end(), [&](const Value& e) { return elems.contains(e); });
    }
    case Shape::Tuple: {
      if (!v.is_tuple()) return false;
      const Value::Tuple& t = v.as_tuple();
      if (t.size() != n.parts.size()) return false;
      for (std::size_t i = 0; i < t.size(); ++i) {
        if (!n.parts[i].contains(t[i])) return false;
      }
      return true;
    }
  }
  return false;
}

const std::vector<Value>& Domain::values() const {
  const Node& n = node();
  if (!n.built.load(std::memory_order_acquire)) {
    std::lock_guard<std::mutex> lock(n.build_mutex);
    if (!n.built.load(std::memory_order_relaxed)) {
      n.build();
      n.built.store(true, std::memory_order_release);
    }
  }
  return n.values;
}

std::size_t Domain::index_of(const Value& v) const {
  const std::vector<Value>& vals = values();
  auto it = std::lower_bound(vals.begin(), vals.end(), v);
  if (it == vals.end() || !(*it == v)) {
    throw std::runtime_error("Domain::index_of: value " + v.to_string() +
                             " not in domain " + to_string());
  }
  return static_cast<std::size_t>(it - vals.begin());
}

bool operator==(const Domain& a, const Domain& b) {
  const Domain::Node& x = a.node();
  const Domain::Node& y = b.node();
  using Shape = Domain::Shape;
  if (&x == &y) return true;
  if (x.size != y.size) return false;
  if (x.size == 0) return true;
  if (x.shape == Shape::Explicit && y.shape == Shape::Explicit) return x.values == y.values;
  if (x.shape == Shape::Explicit || y.shape == Shape::Explicit) {
    // Same size and the listed side inside the other: the same set.
    const bool x_listed = x.shape == Shape::Explicit;
    const std::vector<Value>& listed = x_listed ? x.values : y.values;
    const Domain& other = x_listed ? b : a;
    return std::all_of(listed.begin(), listed.end(),
                       [&](const Value& v) { return other.contains(v); });
  }
  // Nonempty structural shapes of different kinds are disjoint sets: ints,
  // booleans, sequences (which contain << >>) and tuples of a fixed
  // nonzero arity (which do not).
  if (x.shape != y.shape) return false;
  switch (x.shape) {
    case Shape::Explicit:
      break;
    case Shape::Range:
      return x.lo == y.lo && x.hi == y.hi;
    case Shape::Bool:
      return true;
    case Shape::Seq:
      // The longest member fixes n; the length-1 members fix E.
      return x.max_len == y.max_len && x.parts[0] == y.parts[0];
    case Shape::Tuple:
      // A product of nonempty factors determines its factors.
      return x.parts == y.parts;
  }
  return false;
}

std::uint64_t Domain::deep_bytes() const {
  if (!node_) return 0;
  const Node& n = *node_;
  std::uint64_t bytes = sizeof(Node) + value_deep_bytes(n.first) - sizeof(Value);
  bytes += n.parts.capacity() * sizeof(Domain);
  for (const Domain& p : n.parts) bytes += p.deep_bytes();
  if (n.built.load(std::memory_order_acquire)) {
    for (const Value& v : n.values) bytes += value_deep_bytes(v);
  }
  return bytes;
}

std::string Domain::to_string() const {
  const Node& n = node();
  std::ostringstream os;
  switch (n.shape) {
    case Shape::Explicit:
      os << '{';
      for (std::size_t i = 0; i < n.values.size(); ++i) {
        if (i != 0) os << ", ";
        os << n.values[i];
      }
      os << '}';
      break;
    case Shape::Range:
      os << n.lo << ".." << n.hi;
      break;
    case Shape::Bool:
      os << "BOOLEAN";
      break;
    case Shape::Seq:
      os << "Seq(" << n.parts[0].to_string() << ", " << n.max_len << ')';
      break;
    case Shape::Tuple:
      if (n.parts.size() == 1) {
        os << "{<<e>> : e \\in " << n.parts[0].to_string() << '}';
        break;
      }
      for (std::size_t i = 0; i < n.parts.size(); ++i) {
        if (i != 0) os << " \\X ";
        const bool nested = n.parts[i].shape() == Shape::Tuple;
        os << (nested ? "(" : "") << n.parts[i].to_string() << (nested ? ")" : "");
      }
      break;
  }
  return os.str();
}

Domain bool_domain() {
  auto node = std::make_shared<Domain::Node>(Domain::Shape::Bool);
  node->size = 2;
  node->approx = 2;
  node->first = Value::boolean(false);
  return Domain(std::move(node));
}

Domain bit_domain() { return range_domain(0, 1); }

Domain range_domain(std::int64_t lo, std::int64_t hi) {
  if (hi < lo) return Domain();
  auto node = std::make_shared<Domain::Node>(Domain::Shape::Range);
  node->lo = lo;
  node->hi = hi;
  // hi - lo + 1 in unsigned arithmetic; only the full int64 range wraps.
  const std::uint64_t span = static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo);
  node->size = span >= kSat ? kSat : static_cast<std::size_t>(span) + 1;
  node->approx = static_cast<long double>(span) + 1;
  node->first = Value::integer(lo);
  return Domain(std::move(node));
}

Domain seq_domain(const Domain& elems, std::size_t max_len) {
  // With no elements or no room, << >> is the only sequence.
  if (elems.empty() || max_len == 0) return Domain({Value::empty_seq()});
  auto node = std::make_shared<Domain::Node>(Domain::Shape::Seq);
  node->max_len = max_len;
  node->parts = {elems};
  // sum_{k=0..n} e^k. For e >= 2 the saturating loop ends within 64 steps.
  const std::size_t e = elems.size();
  if (e == 1) {
    node->size = sat_add(max_len, 1);
  } else {
    std::size_t total = 1, power = 1;
    for (std::size_t k = 1; k <= max_len && total != kSat; ++k) {
      power = sat_mul(power, e);
      total = sat_add(total, power);
    }
    node->size = total;
  }
  const long double ae = elems.approx_size();
  const long double n = static_cast<long double>(max_len);
  node->approx = ae == 1 ? n + 1 : (std::pow(ae, n + 1) - 1) / (ae - 1);
  node->first = Value::empty_seq();
  return Domain(std::move(node));
}

Domain tuple_domain(const std::vector<Domain>& components) {
  if (components.empty()) return Domain({Value::empty_seq()});
  if (std::any_of(components.begin(), components.end(),
                  [](const Domain& c) { return c.empty(); })) {
    return Domain();
  }
  auto node = std::make_shared<Domain::Node>(Domain::Shape::Tuple);
  node->parts = components;
  node->size = 1;
  node->approx = 1;
  Value::Tuple first;
  for (const Domain& c : components) {
    node->size = sat_mul(node->size, c.size());
    node->approx *= c.approx_size();
    first.push_back(c.first());
  }
  node->first = Value::tuple(std::move(first));
  return Domain(std::move(node));
}

}  // namespace opentla
