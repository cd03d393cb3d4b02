#include "opentla/value/domain.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

namespace opentla {

Domain::Domain(std::vector<Value> values) : values_(std::move(values)) {
  if (!std::is_sorted(values_.begin(), values_.end())) std::sort(values_.begin(), values_.end());
  values_.erase(std::unique(values_.begin(), values_.end()), values_.end());
}

bool Domain::contains(const Value& v) const {
  return std::binary_search(values_.begin(), values_.end(), v);
}

std::size_t Domain::index_of(const Value& v) const {
  auto it = std::lower_bound(values_.begin(), values_.end(), v);
  if (it == values_.end() || !(*it == v)) {
    throw std::runtime_error("Domain::index_of: value " + v.to_string() +
                             " not in domain " + to_string());
  }
  return static_cast<std::size_t>(it - values_.begin());
}

std::string Domain::to_string() const {
  std::ostringstream os;
  os << '{';
  for (std::size_t i = 0; i < values_.size(); ++i) {
    if (i != 0) os << ", ";
    os << values_[i];
  }
  os << '}';
  return os.str();
}

Domain bool_domain() {
  return Domain({Value::boolean(false), Value::boolean(true)});
}

Domain bit_domain() { return range_domain(0, 1); }

Domain range_domain(std::int64_t lo, std::int64_t hi) {
  std::vector<Value> out;
  for (std::int64_t i = lo; i <= hi; ++i) out.push_back(Value::integer(i));
  return Domain(std::move(out));
}

Domain seq_domain(const Domain& elems, std::size_t max_len) {
  // Depth first, elements in domain order: every sequence comes right
  // after its prefix and before the next element's subtree, which is
  // exactly the sorted order, so the Domain has nothing left to sort.
  std::vector<Value> out;
  Value::Tuple prefix;
  const auto extend = [&](const auto& self) -> void {
    out.push_back(Value::tuple(prefix));
    if (prefix.size() == max_len) return;
    for (const Value& e : elems.values()) {
      prefix.push_back(e);
      self(self);
      prefix.pop_back();
    }
  };
  extend(extend);
  return Domain(std::move(out));
}

Domain tuple_domain(const std::vector<Domain>& components) {
  std::vector<Value> out = {Value::tuple({})};
  for (const Domain& comp : components) {
    std::vector<Value> next;
    next.reserve(out.size() * comp.size());
    for (const Value& partial : out) {
      for (const Value& e : comp.values()) {
        next.push_back(seq_append(partial, e));
      }
    }
    out = std::move(next);
  }
  return Domain(std::move(out));
}

}  // namespace opentla
