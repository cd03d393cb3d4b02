#include "opentla/check/orthogonality.hpp"

namespace opentla {

namespace {

/// The machine of E _|_ M: configuration <<c_E, c_M>>, dead (the empty
/// tuple) once one step has falsified both.
class OrthogonalityMachine final : public SafetyMachine {
 public:
  OrthogonalityMachine(const SafetyMachine& e, const SafetyMachine& m) : e_(e), m_(m) {}

  Value initial(const State& s) const override {
    // The n = 0 instance of the definition: both properties hold for the
    // empty prefix (vacuously), so both failing on the first state breaks
    // orthogonality.
    return pair(e_.initial(s), m_.initial(s), /*both_were_alive=*/true);
  }
  Value step(const Value& config, const State& s, const State& t) const override {
    if (!alive(config)) return config;
    const Value& ce = config.as_tuple()[0];
    const Value& cm = config.as_tuple()[1];
    return pair(e_.step(ce, s, t), m_.step(cm, s, t), e_.alive(ce) && m_.alive(cm));
  }
  bool alive(const Value& config) const override { return config.length() != 0; }
  std::string name() const override { return e_.name() + " _|_ " + m_.name(); }

 private:
  Value pair(Value ce, Value cm, bool both_were_alive) const {
    if (both_were_alive && !e_.alive(ce) && !m_.alive(cm)) return dead_config();
    return Value::tuple({std::move(ce), std::move(cm)});
  }

  const SafetyMachine& e_;
  const SafetyMachine& m_;
};

}  // namespace

OrthogonalityResult check_orthogonality(const StateGraph& generator, const SafetyMachine& e,
                                        const SafetyMachine& m, run::RunBudget* budget) {
  const OrthogonalityMachine machine(e, m);
  return find_dead_pair(generator, machine, budget);
}

}  // namespace opentla
