// perfbench/bench.hpp
//
// Shared pieces of the end-to-end benchmark: the known-answer oracle, the
// benchmark-side span tracer, the composite systems the workloads explore,
// and the per-layer replays that time one layer's public function alone.
//
// The benchmark drives the library only through its public API; spans are
// recorded here, around the calls, not inside the library.

#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "opentla/compose/compose.hpp"
#include "opentla/graph/state_graph.hpp"
#include "opentla/obs/obs.hpp"

namespace perfbench {

/// Seconds on the steady clock.
double now_s();

/// Deterministic generator for seeded inputs (splitmix64), so one seed
/// gives the same inputs with every standard library.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  /// Uniform in [0, n).
  std::uint64_t below(std::uint64_t n) { return next() % n; }
  /// A Fisher-Yates permutation of 0..n-1.
  std::vector<std::size_t> permutation(std::size_t n);

 private:
  std::uint64_t next();

  std::uint64_t state_;
};

/// Applies `order` to `items`: element i of the result is items[order[i]].
template <typename T>
std::vector<T> permuted(const std::vector<T>& items, const std::vector<std::size_t>& order) {
  std::vector<T> out;
  out.reserve(items.size());
  for (std::size_t i : order) out.push_back(items[i]);
  return out;
}

/// Known-answer checks. Every verdict and count a pass produces is
/// compared with the answer fixed in the workload; error_rate is
/// failed / attempted.
class Oracle {
 public:
  void expect(bool ok, const std::string& what);
  void expect_eq(std::uint64_t got, std::uint64_t want, const std::string& what);

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  /// The first few mismatches, for the human summary.
  const std::vector<std::string>& misses() const { return misses_; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> misses_;
};

/// Spans around the benchmark's calls into the library, kept in memory
/// and written out when the run ends. A disabled tracer records nothing.
class Tracer {
 public:
  struct Record {
    std::string name;
    int parent = -1;  // index of the enclosing span, -1 at top level
    double start_s = 0;
    double end_s = 0;
    double dur_ms() const { return (end_s - start_s) * 1e3; }
  };

  class Scope {
   public:
    Scope(Tracer* tracer, int index) : tracer_(tracer), index_(index) {}
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    int index_;
  };

  explicit Tracer(bool on) : on_(on) {}
  bool on() const { return on_; }
  Scope span(std::string name);

  const std::vector<Record>& records() const { return records_; }
  /// Span duration minus the part its child spans cover.
  double self_ms(std::size_t index) const;
  /// The spans as a JSON document (one object per span, with self time).
  std::string to_json(const std::string& workload, std::uint64_t seed) const;

 private:
  bool on_;
  std::vector<Record> records_;
  std::vector<int> open_;
};

/// A closed composition exactly as build_composite_graph receives it, so
/// the replays can rebuild the same generators and filters.
struct Composite {
  std::string name;
  const opentla::VarTable* vars = nullptr;
  std::vector<opentla::CompositePart> parts;
  std::vector<opentla::VarId> pinned;
  std::size_t max_states = 2'000'000;

  opentla::StateGraph build(unsigned threads = 1) const;
};

/// A graph built in the traced pass (or the ledger), kept for the replays.
struct BuiltGraph {
  const Composite* composite = nullptr;
  opentla::StateGraph graph;
};

using Metrics = std::map<std::string, double>;

/// Replays the reached states of `graphs` through each layer's public
/// function alone and records the layer metrics:
///   graph.successor.*  ActionSuccessors::for_each_successor per expanded state
///   compose.*          per-source dedup plus every part's step_ok
///   state.intern_ns    StateStore::intern in the build's intern order
///   graph.scc_ms       strongly_connected_components over the whole graph
///   vm.instrs_per_edge VM instructions of the successor and filter replays
/// and graph.unattributed_ms = build_ms minus the three replayed layers
/// (append, frontier and dedup; negative when the layers cost more alone
/// than inside the build).
void replay_layers(const std::vector<BuiltGraph>& graphs, double build_ms, Metrics& m);

/// Counter differences between two snapshots.
struct Delta {
  const opentla::obs::Snapshot& before;
  const opentla::obs::Snapshot& after;
  double counter(opentla::obs::Counter c) const {
    return static_cast<double>(after.counter(c) - before.counter(c));
  }
};

/// One benchmark workload: set-up, one pass, and the traced extras.
class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds the systems or the spec from the seed, up to the first
  /// exploration call. Timed as setup_s; may run several times.
  virtual void setup(std::uint64_t seed) = 0;
  /// One pass over the workload, checking every outcome against `oracle`.
  /// With an enabled tracer the pass keeps what ledger() needs.
  virtual void pass(Oracle& oracle, Tracer& tracer) = 0;
  /// Runs after a traced pass, with obs enabled (`pass_snap` holds that
  /// pass's counters): the direct per-layer calls and replays. Adds
  /// per-layer metrics.
  virtual void ledger(Oracle& oracle, Tracer& tracer, const opentla::obs::Snapshot& pass_snap,
                      Metrics& m) = 0;
};

/// The workload named `name`, or null when there is none.
std::unique_ptr<Workload> make_workload(const std::string& name);

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// Every per-layer metric with its unit, in the order BENCHMARK.json
/// lists them.
const std::vector<MetricSpec>& per_layer_metrics();

}  // namespace perfbench
