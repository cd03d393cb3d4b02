// PARALLEL — scaling of the work-sharing parallel exploration engine
// (opentla/par) against the serial BFS on the paper's larger spaces.
//
// Artifact: a serial-vs-N-threads wall-clock table on the Figure 6
// complete-queue space and the Figure 9 double-queue composition, with the
// per-configuration speedup and a determinism cross-check (every run must
// produce the serial graph bit for bit). On a single-core host the
// speedups hover at or below 1.0x — the table reports whatever the
// hardware gives, it does not assume cores.
//
// Benchmarks: BM_ExploreQueue / BM_ExploreDoubleQueue parameterized by
// worker count (1 = the serial engine, 2/4 = the parallel engine), so the
// exported BENCH_bench_parallel_scaling.json carries the par.* counters
// (steals, shard contention, per-pool expansions) for the same series.

#include <algorithm>
#include <chrono>
#include <iomanip>

#include "bench_common.hpp"
#include "opentla/compose/compose.hpp"
#include "opentla/queue/double_queue.hpp"
#include "opentla/queue/queue_spec.hpp"

using namespace opentla;

namespace {

ExploreOptions with_threads(unsigned threads) {
  ExploreOptions opts;
  opts.threads = threads;
  return opts;
}

struct Space {
  std::string label;
  VarTable* vars;
  std::vector<CompositePart> parts;
  std::vector<VarId> pinned;
};

StateGraph explore(const Space& space, unsigned threads) {
  return build_composite_graph(*space.vars, space.parts, {}, space.pinned,
                               with_threads(threads));
}

void artifact() {
  std::cout << "=== PARALLEL: serial vs N-thread exploration (identical graphs) ===\n";

  QueueSystem queue = make_queue_system(/*capacity=*/3, /*num_values=*/3);
  DoubleQueueSystem dbl = make_double_queue(/*capacity=*/1, /*num_values=*/3);
  std::vector<Space> spaces;
  spaces.push_back({"CQ (fig 6), N=3, 3 values",
                    &queue.vars,
                    {{queue.specs.complete.unhidden(), true}},
                    {}});
  spaces.push_back({"CDQ (fig 9), N=1, 3 values",
                    &dbl.vars,
                    {{make_cdq(dbl).unhidden(), true},
                     {make_pin(dbl.vars, {dbl.q}, "PinQ"), false}},
                    {dbl.q}});

  std::cout << std::left << std::setw(28) << "space" << std::right << std::setw(9)
            << "states" << std::setw(10) << "threads" << std::setw(12) << "time"
            << std::setw(10) << "speedup" << "   identical\n";
  for (const Space& space : spaces) {
    double serial_ms = 0.0;
    StateGraph reference = explore(space, 1);
    for (unsigned threads : {1u, 2u, 4u}) {
      const auto t0 = std::chrono::steady_clock::now();
      StateGraph g = explore(space, threads);
      const auto t1 = std::chrono::steady_clock::now();
      const double ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
      if (threads == 1) serial_ms = ms;

      bool identical = g.num_states() == reference.num_states() &&
                       g.num_edges() == reference.num_edges() &&
                       g.initial() == reference.initial();
      for (StateId s = 0; identical && s < reference.num_states(); ++s) {
        identical = g.state(s) == reference.state(s) &&
                    std::ranges::equal(g.successors(s), reference.successors(s));
      }
      std::cout << std::left << std::setw(28) << space.label << std::right
                << std::setw(9) << g.num_states() << std::setw(10) << threads
                << std::setw(10) << std::fixed << std::setprecision(1) << ms << " ms"
                << std::setw(9) << std::setprecision(2) << (serial_ms / ms) << "x"
                << "   " << (identical ? "yes" : "NO!") << "\n";
    }
  }
  std::cout << "\n";
}

void BM_ExploreQueue(benchmark::State& state) {
  QueueSystem sys = make_queue_system(/*capacity=*/3, /*num_values=*/2);
  const std::vector<CompositePart> parts = {{sys.specs.complete.unhidden(), true}};
  const unsigned threads = static_cast<unsigned>(state.range(0));
  std::size_t states = 0;
  for (auto _ : state) {
    StateGraph g = build_composite_graph(sys.vars, parts, {}, {}, with_threads(threads));
    states = g.num_states();
    benchmark::DoNotOptimize(states);
  }
  state.counters["states"] = static_cast<double>(states);
  state.counters["threads"] = static_cast<double>(threads);
}
BENCHMARK(BM_ExploreQueue)->Arg(1)->Arg(2)->Arg(4)->Unit(benchmark::kMillisecond);

void BM_ExploreDoubleQueue(benchmark::State& state) {
  DoubleQueueSystem sys = make_double_queue(/*capacity=*/1, /*num_values=*/2);
  const std::vector<CompositePart> parts = {
      {make_cdq(sys).unhidden(), true}, {make_pin(sys.vars, {sys.q}, "PinQ"), false}};
  const unsigned threads = static_cast<unsigned>(state.range(0));
  std::size_t states = 0;
  for (auto _ : state) {
    StateGraph g =
        build_composite_graph(sys.vars, parts, {}, {sys.q}, with_threads(threads));
    states = g.num_states();
    benchmark::DoNotOptimize(states);
  }
  state.counters["states"] = static_cast<double>(states);
  state.counters["threads"] = static_cast<double>(threads);
}
BENCHMARK(BM_ExploreDoubleQueue)->Arg(1)->Arg(2)->Arg(4)->Unit(benchmark::kMillisecond);

}  // namespace

OPENTLA_BENCH_MAIN(artifact)
