// opentla/obs/profiler.hpp
//
// Span-stack sampling profiler (obs v4). Every obs::Span open/close
// maintains a per-thread stack of interned span-name ids (lock-free
// atomics, bounded depth); a SamplingProfiler walks all registered
// threads' stacks from a background thread at a fixed rate (the
// ProgressSampler pattern) and accumulates folded stack counts. Output is
// the collapsed-stack format flamegraph.pl and speedscope consume
// ("root;child;leaf <count>" per line), plus a self-time/total-time top-N
// table derived from the completed SpanRecords in a Snapshot.
//
// When no sampler ran (e.g. `tlacheck profile --format folded` without
// --sample-hz), folded_from_spans() derives the same collapsed format
// from the recorded spans, weighted by self-time microseconds — the
// flamegraph renders either way.

#pragma once

#include <cstdint>
#include <chrono>
#include <condition_variable>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "opentla/obs/obs.hpp"

namespace opentla::obs {

/// Frames beyond this nesting depth are counted in the sample but not
/// named (the stack key is truncated). Engine nesting is ~6 deep.
constexpr std::size_t kMaxSpanDepth = 64;
/// Distinct span names tracked; later names intern to id 0 ("_other").
constexpr std::size_t kMaxSpanNames = 512;

namespace detail {

// Span::open/close hooks (obs.cpp): intern the span's name and push/pop
// the calling thread's frame stack. Push/pop are a release store plus a
// relaxed depth bump — no locks on the span path.
std::uint32_t profiler_intern_name(const std::string& span_name);
void profiler_push_frame(std::uint32_t name_id);
void profiler_pop_frame();

/// Snapshot of the interned span-name table (index = name id).
std::vector<std::string> profiler_name_table();

/// Number of span stacks ever allocated. A thread's stack returns to a
/// free list when the thread exits and the next new thread reuses it, so
/// this is bounded by the peak number of live threads that opened spans.
std::size_t profiler_stack_count();

/// Drop interned names and reset per-thread stacks' visibility — called
/// by obs::reset(). Live stacks keep their depth (RAII spans will pop
/// back to zero); only the name table is cleared.
void profiler_reset();

}  // namespace detail

/// One collapsed-stack line: "graph.explore_serial;store.intern 42".
struct FoldedStack {
  std::string stack;
  std::uint64_t count = 0;
};

/// Background sampler over every registered thread's span stack.
/// Construction starts the thread; stop() (or destruction) joins it.
/// Sampling only reads atomics — it never perturbs exploration order, so
/// the determinism contract (bit-identical graphs per thread count)
/// holds with a sampler running.
class SamplingProfiler {
 public:
  explicit SamplingProfiler(double hz);
  ~SamplingProfiler();
  SamplingProfiler(const SamplingProfiler&) = delete;
  SamplingProfiler& operator=(const SamplingProfiler&) = delete;

  /// Stop sampling and join the thread. Idempotent; takes one final
  /// sample first so short runs still record something.
  void stop();

  /// Sampling ticks taken so far (including ticks that saw no open span).
  std::uint64_t samples() const;

  /// Folded stacks accumulated so far, sorted by stack string.
  std::vector<FoldedStack> folded() const;

 private:
  void run();
  void sample_once();

  std::chrono::microseconds period_;
  mutable std::mutex data_mu_;
  std::map<std::vector<std::uint32_t>, std::uint64_t> counts_;
  std::uint64_t samples_ = 0;

  std::mutex mu_;
  std::condition_variable cv_;
  bool stopping_ = false;
  bool stopped_ = false;
  std::thread thread_;
};

/// Collapsed stacks derived from a snapshot's completed spans: one line
/// per distinct ancestor chain, weighted by the chain leaf's self-time in
/// microseconds (if every span rounded to 0 us, each occurrence counts 1
/// so the output still renders). Deterministically sorted.
std::vector<FoldedStack> folded_from_spans(const Snapshot& snap);

/// The collapsed-stack text flamegraph.pl consumes.
std::string render_folded(const std::vector<FoldedStack>& stacks);

/// Per-span-name aggregate over a snapshot: call count, total (inclusive)
/// time, and self (exclusive) time — total minus direct children, clamped
/// at zero per record.
struct ProfileRow {
  std::string name;
  std::uint64_t count = 0;
  std::uint64_t total_us = 0;
  std::uint64_t self_us = 0;
};

/// Rows sorted by self-time descending (name ascending on ties).
std::vector<ProfileRow> profile_rows(const Snapshot& snap);

/// Human table of the top `top_n` rows by self time.
std::string render_profile_table(const std::vector<ProfileRow>& rows,
                                 std::size_t top_n);

}  // namespace opentla::obs
