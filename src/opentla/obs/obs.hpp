// opentla/obs/obs.hpp
//
// Zero-dependency observability layer for the checking engine: monotonic
// counters and peak gauges for the hot algorithms (successor generation,
// subset construction, SCC refinement, fair-cycle search, product
// inclusion), string-labeled counters over a bounded interned label table
// (per-action coverage), power-of-two-bucket histograms (successor
// fanout, worker balance, shard probe lengths), level gauges that track a
// current value (frontier size, for live progress), phase-boundary
// events, and RAII timer spans with parent/child nesting — all behind a
// thread-safe global registry. Renderers serve different consumers: a
// human table, a JSON object, the Chrome trace_event format, and an
// OpenMetrics/Prometheus exposition (see export.hpp).
//
// Instrumentation sites use the OPENTLA_OBS_* macros below. They are
// gated twice: at compile time by OPENTLA_OBS_ENABLED (the default build
// defines it to 1; -DOPENTLA_OBS=OFF builds define it to 0, turning every
// macro into `((void)0)`), and at runtime by a relaxed atomic flag, so an
// instrumented-but-disabled build pays one predictable branch per site.

#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#ifndef OPENTLA_OBS_ENABLED
#define OPENTLA_OBS_ENABLED 1
#endif

namespace opentla::obs {

// --- Counters: monotonic event totals, one atomic cell each. ---
enum class Counter : std::size_t {
  StatesGenerated,         // states interned while building a StateGraph
  SuccessorsEnumerated,    // distinct successors emitted by ActionSuccessors
  EnabledEvaluations,      // ENABLED queries answered by ActionSuccessors
  ConfigsExpanded,         // hidden-variable assignments stepped by PrefixMachine
  SccPasses,               // Tarjan decompositions run
  LassoCandidates,         // SCCs examined as fair-cycle candidates
  InclusionPairs,          // (product node, target config) pairs visited
  ProductNodes,            // nodes interned by ConstraintExplorer
  ProductSteps,            // ProductMachine::step calls
  FreezeSteps,             // FreezeMachine::step calls
  RefinementEdgesChecked,  // low edges checked against [HighNext]_v
  OracleEvaluations,       // lasso-oracle formula node evaluations
  BehaviorsChecked,        // lasso behaviors examined by bounded validity
  ParStatesExpanded,       // states expanded by parallel exploration workers
  ParSteals,               // work items stolen from another worker's deque
  ParShardContention,      // seen-set shard locks that were contended
  CompletionsPruned,       // domain values the successor walk tried and rejected
  ResidualEarlyCuts,       // of those, rejections that cut a whole subtree
  AnalysisPairsIndependent,  // action pairs the static matrix proves commute
  AnalysisPairsDependent,    // action pairs left dependent (incl. fallback)
  BudgetStops,             // run-budget breaches latched (RunBudget::request_stop)
  // The two VM counters always read 0: the bytecode VM is gone and the
  // tree evaluator is the only one. They stay because perfbench/ reads them.
  VmProgramsCompiled,
  VmInstrsExecuted,
  FingerprintCollisions,   // distinct states sharing a 64-bit fingerprint (hard error)
  SpillSegments,           // arena segments spilled to mmap-backed temp files
  kCount
};

// --- Gauges: high-water marks, updated with atomic max. ---
enum class Gauge : std::size_t {
  PeakConfigurationCount,  // largest prefix-machine configuration seen
  PeakGraphStates,         // largest single StateGraph built
  PeakProductNodes,        // largest ConstraintExplorer node set built
  PeakParWorkers,          // widest worker pool used by parallel exploration
  PeakRssBytes,            // resident-set high-water (fed by progress samples)
  kCount
};

// --- Levels: current-value gauges (plain atomic store, last write wins).
// Unlike Gauge these go up and down; the ProgressSampler reads them live.
enum class Level : std::size_t {
  FrontierSize,  // states discovered but not yet expanded
  kCount
};

// --- Labeled counters: one family x interned-label table of atomic cells.
// Labels are interned once (cold path, e.g. at ActionSuccessors
// construction); counting is an index into a fixed table.
enum class LabeledCounter : std::size_t {
  ActionFired,    // successors emitted, attributed to the labeled action
  ActionEnabled,  // expansions in which the labeled action had a successor
  kCount
};

// --- Histograms: power-of-two buckets. Bucket 0 holds the value 0;
// bucket i (i >= 1) holds values in (2^(i-2), 2^(i-1)], i.e. the `le`
// upper bounds run 0, 1, 2, 4, 8, ...; the last bucket is unbounded.
enum class Histogram : std::size_t {
  SuccessorFanout,      // distinct successors (incl. stuttering self-loop) per expanded state
  ParWorkerExpansions,  // states expanded per parallel worker (one sample each)
  ShardProbeLength,     // open-addressing probe length per fingerprint-table intern
  LassoWalkLength,      // random-walk length before a lasso closes
  kCount
};

// --- Memory domains: every tracked allocation is attributed to the
// subsystem that owns it. Per-domain live/peak byte gauges and a
// power-of-two allocation-size histogram live in the registry; the RAII
// scopes, byte tallies, and the counting allocator that feed them are in
// opentla/obs/memory.hpp.
enum class MemDomain : std::size_t {
  StateStore,  // interned state vectors + seen-set nodes (serial & sharded)
  StateGraph,  // adjacency lists of the built graph
  Frontier,    // BFS frontier / parallel work deques
  Parser,      // expression trees retained by parsed modules
  Oracle,      // lasso-oracle memo table
  Other,       // tracked bytes with no finer attribution
  kCount
};

constexpr std::size_t kNumCounters = static_cast<std::size_t>(Counter::kCount);
constexpr std::size_t kNumGauges = static_cast<std::size_t>(Gauge::kCount);
constexpr std::size_t kNumLevels = static_cast<std::size_t>(Level::kCount);
constexpr std::size_t kNumLabeledCounters =
    static_cast<std::size_t>(LabeledCounter::kCount);
constexpr std::size_t kNumHistograms = static_cast<std::size_t>(Histogram::kCount);
constexpr std::size_t kNumMemDomains = static_cast<std::size_t>(MemDomain::kCount);

/// Interned labels are bounded: id 0 is the overflow bucket "_other" that
/// absorbs every label interned past the table's capacity.
using LabelId = std::uint32_t;
constexpr LabelId kLabelOverflow = 0;
constexpr std::size_t kMaxLabels = 256;

constexpr std::size_t kHistBuckets = 32;

/// Stable snake_case identifiers used by every renderer and BENCH_*.json.
const char* name(Counter c);
const char* name(Gauge g);
const char* name(Level l);
const char* name(LabeledCounter f);
const char* name(Histogram h);
const char* name(MemDomain d);
/// The OpenMetrics label key of a family, e.g. "action" for ActionFired.
const char* label_key(LabeledCounter f);

/// Inclusive upper bound of histogram bucket `i`; the final bucket has no
/// bound (render it as +Inf).
constexpr std::uint64_t hist_bucket_le(std::size_t i) {
  return i == 0 ? 0 : std::uint64_t{1} << (i - 1);
}

/// Bucket index a value lands in: 0 for 0, else 1 + ceil(log2(v)), capped.
constexpr std::size_t hist_bucket_index(std::uint64_t v) {
  if (v == 0) return 0;
  const std::size_t i = 1 + static_cast<std::size_t>(std::bit_width(v - 1));
  return i < kHistBuckets ? i : kHistBuckets - 1;
}

namespace detail {

struct Bank {
  std::array<std::atomic<std::uint64_t>, kNumCounters> counters{};
  std::array<std::atomic<std::uint64_t>, kNumGauges> gauges{};
  std::array<std::atomic<std::uint64_t>, kNumLevels> levels{};
  std::array<std::array<std::atomic<std::uint64_t>, kMaxLabels>, kNumLabeledCounters>
      labeled{};
  std::array<std::array<std::atomic<std::uint64_t>, kHistBuckets>, kNumHistograms>
      hist_buckets{};
  std::array<std::atomic<std::uint64_t>, kNumHistograms> hist_sums{};
};

/// Per-domain memory cells. `live` is a signed sum so a free recorded
/// without its matching alloc (collection toggled mid-object-lifetime)
/// dips below zero instead of wrapping; snapshots clamp at 0.
struct MemCells {
  std::atomic<std::int64_t> live{0};
  std::atomic<std::int64_t> peak{0};
  std::atomic<std::uint64_t> allocs{0};
  std::array<std::atomic<std::uint64_t>, kHistBuckets> size_buckets{};
  std::atomic<std::uint64_t> size_sum{0};
};

struct MemBank {
  std::array<MemCells, kNumMemDomains> domains{};
  std::atomic<std::int64_t> tracked_live{0};
  std::atomic<std::int64_t> tracked_peak{0};
};

extern Bank g_bank;
extern MemBank g_mem_bank;
extern std::atomic<bool> g_enabled;

void gauge_max_slow(std::size_t g, std::uint64_t v);

/// Attribute `bytes` to `d` (runtime-gated). Returns true when the bytes
/// were recorded, so RAII tallies free exactly what they charged.
bool mem_account_alloc(MemDomain d, std::uint64_t bytes);
/// Release `bytes` from `d`. NOT gated on the runtime flag: callers
/// (MemTally) only free bytes a successful mem_account_alloc recorded.
void mem_account_free(MemDomain d, std::uint64_t bytes);

}  // namespace detail

/// Runtime toggle. Off by default; `tlacheck profile`, `--stats` and the
/// bench harness turn it on. Sites check this with a relaxed load.
inline bool enabled() { return detail::g_enabled.load(std::memory_order_relaxed); }
void set_enabled(bool on);

/// True in builds whose instrumentation macros are live.
constexpr bool compile_time_enabled() { return OPENTLA_OBS_ENABLED != 0; }

inline void count(Counter c, std::uint64_t n = 1) {
  detail::g_bank.counters[static_cast<std::size_t>(c)].fetch_add(n,
                                                                 std::memory_order_relaxed);
}

/// High-water update. Also feeds every live ScopedSink's scope-local
/// gauge bank (a cold path: gauges change once per graph build, not per
/// state).
inline void gauge_max(Gauge g, std::uint64_t v) {
  detail::gauge_max_slow(static_cast<std::size_t>(g), v);
}

inline void level_set(Level l, std::uint64_t v) {
  detail::g_bank.levels[static_cast<std::size_t>(l)].store(v, std::memory_order_relaxed);
}

inline std::uint64_t level_get(Level l) {
  return detail::g_bank.levels[static_cast<std::size_t>(l)].load(std::memory_order_relaxed);
}

/// Live reads of single instruments — what the flight recorder and the
/// /progress endpoint sample without paying for a full snapshot().
inline std::uint64_t counter_value(Counter c) {
  return detail::g_bank.counters[static_cast<std::size_t>(c)].load(
      std::memory_order_relaxed);
}

inline std::uint64_t gauge_value(Gauge g) {
  return detail::g_bank.gauges[static_cast<std::size_t>(g)].load(std::memory_order_relaxed);
}

/// Interns `label` into the bounded global table and returns its id. Ids
/// are stable until reset(). Past kMaxLabels - 1 distinct labels, returns
/// kLabelOverflow ("_other"). Cold path (takes a mutex) — call at
/// construction time, not per event.
LabelId intern_label(const std::string& label);

inline void count_labeled(LabeledCounter f, LabelId l, std::uint64_t n = 1) {
  detail::g_bank.labeled[static_cast<std::size_t>(f)][l].fetch_add(
      n, std::memory_order_relaxed);
}

inline void hist_observe(Histogram h, std::uint64_t v) {
  const std::size_t hi = static_cast<std::size_t>(h);
  detail::g_bank.hist_buckets[hi][hist_bucket_index(v)].fetch_add(
      1, std::memory_order_relaxed);
  detail::g_bank.hist_sums[hi].fetch_add(v, std::memory_order_relaxed);
}

// --- Phase events ---

/// A phase boundary crossed by the engine (a proof step starting, a check
/// beginning). Timestamps share the span epoch (microseconds).
struct PhaseEvent {
  std::string phase;
  std::uint64_t ts_us = 0;
};

/// Records a phase event in the registry and forwards it to the phase
/// sink, if one is registered (the JSONL event stream).
void phase_event(std::string phase_name);

/// Registers a callback that observes every phase event as it happens
/// (nullptr clears). Called under an internal mutex; keep it cheap.
void set_phase_sink(std::function<void(const PhaseEvent&)> sink);

// --- Spans ---

/// One completed timer span. `parent` is the id of the span that was open
/// on the same thread when this one started (0 = root). Timestamps are
/// microseconds since the process-wide epoch, which is what trace_event
/// `ts`/`dur` expect.
struct SpanRecord {
  std::string name;
  std::uint32_t id = 0;
  std::uint32_t parent = 0;
  std::uint32_t tid = 0;
  std::uint64_t start_us = 0;
  std::uint64_t dur_us = 0;
};

/// Microseconds since the process-wide span epoch (what SpanRecord and
/// PhaseEvent timestamps are measured in).
std::uint64_t now_us();

/// RAII timer span. Construction is a no-op when the runtime flag is off
/// — the inline constructors test the flag before materializing the name,
/// so a disabled literal-named span costs one relaxed load and a branch
/// (no std::string allocation, no out-of-line call). Destruction appends
/// a SpanRecord to the global registry. Nesting is tracked per thread.
class Span {
 public:
  explicit Span(const char* span_name) {
    if (enabled()) open(span_name);
  }
  explicit Span(std::string span_name) {
    if (enabled()) open(std::move(span_name));
  }
  ~Span() {
    if (active_) close();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  void open(std::string span_name);
  void close();

  bool active_ = false;
  std::uint32_t id_ = 0;
  std::uint32_t parent_ = 0;
  std::uint64_t start_us_ = 0;
  std::string name_;
};

// --- Snapshot and registry operations ---

struct HistogramSnapshot {
  std::array<std::uint64_t, kHistBuckets> buckets{};
  std::uint64_t sum = 0;
  std::uint64_t count = 0;
};

/// One memory domain at snapshot time: live/peak bytes plus the
/// power-of-two allocation-size histogram (same bucket scheme as
/// Histogram: hist_bucket_le / hist_bucket_index).
struct MemDomainSnapshot {
  std::uint64_t live_bytes = 0;
  std::uint64_t peak_bytes = 0;
  std::uint64_t allocs = 0;
  std::array<std::uint64_t, kHistBuckets> alloc_size_buckets{};
  std::uint64_t alloc_size_sum = 0;
};

struct Snapshot {
  std::array<std::uint64_t, kNumCounters> counters{};
  std::array<std::uint64_t, kNumGauges> gauges{};
  std::array<std::uint64_t, kNumLevels> levels{};
  /// The interned label table at snapshot time; labeled[f][id] pairs with
  /// labels[id]. Index 0 is the overflow bucket "_other".
  std::vector<std::string> labels;
  std::array<std::vector<std::uint64_t>, kNumLabeledCounters> labeled;
  std::array<HistogramSnapshot, kNumHistograms> hists;
  std::vector<PhaseEvent> phases;
  std::vector<SpanRecord> spans;
  std::uint64_t spans_dropped = 0;
  /// Memory accounting. Unlike counters these are absolute registry values
  /// even under ScopedSink::take() — live bytes describe the process now,
  /// not a scope-relative delta.
  std::array<MemDomainSnapshot, kNumMemDomains> mem{};
  std::uint64_t mem_tracked_live_bytes = 0;
  std::uint64_t mem_tracked_peak_bytes = 0;

  std::uint64_t counter(Counter c) const {
    return counters[static_cast<std::size_t>(c)];
  }
  std::uint64_t gauge(Gauge g) const { return gauges[static_cast<std::size_t>(g)]; }
  std::uint64_t level(Level l) const { return levels[static_cast<std::size_t>(l)]; }
  const HistogramSnapshot& hist(Histogram h) const {
    return hists[static_cast<std::size_t>(h)];
  }
  const MemDomainSnapshot& mem_domain(MemDomain d) const {
    return mem[static_cast<std::size_t>(d)];
  }
  /// The headline memory metric: tracked peak bytes over the peak graph
  /// size (Gauge::PeakGraphStates). 0 until a graph has been built.
  std::uint64_t bytes_per_state() const {
    const std::uint64_t states = gauge(Gauge::PeakGraphStates);
    return states == 0 ? 0 : mem_tracked_peak_bytes / states;
  }
  /// Value of family `f` at `label`, 0 when the label was never interned.
  std::uint64_t labeled_value(LabeledCounter f, const std::string& label) const;
};

/// Copy the registry's current totals (counters, gauges, levels, labeled
/// counters, histograms, phase events, completed spans).
Snapshot snapshot();

/// Zero every instrument, drop all recorded spans and phase events, and
/// clear the interned label table (outstanding LabelIds become stale —
/// reset only between independent runs, never mid-exploration).
void reset();

/// Scoped sink: remembers the registry baseline and the previous runtime
/// flag at construction, enables collection, and restores the flag at
/// destruction. `take()` returns only what happened inside the scope —
/// counters, labeled counters, histograms, spans, and phase events as
/// deltas, and gauges as *scope-local* high-water marks (observations
/// made while this sink was live, not process-lifetime peaks) — so sinks
/// nest (each sees its own delta) and drivers never have to reset the
/// global registry.
class ScopedSink {
 public:
  ScopedSink();
  ~ScopedSink();
  ScopedSink(const ScopedSink&) = delete;
  ScopedSink& operator=(const ScopedSink&) = delete;

  Snapshot take() const;

 private:
  friend void detail::gauge_max_slow(std::size_t, std::uint64_t);

  std::array<std::uint64_t, kNumCounters> base_counters_{};
  std::array<std::array<std::uint64_t, kMaxLabels>, kNumLabeledCounters> base_labeled_{};
  std::array<std::array<std::uint64_t, kHistBuckets>, kNumHistograms> base_hist_buckets_{};
  std::array<std::uint64_t, kNumHistograms> base_hist_sums_{};
  /// Scope-local gauge high-water: fed by gauge_max while this sink lives.
  std::array<std::atomic<std::uint64_t>, kNumGauges> local_gauges_{};
  std::size_t base_spans_ = 0;
  std::size_t base_phases_ = 0;
  bool prev_enabled_ = false;
};

// --- Renderers ---

/// Minimal JSON string escaping (shared with the CLI's JSON emitters).
std::string json_escape(const std::string& s);

/// Aligned table: counters, gauges, labeled counters, histograms, then
/// spans aggregated by name (count, total milliseconds).
std::string render_human(const Snapshot& snap);

/// One JSON object: {"counters": {...}, "gauges": {...}, "labeled": {...},
/// "histograms": {...}, "phases": [...], "spans": [...]}.
std::string render_json(const Snapshot& snap);

/// Chrome trace_event JSON ({"traceEvents": [...]}): one "X" complete
/// event per span, one "I" instant event per phase event, one "C" counter
/// sample per nonzero counter, and a metadata event carrying the dropped-
/// span count when the recording cap was hit. Loadable in
/// chrome://tracing and https://ui.perfetto.dev.
std::string render_chrome_trace(const Snapshot& snap);

/// Write `BENCH_<bench_name>.json` (schema tools/bench_schema.json) into
/// the current directory: counters, gauges, labeled counters, and
/// histograms for the whole process run.
/// Returns the path written, or an empty string on I/O failure.
std::string write_bench_json(const std::string& bench_name, const Snapshot& snap);

}  // namespace opentla::obs

// --- Instrumentation macros ---
//
// These, not the functions above, are what engine code uses: a build with
// OPENTLA_OBS_ENABLED=0 compiles every site to `((void)0)` with all
// arguments unevaluated.

#if OPENTLA_OBS_ENABLED

#define OPENTLA_OBS_COUNT(counter_id)                                   \
  do {                                                                  \
    if (::opentla::obs::enabled())                                      \
      ::opentla::obs::count(::opentla::obs::Counter::counter_id);       \
  } while (0)

#define OPENTLA_OBS_COUNT_N(counter_id, n)                              \
  do {                                                                  \
    if (::opentla::obs::enabled())                                      \
      ::opentla::obs::count(::opentla::obs::Counter::counter_id,        \
                            static_cast<std::uint64_t>(n));             \
  } while (0)

#define OPENTLA_OBS_GAUGE_MAX(gauge_id, v)                              \
  do {                                                                  \
    if (::opentla::obs::enabled())                                      \
      ::opentla::obs::gauge_max(::opentla::obs::Gauge::gauge_id,        \
                                static_cast<std::uint64_t>(v));         \
  } while (0)

#define OPENTLA_OBS_LEVEL_SET(level_id, v)                              \
  do {                                                                  \
    if (::opentla::obs::enabled())                                      \
      ::opentla::obs::level_set(::opentla::obs::Level::level_id,        \
                                static_cast<std::uint64_t>(v));         \
  } while (0)

// `label` is a LabelId obtained from intern_label at setup time.
#define OPENTLA_OBS_COUNT_LABELED(family_id, label, n)                    \
  do {                                                                    \
    if (::opentla::obs::enabled())                                        \
      ::opentla::obs::count_labeled(                                      \
          ::opentla::obs::LabeledCounter::family_id, (label),             \
          static_cast<std::uint64_t>(n));                                 \
  } while (0)

#define OPENTLA_OBS_HIST(hist_id, v)                                    \
  do {                                                                  \
    if (::opentla::obs::enabled())                                      \
      ::opentla::obs::hist_observe(::opentla::obs::Histogram::hist_id,  \
                                   static_cast<std::uint64_t>(v));      \
  } while (0)

#define OPENTLA_OBS_PHASE(name_expr)                                    \
  do {                                                                  \
    if (::opentla::obs::enabled())                                      \
      ::opentla::obs::phase_event(name_expr);                           \
  } while (0)

#define OPENTLA_OBS_CONCAT_IMPL(a, b) a##b
#define OPENTLA_OBS_CONCAT(a, b) OPENTLA_OBS_CONCAT_IMPL(a, b)

// `name_expr` may be a string literal (free when disabled: the inline
// ctor tests the flag before converting to std::string) or a dynamic
// std::string expression (evaluated regardless — reserve those for cold
// call sites such as per-proof-step spans).
#define OPENTLA_OBS_SPAN(name_expr) \
  ::opentla::obs::Span OPENTLA_OBS_CONCAT(opentla_obs_span_, __LINE__)(name_expr)

// Memory accounting at a free-standing site. `bytes_expr` stays
// unevaluated while collection is off, so byte estimators (deep state
// walks) cost nothing on the disabled path.
#define OPENTLA_OBS_MEM_ALLOC(domain_id, bytes_expr)                      \
  do {                                                                    \
    if (::opentla::obs::enabled())                                        \
      ::opentla::obs::detail::mem_account_alloc(                          \
          ::opentla::obs::MemDomain::domain_id,                           \
          static_cast<std::uint64_t>(bytes_expr));                        \
  } while (0)

#define OPENTLA_OBS_MEM_FREE(domain_id, bytes_expr)                       \
  do {                                                                    \
    if (::opentla::obs::enabled())                                        \
      ::opentla::obs::detail::mem_account_free(                           \
          ::opentla::obs::MemDomain::domain_id,                           \
          static_cast<std::uint64_t>(bytes_expr));                        \
  } while (0)

// Charge bytes against an owner's obs::MemTally member (memory.hpp). The
// tally itself re-checks the runtime flag; this macro exists so the
// byte-estimator argument compiles away entirely with the layer off.
#define OPENTLA_OBS_MEM_TALLY_ADD(tally, bytes_expr)            \
  do {                                                          \
    if (::opentla::obs::enabled())                              \
      (tally).add(static_cast<std::uint64_t>(bytes_expr));      \
  } while (0)

#else  // !OPENTLA_OBS_ENABLED

#define OPENTLA_OBS_COUNT(counter_id) ((void)0)
#define OPENTLA_OBS_COUNT_N(counter_id, n) ((void)0)
#define OPENTLA_OBS_GAUGE_MAX(gauge_id, v) ((void)0)
#define OPENTLA_OBS_LEVEL_SET(level_id, v) ((void)0)
#define OPENTLA_OBS_COUNT_LABELED(family_id, label, n) ((void)0)
#define OPENTLA_OBS_HIST(hist_id, v) ((void)0)
#define OPENTLA_OBS_PHASE(name_expr) ((void)0)
#define OPENTLA_OBS_SPAN(name_expr) ((void)0)
#define OPENTLA_OBS_MEM_ALLOC(domain_id, bytes_expr) ((void)0)
#define OPENTLA_OBS_MEM_FREE(domain_id, bytes_expr) ((void)0)
#define OPENTLA_OBS_MEM_TALLY_ADD(tally, bytes_expr) ((void)0)

#endif  // OPENTLA_OBS_ENABLED
