// perfbench/main.cpp — the end-to-end benchmark binary.
//
//   opentla_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                     [--spans-out FILE]
//
// --trace 0 runs whole passes with the library's instrumentation off until
// S seconds are spent, setting the workload up again before each pass, and
// reports wall_s, cpu_s, setup_s (medians) and peak_rss_mb.
// --trace 1 runs untraced and traced passes in pairs (obs.trace_overhead),
// then the workload's ledger: direct per-layer calls and replays that
// time each layer's public function alone. Either way every verdict and
// count is checked against its known answer, and the last stdout line is
// one JSON object: {"correct", "attempted", "failed", "metrics"}.

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <unordered_map>

#include "bench.hpp"

namespace {

using namespace perfbench;
using opentla::obs::Counter;

// A run holds at least this many passes, even when they overrun --seconds.
constexpr std::size_t kMinPasses = 3;
// Before each pass the workload is set up again for about this share of
// the previous pass's time (at least once), so the set-up samples are
// spread over the same stretch of the run as the passes.
constexpr double kSetupShare = 0.03;
constexpr std::size_t kMaxSetups = 5000;

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

/// This process's resident-set high-water mark (VmHWM). Unlike
/// getrusage's ru_maxrss it starts afresh at exec, so a launcher's own
/// footprint does not leak into it.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  return 0;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string spans_out;
};

bool parse_args(int argc, char** argv, Args& a) {
  bool have_workload = false, have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string val = argv[i + 1];
    try {
      if (flag == "--workload") {
        a.workload = val;
        have_workload = true;
      } else if (flag == "--seed") {
        a.seed = std::stoull(val);
        have_seed = true;
      } else if (flag == "--seconds") {
        a.seconds = std::stod(val);
        have_seconds = a.seconds > 0;
      } else if (flag == "--trace") {
        if (val != "0" && val != "1") return false;
        a.trace = val == "1";
        have_trace = true;
      } else if (flag == "--spans-out") {
        a.spans_out = val;
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return argc % 2 == 1 && have_workload && have_seed && have_seconds && have_trace;
}

/// Per-layer metrics read from the library's own counters over one traced
/// pass.
void snapshot_metrics(const opentla::obs::Snapshot& s, Metrics& m) {
  namespace obs = opentla::obs;
  auto c = [&](Counter k) { return static_cast<double>(s.counter(k)); };
  m["check.inclusion.product_nodes"] = c(Counter::ProductNodes);
  m["check.inclusion.pairs"] = c(Counter::InclusionPairs);
  m["automata.configs_expanded"] = c(Counter::ConfigsExpanded);
  m["automata.freeze_steps"] = c(Counter::FreezeSteps);
  m["automata.product_steps"] = c(Counter::ProductSteps);
  m["automata.peak_configs"] =
      static_cast<double>(s.gauge(obs::Gauge::PeakConfigurationCount));
  m["graph.scc_passes"] = c(Counter::SccPasses);
  m["graph.lasso_candidates"] = c(Counter::LassoCandidates);
  m["graph.successor.enabled_evals"] = c(Counter::EnabledEvaluations);
  m["state.fingerprint_collisions"] = c(Counter::FingerprintCollisions);
  m["vm.programs_compiled"] = c(Counter::VmProgramsCompiled);

  // Liveness time: the library's check_leads_to and find_fair_cycle spans
  // (the latter is the refinement check's fair-cycle search), outermost
  // only.
  auto is_liveness = [](const std::string& name) {
    return name == "check_leads_to" || name == "find_fair_cycle";
  };
  std::unordered_map<std::uint32_t, const obs::SpanRecord*> by_id;
  for (const obs::SpanRecord& r : s.spans) by_id[r.id] = &r;
  double liveness_us = 0;
  for (const obs::SpanRecord& r : s.spans) {
    if (!is_liveness(r.name)) continue;
    bool nested = false;
    for (auto it = by_id.find(r.parent); it != by_id.end() && !nested;
         it = by_id.find(it->second->parent)) {
      nested = is_liveness(it->second->name);
    }
    if (!nested) liveness_us += static_cast<double>(r.dur_us);
  }
  m["check.liveness_ms"] = liveness_us / 1e3;

  // Store probe lengths over every intern of the pass. Bucket i holds
  // lengths up to hist_bucket_le(i).
  const obs::HistogramSnapshot& h = s.hist(obs::Histogram::ShardProbeLength);
  double count = 0;
  for (std::uint64_t b : h.buckets) count += static_cast<double>(b);
  double seen = 0, p99 = 0, max = 0;
  for (std::size_t i = 0; i < obs::kHistBuckets; ++i) {
    if (h.buckets[i] == 0) continue;
    seen += static_cast<double>(h.buckets[i]);
    const double le = static_cast<double>(obs::hist_bucket_le(i));
    if (p99 == 0 && seen >= 0.99 * count) p99 = le;
    max = le;
  }
  m["state.probe_mean"] = count == 0 ? 0 : static_cast<double>(h.sum) / count;
  m["state.probe_p99"] = p99;
  m["state.probe_max"] = max;

  auto peak = [&](obs::MemDomain d) { return static_cast<double>(s.mem_domain(d).peak_bytes); };
  const double states = static_cast<double>(s.gauge(obs::Gauge::PeakGraphStates));
  m["state.bytes_per_state"] = states == 0 ? 0 : peak(obs::MemDomain::StateStore) / states;
  m["mem.state_store_peak_mb"] = peak(obs::MemDomain::StateStore) / (1 << 20);
  m["mem.state_graph_peak_mb"] = peak(obs::MemDomain::StateGraph) / (1 << 20);
  m["mem.frontier_peak_mb"] = peak(obs::MemDomain::Frontier) / (1 << 20);
  m["mem.oracle_peak_mb"] = peak(obs::MemDomain::Oracle) / (1 << 20);
}

std::string number(double v) {
  std::ostringstream os;
  os.precision(12);
  os << v;
  return os.str();
}

struct Reported {
  std::string name;
  double value = 0;
  std::string unit;
};

void print_result(const Oracle& oracle, const std::vector<Reported>& ms) {
  std::ostringstream os;
  os << "{\"correct\": " << (oracle.failed() == 0 && oracle.attempted() > 0 ? "true" : "false")
     << ", \"attempted\": " << oracle.attempted() << ", \"failed\": " << oracle.failed()
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    os << (i == 0 ? "" : ", ") << "\"" << ms[i].name << "\": {\"value\": "
       << number(ms[i].value) << ", \"unit\": \"" << ms[i].unit << "\"}";
  }
  os << "}}";
  std::cout << os.str() << std::endl;
}

void print_oracle(const Oracle& oracle) {
  const double rate = oracle.attempted() == 0
                          ? 1.0
                          : static_cast<double>(oracle.failed()) /
                                static_cast<double>(oracle.attempted());
  std::printf("  %-14s %.6f ratio (%llu of %llu checked outcomes differ from the known answer)\n",
              "error_rate", rate, static_cast<unsigned long long>(oracle.failed()),
              static_cast<unsigned long long>(oracle.attempted()));
  for (const std::string& miss : oracle.misses()) std::printf("  MISMATCH: %s\n", miss.c_str());
}

/// One pass, timed in wall and CPU seconds.
std::pair<double, double> timed_pass(Workload& wl, Oracle& oracle, Tracer& tracer) {
  const double w0 = now_s(), c0 = cpu_seconds();
  wl.pass(oracle, tracer);
  return {now_s() - w0, cpu_seconds() - c0};
}

int run(const Args& a) {
  std::unique_ptr<Workload> wl = make_workload(a.workload);
  if (!wl) {
    std::fprintf(stderr, "unknown workload '%s' (ag_proof, closed_build, wide_explore)\n",
                 a.workload.c_str());
    return 2;
  }
  opentla::obs::set_enabled(false);

  Oracle oracle;
  std::printf("workload %s, seed %llu, trace %d\n", a.workload.c_str(),
              static_cast<unsigned long long>(a.seed), a.trace ? 1 : 0);
  if (!a.trace) {
    std::vector<double> walls, cpus, setups;
    Tracer off(false);
    const double start = now_s();
    while (walls.size() < kMinPasses || now_s() - start + median(walls) <= a.seconds) {
      const double batch_start = now_s();
      const double batch_s = walls.empty() ? 0 : kSetupShare * walls.back();
      do {
        const double t0 = now_s();
        wl->setup(a.seed);
        setups.push_back(now_s() - t0);
      } while (setups.size() < kMaxSetups && now_s() - batch_start < batch_s);
      const auto [wall, cpu] = timed_pass(*wl, oracle, off);
      walls.push_back(wall);
      cpus.push_back(cpu);
    }
    const double rss = peak_rss_mb();
    std::printf("  %-14s %.6f s (median of %zu passes; min %.6f, max %.6f)\n", "wall_s",
                median(walls), walls.size(), *std::min_element(walls.begin(), walls.end()),
                *std::max_element(walls.begin(), walls.end()));
    std::printf("  %-14s %.6f s (median of %zu passes)\n", "cpu_s", median(cpus), cpus.size());
    std::printf("  %-14s %.6f s (median of %zu set-ups)\n", "setup_s", median(setups),
                setups.size());
    std::printf("  %-14s %.3f MB\n", "peak_rss_mb", rss);
    print_oracle(oracle);
    print_result(oracle, {{"wall_s", median(walls), "s"},
                          {"cpu_s", median(cpus), "s"},
                          {"setup_s", median(setups), "s"},
                          {"peak_rss_mb", rss, "MB"}});
    return 0;
  }

  // Paired passes: untraced, then traced with the library's counters and
  // spans live. The last traced pass feeds the ledger.
  wl->setup(a.seed);
  std::vector<double> plain, traced;
  Tracer tracer(true);
  opentla::obs::Snapshot pass_snap;
  const double start = now_s();
  do {
    Tracer off(false);
    plain.push_back(timed_pass(*wl, oracle, off).first);
    opentla::obs::reset();
    opentla::obs::set_enabled(true);
    tracer = Tracer(true);
    traced.push_back(timed_pass(*wl, oracle, tracer).first);
    pass_snap = opentla::obs::snapshot();
    opentla::obs::set_enabled(false);
  } while (now_s() - start + median(plain) + median(traced) <= a.seconds);

  Metrics m;
  snapshot_metrics(pass_snap, m);
  opentla::obs::set_enabled(true);
  wl->ledger(oracle, tracer, pass_snap, m);
  opentla::obs::set_enabled(false);
  m["obs.trace_overhead"] = median(traced) / median(plain) - 1;

  std::printf("  %zu paired passes: untraced %.6f s, traced %.6f s (medians)\n", plain.size(),
              median(plain), median(traced));
  if (pass_snap.spans_dropped != 0) {
    std::printf("  warning: %llu library spans dropped; check.liveness_ms undercounts\n",
                static_cast<unsigned long long>(pass_snap.spans_dropped));
  }
  std::printf("  benchmark spans (self time):\n");
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < tracer.records().size(); ++i) {
    self[tracer.records()[i].name] += tracer.self_ms(i);
  }
  for (const auto& [name, ms] : self) std::printf("    %-40s %12.3f ms\n", name.c_str(), ms);
  std::vector<Reported> out;
  for (const MetricSpec& spec : per_layer_metrics()) {
    const auto it = m.find(spec.name);
    const double v = it == m.end() ? 0.0 : it->second;
    std::printf("  %-40s %16.6f %s\n", spec.name, v, spec.unit);
    out.push_back({spec.name, v, spec.unit});
  }
  if (!a.spans_out.empty()) {
    std::ofstream f(a.spans_out);
    f << tracer.to_json(a.workload, a.seed);
    if (!f) std::fprintf(stderr, "cannot write %s\n", a.spans_out.c_str());
  }
  print_oracle(oracle);
  print_result(oracle, out);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  if (!parse_args(argc, argv, a)) {
    std::fprintf(stderr,
                 "usage: opentla_perfbench --workload NAME --seed N --seconds S --trace 0|1 "
                 "[--spans-out FILE]\n");
    return 2;
  }
  try {
    return run(a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
