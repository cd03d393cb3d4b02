#include "opentla/obs/memory.hpp"

#include <unistd.h>

#include <cinttypes>
#include <cstdio>

namespace opentla::obs {

const char* name(MemDomain d) {
  switch (d) {
    case MemDomain::StateStore: return "state_store";
    case MemDomain::StateGraph: return "state_graph";
    case MemDomain::Frontier: return "frontier";
    case MemDomain::Parser: return "parser";
    case MemDomain::Oracle: return "oracle";
    case MemDomain::Other: return "other";
    case MemDomain::kCount: break;
  }
  return "?";
}

namespace detail {

MemBank g_mem_bank;

namespace {

thread_local MemDomain t_mem_domain = MemDomain::Other;

std::atomic<bool> g_mem_suspended{false};

void bump_peak(std::atomic<std::int64_t>& peak, std::int64_t v) {
  std::int64_t cur = peak.load(std::memory_order_relaxed);
  while (v > cur &&
         !peak.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

}  // namespace

bool mem_account_alloc(MemDomain d, std::uint64_t bytes) {
  if (!enabled() || g_mem_suspended.load(std::memory_order_relaxed)) return false;
  MemCells& cells = g_mem_bank.domains[static_cast<std::size_t>(d)];
  const std::int64_t b = static_cast<std::int64_t>(bytes);
  bump_peak(cells.peak, cells.live.fetch_add(b, std::memory_order_relaxed) + b);
  cells.allocs.fetch_add(1, std::memory_order_relaxed);
  cells.size_buckets[hist_bucket_index(bytes)].fetch_add(1,
                                                         std::memory_order_relaxed);
  cells.size_sum.fetch_add(bytes, std::memory_order_relaxed);
  bump_peak(g_mem_bank.tracked_peak,
            g_mem_bank.tracked_live.fetch_add(b, std::memory_order_relaxed) + b);
  return true;
}

void mem_account_free(MemDomain d, std::uint64_t bytes) {
  MemCells& cells = g_mem_bank.domains[static_cast<std::size_t>(d)];
  const std::int64_t b = static_cast<std::int64_t>(bytes);
  cells.live.fetch_sub(b, std::memory_order_relaxed);
  g_mem_bank.tracked_live.fetch_sub(b, std::memory_order_relaxed);
}

}  // namespace detail

MemDomain current_mem_domain() { return detail::t_mem_domain; }

bool mem_accounting_suspended() {
  return detail::g_mem_suspended.load(std::memory_order_relaxed);
}

void set_mem_accounting_suspended(bool suspended) {
  detail::g_mem_suspended.store(suspended, std::memory_order_relaxed);
}

MemScope::MemScope(MemDomain d) : prev_(detail::t_mem_domain) {
  detail::t_mem_domain = d;
}

MemScope::~MemScope() { detail::t_mem_domain = prev_; }

std::uint64_t statm_resident_bytes(const char* statm_text, std::uint64_t page_size) {
  if (statm_text == nullptr) return 0;
  std::uint64_t size_pages = 0;
  std::uint64_t resident_pages = 0;
  if (std::sscanf(statm_text, "%" SCNu64 " %" SCNu64, &size_pages,
                  &resident_pages) != 2) {
    return 0;
  }
  return resident_pages * page_size;
}

std::uint64_t read_rss_bytes() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  char buf[256];
  const std::size_t n = std::fread(buf, 1, sizeof buf - 1, f);
  std::fclose(f);
  buf[n] = '\0';
  return statm_resident_bytes(
      buf, static_cast<std::uint64_t>(sysconf(_SC_PAGESIZE)));
}

}  // namespace opentla::obs
