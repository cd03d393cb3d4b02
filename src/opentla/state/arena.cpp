#include "opentla/state/arena.hpp"

#include <algorithm>
#include <atomic>
#include <cstring>

namespace opentla {

namespace {

constexpr std::size_t kDefaultSegmentBytes = std::size_t{1} << 20;  // 1 MiB

std::atomic<std::size_t> g_segment_bytes{kDefaultSegmentBytes};

}  // namespace

void set_arena_segment_bytes_for_test(std::size_t bytes) {
  g_segment_bytes.store(bytes == 0 ? kDefaultSegmentBytes : bytes,
                        std::memory_order_relaxed);
}

std::size_t arena_segment_bytes() {
  return g_segment_bytes.load(std::memory_order_relaxed);
}

StateArena::StateArena() : default_segment_bytes_(arena_segment_bytes()) {}

void StateArena::open_segment(std::size_t min_bytes) {
  const std::size_t cap = std::max(default_segment_bytes_, min_bytes);
  Segment seg;
  // Not zero-filled: only the first `used` bytes are ever read, so
  // untouched capacity never becomes resident.
  seg.heap = std::make_unique_for_overwrite<std::byte[]>(cap);
  seg.capacity = cap;
  segments_.push_back(std::move(seg));
  resident_ += cap;
  mem_.set(resident_);
}

StateArena::Ref StateArena::append(const std::byte* data, std::size_t len) {
  const std::size_t need = 4 + len;
  if (segments_.empty() || segments_.back().used + need > segments_.back().capacity) {
    open_segment(need);
  }
  Segment& seg = segments_.back();
  std::byte* dst = seg.heap.get() + seg.used;
  const std::uint32_t n = static_cast<std::uint32_t>(len);
  for (int i = 0; i < 4; ++i) dst[i] = static_cast<std::byte>((n >> (8 * i)) & 0xff);
  std::memcpy(dst + 4, data, len);
  const Ref ref{static_cast<std::uint32_t>(segments_.size() - 1),
                static_cast<std::uint32_t>(seg.used)};
  seg.used += need;
  used_ += need;
  return ref;
}

std::pair<const std::byte*, std::size_t> StateArena::read(Ref ref) const {
  const std::byte* p = segments_[ref.segment].heap.get() + ref.offset;
  std::uint32_t n = 0;
  for (int i = 0; i < 4; ++i) n |= static_cast<std::uint32_t>(p[i]) << (8 * i);
  return {p + 4, n};
}

}  // namespace opentla
