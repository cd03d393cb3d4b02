#include "opentla/state/arena.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <string>

#include "opentla/obs/obs.hpp"

namespace opentla {

namespace {

constexpr std::size_t kDefaultSegmentBytes = std::size_t{1} << 20;  // 1 MiB

std::atomic<std::size_t> g_segment_bytes{kDefaultSegmentBytes};

/// Write `data` to an unlinked temp file and mmap it read-only. Returns
/// the mapping (null on any failure — the caller keeps the heap copy).
const std::byte* map_spilled(const std::byte* data, std::size_t len) {
  const char* dir = std::getenv("TMPDIR");
  if (dir == nullptr || *dir == '\0') dir = "/tmp";
  std::string tmpl = std::string(dir) + "/opentla-spill-XXXXXX";
  std::vector<char> path(tmpl.begin(), tmpl.end());
  path.push_back('\0');
  const int fd = ::mkstemp(path.data());
  if (fd < 0) return nullptr;
  // Unlink immediately: the mapping keeps the pages alive, and the file
  // never outlives the process even on a crash.
  ::unlink(path.data());
  std::size_t written = 0;
  while (written < len) {
    const ::ssize_t n = ::write(fd, data + written, len - written);
    if (n <= 0) {
      ::close(fd);
      return nullptr;
    }
    written += static_cast<std::size_t>(n);
  }
  void* mapped = ::mmap(nullptr, len, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);  // the mapping holds its own reference
  if (mapped == MAP_FAILED) return nullptr;
  return static_cast<const std::byte*>(mapped);
}

}  // namespace

void set_arena_segment_bytes_for_test(std::size_t bytes) {
  g_segment_bytes.store(bytes == 0 ? kDefaultSegmentBytes : bytes,
                        std::memory_order_relaxed);
}

std::size_t arena_segment_bytes() {
  return g_segment_bytes.load(std::memory_order_relaxed);
}

StateArena::StateArena(SpillGroup* group)
    : group_(group), default_segment_bytes_(arena_segment_bytes()) {}

StateArena::~StateArena() {
  for (Segment& seg : segments_) {
    if (seg.heap == nullptr && seg.base != nullptr) {
      ::munmap(const_cast<std::byte*>(seg.base), seg.capacity);
    }
  }
  if (group_ != nullptr) group_->sub_resident(resident_);
}

void StateArena::account() { mem_.set(resident_); }

void StateArena::open_segment(std::size_t min_bytes) {
  const std::size_t cap = std::max(default_segment_bytes_, min_bytes);
  Segment seg;
  // Not zero-filled: only the first `used` bytes are ever read or spilled,
  // so untouched capacity never becomes resident.
  seg.heap = std::make_unique_for_overwrite<std::byte[]>(cap);
  seg.base = seg.heap.get();
  seg.capacity = cap;
  segments_.push_back(std::move(seg));
  resident_ += cap;
  if (group_ != nullptr) group_->add_resident(cap);
  account();
}

StateArena::Ref StateArena::append(const std::byte* data, std::size_t len) {
  const std::size_t need = 4 + len;
  if (segments_.empty() || segments_.back().used + need > segments_.back().capacity) {
    open_segment(need);
    // Sealing the previous segment is the spill point: the active segment
    // is still being written, sealed ones never change again.
    if (group_ != nullptr && group_->over_threshold()) spill_sealed();
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
  const Segment& seg = segments_[ref.segment];
  const std::byte* p = seg.base + ref.offset;
  std::uint32_t n = 0;
  for (int i = 0; i < 4; ++i) n |= static_cast<std::uint32_t>(p[i]) << (8 * i);
  return {p + 4, n};
}

void StateArena::spill_sealed() {
  if (segments_.empty()) return;
  for (std::size_t i = 0; i + 1 < segments_.size(); ++i) {
    Segment& seg = segments_[i];
    if (seg.heap == nullptr) continue;  // already spilled
    const std::byte* mapped = map_spilled(seg.base, seg.used);
    if (mapped == nullptr) return;  // disk/map failure: stay resident
    const std::size_t freed = seg.capacity;
    seg.heap.reset();
    seg.base = mapped;
    seg.capacity = seg.used;  // munmap length
    resident_ -= freed;
    if (group_ != nullptr) group_->sub_resident(freed);
    ++spilled_;
    OPENTLA_OBS_COUNT(SpillSegments);
  }
  account();
}

}  // namespace opentla
