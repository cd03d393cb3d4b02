// opentla/state/arena.hpp
//
// Append-only byte arenas for canonical state encodings. The
// fingerprinted stores (state.hpp, sharded_store.hpp) keep exactly one
// copy of every interned state: its canonical encoding (fingerprint.hpp),
// written once into a StateArena and addressed by a compact 8-byte Ref.
// Records are u32-length-prefixed and live in fixed-size heap segments; a
// segment that fills up is sealed and a fresh one opened. Segments are
// never moved or freed before the arena dies, so a record's bytes stay
// at one address for the arena's lifetime.
//
// Thread safety: none — every arena is externally synchronized (the
// serial StateStore is single-threaded; each ShardedStateSet shard
// guards its arena with the shard mutex).

#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "opentla/obs/memory.hpp"

namespace opentla {

/// TEST HOOK: shrink the arena segment size (default 1 MiB) so the
/// multi-segment path is exercised on tiny state sets. 0 restores the
/// default. Applies to arenas created afterwards.
void set_arena_segment_bytes_for_test(std::size_t bytes);
std::size_t arena_segment_bytes();

class StateArena {
 public:
  /// Compact address of one record: segment index + byte offset of its
  /// u32 length prefix within the segment.
  struct Ref {
    std::uint32_t segment = 0;
    std::uint32_t offset = 0;
  };

  /// Segment bytes are charged to MemDomain::StateStore.
  StateArena();
  StateArena(const StateArena&) = delete;
  StateArena& operator=(const StateArena&) = delete;

  /// Appends one length-prefixed record; the bytes are copied. The
  /// returned Ref is stable for the arena's lifetime.
  Ref append(const std::byte* data, std::size_t len);

  /// The record at `ref`: pointer to its payload bytes + payload length.
  /// The pointer stays valid, and the bytes unchanged, for the arena's
  /// lifetime: later appends never move or free a record.
  std::pair<const std::byte*, std::size_t> read(Ref ref) const;

  std::size_t segment_count() const { return segments_.size(); }
  /// Heap bytes held by the segments (capacity).
  std::uint64_t resident_bytes() const { return resident_; }
  /// Total record bytes appended (length prefixes included).
  std::uint64_t used_bytes() const { return used_; }

 private:
  struct Segment {
    std::unique_ptr<std::byte[]> heap;
    std::size_t capacity = 0;
    std::size_t used = 0;
  };

  void open_segment(std::size_t min_bytes);

  std::vector<Segment> segments_;
  std::size_t default_segment_bytes_;
  std::uint64_t resident_ = 0;
  std::uint64_t used_ = 0;
  obs::MemTally mem_{obs::MemDomain::StateStore};
};

}  // namespace opentla
