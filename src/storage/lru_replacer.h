#pragma once

#include <cstdint>
#include <vector>

#include "src/common/config.h"

namespace relgraph {

/// Exact-LRU victim picker for the buffer pool. Frames become candidates
/// when their pin count drops to zero (Unpin) and stop being candidates
/// when re-pinned (Pin). Victim() evicts the least-recently unpinned frame.
///
/// The candidates form an intrusive doubly linked list threaded through
/// frame-indexed `prev_`/`next_` arrays sized to the pool, so Pin, Unpin
/// and Victim are O(1) array updates: no hashing, no allocation. Frame ids
/// must lie in [0, capacity); anything else is a caller bug (asserted).
class LruReplacer {
 public:
  explicit LruReplacer(size_t capacity);

  /// Picks the least-recently-used evictable frame. Returns false when no
  /// frame is evictable (all pinned).
  bool Victim(frame_id_t* frame_id);

  /// Removes a frame from the candidate set (it was pinned).
  void Pin(frame_id_t frame_id);

  /// Adds a frame to the candidate set (pin count reached zero). Re-unpinning
  /// an already-present frame refreshes its recency.
  void Unpin(frame_id_t frame_id);

  size_t Size() const { return size_; }

 private:
  void Unlink(frame_id_t frame_id);

  /// Index `capacity` is the list's sentinel: next_[sentinel] is the
  /// oldest candidate, prev_[sentinel] the newest.
  const frame_id_t sentinel_;
  std::vector<frame_id_t> prev_;
  std::vector<frame_id_t> next_;
  std::vector<uint8_t> in_list_;  // per frame: 1 while a candidate
  size_t size_ = 0;
};

}  // namespace relgraph
