#include "src/storage/lru_replacer.h"

#include <cassert>

namespace relgraph {

LruReplacer::LruReplacer(size_t capacity)
    : sentinel_(static_cast<frame_id_t>(capacity)),
      prev_(capacity + 1, sentinel_),
      next_(capacity + 1, sentinel_),
      in_list_(capacity, 0) {}

void LruReplacer::Unlink(frame_id_t frame_id) {
  next_[prev_[frame_id]] = next_[frame_id];
  prev_[next_[frame_id]] = prev_[frame_id];
  in_list_[frame_id] = 0;
  size_--;
}

bool LruReplacer::Victim(frame_id_t* frame_id) {
  if (size_ == 0) return false;
  *frame_id = next_[sentinel_];
  Unlink(*frame_id);
  return true;
}

void LruReplacer::Pin(frame_id_t frame_id) {
  assert(frame_id >= 0 && frame_id < sentinel_);
  if (in_list_[frame_id]) Unlink(frame_id);
}

void LruReplacer::Unpin(frame_id_t frame_id) {
  assert(frame_id >= 0 && frame_id < sentinel_);
  if (in_list_[frame_id]) Unlink(frame_id);  // refresh recency
  assert(size_ < in_list_.size());
  const frame_id_t newest = prev_[sentinel_];
  prev_[frame_id] = newest;
  next_[frame_id] = sentinel_;
  next_[newest] = frame_id;
  prev_[sentinel_] = frame_id;
  in_list_[frame_id] = 1;
  size_++;
}

}  // namespace relgraph
