#include "src/storage/buffer_pool.h"

#include <algorithm>
#include <cstring>

namespace relgraph {

BufferPool::BufferPool(size_t pool_size, DiskManager* disk,
                       bool concurrent_readers)
    : pool_size_(pool_size),
      concurrent_readers_(concurrent_readers),
      disk_(disk),
      page_table_(static_cast<size_t>(disk->num_pages()), kNotResident),
      replacer_(pool_size) {}

void BufferPool::MapPage(page_id_t page_id, frame_id_t frame) {
  const size_t need = static_cast<size_t>(page_id) + 1;
  if (need > page_table_.size()) {
    page_table_.resize(std::max(need, 2 * page_table_.size()), kNotResident);
  }
  page_table_[page_id] = frame;
}

Status BufferPool::GetFreeFrame(frame_id_t* frame_id) {
  if (!free_list_.empty()) {
    *frame_id = free_list_.back();
    free_list_.pop_back();
    return Status::OK();
  }
  if (frames_.size() < pool_size_) {
    *frame_id = static_cast<frame_id_t>(frames_.size());
    frames_.push_back(std::make_unique<Page>());
    return Status::OK();
  }
  if (!replacer_.Victim(frame_id)) {
    return Status::ResourceExhausted("all buffer frames are pinned");
  }
  Page* victim = frames_[*frame_id].get();
  stats_.evictions++;
  if (victim->is_dirty_) {
    stats_.dirty_writebacks++;
    RELGRAPH_RETURN_IF_ERROR(disk_->WritePage(victim->page_id_, victim->data_));
    victim->is_dirty_ = false;
  }
  page_table_[victim->page_id_] = kNotResident;
  victim->page_id_ = kInvalidPageId;
  return Status::OK();
}

Status BufferPool::FetchPage(page_id_t page_id, Page** out) {
  OptionalLock lock(this);
  const frame_id_t resident = FrameOf(page_id);
  if (resident != kNotResident) {
    stats_.hits++;
    Page* page = frames_[resident].get();
    if (page->pin_count_ == 0) replacer_.Pin(resident);
    page->pin_count_++;
    *out = page;
    return Status::OK();
  }
  stats_.misses++;
  frame_id_t frame;
  RELGRAPH_RETURN_IF_ERROR(GetFreeFrame(&frame));
  Page* page = frames_[frame].get();
  Status st = disk_->ReadPage(page_id, page->data_);
  if (!st.ok()) {
    free_list_.push_back(frame);
    return st;
  }
  page->page_id_ = page_id;
  page->pin_count_ = 1;
  page->is_dirty_ = false;
  MapPage(page_id, frame);
  *out = page;
  return Status::OK();
}

Status BufferPool::NewPage(page_id_t* page_id, Page** out) {
  OptionalLock lock(this);
  frame_id_t frame;
  RELGRAPH_RETURN_IF_ERROR(GetFreeFrame(&frame));
  *page_id = disk_->AllocatePage();
  Page* page = frames_[frame].get();
  std::memset(page->data_, 0, kPageSize);
  page->page_id_ = *page_id;
  page->pin_count_ = 1;
  page->is_dirty_ = true;  // a new page must reach disk at least once
  MapPage(*page_id, frame);
  *out = page;
  return Status::OK();
}

Status BufferPool::DeletePage(page_id_t page_id) {
  OptionalLock lock(this);
  const frame_id_t frame = FrameOf(page_id);
  if (frame != kNotResident) {
    Page* page = frames_[frame].get();
    if (page->pin_count_ > 0) {
      return Status::InvalidArgument("delete of pinned page " +
                                     std::to_string(page_id));
    }
    replacer_.Pin(frame);  // no longer an eviction candidate
    page->page_id_ = kInvalidPageId;
    page->is_dirty_ = false;
    page_table_[page_id] = kNotResident;
    free_list_.push_back(frame);
  }
  return disk_->DeallocatePage(page_id);
}

Status BufferPool::UnpinPage(page_id_t page_id, bool is_dirty) {
  OptionalLock lock(this);
  const frame_id_t frame = FrameOf(page_id);
  if (frame == kNotResident) {
    return Status::NotFound("unpin of non-resident page " +
                            std::to_string(page_id));
  }
  Page* page = frames_[frame].get();
  if (page->pin_count_ <= 0) {
    return Status::Internal("unpin of unpinned page " +
                            std::to_string(page_id));
  }
  page->is_dirty_ = page->is_dirty_ || is_dirty;
  page->pin_count_--;
  if (page->pin_count_ == 0) replacer_.Unpin(frame);
  return Status::OK();
}

Status BufferPool::FlushPage(page_id_t page_id) {
  OptionalLock lock(this);
  const frame_id_t frame = FrameOf(page_id);
  if (frame == kNotResident) return Status::OK();
  Page* page = frames_[frame].get();
  if (page->is_dirty_) {
    RELGRAPH_RETURN_IF_ERROR(disk_->WritePage(page_id, page->data_));
    page->is_dirty_ = false;
  }
  return Status::OK();
}

Status BufferPool::FlushAll() {
  OptionalLock lock(this);
  for (const auto& page : frames_) {
    if (page->is_dirty_) {
      RELGRAPH_RETURN_IF_ERROR(disk_->WritePage(page->page_id_, page->data_));
      page->is_dirty_ = false;
    }
  }
  return Status::OK();
}

size_t BufferPool::PinnedFrames() const {
  OptionalLock lock(this);
  size_t n = 0;
  for (const auto& f : frames_) {
    if (f->pin_count() > 0) n++;
  }
  return n;
}

size_t BufferPool::allocated_frames() const {
  OptionalLock lock(this);
  return frames_.size();
}

}  // namespace relgraph
