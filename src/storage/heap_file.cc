#include "src/storage/heap_file.h"

#include <functional>
#include <unordered_set>
#include <vector>

namespace relgraph {

Status HeapFile::Create(BufferPool* pool, HeapFile* out) {
  page_id_t id;
  Page* page;
  RELGRAPH_RETURN_IF_ERROR(pool->NewPage(&id, &page));
  SlottedPage sp(page->data());
  sp.Init();
  RELGRAPH_RETURN_IF_ERROR(pool->UnpinPage(id, /*is_dirty=*/true));
  out->pool_ = pool;
  out->first_page_ = id;
  out->last_page_ = id;
  return Status::OK();
}

HeapFile HeapFile::Open(BufferPool* pool, page_id_t first_page,
                        page_id_t last_page) {
  HeapFile f;
  f.pool_ = pool;
  f.first_page_ = first_page;
  f.last_page_ = last_page;
  return f;
}

Status HeapFile::Insert(std::string_view record, Rid* rid) {
  PageGuard guard(pool_, last_page_);
  RELGRAPH_RETURN_IF_ERROR(guard.status());
  SlottedPage sp(guard.data());
  slot_id_t slot;
  Status st = sp.Insert(record, &slot);
  if (st.ok()) {
    guard.MarkDirty();
    rid->page_id = last_page_;
    rid->slot = slot;
    return Status::OK();
  }
  if (!st.IsResourceExhausted()) return st;

  // Current tail is full: chain a fresh page.
  page_id_t new_id;
  Page* new_page;
  RELGRAPH_RETURN_IF_ERROR(pool_->NewPage(&new_id, &new_page));
  SlottedPage new_sp(new_page->data());
  new_sp.Init();
  st = new_sp.Insert(record, &slot);
  if (st.ok()) {
    rid->page_id = new_id;
    rid->slot = slot;
  }
  RELGRAPH_RETURN_IF_ERROR(pool_->UnpinPage(new_id, /*is_dirty=*/true));
  RELGRAPH_RETURN_IF_ERROR(st);

  sp.set_next_page_id(new_id);
  guard.MarkDirty();
  last_page_ = new_id;
  return Status::OK();
}

Status HeapFile::Get(const Rid& rid, std::string* out) const {
  PageGuard guard(pool_, rid.page_id);
  RELGRAPH_RETURN_IF_ERROR(guard.status());
  SlottedPage sp(guard.data());
  std::string_view view;
  RELGRAPH_RETURN_IF_ERROR(sp.Get(rid.slot, &view));
  out->assign(view.data(), view.size());
  return Status::OK();
}

Status HeapFile::Update(const Rid& rid, std::string_view record) {
  PageGuard guard(pool_, rid.page_id);
  RELGRAPH_RETURN_IF_ERROR(guard.status());
  SlottedPage sp(guard.data());
  RELGRAPH_RETURN_IF_ERROR(sp.Update(rid.slot, record));
  guard.MarkDirty();
  return Status::OK();
}

Status HeapFile::Delete(const Rid& rid) {
  PageGuard guard(pool_, rid.page_id);
  RELGRAPH_RETURN_IF_ERROR(guard.status());
  SlottedPage sp(guard.data());
  RELGRAPH_RETURN_IF_ERROR(sp.Delete(rid.slot));
  guard.MarkDirty();
  return Status::OK();
}

Status HeapFile::WalkChain(
    const std::function<Status(page_id_t, const SlottedPage&)>& visit) const {
  std::unordered_set<page_id_t> visited;
  page_id_t id = first_page_;
  bool saw_last = false;
  while (id != kInvalidPageId) {
    if (id < 0 || id >= pool_->disk()->num_pages()) {
      return Status::Corruption("heap chain points at unallocated page " +
                                std::to_string(id));
    }
    if (!visited.insert(id).second) {
      return Status::Corruption("heap chain revisits page " +
                                std::to_string(id) + " (cycle)");
    }
    PageGuard guard(pool_, id);
    RELGRAPH_RETURN_IF_ERROR(guard.status());
    const SlottedPage sp(guard.data());
    RELGRAPH_RETURN_IF_ERROR(visit(id, sp));
    saw_last = saw_last || id == last_page_;
    id = sp.next_page_id();
  }
  if (!saw_last) {
    return Status::Corruption("heap chain never reaches last page " +
                              std::to_string(last_page_));
  }
  return Status::OK();
}

Status HeapFile::CheckConsistency(int64_t* live_records) const {
  if (live_records != nullptr) *live_records = 0;
  return WalkChain([&](page_id_t, const SlottedPage& sp) {
    RELGRAPH_RETURN_IF_ERROR(sp.CheckConsistency());
    if (live_records != nullptr) {
      for (slot_id_t s = 0; s < sp.num_slots(); s++) {
        if (!sp.IsDeleted(s)) (*live_records)++;
      }
    }
    return Status::OK();
  });
}

Status HeapFile::Destroy() {
  if (first_page_ == kInvalidPageId) return Status::OK();
  // Collect first, free after: a walk that fails frees nothing.
  std::vector<page_id_t> pages;
  RELGRAPH_RETURN_IF_ERROR(WalkChain([&](page_id_t id, const SlottedPage&) {
    pages.push_back(id);
    return Status::OK();
  }));
  for (page_id_t id : pages) {
    RELGRAPH_RETURN_IF_ERROR(pool_->DeletePage(id));
  }
  first_page_ = kInvalidPageId;
  last_page_ = kInvalidPageId;
  return Status::OK();
}

HeapFile::Iterator::Iterator(const HeapFile* file, BufferPool* pool)
    : file_(file), pool_(pool), page_id_(file->first_page()), slot_(0) {}

bool HeapFile::Iterator::Next(Rid* rid, std::string* record) {
  while (page_id_ != kInvalidPageId) {
    PageGuard guard(pool_, page_id_);
    if (!guard.ok()) {
      status_ = guard.status();  // surface I/O errors, don't fake EOF
      return false;
    }
    SlottedPage sp(guard.data());
    while (slot_ < sp.num_slots()) {
      slot_id_t current = slot_++;
      std::string_view view;
      if (sp.Get(current, &view).ok()) {
        rid->page_id = page_id_;
        rid->slot = current;
        record->assign(view.data(), view.size());
        return true;
      }
    }
    page_id_ = sp.next_page_id();
    slot_ = 0;
  }
  return false;
}

}  // namespace relgraph
