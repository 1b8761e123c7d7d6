#include "src/index/btree.h"

#include <cassert>
#include <cstring>
#include <unordered_set>
#include <utility>

namespace relgraph {

// ---------------------------------------------------------------------------
// On-page layout
//
// Both node kinds share an 8-byte header at offset 0:
//   u8  is_leaf; u8 pad; u16 count; i32 next (leaf sibling / unused)
// Entries follow at offset 8 with a fixed stride:
//   leaf:     key i64 | tie i64 | payload[payload_size]
//   internal: key i64 | tie i64 | child i32 (+4 pad)   (stride 24)
// Internal separator entry 0 acts as -infinity: descent always lands in a
// child, and its stored key is maintained as a lower bound for readability.
// ---------------------------------------------------------------------------

namespace {

constexpr size_t kHeaderSize = 8;
constexpr size_t kInternalStride = 24;

struct NodeHeader {
  uint8_t is_leaf;
  uint8_t pad;
  uint16_t count;
  page_id_t next;
};

NodeHeader* Header(char* data) { return reinterpret_cast<NodeHeader*>(data); }
const NodeHeader* Header(const char* data) {
  return reinterpret_cast<const NodeHeader*>(data);
}

size_t LeafStride(uint16_t payload_size) { return 16 + payload_size; }

size_t LeafCapacity(uint16_t payload_size) {
  return (kPageSize - kHeaderSize) / LeafStride(payload_size);
}

size_t InternalCapacity() { return (kPageSize - kHeaderSize) / kInternalStride; }

char* LeafEntry(char* data, uint16_t i, uint16_t payload_size) {
  return data + kHeaderSize + static_cast<size_t>(i) * LeafStride(payload_size);
}
const char* LeafEntry(const char* data, uint16_t i, uint16_t payload_size) {
  return data + kHeaderSize + static_cast<size_t>(i) * LeafStride(payload_size);
}

char* InternalEntry(char* data, uint16_t i) {
  return data + kHeaderSize + static_cast<size_t>(i) * kInternalStride;
}
const char* InternalEntry(const char* data, uint16_t i) {
  return data + kHeaderSize + static_cast<size_t>(i) * kInternalStride;
}

BtKey ReadKey(const char* entry) {
  BtKey k;
  std::memcpy(&k.key, entry, 8);
  std::memcpy(&k.tie, entry + 8, 8);
  return k;
}

void WriteKey(char* entry, const BtKey& k) {
  std::memcpy(entry, &k.key, 8);
  std::memcpy(entry + 8, &k.tie, 8);
}

page_id_t ReadChild(const char* entry) {
  page_id_t c;
  std::memcpy(&c, entry + 16, 4);
  return c;
}

void WriteChild(char* entry, page_id_t c) { std::memcpy(entry + 16, &c, 4); }

/// First leaf position with entry key >= `key` (lower bound).
uint16_t LeafLowerBound(const char* data, const BtKey& key,
                        uint16_t payload_size) {
  const NodeHeader* h = Header(data);
  uint16_t lo = 0, hi = h->count;
  while (lo < hi) {
    uint16_t mid = (lo + hi) / 2;
    if (ReadKey(LeafEntry(data, mid, payload_size)).Compare(key) < 0) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

/// Child slot to descend into: last separator <= key (slot 0 is -infinity).
uint16_t InternalChildIndex(const char* data, const BtKey& key) {
  const NodeHeader* h = Header(data);
  uint16_t lo = 1, hi = h->count;  // entry 0 always qualifies
  while (lo < hi) {
    uint16_t mid = (lo + hi) / 2;
    if (ReadKey(InternalEntry(data, mid)).Compare(key) <= 0) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo - 1;
}

/// Header sanity a hardened walk checks before trusting a node: a 0/1
/// leaf flag and a count within the node's capacity. Only after this may
/// entries be dereferenced.
Status CheckNodeHeader(page_id_t page, const NodeHeader* h,
                       uint16_t payload_size) {
  if (h->is_leaf != 0 && h->is_leaf != 1) {
    return Status::Corruption("b+tree node " + std::to_string(page) +
                              " has invalid is_leaf flag " +
                              std::to_string(h->is_leaf));
  }
  const size_t capacity =
      h->is_leaf ? LeafCapacity(payload_size) : InternalCapacity();
  if (h->count > capacity) {
    return Status::Corruption("b+tree node " + std::to_string(page) +
                              " claims " + std::to_string(h->count) +
                              " entries, capacity is " +
                              std::to_string(capacity));
  }
  return Status::OK();
}

}  // namespace

std::string EncodeRid(const Rid& rid) {
  std::string out(8, 0);
  std::memcpy(out.data(), &rid.page_id, 4);
  std::memcpy(out.data() + 4, &rid.slot, 2);
  return out;
}

Rid DecodeRid(std::string_view payload) {
  Rid rid;
  assert(payload.size() >= 6);
  std::memcpy(&rid.page_id, payload.data(), 4);
  std::memcpy(&rid.slot, payload.data() + 4, 2);
  return rid;
}

Status BTree::Create(BufferPool* pool, uint16_t payload_size, BTree* out) {
  if (LeafCapacity(payload_size) < 4) {
    return Status::InvalidArgument("payload too large for a B+-tree page");
  }
  page_id_t id;
  Page* page;
  RELGRAPH_RETURN_IF_ERROR(pool->NewPage(&id, &page));
  NodeHeader* h = Header(page->data());
  h->is_leaf = 1;
  h->count = 0;
  h->next = kInvalidPageId;
  RELGRAPH_RETURN_IF_ERROR(pool->UnpinPage(id, /*is_dirty=*/true));
  out->pool_ = pool;
  out->root_ = id;
  out->payload_size_ = payload_size;
  out->num_entries_ = 0;
  return Status::OK();
}

Status BTree::FindLeaf(const BtKey& key, PageGuard* leaf,
                       DescentPath* path) const {
  page_id_t current = root_;
  for (;;) {
    // Each node is pinned once; a parent is unpinned before its child is
    // fetched, so the descent never holds more than one pin.
    PageGuard guard(pool_, current);
    RELGRAPH_RETURN_IF_ERROR(guard.status());
    const NodeHeader* h = Header(guard.data());
    if (h->is_leaf) {
      *leaf = std::move(guard);
      return Status::OK();
    }
    uint16_t idx = InternalChildIndex(guard.data(), key);
    if (path != nullptr) {
      if (path->size == DescentPath::kMaxDepth) {
        return Status::Corruption("B+-tree deeper than " +
                                  std::to_string(DescentPath::kMaxDepth) +
                                  " levels");
      }
      path->items[path->size++] = {current, idx};
    }
    current = ReadChild(InternalEntry(guard.data(), idx));
  }
}

Status BTree::Insert(BtKey key, std::string_view payload, bool unique) {
  if (payload.size() != payload_size_) {
    return Status::InvalidArgument("payload width mismatch");
  }
  DescentPath path;
  PageGuard guard;
  RELGRAPH_RETURN_IF_ERROR(FindLeaf(key, &guard, &path));
  char* data = guard.data();
  NodeHeader* h = Header(data);

  uint16_t pos = LeafLowerBound(data, key, payload_size_);
  if (pos < h->count) {
    BtKey existing = ReadKey(LeafEntry(data, pos, payload_size_));
    if (existing == key ||
        (unique && existing.key == key.key)) {
      return Status::AlreadyExists("duplicate key " + std::to_string(key.key));
    }
  }
  if (unique && pos > 0) {
    BtKey prev = ReadKey(LeafEntry(data, pos - 1, payload_size_));
    if (prev.key == key.key) {
      return Status::AlreadyExists("duplicate key " + std::to_string(key.key));
    }
  }

  if (h->count < LeafCapacity(payload_size_)) {
    size_t stride = LeafStride(payload_size_);
    char* at = LeafEntry(data, pos, payload_size_);
    std::memmove(at + stride, at,
                 static_cast<size_t>(h->count - pos) * stride);
    WriteKey(at, key);
    std::memcpy(at + 16, payload.data(), payload_size_);
    h->count++;
    guard.MarkDirty();
    num_entries_++;
    return Status::OK();
  }

  RELGRAPH_RETURN_IF_ERROR(SplitLeaf(&guard, &path, key, payload));
  num_entries_++;
  return Status::OK();
}

Status BTree::SplitLeaf(PageGuard* left, DescentPath* path,
                        const BtKey& pending_key,
                        std::string_view pending_payload) {
  char* ldata = left->data();
  NodeHeader* lh = Header(ldata);

  page_id_t right_id;
  Page* right_page;
  RELGRAPH_RETURN_IF_ERROR(pool_->NewPage(&right_id, &right_page));
  char* rdata = right_page->data();
  NodeHeader* rh = Header(rdata);
  rh->is_leaf = 1;

  size_t stride = LeafStride(payload_size_);
  uint16_t total = lh->count;
  // Rightmost split: an entry past the end of the last leaf starts an empty
  // right leaf and the left keeps everything, so a load in key order packs
  // its leaves full (the rule PostgreSQL and SQLite use). Every other split
  // is 50/50.
  const bool append =
      lh->next == kInvalidPageId &&
      ReadKey(LeafEntry(ldata, total - 1, payload_size_)) < pending_key;
  uint16_t keep = append ? total : total / 2;
  uint16_t moved = total - keep;
  std::memcpy(LeafEntry(rdata, 0, payload_size_),
              LeafEntry(ldata, keep, payload_size_),
              static_cast<size_t>(moved) * stride);
  rh->count = moved;
  lh->count = keep;
  rh->next = lh->next;
  lh->next = right_id;
  left->MarkDirty();

  BtKey sep =
      append ? pending_key : ReadKey(LeafEntry(rdata, 0, payload_size_));

  // Place the pending entry into whichever half owns its key range.
  {
    char* target = pending_key.Compare(sep) < 0 ? ldata : rdata;
    NodeHeader* th = Header(target);
    uint16_t pos = LeafLowerBound(target, pending_key, payload_size_);
    char* at = LeafEntry(target, pos, payload_size_);
    std::memmove(at + stride, at, static_cast<size_t>(th->count - pos) * stride);
    WriteKey(at, pending_key);
    std::memcpy(at + 16, pending_payload.data(), payload_size_);
    th->count++;
  }

  RELGRAPH_RETURN_IF_ERROR(pool_->UnpinPage(right_id, /*is_dirty=*/true));
  left->Release();
  return InsertIntoParent(path, sep, right_id);
}

Status BTree::InsertIntoParent(DescentPath* path, BtKey sep,
                               page_id_t new_child) {
  if (path->empty()) {
    // The split node was the root: grow the tree by one level.
    page_id_t old_root = root_;
    page_id_t new_root_id;
    Page* new_root;
    RELGRAPH_RETURN_IF_ERROR(pool_->NewPage(&new_root_id, &new_root));
    char* data = new_root->data();
    NodeHeader* h = Header(data);
    h->is_leaf = 0;
    h->count = 2;
    h->next = kInvalidPageId;
    WriteKey(InternalEntry(data, 0), BtKey{INT64_MIN, INT64_MIN});
    WriteChild(InternalEntry(data, 0), old_root);
    WriteKey(InternalEntry(data, 1), sep);
    WriteChild(InternalEntry(data, 1), new_child);
    RELGRAPH_RETURN_IF_ERROR(pool_->UnpinPage(new_root_id, /*is_dirty=*/true));
    root_ = new_root_id;
    return Status::OK();
  }

  Descent d = path->Pop();
  PageGuard guard(pool_, d.page);
  RELGRAPH_RETURN_IF_ERROR(guard.status());
  char* data = guard.page()->data();
  NodeHeader* h = Header(data);

  if (h->count < InternalCapacity()) {
    uint16_t pos = d.index + 1;  // new child goes right after the split child
    char* at = InternalEntry(data, pos);
    std::memmove(at + kInternalStride, at,
                 static_cast<size_t>(h->count - pos) * kInternalStride);
    WriteKey(at, sep);
    WriteChild(at, new_child);
    h->count++;
    guard.MarkDirty();
    return Status::OK();
  }

  // Split the internal node, then insert (sep, new_child) into the proper
  // half, then recurse upward with the right half's first separator.
  page_id_t right_id;
  Page* right_page;
  RELGRAPH_RETURN_IF_ERROR(pool_->NewPage(&right_id, &right_page));
  char* rdata = right_page->data();
  NodeHeader* rh = Header(rdata);
  rh->is_leaf = 0;
  rh->next = kInvalidPageId;

  uint16_t total = h->count;
  uint16_t keep = total / 2;
  uint16_t moved = total - keep;
  std::memcpy(InternalEntry(rdata, 0), InternalEntry(data, keep),
              static_cast<size_t>(moved) * kInternalStride);
  rh->count = moved;
  h->count = keep;
  guard.MarkDirty();

  BtKey up_sep = ReadKey(InternalEntry(rdata, 0));

  {
    // Insert the pending (sep, new_child). It belongs after child slot
    // d.index of the pre-split node.
    uint16_t pos = d.index + 1;
    char* target;
    NodeHeader* th;
    uint16_t tpos;
    if (pos <= keep) {
      target = data;
      th = h;
      tpos = pos;
    } else {
      target = rdata;
      th = rh;
      tpos = pos - keep;
    }
    char* at = InternalEntry(target, tpos);
    std::memmove(at + kInternalStride, at,
                 static_cast<size_t>(th->count - tpos) * kInternalStride);
    WriteKey(at, sep);
    WriteChild(at, new_child);
    th->count++;
  }

  RELGRAPH_RETURN_IF_ERROR(pool_->UnpinPage(right_id, /*is_dirty=*/true));
  guard.Release();
  return InsertIntoParent(path, up_sep, right_id);
}

Status BTree::Delete(BtKey key) {
  PageGuard guard;
  RELGRAPH_RETURN_IF_ERROR(FindLeaf(key, &guard, nullptr));
  char* data = guard.data();
  NodeHeader* h = Header(data);
  uint16_t pos = LeafLowerBound(data, key, payload_size_);
  if (pos >= h->count ||
      !(ReadKey(LeafEntry(data, pos, payload_size_)) == key)) {
    return Status::NotFound("key not in tree");
  }
  size_t stride = LeafStride(payload_size_);
  char* at = LeafEntry(data, pos, payload_size_);
  std::memmove(at, at + stride,
               static_cast<size_t>(h->count - pos - 1) * stride);
  h->count--;
  guard.MarkDirty();
  num_entries_--;
  return Status::OK();
}

Status BTree::SearchExact(BtKey key, std::string* payload) const {
  PageGuard guard;
  RELGRAPH_RETURN_IF_ERROR(FindLeaf(key, &guard, nullptr));
  const char* data = guard.data();
  const NodeHeader* h = Header(data);
  uint16_t pos = LeafLowerBound(data, key, payload_size_);
  if (pos >= h->count ||
      !(ReadKey(LeafEntry(data, pos, payload_size_)) == key)) {
    return Status::NotFound("key not in tree");
  }
  payload->assign(LeafEntry(data, pos, payload_size_) + 16, payload_size_);
  return Status::OK();
}

Status BTree::SearchFirst(int64_t key, BtKey* found,
                          std::string* payload) const {
  BtKey probe{key, INT64_MIN};
  PageGuard guard;
  RELGRAPH_RETURN_IF_ERROR(FindLeaf(probe, &guard, nullptr));
  for (;;) {
    const char* data = guard.data();
    const NodeHeader* h = Header(data);
    uint16_t pos = LeafLowerBound(data, probe, payload_size_);
    if (pos < h->count) {
      BtKey k = ReadKey(LeafEntry(data, pos, payload_size_));
      if (k.key != key) return Status::NotFound("key not in tree");
      *found = k;
      payload->assign(LeafEntry(data, pos, payload_size_) + 16, payload_size_);
      return Status::OK();
    }
    const page_id_t next = h->next;
    if (next == kInvalidPageId) return Status::NotFound("key not in tree");
    guard.Release();
    guard = PageGuard(pool_, next);
    RELGRAPH_RETURN_IF_ERROR(guard.status());
  }
}

Status BTree::UpdatePayload(BtKey key, std::string_view payload) {
  if (payload.size() != payload_size_) {
    return Status::InvalidArgument("payload width mismatch");
  }
  PageGuard guard;
  RELGRAPH_RETURN_IF_ERROR(FindLeaf(key, &guard, nullptr));
  char* data = guard.data();
  NodeHeader* h = Header(data);
  uint16_t pos = LeafLowerBound(data, key, payload_size_);
  if (pos >= h->count ||
      !(ReadKey(LeafEntry(data, pos, payload_size_)) == key)) {
    return Status::NotFound("key not in tree");
  }
  std::memcpy(LeafEntry(data, pos, payload_size_) + 16, payload.data(),
              payload_size_);
  guard.MarkDirty();
  return Status::OK();
}

BTree::Iterator BTree::Scan(int64_t key_lo, int64_t key_hi) const {
  Iterator it;
  it.tree_ = this;
  it.hi_ = key_hi;
  BtKey probe{key_lo, INT64_MIN};
  PageGuard guard;
  // A failed descent must poison the iterator, not fake a clean EOF: an
  // empty-looking range probe would silently drop rows (e.g. a shortest-path
  // frontier expansion "finding" no edges over a corrupted page).
  Status descent = FindLeaf(probe, &guard, nullptr);
  if (!descent.ok()) {
    it.leaf_ = kInvalidPageId;
    it.status_ = descent;
    return it;
  }
  it.leaf_ = guard.page()->page_id();
  it.pos_ = LeafLowerBound(guard.data(), probe, payload_size_);
  return it;
}

BTree::Iterator BTree::ScanAll() const { return Scan(INT64_MIN, INT64_MAX); }

bool BTree::Iterator::Next(BtKey* key, std::string* payload) {
  while (leaf_ != kInvalidPageId) {
    PageGuard guard(tree_->pool_, leaf_);
    if (!guard.ok()) {
      status_ = guard.status();  // surface I/O errors, don't fake EOF
      return false;
    }
    const char* data = guard.data();
    const NodeHeader* h = Header(data);
    if (pos_ < h->count) {
      const char* entry = LeafEntry(data, pos_, tree_->payload_size_);
      BtKey k = ReadKey(entry);
      if (k.key > hi_) {
        leaf_ = kInvalidPageId;
        return false;
      }
      *key = k;
      payload->assign(entry + 16, tree_->payload_size_);
      pos_++;
      return true;
    }
    leaf_ = h->next;
    pos_ = 0;
  }
  return false;
}

int BTree::Height() const {
  int height = 1;
  page_id_t current = root_;
  for (;;) {
    PageGuard guard(pool_, current);
    if (!guard.ok()) return height;
    const NodeHeader* h = Header(guard.data());
    if (h->is_leaf) return height;
    current = ReadChild(InternalEntry(guard.data(), 0));
    height++;
  }
}

BTree BTree::Open(BufferPool* pool, page_id_t root, uint16_t payload_size,
                  int64_t num_entries) {
  BTree t;
  t.pool_ = pool;
  t.root_ = root;
  t.payload_size_ = payload_size;
  t.num_entries_ = num_entries;
  return t;
}

Status BTree::Destroy() {
  if (root_ == kInvalidPageId) return Status::OK();
  // Collect every page first and free only when the whole walk succeeded,
  // so a failed walk frees nothing. The walk is hardened like
  // CheckIntegrity: ids are range-checked, headers are checked before any
  // child pointer is read, and a visited set rejects a page linked twice —
  // a hostile page can neither loop the walk nor put one id on the free
  // list twice.
  const page_id_t num_pages = pool_->disk()->num_pages();
  if (root_ < 0 || root_ >= num_pages) {
    return Status::Corruption("b+tree root " + std::to_string(root_) +
                              " is not an allocated page");
  }
  std::vector<page_id_t> pages{root_};
  std::unordered_set<page_id_t> visited{root_};
  for (size_t i = 0; i < pages.size(); i++) {
    PageGuard guard(pool_, pages[i]);
    RELGRAPH_RETURN_IF_ERROR(guard.status());
    const char* data = guard.data();
    const NodeHeader* h = Header(data);
    RELGRAPH_RETURN_IF_ERROR(CheckNodeHeader(pages[i], h, payload_size_));
    if (h->is_leaf) continue;
    for (uint16_t c = 0; c < h->count; c++) {
      const page_id_t child = ReadChild(InternalEntry(data, c));
      if (child < 0 || child >= num_pages) {
        return Status::Corruption(
            "b+tree node " + std::to_string(pages[i]) + " links child " +
            std::to_string(child) + ", not an allocated page");
      }
      if (!visited.insert(child).second) {
        return Status::Corruption("b+tree links page " +
                                  std::to_string(child) +
                                  " twice (shared subtree or cycle)");
      }
      pages.push_back(child);
    }
  }
  for (page_id_t id : pages) {
    RELGRAPH_RETURN_IF_ERROR(pool_->DeletePage(id));
  }
  root_ = kInvalidPageId;
  num_entries_ = 0;
  return Status::OK();
}

Status BTree::CheckIntegrity() const {
  // Walk the whole tree: every node's entries must be strictly ordered and,
  // for internal nodes, each child's keys must fall inside the separator
  // range. Leaves must chain left-to-right in key order.
  //
  // Hardened against hostile pages: the walk must terminate and stay in
  // bounds no matter what bytes a corrupted node holds. Concretely that
  // means (a) is_leaf must be 0/1 and count within the node's capacity
  // BEFORE any entry is dereferenced, (b) child and sibling page ids must
  // be allocated pages, and (c) a visited set rejects any page linked
  // twice — which both detects shared-subtree corruption and bounds the
  // traversal (no cycles, so no infinite loop).
  struct Frame {
    page_id_t page;
    bool has_lo;
    BtKey lo;
    bool has_hi;
    BtKey hi;
  };
  const page_id_t num_pages = pool_->disk()->num_pages();
  if (root_ < 0 || root_ >= num_pages) {
    return Status::Corruption("b+tree root " + std::to_string(root_) +
                              " is not an allocated page");
  }
  std::vector<Frame> stack{{root_, false, {}, false, {}}};
  std::unordered_set<page_id_t> visited;
  int64_t counted = 0;
  page_id_t first_leaf = kInvalidPageId;

  // First verify structure via DFS.
  while (!stack.empty()) {
    Frame f = stack.back();
    stack.pop_back();
    if (!visited.insert(f.page).second) {
      return Status::Corruption("b+tree links page " + std::to_string(f.page) +
                                " twice (shared subtree or cycle)");
    }
    PageGuard guard(pool_, f.page);
    RELGRAPH_RETURN_IF_ERROR(guard.status());
    const char* data = guard.data();
    const NodeHeader* h = Header(data);
    RELGRAPH_RETURN_IF_ERROR(CheckNodeHeader(f.page, h, payload_size_));
    if (h->is_leaf && first_leaf == kInvalidPageId && !f.has_lo) {
      first_leaf = f.page;  // leftmost descent reaches the chain head
    }
    BtKey prev{INT64_MIN, INT64_MIN};
    bool have_prev = false;
    for (uint16_t i = 0; i < h->count; i++) {
      BtKey k = h->is_leaf ? ReadKey(LeafEntry(data, i, payload_size_))
                           : ReadKey(InternalEntry(data, i));
      if (h->is_leaf || i > 0) {  // internal slot 0 is the -inf sentinel
        if (have_prev && !(prev < k)) {
          return Status::Corruption("unordered keys in node " +
                                    std::to_string(f.page));
        }
        if (f.has_lo && k < f.lo) {
          return Status::Corruption("key below separator range");
        }
        if (f.has_hi && !(k < f.hi)) {
          return Status::Corruption("key above separator range");
        }
        prev = k;
        have_prev = true;
      }
      if (h->is_leaf) counted++;
    }
    if (!h->is_leaf) {
      for (uint16_t i = 0; i < h->count; i++) {
        Frame child;
        child.page = ReadChild(InternalEntry(data, i));
        if (child.page < 0 || child.page >= num_pages) {
          return Status::Corruption(
              "b+tree node " + std::to_string(f.page) + " links child " +
              std::to_string(child.page) + ", not an allocated page");
        }
        child.has_lo = i > 0;
        if (child.has_lo) child.lo = ReadKey(InternalEntry(data, i));
        child.has_hi = (i + 1) < h->count;
        if (child.has_hi) child.hi = ReadKey(InternalEntry(data, i + 1));
        if (f.has_hi && !child.has_hi) {
          child.has_hi = true;
          child.hi = f.hi;
        }
        if (f.has_lo && !child.has_lo) {
          child.has_lo = true;
          child.lo = f.lo;
        }
        stack.push_back(child);
      }
    }
  }
  if (counted != num_entries_) {
    return Status::Corruption("entry count mismatch: tree has " +
                              std::to_string(counted) + ", expected " +
                              std::to_string(num_entries_));
  }

  // Then verify the leaf chain yields the same globally sorted sequence.
  // Walked manually (not via Iterator) with its own visited set: a
  // corrupted `next` pointer may form a cycle of pages the DFS never saw,
  // and an Iterator would spin in it forever.
  BtKey last_leaf_key{INT64_MIN, INT64_MIN};
  bool have_last = false;
  int64_t chained = 0;
  std::unordered_set<page_id_t> chain_visited;
  page_id_t leaf = first_leaf;
  while (leaf != kInvalidPageId) {
    if (leaf < 0 || leaf >= num_pages) {
      return Status::Corruption("leaf chain points at unallocated page " +
                                std::to_string(leaf));
    }
    if (!chain_visited.insert(leaf).second) {
      return Status::Corruption("leaf chain revisits page " +
                                std::to_string(leaf) + " (cycle)");
    }
    if (visited.find(leaf) == visited.end()) {
      return Status::Corruption("leaf chain includes page " +
                                std::to_string(leaf) +
                                " that is not part of the tree");
    }
    PageGuard guard(pool_, leaf);
    RELGRAPH_RETURN_IF_ERROR(guard.status());
    const char* data = guard.data();
    const NodeHeader* h = Header(data);
    if (!h->is_leaf) {
      return Status::Corruption("leaf chain passes through internal node " +
                                std::to_string(leaf));
    }
    for (uint16_t i = 0; i < h->count; i++) {
      BtKey k = ReadKey(LeafEntry(data, i, payload_size_));
      if (have_last && !(last_leaf_key < k)) {
        return Status::Corruption("leaf chain out of order");
      }
      last_leaf_key = k;
      have_last = true;
      chained++;
    }
    leaf = h->next;
  }
  if (chained != num_entries_) {
    return Status::Corruption("leaf chain count mismatch");
  }
  return Status::OK();
}

}  // namespace relgraph
