#pragma once

#include <cstddef>
#include <cstdint>

namespace relgraph {

/// Size of one storage page in bytes. Everything the engine persists —
/// heap-file slotted pages and B+-tree nodes — is a multiple of this unit,
/// and the buffer pool caches whole pages.
constexpr size_t kPageSize = 4096;

using page_id_t = int32_t;
using frame_id_t = int32_t;
using slot_id_t = uint16_t;

constexpr page_id_t kInvalidPageId = -1;

/// Record id: physical address of a tuple inside a heap file.
struct Rid {
  page_id_t page_id = kInvalidPageId;
  slot_id_t slot = 0;

  bool operator==(const Rid& other) const = default;
  bool IsValid() const { return page_id != kInvalidPageId; }
};

/// Most lanes one Executor::NextBatchSel() pull carries, and so the rows
/// one Expression::EvalBatch() column loop evaluates. Large enough to
/// amortize per-batch virtual dispatch and name resolution, small enough
/// to stay cache-resident.
constexpr size_t kExecBatchSize = 1024;

/// Minimum surviving rows for a filter to forward a selection vector over
/// its child's batch instead of compacting the survivors into a dense copy.
/// Below this, a compact copy is cheaper than making every downstream
/// operator gather through the indirection; above it, skipping the copy
/// wins.
constexpr size_t kSelVectorMinRows = 8;

/// Node identifier in a graph (matches the paper's `nid`/`fid`/`tid`).
using node_id_t = int64_t;
/// Edge weight / path distance. The paper uses integer weights in [1,100];
/// int64 distances cannot overflow on any graph we can store.
using weight_t = int64_t;

constexpr node_id_t kInvalidNode = -1;
/// Stand-in for the SQL `Max` literal in Listing 4(2) (unknown distance).
constexpr weight_t kInfinity = INT64_MAX / 4;

}  // namespace relgraph
