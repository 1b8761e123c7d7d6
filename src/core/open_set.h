#pragma once

#include <memory>
#include <string>

#include "src/catalog/table.h"
#include "src/exec/bind_context.h"
#include "src/exec/dml_executors.h"
#include "src/exec/executor.h"
#include "src/exec/expression.h"

namespace relgraph {

/// Structured form of the F-operator's frontier-selection conjunct (the part
/// of Listing 4(1)'s WHERE beyond `flag = 0 AND dist < Max`). Keeping it
/// structured — rather than an opaque expression — lets OpenSet choose an
/// indexed access path (a dist-range or key probe) while ToPredicate() still
/// yields the exact SQL text.
struct FrontierSpec {
  enum class Kind {
    kAll,     // every open candidate (BBFS)
    kNode,    // key = node (DJ / BDJ / Prim: one node at a time)
    kDistEq,  // dist = level (BSDJ: the minimum-distance set)
    kDistOr,  // dist <= bound OR dist = level (BSEG selective expansion,
              // SegTable construction)
  };
  Kind kind = Kind::kAll;
  node_id_t node = kInvalidNode;
  weight_t level = 0;
  weight_t bound = 0;

  static FrontierSpec All() { return {}; }
  static FrontierSpec Node(node_id_t n) {
    return {Kind::kNode, n, 0, 0};
  }
  static FrontierSpec DistEq(weight_t level) {
    return {Kind::kDistEq, kInvalidNode, level, 0};
  }
  static FrontierSpec DistOr(weight_t bound, weight_t level) {
    return {Kind::kDistOr, kInvalidNode, level, bound};
  }

  /// The conjunct over columns `key` and `dist`, with the spec's values as
  /// literals; nullptr for kAll. Identical tree shape to the one the
  /// prepared mark evaluates, so recorded SQL text names the same rule.
  ExprRef ToPredicate(const std::string& key, const std::string& dist) const;
};

/// The F-operator (§3.2), defined once: the open set of a keyed FEM working
/// table — its rows with `flag` = 0 and `dist` below kInfinity — read,
/// marked and finalized through the table's (flag, dist) open tree
/// (CreateKeyedTable's `open_trees`). TVisited keeps one per direction;
/// SegTable construction and Prim's MST keep one for their working table.
///
/// Each operation names the key range its WHERE clause implies and leaves
/// the access path to Table::ScanRange / FirstInRange: the open tree (or
/// the key tree, for a node probe) on Index/CluIndex, a filtered full scan
/// on NoIndex. Every range but the node probe is "flag = c AND lo <= dist
/// <= hi" with hi below kInfinity, so both serve the same rows, and the
/// statement's full predicate stays the residual.
///
/// The UPDATEs are prepared on first use — predicate and SET list bound to
/// the table once, the spec's node, level and bound read from a
/// BindContext this set owns — and re-run every round. The candidate
/// iterator and the plans' row buffers are reused, so a warm round's
/// frontier statements allocate nothing up to kRetainedSlots rows. Plans
/// point into the set, so it stays where it was built. Callers record
/// their own statements.
class OpenSet {
 public:
  OpenSet(Table* table, std::string key, std::string flag, std::string dist);
  OpenSet(const OpenSet&) = delete;
  OpenSet& operator=(const OpenSet&) = delete;

  /// The open row with the least dist, ties going to the first in its
  /// access path's order: the open tree's (dist, row locator) order on
  /// Index/CluIndex, Scan() order on NoIndex (Table::FirstInRange). It
  /// answers Listing 4(4)'s MIN(dist) and Listing 2(2)'s TOP 1.
  /// `dist` = kInfinity and `key` = kInvalidNode when no row is open.
  Status Least(weight_t* dist, int64_t* key);

  /// Listing 4(1): flag := 2 for open rows satisfying `spec`: a range on
  /// the key or on dist, or every open row for kAll. `marked` returns the
  /// affected-row count.
  Status Mark(const FrontierSpec& spec, int64_t* marked);

  /// Listing 4(3): flag := 1 for flag = 2 rows. A frontier row was open
  /// when marked and distances only fall, so every flag = 2 row lies in
  /// the open tree's flag = 2 range.
  Status Finalize(int64_t* affected);

  /// Source executor over the marked frontier (flag = 2) for the
  /// E-operator join: in (dist, row locator) order through the open tree
  /// on Index/CluIndex, in scan order on NoIndex.
  ExecRef FrontierScan() const;

 private:
  /// The prepared mark UPDATE for `kind`, built on first use.
  UpdatePlan* MarkPlan(FrontierSpec::Kind kind);

  Table* table_;
  std::string key_, flag_, dist_;
  size_t key_idx_, dist_idx_;
  BindContext params_;  // the FrontierSpec's node, level and bound
  size_t node_slot_, level_slot_, bound_slot_;
  std::unique_ptr<UpdatePlan> mark_[4];  // by FrontierSpec::Kind
  std::unique_ptr<UpdatePlan> finalize_;
  Table::Iterator candidates_;  // the running statement's candidate rows
  Tuple row_;                   // Least's row
};

}  // namespace relgraph
