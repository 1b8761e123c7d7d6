#include "src/exec/executor.h"

namespace relgraph {

void BatchSpan::AppendTo(std::vector<Tuple>* out) const {
  const size_t n = count();
  out->reserve(out->size() + n);
  for (size_t i = 0; i < n; i++) {
    if (scratch != nullptr) {
      out->push_back(std::move(scratch[index(i)]));
    } else {
      out->push_back(row(i));
    }
  }
}

bool Executor::Next(Tuple* out) {
  while (cursor_lane_ >= cursor_.count()) {
    if (!NextBatchSel(&cursor_)) {
      cursor_ = BatchSpan{};
      cursor_lane_ = 0;
      return false;
    }
    cursor_lane_ = 0;
  }
  cursor_.Take(cursor_lane_++, out);
  return true;
}

void Executor::Explain(int depth, std::string* out) const {
  Indent(depth, out);
  out->append("Operator\n");
}

Status Collect(Executor* exec, std::vector<Tuple>* out) {
  RELGRAPH_RETURN_IF_ERROR(exec->Init());
  BatchSpan span;
  while (exec->NextBatchSel(&span)) span.AppendTo(out);
  return exec->status();
}

void TrimSlots(std::vector<Tuple>* slots) {
  if (slots->size() <= kRetainedSlots) return;
  slots->resize(kRetainedSlots);
  slots->shrink_to_fit();
}

Status CollectInto(Executor* exec, std::vector<Tuple>* slots, size_t* n) {
  *n = 0;
  TrimSlots(slots);
  RELGRAPH_RETURN_IF_ERROR(exec->Init());
  BatchSpan span;
  while (exec->NextBatchSel(&span)) {
    const size_t lanes = span.count();
    if (slots->size() < *n + lanes) slots->resize(*n + lanes);
    for (size_t i = 0; i < lanes; i++) span.Take(i, &(*slots)[(*n)++]);
  }
  return exec->status();
}

}  // namespace relgraph
