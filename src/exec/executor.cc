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

}  // namespace relgraph
