#include "src/sql/ast.h"

#include <sstream>

namespace relgraph::sql {

const char* BinaryOpName(BinaryOp op) {
  switch (op) {
    case BinaryOp::kAdd: return "+";
    case BinaryOp::kSub: return "-";
    case BinaryOp::kMul: return "*";
    case BinaryOp::kDiv: return "/";
    case BinaryOp::kEq: return "=";
    case BinaryOp::kNe: return "<>";
    case BinaryOp::kLt: return "<";
    case BinaryOp::kLe: return "<=";
    case BinaryOp::kGt: return ">";
    case BinaryOp::kGe: return ">=";
    case BinaryOp::kAnd: return "AND";
    case BinaryOp::kOr: return "OR";
  }
  return "?";
}

std::string Expr::ToString() const {
  switch (kind) {
    case ExprKind::kLiteral:
      if (literal.IsNull()) return "NULL";
      if (literal.type() == TypeId::kVarchar) {
        return "'" + literal.AsString() + "'";
      }
      return literal.ToString();
    case ExprKind::kColumnRef:
      return qualifier.empty() ? column : qualifier + "." + column;
    case ExprKind::kParameter:
      return ":" + param_name;
    case ExprKind::kUnary:
      return (unary_op == UnaryOp::kNot ? "NOT (" : "-(") + left->ToString() +
             ")";
    case ExprKind::kBinary:
      // Appended, not `"(" + ...`: GCC 12 at -O3 reports a false
      // -Wrestrict when a literal is prepended to a std::string.
      return std::string("(").append(left->ToString()).append(" ")
          .append(BinaryOpName(binary_op)).append(" ")
          .append(right->ToString()).append(")");
    case ExprKind::kFuncCall: {
      std::ostringstream os;
      os << func_name << "(";
      if (star_arg) os << "*";
      for (size_t i = 0; i < args.size(); i++) {
        if (i > 0) os << ", ";
        os << args[i]->ToString();
      }
      os << ")";
      if (window != nullptr) {
        os << " OVER (";
        if (!window->partition_by.empty()) {
          os << "PARTITION BY ";
          for (size_t i = 0; i < window->partition_by.size(); i++) {
            if (i > 0) os << ", ";
            os << window->partition_by[i]->ToString();
          }
        }
        if (!window->order_by.empty()) {
          if (!window->partition_by.empty()) os << " ";
          os << "ORDER BY ";
          for (size_t i = 0; i < window->order_by.size(); i++) {
            if (i > 0) os << ", ";
            os << window->order_by[i]->expr->ToString();
            if (!window->order_by[i]->ascending) os << " DESC";
          }
        }
        os << ")";
      }
      return os.str();
    }
    case ExprKind::kSubquery:
      return std::string("(").append(subquery->ToString()).append(")");
  }
  return "?";
}

std::string SelectStmt::ToString() const {
  std::ostringstream os;
  os << "SELECT ";
  if (distinct) os << "DISTINCT ";
  if (top.has_value()) os << "TOP " << *top << " ";
  for (size_t i = 0; i < items.size(); i++) {
    if (i > 0) os << ", ";
    if (items[i].expr == nullptr) {
      os << "*";
    } else {
      os << items[i].expr->ToString();
      if (!items[i].alias.empty()) os << " AS " << items[i].alias;
    }
  }
  if (!from.empty()) {
    os << " FROM ";
    for (size_t i = 0; i < from.size(); i++) {
      if (i > 0) os << ", ";
      const FromItem& fi = from[i];
      if (fi.kind == FromKind::kTable) {
        os << fi.table_name;
      } else {
        os << "(" << fi.subquery->ToString() << ")";
      }
      if (!fi.alias.empty() && fi.alias != fi.table_name) {
        os << " " << fi.alias;
      }
      if (!fi.column_aliases.empty()) {
        os << " (";
        for (size_t j = 0; j < fi.column_aliases.size(); j++) {
          if (j > 0) os << ", ";
          os << fi.column_aliases[j];
        }
        os << ")";
      }
    }
  }
  if (where != nullptr) os << " WHERE " << where->ToString();
  if (!group_by.empty()) {
    os << " GROUP BY ";
    for (size_t i = 0; i < group_by.size(); i++) {
      if (i > 0) os << ", ";
      os << group_by[i]->ToString();
    }
  }
  if (!order_by.empty()) {
    os << " ORDER BY ";
    for (size_t i = 0; i < order_by.size(); i++) {
      if (i > 0) os << ", ";
      os << order_by[i]->expr->ToString();
      if (!order_by[i]->ascending) os << " DESC";
    }
  }
  if (limit.has_value()) os << " LIMIT " << *limit;
  return os.str();
}

}  // namespace relgraph::sql
