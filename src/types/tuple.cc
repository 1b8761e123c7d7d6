#include "src/types/tuple.h"

#include <algorithm>
#include <cassert>
#include <cstring>

namespace relgraph {

namespace {
void PutU64(std::string* out, uint64_t v) {
  char buf[8];
  std::memcpy(buf, &v, 8);
  out->append(buf, 8);
}
bool GetU64(std::string_view data, size_t* pos, uint64_t* v) {
  if (*pos + 8 > data.size()) return false;
  std::memcpy(v, data.data() + *pos, 8);
  *pos += 8;
  return true;
}
}  // namespace

std::string Tuple::Serialize(const Schema& schema) const {
  std::string out;
  SerializeTo(schema, &out);
  return out;
}

void Tuple::SerializeTo(const Schema& schema, std::string* out) const {
  assert(values_.size() == schema.NumColumns());
  size_t n = values_.size();
  size_t bitmap_bytes = (n + 7) / 8;
  out->assign(bitmap_bytes, 0);
  for (size_t i = 0; i < n; i++) {
    const Value& v = values_[i];
    if (v.IsNull()) {
      (*out)[i / 8] = static_cast<char>((*out)[i / 8] | (1 << (i % 8)));
      continue;
    }
    switch (schema.column(i).type) {
      case TypeId::kInt: {
        PutU64(out, static_cast<uint64_t>(v.AsInt()));
        break;
      }
      case TypeId::kDouble: {
        double d = v.AsDouble();
        uint64_t bits;
        std::memcpy(&bits, &d, 8);
        PutU64(out, bits);
        break;
      }
      case TypeId::kVarchar: {
        const std::string& s = v.AsString();
        assert(s.size() <= 0xFFFF);
        uint16_t len = static_cast<uint16_t>(s.size());
        char buf[2];
        std::memcpy(buf, &len, 2);
        out->append(buf, 2);
        out->append(s);
        break;
      }
      case TypeId::kNull:
        break;
    }
  }
}

Status Tuple::Deserialize(const Schema& schema, std::string_view data,
                          Tuple* out) {
  size_t n = schema.NumColumns();
  size_t bitmap_bytes = (n + 7) / 8;
  if (data.size() < bitmap_bytes) {
    return Status::Corruption("tuple shorter than null bitmap");
  }
  std::vector<Value>& values = out->values_;
  values.resize(n);
  size_t pos = bitmap_bytes;
  for (size_t i = 0; i < n; i++) {
    bool is_null = (data[i / 8] >> (i % 8)) & 1;
    if (is_null) {
      values[i].SetNull();
      continue;
    }
    switch (schema.column(i).type) {
      case TypeId::kInt: {
        uint64_t v;
        if (!GetU64(data, &pos, &v)) return Status::Corruption("short int");
        values[i].SetInt(static_cast<int64_t>(v));
        break;
      }
      case TypeId::kDouble: {
        uint64_t bits;
        if (!GetU64(data, &pos, &bits)) {
          return Status::Corruption("short double");
        }
        double d;
        std::memcpy(&d, &bits, 8);
        values[i] = Value(d);
        break;
      }
      case TypeId::kVarchar: {
        if (pos + 2 > data.size()) return Status::Corruption("short varlen");
        uint16_t len;
        std::memcpy(&len, data.data() + pos, 2);
        pos += 2;
        if (pos + len > data.size()) return Status::Corruption("short string");
        values[i] = Value(std::string(data.substr(pos, len)));
        pos += len;
        break;
      }
      case TypeId::kNull:
        values[i].SetNull();
        break;
    }
  }
  return Status::OK();
}

std::string Tuple::ToString() const {
  std::string out = "[";
  for (size_t i = 0; i < values_.size(); i++) {
    if (i > 0) out += ", ";
    out += values_[i].ToString();
  }
  out += "]";
  return out;
}

bool Tuple::operator==(const Tuple& other) const {
  if (values_.size() != other.values_.size()) return false;
  for (size_t i = 0; i < values_.size(); i++) {
    if (values_[i].Compare(other.values_[i]) != 0) return false;
  }
  return true;
}

void Tuple::AssignConcat(const Tuple& left, const Tuple& right) {
  const size_t nl = left.values_.size();
  values_.resize(nl + right.values_.size());
  std::copy(left.values_.begin(), left.values_.end(), values_.begin());
  std::copy(right.values_.begin(), right.values_.end(), values_.begin() + nl);
}

Tuple ConcatTuples(const Tuple& left, const Tuple& right) {
  Tuple out;
  out.AssignConcat(left, right);
  return out;
}

Schema ConcatSchemas(const Schema& left, const Schema& right) {
  std::vector<Column> cols;
  cols.reserve(left.NumColumns() + right.NumColumns());
  for (const auto& c : left.columns()) cols.push_back(c);
  for (const auto& c : right.columns()) cols.push_back(c);
  return Schema(std::move(cols));
}

}  // namespace relgraph
