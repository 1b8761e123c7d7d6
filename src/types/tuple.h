#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "src/common/status.h"
#include "src/types/schema.h"
#include "src/types/value.h"

namespace relgraph {

/// One row: a vector of Values plus (de)serialization against a Schema.
///
/// Wire format: [null bitmap: ceil(n/8) bytes][per-column payloads], where
/// INT/DOUBLE are 8 bytes little-endian and VARCHAR is a u16 length prefix
/// followed by bytes. Null columns contribute no payload, so all-integer
/// schemas (every table in the shortest-path workload) serialize to a fixed
/// width — which is what makes the heap file's in-place updates work for
/// TVisited.
class Tuple {
 public:
  Tuple() = default;
  explicit Tuple(std::vector<Value> values) : values_(std::move(values)) {}

  size_t NumValues() const { return values_.size(); }
  const Value& value(size_t i) const { return values_[i]; }
  Value& value(size_t i) { return values_[i]; }
  const std::vector<Value>& values() const { return values_; }
  void Append(Value v) { values_.push_back(std::move(v)); }

  /// Becomes `left` followed by `right` (a join output row), overwriting
  /// this tuple's values in place: a recycled slot of the same width
  /// allocates nothing.
  void AssignConcat(const Tuple& left, const Tuple& right);

  /// Serializes per `schema` (values must match the schema arity and types).
  std::string Serialize(const Schema& schema) const;
  /// Serializes into `out`, replacing its contents but keeping its buffer.
  void SerializeTo(const Schema& schema, std::string* out) const;

  /// Parses `data` per `schema` into `out`, overwriting its values in
  /// place: a tuple that already has the schema's width allocates nothing
  /// for INT, DOUBLE and NULL columns.
  static Status Deserialize(const Schema& schema, std::string_view data,
                            Tuple* out);

  std::string ToString() const;

  bool operator==(const Tuple& other) const;

 private:
  std::vector<Value> values_;
};

/// Concatenates two tuples (join output).
Tuple ConcatTuples(const Tuple& left, const Tuple& right);

/// Concatenates two schemas, prefixing clashes is the caller's concern.
Schema ConcatSchemas(const Schema& left, const Schema& right);

}  // namespace relgraph
