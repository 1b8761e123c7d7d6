#include "src/types/tuple.h"

#include <gtest/gtest.h>

namespace relgraph {
namespace {

// ------------------------------------------------------------------ Value

TEST(ValueTest, TypesAndAccessors) {
  EXPECT_TRUE(Value().IsNull());
  EXPECT_EQ(Value(int64_t{42}).AsInt(), 42);
  EXPECT_DOUBLE_EQ(Value(2.5).AsDouble(), 2.5);
  EXPECT_EQ(Value("abc").AsString(), "abc");
  EXPECT_EQ(Value(int64_t{7}).type(), TypeId::kInt);
}

TEST(ValueTest, CompareIntAndDouble) {
  EXPECT_LT(Value(int64_t{1}).Compare(Value(int64_t{2})), 0);
  EXPECT_EQ(Value(int64_t{3}).Compare(Value(3.0)), 0);
  EXPECT_GT(Value(3.5).Compare(Value(int64_t{3})), 0);
}

TEST(ValueTest, NullsSortFirstAndEqualEachOther) {
  EXPECT_EQ(Value().Compare(Value()), 0);
  EXPECT_LT(Value().Compare(Value(int64_t{0})), 0);
  EXPECT_GT(Value(int64_t{-100}).Compare(Value()), 0);
}

TEST(ValueTest, StringCompare) {
  EXPECT_LT(Value("apple").Compare(Value("banana")), 0);
  EXPECT_EQ(Value("x").Compare(Value("x")), 0);
}

TEST(ValueTest, AddPropagatesNull) {
  EXPECT_TRUE(Value().Add(Value(int64_t{1})).IsNull());
  EXPECT_EQ(Value(int64_t{2}).Add(Value(int64_t{3})).AsInt(), 5);
  EXPECT_DOUBLE_EQ(Value(int64_t{2}).Add(Value(0.5)).AsDouble(), 2.5);
}

TEST(ValueTest, HashEqualForEqualValues) {
  EXPECT_EQ(Value(int64_t{9}).Hash(), Value(int64_t{9}).Hash());
  EXPECT_EQ(Value("zz").Hash(), Value("zz").Hash());
}

// ----------------------------------------------------------------- Schema

TEST(SchemaTest, FindAndIndexOf) {
  Schema s({{"nid", TypeId::kInt}, {"d2s", TypeId::kInt}});
  EXPECT_EQ(s.Find("d2s"), 1);
  EXPECT_EQ(s.Find("missing"), -1);
  EXPECT_EQ(s.IndexOf("nid"), 0u);
  EXPECT_EQ(s.NumColumns(), 2u);
}

TEST(SchemaTest, EqualityAndToString) {
  Schema a({{"x", TypeId::kInt}});
  Schema b({{"x", TypeId::kInt}});
  Schema c({{"x", TypeId::kDouble}});
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a == c);
  EXPECT_EQ(a.ToString(), "(x INT)");
}

// ------------------------------------------------------------------ Tuple

TEST(TupleTest, SerializeRoundTripAllInts) {
  Schema schema({{"a", TypeId::kInt}, {"b", TypeId::kInt}, {"c", TypeId::kInt}});
  Tuple t({Value(int64_t{-5}), Value(int64_t{0}), Value(INT64_MAX / 4)});
  std::string bytes = t.Serialize(schema);
  Tuple back;
  ASSERT_TRUE(Tuple::Deserialize(schema, bytes, &back).ok());
  EXPECT_EQ(t, back);
}

TEST(TupleTest, FixedWidthForIntSchemas) {
  Schema schema({{"a", TypeId::kInt}, {"b", TypeId::kInt}});
  Tuple t1({Value(int64_t{1}), Value(int64_t{2})});
  Tuple t2({Value(int64_t{1LL << 40}), Value(int64_t{-1})});
  EXPECT_EQ(t1.Serialize(schema).size(), t2.Serialize(schema).size());
}

TEST(TupleTest, SerializeRoundTripWithNulls) {
  Schema schema({{"a", TypeId::kInt}, {"b", TypeId::kVarchar},
                 {"c", TypeId::kDouble}});
  Tuple t({Value::Null(), Value("text"), Value::Null()});
  std::string bytes = t.Serialize(schema);
  Tuple back;
  ASSERT_TRUE(Tuple::Deserialize(schema, bytes, &back).ok());
  EXPECT_TRUE(back.value(0).IsNull());
  EXPECT_EQ(back.value(1).AsString(), "text");
  EXPECT_TRUE(back.value(2).IsNull());
}

TEST(TupleTest, SerializeRoundTripVarcharAndDouble) {
  Schema schema({{"s", TypeId::kVarchar}, {"d", TypeId::kDouble}});
  Tuple t({Value(std::string(1000, 'q')), Value(-3.25)});
  std::string bytes = t.Serialize(schema);
  Tuple back;
  ASSERT_TRUE(Tuple::Deserialize(schema, bytes, &back).ok());
  EXPECT_EQ(t, back);
}

TEST(TupleTest, DeserializeRejectsTruncatedData) {
  Schema schema({{"a", TypeId::kInt}});
  Tuple t({Value(int64_t{1})});
  std::string bytes = t.Serialize(schema);
  Tuple back;
  EXPECT_FALSE(
      Tuple::Deserialize(schema, std::string_view(bytes).substr(0, 3), &back)
          .ok());
  EXPECT_FALSE(Tuple::Deserialize(schema, "", &back).ok());
}

TEST(TupleTest, DeserializeIgnoresTrailingPadding) {
  // Clustered storage pads serialized rows to the fixed width.
  Schema schema({{"a", TypeId::kInt}});
  Tuple t({Value(int64_t{77})});
  std::string bytes = t.Serialize(schema) + std::string(8, '\0');
  Tuple back;
  ASSERT_TRUE(Tuple::Deserialize(schema, bytes, &back).ok());
  EXPECT_EQ(back.value(0).AsInt(), 77);
}

TEST(TupleTest, ConcatTuplesAndSchemas) {
  Schema a({{"x", TypeId::kInt}});
  Schema b({{"y", TypeId::kInt}});
  Schema ab = ConcatSchemas(a, b);
  EXPECT_EQ(ab.NumColumns(), 2u);
  EXPECT_EQ(ab.column(1).name, "y");
  Tuple t = ConcatTuples(Tuple({Value(int64_t{1})}), Tuple({Value(int64_t{2})}));
  EXPECT_EQ(t.NumValues(), 2u);
  EXPECT_EQ(t.value(1).AsInt(), 2);
}

// Deserialize and AssignConcat overwrite a recycled tuple in place: any
// earlier width, types or NULLs leave no trace in the result.
TEST(TupleTest, RecycledTuplesAreOverwrittenWhole) {
  Schema schema({{"a", TypeId::kInt}, {"b", TypeId::kVarchar},
                 {"c", TypeId::kDouble}});
  const Tuple row({Value(int64_t{7}), Value::Null(), Value(2.5)});
  const std::string bytes = row.Serialize(schema);
  for (Tuple slot : {Tuple(), Tuple({Value("old"), Value(int64_t{1})}),
                     Tuple({Value::Null(), Value("x"), Value(int64_t{3}),
                            Value(1.0)})}) {
    ASSERT_TRUE(Tuple::Deserialize(schema, bytes, &slot).ok());
    EXPECT_EQ(slot, row);
    EXPECT_TRUE(slot.value(1).IsNull());
    slot.AssignConcat(Tuple({Value("l")}), row);
    EXPECT_EQ(slot, Tuple({Value("l"), Value(int64_t{7}), Value::Null(),
                           Value(2.5)}));
  }
  std::string out = "stale bytes that are longer than the row";
  row.SerializeTo(schema, &out);
  EXPECT_EQ(out, bytes);
}

}  // namespace
}  // namespace relgraph
