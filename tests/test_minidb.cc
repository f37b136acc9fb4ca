#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <string>
#include <vector>

#include "common/ridset.h"
#include "minidb/database.h"
#include "minidb/join.h"
#include "minidb/table.h"

namespace orpheus::minidb {
namespace {

Schema TwoColSchema() {
  return Schema({{"id", ValueType::kInt64}, {"score", ValueType::kInt64}});
}

Table MakeSmallTable() {
  Table t("t", TwoColSchema());
  for (int64_t i = 0; i < 10; ++i) {
    t.AppendIntRowUnchecked({i, i * 10});
  }
  return t;
}

TEST(ValueTest, TypesAndAccessors) {
  EXPECT_TRUE(Value::Null().is_null());
  EXPECT_EQ(Value(int64_t{4}).AsInt(), 4);
  EXPECT_DOUBLE_EQ(Value(2.5).AsDouble(), 2.5);
  EXPECT_EQ(Value("abc").AsString(), "abc");
  EXPECT_EQ(Value(std::vector<int64_t>{1, 2}).AsIntArray().size(), 2u);
}

TEST(ValueTest, NumericComparison) {
  EXPECT_TRUE(Value(int64_t{1}) < Value(2.5));
  EXPECT_TRUE(Value(2.0) == Value(2.0));
  EXPECT_FALSE(Value(int64_t{2}) == Value(2.0));  // different types
  EXPECT_TRUE(Value::Null() < Value(int64_t{0}));
}

TEST(ValueTest, ToString) {
  EXPECT_EQ(Value(int64_t{7}).ToString(), "7");
  EXPECT_EQ(Value("x").ToString(), "x");
  EXPECT_EQ(Value(std::vector<int64_t>{1, 2, 3}).ToString(), "{1,2,3}");
  EXPECT_EQ(Value::Null().ToString(), "NULL");
}

TEST(ColumnTest, IntAppendAndGet) {
  Column c(ValueType::kInt64);
  c.AppendInt(5);
  c.AppendInt(-1);
  EXPECT_EQ(c.size(), 2u);
  EXPECT_EQ(c.GetInt(0), 5);
  EXPECT_EQ(c.GetValue(1).AsInt(), -1);
}

TEST(ColumnTest, NullTracking) {
  Column c(ValueType::kInt64);
  c.AppendInt(1);
  c.AppendNull();
  c.AppendInt(3);
  EXPECT_FALSE(c.IsNull(0));
  EXPECT_TRUE(c.IsNull(1));
  EXPECT_FALSE(c.IsNull(2));
  EXPECT_TRUE(c.GetValue(1).is_null());
  EXPECT_EQ(c.GetValue(2).AsInt(), 3);
}

TEST(ColumnTest, WidenIntToDouble) {
  Column c(ValueType::kInt64);
  c.AppendInt(3);
  c.AppendInt(4);
  ASSERT_TRUE(c.Widen(ValueType::kDouble).ok());
  EXPECT_EQ(c.type(), ValueType::kDouble);
  EXPECT_DOUBLE_EQ(c.GetDouble(0), 3.0);
  EXPECT_DOUBLE_EQ(c.GetValue(1).AsDouble(), 4.0);
}

TEST(ColumnTest, WidenToStringAndUnsupported) {
  Column c(ValueType::kInt64);
  c.AppendInt(3);
  ASSERT_TRUE(c.Widen(ValueType::kString).ok());
  EXPECT_EQ(c.GetString(0), "3");
  Column arr(ValueType::kIntArray);
  EXPECT_FALSE(arr.Widen(ValueType::kString).ok());
}

TEST(ColumnTest, StorageBytesAccounting) {
  Column ints(ValueType::kInt64);
  ints.AppendInt(1);
  ints.AppendInt(2);
  EXPECT_EQ(ints.StorageBytes(), 16u);
  Column arr(ValueType::kIntArray);
  arr.AppendIntArray({1, 2, 3});
  EXPECT_EQ(arr.StorageBytes(), 3 * 8 + 16u);
}

TEST(TableTest, InsertRowValidates) {
  Table t("t", TwoColSchema());
  EXPECT_TRUE(t.InsertRow({Value(int64_t{1}), Value(int64_t{2})}).ok());
  EXPECT_TRUE(t.InsertRow({Value(int64_t{1})}).IsInvalidArgument());
  EXPECT_TRUE(
      t.InsertRow({Value("nope"), Value(int64_t{2})}).IsInvalidArgument());
  EXPECT_EQ(t.num_rows(), 1u);
}

TEST(TableTest, UniqueIndexLookupAndViolation) {
  Table t = MakeSmallTable();
  ASSERT_TRUE(t.BuildUniqueIntIndex(0).ok());
  EXPECT_EQ(*t.LookupUniqueInt(0, 7), 7u);
  EXPECT_FALSE(t.LookupUniqueInt(0, 99).has_value());
  // Appends maintain the index.
  t.AppendIntRowUnchecked({100, 0});
  EXPECT_EQ(*t.LookupUniqueInt(0, 100), 10u);
  // Duplicate keys are rejected at build time.
  Table dup("dup", TwoColSchema());
  dup.AppendIntRowUnchecked({1, 0});
  dup.AppendIntRowUnchecked({1, 0});
  EXPECT_TRUE(dup.BuildUniqueIntIndex(0).IsConstraintViolation());
}

TEST(TableTest, SelectRowsPredicate) {
  Table t = MakeSmallTable();
  auto rows = t.SelectRows([](const Table& tb, uint32_t r) {
    return tb.column(1).GetInt(r) >= 50;
  });
  EXPECT_EQ(rows.size(), 5u);
  EXPECT_EQ(rows.front(), 5u);
}

TEST(TableTest, ArrayContainsScan) {
  Table t("t", Schema({{"rid", ValueType::kInt64},
                       {"vlist", ValueType::kIntArray}}));
  t.AppendRowUnchecked({Value(int64_t{1}), Value(std::vector<int64_t>{1, 3})});
  t.AppendRowUnchecked({Value(int64_t{2}), Value(std::vector<int64_t>{2})});
  t.AppendRowUnchecked({Value(int64_t{3}), Value(std::vector<int64_t>{1, 2, 3})});
  auto rows = t.SelectRowsArrayContains(1, 3);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0], 0u);
  EXPECT_EQ(rows[1], 2u);
}

TEST(TableTest, CopyAndProjectRows) {
  Table t = MakeSmallTable();
  Table copy = t.CopyRows({1, 3}, "copy");
  EXPECT_EQ(copy.num_rows(), 2u);
  EXPECT_EQ(copy.column(1).GetInt(1), 30);
  Table proj = t.ProjectRows({0, 2}, {1}, "proj");
  EXPECT_EQ(proj.num_columns(), 1u);
  EXPECT_EQ(proj.schema().column(0).name, "score");
  EXPECT_EQ(proj.column(0).GetInt(1), 20);
}

TEST(TableTest, SortByIntColumnReclusters) {
  Table t("t", TwoColSchema());
  t.AppendIntRowUnchecked({3, 30});
  t.AppendIntRowUnchecked({1, 10});
  t.AppendIntRowUnchecked({2, 20});
  ASSERT_TRUE(t.BuildUniqueIntIndex(0).ok());
  t.SortByIntColumn(0);
  EXPECT_EQ(t.column(0).GetInt(0), 1);
  EXPECT_EQ(t.column(0).GetInt(2), 3);
  // Index rebuilt after physical reorder.
  EXPECT_EQ(*t.LookupUniqueInt(0, 3), 2u);
}

TEST(TableTest, AddColumnFillsNulls) {
  Table t = MakeSmallTable();
  ASSERT_TRUE(t.AddColumn({"extra", ValueType::kString}).ok());
  EXPECT_EQ(t.num_columns(), 3u);
  EXPECT_TRUE(t.GetValue(0, 2).is_null());
  EXPECT_TRUE(t.AddColumn({"extra", ValueType::kString}).IsAlreadyExists());
}

TEST(TableTest, RewriteRowAppendToArray) {
  Table t("t", Schema({{"rid", ValueType::kInt64},
                       {"vlist", ValueType::kIntArray}}));
  t.AppendRowUnchecked({Value(int64_t{9}), Value(std::vector<int64_t>{1})});
  ASSERT_TRUE(t.BuildUniqueIntIndex(0).ok());
  t.RewriteRowAppendToArray(0, 1, 5);
  ASSERT_EQ(t.column(1).GetRidSet(0), nullptr);
  EXPECT_EQ(t.column(1).GetIntArray(0), (std::vector<int64_t>{1, 5}));
  EXPECT_EQ(*t.LookupUniqueInt(0, 9), 0u);
}

TEST(TableTest, DeleteRowsCompacts) {
  Table t = MakeSmallTable();
  ASSERT_TRUE(t.BuildUniqueIntIndex(0).ok());
  t.DeleteRows({0, 5, 9});
  EXPECT_EQ(t.num_rows(), 7u);
  // Deleted keys are gone; survivors remain reachable through the index
  // (row order is not preserved — DeleteRows swap-removes).
  for (int64_t gone : {0, 5, 9}) {
    EXPECT_FALSE(t.LookupUniqueInt(0, gone).has_value());
  }
  for (int64_t kept : {1, 2, 3, 4, 6, 7, 8}) {
    auto row = t.LookupUniqueInt(0, kept);
    ASSERT_TRUE(row.has_value());
    EXPECT_EQ(t.column(0).GetInt(*row), kept);
    EXPECT_EQ(t.column(1).GetInt(*row), kept * 10);
  }
}

TEST(TableTest, DeleteAllRows) {
  Table t = MakeSmallTable();
  std::vector<uint32_t> all(t.num_rows());
  std::iota(all.begin(), all.end(), 0u);
  t.DeleteRows(all);
  EXPECT_EQ(t.num_rows(), 0u);
}

TEST(TableTest, WidenColumn) {
  Table t = MakeSmallTable();
  ASSERT_TRUE(t.WidenColumn(1, ValueType::kDouble).ok());
  EXPECT_EQ(t.schema().column(1).type, ValueType::kDouble);
  EXPECT_DOUBLE_EQ(t.column(1).GetDouble(3), 30.0);
  ASSERT_TRUE(t.BuildUniqueIntIndex(0).ok());
  EXPECT_TRUE(t.WidenColumn(0, ValueType::kDouble).code() ==
              orpheus::StatusCode::kNotSupported);
}

TEST(TableTest, StorageBytes) {
  Table t = MakeSmallTable();
  EXPECT_EQ(t.DataBytes(), 10u * 2 * 8);
  ASSERT_TRUE(t.BuildUniqueIntIndex(0).ok());
  EXPECT_EQ(t.IndexBytes(), 10u * 16);
  EXPECT_EQ(t.StorageBytes(), t.DataBytes() + t.IndexBytes());
}

TEST(ColumnTest, SetNullClearsTheSlot) {
  // A nulled cell holds what AppendNull leaves: zero, or an empty cell.
  Column ints(ValueType::kInt64);
  Column doubles(ValueType::kDouble);
  Column strings(ValueType::kString);
  Column arrays(ValueType::kIntArray);
  for (int64_t i = 0; i < 3; ++i) {
    ints.AppendInt(i + 7);
    doubles.AppendDouble(i + 0.5);
    strings.AppendString("s" + std::to_string(i));
    arrays.AppendIntArray({1, 2, 3, 4, 5, 6, 7, 8, 9});
  }
  for (Column* col : {&ints, &doubles, &strings, &arrays}) {
    col->SetValue(1, Value::Null());
    EXPECT_TRUE(col->IsNull(1));
    EXPECT_FALSE(col->IsNull(0));
  }
  EXPECT_EQ(ints.int_data()[1], 0);
  EXPECT_EQ(ints.int_data()[2], 9);
  EXPECT_EQ(doubles.double_data()[1], 0.0);
  EXPECT_TRUE(strings.GetString(1).empty());
  EXPECT_EQ(arrays.GetRidSet(1), nullptr);
  EXPECT_TRUE(arrays.GetIntArray(1).empty());

  Column appended(ValueType::kString);
  appended.AppendString("s0");
  appended.AppendNull();
  appended.AppendString("s2");
  EXPECT_EQ(strings.StorageBytes(), appended.StorageBytes());
}

/// The oracle Table::AppendFrom must match: one AppendValue(GetValue) per
/// cell, `cols[c]` feeding column c.
Table PerCellCopy(const Table& src, const std::vector<uint32_t>& rows,
                  const std::vector<int>& cols) {
  std::vector<ColumnDef> defs;
  for (int c : cols) defs.push_back(src.schema().column(c));
  Table out("oracle", Schema(std::move(defs)));
  for (size_t c = 0; c < cols.size(); ++c) {
    for (uint32_t r : rows) {
      out.mutable_column(c).AppendValue(src.column(cols[c]).GetValue(r));
    }
  }
  out.CountAppendedRows(rows.size());
  return out;
}

/// Cell-by-cell equality of the physical columns: values and their types,
/// validity, the raw slot of every numeric cell, each array cell's
/// representation, and storage bytes (which count the validity bitmap, so
/// they also tell whether one was allocated).
void ExpectSamePhysicalTable(const Table& got, const Table& want) {
  ASSERT_EQ(got.num_rows(), want.num_rows());
  ASSERT_EQ(got.num_columns(), want.num_columns());
  for (size_t c = 0; c < want.num_columns(); ++c) {
    const Column& g = got.column(c);
    const Column& w = want.column(c);
    ASSERT_EQ(g.type(), w.type()) << "column " << c;
    ASSERT_EQ(g.size(), w.size()) << "column " << c;
    EXPECT_EQ(g.StorageBytes(), w.StorageBytes()) << "column " << c;
    for (uint32_t r = 0; r < want.num_rows(); ++r) {
      ASSERT_EQ(g.IsNull(r), w.IsNull(r)) << "cell " << r << "," << c;
      const Value gv = g.GetValue(r);
      const Value wv = w.GetValue(r);
      ASSERT_TRUE(gv.type() == wv.type() && gv == wv)
          << "cell " << r << "," << c << ": " << gv.ToString() << " vs "
          << wv.ToString();
      switch (w.type()) {
        case ValueType::kInt64:
          ASSERT_EQ(g.int_data()[r], w.int_data()[r]) << "slot " << r;
          break;
        case ValueType::kDouble:
          ASSERT_EQ(g.double_data()[r], w.double_data()[r]) << "slot " << r;
          break;
        case ValueType::kIntArray:
          ASSERT_EQ(g.GetRidSet(r) != nullptr, w.GetRidSet(r) != nullptr)
              << "array representation at row " << r;
          break;
        default:
          break;
      }
    }
  }
}

/// [id int64, score double, name string, tags int-array, widened double
/// (was int64)] over `n` rows, with NULLs from AppendNull and from
/// SetValue(null) in every column. Tags are long sorted lists (compressed),
/// short ones and unsorted ones (kept plain).
Table GatherSource(size_t n) {
  Table t("src", Schema({{"id", ValueType::kInt64},
                         {"score", ValueType::kDouble},
                         {"name", ValueType::kString},
                         {"tags", ValueType::kIntArray},
                         {"widened", ValueType::kInt64}}));
  for (size_t i = 0; i < n; ++i) {
    const auto v = static_cast<int64_t>(i);
    std::vector<int64_t> tags;
    if (i % 3 == 0) {
      for (int64_t k = 0; k < 12; ++k) tags.push_back(v + 3 * k);
    } else if (i % 3 == 1) {
      tags = {v, v + 1};
    } else {
      tags = {v + 2, v, v + 1};
    }
    Row row = {Value(v * 7 - 3), Value(0.25 * v), Value("n" + std::to_string(v)),
               Value(std::move(tags)), Value(v * 11)};
    if (i % 5 == 1) row[i % row.size()] = Value::Null();
    EXPECT_TRUE(t.InsertRow(row).ok());
  }
  for (size_t i = 3; i < n; i += 7) {
    t.mutable_column(i % t.num_columns()).SetValue(i, Value::Null());
  }
  EXPECT_TRUE(t.WidenColumn(4, ValueType::kDouble).ok());
  return t;
}

TEST(AppendFromGatherTest, MatchesPerCellOracle) {
  const std::vector<int> all = {0, 1, 2, 3, 4};
  const std::vector<int> projected = {4, 0, 3, 0};
  for (size_t n : {size_t{40}, size_t{5000}}) {
    const Table src = GatherSource(n);
    std::vector<std::vector<uint32_t>> row_lists;
    row_lists.emplace_back();  // no rows
    std::vector<uint32_t> every(n);
    std::iota(every.begin(), every.end(), 0u);
    row_lists.push_back(every);  // >= 4096 at n = 5000: ParallelFor branch
    std::vector<uint32_t> scattered;
    for (uint32_t r = 0; r < n; r += 3) scattered.push_back(n - 1 - r);
    scattered.push_back(0);
    scattered.push_back(0);  // a row may repeat
    row_lists.push_back(scattered);
    // Only cells that are valid although their columns hold NULLs: the
    // copy must not allocate a validity bitmap.
    std::vector<uint32_t> valid_only;
    for (uint32_t r = 0; r < n; ++r) {
      bool any_null = false;
      for (size_t c = 0; c < src.num_columns(); ++c) {
        any_null |= src.column(c).IsNull(r);
      }
      if (!any_null) valid_only.push_back(r);
    }
    row_lists.push_back(valid_only);
    for (const auto& rows : row_lists) {
      SCOPED_TRACE("n " + std::to_string(n) + " rows " +
                   std::to_string(rows.size()));
      ExpectSamePhysicalTable(src.CopyRows(rows, "copy"),
                              PerCellCopy(src, rows, all));
      ExpectSamePhysicalTable(src.ProjectRows(rows, projected, "proj"),
                              PerCellCopy(src, rows, projected));
    }
    // Appending onto rows already present, NULL-free ones then the rest.
    Table twice = src.CopyRows(valid_only, "twice");
    twice.AppendFrom(src, every);
    Table back = PerCellCopy(src, valid_only, all);
    for (size_t c = 0; c < all.size(); ++c) {
      for (uint32_t r : every) {
        back.mutable_column(c).AppendValue(src.column(c).GetValue(r));
      }
    }
    back.CountAppendedRows(every.size());
    ExpectSamePhysicalTable(twice, back);
  }
}

class JoinTest : public ::testing::TestWithParam<JoinAlgorithm> {};

TEST_P(JoinTest, FindsExactlyMatchingRids) {
  Table t("t", TwoColSchema());
  for (int64_t i = 0; i < 100; ++i) t.AppendIntRowUnchecked({i * 2, i});
  ASSERT_TRUE(t.BuildUniqueIntIndex(0).ok());
  std::vector<int64_t> rlist = {0, 10, 11, 50, 198, 200};
  auto rows = JoinRids(t, 0, rlist, GetParam(), /*clustered_on_rid=*/true);
  std::vector<int64_t> found;
  for (uint32_t r : rows) found.push_back(t.column(0).GetInt(r));
  std::sort(found.begin(), found.end());
  EXPECT_EQ(found, (std::vector<int64_t>{0, 10, 50, 198}));
}

TEST_P(JoinTest, EmptyRlist) {
  Table t = MakeSmallTable();
  ASSERT_TRUE(t.BuildUniqueIntIndex(0).ok());
  EXPECT_TRUE(JoinRids(t, 0, {}, GetParam(), true).empty());
}

TEST_P(JoinTest, UnclusteredDataSide) {
  Table t("t", TwoColSchema());
  // rids intentionally out of order.
  for (int64_t i = 0; i < 50; ++i) t.AppendIntRowUnchecked({(i * 37) % 101, i});
  ASSERT_TRUE(t.BuildUniqueIntIndex(0).ok());
  std::vector<int64_t> rlist = {1, 2, 3, 99, 100};
  auto rows = JoinRids(t, 0, rlist, GetParam(), /*clustered_on_rid=*/false);
  std::vector<int64_t> found;
  for (uint32_t r : rows) found.push_back(t.column(0).GetInt(r));
  std::sort(found.begin(), found.end());
  // Values present in the table among the probes:
  std::vector<int64_t> expect;
  for (int64_t probe : rlist) {
    for (int64_t i = 0; i < 50; ++i) {
      if ((i * 37) % 101 == probe) expect.push_back(probe);
    }
  }
  std::sort(expect.begin(), expect.end());
  EXPECT_EQ(found, expect);
}

INSTANTIATE_TEST_SUITE_P(AllJoins, JoinTest,
                         ::testing::Values(JoinAlgorithm::kHashJoin,
                                           JoinAlgorithm::kMergeJoin,
                                           JoinAlgorithm::kIndexNestedLoop),
                         [](const auto& info) {
                           switch (info.param) {
                             case JoinAlgorithm::kHashJoin: return "Hash";
                             case JoinAlgorithm::kMergeJoin: return "Merge";
                             case JoinAlgorithm::kIndexNestedLoop: return "Inl";
                           }
                           return "Unknown";
                         });

TEST(DatabaseTest, CreateGetDrop) {
  Database db;
  auto t = db.CreateTable("a", TwoColSchema());
  ASSERT_TRUE(t.ok());
  EXPECT_TRUE(db.HasTable("a"));
  EXPECT_TRUE(db.CreateTable("a", TwoColSchema()).status().IsAlreadyExists());
  EXPECT_NE(db.GetTable("a"), nullptr);
  EXPECT_EQ(db.GetTable("b"), nullptr);
  EXPECT_TRUE(db.DropTable("a").ok());
  EXPECT_TRUE(db.DropTable("a").IsNotFound());
}

TEST(DatabaseTest, AdoptAndTotals) {
  Database db;
  Table t = MakeSmallTable();
  uint64_t bytes = t.StorageBytes();
  ASSERT_TRUE(db.AdoptTable(std::move(t)).ok());
  EXPECT_EQ(db.TotalStorageBytes(), bytes);
  EXPECT_EQ(db.ListTables(), std::vector<std::string>{"t"});
}

}  // namespace
}  // namespace orpheus::minidb
