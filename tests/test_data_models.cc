#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/cvd.h"
#include "core/data_models.h"
#include "minidb/join.h"

namespace orpheus::core {
namespace {

using minidb::Row;
using minidb::Schema;
using minidb::Table;
using minidb::Value;
using minidb::ValueType;

Schema ProteinSchema() {
  return Schema({{"protein1", ValueType::kString},
                 {"protein2", ValueType::kString},
                 {"coexpression", ValueType::kInt64}});
}

Row ProteinRow(const std::string& p1, const std::string& p2, int64_t co) {
  return {Value(p1), Value(p2), Value(co)};
}

/// Replays a miniature version of Fig. 3.2's protein-interaction history:
///   v0: records r0 (A,B,0), r1 (A,C,0), r2 (D,E,164)
///   v1 (from v0): r1, r2 kept; r3 (A,B,83) replaces r0
///   v2 (from v0): r0, r1, r2 + r4 (F,G,975)
///   v3 (merge of v1, v2): r1, r2, r3, r4
void PopulateFig32(DataModelBackend* backend) {
  std::vector<NewRecord> v0 = {
      {0, ProteinRow("A", "B", 0)},
      {1, ProteinRow("A", "C", 0)},
      {2, ProteinRow("D", "E", 164)},
  };
  ASSERT_TRUE(backend->AddVersion(0, {0, 1, 2}, v0, {}).ok());
  std::vector<NewRecord> v1 = {{3, ProteinRow("A", "B", 83)}};
  ASSERT_TRUE(backend->AddVersion(1, {1, 2, 3}, v1, {0}).ok());
  std::vector<NewRecord> v2 = {{4, ProteinRow("F", "G", 975)}};
  ASSERT_TRUE(backend->AddVersion(2, {0, 1, 2, 4}, v2, {0}).ok());
  ASSERT_TRUE(backend->AddVersion(3, {1, 2, 3, 4}, {}, {1, 2}).ok());
}

std::vector<RecordId> CheckedOutRids(const minidb::Table& t) {
  const auto& rids = t.column(0).int_data();
  std::vector<RecordId> out(rids.begin(), rids.end());
  std::sort(out.begin(), out.end());
  return out;
}

class DataModelTest : public ::testing::TestWithParam<DataModelType> {
 protected:
  std::unique_ptr<DataModelBackend> Make() {
    return DataModelBackend::Create(GetParam(), ProteinSchema());
  }
};

TEST_P(DataModelTest, VersionRecordsMatchHistory) {
  auto backend = Make();
  PopulateFig32(backend.get());
  EXPECT_EQ(*backend->VersionRecords(0), (std::vector<RecordId>{0, 1, 2}));
  EXPECT_EQ(*backend->VersionRecords(1), (std::vector<RecordId>{1, 2, 3}));
  EXPECT_EQ(*backend->VersionRecords(2), (std::vector<RecordId>{0, 1, 2, 4}));
  EXPECT_EQ(*backend->VersionRecords(3), (std::vector<RecordId>{1, 2, 3, 4}));
}

TEST_P(DataModelTest, CheckoutMaterializesExactRecords) {
  auto backend = Make();
  PopulateFig32(backend.get());
  for (int v = 0; v < 4; ++v) {
    auto t = backend->Checkout(v, "out");
    ASSERT_TRUE(t.ok()) << t.status().ToString();
    EXPECT_EQ(CheckedOutRids(*t), *backend->VersionRecords(v));
    EXPECT_EQ(t->num_columns(), 4u);  // _rid + 3 attrs
  }
}

TEST_P(DataModelTest, CheckoutPayloadsCorrect) {
  auto backend = Make();
  PopulateFig32(backend.get());
  auto t = backend->Checkout(1, "out");
  ASSERT_TRUE(t.ok());
  // Find r3 and validate its payload.
  bool found = false;
  for (uint32_t r = 0; r < t->num_rows(); ++r) {
    if (t->column(0).GetInt(r) == 3) {
      EXPECT_EQ(t->GetValue(r, 1).AsString(), "A");
      EXPECT_EQ(t->GetValue(r, 2).AsString(), "B");
      EXPECT_EQ(t->GetValue(r, 3).AsInt(), 83);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST_P(DataModelTest, GetRecordPayload) {
  auto backend = Make();
  PopulateFig32(backend.get());
  auto payload = backend->GetRecordPayload(4, 2);
  ASSERT_TRUE(payload.ok());
  EXPECT_EQ((*payload)[0].AsString(), "F");
  EXPECT_EQ((*payload)[2].AsInt(), 975);
  EXPECT_TRUE(backend->GetRecordPayload(99, 0).status().IsNotFound());
}

TEST_P(DataModelTest, UnknownVersionRejected) {
  auto backend = Make();
  PopulateFig32(backend.get());
  EXPECT_FALSE(backend->Checkout(9, "out").ok());
  EXPECT_FALSE(backend->VersionRecords(-1).ok());
}

TEST_P(DataModelTest, OutOfOrderAddRejected) {
  auto backend = Make();
  EXPECT_TRUE(backend
                  ->AddVersion(5, {0}, {{0, ProteinRow("A", "B", 0)}}, {})
                  .IsInvalidArgument());
}

TEST_P(DataModelTest, SchemaEvolutionAddAttribute) {
  auto backend = Make();
  PopulateFig32(backend.get());
  ASSERT_TRUE(
      backend->AddAttribute({"neighborhood", ValueType::kInt64}).ok());
  EXPECT_EQ(backend->data_schema().num_columns(), 4u);
  // Existing records read NULL for the new attribute.
  auto t = backend->Checkout(0, "out");
  ASSERT_TRUE(t.ok());
  EXPECT_TRUE(t->GetValue(0, 4).is_null());
  // A later version can populate it.
  std::vector<NewRecord> v4 = {
      {5, {Value("H"), Value("I"), Value(int64_t{7}), Value(int64_t{42})}}};
  ASSERT_TRUE(backend->AddVersion(4, {1, 5}, v4, {3}).ok());
  auto t4 = backend->Checkout(4, "out4");
  ASSERT_TRUE(t4.ok());
  for (uint32_t r = 0; r < t4->num_rows(); ++r) {
    if (t4->column(0).GetInt(r) == 5) {
      EXPECT_EQ(t4->GetValue(r, 4).AsInt(), 42);
    }
  }
}

TEST_P(DataModelTest, SchemaEvolutionWidenAttribute) {
  auto backend = Make();
  PopulateFig32(backend.get());
  ASSERT_TRUE(backend->WidenAttribute(2, ValueType::kDouble).ok())
      << backend->name();
  EXPECT_EQ(backend->data_schema().column(2).type, ValueType::kDouble);
  auto payload = backend->GetRecordPayload(2, 0);
  ASSERT_TRUE(payload.ok());
  EXPECT_DOUBLE_EQ((*payload)[2].AsDouble(), 164.0);
}

TEST_P(DataModelTest, StorageBytesNonzeroAndOrdered) {
  auto backend = Make();
  PopulateFig32(backend.get());
  EXPECT_GT(backend->StorageBytes(), 0u);
}

TEST_P(DataModelTest, ManyVersionsLinearChain) {
  // A longer chain where each version replaces one record.
  auto backend = Make();
  std::vector<NewRecord> base;
  std::vector<RecordId> rids;
  for (RecordId r = 0; r < 20; ++r) {
    base.push_back({r, ProteinRow("P" + std::to_string(r), "Q", r)});
    rids.push_back(r);
  }
  ASSERT_TRUE(backend->AddVersion(0, rids, base, {}).ok());
  RecordId next = 20;
  for (int v = 1; v <= 10; ++v) {
    rids.erase(rids.begin());  // drop oldest
    RecordId fresh = next++;
    rids.push_back(fresh);
    std::vector<NewRecord> nr = {
        {fresh, ProteinRow("P" + std::to_string(fresh), "Q", fresh)}};
    ASSERT_TRUE(backend->AddVersion(v, rids, nr, {v - 1}).ok());
  }
  auto last = backend->VersionRecords(10);
  ASSERT_TRUE(last.ok());
  EXPECT_EQ(last->size(), 20u);
  EXPECT_EQ(last->front(), 10);
  EXPECT_EQ(last->back(), 29);
  auto t = backend->Checkout(10, "out");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->num_rows(), 20u);
}

INSTANTIATE_TEST_SUITE_P(
    AllModels, DataModelTest,
    ::testing::Values(DataModelType::kATablePerVersion,
                      DataModelType::kCombinedTable,
                      DataModelType::kSplitByVlist,
                      DataModelType::kSplitByRlist,
                      DataModelType::kDeltaBased),
    [](const auto& info) {
      switch (info.param) {
        case DataModelType::kATablePerVersion: return "TablePerVersion";
        case DataModelType::kCombinedTable: return "Combined";
        case DataModelType::kSplitByVlist: return "SplitByVlist";
        case DataModelType::kSplitByRlist: return "SplitByRlist";
        case DataModelType::kDeltaBased: return "DeltaBased";
      }
      return "Unknown";
    });

TEST(DataModelStorageTest, PerVersionCostsMostRlistDeduplicates) {
  // The Chapter 4 storage ordering: a-table-per-version duplicates shared
  // records, split models store them once.
  auto per_version = DataModelBackend::Create(
      DataModelType::kATablePerVersion, ProteinSchema());
  auto rlist =
      DataModelBackend::Create(DataModelType::kSplitByRlist, ProteinSchema());
  for (auto* b : {per_version.get(), rlist.get()}) {
    std::vector<NewRecord> base;
    std::vector<RecordId> rids;
    for (RecordId r = 0; r < 100; ++r) {
      base.push_back({r, ProteinRow("P" + std::to_string(r), "Q", r)});
      rids.push_back(r);
    }
    ASSERT_TRUE(b->AddVersion(0, rids, base, {}).ok());
    // Ten further versions identical to the base: pure duplication.
    for (int v = 1; v <= 10; ++v) {
      ASSERT_TRUE(b->AddVersion(v, rids, {}, {v - 1}).ok());
    }
  }
  // With 11 identical versions, per-version stores every payload 11 times
  // while split-by-rlist stores payloads once plus 11 narrow rlists. (The
  // paper's 10x gap uses 100-attribute records; this table has 3.)
  EXPECT_GT(per_version->StorageBytes(), 3 * rlist->StorageBytes());
}

TEST(DataModelDeltaTest, MergePicksBaseWithMostSharedRecords) {
  auto backend =
      DataModelBackend::Create(DataModelType::kDeltaBased, ProteinSchema());
  PopulateFig32(backend.get());
  // v3 = {1,2,3,4}; shares 3 records with v1={1,2,3} and 3 with v2={0,1,2,4}.
  // Either base is valid; the checkout must still be exact.
  auto t = backend->Checkout(3, "out");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(CheckedOutRids(*t), (std::vector<RecordId>{1, 2, 3, 4}));
}

// ---------------------------------------------------------------------------
// Checkouts of the delta-based and split-by-vlist models against the
// algorithms they replaced: the same rows, in the same order, cell by cell.
// ---------------------------------------------------------------------------

/// One version of a hand-built history.
struct VersionStep {
  std::vector<RecordId> rids;    // sorted membership
  std::vector<RecordId> fresh;   // rids first stored here
  std::vector<int> parents;
};

Schema MixedSchema() {
  return Schema({{"name", ValueType::kString},
                 {"score", ValueType::kInt64},
                 {"weight", ValueType::kDouble}});
}

/// Payload of `rid`; every seventh record has a NULL score.
Row MixedRow(RecordId rid) {
  return {Value("r" + std::to_string(rid)),
          rid % 7 == 3 ? Value::Null() : Value(int64_t{rid * 3 - 5}),
          Value(0.5 * static_cast<double>(rid))};
}

/// The history registered one AddVersion at a time, or with one
/// LoadVersions call when `bulk`.
std::unique_ptr<DataModelBackend> BuildHistory(
    DataModelType type, const std::vector<VersionStep>& history, bool bulk) {
  auto backend = DataModelBackend::Create(type, MixedSchema());
  std::vector<std::vector<RecordId>> rids;
  std::vector<std::vector<NewRecord>> fresh;
  std::vector<std::vector<int>> parents;
  for (const VersionStep& step : history) {
    rids.push_back(step.rids);
    fresh.emplace_back();
    for (RecordId rid : step.fresh) fresh.back().push_back({rid, MixedRow(rid)});
    parents.push_back(step.parents);
  }
  if (bulk) {
    Status s = backend->LoadVersions(rids, fresh, parents);
    EXPECT_TRUE(s.ok()) << s.ToString();
    return backend;
  }
  for (size_t v = 0; v < history.size(); ++v) {
    Status s = backend->AddVersion(static_cast<int>(v), rids[v], fresh[v],
                                   parents[v]);
    EXPECT_TRUE(s.ok()) << "v" << v << ": " << s.ToString();
  }
  return backend;
}

/// Rows `rows` of `src`, one AppendValue(GetValue) per cell.
Table PerCellCopy(const Table& src, const std::vector<uint32_t>& rows,
                  Table out) {
  for (uint32_t r : rows) out.AppendRowUnchecked(src.GetRow(r));
  return out;
}

/// The delta-based checkout as a hash-set walk: from the version back to
/// its root, each hop's delta rows whose records are members not yet
/// taken, in physical order.
Table DeltaChainOracle(const DeltaBasedBackend& backend, int vid) {
  const std::vector<RecordId> members = *backend.VersionRecords(vid);
  std::unordered_set<RecordId> needed(members.begin(), members.end());
  Table out("oracle", backend.delta_inserts(vid).schema());
  for (int v = vid; v >= 0 && !needed.empty(); v = backend.delta_base(v)) {
    const Table& inserts = backend.delta_inserts(v);
    std::vector<uint32_t> rows;
    for (uint32_t r = 0; r < inserts.num_rows(); ++r) {
      if (needed.erase(inserts.column(0).GetInt(r)) > 0) rows.push_back(r);
    }
    out = PerCellCopy(inserts, rows, std::move(out));
  }
  EXPECT_TRUE(needed.empty()) << "v" << vid;
  return out;
}

/// The split-by-vlist checkout as a scan of the vlists hash-joined with
/// the data table.
Table VlistHashJoinOracle(const SplitByVlistBackend& backend, int vid) {
  const Table& versioning = backend.versioning_table();
  std::vector<int64_t> rlist;
  for (uint32_t r : versioning.SelectRowsArrayContains(1, vid)) {
    rlist.push_back(versioning.column(0).GetInt(r));
  }
  const Table& data = backend.data_table();
  const std::vector<uint32_t> rows = minidb::JoinRids(
      data, 0, rlist, minidb::JoinAlgorithm::kHashJoin, true);
  return PerCellCopy(data, rows, Table("oracle", data.schema()));
}

Table CheckoutOracle(const DataModelBackend& backend, int vid) {
  if (const auto* delta = dynamic_cast<const DeltaBasedBackend*>(&backend)) {
    return DeltaChainOracle(*delta, vid);
  }
  return VlistHashJoinOracle(
      dynamic_cast<const SplitByVlistBackend&>(backend), vid);
}

/// Cell by cell: values, validity, the raw slot of every int64 and double
/// cell (a NULL's holds zero) and storage bytes.
void ExpectSamePhysicalTable(const Table& got, const Table& want) {
  ASSERT_EQ(got.num_rows(), want.num_rows());
  ASSERT_EQ(got.num_columns(), want.num_columns());
  EXPECT_EQ(got.StorageBytes(), want.StorageBytes());
  for (size_t c = 0; c < want.num_columns(); ++c) {
    const minidb::Column& g = got.column(c);
    const minidb::Column& w = want.column(c);
    ASSERT_EQ(g.type(), w.type()) << "column " << c;
    for (uint32_t r = 0; r < want.num_rows(); ++r) {
      ASSERT_EQ(g.IsNull(r), w.IsNull(r)) << "cell " << r << "," << c;
      ASSERT_EQ(g.GetValue(r), w.GetValue(r)) << "cell " << r << "," << c;
      if (w.type() == ValueType::kInt64) {
        ASSERT_EQ(g.int_data()[r], w.int_data()[r]) << "slot " << r;
      } else if (w.type() == ValueType::kDouble) {
        ASSERT_EQ(g.double_data()[r], w.double_data()[r]) << "slot " << r;
      }
    }
  }
}

/// Every version of `history` checks out as the oracle has it, built by
/// AddVersion and by LoadVersions.
void ExpectCheckoutsMatchOracle(DataModelType type,
                                const std::vector<VersionStep>& history) {
  for (bool bulk : {false, true}) {
    SCOPED_TRACE(bulk ? "LoadVersions" : "AddVersion");
    auto backend = BuildHistory(type, history, bulk);
    for (int v = 0; v < backend->num_versions(); ++v) {
      SCOPED_TRACE("v" + std::to_string(v));
      auto got = backend->Checkout(v, "out");
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_EQ(CheckedOutRids(*got), history[v].rids);
      ExpectSamePhysicalTable(*got, CheckoutOracle(*backend, v));
    }
  }
}

/// `from` minus `drop`, plus `add`, sorted.
std::vector<RecordId> Edit(std::vector<RecordId> from,
                           const std::vector<RecordId>& drop,
                           const std::vector<RecordId>& add) {
  std::vector<RecordId> out;
  for (RecordId rid : from) {
    if (std::find(drop.begin(), drop.end(), rid) == drop.end()) {
      out.push_back(rid);
    }
  }
  out.insert(out.end(), add.begin(), add.end());
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<RecordId> Range(RecordId from, RecordId to) {
  std::vector<RecordId> out;
  for (RecordId rid = from; rid < to; ++rid) out.push_back(rid);
  return out;
}

class RewrittenCheckoutTest : public ::testing::TestWithParam<DataModelType> {
};

TEST_P(RewrittenCheckoutTest, MergeTakesRecordsFromNonBaseParent) {
  std::vector<VersionStep> h(5);
  h[0] = {Range(0, 10), Range(0, 10), {}};
  h[1] = {Edit(h[0].rids, {0, 1}, {10, 11, 12}), {10, 11, 12}, {0}};
  h[2] = {Edit(h[0].rids, {9}, {20, 21, 22, 23}), {20, 21, 22, 23}, {0}};
  // Shares 10 records with v1 and 9 with v2: v1 is the delta base, and 20
  // and 21 come from the other parent.
  h[3] = {Edit(h[1].rids, {9}, {20, 21, 30}), {30}, {1, 2}};
  h[4] = {Edit(h[3].rids, {2, 20}, {31}), {31}, {3}};
  ExpectCheckoutsMatchOracle(GetParam(), h);
}

TEST_P(RewrittenCheckoutTest, EmptyVersions) {
  std::vector<VersionStep> h(5);
  h[0] = {{}, {}, {}};
  h[1] = {Range(0, 6), Range(0, 6), {0}};
  h[2] = {{}, {}, {1}};
  h[3] = {{6, 7}, {6, 7}, {2}};
  h[4] = {{1, 2, 6}, {}, {3, 1}};
  ExpectCheckoutsMatchOracle(GetParam(), h);
}

TEST_P(RewrittenCheckoutTest, ChainOfMoreThanAHundredHops) {
  std::vector<VersionStep> h;
  h.push_back({Range(0, 50), Range(0, 50), {}});
  for (int v = 1; v <= 120; ++v) {
    const RecordId fresh = 49 + v;
    // Drop the oldest record and, every third version, one in the middle.
    std::vector<RecordId> drop = {h.back().rids.front()};
    if (v % 3 == 0) drop.push_back(h.back().rids[h.back().rids.size() / 2]);
    h.push_back({Edit(h.back().rids, drop, {fresh}), {fresh}, {v - 1}});
  }
  ExpectCheckoutsMatchOracle(GetParam(), h);
}

TEST_P(RewrittenCheckoutTest, RidsBeyondOneRidSetChunk) {
  const RecordId kChunk = 65536;
  std::vector<VersionStep> h(4);
  std::vector<RecordId> base;
  for (RecordId k : {RecordId{0}, kChunk, 3 * kChunk + 17}) {
    for (RecordId rid : Range(k, k + 20)) base.push_back(rid);
  }
  h[0] = {base, base, {}};
  std::vector<RecordId> add1 = Range(2 * kChunk, 2 * kChunk + 5);
  h[1] = {Edit(base, {0, kChunk + 3, 3 * kChunk + 20}, add1), add1, {0}};
  std::vector<RecordId> add2 = Range(5 * kChunk, 5 * kChunk + 3);
  h[2] = {Edit(h[1].rids, {1, 2 * kChunk + 1}, add2), add2, {1}};
  h[3] = {Edit(h[2].rids, {kChunk}, {kChunk + 3}), {}, {2, 0}};
  ExpectCheckoutsMatchOracle(GetParam(), h);
}

TEST_P(RewrittenCheckoutTest, DataRidsNotAscending) {
  // Later versions store lower rids, so the data table's rid column is
  // not ascending (split-by-vlist's unclustered join).
  std::vector<VersionStep> h(4);
  h[0] = {Range(1000, 1020), Range(1000, 1020), {}};
  h[1] = {Edit(h[0].rids, {1000, 1005}, Range(0, 10)), Range(0, 10), {0}};
  h[2] = {Edit(h[1].rids, {3, 1019}, Range(500, 504)), Range(500, 504), {1}};
  h[3] = {Edit(h[2].rids, {0}, {}), {}, {2}};
  ExpectCheckoutsMatchOracle(GetParam(), h);
}

INSTANTIATE_TEST_SUITE_P(
    DeltaAndVlist, RewrittenCheckoutTest,
    ::testing::Values(DataModelType::kSplitByVlist,
                      DataModelType::kDeltaBased),
    [](const auto& info) {
      return info.param == DataModelType::kDeltaBased ? "DeltaBased"
                                                       : "SplitByVlist";
    });

TEST(CommitRecordReplayTest, UnsortedMembershipIsCorruption) {
  Table initial("t", MixedSchema());
  for (RecordId rid = 0; rid < 3; ++rid) initial.AppendRowUnchecked(MixedRow(rid));
  for (DataModelType type :
       {DataModelType::kSplitByVlist, DataModelType::kDeltaBased}) {
    Cvd::Options options;
    options.model = type;
    auto cvd = Cvd::Init("c", initial, options);
    ASSERT_TRUE(cvd.ok()) << cvd.status().ToString();
    auto state = (*cvd)->ExportState();
    ASSERT_TRUE(state.ok());
    const std::vector<RecordId> members = (*cvd)->backend()->VersionRecords(0)
                                              .ValueOrDie();
    ASSERT_EQ(members.size(), 3u);
    CvdCommitRecord record;
    record.vid = 2;
    record.parents = {1};
    record.parent_weights = {3};
    record.rids = {members[1], members[0], members[2]};
    record.metadata.vid = 2;
    record.metadata.parents = {1};
    record.metadata.num_records = 3;
    record.current_attr_ids = state->current_attr_ids;
    record.schema_after = state->data_schema;
    record.next_rid_after = state->next_rid;
    record.logical_clock_after = state->logical_clock + 1;
    Status s = (*cvd)->ApplyCommitRecord(record);
    EXPECT_EQ(s.code(), StatusCode::kCorruption) << s.ToString();
    EXPECT_EQ((*cvd)->num_versions(), 1);
    // The same record with its membership sorted applies.
    record.rids = members;
    s = (*cvd)->ApplyCommitRecord(record);
    EXPECT_TRUE(s.ok()) << s.ToString();
    EXPECT_EQ((*cvd)->num_versions(), 2);
  }
}

TEST(DataModelNameTest, Names) {
  EXPECT_STREQ(DataModelTypeName(DataModelType::kSplitByRlist),
               "split-by-rlist");
  EXPECT_STREQ(DataModelTypeName(DataModelType::kCombinedTable),
               "combined-table");
}

}  // namespace
}  // namespace orpheus::core
