#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "benchdata/generator.h"
#include "common/ridset.h"
#include "common/validation.h"
#include "core/cvd.h"
#include "core/validate.h"
#include "minidb/database.h"

namespace orpheus::core {
namespace {

using minidb::Database;
using minidb::Row;
using minidb::Schema;
using minidb::Table;
using minidb::Value;
using minidb::ValueType;

Table InteractionTable() {
  Table t("interaction", Schema({{"protein1", ValueType::kString},
                                 {"protein2", ValueType::kString},
                                 {"coexpression", ValueType::kInt64}}));
  EXPECT_TRUE(t.InsertRow({Value("ENSP273047"), Value("ENSP261890"),
                           Value(int64_t{0})})
                  .ok());
  EXPECT_TRUE(t.InsertRow({Value("ENSP273047"), Value("ENSP235932"),
                           Value(int64_t{87})})
                  .ok());
  EXPECT_TRUE(t.InsertRow({Value("ENSP300413"), Value("ENSP274242"),
                           Value(int64_t{164})})
                  .ok());
  return t;
}

Cvd::Options PkOptions() {
  Cvd::Options opt;
  opt.primary_key = {"protein1", "protein2"};
  return opt;
}

class CvdTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto cvd = Cvd::Init("Interaction", InteractionTable(), PkOptions());
    ASSERT_TRUE(cvd.ok()) << cvd.status().ToString();
    cvd_ = cvd.MoveValueOrDie();
  }

  std::unique_ptr<Cvd> cvd_;
  Database staging_;
};

TEST_F(CvdTest, InitCreatesVersionOne) {
  EXPECT_EQ(cvd_->num_versions(), 1);
  EXPECT_EQ(cvd_->latest(), 1);
  auto rids = cvd_->VersionRecords(1);
  ASSERT_TRUE(rids.ok());
  EXPECT_EQ(rids->size(), 3u);
  EXPECT_EQ(cvd_->version_metadata(1).num_records, 3);
}

TEST_F(CvdTest, InitRejectsBadPrimaryKey) {
  Cvd::Options opt;
  opt.primary_key = {"nonexistent"};
  EXPECT_TRUE(Cvd::Init("X", InteractionTable(), opt)
                  .status()
                  .IsInvalidArgument());
}

TEST_F(CvdTest, CheckoutMaterializesStagingTable) {
  ASSERT_TRUE(cvd_->Checkout({1}, "my_work", &staging_).ok());
  Table* t = staging_.GetTable("my_work");
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(t->num_rows(), 3u);
  EXPECT_EQ(t->schema().column(0).name, "_rid");
  EXPECT_EQ(cvd_->StagedTables(), std::vector<std::string>{"my_work"});
  // Duplicate checkout name is rejected.
  EXPECT_TRUE(cvd_->Checkout({1}, "my_work", &staging_).IsAlreadyExists());
}

TEST_F(CvdTest, CommitUnchangedSharesAllRecords) {
  ASSERT_TRUE(cvd_->Checkout({1}, "w", &staging_).ok());
  auto v2 = cvd_->Commit("w", &staging_, "no changes");
  ASSERT_TRUE(v2.ok()) << v2.status().ToString();
  EXPECT_EQ(*v2, 2);
  // No new records were created; graph edge carries full weight.
  EXPECT_EQ(cvd_->graph().EdgeWeight(0, 1), 3);
  EXPECT_EQ(*cvd_->VersionRecords(2), *cvd_->VersionRecords(1));
  // Staging table dropped after commit.
  EXPECT_EQ(staging_.GetTable("w"), nullptr);
  EXPECT_TRUE(cvd_->StagedTables().empty());
}

TEST_F(CvdTest, CommitDetectsModifiedRecords) {
  ASSERT_TRUE(cvd_->Checkout({1}, "w", &staging_).ok());
  Table* t = staging_.GetTable("w");
  // Modify coexpression of the first row: same rid, new payload.
  Row row = t->GetRow(0);
  row[3] = Value(int64_t{999});
  t->SetRow(0, row);
  auto v2 = cvd_->Commit("w", &staging_, "edit");
  ASSERT_TRUE(v2.ok());
  // Two records survive, one is new: weight with parent is 2.
  EXPECT_EQ(cvd_->graph().EdgeWeight(0, 1), 2);
  auto d = cvd_->VDiff(2, 1);
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->size(), 1u);
}

TEST_F(CvdTest, CommitDetectsInsertedAndDeletedRecords) {
  ASSERT_TRUE(cvd_->Checkout({1}, "w", &staging_).ok());
  Table* t = staging_.GetTable("w");
  // Delete row 2 and insert a brand-new record (rid NULL).
  t->DeleteRows({2});
  Row fresh = {Value::Null(), Value("NEW1"), Value("NEW2"),
               Value(int64_t{50})};
  t->AppendRowUnchecked(fresh);
  auto v2 = cvd_->Commit("w", &staging_, "insert+delete");
  ASSERT_TRUE(v2.ok());
  auto rids2 = cvd_->VersionRecords(2);
  ASSERT_TRUE(rids2.ok());
  EXPECT_EQ(rids2->size(), 3u);
  EXPECT_EQ(cvd_->graph().EdgeWeight(0, 1), 2);  // two kept
}

TEST_F(CvdTest, CommitEnforcesPrimaryKey) {
  ASSERT_TRUE(cvd_->Checkout({1}, "w", &staging_).ok());
  Table* t = staging_.GetTable("w");
  // Duplicate the PK of row 0 in a new row.
  Row dup = {Value::Null(), Value("ENSP273047"), Value("ENSP261890"),
             Value(int64_t{123})};
  t->AppendRowUnchecked(dup);
  EXPECT_TRUE(
      cvd_->Commit("w", &staging_, "dup").status().IsConstraintViolation());
}

TEST_F(CvdTest, CommitWithoutCheckoutRejected) {
  EXPECT_TRUE(cvd_->Commit("ghost", &staging_, "x").status().IsNotFound());
}

TEST_F(CvdTest, BranchAndMergeWithPrecedence) {
  // Branch A: modify record 0. Branch B: modify record 1.
  ASSERT_TRUE(cvd_->Checkout({1}, "a", &staging_).ok());
  Table* ta = staging_.GetTable("a");
  Row row_a = ta->GetRow(0);
  row_a[3] = Value(int64_t{111});
  ta->SetRow(0, row_a);
  ASSERT_TRUE(cvd_->Commit("a", &staging_, "branch a").ok());  // v2

  ASSERT_TRUE(cvd_->Checkout({1}, "b", &staging_).ok());
  Table* tb = staging_.GetTable("b");
  Row row_b = tb->GetRow(0);
  row_b[3] = Value(int64_t{222});
  tb->SetRow(0, row_b);
  ASSERT_TRUE(cvd_->Commit("b", &staging_, "branch b").ok());  // v3

  // Merge checkout: v2 has precedence over v3 on PK conflicts.
  ASSERT_TRUE(cvd_->Checkout({2, 3}, "m", &staging_).ok());
  Table* tm = staging_.GetTable("m");
  EXPECT_EQ(tm->num_rows(), 3u);  // 3 distinct PKs
  bool saw_111 = false;
  bool saw_222 = false;
  for (uint32_t r = 0; r < tm->num_rows(); ++r) {
    int64_t co = tm->column(3).GetInt(r);
    saw_111 |= co == 111;
    saw_222 |= co == 222;
  }
  EXPECT_TRUE(saw_111);
  EXPECT_FALSE(saw_222) << "precedence order must drop v3's conflict";

  auto v4 = cvd_->Commit("m", &staging_, "merge");
  ASSERT_TRUE(v4.ok());
  EXPECT_EQ(*v4, 4);
  EXPECT_EQ(cvd_->Parents(4), (std::vector<VersionId>{2, 3}));
  EXPECT_EQ(cvd_->Ancestors(4), (std::vector<VersionId>{1, 2, 3}));
}

TEST_F(CvdTest, DiffReturnsExclusiveRecords) {
  ASSERT_TRUE(cvd_->Checkout({1}, "w", &staging_).ok());
  Table* t = staging_.GetTable("w");
  Row row = t->GetRow(1);
  row[3] = Value(int64_t{4242});
  t->SetRow(1, row);
  ASSERT_TRUE(cvd_->Commit("w", &staging_, "edit").ok());
  auto diff = cvd_->Diff(2, 1);
  ASSERT_TRUE(diff.ok());
  EXPECT_EQ(diff->num_rows(), 1u);
  EXPECT_EQ(diff->GetValue(0, 3).AsInt(), 4242);
  auto diff_rev = cvd_->Diff(1, 2);
  ASSERT_TRUE(diff_rev.ok());
  EXPECT_EQ(diff_rev->num_rows(), 1u);
  EXPECT_EQ(diff_rev->GetValue(0, 3).AsInt(), 87);
}

TEST_F(CvdTest, VIntersect) {
  ASSERT_TRUE(cvd_->Checkout({1}, "w", &staging_).ok());
  Table* t = staging_.GetTable("w");
  Row row = t->GetRow(0);
  row[3] = Value(int64_t{5});
  t->SetRow(0, row);
  ASSERT_TRUE(cvd_->Commit("w", &staging_, "edit").ok());
  auto common = cvd_->VIntersect({1, 2});
  ASSERT_TRUE(common.ok());
  EXPECT_EQ(common->size(), 2u);
}

TEST_F(CvdTest, SchemaEvolutionOnCommit) {
  ASSERT_TRUE(cvd_->Checkout({1}, "w", &staging_).ok());
  Table* t = staging_.GetTable("w");
  // Add a new attribute and fill it.
  ASSERT_TRUE(t->AddColumn({"neighborhood", ValueType::kInt64}).ok());
  for (uint32_t r = 0; r < t->num_rows(); ++r) {
    Row row = t->GetRow(r);
    row[4] = Value(int64_t{r});
    t->SetRow(r, row);
  }
  auto v2 = cvd_->Commit("w", &staging_, "add attribute");
  ASSERT_TRUE(v2.ok()) << v2.status().ToString();
  // The CVD schema evolved; the attribute table logged the new attribute.
  EXPECT_EQ(cvd_->backend()->data_schema().num_columns(), 4u);
  EXPECT_EQ(cvd_->attribute_table().size(), 4u);
  // All records are new (every payload changed by the added value).
  auto mat = cvd_->backend()->Checkout(1, "m");
  ASSERT_TRUE(mat.ok());
  EXPECT_EQ(mat->num_columns(), 5u);
}

TEST_F(CvdTest, SchemaEvolutionTypeWidening) {
  ASSERT_TRUE(cvd_->Checkout({1}, "w", &staging_).ok());
  Table* t = staging_.GetTable("w");
  ASSERT_TRUE(t->WidenColumn(3, ValueType::kDouble).ok());
  auto v2 = cvd_->Commit("w", &staging_, "int -> decimal");
  ASSERT_TRUE(v2.ok()) << v2.status().ToString();
  EXPECT_EQ(cvd_->backend()->data_schema().column(2).type,
            ValueType::kDouble);
  // A new attribute-table entry was created for the widened column.
  EXPECT_EQ(cvd_->attribute_table().size(), 4u);
  // Unchanged values (modulo the widen) are recognized: records survive.
  EXPECT_EQ(cvd_->graph().EdgeWeight(0, 1), 3);
}

TEST_F(CvdTest, MetadataTracksCommits) {
  ASSERT_TRUE(cvd_->Checkout({1}, "w", &staging_).ok());
  ASSERT_TRUE(cvd_->Commit("w", &staging_, "msg two", "alice").ok());
  const auto& meta = cvd_->version_metadata(2);
  EXPECT_EQ(meta.message, "msg two");
  EXPECT_EQ(meta.author, "alice");
  EXPECT_EQ(meta.parents, std::vector<VersionId>{1});
  EXPECT_GT(meta.commit_time, meta.checkout_time);
}

TEST_F(CvdTest, CheckoutUnknownVersion) {
  EXPECT_TRUE(cvd_->Checkout({7}, "w", &staging_).IsNotFound());
  EXPECT_TRUE(cvd_->Checkout({}, "w", &staging_).IsInvalidArgument());
}

class CvdAllModelsTest : public ::testing::TestWithParam<DataModelType> {};

TEST_P(CvdAllModelsTest, FullRoundTrip) {
  Cvd::Options opt = PkOptions();
  opt.model = GetParam();
  auto cvd = Cvd::Init("Interaction", InteractionTable(), opt);
  ASSERT_TRUE(cvd.ok());
  Database staging;
  ASSERT_TRUE((*cvd)->Checkout({1}, "w", &staging).ok());
  Table* t = staging.GetTable("w");
  Row row = t->GetRow(0);
  row[3] = Value(int64_t{12345});
  t->SetRow(0, row);
  auto v2 = (*cvd)->Commit("w", &staging, "edit");
  ASSERT_TRUE(v2.ok()) << v2.status().ToString();
  ASSERT_TRUE((*cvd)->Checkout({2}, "verify", &staging).ok());
  Table* check = staging.GetTable("verify");
  bool found = false;
  for (uint32_t r = 0; r < check->num_rows(); ++r) {
    if (check->column(3).GetInt(r) == 12345) found = true;
  }
  EXPECT_TRUE(found);
}

INSTANTIATE_TEST_SUITE_P(
    AllModels, CvdAllModelsTest,
    ::testing::Values(DataModelType::kATablePerVersion,
                      DataModelType::kCombinedTable,
                      DataModelType::kSplitByVlist,
                      DataModelType::kSplitByRlist,
                      DataModelType::kDeltaBased));

// ---------------------------------------------------------------------------
// Snapshot loads: Cvd::FromState
// ---------------------------------------------------------------------------

constexpr DataModelType kAllModels[] = {
    DataModelType::kATablePerVersion, DataModelType::kCombinedTable,
    DataModelType::kSplitByVlist, DataModelType::kSplitByRlist,
    DataModelType::kDeltaBased};

/// One version of a hand-built state: parents, sorted membership and the
/// rids first stored here (their payload is {rid, "r<rid>"}).
struct VersionSpec {
  std::vector<int> parents;
  std::vector<RecordId> rids;
  std::vector<RecordId> fresh;
};

CvdState HandBuiltState(const std::vector<VersionSpec>& versions) {
  CvdState st;
  st.name = "hand";
  st.data_schema = {{"id", ValueType::kInt64}, {"name", ValueType::kString}};
  st.attributes = {{0, "id", ValueType::kInt64},
                   {1, "name", ValueType::kString}};
  st.current_attr_ids = {0, 1};
  for (size_t v = 0; v < versions.size(); ++v) {
    const VersionSpec& spec = versions[v];
    VersionMetadata meta;
    meta.vid = static_cast<VersionId>(v + 1);
    for (int p : spec.parents) meta.parents.push_back(p + 1);
    meta.num_records = static_cast<int64_t>(spec.rids.size());
    st.metadata.push_back(meta);
    st.version_parents.push_back(spec.parents);
    std::vector<int64_t> weights;
    for (int p : spec.parents) {
      std::vector<RecordId> shared;
      std::set_intersection(spec.rids.begin(), spec.rids.end(),
                            versions[p].rids.begin(), versions[p].rids.end(),
                            std::back_inserter(shared));
      weights.push_back(static_cast<int64_t>(shared.size()));
    }
    st.version_weights.push_back(std::move(weights));
    st.version_rids.push_back(spec.rids);
    std::vector<NewRecord> fresh;
    for (RecordId rid : spec.fresh) {
      fresh.push_back(
          {rid, {Value(int64_t{rid}), Value("r" + std::to_string(rid))}});
      st.next_rid = std::max(st.next_rid, rid + 1);
    }
    st.version_new_records.push_back(std::move(fresh));
  }
  st.logical_clock = 2 * static_cast<LogicalTime>(versions.size());
  return st;
}

/// v0 = {0,1,2}; v1 (from v0) = {1,2,3}, storing r3.
std::vector<VersionSpec> TwoVersionSpecs() {
  return {{{}, {0, 1, 2}, {0, 1, 2}}, {{0}, {1, 2, 3}, {3}}};
}

class CvdLoadCheckTest : public ::testing::TestWithParam<DataModelType> {
 protected:
  /// FromState on `versions` under this test's model.
  Status Load(const std::vector<VersionSpec>& versions) {
    CvdState st = HandBuiltState(versions);
    st.model = GetParam();
    return Cvd::FromState(st).status();
  }
};

TEST_P(CvdLoadCheckTest, AcceptsWellFormedState) {
  EXPECT_TRUE(Load(TwoVersionSpecs()).ok());
}

TEST_P(CvdLoadCheckTest, RejectsMembershipNotStrictlyAscending) {
  auto specs = TwoVersionSpecs();
  specs[1].rids = {2, 1, 3};
  Status s = Load(specs);
  EXPECT_EQ(s.code(), StatusCode::kCorruption) << s.ToString();
  specs[1].rids = {1, 2, 2, 3};
  s = Load(specs);
  EXPECT_EQ(s.code(), StatusCode::kCorruption) << s.ToString();
}

TEST_P(CvdLoadCheckTest, RejectsMemberNoEarlierVersionStored) {
  auto specs = TwoVersionSpecs();
  specs[0].rids = {0, 1, 2, 3};  // r3 is only stored by v1
  Status s = Load(specs);
  EXPECT_EQ(s.code(), StatusCode::kCorruption) << s.ToString();
  specs = TwoVersionSpecs();
  specs[1].rids = {1, 2, 3, 9};  // r9 is never stored
  s = Load(specs);
  EXPECT_EQ(s.code(), StatusCode::kCorruption) << s.ToString();
}

TEST_P(CvdLoadCheckTest, RejectsNewRecordMissingFromItsVersion) {
  auto specs = TwoVersionSpecs();
  specs[1].rids = {1, 2};  // stores r3 without listing it
  Status s = Load(specs);
  EXPECT_EQ(s.code(), StatusCode::kCorruption) << s.ToString();
}

TEST_P(CvdLoadCheckTest, RejectsRecordNewTwice) {
  auto specs = TwoVersionSpecs();
  specs[1].rids = {0, 1, 2, 3};
  specs[1].fresh = {0, 3};  // r0 was already stored by v0
  Status s = Load(specs);
  EXPECT_EQ(s.code(), StatusCode::kCorruption) << s.ToString();
}

INSTANTIATE_TEST_SUITE_P(AllModels, CvdLoadCheckTest,
                         ::testing::ValuesIn(kAllModels));

/// The reference build of `state`: an empty CVD that then applies one
/// commit record, hence one backend AddVersion, per version.
std::unique_ptr<Cvd> ReplayPerVersion(const CvdState& state) {
  CvdState empty = state;
  empty.metadata.clear();
  empty.version_parents.clear();
  empty.version_weights.clear();
  empty.version_rids.clear();
  empty.version_new_records.clear();
  auto cvd = Cvd::FromState(empty);
  if (!cvd.ok()) {
    ADD_FAILURE() << cvd.status().ToString();
    return nullptr;
  }
  for (size_t v = 0; v < state.version_rids.size(); ++v) {
    CvdCommitRecord rec;
    rec.vid = static_cast<VersionId>(v + 1);
    for (int p : state.version_parents[v]) rec.parents.push_back(p + 1);
    rec.parent_weights = state.version_weights[v];
    rec.rids = state.version_rids[v];
    rec.new_records = state.version_new_records[v];
    rec.metadata = state.metadata[v];
    rec.current_attr_ids = state.current_attr_ids;
    rec.schema_after = state.data_schema;
    rec.next_rid_after = state.next_rid;
    rec.logical_clock_after = state.logical_clock;
    Status s = (*cvd)->ApplyCommitRecord(rec);
    if (!s.ok()) {
      ADD_FAILURE() << "v" << v << ": " << s.ToString();
      return nullptr;
    }
  }
  return cvd.MoveValueOrDie();
}

/// Cell-by-cell equality, including each array cell's representation
/// (compressed RidSet or plain vector). Stops at the first difference.
void ExpectSameCells(const Table& a, const Table& b) {
  ASSERT_EQ(a.num_rows(), b.num_rows()) << a.name();
  ASSERT_EQ(a.num_columns(), b.num_columns()) << a.name();
  for (size_t c = 0; c < a.num_columns(); ++c) {
    ASSERT_EQ(a.schema().column(c).type, b.schema().column(c).type);
    for (uint32_t r = 0; r < a.num_rows(); ++r) {
      const Value va = a.GetValue(r, c);
      const Value vb = b.GetValue(r, c);
      ASSERT_TRUE(va.type() == vb.type() && va == vb)
          << a.name() << " row " << r << " col " << c << ": "
          << va.ToString() << " vs " << vb.ToString();
      if (a.schema().column(c).type == ValueType::kIntArray) {
        ASSERT_EQ(a.column(c).GetRidSet(r) == nullptr,
                  b.column(c).GetRidSet(r) == nullptr)
            << a.name() << " row " << r << " col " << c;
      }
    }
  }
}

/// The physical tables of the models that have an accessor for them.
std::vector<const Table*> PhysicalTables(const DataModelBackend& backend) {
  if (const auto* b = dynamic_cast<const CombinedTableBackend*>(&backend)) {
    return {&b->combined_table()};
  }
  if (const auto* b = dynamic_cast<const SplitByVlistBackend*>(&backend)) {
    return {&b->data_table(), &b->versioning_table()};
  }
  if (const auto* b = dynamic_cast<const SplitByRlistBackend*>(&backend)) {
    return {&b->data_table(), &b->versioning_table()};
  }
  return {};
}

/// Latest version of `cvd`, minus its last row, plus a copy of its first
/// row as a new record.
Table NextCommit(const Cvd& cvd) {
  Table latest = cvd.Materialize({cvd.latest()}, "next").MoveValueOrDie();
  std::vector<uint32_t> keep;
  for (uint32_t r = 0; r + 1 < latest.num_rows(); ++r) keep.push_back(r);
  Table next = latest.CopyRows(keep, "next");
  if (latest.num_rows() > 0) {
    Row copy = latest.GetRow(0);
    copy[0] = Value::Null();  // no rid: a new record
    next.AppendRowUnchecked(copy);
  }
  return next;
}

/// Both builds of one CVD agree on every observable.
void ExpectSameCvd(const Cvd& bulk, const Cvd& replay) {
  ASSERT_EQ(bulk.num_versions(), replay.num_versions());
  for (VersionId v = 1; v <= bulk.num_versions(); ++v) {
    SCOPED_TRACE("version " + std::to_string(v));
    auto ra = bulk.VersionRecords(v);
    auto rb = replay.VersionRecords(v);
    ASSERT_TRUE(ra.ok() && rb.ok());
    EXPECT_EQ(*ra, *rb);
    auto ta = bulk.Materialize({v}, "co");
    auto tb = replay.Materialize({v}, "co");
    ASSERT_TRUE(ta.ok() && tb.ok());
    ASSERT_NO_FATAL_FAILURE(ExpectSameCells(*ta, *tb));
  }
  const auto pa = PhysicalTables(*bulk.backend());
  const auto pb = PhysicalTables(*replay.backend());
  ASSERT_EQ(pa.size(), pb.size());
  for (size_t i = 0; i < pa.size(); ++i) {
    ASSERT_NO_FATAL_FAILURE(ExpectSameCells(*pa[i], *pb[i]));
  }
  EXPECT_EQ(bulk.StorageBytes(), replay.StorageBytes());
}

/// Load `state` under every model, through FromState and through the
/// per-version replay, and compare the two.
void ExpectLoadMatchesReplay(const CvdState& state) {
  for (DataModelType model : kAllModels) {
    SCOPED_TRACE(DataModelTypeName(model));
    CvdState st = state;
    st.model = model;
    auto bulk = Cvd::FromState(st);
    ASSERT_TRUE(bulk.ok()) << bulk.status().ToString();
    std::unique_ptr<Cvd> replay = ReplayPerVersion(st);
    ASSERT_NE(replay, nullptr);
    ASSERT_NO_FATAL_FAILURE(ExpectSameCvd(**bulk, *replay));
    ValidationReport report;
    ValidateCvd(**bulk, &report);
    EXPECT_TRUE(report.ok()) << report.ToString();

    // One more commit on each: the loaded index and vlists are live.
    const VersionId parent = (*bulk)->latest();
    auto va = (*bulk)->CommitTable(NextCommit(**bulk), {parent}, "next");
    auto vb = replay->CommitTable(NextCommit(*replay), {parent}, "next");
    ASSERT_TRUE(va.ok()) << va.status().ToString();
    ASSERT_TRUE(vb.ok()) << vb.status().ToString();
    EXPECT_EQ(*va, *vb);
    ASSERT_NO_FATAL_FAILURE(ExpectSameCvd(**bulk, *replay));
  }
}

/// A generated dataset in snapshot form (payloads all int64).
CvdState StateOfDataset(const benchdata::VersionedDataset& ds) {
  CvdState st;
  st.name = ds.name();
  for (int a = 0; a < ds.num_attributes(); ++a) {
    const std::string name = "a" + std::to_string(a);
    st.data_schema.push_back({name, ValueType::kInt64});
    st.attributes.push_back({a, name, ValueType::kInt64});
    st.current_attr_ids.push_back(a);
  }
  st.next_rid = ds.num_distinct_records();
  std::vector<bool> seen(ds.num_distinct_records(), false);
  for (int v = 0; v < ds.num_versions(); ++v) {
    const benchdata::VersionSpec& spec = ds.version(v);
    VersionMetadata meta;
    meta.vid = v + 1;
    std::vector<int64_t> weights;
    for (int p : spec.parents) {
      meta.parents.push_back(p + 1);
      weights.push_back(ds.CommonRecords(p, v));
    }
    meta.num_records = static_cast<int64_t>(spec.records.size());
    std::vector<NewRecord> fresh;
    for (int64_t rid : spec.records) {
      if (seen[rid]) continue;
      seen[rid] = true;
      Row row;
      for (int64_t x : ds.RecordPayload(rid)) row.push_back(Value(x));
      fresh.push_back({rid, std::move(row)});
    }
    st.metadata.push_back(std::move(meta));
    st.version_parents.push_back(spec.parents);
    st.version_weights.push_back(std::move(weights));
    st.version_rids.push_back(spec.records);
    st.version_new_records.push_back(std::move(fresh));
  }
  st.logical_clock = 2 * ds.num_versions();
  return st;
}

TEST(LoadEquivalenceTest, SciTree) {
  benchdata::GeneratorConfig config =
      benchdata::SciConfig("sci", 30, 4, 12, /*seed=*/11);
  config.num_attributes = 4;
  auto ds = benchdata::VersionedDataset::Generate(config);
  ExpectLoadMatchesReplay(StateOfDataset(ds));
}

TEST(LoadEquivalenceTest, CurDagWithMerges) {
  benchdata::GeneratorConfig config =
      benchdata::CurConfig("cur", 30, 4, 12, /*seed=*/13);
  config.num_attributes = 4;
  auto ds = benchdata::VersionedDataset::Generate(config);
  bool merges = false;
  for (const auto& v : ds.versions()) merges = merges || v.parents.size() > 1;
  ASSERT_TRUE(merges);
  ExpectLoadMatchesReplay(StateOfDataset(ds));
}

TEST(LoadEquivalenceTest, SchemaEvolvedNullPaddedPayloads) {
  auto cvd = Cvd::Init("evolved", InteractionTable(), Cvd::Options{})
                 .MoveValueOrDie();
  // v2 adds an attribute set on one row only: the other two records are
  // kept and come back from ExportState padded with a NULL.
  Database staging;
  ASSERT_TRUE(cvd->Checkout({1}, "w", &staging).ok());
  Table* t = staging.GetTable("w");
  ASSERT_TRUE(t->AddColumn({"score", ValueType::kDouble}).ok());
  Row row = t->GetRow(0);
  row[4] = Value(2.5);
  t->SetRow(0, row);
  ASSERT_TRUE(cvd->Commit("w", &staging, "add score").ok());
  ASSERT_TRUE(cvd->Checkout({2}, "w", &staging).ok());
  t = staging.GetTable("w");
  ASSERT_TRUE(
      t->InsertRow({Value::Null(), Value("ENSP1"), Value("ENSP2"),
                    Value(int64_t{7}), Value::Null()})
          .ok());
  ASSERT_TRUE(cvd->Commit("w", &staging, "insert").ok());
  CvdState state = cvd->ExportState().MoveValueOrDie();
  ASSERT_EQ(state.data_schema.size(), 4u);
  ASSERT_TRUE(state.version_new_records[0][1].data[3].is_null());
  ExpectLoadMatchesReplay(state);
}

TEST(LoadEquivalenceTest, VlistsAroundCompressionThreshold) {
  // r0, r1 and r2 live in 7, 8 and 9 consecutive versions: their vlists
  // straddle RidSet::kMinCompressElems (8). Every version also stores one
  // record of its own that later versions keep.
  ASSERT_EQ(RidSet::kMinCompressElems, 8u);
  std::vector<VersionSpec> specs;
  for (int v = 0; v < 9; ++v) {
    VersionSpec spec;
    if (v > 0) spec.parents = {v - 1};
    for (RecordId rid = 0; rid < 3; ++rid) {
      if (v < 7 + rid) spec.rids.push_back(rid);
    }
    for (int w = 0; w <= v; ++w) spec.rids.push_back(10 + w);
    spec.fresh = {10 + v};
    if (v == 0) spec.fresh.insert(spec.fresh.begin(), {0, 1, 2});
    specs.push_back(spec);
  }
  CvdState state = HandBuiltState(specs);
  ExpectLoadMatchesReplay(state);

  // The threshold shows in the loaded vlists: 7 vids stay plain, 8 and 9
  // compress.
  state.model = DataModelType::kCombinedTable;
  auto cvd = Cvd::FromState(state).MoveValueOrDie();
  const auto* backend =
      dynamic_cast<const CombinedTableBackend*>(cvd->backend());
  ASSERT_NE(backend, nullptr);
  const Table& combined = backend->combined_table();
  const minidb::Column& vlists = combined.column(combined.num_columns() - 1);
  ASSERT_EQ(vlists.GetRidSet(0), nullptr);
  EXPECT_EQ(vlists.GetIntArray(0).size(), 7u);
  ASSERT_NE(vlists.GetRidSet(1), nullptr);
  EXPECT_EQ(vlists.GetRidSet(1)->size(), 8u);
  ASSERT_NE(vlists.GetRidSet(2), nullptr);
  EXPECT_EQ(vlists.GetRidSet(2)->size(), 9u);
}

TEST(LoadEquivalenceTest, EmptyVersion) {
  // v1 drops every record; v2 merges it with v0, keeping two of v0's
  // records next to a new one.
  ExpectLoadMatchesReplay(HandBuiltState(
      {{{}, {0, 1, 2}, {0, 1, 2}}, {{0}, {}, {}}, {{1, 0}, {1, 2, 3}, {3}}}));
}

}  // namespace
}  // namespace orpheus::core
