// Differential tests for the compressed version-membership index: every
// versioning operation must produce identical results with ORPHEUS_RIDSET
// off (plain i64 rlist/vlist vectors, the legacy representation) and on
// (compressed RidSet cells probed in place). The gate changes the physical
// representation and the checkout kernel — never the answer or the bytes
// that reach disk.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "benchdata/generator.h"
#include "common/ridset.h"
#include "common/thread_pool.h"
#include "common/validation.h"
#include "core/data_models.h"
#include "core/lyresplit.h"
#include "core/partition_store.h"
#include "storage/format.h"

namespace orpheus::core {
namespace {

/// Restores the previous gate state on scope exit so one failing test
/// cannot leak a disabled gate into the rest of the suite.
struct GateGuard {
  bool saved = RidSetEnabled();
  ~GateGuard() { SetRidSetEnabled(saved); }
};

struct Fixture {
  benchdata::VersionedDataset ds;
  DatasetAccessor accessor;
  VersionGraph graph;

  explicit Fixture(int versions = 40, int ops = 15)
      : ds(benchdata::VersionedDataset::Generate(
            benchdata::SciConfig("S", versions, 5, ops))) {
    accessor.num_versions = ds.num_versions();
    accessor.num_attributes = ds.num_attributes();
    accessor.records_of = [this](int v) -> const std::vector<RecordId>& {
      return ds.version(v).records;
    };
    accessor.payload_of = [this](RecordId rid, std::vector<int64_t>* out) {
      *out = ds.RecordPayload(rid);
    };
    for (int v = 0; v < ds.num_versions(); ++v) {
      const auto& spec = ds.version(v);
      std::vector<int64_t> w;
      for (int p : spec.parents) w.push_back(ds.CommonRecords(p, v));
      graph.AddVersion(spec.parents, w,
                       static_cast<int64_t>(spec.records.size()));
    }
  }
};

std::vector<int64_t> Flatten(const minidb::Table& t) {
  std::vector<int64_t> out;
  out.reserve(t.num_rows() * t.num_columns());
  for (uint32_t r = 0; r < t.num_rows(); ++r) {
    for (size_t c = 0; c < t.num_columns(); ++c) {
      out.push_back(t.column(static_cast<int>(c)).GetInt(r));
    }
  }
  return out;
}

minidb::Row PayloadRow(const benchdata::VersionedDataset& ds, RecordId rid) {
  minidb::Row row;
  for (int64_t v : ds.RecordPayload(rid)) row.emplace_back(v);
  return row;
}

std::unique_ptr<DataModelBackend> BuildBackend(
    DataModelType type, const benchdata::VersionedDataset& ds) {
  std::vector<minidb::ColumnDef> cols;
  for (int a = 0; a < ds.num_attributes(); ++a) {
    cols.push_back({"a" + std::to_string(a), minidb::ValueType::kInt64});
  }
  auto backend =
      DataModelBackend::Create(type, minidb::Schema(std::move(cols)));
  std::vector<char> seen(ds.num_distinct_records(), 0);
  for (int v = 0; v < ds.num_versions(); ++v) {
    const auto& spec = ds.version(v);
    std::vector<NewRecord> fresh;
    for (RecordId rid : spec.records) {
      if (!seen[rid]) {
        seen[rid] = 1;
        fresh.push_back({rid, PayloadRow(ds, rid)});
      }
    }
    Status s = backend->AddVersion(v, spec.records, fresh, spec.parents);
    EXPECT_TRUE(s.ok()) << s.ToString();
  }
  return backend;
}

const DataModelType kAllModels[] = {
    DataModelType::kATablePerVersion, DataModelType::kCombinedTable,
    DataModelType::kSplitByVlist, DataModelType::kSplitByRlist,
    DataModelType::kDeltaBased,
};

TEST(RidSetDifferential, BackendCheckoutIdenticalOffVsOn) {
  GateGuard guard;
  Fixture f;
  for (DataModelType model : kAllModels) {
    SetRidSetEnabled(false);
    auto off = BuildBackend(model, f.ds);
    SetRidSetEnabled(true);
    auto on = BuildBackend(model, f.ds);
    for (int v : {0, 7, f.ds.num_versions() / 2, f.ds.num_versions() - 1}) {
      auto t_off = off->Checkout(v, "off");
      auto t_on = on->Checkout(v, "on");
      ASSERT_TRUE(t_off.ok()) << t_off.status().ToString();
      ASSERT_TRUE(t_on.ok()) << t_on.status().ToString();
      EXPECT_EQ(Flatten(*t_off), Flatten(*t_on))
          << DataModelTypeName(model) << " v" << v;
    }
    // VersionRecords (the commit/diff membership source) must agree too.
    for (int v = 0; v < f.ds.num_versions(); ++v) {
      auto r_off = off->VersionRecords(v);
      auto r_on = on->VersionRecords(v);
      ASSERT_TRUE(r_off.ok() && r_on.ok());
      EXPECT_EQ(r_off.ValueOrDie(), r_on.ValueOrDie())
          << DataModelTypeName(model) << " v" << v;
    }
  }
}

TEST(RidSetDifferential, PartitionedStoreCheckoutIdenticalOffVsOn) {
  GateGuard guard;
  Fixture f;
  Partitioning plan =
      LyreSplitForBudget(
          f.graph, 2 * static_cast<uint64_t>(f.ds.num_distinct_records()))
          .partitioning;

  SetRidSetEnabled(false);
  PartitionedStore store_off = PartitionedStore::Build(f.accessor, plan);
  SetRidSetEnabled(true);
  PartitionedStore store_on = PartitionedStore::Build(f.accessor, plan);

  for (int v = 0; v < f.ds.num_versions(); ++v) {
    auto t_off = store_off.Checkout(v);
    auto t_on = store_on.Checkout(v);
    ASSERT_TRUE(t_off.ok()) << t_off.status().ToString();
    ASSERT_TRUE(t_on.ok()) << t_on.status().ToString();
    EXPECT_EQ(Flatten(*t_off), Flatten(*t_on)) << "v" << v;
  }
  // The compressed rlists must cost no more than the plain vectors.
  EXPECT_LE(store_on.VersioningBytes(), store_off.VersioningBytes());
}

TEST(RidSetDifferential, CheckoutDeterministicAcrossPoolDegrees) {
  GateGuard guard;
  SetRidSetEnabled(true);
  Fixture f;
  Partitioning plan =
      LyreSplitForBudget(
          f.graph, 2 * static_cast<uint64_t>(f.ds.num_distinct_records()))
          .partitioning;
  PartitionedStore store = PartitionedStore::Build(f.accessor, plan);
  for (int v : {0, 11, f.ds.num_versions() - 1}) {
    ThreadPool::Global().SetDegree(1);
    auto serial = store.Checkout(v);
    ThreadPool::Global().SetDegree(8);
    auto fanned = store.Checkout(v);
    ThreadPool::Global().SetDegree(1);
    ASSERT_TRUE(serial.ok() && fanned.ok());
    EXPECT_EQ(Flatten(*serial), Flatten(*fanned)) << "v" << v;
  }
}

TEST(RidSetDifferential, EncodedValueBytesIndependentOfGate) {
  GateGuard guard;
  // A versioning cell holding the same rid list, stored compressed (gate
  // on) and plain (gate off), must serialize to identical bytes: snapshots
  // and WAL records cannot depend on the in-memory representation.
  std::vector<int64_t> rids;
  for (int i = 0; i < 10000; ++i) rids.push_back(i * 3 + 100);

  minidb::Value plain(rids);
  auto set = RidSet::TryFromVector(rids);
  ASSERT_NE(set, nullptr);
  minidb::Value compressed(set);

  storage::Encoder enc_plain;
  storage::EncodeValue(plain, &enc_plain);
  storage::Encoder enc_set;
  storage::EncodeValue(compressed, &enc_set);
  EXPECT_EQ(enc_plain.data(), enc_set.data());

  // Decode under both gate settings: same logical value either way.
  for (bool on : {false, true}) {
    SetRidSetEnabled(on);
    storage::Decoder dec(enc_plain.data());
    auto back = storage::DecodeValue(&dec);
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    EXPECT_EQ(back.ValueOrDie().AsIntArray(), rids) << "gate=" << on;
    EXPECT_TRUE(dec.AtEnd());
  }

  // Short or unsorted lists take the raw encoding and roundtrip too.
  for (const std::vector<int64_t>& raw :
       {std::vector<int64_t>{5, 3, 9}, std::vector<int64_t>{1, 2, 3}}) {
    storage::Encoder enc;
    storage::EncodeValue(minidb::Value(raw), &enc);
    storage::Decoder dec(enc.data());
    auto back = storage::DecodeValue(&dec);
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(back.ValueOrDie().AsIntArray(), raw);
  }
}

TEST(RidSetDifferential, EncodedRidListRoundTrip) {
  for (const std::vector<int64_t>& rids :
       {std::vector<int64_t>{}, std::vector<int64_t>{1, 2, 3},
        std::vector<int64_t>{9, 1, 4},  // unsorted stays raw
        [] {
          std::vector<int64_t> v;
          for (int i = 0; i < 5000; ++i) v.push_back(i * i);
          return v;
        }()}) {
    storage::Encoder enc;
    storage::EncodeRidList(rids, &enc);
    storage::Decoder dec(enc.data());
    auto back = storage::DecodeRidList(&dec);
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    EXPECT_EQ(back.ValueOrDie(), rids);
    EXPECT_TRUE(dec.AtEnd());
  }
}

// Regression: rlist sortedness is established once when versions are
// inserted (or migrated), not re-derived per checkout — an unsorted rlist
// reaching AppendVersionRecords must still check out correctly via the
// hash-join fallback instead of tripping the merge join.
TEST(RidSetDifferential, UnsortedPlainRlistStillCheckoutCorrect) {
  // Unsorted rlists violate the store's documented invariant, and
  // ORPHEUS_VALIDATE=1 builds reject such a store at Build() time (which is
  // also correct behavior). This test covers the other half of the defense:
  // without the validator, the cached rlists_sorted=false must route
  // checkout to the hash join so the answer stays right.
  if (orpheus::ValidationEnabled()) {
    GTEST_SKIP() << "validate mode rejects unsorted rlists at build time";
  }
  GateGuard guard;
  // With the gate off, AddVersion keeps whatever order the accessor hands
  // out; the store must remember that sortedness was broken.
  SetRidSetEnabled(false);
  Fixture f;
  // Accessor that reverses every rlist (sorted ascending -> descending).
  std::vector<std::vector<RecordId>> reversed(f.ds.num_versions());
  for (int v = 0; v < f.ds.num_versions(); ++v) {
    reversed[v] = f.ds.version(v).records;
    std::reverse(reversed[v].begin(), reversed[v].end());
  }
  DatasetAccessor rev = f.accessor;
  rev.records_of = [&reversed](int v) -> const std::vector<RecordId>& {
    return reversed[v];
  };

  Partitioning plan = Partitioning::SinglePartition(f.ds.num_versions());
  PartitionedStore store = PartitionedStore::Build(rev, plan);
  for (int v : {0, f.ds.num_versions() - 1}) {
    auto t = store.Checkout(v);
    ASSERT_TRUE(t.ok()) << t.status().ToString();
    std::vector<RecordId> rids(t->column(0).int_data().begin(),
                               t->column(0).int_data().end());
    std::sort(rids.begin(), rids.end());
    EXPECT_EQ(rids, f.ds.version(v).records) << "v" << v;
  }
}

}  // namespace
}  // namespace orpheus::core
