// Differential tests for the compressed version-membership index: every
// versioning operation must give the answer an in-test oracle (std::set /
// std::vector over the history's memberships) gives. An array cell is
// stored compressed when it is sorted, duplicate-free and at least
// RidSet::kMinCompressElems long, and plain otherwise, so the histories here
// mix long memberships (compressed cells, probed in place) with short and
// unsorted ones (plain cells, the binary-search and JoinRids paths). The
// representation changes the kernel — never the answer or the bytes that
// reach disk.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <set>
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

constexpr int kAttrs = 3;

/// A version history held as plain memberships: the oracle every store is
/// checked against.
struct History {
  std::vector<std::vector<RecordId>> records;  // per version, ascending
  std::vector<std::vector<int>> parents;

  int num_versions() const { return static_cast<int>(records.size()); }

  uint64_t NumDistinctRecords() const {
    std::set<RecordId> all;
    for (const auto& rids : records) all.insert(rids.begin(), rids.end());
    return all.size();
  }

  static std::vector<int64_t> Payload(RecordId rid) {
    return {rid * 7, rid % 5, -rid};
  }

  /// The SCI generator's history: every membership is long, so every
  /// rlist and almost every vlist is a compressed cell.
  static History Sci(int versions = 40, int ops = 15) {
    auto ds = benchdata::VersionedDataset::Generate(
        benchdata::SciConfig("S", versions, 5, ops));
    History h;
    for (int v = 0; v < ds.num_versions(); ++v) {
      h.records.push_back(ds.version(v).records);
      h.parents.push_back(ds.version(v).parents);
    }
    return h;
  }

  /// A chain whose version v holds one rid shared by every version plus
  /// the window [v, end_v] of rids, end_v = max(end_{v-1}, v + v % 12).
  /// Both window ends only move up, so a dropped rid never returns. That
  /// gives rlists of 2..13 ids and vlists of 1..12 ids (and one of every
  /// version), so compressed and plain cells sit side by side in one table.
  static History Short(int versions = 30) {
    History h;
    constexpr RecordId kShared = 1000;
    RecordId end = -1;
    for (int v = 0; v < versions; ++v) {
      end = std::max<RecordId>(end, v + v % 12);
      std::vector<RecordId> rids;
      for (RecordId rid = v; rid <= end; ++rid) rids.push_back(rid);
      rids.push_back(kShared);
      h.records.push_back(rids);
      h.parents.push_back(v == 0 ? std::vector<int>{}
                                 : std::vector<int>{v - 1});
    }
    return h;
  }

  /// Ascending [rid, payload...] rows of version `v`.
  std::vector<std::vector<int64_t>> ExpectedRows(int v) const {
    std::set<RecordId> members(records[v].begin(), records[v].end());
    std::vector<std::vector<int64_t>> rows;
    for (RecordId rid : members) {
      std::vector<int64_t> row{rid};
      for (int64_t x : Payload(rid)) row.push_back(x);
      rows.push_back(row);
    }
    return rows;
  }

  VersionGraph Graph() const {
    VersionGraph graph;
    for (int v = 0; v < num_versions(); ++v) {
      std::vector<int64_t> w;
      for (int p : parents[v]) {
        std::vector<RecordId> common;
        std::set_intersection(records[p].begin(), records[p].end(),
                              records[v].begin(), records[v].end(),
                              std::back_inserter(common));
        w.push_back(static_cast<int64_t>(common.size()));
      }
      graph.AddVersion(parents[v], w,
                       static_cast<int64_t>(records[v].size()));
    }
    return graph;
  }

  /// Accessor over `memberships` (the history's own, unless a test hands
  /// out a reordered copy).
  DatasetAccessor Accessor(
      const std::vector<std::vector<RecordId>>& memberships) const {
    DatasetAccessor accessor;
    accessor.num_versions = num_versions();
    accessor.num_attributes = kAttrs;
    accessor.records_of =
        [&memberships](int v) -> const std::vector<RecordId>& {
      return memberships[v];
    };
    accessor.payload_of = [](RecordId rid, std::vector<int64_t>* out) {
      *out = Payload(rid);
    };
    return accessor;
  }
};

/// Checked-out rows sorted by rid.
std::vector<std::vector<int64_t>> SortedRows(const minidb::Table& t) {
  std::vector<std::vector<int64_t>> rows(t.num_rows());
  for (uint32_t r = 0; r < t.num_rows(); ++r) {
    for (size_t c = 0; c < t.num_columns(); ++c) {
      rows[r].push_back(t.column(static_cast<int>(c)).GetInt(r));
    }
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

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

std::unique_ptr<DataModelBackend> BuildBackend(DataModelType type,
                                               const History& h) {
  std::vector<minidb::ColumnDef> cols;
  for (int a = 0; a < kAttrs; ++a) {
    cols.push_back({"a" + std::to_string(a), minidb::ValueType::kInt64});
  }
  auto backend =
      DataModelBackend::Create(type, minidb::Schema(std::move(cols)));
  std::set<RecordId> seen;
  for (int v = 0; v < h.num_versions(); ++v) {
    std::vector<NewRecord> fresh;
    for (RecordId rid : h.records[v]) {
      if (seen.insert(rid).second) {
        minidb::Row row;
        for (int64_t x : History::Payload(rid)) row.emplace_back(x);
        fresh.push_back({rid, std::move(row)});
      }
    }
    Status s = backend->AddVersion(v, h.records[v], fresh, h.parents[v]);
    EXPECT_TRUE(s.ok()) << s.ToString();
  }
  return backend;
}

const DataModelType kAllModels[] = {
    DataModelType::kATablePerVersion, DataModelType::kCombinedTable,
    DataModelType::kSplitByVlist, DataModelType::kSplitByRlist,
    DataModelType::kDeltaBased,
};

void ExpectBackendMatchesOracle(const History& h) {
  for (DataModelType model : kAllModels) {
    auto backend = BuildBackend(model, h);
    for (int v = 0; v < h.num_versions(); ++v) {
      auto t = backend->Checkout(v, "out");
      ASSERT_TRUE(t.ok()) << t.status().ToString();
      EXPECT_EQ(SortedRows(*t), h.ExpectedRows(v))
          << DataModelTypeName(model) << " v" << v;
      // VersionRecords (the commit/diff membership source) too.
      auto rids = backend->VersionRecords(v);
      ASSERT_TRUE(rids.ok()) << rids.status().ToString();
      EXPECT_EQ(rids.ValueOrDie(), h.records[v])
          << DataModelTypeName(model) << " v" << v;
    }
  }
}

TEST(RidSetDifferential, BackendCheckoutMatchesOracleLongMemberships) {
  ExpectBackendMatchesOracle(History::Sci());
}

// Short vlists send the combined-table scan down its binary search and
// short rlists send split-by-rlist down its plain JoinRids.
TEST(RidSetDifferential, BackendCheckoutMatchesOracleShortMemberships) {
  const History h = History::Short();
  size_t short_rlists = 0;
  for (const auto& rids : h.records) {
    short_rlists += rids.size() < RidSet::kMinCompressElems;
  }
  ASSERT_GT(short_rlists, 0u);
  ASSERT_LT(short_rlists, h.records.size());
  ExpectBackendMatchesOracle(h);
}

// The Sec. 5.5.5 ablation joins run over the decompressed rlist of a
// compressed cell and over a plain cell as it is.
TEST(RidSetDifferential, SplitByRlistAblationJoinsMatchOracle) {
  for (const History& h : {History::Sci(12), History::Short()}) {
    auto backend = BuildBackend(DataModelType::kSplitByRlist, h);
    auto* split = dynamic_cast<SplitByRlistBackend*>(backend.get());
    ASSERT_NE(split, nullptr);
    for (auto algo : {minidb::JoinAlgorithm::kMergeJoin,
                      minidb::JoinAlgorithm::kIndexNestedLoop}) {
      split->set_join_algorithm(algo);
      for (int v = 0; v < h.num_versions(); ++v) {
        auto t = split->Checkout(v, "out");
        ASSERT_TRUE(t.ok()) << t.status().ToString();
        EXPECT_EQ(SortedRows(*t), h.ExpectedRows(v))
            << minidb::JoinAlgorithmName(algo) << " v" << v;
      }
    }
  }
}

// Long rlists join through JoinRidSet, short ones through the merge join.
TEST(RidSetDifferential, PartitionedStoreCheckoutMatchesOracle) {
  for (const History& h : {History::Sci(), History::Short()}) {
    const DatasetAccessor accessor = h.Accessor(h.records);
    Partitioning plan =
        LyreSplitForBudget(h.Graph(), 2 * h.NumDistinctRecords())
            .partitioning;
    PartitionedStore store = PartitionedStore::Build(accessor, plan);
    for (int v = 0; v < h.num_versions(); ++v) {
      auto t = store.Checkout(v);
      ASSERT_TRUE(t.ok()) << t.status().ToString();
      EXPECT_EQ(SortedRows(*t), h.ExpectedRows(v)) << "v" << v;
    }
    // The rlists must cost no more than plain vectors would: 8 bytes per
    // vid, 8 per rid and a 16-byte array header per version.
    uint64_t plain_bytes = 0;
    for (const auto& rids : h.records) plain_bytes += 24 + 8 * rids.size();
    EXPECT_LE(store.VersioningBytes(), plain_bytes);
  }
}

TEST(RidSetDifferential, CheckoutDeterministicAcrossPoolDegrees) {
  const History h = History::Sci();
  const DatasetAccessor accessor = h.Accessor(h.records);
  Partitioning plan =
      LyreSplitForBudget(h.Graph(), 2 * h.NumDistinctRecords()).partitioning;
  PartitionedStore store = PartitionedStore::Build(accessor, plan);
  for (int v : {0, 11, h.num_versions() - 1}) {
    ThreadPool::Global().SetDegree(1);
    auto serial = store.Checkout(v);
    ThreadPool::Global().SetDegree(8);
    auto fanned = store.Checkout(v);
    ThreadPool::Global().SetDegree(1);
    ASSERT_TRUE(serial.ok() && fanned.ok());
    EXPECT_EQ(Flatten(*serial), Flatten(*fanned)) << "v" << v;
  }
}

TEST(RidSetDifferential, EncodedValueBytesIndependentOfRepresentation) {
  // A versioning cell holding the same rid list, held compressed and held
  // plain, must serialize to identical bytes: snapshots and WAL records
  // cannot depend on the in-memory representation.
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

  // The packed blob decodes to a compressed cell equal to both.
  storage::Decoder dec(enc_plain.data());
  auto back = storage::DecodeValue(&dec);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ASSERT_NE(back.ValueOrDie().TryRidSet(), nullptr);
  EXPECT_EQ((*back.ValueOrDie().TryRidSet())->ToVector(), rids);
  EXPECT_EQ(back.ValueOrDie(), plain);
  EXPECT_EQ(back.ValueOrDie(), compressed);
  EXPECT_TRUE(dec.AtEnd());

  // A compressed cell too short to pack takes the raw tag, byte for byte
  // what its plain twin writes.
  std::vector<int64_t> few{2, 4, 6};
  minidb::Value few_plain(few);
  minidb::Value few_set(
      std::make_shared<const RidSet>(RidSet::FromSorted(few)));
  storage::Encoder enc_few_plain;
  storage::EncodeValue(few_plain, &enc_few_plain);
  storage::Encoder enc_few_set;
  storage::EncodeValue(few_set, &enc_few_set);
  EXPECT_EQ(enc_few_plain.data(), enc_few_set.data());

  // Short or unsorted lists take the raw tag and come back plain.
  for (const std::vector<int64_t>& raw :
       {std::vector<int64_t>{5, 3, 9}, std::vector<int64_t>{1, 2, 3},
        std::vector<int64_t>{9, 8, 7, 6, 5, 4, 3, 2, 1}}) {
    storage::Encoder enc;
    storage::EncodeValue(minidb::Value(raw), &enc);
    storage::Decoder raw_dec(enc.data());
    auto raw_back = storage::DecodeValue(&raw_dec);
    ASSERT_TRUE(raw_back.ok());
    ASSERT_EQ(raw_back.ValueOrDie().TryRidSet(), nullptr);
    EXPECT_EQ(raw_back.ValueOrDie().AsIntArray(), raw);
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
  const History h = History::Sci();
  // Reversed (descending) rlists are not sorted, so AddVersion keeps them
  // as plain cells in the order the accessor hands out; the store must
  // remember that sortedness was broken.
  std::vector<std::vector<RecordId>> reversed = h.records;
  for (auto& rids : reversed) std::reverse(rids.begin(), rids.end());

  Partitioning plan = Partitioning::SinglePartition(h.num_versions());
  PartitionedStore store = PartitionedStore::Build(h.Accessor(reversed), plan);
  for (int v : {0, h.num_versions() - 1}) {
    auto t = store.Checkout(v);
    ASSERT_TRUE(t.ok()) << t.status().ToString();
    EXPECT_EQ(SortedRows(*t), h.ExpectedRows(v)) << "v" << v;
  }
}

}  // namespace
}  // namespace orpheus::core
