#ifndef ORPHEUS_CORE_DATA_MODELS_H_
#define ORPHEUS_CORE_DATA_MODELS_H_

#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "core/types.h"
#include "minidb/join.h"
#include "minidb/table.h"

namespace orpheus::core {

/// The five candidate physical representations for a CVD (Chapter 4).
enum class DataModelType {
  kATablePerVersion,  // Approach 4.5
  kCombinedTable,     // Approach 4.1
  kSplitByVlist,      // Approach 4.2
  kSplitByRlist,      // Approach 4.3 — OrpheusDB's chosen model
  kDeltaBased,        // Approach 4.4
};

const char* DataModelTypeName(DataModelType t);

/// A record whose payload is not yet stored in the CVD: its freshly assigned
/// rid plus the data-attribute values (no rid column).
struct NewRecord {
  RecordId rid;
  minidb::Row data;
};

/// Physical storage backend for one CVD. Versions are dense indices assigned
/// by the caller in commit order; rids are assigned by the record manager.
///
/// All backends expose the same logical operations so Chapter 4's comparison
/// (Fig. 4.1) is an apples-to-apples sweep over this interface.
class DataModelBackend {
 public:
  virtual ~DataModelBackend() = default;

  virtual DataModelType type() const = 0;
  const char* name() const { return DataModelTypeName(type()); }

  /// Current data-attribute schema (no rid column).
  const minidb::Schema& data_schema() const { return data_schema_; }
  int num_versions() const { return num_versions_; }

  /// Register version `vid` == num_versions() with sorted record membership
  /// `rids`, the payloads of records never stored before (`new_records`,
  /// sorted by rid; every new rid must appear in `rids`), and its parent
  /// version indices.
  virtual Status AddVersion(int vid, const std::vector<RecordId>& rids,
                            const std::vector<NewRecord>& new_records,
                            const std::vector<int>& parents) = 0;

  /// Bulk-register a whole history into an empty backend: version v gets
  /// membership `rids[v]`, first-stored payloads `new_records[v]` and
  /// parents `parents[v]`, leaving the backend exactly as n AddVersion
  /// calls would (snapshot and WAL-create loads). The input comes from
  /// disk, so the AddVersion contract is checked first and any violation
  /// is Corruption: memberships strictly ascending, every member stored by
  /// this or an earlier version, every new rid new once and a member of
  /// its own version, parents earlier versions, and payloads of the
  /// schema's width.
  Status LoadVersions(const std::vector<std::vector<RecordId>>& rids,
                      const std::vector<std::vector<NewRecord>>& new_records,
                      const std::vector<std::vector<int>>& parents);

  /// Sorted rids of version `vid`.
  virtual Result<std::vector<RecordId>> VersionRecords(int vid) const = 0;

  /// Materialize version `vid` as a table named `out` with schema
  /// [_rid, data attributes...].
  virtual Result<minidb::Table> Checkout(int vid,
                                         const std::string& out) const = 0;

  /// Fetch the payload of a single record by rid (used by commit's
  /// modification detection). `version_hint` is a version known to contain
  /// the rid (or a good starting point).
  virtual Result<minidb::Row> GetRecordPayload(RecordId rid,
                                               int version_hint) const = 0;

  /// Bytes of physical storage (data + versioning info + indexes); what
  /// Fig. 4.1(a) plots.
  virtual uint64_t StorageBytes() const = 0;

  /// Schema evolution: add a data attribute (single-pool model, Sec. 4.3).
  virtual Status AddAttribute(const minidb::ColumnDef& def) = 0;

  /// Schema evolution: widen data attribute `attr_idx` to a more general
  /// type (e.g. int64 -> double, Sec. 4.3's integer -> decimal).
  virtual Status WidenAttribute(int attr_idx, minidb::ValueType to) = 0;

  static std::unique_ptr<DataModelBackend> Create(DataModelType type,
                                                  minidb::Schema data_schema);

 protected:
  explicit DataModelBackend(minidb::Schema data_schema)
      : data_schema_(std::move(data_schema)) {}

  /// rid -> row map of a checked load (defined in data_models.cc).
  class RowOfRid;

  /// A LoadVersions input that passed its checks. `records` lists every
  /// payload in first-stored order (the row order AddVersion appends in).
  struct CheckedLoad {
    const std::vector<std::vector<RecordId>>& rids;
    const std::vector<std::vector<NewRecord>>& new_records;
    const std::vector<std::vector<int>>& parents;
    const RowOfRid& row_of;
    std::vector<const NewRecord*> records;

    /// Index into `records` of the record with rid `rid`, which some
    /// version stores.
    uint32_t RowOf(RecordId rid) const;
  };

  /// Register a checked history. The default replays AddVersion per
  /// version; models with a cheaper bulk form override it.
  virtual Status LoadChecked(const CheckedLoad& load);

  /// Append one vlist cell per record of `load`, in record order, to `col`:
  /// the memberships inverted in one counting pass into CSR offsets plus
  /// one flat vid array.
  static void AppendVlists(const CheckedLoad& load, minidb::Column* col);

  /// Schema of a materialized table: [_rid, data attributes...].
  minidb::Schema MaterializedSchema() const;

  minidb::Schema data_schema_;
  int num_versions_ = 0;
};

// ---------------------------------------------------------------------------
// Approach 4.5: one full table per version.
// ---------------------------------------------------------------------------
class ATablePerVersionBackend final : public DataModelBackend {
 public:
  explicit ATablePerVersionBackend(minidb::Schema data_schema)
      : DataModelBackend(std::move(data_schema)) {}

  DataModelType type() const override {
    return DataModelType::kATablePerVersion;
  }
  Status AddVersion(int vid, const std::vector<RecordId>& rids,
                    const std::vector<NewRecord>& new_records,
                    const std::vector<int>& parents) override;
  Result<std::vector<RecordId>> VersionRecords(int vid) const override;
  Result<minidb::Table> Checkout(int vid,
                                 const std::string& out) const override;
  Result<minidb::Row> GetRecordPayload(RecordId rid,
                                       int version_hint) const override;
  uint64_t StorageBytes() const override;
  Status AddAttribute(const minidb::ColumnDef& def) override;
  Status WidenAttribute(int attr_idx, minidb::ValueType to) override;

 private:
  std::vector<minidb::Table> version_tables_;
};

// ---------------------------------------------------------------------------
// Approach 4.1: a single combined table with a vlist array column.
// ---------------------------------------------------------------------------
class CombinedTableBackend final : public DataModelBackend {
 public:
  explicit CombinedTableBackend(minidb::Schema data_schema);

  DataModelType type() const override { return DataModelType::kCombinedTable; }
  Status AddVersion(int vid, const std::vector<RecordId>& rids,
                    const std::vector<NewRecord>& new_records,
                    const std::vector<int>& parents) override;
  Result<std::vector<RecordId>> VersionRecords(int vid) const override;
  Result<minidb::Table> Checkout(int vid,
                                 const std::string& out) const override;
  Result<minidb::Row> GetRecordPayload(RecordId rid,
                                       int version_hint) const override;
  uint64_t StorageBytes() const override;
  Status AddAttribute(const minidb::ColumnDef& def) override;
  Status WidenAttribute(int attr_idx, minidb::ValueType to) override;

  /// The physical table, for tests.
  const minidb::Table& combined_table() const { return combined_; }

 private:
  /// One pass: invert memberships into vlists and write every row once.
  Status LoadChecked(const CheckedLoad& load) override;

  // Physical position of data attribute k: attributes added after creation
  // land beyond the vlist column (minidb appends columns at the end).
  int PhysicalDataCol(int k) const {
    return k + 1 < vlist_col_ ? k + 1 : k + 2;
  }

  minidb::Table combined_;  // [_rid, attrs..., vlist, late attrs...]
  int vlist_col_;
};

// ---------------------------------------------------------------------------
// Approach 4.2: data table + versioning table keyed by rid (vlist arrays).
// ---------------------------------------------------------------------------
class SplitByVlistBackend final : public DataModelBackend {
 public:
  explicit SplitByVlistBackend(minidb::Schema data_schema);

  DataModelType type() const override { return DataModelType::kSplitByVlist; }
  Status AddVersion(int vid, const std::vector<RecordId>& rids,
                    const std::vector<NewRecord>& new_records,
                    const std::vector<int>& parents) override;
  Result<std::vector<RecordId>> VersionRecords(int vid) const override;
  Result<minidb::Table> Checkout(int vid,
                                 const std::string& out) const override;
  Result<minidb::Row> GetRecordPayload(RecordId rid,
                                       int version_hint) const override;
  uint64_t StorageBytes() const override;
  Status AddAttribute(const minidb::ColumnDef& def) override;
  Status WidenAttribute(int attr_idx, minidb::ValueType to) override;

  /// The physical tables, for tests.
  const minidb::Table& data_table() const { return data_; }
  const minidb::Table& versioning_table() const { return versioning_; }

 private:
  /// One pass: invert memberships into vlists and write every row once.
  Status LoadChecked(const CheckedLoad& load) override;

  /// Ascending rids of version `vid`, from a scan of the vlists.
  std::vector<RecordId> SortedRids(int vid) const;

  minidb::Table data_;        // [_rid, attrs...]
  minidb::Table versioning_;  // [_rid, vlist]
  /// True while the data table's rid column is an ascending run; as in
  /// SplitByRlistBackend, it selects the serial merge join kernel.
  bool data_rid_ascending_ = true;
};

// ---------------------------------------------------------------------------
// Approach 4.3: data table + versioning table keyed by vid (rlist arrays).
// This is the model OrpheusDB adopts.
// ---------------------------------------------------------------------------
class SplitByRlistBackend final : public DataModelBackend {
 public:
  explicit SplitByRlistBackend(minidb::Schema data_schema);

  DataModelType type() const override { return DataModelType::kSplitByRlist; }
  Status AddVersion(int vid, const std::vector<RecordId>& rids,
                    const std::vector<NewRecord>& new_records,
                    const std::vector<int>& parents) override;
  Result<std::vector<RecordId>> VersionRecords(int vid) const override;
  Result<minidb::Table> Checkout(int vid,
                                 const std::string& out) const override;
  Result<minidb::Row> GetRecordPayload(RecordId rid,
                                       int version_hint) const override;
  uint64_t StorageBytes() const override;
  Status AddAttribute(const minidb::ColumnDef& def) override;
  Status WidenAttribute(int attr_idx, minidb::ValueType to) override;

  /// The join strategy used by Checkout; hash-join by default (Sec. 5.5.5).
  void set_join_algorithm(minidb::JoinAlgorithm algo) { join_algo_ = algo; }

  /// Direct access for the partition optimizer.
  const minidb::Table& data_table() const { return data_; }
  const minidb::Table& versioning_table() const { return versioning_; }

 private:
  /// Write every data row once, and one rlist per version.
  Status LoadChecked(const CheckedLoad& load) override;

  minidb::Table data_;        // [_rid, attrs...]
  minidb::Table versioning_;  // [vid, rlist]
  minidb::JoinAlgorithm join_algo_ = minidb::JoinAlgorithm::kHashJoin;
  /// True while the data table's rid column is an ascending run (commits
  /// append fresh increasing rids, so this holds in the common case);
  /// lets the compressed-rlist checkout use the serial merge kernel.
  bool data_rid_ascending_ = true;
};

// ---------------------------------------------------------------------------
// Approach 4.4: delta-based — each version stores modifications from a
// single base (precedent) version.
// ---------------------------------------------------------------------------
class DeltaBasedBackend final : public DataModelBackend {
 public:
  explicit DeltaBasedBackend(minidb::Schema data_schema)
      : DataModelBackend(std::move(data_schema)) {}

  DataModelType type() const override { return DataModelType::kDeltaBased; }
  Status AddVersion(int vid, const std::vector<RecordId>& rids,
                    const std::vector<NewRecord>& new_records,
                    const std::vector<int>& parents) override;
  Result<std::vector<RecordId>> VersionRecords(int vid) const override;
  Result<minidb::Table> Checkout(int vid,
                                 const std::string& out) const override;
  Result<minidb::Row> GetRecordPayload(RecordId rid,
                                       int version_hint) const override;
  uint64_t StorageBytes() const override;
  Status AddAttribute(const minidb::ColumnDef& def) override;
  Status WidenAttribute(int attr_idx, minidb::ValueType to) override;

  /// The delta chain, for tests: version `vid`'s base (-1 at a root) and
  /// the rows it inserts, [_rid, attrs...].
  int delta_base(int vid) const { return deltas_[vid].base; }
  const minidb::Table& delta_inserts(int vid) const {
    return deltas_[vid].inserts;
  }

 private:
  struct Delta {
    int base = -1;                  // precedent version (-1 = root)
    minidb::Table inserts;          // [_rid, attrs...] records added vs base
    std::vector<RecordId> deletes;  // rids removed vs base (tombstones)
    Delta(minidb::Schema schema, const std::string& name)
        : inserts(name, std::move(schema)) {}
  };

  /// Pick the base of a version of `rids` with `parents` into `delta`,
  /// fill its deletes, and return the rids it must insert.
  std::vector<RecordId> PlanDelta(const std::vector<RecordId>& rids,
                                  const std::vector<int>& parents,
                                  Delta* delta) const;
  /// One delta per version as AddVersion builds it, payloads by row.
  Status LoadChecked(const CheckedLoad& load) override;

  std::vector<Delta> deltas_;
  // Membership cache: rebuilt-on-restart index, not counted as storage
  // (the paper's delta model stores only the deltas + precedent table).
  std::vector<std::vector<RecordId>> membership_;
};

}  // namespace orpheus::core

#endif  // ORPHEUS_CORE_DATA_MODELS_H_
