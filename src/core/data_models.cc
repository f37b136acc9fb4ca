#include "core/data_models.h"

#include <algorithm>
#include <cassert>
#include <unordered_set>

#include "common/ridset.h"
#include "common/string_util.h"
#include "common/thread_pool.h"

namespace orpheus::core {

using minidb::Column;
using minidb::ColumnDef;
using minidb::Row;
using minidb::Schema;
using minidb::Table;
using minidb::Value;
using minidb::ValueType;

const char* DataModelTypeName(DataModelType t) {
  switch (t) {
    case DataModelType::kATablePerVersion: return "a-table-per-version";
    case DataModelType::kCombinedTable: return "combined-table";
    case DataModelType::kSplitByVlist: return "split-by-vlist";
    case DataModelType::kSplitByRlist: return "split-by-rlist";
    case DataModelType::kDeltaBased: return "delta-based";
  }
  return "?";
}

Schema DataModelBackend::MaterializedSchema() const {
  std::vector<ColumnDef> cols;
  cols.reserve(data_schema_.num_columns() + 1);
  cols.push_back({"_rid", ValueType::kInt64});
  for (const auto& def : data_schema_.columns()) cols.push_back(def);
  return Schema(std::move(cols));
}

std::unique_ptr<DataModelBackend> DataModelBackend::Create(
    DataModelType type, Schema data_schema) {
  switch (type) {
    case DataModelType::kATablePerVersion:
      return std::make_unique<ATablePerVersionBackend>(std::move(data_schema));
    case DataModelType::kCombinedTable:
      return std::make_unique<CombinedTableBackend>(std::move(data_schema));
    case DataModelType::kSplitByVlist:
      return std::make_unique<SplitByVlistBackend>(std::move(data_schema));
    case DataModelType::kSplitByRlist:
      return std::make_unique<SplitByRlistBackend>(std::move(data_schema));
    case DataModelType::kDeltaBased:
      return std::make_unique<DeltaBasedBackend>(std::move(data_schema));
  }
  return nullptr;
}

namespace {

// Append {rid, data...} to a materialized-schema table.
void AppendRidRow(Table* table, RecordId rid, const Row& data) {
  Row full;
  full.reserve(data.size() + 1);
  full.emplace_back(static_cast<int64_t>(rid));
  for (const auto& v : data) full.push_back(v);
  table->AppendRowUnchecked(full);
}

Status BadVersion(int vid) {
  return Status::NotFound(StrFormat("version %d not registered", vid));
}

// Bulk-load fills. Each appends one cell per record to its columns, in
// record order, by the rules AppendRowUnchecked applies; the caller then
// counts the rows with Table::CountAppendedRows.

/// Rids to `rid_col` and field k to `fields[k]`. Walks each payload once,
/// front to back, the way it lies in memory.
void AppendRecords(const std::vector<const NewRecord*>& records,
                   Column* rid_col, const std::vector<Column*>& fields) {
  for (const NewRecord* rec : records) {
    rid_col->AppendInt(rec->rid);
    for (size_t k = 0; k < fields.size(); ++k) {
      fields[k]->AppendValue(rec->data[k]);
    }
  }
}

/// Rows [_rid, fields...] of `table`, one per record.
void AppendRecordRows(const std::vector<const NewRecord*>& records,
                      Table* table) {
  std::vector<Column*> fields;
  for (size_t c = 1; c < table->num_columns(); ++c) {
    fields.push_back(&table->mutable_column(c));
  }
  AppendRecords(records, &table->mutable_column(0), fields);
}

void AppendRids(const std::vector<const NewRecord*>& records, Column* col) {
  for (const NewRecord* rec : records) col->AppendInt(rec->rid);
}

bool RidsAscending(const std::vector<const NewRecord*>& records) {
  for (size_t r = 1; r < records.size(); ++r) {
    if (records[r]->rid <= records[r - 1]->rid) return false;
  }
  return true;
}

/// The first position at or after `lo` in ascending `v` whose value is not
/// below `x`; every value before `lo` must be below `x`. Gallops forward,
/// so a run of ascending probes costs about the distance they travel.
size_t GallopLowerBound(const std::vector<RecordId>& v, size_t lo,
                        RecordId x) {
  size_t hi = lo;
  for (size_t step = 1; hi < v.size() && v[hi] < x; step <<= 1) {
    lo = hi + 1;
    hi += step;
  }
  return static_cast<size_t>(
      std::lower_bound(v.begin() + lo, v.begin() + std::min(hi, v.size()),
                       x) -
      v.begin());
}

}  // namespace

/// rid -> row map for the load checks: open addressing with linear
/// probing over a power-of-two table at most two-thirds full, so a load
/// pays about one probe per lookup and no allocation per record.
class DataModelBackend::RowOfRid {
 public:
  explicit RowOfRid(size_t n) {
    while ((size_t{1} << bits_) < n + n / 2) ++bits_;
    slots_.assign(size_t{1} << bits_, Slot{0, kEmpty});
  }

  /// False if `rid` is already mapped.
  bool Insert(RecordId rid, uint32_t row) {
    for (size_t i = Home(rid);; i = (i + 1) & (slots_.size() - 1)) {
      if (slots_[i].row == kEmpty) {
        slots_[i] = Slot{rid, row};
        return true;
      }
      if (slots_[i].rid == rid) return false;
    }
  }

  /// The row of `rid`, or kEmpty.
  uint32_t Find(RecordId rid) const {
    for (size_t i = Home(rid);; i = (i + 1) & (slots_.size() - 1)) {
      if (slots_[i].row == kEmpty || slots_[i].rid == rid) {
        return slots_[i].row;
      }
    }
  }

  static constexpr uint32_t kEmpty = UINT32_MAX;

 private:
  struct Slot {
    RecordId rid;
    uint32_t row;
  };

  // Rids are dense in practice, so their low bits alone place them without
  // collisions, and a sorted membership probes the table front to back.
  // Folding in the high bits keeps strided rid sets from piling up.
  size_t Home(RecordId rid) const {
    const auto key = static_cast<uint64_t>(rid);
    return static_cast<size_t>(key ^ (key >> bits_)) & (slots_.size() - 1);
  }

  int bits_ = 4;
  std::vector<Slot> slots_;
};

uint32_t DataModelBackend::CheckedLoad::RowOf(RecordId rid) const {
  return row_of.Find(rid);
}

void DataModelBackend::AppendVlists(const CheckedLoad& load, Column* col) {
  // Record r's ascending vids are vids[offsets[r] .. offsets[r + 1]).
  const size_t num_records = load.records.size();
  std::vector<size_t> offsets(num_records + 1, 0);
  for (const std::vector<RecordId>& members : load.rids) {
    for (RecordId rid : members) ++offsets[load.RowOf(rid) + 1];
  }
  for (size_t r = 0; r < num_records; ++r) offsets[r + 1] += offsets[r];
  std::vector<int64_t> vids(offsets[num_records]);
  std::vector<size_t> cursor(offsets.begin(), offsets.end() - 1);
  for (size_t v = 0; v < load.rids.size(); ++v) {
    for (RecordId rid : load.rids[v]) {
      vids[cursor[load.RowOf(rid)]++] = static_cast<int64_t>(v);
    }
  }
  for (size_t r = 0; r < num_records; ++r) {
    col->AppendIntArray(std::vector<int64_t>(vids.begin() + offsets[r],
                                             vids.begin() + offsets[r + 1]));
  }
}

Status DataModelBackend::LoadVersions(
    const std::vector<std::vector<RecordId>>& rids,
    const std::vector<std::vector<NewRecord>>& new_records,
    const std::vector<std::vector<int>>& parents) {
  const size_t n = rids.size();
  if (new_records.size() != n || parents.size() != n) {
    return Status::Corruption(StrFormat(
        "history of %zu versions has %zu payload lists and %zu parent lists",
        n, new_records.size(), parents.size()));
  }
  if (num_versions_ != 0) {
    return Status::InvalidArgument("LoadVersions needs an empty backend");
  }
  size_t num_records = 0;
  for (const std::vector<NewRecord>& fresh : new_records) {
    num_records += fresh.size();
  }
  if (num_records >= RowOfRid::kEmpty) {
    return Status::Corruption(
        StrFormat("%zu records exceed the row limit", num_records));
  }

  // Payloads, in first-stored order: version v stored exactly the rows
  // [stored_begin[v], stored_begin[v + 1]).
  RowOfRid row_of(num_records);
  CheckedLoad load{rids, new_records, parents, row_of, {}};
  load.records.reserve(num_records);
  std::vector<uint32_t> stored_begin(n + 1, 0);
  const size_t width = data_schema_.num_columns();
  for (size_t v = 0; v < n; ++v) {
    for (int p : parents[v]) {
      if (p < 0 || static_cast<size_t>(p) >= v) {
        return Status::Corruption(StrFormat(
            "v%zu names parent %d, which is not an earlier version", v, p));
      }
    }
    stored_begin[v] = static_cast<uint32_t>(load.records.size());
    for (const NewRecord& rec : new_records[v]) {
      const long long rid = static_cast<long long>(rec.rid);
      if (rec.data.size() != width) {
        return Status::Corruption(
            StrFormat("v%zu stores rid %lld with %zu fields, schema has %zu",
                      v, rid, rec.data.size(), width));
      }
      if (!row_of.Insert(rec.rid,
                         static_cast<uint32_t>(load.records.size()))) {
        return Status::Corruption(StrFormat(
            "v%zu stores rid %lld, which an earlier version already stored",
            v, rid));
      }
      load.records.push_back(&rec);
    }
  }
  stored_begin[n] = static_cast<uint32_t>(load.records.size());

  // Memberships, one version per task: each member must resolve to a row
  // stored by this or an earlier version, and the rows this version stored
  // must all be members.
  std::vector<Status> errors(n);
  ParallelFor(0, n, 1, [&](size_t lo, size_t hi) {
    for (size_t v = lo; v < hi; ++v) {
      const std::vector<RecordId>& members = rids[v];
      size_t own = 0;
      for (size_t i = 0; i < members.size(); ++i) {
        if (i > 0 && members[i] <= members[i - 1]) {
          errors[v] = Status::Corruption(StrFormat(
              "membership of v%zu is not strictly ascending at rid %lld", v,
              static_cast<long long>(members[i])));
          break;
        }
        const uint32_t row = row_of.Find(members[i]);
        if (row >= stored_begin[v + 1]) {  // also catches kEmpty
          errors[v] = Status::Corruption(StrFormat(
              "v%zu lists rid %lld, which no version up to it stored", v,
              static_cast<long long>(members[i])));
          break;
        }
        if (row >= stored_begin[v]) ++own;
      }
      if (errors[v].ok() && own != new_records[v].size()) {
        errors[v] = Status::Corruption(StrFormat(
            "v%zu stores %zu new records but lists only %zu of them", v,
            new_records[v].size(), own));
      }
    }
  });
  for (const Status& error : errors) ORPHEUS_RETURN_NOT_OK(error);
  return LoadChecked(load);
}

Status DataModelBackend::LoadChecked(const CheckedLoad& load) {
  for (size_t v = 0; v < load.rids.size(); ++v) {
    ORPHEUS_RETURN_NOT_OK(AddVersion(static_cast<int>(v), load.rids[v],
                                     load.new_records[v], load.parents[v]));
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// ATablePerVersionBackend
// ---------------------------------------------------------------------------

Status ATablePerVersionBackend::AddVersion(
    int vid, const std::vector<RecordId>& rids,
    const std::vector<NewRecord>& new_records,
    const std::vector<int>& parents) {
  if (vid != num_versions_) {
    return Status::InvalidArgument("versions must be added in order");
  }
  Table vtab(StrFormat("v%d", vid), MaterializedSchema());

  // Records inherited from parents are bulk-copied; new payloads appended.
  std::unordered_set<RecordId> fresh;
  fresh.reserve(new_records.size() * 2);
  for (const auto& nr : new_records) fresh.insert(nr.rid);

  std::unordered_set<RecordId> remaining;
  remaining.reserve(rids.size() * 2);
  for (RecordId rid : rids) {
    if (!fresh.count(rid)) remaining.insert(rid);
  }
  for (int p : parents) {
    if (remaining.empty()) break;
    const Table& ptab = version_tables_[p];
    std::vector<uint32_t> rows;
    rows.reserve(remaining.size());
    const auto& prids = ptab.column(0).int_data();
    for (uint32_t r = 0; r < ptab.num_rows(); ++r) {
      auto it = remaining.find(prids[r]);
      if (it != remaining.end()) {
        rows.push_back(r);
        remaining.erase(it);
      }
    }
    vtab.AppendFrom(ptab, rows);
  }
  if (!remaining.empty()) {
    return Status::Corruption(
        StrFormat("%zu records of v%d not found in parents or new records",
                  remaining.size(), vid));
  }
  for (const auto& nr : new_records) AppendRidRow(&vtab, nr.rid, nr.data);
  ORPHEUS_RETURN_NOT_OK(vtab.BuildUniqueIntIndex(0));
  version_tables_.push_back(std::move(vtab));
  ++num_versions_;
  return Status::OK();
}

Result<std::vector<RecordId>> ATablePerVersionBackend::VersionRecords(
    int vid) const {
  if (vid < 0 || vid >= num_versions_) return BadVersion(vid);
  const auto& rids = version_tables_[vid].column(0).int_data();
  std::vector<RecordId> out(rids.begin(), rids.end());
  std::sort(out.begin(), out.end());
  return out;
}

Result<minidb::Table> ATablePerVersionBackend::Checkout(
    int vid, const std::string& out) const {
  if (vid < 0 || vid >= num_versions_) return BadVersion(vid);
  // Simply read the version's table out in full.
  Table t = version_tables_[vid].Clone(out);
  return t;
}

Result<minidb::Row> ATablePerVersionBackend::GetRecordPayload(
    RecordId rid, int version_hint) const {
  auto fetch = [this, rid](int v) -> std::optional<Row> {
    auto hit = version_tables_[v].LookupUniqueInt(0, rid);
    if (!hit) return std::nullopt;
    Row full = version_tables_[v].GetRow(*hit);
    return Row(full.begin() + 1, full.end());
  };
  if (version_hint >= 0 && version_hint < num_versions_) {
    if (auto row = fetch(version_hint)) return *row;
  }
  for (int v = num_versions_ - 1; v >= 0; --v) {
    if (auto row = fetch(v)) return *row;
  }
  return Status::NotFound(StrFormat("rid %lld", static_cast<long long>(rid)));
}

uint64_t ATablePerVersionBackend::StorageBytes() const {
  uint64_t bytes = 0;
  for (const auto& t : version_tables_) bytes += t.StorageBytes();
  return bytes;
}

Status ATablePerVersionBackend::AddAttribute(const ColumnDef& def) {
  data_schema_.AddColumn(def);
  for (auto& t : version_tables_) {
    ORPHEUS_RETURN_NOT_OK(t.AddColumn(def));
  }
  return Status::OK();
}

Status ATablePerVersionBackend::WidenAttribute(int attr_idx, ValueType to) {
  for (auto& t : version_tables_) {
    ORPHEUS_RETURN_NOT_OK(t.WidenColumn(attr_idx + 1, to));
  }
  data_schema_.SetColumnType(static_cast<size_t>(attr_idx), to);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// CombinedTableBackend
// ---------------------------------------------------------------------------

namespace {

Schema CombinedSchema(const Schema& data_schema) {
  std::vector<ColumnDef> cols;
  cols.push_back({"_rid", ValueType::kInt64});
  for (const auto& def : data_schema.columns()) cols.push_back(def);
  cols.push_back({"vlist", ValueType::kIntArray});
  return Schema(std::move(cols));
}

}  // namespace

CombinedTableBackend::CombinedTableBackend(Schema data_schema)
    : DataModelBackend(std::move(data_schema)),
      combined_("combined", CombinedSchema(data_schema_)),
      vlist_col_(static_cast<int>(data_schema_.num_columns()) + 1) {
  // A fresh empty table cannot contain duplicate keys.
  ORPHEUS_CHECK_OK(combined_.BuildUniqueIntIndex(0));
}

Status CombinedTableBackend::AddVersion(
    int vid, const std::vector<RecordId>& rids,
    const std::vector<NewRecord>& new_records,
    const std::vector<int>& parents) {
  if (vid != num_versions_) {
    return Status::InvalidArgument("versions must be added in order");
  }
  std::unordered_set<RecordId> fresh;
  for (const auto& nr : new_records) fresh.insert(nr.rid);
  // Existing records: `UPDATE combined SET vlist = vlist + vid WHERE rid IN
  // (...)` — per-tuple rewrite, the expensive path of Fig. 4.1(b).
  for (RecordId rid : rids) {
    if (fresh.count(rid)) continue;
    auto row = combined_.LookupUniqueInt(0, rid);
    if (!row) return Status::Corruption("rid missing from combined table");
    combined_.RewriteRowAppendToArray(*row, vlist_col_, vid);
  }
  // New records are inserted with vlist = {vid}. Attributes added after
  // table creation live physically beyond the vlist column.
  const size_t n0 = static_cast<size_t>(vlist_col_) - 1;
  for (const auto& nr : new_records) {
    Row full;
    full.reserve(nr.data.size() + 2);
    full.emplace_back(static_cast<int64_t>(nr.rid));
    for (size_t k = 0; k < n0; ++k) full.push_back(nr.data[k]);
    full.emplace_back(std::vector<int64_t>{vid});
    for (size_t k = n0; k < nr.data.size(); ++k) full.push_back(nr.data[k]);
    combined_.AppendRowUnchecked(full);
  }
  ++num_versions_;
  return Status::OK();
}

Status CombinedTableBackend::LoadChecked(const CheckedLoad& load) {
  // Bulk form of the AddVersion replay: each record's vlist is final before
  // its row is written, so no tuple is rewritten, and the rid index gains
  // one entry per row, in row order. The fills stay on this thread: on a
  // pool worker their allocations would land in that worker's malloc arena
  // and raise the process's peak memory.
  std::vector<Column*> fields;
  for (size_t k = 0; k < data_schema_.num_columns(); ++k) {
    fields.push_back(
        &combined_.mutable_column(PhysicalDataCol(static_cast<int>(k))));
  }
  AppendRecords(load.records, &combined_.mutable_column(0), fields);
  AppendVlists(load, &combined_.mutable_column(vlist_col_));
  combined_.CountAppendedRows(load.records.size());
  num_versions_ = static_cast<int>(load.rids.size());
  return Status::OK();
}

Result<std::vector<RecordId>> CombinedTableBackend::VersionRecords(
    int vid) const {
  if (vid < 0 || vid >= num_versions_) return BadVersion(vid);
  std::vector<uint32_t> rows = combined_.SelectRowsArrayContains(vlist_col_, vid);
  std::vector<RecordId> out;
  out.reserve(rows.size());
  const auto& rids = combined_.column(0).int_data();
  for (uint32_t r : rows) out.push_back(rids[r]);
  std::sort(out.begin(), out.end());
  return out;
}

Result<minidb::Table> CombinedTableBackend::Checkout(
    int vid, const std::string& out) const {
  if (vid < 0 || vid >= num_versions_) return BadVersion(vid);
  // One full scan with the array-containment filter (Table 4.1 checkout).
  std::vector<uint32_t> rows = combined_.SelectRowsArrayContains(vlist_col_, vid);
  std::vector<int> cols;
  cols.reserve(data_schema_.num_columns() + 1);
  cols.push_back(0);  // _rid
  for (size_t k = 0; k < data_schema_.num_columns(); ++k) {
    cols.push_back(PhysicalDataCol(static_cast<int>(k)));
  }
  return combined_.ProjectRows(rows, cols, out);
}

Result<minidb::Row> CombinedTableBackend::GetRecordPayload(
    RecordId rid, int version_hint) const {
  auto row = combined_.LookupUniqueInt(0, rid);
  if (!row) {
    return Status::NotFound(StrFormat("rid %lld", static_cast<long long>(rid)));
  }
  Row out;
  out.reserve(data_schema_.num_columns());
  for (size_t k = 0; k < data_schema_.num_columns(); ++k) {
    out.push_back(combined_.GetValue(*row, PhysicalDataCol(static_cast<int>(k))));
  }
  return out;
}

uint64_t CombinedTableBackend::StorageBytes() const {
  return combined_.StorageBytes();
}

Status CombinedTableBackend::AddAttribute(const ColumnDef& def) {
  // Insert before the trailing vlist column: minidb appends only, so we
  // record the attribute at the end of the data schema and remember vlist's
  // position separately.
  data_schema_.AddColumn(def);
  ORPHEUS_RETURN_NOT_OK(combined_.AddColumn(def));
  return Status::OK();
}

Status CombinedTableBackend::WidenAttribute(int attr_idx, ValueType to) {
  ORPHEUS_RETURN_NOT_OK(combined_.WidenColumn(PhysicalDataCol(attr_idx), to));
  data_schema_.SetColumnType(static_cast<size_t>(attr_idx), to);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// SplitByVlistBackend
// ---------------------------------------------------------------------------

SplitByVlistBackend::SplitByVlistBackend(Schema data_schema)
    : DataModelBackend(std::move(data_schema)),
      data_("data", MaterializedSchema()),
      versioning_("versioning",
                  Schema({{"_rid", ValueType::kInt64},
                          {"vlist", ValueType::kIntArray}})) {
  // Fresh empty tables cannot contain duplicate keys.
  ORPHEUS_CHECK_OK(data_.BuildUniqueIntIndex(0));
  ORPHEUS_CHECK_OK(versioning_.BuildUniqueIntIndex(0));
}

Status SplitByVlistBackend::AddVersion(int vid,
                                       const std::vector<RecordId>& rids,
                                       const std::vector<NewRecord>& new_records,
                                       const std::vector<int>& parents) {
  if (vid != num_versions_) {
    return Status::InvalidArgument("versions must be added in order");
  }
  std::unordered_set<RecordId> fresh;
  for (const auto& nr : new_records) fresh.insert(nr.rid);
  // Existing records: append vid to the versioning table's vlist — still a
  // per-tuple UPDATE, but on a narrow table (cheaper than combined-table,
  // still far costlier than split-by-rlist).
  for (RecordId rid : rids) {
    if (fresh.count(rid)) continue;
    auto row = versioning_.LookupUniqueInt(0, rid);
    if (!row) return Status::Corruption("rid missing from versioning table");
    versioning_.RewriteRowAppendToArray(*row, 1, vid);
  }
  for (const auto& nr : new_records) {
    const auto& drids = data_.column(0).int_data();
    if (!drids.empty() && nr.rid <= drids.back()) {
      data_rid_ascending_ = false;
    }
    AppendRidRow(&data_, nr.rid, nr.data);
    Row vrow;
    vrow.emplace_back(static_cast<int64_t>(nr.rid));
    vrow.emplace_back(std::vector<int64_t>{vid});
    versioning_.AppendRowUnchecked(vrow);
  }
  ++num_versions_;
  return Status::OK();
}

Status SplitByVlistBackend::LoadChecked(const CheckedLoad& load) {
  // As CombinedTableBackend::LoadChecked, over the data table and the
  // versioning table.
  data_rid_ascending_ = RidsAscending(load.records);
  AppendRecordRows(load.records, &data_);
  AppendRids(load.records, &versioning_.mutable_column(0));
  AppendVlists(load, &versioning_.mutable_column(1));
  data_.CountAppendedRows(load.records.size());
  versioning_.CountAppendedRows(load.records.size());
  num_versions_ = static_cast<int>(load.rids.size());
  return Status::OK();
}

std::vector<RecordId> SplitByVlistBackend::SortedRids(int vid) const {
  std::vector<uint32_t> rows = versioning_.SelectRowsArrayContains(1, vid);
  std::vector<RecordId> out;
  out.reserve(rows.size());
  const auto& rids = versioning_.column(0).int_data();
  for (uint32_t r : rows) out.push_back(rids[r]);
  // The versioning table lists rids in the data table's row order.
  if (!data_rid_ascending_) std::sort(out.begin(), out.end());
  return out;
}

Result<std::vector<RecordId>> SplitByVlistBackend::VersionRecords(
    int vid) const {
  if (vid < 0 || vid >= num_versions_) return BadVersion(vid);
  return SortedRids(vid);
}

Result<minidb::Table> SplitByVlistBackend::Checkout(
    int vid, const std::string& out) const {
  if (vid < 0 || vid >= num_versions_) return BadVersion(vid);
  // Scan the versioning table for rids in the version, then join them with
  // the data table through the compressed-set kernel split-by-rlist uses.
  std::vector<uint32_t> rows =
      minidb::JoinRidSet(data_, 0, orpheus::RidSet::FromSorted(SortedRids(vid)),
                         data_rid_ascending_);
  return data_.CopyRows(rows, out);
}

Result<minidb::Row> SplitByVlistBackend::GetRecordPayload(
    RecordId rid, int version_hint) const {
  auto row = data_.LookupUniqueInt(0, rid);
  if (!row) {
    return Status::NotFound(StrFormat("rid %lld", static_cast<long long>(rid)));
  }
  Row full = data_.GetRow(*row);
  return Row(full.begin() + 1, full.end());
}

uint64_t SplitByVlistBackend::StorageBytes() const {
  return data_.StorageBytes() + versioning_.StorageBytes();
}

Status SplitByVlistBackend::AddAttribute(const ColumnDef& def) {
  data_schema_.AddColumn(def);
  return data_.AddColumn(def);
}

Status SplitByVlistBackend::WidenAttribute(int attr_idx, ValueType to) {
  ORPHEUS_RETURN_NOT_OK(data_.WidenColumn(attr_idx + 1, to));
  data_schema_.SetColumnType(static_cast<size_t>(attr_idx), to);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// SplitByRlistBackend
// ---------------------------------------------------------------------------

SplitByRlistBackend::SplitByRlistBackend(Schema data_schema)
    : DataModelBackend(std::move(data_schema)),
      data_("data", MaterializedSchema()),
      versioning_("versioning", Schema({{"vid", ValueType::kInt64},
                                        {"rlist", ValueType::kIntArray}})) {
  // Fresh empty tables cannot contain duplicate keys.
  ORPHEUS_CHECK_OK(data_.BuildUniqueIntIndex(0));
  ORPHEUS_CHECK_OK(versioning_.BuildUniqueIntIndex(0));
}

Status SplitByRlistBackend::AddVersion(int vid,
                                       const std::vector<RecordId>& rids,
                                       const std::vector<NewRecord>& new_records,
                                       const std::vector<int>& parents) {
  if (vid != num_versions_) {
    return Status::InvalidArgument("versions must be added in order");
  }
  // New records go to the data table; the commit then adds exactly one
  // versioning tuple — no array-append UPDATEs at all (Approach 4.3).
  for (const auto& nr : new_records) {
    const auto& drids = data_.column(0).int_data();
    if (!drids.empty() && nr.rid <= drids.back()) {
      data_rid_ascending_ = false;
    }
    AppendRidRow(&data_, nr.rid, nr.data);
  }
  Row vrow;
  vrow.emplace_back(static_cast<int64_t>(vid));
  vrow.emplace_back(std::vector<int64_t>(rids.begin(), rids.end()));
  versioning_.AppendRowUnchecked(vrow);
  ++num_versions_;
  return Status::OK();
}

Status SplitByRlistBackend::LoadChecked(const CheckedLoad& load) {
  AppendRecordRows(load.records, &data_);
  data_.CountAppendedRows(load.records.size());
  data_rid_ascending_ = RidsAscending(load.records);
  for (size_t v = 0; v < load.rids.size(); ++v) {
    versioning_.mutable_column(0).AppendInt(static_cast<int64_t>(v));
    versioning_.mutable_column(1).AppendIntArray(load.rids[v]);
  }
  versioning_.CountAppendedRows(load.rids.size());
  num_versions_ = static_cast<int>(load.rids.size());
  return Status::OK();
}

Result<std::vector<RecordId>> SplitByRlistBackend::VersionRecords(
    int vid) const {
  auto row = versioning_.LookupUniqueInt(0, vid);
  if (!row) return BadVersion(vid);
  if (const auto& set = versioning_.column(1).GetRidSet(*row)) {
    return set->ToVector();
  }
  return versioning_.column(1).GetIntArray(*row);
}

Result<minidb::Table> SplitByRlistBackend::Checkout(
    int vid, const std::string& out) const {
  // Primary-key index lookup on vid, unnest(rlist)...
  auto row = versioning_.LookupUniqueInt(0, vid);
  if (!row) return BadVersion(vid);
  // Compressed rlists skip unnesting entirely: the containment join runs
  // against the packed containers (IntersectToRows when the data table is
  // rid-ascending, a parallel probe scan otherwise). An explicitly chosen
  // non-default join algorithm (the Sec. 5.5.5 ablation) still runs its
  // requested plan over the decompressed rlist.
  const auto& rlist_set = versioning_.column(1).GetRidSet(*row);
  if (rlist_set && join_algo_ == minidb::JoinAlgorithm::kHashJoin) {
    std::vector<uint32_t> rows =
        minidb::JoinRidSet(data_, 0, *rlist_set, data_rid_ascending_);
    return data_.CopyRows(rows, out);
  }
  // ... then join rids with the data table (hash-join by default).
  const std::vector<int64_t> rlist =
      rlist_set ? rlist_set->ToVector()
                : versioning_.column(1).GetIntArray(*row);
  std::vector<uint32_t> rows = minidb::JoinRids(
      data_, 0, rlist, join_algo_, /*clustered_on_rid=*/data_rid_ascending_);
  return data_.CopyRows(rows, out);
}

Result<minidb::Row> SplitByRlistBackend::GetRecordPayload(
    RecordId rid, int version_hint) const {
  auto row = data_.LookupUniqueInt(0, rid);
  if (!row) {
    return Status::NotFound(StrFormat("rid %lld", static_cast<long long>(rid)));
  }
  Row full = data_.GetRow(*row);
  return Row(full.begin() + 1, full.end());
}

uint64_t SplitByRlistBackend::StorageBytes() const {
  return data_.StorageBytes() + versioning_.StorageBytes();
}

Status SplitByRlistBackend::AddAttribute(const ColumnDef& def) {
  data_schema_.AddColumn(def);
  return data_.AddColumn(def);
}

Status SplitByRlistBackend::WidenAttribute(int attr_idx, ValueType to) {
  ORPHEUS_RETURN_NOT_OK(data_.WidenColumn(attr_idx + 1, to));
  data_schema_.SetColumnType(static_cast<size_t>(attr_idx), to);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// DeltaBasedBackend
// ---------------------------------------------------------------------------

std::vector<RecordId> DeltaBasedBackend::PlanDelta(
    const std::vector<RecordId>& rids, const std::vector<int>& parents,
    Delta* delta) const {
  // Pick the base: the parent sharing the most records (Approach 4.4).
  int base = -1;
  int64_t best_shared = -1;
  for (int p : parents) {
    const auto& prids = membership_[p];
    int64_t shared = 0;
    size_t i = 0;
    size_t j = 0;
    while (i < rids.size() && j < prids.size()) {
      if (rids[i] < prids[j]) {
        ++i;
      } else if (rids[i] > prids[j]) {
        ++j;
      } else {
        ++shared;
        ++i;
        ++j;
      }
    }
    if (shared > best_shared) {
      best_shared = shared;
      base = p;
    }
  }
  delta->base = base;

  const std::vector<RecordId> empty;
  const std::vector<RecordId>& base_rids =
      base >= 0 ? membership_[base] : empty;

  // inserts = rids \ base; deletes = base \ rids.
  size_t i = 0;
  size_t j = 0;
  std::vector<RecordId> inserted;
  while (i < rids.size() || j < base_rids.size()) {
    if (j >= base_rids.size() || (i < rids.size() && rids[i] < base_rids[j])) {
      inserted.push_back(rids[i]);
      ++i;
    } else if (i >= rids.size() || rids[i] > base_rids[j]) {
      delta->deletes.push_back(base_rids[j]);
      ++j;
    } else {
      ++i;
      ++j;
    }
  }
  return inserted;
}

Status DeltaBasedBackend::AddVersion(int vid, const std::vector<RecordId>& rids,
                                     const std::vector<NewRecord>& new_records,
                                     const std::vector<int>& parents) {
  if (vid != num_versions_) {
    return Status::InvalidArgument("versions must be added in order");
  }
  Delta delta(MaterializedSchema(), StrFormat("delta_v%d", vid));
  const std::vector<RecordId> inserted = PlanDelta(rids, parents, &delta);

  std::unordered_map<RecordId, const Row*> fresh;
  for (const auto& nr : new_records) fresh.emplace(nr.rid, &nr.data);

  for (RecordId rid : inserted) {
    auto it = fresh.find(rid);
    if (it != fresh.end()) {
      AppendRidRow(&delta.inserts, rid, *it->second);
      continue;
    }
    // The record came from a non-base parent (merge): fetch its payload
    // through that parent's chain.
    bool found = false;
    for (int p : parents) {
      if (p == delta.base) continue;
      auto payload = GetRecordPayload(rid, p);
      if (payload.ok()) {
        AppendRidRow(&delta.inserts, rid, *payload);
        found = true;
        break;
      }
    }
    if (!found) {
      return Status::Corruption(
          StrFormat("payload for rid %lld unavailable",
                    static_cast<long long>(rid)));
    }
  }
  ORPHEUS_RETURN_NOT_OK(delta.inserts.BuildUniqueIntIndex(0));
  deltas_.push_back(std::move(delta));
  membership_.push_back(rids);
  ++num_versions_;
  return Status::OK();
}

Status DeltaBasedBackend::LoadChecked(const CheckedLoad& load) {
  // AddVersion per version, except that every inserted payload is read
  // from the checked records by row: a record is immutable, so the copy a
  // parent chain would return is the same payload.
  for (size_t v = 0; v < load.rids.size(); ++v) {
    Delta delta(MaterializedSchema(), StrFormat("delta_v%zu", v));
    std::vector<const NewRecord*> inserted;
    for (RecordId rid : PlanDelta(load.rids[v], load.parents[v], &delta)) {
      inserted.push_back(load.records[load.RowOf(rid)]);
    }
    AppendRecordRows(inserted, &delta.inserts);
    delta.inserts.CountAppendedRows(inserted.size());
    ORPHEUS_RETURN_NOT_OK(delta.inserts.BuildUniqueIntIndex(0));
    deltas_.push_back(std::move(delta));
    membership_.push_back(load.rids[v]);
  }
  num_versions_ = static_cast<int>(load.rids.size());
  return Status::OK();
}

Result<std::vector<RecordId>> DeltaBasedBackend::VersionRecords(
    int vid) const {
  if (vid < 0 || vid >= num_versions_) return BadVersion(vid);
  return membership_[vid];
}

Result<minidb::Table> DeltaBasedBackend::Checkout(
    int vid, const std::string& out) const {
  if (vid < 0 || vid >= num_versions_) return BadVersion(vid);
  // Trace the version lineage back to the root via `base` links. Each hop
  // contributes, in physical order, the rows of its delta whose records
  // are members not yet found (a newer occurrence wins). A member is
  // flagged by its position in the sorted membership, found with a
  // forward-galloping cursor: PlanDelta emits inserts in rid order, so a
  // hop costs about its delta's length, and a rid below the cursor
  // restarts it, so any order stays correct.
  const std::vector<RecordId>& members = membership_[vid];
  std::vector<uint8_t> found(members.size(), 0);
  size_t missing = members.size();
  Table result(out, MaterializedSchema());
  std::vector<uint32_t> rows;
  for (int v = vid; v >= 0 && missing > 0; v = deltas_[v].base) {
    const Table& inserts = deltas_[v].inserts;
    const auto& rids = inserts.column(0).int_data();
    rows.clear();
    size_t pos = 0;
    for (size_t r = 0; r < rids.size(); ++r) {
      if (pos > 0 && members[pos - 1] >= rids[r]) pos = 0;
      pos = GallopLowerBound(members, pos, rids[r]);
      if (pos < members.size() && members[pos] == rids[r] && !found[pos]) {
        found[pos] = 1;
        --missing;
        rows.push_back(static_cast<uint32_t>(r));
      }
    }
    result.AppendFrom(inserts, rows);
  }
  if (missing > 0) {
    return Status::Corruption("delta chain did not cover the version");
  }
  return result;
}

Result<minidb::Row> DeltaBasedBackend::GetRecordPayload(
    RecordId rid, int version_hint) const {
  int v = version_hint >= 0 && version_hint < num_versions_
              ? version_hint
              : num_versions_ - 1;
  while (v >= 0) {
    auto hit = deltas_[v].inserts.LookupUniqueInt(0, rid);
    if (hit) {
      Row full = deltas_[v].inserts.GetRow(*hit);
      return Row(full.begin() + 1, full.end());
    }
    v = deltas_[v].base;
  }
  // Not on the hinted chain: fall back to scanning all deltas.
  for (int d = num_versions_ - 1; d >= 0; --d) {
    auto hit = deltas_[d].inserts.LookupUniqueInt(0, rid);
    if (hit) {
      Row full = deltas_[d].inserts.GetRow(*hit);
      return Row(full.begin() + 1, full.end());
    }
  }
  return Status::NotFound(StrFormat("rid %lld", static_cast<long long>(rid)));
}

uint64_t DeltaBasedBackend::StorageBytes() const {
  uint64_t bytes = 0;
  for (const auto& d : deltas_) {
    bytes += d.inserts.StorageBytes();
    bytes += d.deletes.size() * 8;
    bytes += 16;  // precedent metadata tuple (vid, base)
  }
  return bytes;
}

Status DeltaBasedBackend::AddAttribute(const ColumnDef& def) {
  data_schema_.AddColumn(def);
  for (auto& d : deltas_) {
    ORPHEUS_RETURN_NOT_OK(d.inserts.AddColumn(def));
  }
  return Status::OK();
}

Status DeltaBasedBackend::WidenAttribute(int attr_idx, ValueType to) {
  for (auto& d : deltas_) {
    ORPHEUS_RETURN_NOT_OK(d.inserts.WidenColumn(attr_idx + 1, to));
  }
  data_schema_.SetColumnType(static_cast<size_t>(attr_idx), to);
  return Status::OK();
}

}  // namespace orpheus::core
