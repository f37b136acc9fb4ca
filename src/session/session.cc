#include "session/session.h"

#include <algorithm>
#include <map>
#include <utility>

#include "common/log.h"
#include "common/metrics.h"
#include "common/string_util.h"
#include "minidb/value.h"

namespace orpheus::session {

namespace {

/// Composite-key rendering for the merge maps and conflict reports. The
/// unit separator cannot appear in rendered values' natural text, so keys
/// compare exactly like the value tuples they stand for.
constexpr char kKeySep = '\x1f';

std::string RenderKey(const minidb::Table& table,
                      const std::vector<int>& pk_cols, uint32_t row) {
  std::string key;
  for (size_t i = 0; i < pk_cols.size(); ++i) {
    if (i > 0) key.push_back(kKeySep);
    key.append(table.GetValue(row, pk_cols[i]).ToString());
  }
  return key;
}

/// Human-readable form of a stored key (separator swapped for a comma).
std::string DisplayKey(const std::string& key) {
  std::string out = key;
  std::replace(out.begin(), out.end(), kKeySep, ',');
  return out;
}

/// Data-payload equality of two rows (column 0 is _rid and is skipped).
bool SameDataPayload(const minidb::Table& a, uint32_t ra,
                     const minidb::Table& b, uint32_t rb) {
  for (size_t c = 1; c < a.num_columns(); ++c) {
    if (a.GetValue(ra, c) != b.GetValue(rb, c)) return false;
  }
  return true;
}

enum class RowState { kAbsent, kUnchanged, kModified, kAdded };

}  // namespace

// ---------------------------------------------------------------------------
// Session
// ---------------------------------------------------------------------------

Status Session::Checkout(const std::vector<core::VersionId>& vids,
                         const std::string& table_name) {
  if (staging_.HasTable(table_name)) {
    return Status::InvalidArgument(StrFormat(
        "staging table \"%s\" already exists in session %d",
        table_name.c_str(), id_));
  }
  ORPHEUS_ASSIGN_OR_RETURN(
      minidb::Table table,
      manager_->Materialize(vids, table_name, watermark_));
  ORPHEUS_ASSIGN_OR_RETURN(minidb::Table * adopted,
                           staging_.AdoptTable(std::move(table)));
  (void)adopted;
  parents_[table_name] = vids;
  return Status::OK();
}

Result<CommitOutcome> Session::Commit(const std::string& table_name,
                                      const std::string& message,
                                      const std::string& author) {
  CommitOutcome out;
  ORPHEUS_RETURN_NOT_OK(CommitWithDeadline(table_name, message, author,
                                           Deadline::Infinite(), &out));
  return out;
}

Status Session::CommitWithDeadline(const std::string& table_name,
                                   const std::string& message,
                                   const std::string& author,
                                   const Deadline& deadline,
                                   CommitOutcome* out) {
  auto pending_it = pending_commits_.find(table_name);
  if (pending_it != pending_commits_.end()) {
    // A previous attempt timed out waiting for durability: the commit is
    // already applied, so re-wait its tickets — never re-apply (retrying
    // after a lost result must be exactly-once).
    Status s =
        manager_->WaitPendingDurable(&pending_it->second, deadline, out);
    if (s.IsDeadlineExceeded()) return s;  // still in flight; keep parked
    pending_commits_.erase(pending_it);
    ORPHEUS_RETURN_NOT_OK(s);
    ORPHEUS_RETURN_NOT_OK(staging_.DropTable(table_name));
    parents_.erase(table_name);
    watermark_ = std::max(watermark_, manager_->watermark());
    return Status::OK();
  }

  const minidb::Table* table = staging_.GetTable(table_name);
  if (table == nullptr) {
    return Status::NotFound(StrFormat(
        "no staging table \"%s\" in session %d", table_name.c_str(), id_));
  }
  auto it = parents_.find(table_name);
  if (it == parents_.end()) {
    return Status::InvalidArgument(StrFormat(
        "staging table \"%s\" has no checkout provenance in session %d",
        table_name.c_str(), id_));
  }
  PendingDurability pending;
  Status s = manager_->CommitStaged(*table, it->second, message, author,
                                    deadline, out, &pending);
  if (s.IsDeadlineExceeded()) {
    pending_commits_[table_name] = std::move(pending);
    return s;
  }
  ORPHEUS_RETURN_NOT_OK(s);
  ORPHEUS_RETURN_NOT_OK(staging_.DropTable(table_name));
  parents_.erase(it);
  // Read-your-writes: the commit is durable by now, so the manager's
  // watermark covers it — advancing the pin cannot admit anything weaker
  // than snapshot isolation.
  watermark_ = std::max(watermark_, manager_->watermark());
  return Status::OK();
}

Status Session::ReplaceStaging(const std::string& table_name,
                               minidb::Table table) {
  if (parents_.find(table_name) == parents_.end()) {
    return Status::InvalidArgument(StrFormat(
        "staging table \"%s\" has no checkout provenance in session %d",
        table_name.c_str(), id_));
  }
  if (pending_commits_.find(table_name) != pending_commits_.end()) {
    return Status::InvalidArgument(StrFormat(
        "staging table \"%s\" has a commit awaiting durability in session "
        "%d; resolve it before restaging",
        table_name.c_str(), id_));
  }
  if (table.name() != table_name) {
    return Status::InvalidArgument(StrFormat(
        "replacement table is named \"%s\", expected \"%s\"",
        table.name().c_str(), table_name.c_str()));
  }
  ORPHEUS_RETURN_NOT_OK(staging_.DropTable(table_name));
  ORPHEUS_ASSIGN_OR_RETURN(minidb::Table * adopted,
                           staging_.AdoptTable(std::move(table)));
  (void)adopted;
  return Status::OK();
}

Status Session::DiscardStaging(const std::string& table_name) {
  if (pending_commits_.find(table_name) != pending_commits_.end()) {
    return Status::InvalidArgument(StrFormat(
        "staging table \"%s\" has a commit awaiting durability in session "
        "%d; resolve it before discarding",
        table_name.c_str(), id_));
  }
  ORPHEUS_RETURN_NOT_OK(staging_.DropTable(table_name));
  parents_.erase(table_name);
  return Status::OK();
}

Result<minidb::Table> Session::Diff(core::VersionId a,
                                    core::VersionId b) const {
  return manager_->Diff(a, b, watermark_);
}

Status Session::Refresh() {
  ORPHEUS_RETURN_NOT_OK(manager_->RequireUsable());
  watermark_ = std::max(watermark_, manager_->watermark());
  return Status::OK();
}

// ---------------------------------------------------------------------------
// SessionManager
// ---------------------------------------------------------------------------

SessionManager::SessionManager(std::unique_ptr<core::Cvd> cvd,
                               storage::Repository* repo)
    : cvd_(std::move(cvd)), repo_(repo), name_(cvd_->name()) {
  watermark_.store(cvd_->num_versions(), std::memory_order_release);
  cvd_->set_commit_observer([this](const core::CvdCommitRecord& record) {
    if (repo_ == nullptr) return Status::OK();
    ORPHEUS_ASSIGN_OR_RETURN(uint64_t ticket,
                             repo_->EnqueueCommit(name_, record));
    inflight_tickets_.push_back(ticket);
    return Status::OK();
  });
}

std::unique_ptr<Session> SessionManager::Open() {
  const int id = next_session_id_.fetch_add(1, std::memory_order_relaxed);
  ORPHEUS_COUNTER_ADD("session.opened", 1);
  return std::unique_ptr<Session>(new Session(this, id, watermark()));
}

std::unique_ptr<core::Cvd> SessionManager::Release() {
  MutexLock commit_lock(&commit_mu_);
  WriterMutexLock data(&data_mu_);
  cvd_->set_commit_observer(nullptr);
  return std::move(cvd_);
}

Status SessionManager::ReadCvd(
    const std::function<Status(const core::Cvd&)>& fn) const {
  ReaderMutexLock data(&data_mu_);
  return fn(*cvd_);
}

Status SessionManager::RequireUsable() const {
  if (failed_.load(std::memory_order_acquire)) {
    return Status::Internal(StrFormat(
        "session manager for \"%s\" is poisoned after a durability failure; "
        "reopen the repository to recover",
        name_.c_str()));
  }
  return Status::OK();
}

core::VersionId SessionManager::TipOf(core::VersionId base) const {
  const auto& graph = cvd_->graph();
  if (graph.children(base - 1).empty()) return base;
  core::VersionId tip = base;
  for (core::VersionId d : cvd_->Descendants(base)) {
    if (graph.children(d - 1).empty() && d > tip) tip = d;
  }
  return tip;
}

Result<minidb::Table> SessionManager::Materialize(
    const std::vector<core::VersionId>& vids, const std::string& table_name,
    core::VersionId watermark) const {
  ORPHEUS_TRACE_SPAN("session.checkout");
  for (core::VersionId vid : vids) {
    if (vid > watermark) {
      return Status::InvalidArgument(StrFormat(
          "version v%d is beyond this session's snapshot (watermark v%d); "
          "refresh the session to see newer commits",
          vid, watermark));
    }
  }
  ReaderMutexLock data(&data_mu_);
  return cvd_->Materialize(vids, table_name);
}

Result<minidb::Table> SessionManager::Diff(core::VersionId a,
                                           core::VersionId b,
                                           core::VersionId watermark) const {
  if (a > watermark || b > watermark) {
    return Status::InvalidArgument(StrFormat(
        "diff v%d,v%d is beyond this session's snapshot (watermark v%d)",
        a, b, watermark));
  }
  ReaderMutexLock data(&data_mu_);
  return cvd_->Diff(a, b);
}

Status SessionManager::CommitStaged(
    const minidb::Table& table, const std::vector<core::VersionId>& parents,
    const std::string& message, const std::string& author,
    const Deadline& deadline, CommitOutcome* out,
    PendingDurability* pending) {
  ORPHEUS_TRACE_SPAN("session.commit");
  std::vector<uint64_t> tickets;
  Status apply_status;
  {
    MutexLock commit_lock(&commit_mu_);
    ORPHEUS_RETURN_NOT_OK(RequireUsable());
    inflight_tickets_.clear();
    apply_status = CommitApply(table, parents, message, author, out);
    // Drain the tickets even when a later step failed: every enqueued
    // record WAS applied in memory, so someone must wait out its batch.
    tickets.swap(inflight_tickets_);
  }
  // Wait outside commit_mu_: the next committer enqueues meanwhile and the
  // repository's leader batches both under one fsync.
  Status durable_status = WaitTicketsDurable(tickets, deadline);
  if (durable_status.IsDeadlineExceeded()) {
    // The batch is still in flight: durability (and hence the outcome) is
    // unknown, so the manager is NOT poisoned and the watermark does not
    // move. Park everything needed to resolve the commit later.
    pending->tickets = std::move(tickets);
    pending->outcome = *out;
    pending->apply_status = apply_status;
    ORPHEUS_COUNTER_ADD("session.commit.durability_timeout", 1);
    return durable_status;
  }
  if (!durable_status.ok()) {
    // Versions past the watermark exist in memory but not on disk. The
    // watermark never advances over them, so no session can check them
    // out; poison the manager and make the caller reopen.
    PoisonAfterDurabilityFailure(durable_status);
    return durable_status;
  }
  ORPHEUS_RETURN_NOT_OK(apply_status);
  AdvanceWatermark(std::max(out->vid, out->merged_vid));
  return Status::OK();
}

Status SessionManager::WaitPendingDurable(PendingDurability* pending,
                                          const Deadline& deadline,
                                          CommitOutcome* out) {
  Status durable_status = WaitTicketsDurable(pending->tickets, deadline);
  if (durable_status.IsDeadlineExceeded()) return durable_status;
  if (!durable_status.ok()) {
    PoisonAfterDurabilityFailure(durable_status);
    return durable_status;
  }
  ORPHEUS_RETURN_NOT_OK(pending->apply_status);
  *out = pending->outcome;
  AdvanceWatermark(std::max(out->vid, out->merged_vid));
  return Status::OK();
}

Status SessionManager::WaitTicketsDurable(
    const std::vector<uint64_t>& tickets, const Deadline& deadline) {
  Status first_error;
  for (uint64_t ticket : tickets) {
    if (repo_ == nullptr) break;
    Status s = deadline.is_infinite()
                   ? repo_->WaitCommitDurable(ticket)
                   : repo_->WaitCommitDurableFor(ticket, deadline);
    if (s.IsDeadlineExceeded()) return s;
    if (!s.ok() && first_error.ok()) first_error = s;
  }
  return first_error;
}

void SessionManager::PoisonAfterDurabilityFailure(const Status& error) {
  failed_.store(true, std::memory_order_release);
  LOG_ERROR("session commit not durable; manager poisoned",
            {{"cvd", name_}, {"error", error.message()}});
}

Status SessionManager::CommitApply(const minidb::Table& table,
                                   const std::vector<core::VersionId>& parents,
                                   const std::string& message,
                                   const std::string& author,
                                   CommitOutcome* out) {
  const core::VersionId base =
      parents.empty() ? core::kInvalidVersion : parents[0];
  core::VersionId tip = base;
  {
    WriterMutexLock data(&data_mu_);
    // Optimistic validation: the tip must be computed before our commit
    // lands (afterwards the new version is itself a childless descendant).
    if (base != core::kInvalidVersion) tip = TipOf(base);
    ORPHEUS_ASSIGN_OR_RETURN(
        out->vid, cvd_->CommitTable(table, parents, message, author));
  }
  ORPHEUS_COUNTER_ADD("session.commit.applied", 1);
  if (tip == base) return Status::OK();

  // A concurrent commit moved the branch past our base: reconcile.
  ORPHEUS_TRACE_SPAN("session.reconcile");
  ORPHEUS_ASSIGN_OR_RETURN(MergePlan plan, PlanMerge(base, tip, out->vid));
  if (!plan.conflicts.empty()) {
    out->conflicts = std::move(plan.conflicts);
    out->reconciled_with = tip;
    ORPHEUS_COUNTER_ADD("session.commit.conflicts", out->conflicts.size());
    LOG_WARN("reconciliation found attribute conflicts",
             {{"cvd", name_},
              {"vid", static_cast<unsigned long long>(out->vid)},
              {"tip", static_cast<unsigned long long>(tip)},
              {"conflicts",
               static_cast<unsigned long long>(out->conflicts.size())}});
    return Status::OK();
  }
  {
    WriterMutexLock data(&data_mu_);
    ORPHEUS_ASSIGN_OR_RETURN(
        out->merged_vid,
        cvd_->CommitTable(
            *plan.table, {tip, out->vid},
            StrFormat("reconcile v%d into v%d", out->vid, tip), author));
  }
  out->reconciled = true;
  out->reconciled_with = tip;
  ORPHEUS_COUNTER_ADD("session.commit.reconciled", 1);
  return Status::OK();
}

Result<SessionManager::MergePlan> SessionManager::PlanMerge(
    core::VersionId base, core::VersionId tip, core::VersionId vid) const {
  // Materialize the three corners of the merge at the current schema
  // (records are immutable, so the shared lock only guards the catalog).
  minidb::Table b_table("merge_base", minidb::Schema());
  minidb::Table t_table("merge_tip", minidb::Schema());
  minidb::Table v_table("merge_ours", minidb::Schema());
  std::vector<int> pk_cols;
  {
    ReaderMutexLock data(&data_mu_);
    ORPHEUS_ASSIGN_OR_RETURN(b_table, cvd_->Materialize({base}, "merge_base"));
    ORPHEUS_ASSIGN_OR_RETURN(t_table, cvd_->Materialize({tip}, "merge_tip"));
    ORPHEUS_ASSIGN_OR_RETURN(v_table, cvd_->Materialize({vid}, "merge_ours"));
    for (const std::string& attr : cvd_->primary_key()) {
      int col = v_table.schema().FindColumn(attr);
      if (col < 0) {
        return Status::Internal(StrFormat(
            "primary-key attribute \"%s\" missing from materialized schema",
            attr.c_str()));
      }
      pk_cols.push_back(col);
    }
  }

  MergePlan plan;
  auto merged = std::make_unique<minidb::Table>(
      StrFormat("reconcile_v%d_v%d", tip, vid), v_table.schema());

  if (pk_cols.empty()) {
    // No primary key: record-level merge. Records are immutable (a modify
    // is delete+add of a fresh rid), so adds and deletes relative to the
    // base can never collide — merge = (base minus both delete sets) plus
    // both add sets, and conflicts are impossible (Ranjan et al. §3).
    std::map<core::RecordId, std::pair<const minidb::Table*, uint32_t>> rows;
    std::map<core::RecordId, int> membership;  // bit 1 = base, 2 = tip, 4 = v
    for (uint32_t r = 0; r < b_table.num_rows(); ++r) {
      membership[b_table.GetValue(r, 0).AsInt()] |= 1;
    }
    for (uint32_t r = 0; r < t_table.num_rows(); ++r) {
      core::RecordId rid = t_table.GetValue(r, 0).AsInt();
      membership[rid] |= 2;
      rows.emplace(rid, std::make_pair(&t_table, r));
    }
    for (uint32_t r = 0; r < v_table.num_rows(); ++r) {
      core::RecordId rid = v_table.GetValue(r, 0).AsInt();
      membership[rid] |= 4;
      rows.emplace(rid, std::make_pair(&v_table, r));
    }
    for (const auto& [rid, mask] : membership) {
      const bool in_base = (mask & 1) != 0;
      const bool keep = in_base ? mask == 7 : (mask & 6) != 0;
      if (!keep) continue;
      const auto& src = rows.at(rid);
      merged->AppendRowUnchecked(src.first->GetRow(src.second));
    }
    plan.table = std::move(merged);
    return plan;
  }

  // Primary-key three-way merge: classify every key's fate on each side.
  struct Slot {
    int64_t b = -1, t = -1, v = -1;  // row ids; -1 = key absent
  };
  std::map<std::string, Slot> keys;
  for (uint32_t r = 0; r < b_table.num_rows(); ++r) {
    keys[RenderKey(b_table, pk_cols, r)].b = r;
  }
  for (uint32_t r = 0; r < t_table.num_rows(); ++r) {
    keys[RenderKey(t_table, pk_cols, r)].t = r;
  }
  for (uint32_t r = 0; r < v_table.num_rows(); ++r) {
    keys[RenderKey(v_table, pk_cols, r)].v = r;
  }

  auto state_of = [&](const Slot& s, const minidb::Table& side,
                      int64_t side_row) {
    if (s.b < 0) return side_row < 0 ? RowState::kAbsent : RowState::kAdded;
    if (side_row < 0) return RowState::kAbsent;  // deleted
    // Same rid => untouched (records are immutable); a new rid under the
    // same key is a modification.
    const int64_t b_rid = b_table.GetValue(s.b, 0).AsInt();
    const int64_t s_rid = side.GetValue(side_row, 0).AsInt();
    return b_rid == s_rid ? RowState::kUnchanged : RowState::kModified;
  };

  for (const auto& [key, slot] : keys) {
    const RowState ts = state_of(slot, t_table, slot.t);
    const RowState vs = state_of(slot, v_table, slot.v);
    if (slot.b < 0) {
      // add/add (or a one-sided add).
      if (ts == RowState::kAdded && vs == RowState::kAdded) {
        if (SameDataPayload(t_table, slot.t, v_table, slot.v)) {
          // Identical insert on both sides: keep the tip's record id.
          merged->AppendRowUnchecked(t_table.GetRow(slot.t));
        } else {
          for (size_t c = 1; c < v_table.num_columns(); ++c) {
            minidb::Value tv = t_table.GetValue(slot.t, c);
            minidb::Value vv = v_table.GetValue(slot.v, c);
            if (tv != vv) {
              plan.conflicts.push_back(MergeConflict{
                  DisplayKey(key), v_table.schema().column(c).name,
                  /*base=*/"", vv.ToString(), tv.ToString()});
            }
          }
        }
      } else if (ts == RowState::kAdded) {
        merged->AppendRowUnchecked(t_table.GetRow(slot.t));
      } else if (vs == RowState::kAdded) {
        merged->AppendRowUnchecked(v_table.GetRow(slot.v));
      }
      continue;
    }
    // Key existed at the base.
    if (ts == RowState::kAbsent && vs == RowState::kAbsent) continue;
    if (ts == RowState::kUnchanged && vs == RowState::kUnchanged) {
      merged->AppendRowUnchecked(t_table.GetRow(slot.t));
    } else if (ts == RowState::kAbsent) {
      // delete/modify: the modification wins (Ranjan et al.'s rule — a
      // concurrent edit proves the record still matters).
      if (vs == RowState::kModified) {
        merged->AppendRowUnchecked(v_table.GetRow(slot.v));
      }
      // vs == kUnchanged: clean delete.
    } else if (vs == RowState::kAbsent) {
      if (ts == RowState::kModified) {
        merged->AppendRowUnchecked(t_table.GetRow(slot.t));
      }
    } else if (ts == RowState::kUnchanged) {
      merged->AppendRowUnchecked(v_table.GetRow(slot.v));
    } else if (vs == RowState::kUnchanged) {
      merged->AppendRowUnchecked(t_table.GetRow(slot.t));
    } else if (SameDataPayload(t_table, slot.t, v_table, slot.v)) {
      // modify/modify to the same payload: keep the tip's record id.
      merged->AppendRowUnchecked(t_table.GetRow(slot.t));
    } else {
      // modify/modify: attribute-wise three-way against the base. The
      // merged row combines cells from both sides, so it is a new record:
      // _rid is left NULL and CommitTable assigns a fresh id.
      minidb::Row row;
      row.reserve(v_table.num_columns());
      row.push_back(minidb::Value::Null());
      size_t conflicts_before = plan.conflicts.size();
      for (size_t c = 1; c < v_table.num_columns(); ++c) {
        minidb::Value bv = b_table.GetValue(slot.b, c);
        minidb::Value tv = t_table.GetValue(slot.t, c);
        minidb::Value vv = v_table.GetValue(slot.v, c);
        if (tv != bv && vv != bv && tv != vv) {
          plan.conflicts.push_back(MergeConflict{
              DisplayKey(key), v_table.schema().column(c).name,
              bv.ToString(), vv.ToString(), tv.ToString()});
          row.push_back(std::move(bv));  // placeholder; plan is discarded
        } else if (vv != bv) {
          row.push_back(std::move(vv));
        } else {
          row.push_back(std::move(tv));  // tv != bv, or tv == bv == vv
        }
      }
      if (plan.conflicts.size() == conflicts_before) {
        merged->AppendRowUnchecked(row);
      }
    }
  }

  if (!plan.conflicts.empty()) return plan;  // table stays null
  plan.table = std::move(merged);
  return plan;
}

void SessionManager::AdvanceWatermark(core::VersionId vid) {
  core::VersionId cur = watermark_.load(std::memory_order_relaxed);
  while (cur < vid && !watermark_.compare_exchange_weak(
                          cur, vid, std::memory_order_release,
                          std::memory_order_relaxed)) {
  }
}

}  // namespace orpheus::session
