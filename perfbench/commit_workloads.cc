// commit_local and commit_remote: two closed-loop clients with zero think
// time on one durable repository (directory inside the working tree, the
// shipped flush policy: one fsync per group-commit batch).
//
// The CVD starts as a primary-keyed table of 2k rows x 10 int64 attributes
// (160 KB, fits in a core's L2). Each client owns a stripe of 1k keys; one
// loop iteration is Refresh -> Checkout the watermark -> 20 row edits
// inside the client's stripe -> Commit. Commits race, so nearly all
// reconcile into merge versions, but never conflict.
//
// The first half of the run is a read phase: one client checks out the
// set-up version back to back with no commit in flight. checkout_p50_ms
// comes from that phase. Inside the commit loop a checkout either runs
// freely or waits for the other client's commit to leave its exclusive
// section, so its median jumps between two modes from run to run; it is
// reported, unbounded, as mixed.checkout_p50_ms.
//
// Why these sizes: at 20k rows a commit takes ~370 ms, too few commits for
// a tail percentile in one run. With four clients the commit-lock convoy
// made the median commit swing between 27 and 35 ms from run to run (and
// the checkout p99 between 3 and 8 ms); two clients roughly halve that.
//
// commit_local drives session::Session in process; commit_remote drives
// the same loop through net::Client over a unix socket to an in-process
// SessionServer, so the two differ only by the wire.

#include <algorithm>
#include <filesystem>
#include <memory>
#include <string>
#include <unistd.h>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/random.h"
#include "core/cvd.h"
#include "minidb/table.h"
#include "minidb/value.h"
#include "net/client.h"
#include "net/server.h"
#include "perfbench/workloads.h"
#include "session/session.h"
#include "storage/repository.h"

namespace perfbench {
namespace {

using orpheus::Result;
using orpheus::Status;
using orpheus::Xorshift;
using orpheus::minidb::Table;
using orpheus::minidb::Value;
namespace core = orpheus::core;
namespace minidb = orpheus::minidb;
namespace net = orpheus::net;
namespace session = orpheus::session;
namespace storage = orpheus::storage;

constexpr int kClients = 2;
constexpr int kAttrs = 10;  // id plus 9 payload attributes
constexpr int kEditsPerCommit = 20;
constexpr double kReadShare = 0.5;  // share of the run in the read phase

struct Sizes {
  int rows;
  int setups;         // spare set-ups between loop windows
  int crash_commits;  // commits in the recovery crash image
  int reopens;        // Repository::Open calls between loop windows
  int schedule;       // iterations in each client's edit schedule, cycled
};

Sizes SizesFor(const Options& opts) {
  if (opts.smoke) return {800, 1, 10, 1, 64};
  return {2000, 3, 600, 2, 512};
}

/// One row edit: a key offset inside the client's stripe and the attribute
/// (1..kAttrs-1) to overwrite.
struct Edit {
  int offset;
  int attr;
};

/// Value written by edit k of iteration `iter` of `client`: unique per
/// (client, iteration, edit) and outside the seed table's range, so every
/// edit changes its cell.
int64_t EditValue(int client, int64_t iter, int k) {
  return 1000000 + (((iter + 1) << 12) | (client << 8) | k);
}

Table SeedTable(uint64_t seed, int rows) {
  std::vector<minidb::ColumnDef> cols = {{"id", minidb::ValueType::kInt64}};
  for (int a = 1; a < kAttrs; ++a) {
    cols.push_back({"a" + std::to_string(a), minidb::ValueType::kInt64});
  }
  Table t("seed", minidb::Schema(std::move(cols)));
  Xorshift rng(seed * 0x2545F4914F6CDD1DULL + 0xC0FFEE);
  std::vector<int64_t> row(kAttrs);
  for (int r = 0; r < rows; ++r) {
    row[0] = r + 1;
    for (int a = 1; a < kAttrs; ++a) {
      row[a] = static_cast<int64_t>(rng.Uniform(1000000));
    }
    t.AppendIntRowUnchecked(row);
  }
  return t;
}

/// Each client's edits, one list per loop iteration: kEditsPerCommit
/// distinct rows of its stripe, one attribute each.
std::vector<std::vector<Edit>> EditSchedule(uint64_t seed, int client,
                                            const Sizes& sizes) {
  const int stripe = sizes.rows / kClients;
  Xorshift rng(seed * 0x9E3779B97F4A7C15ULL + 0x1000 * (client + 1));
  std::vector<std::vector<Edit>> iters(sizes.schedule);
  for (auto& edits : iters) {
    while (static_cast<int>(edits.size()) < kEditsPerCommit) {
      const int offset = static_cast<int>(rng.Uniform(stripe));
      bool dup = false;
      for (const Edit& e : edits) dup = dup || e.offset == offset;
      if (dup) continue;
      edits.push_back({offset, 1 + static_cast<int>(rng.Uniform(kAttrs - 1))});
    }
  }
  return iters;
}

/// One client's view of the store: the in-process Session or a remote
/// net::Client, behind the three calls the loop makes.
class LoopClient {
 public:
  virtual ~LoopClient() = default;
  virtual Status Refresh(core::VersionId* watermark) = 0;
  /// Check out `vid`; the table stays valid until the next call.
  virtual Status Checkout(core::VersionId vid, Table** table) = 0;
  virtual Status Commit(session::CommitOutcome* out) = 0;
  /// Drop a checked-out table after a failed commit.
  virtual void Discard() = 0;
};

class LocalClient final : public LoopClient {
 public:
  explicit LocalClient(std::unique_ptr<session::Session> s)
      : session_(std::move(s)) {}
  Status Refresh(core::VersionId* watermark) override {
    Status s = session_->Refresh();
    *watermark = session_->watermark();
    return s;
  }
  Status Checkout(core::VersionId vid, Table** table) override {
    Status s = session_->Checkout({vid}, "work");
    *table = session_->table("work");
    return s;
  }
  Status Commit(session::CommitOutcome* out) override {
    auto outcome = session_->Commit("work", "edit");
    if (!outcome.ok()) return outcome.status();
    *out = outcome.MoveValueOrDie();
    return Status::OK();
  }
  void Discard() override {
    ORPHEUS_IGNORE_ERROR(session_->DiscardStaging("work"));
  }

 private:
  std::unique_ptr<session::Session> session_;
};

class RemoteClient final : public LoopClient {
 public:
  RemoteClient(std::unique_ptr<net::Client> client, uint64_t sid)
      : client_(std::move(client)), sid_(sid) {}
  Status Refresh(core::VersionId* watermark) override {
    auto wm = client_->Refresh(sid_);
    if (!wm.ok()) return wm.status();
    *watermark = wm.ValueOrDie();
    return Status::OK();
  }
  Status Checkout(core::VersionId vid, Table** table) override {
    auto t = client_->Checkout(sid_, {vid}, "work");
    if (!t.ok()) return t.status();
    table_ = std::make_unique<Table>(t.MoveValueOrDie());
    *table = table_.get();
    return Status::OK();
  }
  Status Commit(session::CommitOutcome* out) override {
    auto outcome = client_->Commit(sid_, *table_, "edit");
    if (!outcome.ok()) return outcome.status();
    *out = outcome.MoveValueOrDie();
    return Status::OK();
  }
  void Discard() override { table_.reset(); }
  const net::Client::Stats& stats() const { return client_->stats(); }

 private:
  std::unique_ptr<net::Client> client_;
  uint64_t sid_;
  std::unique_ptr<Table> table_;
};

/// Everything one set-up builds. Members are destroyed in reverse order:
/// clients, then the server or manager, then the repository.
struct Rig {
  std::unique_ptr<storage::Repository> repo;
  std::unique_ptr<session::SessionManager> manager;  // commit_local
  std::unique_ptr<net::SessionServer> server;        // commit_remote
  std::vector<std::unique_ptr<LoopClient>> clients;
};

/// The timed set-up: open and initialize the repository, create the CVD,
/// and open the clients' sessions (over the wire for `remote`).
Result<std::unique_ptr<Rig>> SetUp(const std::string& dir, const Table& seed,
                                   bool remote, uint64_t run_seed) {
  std::filesystem::remove_all(dir);
  auto rig = std::make_unique<Rig>();
  ORPHEUS_ASSIGN_OR_RETURN(rig->repo, storage::Repository::Open(dir + "/repo"));
  core::Cvd::Options cvd_opts;
  cvd_opts.primary_key = {"id"};
  ORPHEUS_ASSIGN_OR_RETURN(std::unique_ptr<core::Cvd> cvd,
                           core::Cvd::Init("t", seed, cvd_opts));
  ORPHEUS_RETURN_NOT_OK(rig->repo->LogCreate(*cvd));
  if (!remote) {
    rig->manager = std::make_unique<session::SessionManager>(std::move(cvd),
                                                             rig->repo.get());
    for (int c = 0; c < kClients; ++c) {
      rig->clients.push_back(
          std::make_unique<LocalClient>(rig->manager->Open()));
    }
    return rig;
  }
  std::vector<std::unique_ptr<core::Cvd>> cvds;
  cvds.push_back(std::move(cvd));
  net::ServerOptions server_opts;
  server_opts.listen = "unix:" + dir + "/s.sock";
  ORPHEUS_ASSIGN_OR_RETURN(
      rig->server,
      net::SessionServer::Start(rig->repo.get(), std::move(cvds), server_opts));
  for (int c = 0; c < kClients; ++c) {
    net::ClientOptions copts;
    copts.client_uuid = "perfbench-" + std::to_string(c);
    copts.jitter_seed = run_seed * 16 + c + 1;
    ORPHEUS_ASSIGN_OR_RETURN(std::unique_ptr<net::Client> client,
                             net::Client::Connect(rig->server->address(),
                                                  copts));
    ORPHEUS_ASSIGN_OR_RETURN(net::Client::OpenResult opened,
                             client->Open("t"));
    rig->clients.push_back(
        std::make_unique<RemoteClient>(std::move(client), opened.sid));
  }
  return rig;
}

/// Stop serving and hand the CVD back, leaving the repository open. The
/// caller then drops the repository without Close, as a crash would.
std::unique_ptr<core::Cvd> TearDown(Rig* rig) {
  std::unique_ptr<core::Cvd> cvd;
  rig->clients.clear();
  if (rig->manager) {
    cvd = rig->manager->Release();
    rig->manager.reset();
  }
  if (rig->server) {
    rig->server->Stop();
    auto cvds = rig->server->ReleaseCvds();
    if (!cvds.empty()) cvd = std::move(cvds[0]);
    rig->server.reset();
  }
  return cvd;
}

/// Per-client state of the measured loop; each client writes only its own.
struct ClientLog {
  Samples refresh_ms, checkout_ms, edit_ms, commit_ms;
  uint64_t rows_changed = 0;
  uint64_t confirmed = 0;
  uint64_t reconciled = 0;
  uint64_t conflicts = 0;
  std::string first_error;
  /// (key * kAttrs + attr) -> last committed value.
  std::unordered_map<int64_t, int64_t> expected;
};

/// Check that every committed edit reads back at its last value from the
/// latest version of `cvd`.
bool ValuesReadBack(const core::Cvd& cvd, const std::vector<ClientLog>& logs,
                    std::string* detail) {
  auto table = cvd.Materialize({cvd.latest()}, "audit");
  if (!table.ok()) {
    *detail = table.status().ToString();
    return false;
  }
  Table& t = table.ValueOrDie();
  if (!t.BuildUniqueIntIndex(1).ok()) {
    *detail = "duplicate keys in the latest version";
    return false;
  }
  size_t checked = 0;
  for (const ClientLog& log : logs) {
    for (const auto& [slot, value] : log.expected) {
      auto row = t.LookupUniqueInt(1, slot / kAttrs);
      if (!row || t.GetValue(*row, 1 + slot % kAttrs).AsInt() != value) {
        *detail = "key " + std::to_string(slot / kAttrs) + " attribute " +
                  std::to_string(slot % kAttrs) + " lost its last value";
        return false;
      }
      ++checked;
    }
  }
  *detail = std::to_string(checked) + " cells checked";
  return true;
}

/// The crash image recover_s reopens: the seed table plus `crash_commits`
/// single-session commits, dropped without Close, so the replayed log has
/// the same length whatever the loop's throughput. Its bytes on disk give
/// storage_bytes_per_user_byte for the same reason: the loop's repository
/// grows with the number of commits the loop made.
void MakeCrashImage(const std::string& dir, const Table& seed,
                    const Sizes& sizes,
                    const std::vector<std::vector<Edit>>& edits,
                    Report* report) {
  Status status;
  const RegistryView before = RegistryView::Take();
  {
    auto rig = SetUp(dir, seed, /*remote=*/false, 0);
    if (!rig.ok()) {
      report->Check("crash image created", false, rig.status().ToString());
      return;
    }
    LoopClient* client = rig.ValueOrDie()->clients[0].get();
    for (int i = 0; status.ok() && i < sizes.crash_commits; ++i) {
      core::VersionId wm = 0;
      Table* table = nullptr;
      status = client->Refresh(&wm);
      if (status.ok()) status = client->Checkout(wm, &table);
      if (status.ok()) status = table->BuildUniqueIntIndex(1);
      for (int k = 0; status.ok() && k < kEditsPerCommit; ++k) {
        const Edit& e = edits[i % edits.size()][k];
        auto row = table->LookupUniqueInt(1, e.offset + 1);
        if (!row) {
          status = Status::Internal("edit key missing");
          break;
        }
        minidb::Row vals = table->GetRow(*row);
        vals[1 + e.attr] = Value(EditValue(0, i, k));
        table->SetRow(*row, vals);
      }
      session::CommitOutcome out;
      if (status.ok()) status = client->Commit(&out);
    }
    TearDown(rig.ValueOrDie().get());
  }  // repository dropped without Close
  report->Check("crash image committed", status.ok(), status.ToString());
  const uint64_t distinct_records =
      seed.num_rows() +
      RegistryView::Take().Minus(before).Counter("cvd.commit.records_new");
  report->Set("storage_bytes_per_user_byte",
              static_cast<double>(DirectoryBytes(dir + "/repo")) /
                  (static_cast<double>(distinct_records) * kAttrs * 8));
}

}  // namespace

void RunCommit(const Options& opts, bool remote, Report* report) {
  const Sizes sizes = SizesFor(opts);
  const std::string run_dir = opts.out_dir + "/" + opts.workload + "-" +
                              std::to_string(::getpid());
  const Table seed = SeedTable(opts.seed, sizes.rows);
  std::vector<std::vector<std::vector<Edit>>> schedules;
  Digest data_digest, sched_digest;
  for (size_t r = 0; r < seed.num_rows(); ++r) {
    for (int a = 0; a < kAttrs; ++a) {
      data_digest.Add(seed.column(a).int_data()[r]);
    }
  }
  for (int c = 0; c < kClients; ++c) {
    schedules.push_back(EditSchedule(opts.seed, c, sizes));
    for (const auto& edits : schedules.back()) {
      for (const Edit& e : edits) {
        sched_digest.Add(e.offset);
        sched_digest.Add(e.attr);
      }
    }
  }
  report->Note("digest dataset " + data_digest.Hex() + " schedule " +
               sched_digest.Hex());
  report->Note("dataset rows=" + std::to_string(sizes.rows) + " attributes=" +
               std::to_string(kAttrs) + " clients=" +
               std::to_string(kClients) + " edits_per_commit=" +
               std::to_string(kEditsPerCommit));

  const std::string crash_dir = run_dir + "-crash";
  MakeCrashImage(crash_dir, seed, sizes, schedules[0], report);
  RecoveryTimer recovery(crash_dir + "/repo", [&](storage::Repository* repo) {
    auto cvds = repo->TakeCvds();
    report->Check("crash image recovers every commit",
                  cvds.size() == 1 &&
                      cvds[0]->num_versions() == 1 + sizes.crash_commits);
  });
  std::vector<double> setup_s;
  auto timed_setup = [&](const std::string& dir) {
    Span span("setup", RequestId{});
    const Clock::time_point t = Clock::now();
    auto built = SetUp(dir, seed, remote, opts.seed);
    setup_s.push_back(MillisSince(t) / 1000.0);
    if (!built.ok()) report->Check("set-up", false, built.status().ToString());
    return built;
  };
  // Run between the windows of both loops: crash recoveries, then set-ups
  // of spare rigs. Timed all at once, recover_s spread by up to a third
  // (IQR/median over five seeds), following the speed of the shared
  // machine at that moment.
  auto timing_batch = [&] {
    recovery.Time(sizes.reopens, report);
    const std::string spare_dir = run_dir + "-spare";
    for (int i = 0; i < sizes.setups; ++i) {
      auto spare = timed_setup(spare_dir);
      if (!spare.ok()) break;
      TearDown(spare.ValueOrDie().get());
    }
    std::filesystem::remove_all(spare_dir);
  };

  auto built = timed_setup(run_dir);
  if (!built.ok()) {
    report->AddAttempted(1);
    report->AddFailed(1);
    std::filesystem::remove_all(run_dir);
    std::filesystem::remove_all(crash_dir);
    return;
  }
  std::unique_ptr<Rig> rig = built.MoveValueOrDie();

  // Taken before the loop: the CVD grows by a version per commit, so a
  // peak taken after it would rise with throughput.
  report->Set("peak_rss_mb", PeakRssMb());
  const double rss_before_mb = CurrentRssMb();

  const int stripe = sizes.rows / kClients;
  std::vector<ClientLog> logs(kClients);
  const char* refresh_span =
      remote ? "net.Client.Refresh" : "session.Session.Refresh";
  const char* checkout_span =
      remote ? "net.Client.Checkout" : "session.Session.Checkout";
  const char* commit_span =
      remote ? "net.Client.Commit" : "session.Session.Commit";
  // Wire counters of the measured phases only: Connect counts a client's
  // first connection as a reconnect.
  std::vector<net::Client::Stats> stats_before(kClients);
  for (int c = 0; remote && c < kClients; ++c) {
    stats_before[c] =
        static_cast<RemoteClient*>(rig->clients[c].get())->stats();
  }
  // The read phase, before any commit: client 0 checks out the set-up
  // version back to back. After the loop, its checkouts would scan the
  // records the loop's commits added, and so slow down as commits sped up.
  core::VersionId base = 0;
  Status refreshed = rig->clients[0]->Refresh(&base);
  report->Check("read-phase client refreshes", refreshed.ok(),
                refreshed.ToString());
  Samples read_ms, read_rows;
  std::string read_error;
  const LoopResult reads = RunClosedLoop(
      1, opts.seconds * kReadShare, opts.trace,
      [&](int c, int64_t iter, int window) {
        LoopClient* client = rig->clients[c].get();
        const RequestId req{c, iter};
        Span op_span("op.checkout", req);
        Table* table = nullptr;
        Status s;
        {
          Span span(checkout_span, req);
          const Clock::time_point t = Clock::now();
          s = client->Checkout(base, &table);
          read_ms.Add(MillisSince(t), window);
        }
        if (s.ok() && table->num_rows() != static_cast<size_t>(sizes.rows)) {
          s = Status::Internal("checkout returned " +
                               std::to_string(table->num_rows()) + " rows");
        }
        if (s.ok()) read_rows.Add(static_cast<double>(sizes.rows), window);
        client->Discard();
        if (!s.ok() && read_error.empty()) read_error = s.ToString();
        return s.ok();
      },
      timing_batch);
  report->AddAttempted(reads.total_ops());
  report->AddFailed(reads.failed);
  report->Check("every read-phase checkout returns the whole table",
                reads.failed == 0, read_error);
  report->Note("read phase " + reads.Summary());
  report->SampleCount("read-phase checkouts", read_ms.size());

  const LoopResult loop = RunClosedLoop(
      kClients, opts.seconds * (1 - kReadShare), opts.trace,
      [&](int c, int64_t iter, int window) {
        ClientLog& log = logs[c];
        LoopClient* client = rig->clients[c].get();
        const RequestId req{c, iter};
        Span op_span("op.commit_loop", req);
        auto fail = [&](const Status& s) {
          if (log.first_error.empty()) log.first_error = s.ToString();
          return false;
        };
        core::VersionId wm = 0;
        Status s;
        {
          Span span(refresh_span, req);
          const Clock::time_point t = Clock::now();
          s = client->Refresh(&wm);
          log.refresh_ms.Add(MillisSince(t), window);
        }
        if (!s.ok()) return fail(s);
        Table* table = nullptr;
        {
          Span span(checkout_span, req);
          const Clock::time_point t = Clock::now();
          s = client->Checkout(wm, &table);
          log.checkout_ms.Add(MillisSince(t), window);
        }
        if (!s.ok()) return fail(s);
        const std::vector<Edit>& edits =
            schedules[c][iter % schedules[c].size()];
        std::vector<std::pair<int64_t, int64_t>> written;
        {
          Span span("minidb.edit", req);
          const Clock::time_point t = Clock::now();
          s = table->BuildUniqueIntIndex(1);
          for (int k = 0; s.ok() && k < kEditsPerCommit; ++k) {
            const int64_t key = c * stripe + edits[k].offset + 1;
            auto row = table->LookupUniqueInt(1, key);
            if (!row) {
              s = Status::Internal("key " + std::to_string(key) + " missing");
              break;
            }
            minidb::Row vals = table->GetRow(*row);
            const int64_t value = EditValue(c, iter, k);
            vals[1 + edits[k].attr] = Value(value);
            table->SetRow(*row, vals);
            written.push_back({key * kAttrs + edits[k].attr, value});
          }
          log.edit_ms.Add(MillisSince(t), window);
        }
        if (!s.ok()) {
          client->Discard();
          return fail(s);
        }
        session::CommitOutcome out;
        {
          Span span(commit_span, req);
          const Clock::time_point t = Clock::now();
          s = client->Commit(&out);
          log.commit_ms.Add(MillisSince(t), window);
        }
        if (!s.ok()) {
          client->Discard();
          return fail(s);
        }
        if (!out.conflicts.empty()) {
          ++log.conflicts;
          return fail(Status::Internal("unexpected merge conflict"));
        }
        ++log.confirmed;
        if (out.reconciled) ++log.reconciled;
        log.rows_changed += kEditsPerCommit;
        for (const auto& [slot, value] : written) log.expected[slot] = value;
        return true;
      },
      timing_batch);
  const RegistryView& delta = loop.delta;
  const double rss_growth_mb = CurrentRssMb() - rss_before_mb;
  recovery.Finish(report);
  std::filesystem::remove_all(crash_dir);

  ClientLog all;
  net::Client::Stats net_stats;
  for (int c = 0; c < kClients; ++c) {
    const ClientLog& log = logs[c];
    all.refresh_ms.Append(log.refresh_ms);
    all.checkout_ms.Append(log.checkout_ms);
    all.edit_ms.Append(log.edit_ms);
    all.commit_ms.Append(log.commit_ms);
    all.rows_changed += log.rows_changed;
    all.confirmed += log.confirmed;
    all.reconciled += log.reconciled;
    all.conflicts += log.conflicts;
    if (all.first_error.empty()) all.first_error = log.first_error;
    if (remote) {
      const auto& st =
          static_cast<RemoteClient*>(rig->clients[c].get())->stats();
      net_stats.calls += st.calls - stats_before[c].calls;
      net_stats.retries += st.retries - stats_before[c].retries;
      net_stats.reconnects += st.reconnects - stats_before[c].reconnects;
    }
  }
  const uint64_t ops = loop.total_ops();
  report->AddAttempted(ops);
  report->AddFailed(loop.failed);
  report->Check("no commit loop failed", loop.failed == 0,
                all.first_error.empty()
                    ? std::to_string(all.conflicts) + " conflicts"
                    : all.first_error);
  report->Note("commit loop " + loop.Summary());
  report->SampleCount("commits", all.commit_ms.size());
  report->SampleCount("commit-loop checkouts", all.checkout_ms.size());
  report->Note("commits confirmed=" + std::to_string(all.confirmed) +
               " reconciled=" + std::to_string(all.reconciled));
  if (!opts.smoke && all.commit_ms.size() < 1000) {
    report->Note("warning: under 1000 commits; the p99 has <10 samples "
                 "beyond it");
  }

  // A crash: stop serving, drop the repository without Close, and recover
  // from what was flushed.
  uint64_t server_commits = 0;
  if (rig->server) server_commits = rig->server->stats().commits;
  std::unique_ptr<core::Cvd> live = TearDown(rig.get());
  const int live_versions = live ? live->num_versions() : 0;
  live.reset();
  rig.reset();  // the repository is dropped without Close

  report->Check("version ledger: versions = 1 + commits + merges",
                live_versions ==
                    static_cast<int>(1 + all.confirmed + all.reconciled),
                std::to_string(live_versions) + " versions, " +
                    std::to_string(all.confirmed) + " commits, " +
                    std::to_string(all.reconciled) + " merges");
  if (remote) {
    report->Check("server commits = confirmed commits",
                  server_commits == all.confirmed,
                  std::to_string(server_commits) + " vs " +
                      std::to_string(all.confirmed));
  }
  {
    Span span("storage.Repository.Open", RequestId{});
    auto repo = storage::Repository::Open(run_dir + "/repo");
    if (!repo.ok()) {
      report->Check("repository reopens after the crash", false,
                    repo.status().ToString());
    } else {
      auto cvds = repo.ValueOrDie()->TakeCvds();
      const bool one = cvds.size() == 1;
      report->Check("recovered ledger matches",
                    one && cvds[0]->num_versions() == live_versions);
      std::string detail;
      report->Check("last committed values read back after recovery",
                    one && ValuesReadBack(*cvds[0], logs, &detail), detail);
    }
  }
  std::filesystem::remove_all(run_dir);

  // End-to-end metrics.
  ReportMedian("setup_s", "setups", setup_s, report);
  report->Set("checkout_p50_ms", reads.MedianOverWindows([&](int w) {
    return read_ms.Window(w).Quantile(0.5);
  }));
  report->Set("loop.checkout_rows_per_s", reads.MedianOverWindows([&](int w) {
    return read_rows.Window(w).Sum() /
           (read_ms.Window(w).Sum() / 1000.0);
  }));
  report->Set("loop.op_p50_ms", loop.MedianOverWindows([&](int w) {
    return all.commit_ms.Window(w).Quantile(0.5);
  }));
  report->Set("tail.checkout_p99_ms", read_ms.Quantile(0.99));
  report->Set("mixed.checkout_p50_ms", all.checkout_ms.Quantile(0.5));
  report->Set("tail.op_p99_ms", all.commit_ms.Quantile(0.99));
  report->Set("loop.ops_per_s", loop.MedianThroughput());

  // Per-layer metrics.
  const double commits = std::max<uint64_t>(1, all.confirmed);
  report->Set("session.commit.reconciled_share", all.reconciled / commits);
  report->Set("session.reconcile_ms.mean", delta.MeanMs("session.reconcile"));
  report->Set("session.commit.self_ms.mean",
              delta.MeanMs("session.commit", /*self=*/true));
  report->Set("core.cvd_commit_ms.mean", delta.MeanMs("cvd.commit"));
  report->Set("core.commit.rows_scanned_per_changed",
              all.rows_changed ? static_cast<double>(delta.Counter(
                                     "cvd.commit.rows_scanned")) /
                                     all.rows_changed
                               : 0.0);
  report->Set("minidb.rows_copied_per_checkout",
              all.checkout_ms.size()
                  ? static_cast<double>(delta.Counter("minidb.rows_copied")) /
                        all.checkout_ms.size()
                  : 0.0);
  report->Set("minidb.edit_ms.p50", all.edit_ms.Quantile(0.5));
  report->Set("core.rss_kb_per_commit", rss_growth_mb * 1024.0 / commits);
  ReportPoolWait(delta, ops, report);
  report->Set("storage.wal_syncs_per_commit",
              delta.Counter("storage.wal.syncs") / commits);
  report->Set("storage.wal_bytes_per_commit",
              delta.Counter("storage.wal.append_bytes") / commits);
  const RegistryView::SpanAgg batch = delta.Spans("storage.wal.append_batch");
  const RegistryView::SpanAgg single = delta.Spans("storage.wal.append");
  const uint64_t appends = batch.count + single.count;
  report->Set("storage.wal_append_ms.mean",
              appends ? (batch.total_us + single.total_us) / 1000.0 / appends
                      : 0.0);
  if (remote) {
    report->Set("net.commit_overhead_ms",
                all.commit_ms.Mean() - delta.MeanMs("session.commit"));
    report->Set("net.checkout_overhead_ms",
                read_ms.Mean() - reads.delta.MeanMs("session.checkout"));
    report->Set("net.refresh_ms.p50", all.refresh_ms.Quantile(0.5));
    report->Set("net.bytes_per_commit",
                delta.Counter("net.bytes_sent") / commits);
    report->Set("net.retries_per_call",
                net_stats.calls ? static_cast<double>(net_stats.retries) /
                                      net_stats.calls
                                : 0.0);
    report->Set("net.reconnects", static_cast<double>(net_stats.reconnects));
    report->Skip("session.refresh_ms.p50",
                 "remote refreshes are timed as net.refresh_ms.p50");
  } else {
    report->Set("session.refresh_ms.p50", all.refresh_ms.Quantile(0.5));
    for (const char* name :
         {"net.commit_overhead_ms", "net.checkout_overhead_ms",
          "net.refresh_ms.p50", "net.bytes_per_commit", "net.retries_per_call",
          "net.reconnects"}) {
      report->Skip(name, "commit_local uses no network");
    }
  }
  for (const char* name :
       {"session.checkout_overhead_ms",
        "core.materialize_ms.combined-table.p50",
        "core.materialize_ms.split-by-vlist.p50",
        "core.materialize_ms.split-by-rlist.p50",
        "core.materialize_ms.delta-based.p50", "core.pstore_checkout_ms.p50",
        "core.pstore.rows_scanned_per_row", "core.checkout_cost_r2",
        "core.build_s.combined-table", "core.build_s.split-by-vlist",
        "core.build_s.split-by-rlist", "core.build_s.delta-based",
        "core.build_s.pstore", "core.lyresplit_s", "benchdata.generate_s",
        "core.storage_bytes.combined-table",
        "core.storage_bytes.split-by-vlist",
        "core.storage_bytes.split-by-rlist", "core.storage_bytes.delta-based",
        "core.storage_bytes.pstore", "minidb.index_lookups_per_row",
        "common.ridset.intersect_rows_ms.p50",
        "common.ridset.from_sorted_ms.p50"}) {
    report->Skip(name, "measured on read_checkout, which holds those stores");
  }
  if (opts.trace) {
    report->Set("trace.overhead_share", loop.TracingCost());
  }
}

}  // namespace perfbench
