// read_checkout: one closed-loop client, pure reads.
//
// The dataset is SCI-shaped (benchdata; |V|=1000, B=100, I=80, 20 int64
// attributes, roughly SCI_2M at scale 1: ~77k distinct records, each store
// 10-20 MB, larger than a core's L2). It is loaded into four data models via
// Cvd::FromState, each behind its own SessionManager, plus a LyreSplit
// PartitionedStore (storage budget 2|R|). The client checks out seeded
// uniform (store, version) pairs; every result is checked against the
// generator's ground truth (row count plus an order-independent hash of
// (rid, payload)).

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "benchdata/generator.h"
#include "common/random.h"
#include "common/ridset.h"
#include "core/cvd.h"
#include "core/data_models.h"
#include "core/lyresplit.h"
#include "core/partition_store.h"
#include "core/version_graph.h"
#include "perfbench/workloads.h"
#include "session/session.h"
#include "storage/repository.h"

namespace perfbench {
namespace {

using orpheus::RidSet;
using orpheus::Status;
using orpheus::Xorshift;
namespace benchdata = orpheus::benchdata;
namespace core = orpheus::core;
namespace session = orpheus::session;
namespace storage = orpheus::storage;

constexpr core::DataModelType kModels[] = {
    core::DataModelType::kCombinedTable, core::DataModelType::kSplitByVlist,
    core::DataModelType::kSplitByRlist, core::DataModelType::kDeltaBased};
constexpr int kNumModels = 4;
constexpr int kPstore = kNumModels;  // store index of the LyreSplit store
constexpr int kNumStores = kNumModels + 1;
constexpr int kRlist = 2;  // index of split-by-rlist in kModels

std::string StoreName(int s) {
  return s < kNumModels ? core::DataModelTypeName(kModels[s]) : "pstore";
}

struct Sizes {
  int versions;
  int branches;
  int ops_per_version;
  int setups;      // set-ups per run; setup_s is their median
  int probes;      // versions probed layer by layer in a traced run
  size_t schedule; // length of the (store, version) schedule, cycled
};

Sizes SizesFor(const Options& opts) {
  if (opts.smoke) return {200, 20, 20, 1, 20, 4096};
  return {1000, 100, 80, 3, 300, 1 << 16};
}

struct Op {
  int store;
  int version;  // dense, 0-based
};

/// Expected content of every version: row count and the sum of row hashes.
struct Truth {
  std::vector<uint64_t> count;
  std::vector<uint64_t> sum;
};

Truth GroundTruth(const benchdata::VersionedDataset& ds) {
  const int attrs = ds.num_attributes();
  std::vector<uint64_t> row_hash(ds.num_distinct_records());
  for (int64_t rid = 0; rid < ds.num_distinct_records(); ++rid) {
    const std::vector<int64_t> payload = ds.RecordPayload(rid);
    row_hash[rid] = RowHash(rid, payload.data(), attrs);
  }
  Truth t;
  for (const auto& spec : ds.versions()) {
    uint64_t sum = 0;
    for (int64_t rid : spec.records) sum += row_hash[rid];
    t.count.push_back(spec.records.size());
    t.sum.push_back(sum);
  }
  return t;
}

/// Row count and hash sum of a materialized [_rid, attrs...] table.
bool MatchesTruth(const orpheus::minidb::Table& table, const Truth& truth,
                  int version, int attrs) {
  if (table.num_rows() != truth.count[version] ||
      table.num_columns() != static_cast<size_t>(attrs) + 1) {
    return false;
  }
  std::vector<const std::vector<int64_t>*> cols;
  for (size_t c = 0; c < table.num_columns(); ++c) {
    cols.push_back(&table.column(c).int_data());
    if (cols.back()->size() != table.num_rows()) return false;
  }
  std::vector<int64_t> payload(attrs);
  uint64_t sum = 0;
  for (size_t r = 0; r < table.num_rows(); ++r) {
    for (int a = 0; a < attrs; ++a) payload[a] = (*cols[a + 1])[r];
    sum += RowHash((*cols[0])[r], payload.data(), attrs);
  }
  return sum == truth.sum[version];
}

/// The dataset in the CVD's snapshot form. Payloads become Values once and
/// the state is shared by the four data models.
core::CvdState StateOf(const benchdata::VersionedDataset& ds) {
  using orpheus::minidb::Value;
  using orpheus::minidb::ValueType;
  core::CvdState st;
  st.name = "sci";
  const int attrs = ds.num_attributes();
  for (int a = 0; a < attrs; ++a) {
    const std::string name = "a" + std::to_string(a);
    st.data_schema.push_back({name, ValueType::kInt64});
    st.attributes.push_back({a, name, ValueType::kInt64});
    st.current_attr_ids.push_back(a);
  }
  st.next_rid = ds.num_distinct_records();
  std::vector<char> seen(ds.num_distinct_records(), 0);
  for (int v = 0; v < ds.num_versions(); ++v) {
    const auto& spec = ds.version(v);
    std::vector<int64_t> weights;
    std::vector<core::VersionId> public_parents;
    for (int p : spec.parents) {
      weights.push_back(ds.CommonRecords(p, v));
      public_parents.push_back(p + 1);
    }
    std::vector<core::NewRecord> fresh;
    for (int64_t rid : spec.records) {
      if (seen[rid]) continue;
      seen[rid] = 1;
      orpheus::minidb::Row row;
      row.reserve(attrs);
      for (int64_t x : ds.RecordPayload(rid)) row.push_back(Value(x));
      fresh.push_back({rid, std::move(row)});
    }
    core::VersionMetadata meta;
    meta.vid = v + 1;
    meta.parents = public_parents;
    meta.checkout_time = 2 * v + 1;
    meta.commit_time = 2 * v + 2;
    meta.message = "generated";
    meta.attributes = st.current_attr_ids;
    meta.num_records = static_cast<int64_t>(spec.records.size());
    st.metadata.push_back(std::move(meta));
    st.version_parents.push_back(spec.parents);
    st.version_weights.push_back(std::move(weights));
    st.version_rids.push_back(spec.records);
    st.version_new_records.push_back(std::move(fresh));
  }
  st.logical_clock = 2 * ds.num_versions();
  return st;
}

struct Stores {
  std::unique_ptr<benchdata::VersionedDataset> ds;
  std::vector<std::unique_ptr<session::SessionManager>> managers;
  // Declared after managers: sessions are destroyed first.
  std::vector<std::unique_ptr<session::Session>> sessions;
  std::unique_ptr<core::PartitionedStore> pstore;
  double generate_s = 0.0;
  double build_s[kNumStores] = {};
  double lyresplit_s = 0.0;
  double total_s = 0.0;
};

orpheus::Result<std::unique_ptr<Stores>> BuildStores(const Options& opts,
                                                     const Sizes& sizes) {
  auto st = std::make_unique<Stores>();
  const RequestId setup;
  const Clock::time_point start = Clock::now();
  {
    Span span("benchdata.Generate", setup);
    Clock::time_point t = Clock::now();
    st->ds = std::make_unique<benchdata::VersionedDataset>(
        benchdata::VersionedDataset::Generate(benchdata::SciConfig(
            "SCI_2M", sizes.versions, sizes.branches, sizes.ops_per_version,
            opts.seed)));
    st->generate_s = MillisSince(t) / 1000.0;
  }
  const benchdata::VersionedDataset& ds = *st->ds;
  const core::CvdState state = StateOf(ds);
  for (int s = 0; s < kNumModels; ++s) {
    core::CvdState model_state = state;
    model_state.model = kModels[s];
    Span span("core.Cvd.FromState", setup);
    Clock::time_point t = Clock::now();
    auto cvd = core::Cvd::FromState(model_state);
    if (!cvd.ok()) return cvd.status();
    st->managers.push_back(std::make_unique<session::SessionManager>(
        cvd.MoveValueOrDie(), nullptr));
    st->sessions.push_back(st->managers.back()->Open());
    st->build_s[s] = MillisSince(t) / 1000.0;
  }
  const core::VersionGraph graph = orpheus::bench::GraphOf(ds);
  core::Partitioning partitioning;
  {
    Span span("core.LyreSplitForBudget", setup);
    Clock::time_point t = Clock::now();
    partitioning = core::LyreSplitForBudget(
                       graph, 2 * static_cast<uint64_t>(
                                      ds.num_distinct_records()))
                       .partitioning;
    st->lyresplit_s = MillisSince(t) / 1000.0;
  }
  const core::DatasetAccessor accessor = orpheus::bench::AccessorOf(ds);
  {
    Span span("core.PartitionedStore.Build", setup);
    Clock::time_point t = Clock::now();
    st->pstore = std::make_unique<core::PartitionedStore>(
        core::PartitionedStore::Build(accessor, partitioning));
    st->build_s[kPstore] = MillisSince(t) / 1000.0;
  }
  st->total_s = MillisSince(start) / 1000.0;
  return st;
}

uint64_t StorageBytesOf(const Stores& st, int s) {
  if (s == kPstore) return st.pstore->StorageBytes();
  uint64_t bytes = 0;
  ORPHEUS_IGNORE_ERROR(st.managers[s]->ReadCvd([&](const core::Cvd& cvd) {
    bytes = cvd.StorageBytes();
    return Status::OK();
  }));
  return bytes;
}

/// The crash image recover_s reopens: a repository whose only WAL record
/// is the split-by-rlist store's creation, dropped without Close. Returns
/// its directory.
std::string MakeCrashImage(const Options& opts, const Stores& st,
                           Report* report) {
  const std::string dir =
      opts.out_dir + "/read-repo-" + std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  auto repo = storage::Repository::Open(dir);
  if (!repo.ok()) {
    report->Check("crash image created", false, repo.status().ToString());
    return dir;
  }
  Status s = st.managers[kRlist]->ReadCvd([&](const core::Cvd& cvd) {
    return repo.ValueOrDie()->LogCreate(cvd);
  });
  report->Check("crash image logged", s.ok(), s.ToString());
  return dir;  // `repo` is dropped without Close: recovery replays the WAL
}

double RSquared(const std::vector<double>& x, const std::vector<double>& y) {
  const size_t n = x.size();
  if (n < 3) return 0.0;
  double mx = 0, my = 0;
  for (size_t i = 0; i < n; ++i) {
    mx += x[i];
    my += y[i];
  }
  mx /= n;
  my /= n;
  double sxx = 0, sxy = 0, syy = 0;
  for (size_t i = 0; i < n; ++i) {
    sxx += (x[i] - mx) * (x[i] - mx);
    sxy += (x[i] - mx) * (y[i] - my);
    syy += (y[i] - my) * (y[i] - my);
  }
  if (sxx == 0 || syy == 0) return 0.0;
  return sxy * sxy / (sxx * syy);
}

/// Traced runs only: re-run a prefix of the schedule's versions layer by
/// layer to split a checkout into its parts.
void ProbeLayers(const Sizes& sizes, const std::vector<Op>& schedule,
                 Stores* st, const Truth& truth, Report* report) {
  const int attrs = st->ds->num_attributes();
  Samples materialize[kNumModels];
  Samples overhead;
  Samples from_sorted, intersect, pstore_ms;
  std::vector<double> part_records, part_ms;
  bool ok = true;
  for (int i = 0; i < sizes.probes; ++i) {
    const int v = schedule[i % schedule.size()].version;
    const RequestId req{0, -2 - i};  // probes are numbered below set-up
    for (int s = 0; s < kNumModels; ++s) {
      double session_ms = 0.0;
      {
        Span span("session.Session.Checkout", req);
        const Clock::time_point t = Clock::now();
        ok = ok && st->sessions[s]->Checkout({v + 1}, "probe").ok();
        session_ms = MillisSince(t);
      }
      ok = ok && st->sessions[s]->DiscardStaging("probe").ok();
      double cvd_ms = 0.0;
      Status status = st->managers[s]->ReadCvd([&](const core::Cvd& cvd) {
        Span span("core.Cvd.Materialize", req);
        const Clock::time_point t = Clock::now();
        auto table = cvd.Materialize({v + 1}, "probe");
        cvd_ms = MillisSince(t);
        if (!table.ok()) return table.status();
        if (!MatchesTruth(table.ValueOrDie(), truth, v, attrs)) {
          return Status::Internal("materialized version differs");
        }
        if (s != kRlist) return Status::OK();
        // The membership kernels under split-by-rlist checkout.
        auto rids = cvd.VersionRecords(v + 1);
        if (!rids.ok()) return rids.status();
        const auto* backend =
            dynamic_cast<const core::SplitByRlistBackend*>(cvd.backend());
        if (backend == nullptr) return Status::Internal("not split-by-rlist");
        const std::vector<int64_t>& rid_col =
            backend->data_table().column(0).int_data();
        Clock::time_point k = Clock::now();
        RidSet set;
        {
          Span kspan("common.RidSet.FromSorted", req);
          set = RidSet::FromSorted(rids.ValueOrDie());
        }
        from_sorted.Add(MillisSince(k));
        std::vector<uint32_t> rows;
        k = Clock::now();
        {
          Span kspan("common.RidSet.IntersectToRows", req);
          set.IntersectToRows(rid_col.data(), rid_col.size(), &rows);
        }
        intersect.Add(MillisSince(k));
        if (rows.size() != rids.ValueOrDie().size()) {
          return Status::Internal("IntersectToRows lost rows");
        }
        return Status::OK();
      });
      ok = ok && status.ok();
      materialize[s].Add(cvd_ms);
      overhead.Add(session_ms - cvd_ms);
    }
    orpheus::Result<orpheus::minidb::Table> table =
        Status::Internal("not run");
    double ms = 0.0;
    {
      Span span("core.PartitionedStore.Checkout", req);
      const Clock::time_point t = Clock::now();
      table = st->pstore->Checkout(v);
      ms = MillisSince(t);
    }
    ok = ok && table.ok() && MatchesTruth(table.ValueOrDie(), truth, v, attrs);
    pstore_ms.Add(ms);
    part_records.push_back(
        static_cast<double>(st->pstore->PartitionRecords(v)));
    part_ms.push_back(ms);
  }
  report->Check("layer probes match ground truth", ok,
                std::to_string(sizes.probes) + " versions x " +
                    std::to_string(kNumStores) + " stores");
  report->SampleCount("layer probes per store", sizes.probes);
  for (int s = 0; s < kNumModels; ++s) {
    report->Set("core.materialize_ms." + StoreName(s) + ".p50",
                materialize[s].Quantile(0.5));
  }
  report->Set("session.checkout_overhead_ms", overhead.Mean());
  report->Set("common.ridset.from_sorted_ms.p50", from_sorted.Quantile(0.5));
  report->Set("common.ridset.intersect_rows_ms.p50", intersect.Quantile(0.5));
  // The paper's cost model: LyreSplit partitions are split-by-rlist tables,
  // and a checkout should cost time linear in its partition's |R_k|.
  report->Set("core.checkout_cost_r2", RSquared(part_records, part_ms));
}

void SkipCommitMetrics(Report* report) {
  const char* why = "read_checkout makes no commits and uses no network";
  for (const char* name :
       {"net.commit_overhead_ms", "net.checkout_overhead_ms",
        "net.refresh_ms.p50", "net.bytes_per_commit", "net.retries_per_call",
        "net.reconnects", "session.refresh_ms.p50",
        "session.commit.reconciled_share", "session.reconcile_ms.mean",
        "session.commit.self_ms.mean", "core.cvd_commit_ms.mean",
        "core.commit.rows_scanned_per_changed", "minidb.edit_ms.p50",
        "storage.wal_syncs_per_commit", "storage.wal_bytes_per_commit",
        "storage.wal_append_ms.mean", "core.rss_kb_per_commit",
        "mixed.checkout_p50_ms"}) {
    report->Skip(name, why);
  }
}

}  // namespace

void RunReadCheckout(const Options& opts, Report* report) {
  const Sizes sizes = SizesFor(opts);

  // Set up several times; setup_s is the median, the last set-up is used.
  std::vector<double> setup_s;
  std::unique_ptr<Stores> st;
  for (int i = 0; i < sizes.setups; ++i) {
    st.reset();
    auto built = BuildStores(opts, sizes);
    if (!built.ok()) {
      report->Check("stores built", false, built.status().ToString());
      report->AddAttempted(1);
      report->AddFailed(1);
      return;
    }
    st = built.MoveValueOrDie();
    setup_s.push_back(st->total_s);
  }
  const benchdata::VersionedDataset& ds = *st->ds;
  const int attrs = ds.num_attributes();
  const Truth truth = GroundTruth(ds);

  // The op schedule: seeded uniform (store, version) pairs.
  Xorshift rng(opts.seed * 0x9E3779B97F4A7C15ULL + 0x5EED);
  std::vector<Op> schedule(sizes.schedule);
  for (Op& op : schedule) {
    op.store = static_cast<int>(rng.Uniform(kNumStores));
    op.version = static_cast<int>(rng.Uniform(ds.num_versions()));
  }
  Digest data_digest, sched_digest;
  for (int v = 0; v < ds.num_versions(); ++v) {
    for (int p : ds.version(v).parents) data_digest.Add(p);
    data_digest.Add(truth.count[v]);
    data_digest.Add(truth.sum[v]);
  }
  for (const Op& op : schedule) {
    sched_digest.Add(op.store);
    sched_digest.Add(op.version);
  }
  report->Note("digest dataset " + data_digest.Hex() + " schedule " +
               sched_digest.Hex());
  uint64_t distinct = ds.num_distinct_records();
  uint64_t edges = ds.num_bipartite_edges();
  report->Note("dataset versions=" + std::to_string(ds.num_versions()) +
               " distinct_records=" + std::to_string(distinct) +
               " version_records=" + std::to_string(edges) +
               " attributes=" + std::to_string(attrs));
  uint64_t store_bytes = 0;
  for (int s = 0; s < kNumStores; ++s) {
    const uint64_t b = StorageBytesOf(*st, s);
    store_bytes += b;
    report->Set("core.storage_bytes." + StoreName(s), static_cast<double>(b));
    report->Set("core.build_s." + StoreName(s), st->build_s[s]);
  }
  report->Set("core.lyresplit_s", st->lyresplit_s);
  report->Set("benchdata.generate_s", st->generate_s);
  const std::string crash_dir = MakeCrashImage(opts, *st, report);
  RecoveryTimer recovery(crash_dir, [&](storage::Repository* repo) {
    auto cvds = repo->TakeCvds();
    bool ok = cvds.size() == 1 && cvds[0]->num_versions() == ds.num_versions();
    for (int v = 0; ok && v < ds.num_versions(); v += 97) {
      auto table = cvds[0]->Materialize({v + 1}, "recovered");
      ok = table.ok() && MatchesTruth(table.ValueOrDie(), truth, v, attrs);
    }
    report->Check("recovered store matches ground truth", ok);
  });
  report->Set("peak_rss_mb", PeakRssMb());

  // The measured loop.
  Samples latency, rows_out;
  Samples by_store[kNumStores];
  uint64_t mismatches = 0;
  std::string first_error;
  const LoopResult loop = RunClosedLoop(
      1, opts.seconds, opts.trace, [&](int client, int64_t iter, int window) {
        const Op& op = schedule[iter % schedule.size()];
        const RequestId req{client, iter};
        Span op_span("op.checkout", req);
        Status status;
        double ms = 0.0;
        if (op.store < kNumModels) {
          {
            Span span("session.Session.Checkout", req);
            const Clock::time_point t = Clock::now();
            status = st->sessions[op.store]->Checkout({op.version + 1}, "co");
            ms = MillisSince(t);
          }
          if (status.ok()) {
            Span span("verify", req);
            if (!MatchesTruth(*st->sessions[op.store]->table("co"), truth,
                              op.version, attrs)) {
              ++mismatches;
              status = Status::Internal("checkout differs from ground truth");
            }
            Status discard = st->sessions[op.store]->DiscardStaging("co");
            if (status.ok()) status = discard;
          }
        } else {
          orpheus::Result<orpheus::minidb::Table> table =
              Status::Internal("not run");
          {
            Span span("core.PartitionedStore.Checkout", req);
            const Clock::time_point t = Clock::now();
            table = st->pstore->Checkout(op.version);
            ms = MillisSince(t);
          }
          status = table.status();
          if (status.ok()) {
            Span span("verify", req);
            if (!MatchesTruth(table.ValueOrDie(), truth, op.version, attrs)) {
              ++mismatches;
              status = Status::Internal("checkout differs from ground truth");
            }
          }
        }
        if (!status.ok()) {
          if (first_error.empty()) first_error = status.ToString();
          return false;
        }
        latency.Add(ms, window);
        rows_out.Add(static_cast<double>(truth.count[op.version]), window);
        by_store[op.store].Add(ms);
        return true;
      },
      [&] { recovery.Time(1, report); });
  recovery.Finish(report);
  std::filesystem::remove_all(crash_dir);
  const RegistryView& delta = loop.delta;
  const uint64_t ops = loop.total_ops();
  report->AddAttempted(ops);
  report->AddFailed(loop.failed);
  report->Check("every checkout matches ground truth", mismatches == 0,
                std::to_string(ops) + " checked, " +
                    std::to_string(mismatches) + " mismatches");
  report->Check("no checkout failed", loop.failed == 0,
                first_error.empty() ? "" : first_error);
  report->Note(loop.Summary());
  report->SampleCount("checkouts", latency.size());
  for (int s = 0; s < kNumStores; ++s) {
    report->Note("  " + StoreName(s) + ": n=" +
                 std::to_string(by_store[s].size()) + " p50_ms=" +
                 FormatNumber(by_store[s].Quantile(0.5)));
  }
  if (!opts.smoke && latency.size() < 1000) {
    report->Note("warning: under 1000 checkouts; the p99 has <10 samples "
                 "beyond it");
  }

  // End-to-end metrics.
  ReportMedian("setup_s", "setups", setup_s, report);
  const double p50 = loop.MedianOverWindows(
      [&](int w) { return latency.Window(w).Quantile(0.5); });
  report->Set("checkout_p50_ms", p50);
  report->Set("loop.checkout_rows_per_s", loop.MedianOverWindows([&](int w) {
    return rows_out.Window(w).Sum() / (latency.Window(w).Sum() / 1000.0);
  }));
  report->Set("loop.op_p50_ms", p50);
  report->Set("tail.checkout_p99_ms", latency.Quantile(0.99));
  report->Set("tail.op_p99_ms", latency.Quantile(0.99));
  report->Set("loop.ops_per_s", loop.MedianThroughput());
  report->Set("storage_bytes_per_user_byte",
              static_cast<double>(store_bytes) /
                  (kNumStores * static_cast<double>(distinct) * attrs * 8));

  // Per-layer metrics from the loop's registry deltas.
  const double pstore_out = delta.Counter("pstore.checkout.rows_out");
  report->Set("core.pstore.rows_scanned_per_row",
              pstore_out ? delta.Counter("pstore.checkout.rows_scanned") /
                               pstore_out
                         : 0.0);
  report->Set("core.pstore_checkout_ms.p50", by_store[kPstore].Quantile(0.5));
  report->Set("minidb.rows_copied_per_checkout",
              ops ? static_cast<double>(delta.Counter("minidb.rows_copied")) /
                        ops
                  : 0.0);
  const double rows = rows_out.Sum();
  report->Set("minidb.index_lookups_per_row",
              rows > 0 ? delta.Counter("minidb.index_lookups") / rows : 0.0);
  ReportPoolWait(delta, ops, report);
  SkipCommitMetrics(report);
  if (opts.trace) {
    report->Set("trace.overhead_share", loop.TracingCost());
    ProbeLayers(sizes, schedule, st.get(), truth, report);
  }
}

}  // namespace perfbench
