#include "perfbench/harness.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <thread>

#include "common/metrics.h"
#include "common/thread_pool.h"
#include "storage/repository.h"

namespace perfbench {

void Samples::Append(const Samples& other) {
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  windows_.insert(windows_.end(), other.windows_.begin(),
                  other.windows_.end());
}

Samples Samples::Window(int w) const {
  Samples out;
  for (size_t i = 0; i < values_.size(); ++i) {
    if (windows_[i] == w) out.Add(values_[i], w);
  }
  return out;
}

double Samples::Sum() const {
  double s = 0.0;
  for (double v : values_) s += v;
  return s;
}

double Samples::Mean() const {
  return values_.empty() ? 0.0 : Sum() / static_cast<double>(values_.size());
}

double Samples::Quantile(double q) const {
  if (values_.empty()) return 0.0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  size_t rank = static_cast<size_t>(std::ceil(q * sorted.size()));
  if (rank > 0) --rank;
  return sorted[std::min(rank, sorted.size() - 1)];
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

// ---------------------------------------------------------------------------
// Tracer

thread_local Tracer::ThreadLog* Tracer::local_ = nullptr;
thread_local Span* Span::current_ = nullptr;

Tracer& Tracer::Get() {
  // Never destroyed: a thread may still log while statics are torn down.
  static Tracer* tracer = new Tracer();
  return *tracer;
}

Tracer::ThreadLog* Tracer::Local() {
  if (local_ == nullptr) {
    std::lock_guard<std::mutex> lock(mu_);
    auto log = std::make_unique<ThreadLog>();
    log->tid = static_cast<uint32_t>(logs_.size() + 1);
    log->name = "thread-" + std::to_string(log->tid);
    local_ = log.get();
    logs_.push_back(std::move(log));
  }
  return local_;
}

void Tracer::NameThread(const std::string& name) {
  ThreadLog* log = Local();
  std::lock_guard<std::mutex> lock(mu_);
  log->name = name;
}

size_t Tracer::num_spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t n = 0;
  for (const auto& log : logs_) n += log->records.size();
  return n;
}

bool Tracer::WriteChromeJson(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  out << "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\","
         "\"args\":{\"name\":\"perfbench "
      << workload_ << "\"}}";
  for (const auto& log : logs_) {
    out << ",\n{\"ph\":\"M\",\"pid\":1,\"tid\":" << log->tid
        << ",\"name\":\"thread_name\",\"args\":{\"name\":\"" << log->name
        << "\"}}";
  }
  for (const auto& log : logs_) {
    for (const Record& r : log->records) {
      const int64_t ts = r.start_ns / 1000;
      const int64_t dur = std::max<int64_t>(0, r.end_ns / 1000 - ts);
      out << ",\n{\"ph\":\"X\",\"pid\":1,\"tid\":" << log->tid
          << ",\"name\":\"" << r.name << "\",\"ts\":" << ts
          << ",\"dur\":" << dur << ",\"args\":{\"id\":" << r.id
          << ",\"parent\":" << r.parent << ",\"req\":\"" << workload_ << "/"
          << r.req.client << "/" << r.req.iter << "\"}}";
    }
  }
  out << "\n]}\n";
  return out.good();
}

Span::Span(const char* name, RequestId req) {
  Tracer& tracer = Tracer::Get();
  if (!tracer.enabled()) return;
  log_ = tracer.Local();
  parent_ = current_;
  const uint64_t id = (static_cast<uint64_t>(log_->tid) << 40) |
                      log_->next_seq++;
  // current_ only ever points at a recorded span of this thread.
  const uint64_t parent_id =
      parent_ != nullptr ? log_->records[parent_->index_].id : 0;
  index_ = log_->records.size();
  log_->records.push_back(
      {name, tracer.NowNs(), -1, id, parent_id, req});
  current_ = this;
}

Span::~Span() {
  if (log_ == nullptr) return;
  log_->records[index_].end_ns = Tracer::Get().NowNs();
  current_ = parent_;
}

// ---------------------------------------------------------------------------
// Registry deltas

RegistryView RegistryView::Take() {
  RegistryView view;
  auto snap = orpheus::MetricsRegistry::Global().TakeSnapshot();
  for (const auto& [name, value] : snap.counters) view.counters[name] = value;
  for (const auto& [name, hist] : snap.histograms) {
    view.histogram_sums[name] = hist.sum;
  }
  for (const auto& span : snap.spans) {
    const size_t slash = span.path.rfind('/');
    const std::string leaf =
        slash == std::string::npos ? span.path : span.path.substr(slash + 1);
    SpanAgg& agg = view.spans[leaf];
    agg.count += span.count;
    agg.total_us += span.total_us;
    agg.self_us += span.self_us;
  }
  return view;
}

RegistryView RegistryView::Minus(const RegistryView& earlier) const {
  RegistryView d = *this;
  for (auto& [name, value] : d.counters) value -= earlier.Counter(name);
  for (auto& [name, sum] : d.histogram_sums) {
    sum -= earlier.HistogramSum(name);
  }
  for (auto& [leaf, agg] : d.spans) {
    const SpanAgg before = earlier.Spans(leaf);
    agg.count -= before.count;
    agg.total_us -= before.total_us;
    agg.self_us -= before.self_us;
  }
  return d;
}

uint64_t RegistryView::Counter(const std::string& name) const {
  auto it = counters.find(name);
  return it == counters.end() ? 0 : it->second;
}

void RegistryView::Add(const RegistryView& other) {
  for (const auto& [name, value] : other.counters) counters[name] += value;
  for (const auto& [name, sum] : other.histogram_sums) {
    histogram_sums[name] += sum;
  }
  for (const auto& [leaf, agg] : other.spans) {
    SpanAgg& mine = spans[leaf];
    mine.count += agg.count;
    mine.total_us += agg.total_us;
    mine.self_us += agg.self_us;
  }
}

uint64_t RegistryView::HistogramSum(const std::string& name) const {
  auto it = histogram_sums.find(name);
  return it == histogram_sums.end() ? 0 : it->second;
}

RegistryView::SpanAgg RegistryView::Spans(const std::string& leaf) const {
  auto it = spans.find(leaf);
  return it == spans.end() ? SpanAgg{} : it->second;
}

double RegistryView::MeanMs(const std::string& leaf, bool self) const {
  const SpanAgg agg = Spans(leaf);
  if (agg.count == 0) return 0.0;
  return (self ? agg.self_us : agg.total_us) / 1000.0 / agg.count;
}

// ---------------------------------------------------------------------------
// Closed loop

uint64_t LoopResult::total_ops() const {
  uint64_t n = 0;
  for (const Window& w : windows) n += w.ops;
  return n;
}

double LoopResult::Throughput(bool traced) const {
  uint64_t ops = 0;
  double seconds = 0.0;
  for (const Window& w : windows) {
    if (w.traced != traced) continue;
    ops += w.ops;
    seconds += w.seconds;
  }
  return seconds > 0 ? ops / seconds : 0.0;
}

double LoopResult::MedianThroughput() const {
  return MedianOverWindows(
      [&](int w) { return windows[w].ops / windows[w].seconds; });
}

double LoopResult::TracingCost() const {
  const double off = Throughput(/*traced=*/false);
  return off > 0 ? (off - Throughput(/*traced=*/true)) / off : 0.0;
}

double LoopResult::MedianOverWindows(
    const std::function<double(int)>& fn) const {
  std::vector<double> values;
  for (size_t w = 0; w < windows.size(); ++w) {
    if (!windows[w].traced) values.push_back(fn(static_cast<int>(w)));
  }
  return values.empty() ? 0.0 : Median(values);
}

std::string LoopResult::Summary() const {
  std::string out = "ops/s by window:";
  for (const Window& w : windows) {
    out += " " + FormatNumber(std::round(w.ops / w.seconds));
    if (w.traced) out += "*";
  }
  return out;
}

LoopResult RunClosedLoop(
    int clients, double seconds, bool alternate_trace,
    const std::function<bool(int client, int64_t iter, int window)>& op,
    const std::function<void()>& between) {
  Tracer& tracer = Tracer::Get();
  const int num_windows = alternate_trace ? 2 * kLoopWindows : kLoopWindows;
  std::vector<int64_t> next_iter(clients, 0);  // each client's own
  LoopResult result;
  result.windows.resize(num_windows);
  for (int w = 0; w < num_windows; ++w) {
    const bool traced = alternate_trace && w % 2 == 1;
    std::atomic<bool> stop{false};
    std::atomic<uint64_t> ops{0}, failed{0};
    const RegistryView before = RegistryView::Take();
    tracer.set_enabled(traced);
    const Clock::time_point start = Clock::now();
    std::vector<std::thread> workers;
    workers.reserve(clients);
    for (int c = 0; c < clients; ++c) {
      workers.emplace_back([&, c] {
        tracer.NameThread("client-" + std::to_string(c));
        while (!stop.load(std::memory_order_relaxed)) {
          if (!op(c, next_iter[c]++, w)) {
            failed.fetch_add(1, std::memory_order_relaxed);
          }
          ops.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }
    std::this_thread::sleep_for(
        std::chrono::duration<double>(seconds / num_windows));
    stop.store(true);
    // The window ends when its last operation has: every op it counts ran
    // inside it.
    for (auto& t : workers) t.join();
    result.windows[w] = {traced, ops.load(), MillisSince(start) / 1000.0};
    tracer.set_enabled(false);
    result.failed += failed.load();
    result.delta.Add(RegistryView::Take().Minus(before));
    if (between) between();
  }
  return result;
}

// ---------------------------------------------------------------------------
// Misc

void RecoveryTimer::Time(int n, Report* report) {
  const RegistryView before = RegistryView::Take();
  for (int i = 0; i < n; ++i) {
    Span span("storage.Repository.Open", RequestId{});
    const Clock::time_point t = Clock::now();
    auto repo = orpheus::storage::Repository::Open(dir_);
    seconds_.push_back(MillisSince(t) / 1000.0);
    if (!repo.ok()) {
      report->Check("crash image reopens", false, repo.status().ToString());
      return;
    }
    if (seconds_.size() == 1) check_(repo.ValueOrDie().get());
  }
  replayed_ += RegistryView::Take().Minus(before).Counter(
      "storage.wal.replayed_records");
}

void RecoveryTimer::Finish(Report* report) const {
  if (seconds_.empty()) return;
  std::vector<double> sorted = seconds_;
  std::sort(sorted.begin(), sorted.end());
  const size_t trim = sorted.size() / 10;
  double sum = 0.0;
  for (size_t i = trim; i < sorted.size() - trim; ++i) sum += sorted[i];
  const double recover_s = sum / (sorted.size() - 2 * trim);
  const double replayed = static_cast<double>(replayed_) / seconds_.size();
  report->Set("recover_s", recover_s);
  report->SampleCount("recovery opens", sorted.size());
  report->Note("  recovery open s: min=" + FormatNumber(sorted.front()) +
               " trimmed mean=" + FormatNumber(recover_s) +
               " max=" + FormatNumber(sorted.back()));
  report->Set("storage.replayed_records", replayed);
  report->Set("storage.replay_ms_per_record",
              replayed > 0 ? recover_s * 1000.0 / replayed : 0.0);
}

void ReportPoolWait(const RegistryView& delta, uint64_t ops, Report* report) {
  report->Set("common.pool.wait_us_per_op",
              ops ? static_cast<double>(delta.HistogramSum("pool.wait_us")) /
                        ops
                  : 0.0);
  report->Note("pool degree=" +
               std::to_string(orpheus::ThreadPool::Global().degree()) +
               " tasks queued=" +
               std::to_string(delta.Counter("pool.tasks_queued")) +
               " inline=" + std::to_string(delta.Counter("pool.tasks_inline")));
}

void ReportMedian(const std::string& metric, const std::string& what,
                  const std::vector<double>& seconds, Report* report) {
  const double median = Median(seconds);
  report->Set(metric, median);
  report->SampleCount(what, seconds.size());
  report->Note("  " + what + " s: min=" +
               FormatNumber(*std::min_element(seconds.begin(), seconds.end())) +
               " median=" + FormatNumber(median) + " max=" +
               FormatNumber(*std::max_element(seconds.begin(), seconds.end())));
}

double PeakRssMb() {
  struct rusage usage;
  if (::getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return usage.ru_maxrss / 1024.0;  // ru_maxrss is in KiB on Linux
}

double CurrentRssMb() {
  std::ifstream statm("/proc/self/statm");
  uint64_t size_pages = 0, resident_pages = 0;
  if (!(statm >> size_pages >> resident_pages)) return 0.0;
  return resident_pages * static_cast<double>(::sysconf(_SC_PAGESIZE)) /
         (1024.0 * 1024.0);
}

uint64_t DirectoryBytes(const std::string& dir) {
  namespace fs = std::filesystem;
  uint64_t total = 0;
  std::error_code ec;
  for (fs::recursive_directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    if (it->is_regular_file(ec)) total += it->file_size(ec);
  }
  return total;
}

std::string Digest::Hex() const {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h_));
  return buf;
}

namespace {
uint64_t Mix(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}
}  // namespace

uint64_t RowHash(int64_t rid, const int64_t* payload, size_t n) {
  uint64_t h = Mix(static_cast<uint64_t>(rid));
  for (size_t i = 0; i < n; ++i) h = Mix(h ^ static_cast<uint64_t>(payload[i]));
  return h;
}

std::string FormatNumber(double v) {
  char buf[64];
  auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

// ---------------------------------------------------------------------------
// Report

// Only figures whose spread (IQR/median over ten seeds) stayed within 0.25
// in two batches of runs on a shared 4-vCPU VM are bounded end-to-end
// metrics. The loop throughputs and the commit median are not: when the
// machine slowed for a minute or more, they spread by 0.30-0.45 within a
// batch; tail latencies spread by 0.3-1.0. Those are reported, unbounded,
// as the loop.* and tail.* rows of the per-layer table, and untraced runs
// print them too.
const std::vector<MetricSpec> kEndToEndMetrics = {
    {"setup_s", "s", nullptr},
    {"checkout_p50_ms", "ms", nullptr},
    {"recover_s", "s", nullptr},
    {"storage_bytes_per_user_byte", "ratio", nullptr},
    {"peak_rss_mb", "MiB", nullptr},
};

const std::vector<MetricSpec> kPerLayerMetrics = {
    {"loop.op_p50_ms", "ms",
     "nothing bounded (median of the workload's op: the checkout on "
     "read_checkout, the commit call on the commit workloads)"},
    {"loop.ops_per_s", "1/s",
     "nothing bounded (closed-loop throughput of the workload's op)"},
    {"loop.checkout_rows_per_s", "1/s",
     "nothing bounded (rows materialized / time in checkout; on the commit "
     "workloads, of the read phase)"},
    {"tail.checkout_p99_ms", "ms",
     "nothing bounded (checkout tail over the run; on the commit workloads, "
     "of the read phase)"},
    {"mixed.checkout_p50_ms", "ms",
     "nothing bounded (checkouts inside the commit loop, which may wait "
     "behind a commit's exclusive section) @ commit_local, commit_remote"},
    {"tail.op_p99_ms", "ms",
     "nothing bounded (end-to-end tail of the workload's op)"},
    {"net.commit_overhead_ms", "ms",
     "loop.op_p50_ms @ commit_remote"},
    {"net.checkout_overhead_ms", "ms",
     "checkout_p50_ms @ commit_remote"},
    {"net.refresh_ms.p50", "ms",
     "loop.ops_per_s @ commit_remote"},
    {"net.bytes_per_commit", "bytes",
     "loop.op_p50_ms @ commit_remote"},
    {"net.retries_per_call", "ratio",
     "failed ops, tail.op_p99_ms @ commit_remote"},
    {"net.reconnects", "count",
     "failed ops, tail.op_p99_ms @ commit_remote"},
    {"session.refresh_ms.p50", "ms",
     "loop.ops_per_s @ commit_local"},
    {"session.commit.reconciled_share", "ratio",
     "loop.op_p50_ms, loop.ops_per_s @ commit_local, commit_remote"},
    {"session.reconcile_ms.mean", "ms",
     "loop.op_p50_ms, loop.ops_per_s @ commit_local, commit_remote"},
    {"session.commit.self_ms.mean", "ms",
     "tail.op_p99_ms @ commit_local"},
    {"session.checkout_overhead_ms", "ms",
     "checkout_p50_ms @ read_checkout"},
    {"core.materialize_ms.combined-table.p50", "ms",
     "loop.checkout_rows_per_s, tail.checkout_p99_ms @ read_checkout"},
    {"core.materialize_ms.split-by-vlist.p50", "ms",
     "loop.checkout_rows_per_s, tail.checkout_p99_ms @ read_checkout"},
    {"core.materialize_ms.split-by-rlist.p50", "ms",
     "loop.checkout_rows_per_s, tail.checkout_p99_ms @ read_checkout"},
    {"core.materialize_ms.delta-based.p50", "ms",
     "loop.checkout_rows_per_s, tail.checkout_p99_ms @ read_checkout"},
    {"core.pstore_checkout_ms.p50", "ms",
     "loop.checkout_rows_per_s, tail.checkout_p99_ms @ read_checkout"},
    {"core.pstore.rows_scanned_per_row", "ratio",
     "loop.checkout_rows_per_s @ read_checkout"},
    {"core.cvd_commit_ms.mean", "ms",
     "loop.op_p50_ms @ commit_local, commit_remote"},
    {"core.commit.rows_scanned_per_changed", "ratio",
     "loop.op_p50_ms @ commit_local, commit_remote"},
    {"core.checkout_cost_r2", "ratio",
     "nothing (diagnostic fit of the paper's cost model)"},
    {"core.build_s.combined-table", "s",
     "setup_s @ read_checkout"},
    {"core.build_s.split-by-vlist", "s",
     "setup_s @ read_checkout"},
    {"core.build_s.split-by-rlist", "s",
     "setup_s @ read_checkout"},
    {"core.build_s.delta-based", "s",
     "setup_s @ read_checkout"},
    {"core.build_s.pstore", "s",
     "setup_s @ read_checkout"},
    {"core.lyresplit_s", "s",
     "setup_s @ read_checkout"},
    {"benchdata.generate_s", "s",
     "setup_s @ read_checkout"},
    {"core.storage_bytes.combined-table", "bytes",
     "storage_bytes_per_user_byte @ read_checkout"},
    {"core.storage_bytes.split-by-vlist", "bytes",
     "storage_bytes_per_user_byte @ read_checkout"},
    {"core.storage_bytes.split-by-rlist", "bytes",
     "storage_bytes_per_user_byte @ read_checkout"},
    {"core.storage_bytes.delta-based", "bytes",
     "storage_bytes_per_user_byte @ read_checkout"},
    {"core.storage_bytes.pstore", "bytes",
     "storage_bytes_per_user_byte @ read_checkout"},
    {"minidb.rows_copied_per_checkout", "count",
     "checkout_p50_ms @ all three"},
    {"minidb.index_lookups_per_row", "ratio",
     "loop.checkout_rows_per_s @ read_checkout"},
    {"core.rss_kb_per_commit", "KiB",
     "peak memory of a long-running server (the loop's growth is not bounded "
     "here: peak_rss_mb is taken before the loop)"},
    {"minidb.edit_ms.p50", "ms",
     "loop.ops_per_s @ commit_local, commit_remote"},
    {"common.ridset.intersect_rows_ms.p50", "ms",
     "loop.checkout_rows_per_s @ read_checkout"},
    {"common.ridset.from_sorted_ms.p50", "ms",
     "setup_s @ read_checkout"},
    {"common.pool.wait_us_per_op", "us",
     "tail.checkout_p99_ms @ read_checkout; tail.op_p99_ms @ commit_local"},
    {"storage.wal_syncs_per_commit", "ratio",
     "loop.op_p50_ms, storage_bytes_per_user_byte @ commit_local, "
     "commit_remote"},
    {"storage.wal_bytes_per_commit", "bytes",
     "loop.op_p50_ms, storage_bytes_per_user_byte @ commit_local, "
     "commit_remote"},
    {"storage.wal_append_ms.mean", "ms",
     "loop.op_p50_ms @ commit_local, commit_remote"},
    {"storage.replayed_records", "count",
     "recover_s @ all three"},
    {"storage.replay_ms_per_record", "ms",
     "recover_s @ all three"},
    {"trace.overhead_share", "ratio",
     "nothing (cost of the benchmark's own spans)"},
};

void Report::Set(const std::string& name, double value) {
  if (!std::isfinite(value)) {
    Check("metric " + name + " is finite", false, "got " + FormatNumber(value));
    value = 0.0;
  }
  values_[name] = value;
}

void Report::Skip(const std::string& name, const std::string& why) {
  skipped_[name] = why;
}

void Report::SampleCount(const std::string& what, size_t n) {
  std::cout << "samples " << what << " = " << n << "\n";
}

void Report::Check(const std::string& what, bool ok,
                   const std::string& detail) {
  if (!ok) correct_ = false;
  std::cout << "check " << (ok ? "PASS " : "FAIL ") << what;
  if (!detail.empty()) std::cout << " (" << detail << ")";
  std::cout << "\n";
}

void Report::Note(const std::string& line) { std::cout << line << "\n"; }

void Report::Finish(bool trace) {
  const std::vector<MetricSpec>& specs =
      trace ? kPerLayerMetrics : kEndToEndMetrics;
  std::string json;
  for (const MetricSpec& spec : specs) {
    double value = 0.0;
    auto it = values_.find(spec.name);
    if (it != values_.end()) {
      value = it->second;
      std::cout << "metric " << spec.name << " = " << FormatNumber(value)
                << " " << spec.unit;
      if (spec.moves != nullptr) std::cout << "  (moves " << spec.moves << ")";
      std::cout << "\n";
    } else if (auto skip = skipped_.find(spec.name); skip != skipped_.end()) {
      std::cout << "metric " << spec.name << " = 0 " << spec.unit
                << "  (not measured: " << skip->second << ")\n";
    } else {
      Check("metric " + std::string(spec.name) + " measured", false);
    }
    json += json.empty() ? "" : ", ";
    json += "\"" + std::string(spec.name) + "\": {\"value\": " +
            FormatNumber(value) + ", \"unit\": \"" + spec.unit + "\"}";
  }
  if (!trace) {
    for (const MetricSpec& spec : kPerLayerMetrics) {
      const std::string name = spec.name;
      auto it = values_.find(name);
      if (it == values_.end() ||
          (name.rfind("loop.", 0) != 0 && name.rfind("tail.", 0) != 0)) {
        continue;
      }
      std::cout << "unbounded " << name << " = " << FormatNumber(it->second)
                << " " << spec.unit << "\n";
    }
  }
  std::cout << "verdict " << (correct_ ? "correct" : "INCORRECT")
            << " attempted=" << attempted_ << " failed=" << failed_ << "\n";
  std::cout << "{\"correct\": " << (correct_ ? "true" : "false")
            << ", \"attempted\": " << attempted_
            << ", \"failed\": " << failed_ << ", \"metrics\": {" << json
            << "}}" << std::endl;
}

}  // namespace perfbench
