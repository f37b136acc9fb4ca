// Shared pieces of the benchmark program: options, latency samples, the
// in-memory span tracer, registry deltas, the closed-loop runner and the
// result report. Nothing here is part of the program under test; the
// workloads call into src/ and time those calls from the outside.

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace orpheus::storage {
class Repository;
}  // namespace orpheus::storage

namespace perfbench {

class Report;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Short run on small inputs, for the benchmark's own test.
  bool smoke = false;
  /// Directory (relative to the working directory) for repositories,
  /// sockets and trace files.
  std::string out_dir = ".bench_build/perfbench/out";
};

using Clock = std::chrono::steady_clock;

inline double MillisSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// Latency, duration or count samples, each tagged with the time window of
/// the closed loop it was taken in.
class Samples {
 public:
  void Add(double v, int window = 0) {
    values_.push_back(v);
    windows_.push_back(window);
  }
  void Append(const Samples& other);
  size_t size() const { return values_.size(); }
  double Sum() const;
  double Mean() const;
  /// Nearest-rank quantile, q in [0, 1]; 0 when empty.
  double Quantile(double q) const;
  /// The samples taken in window `w`.
  Samples Window(int w) const;

 private:
  std::vector<double> values_;
  std::vector<int> windows_;
};

/// Median of a non-empty list.
double Median(std::vector<double> values);

/// Identifies the request a span belongs to: (workload, client, iteration).
struct RequestId {
  int client = 0;
  int64_t iter = -1;  // -1: set-up or teardown, not a loop iteration
};

/// In-memory span recorder. Disabled by default; when enabled every Span
/// records name, start, end, parent span and request id into a per-thread
/// log, written at exit as Chrome trace-event JSON.
class Tracer {
 public:
  static Tracer& Get();

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  void set_workload(std::string w) { workload_ = std::move(w); }

  /// Name the calling thread in the trace output.
  void NameThread(const std::string& name);

  size_t num_spans() const;
  /// Write every recorded span; false on I/O failure.
  bool WriteChromeJson(const std::string& path) const;

 private:
  friend class Span;
  struct Record {
    const char* name;
    int64_t start_ns;
    int64_t end_ns;
    uint64_t id;
    uint64_t parent;  // 0 = none
    RequestId req;
  };
  struct ThreadLog {
    uint32_t tid = 0;
    std::string name;
    uint64_t next_seq = 1;
    std::vector<Record> records;
  };
  /// The calling thread's log, created on first use.
  ThreadLog* Local();
  int64_t NowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - epoch_)
        .count();
  }

  std::atomic<bool> enabled_{false};
  std::string workload_;
  const Clock::time_point epoch_ = Clock::now();
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<ThreadLog>> logs_;  // guarded by mu_
  static thread_local ThreadLog* local_;
};

/// RAII span around one call into a layer. A no-op (one relaxed load) while
/// the tracer is disabled.
class Span {
 public:
  Span(const char* name, RequestId req);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  static thread_local Span* current_;
  Tracer::ThreadLog* log_ = nullptr;
  size_t index_ = 0;
  Span* parent_ = nullptr;
};

/// Snapshot of the process-wide MetricsRegistry, reduced to what the
/// per-layer metrics need: counters by name, histogram sums by name and
/// span aggregates by the last component of their path (so
/// "session.commit/cvd.commit" and a top-level "cvd.commit" add up under
/// "cvd.commit").
struct RegistryView {
  struct SpanAgg {
    uint64_t count = 0;
    uint64_t total_us = 0;
    uint64_t self_us = 0;
  };
  std::map<std::string, uint64_t> counters;
  std::map<std::string, uint64_t> histogram_sums;
  std::map<std::string, SpanAgg> spans;

  static RegistryView Take();
  /// this - earlier, field by field.
  RegistryView Minus(const RegistryView& earlier) const;
  /// this += other, field by field.
  void Add(const RegistryView& other);
  uint64_t Counter(const std::string& name) const;
  /// Sum of the values recorded into histogram `name`.
  uint64_t HistogramSum(const std::string& name) const;
  SpanAgg Spans(const std::string& leaf) const;
  /// Mean span duration (total or self) in ms; 0 with no calls.
  double MeanMs(const std::string& leaf, bool self = false) const;
};

/// Untraced time windows per closed loop. Nine: a burst of outside load
/// must cover five of them to move a window median, and at 20 s per run
/// each window still holds about a hundred commits of the commit loops.
inline constexpr int kLoopWindows = 9;

struct LoopResult {
  struct Window {
    bool traced = false;
    uint64_t ops = 0;
    double seconds = 0.0;
  };
  std::vector<Window> windows;
  uint64_t failed = 0;
  /// Registry delta over the windows only, not the work between them.
  RegistryView delta;

  uint64_t total_ops() const;
  /// Ops per second over all windows of one kind.
  double Throughput(bool traced) const;
  /// Median ops per second of the untraced windows.
  double MedianThroughput() const;
  /// Share of untraced throughput lost with tracing on.
  double TracingCost() const;
  /// Median over the untraced windows of fn(window index): end-to-end
  /// figures are window medians, so a burst of outside load that hits one
  /// window does not move them.
  double MedianOverWindows(const std::function<double(int)>& fn) const;
  /// "ops/s by window: ..." for the report, traced windows marked with *.
  std::string Summary() const;
};
/// Closed-loop runner: `clients` threads each call `op(client, iter,
/// window)` back to back until the time budget runs out. The budget is cut
/// into equal windows: kLoopWindows untraced ones, or with
/// `alternate_trace` twice as many alternating untraced/traced, so traced
/// and untraced throughput are measured under the same drift. `op` returns
/// false on a failed operation. After each window the clients stop and
/// `between` (if set) runs: work timed there is spread over the loop's
/// whole duration instead of one moment of it.
LoopResult RunClosedLoop(
    int clients, double seconds, bool alternate_trace,
    const std::function<bool(int client, int64_t iter, int window)>& op,
    const std::function<void()>& between = nullptr);

/// common.pool.wait_us_per_op: time spent in TaskGroup::Wait per op of
/// the loop whose registry delta is `delta`, plus a note of how many tasks
/// the global pool queued and ran inline (a workload whose calls never fan
/// out reports 0).
void ReportPoolWait(const RegistryView& delta, uint64_t ops, Report* report);

/// Peak and current resident set size of this process, in MiB.
double PeakRssMb();
double CurrentRssMb();

/// Bytes of all regular files under `dir`.
uint64_t DirectoryBytes(const std::string& dir);

/// FNV-1a over 64-bit words, for the input digests.
class Digest {
 public:
  void Add(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xff;
      h_ *= 1099511628211ULL;
    }
  }
  std::string Hex() const;

 private:
  uint64_t h_ = 1469598103934665603ULL;
};

/// Order-independent hash of one row: the rid and its int64 payload.
uint64_t RowHash(int64_t rid, const int64_t* payload, size_t n);

/// One reported metric: its name, unit and, for a per-layer metric, the
/// end-to-end metric and workload it should move (it is predicted flat on
/// the others). The two tables below are the benchmark's metric contract;
/// BENCHMARK.json lists the same names and units.
struct MetricSpec {
  const char* name;
  const char* unit;
  const char* moves;  // null for end-to-end metrics
};
extern const std::vector<MetricSpec> kEndToEndMetrics;
extern const std::vector<MetricSpec> kPerLayerMetrics;

/// Collects metric values and check verdicts. Human-readable lines go to
/// stdout as they are produced; Finish prints the one JSON result line.
class Report {
 public:
  /// Record the value of a metric from either table.
  void Set(const std::string& name, double value);
  /// A per-layer metric this workload does not exercise: reported as 0,
  /// with the reason printed.
  void Skip(const std::string& name, const std::string& why);
  /// A counted sample set behind a metric, printed for the reader.
  void SampleCount(const std::string& what, size_t n);
  /// A correctness gate; any failure makes the run incorrect.
  void Check(const std::string& what, bool ok, const std::string& detail = "");
  void Note(const std::string& line);

  void AddAttempted(uint64_t n) { attempted_ += n; }
  void AddFailed(uint64_t n) { failed_ += n; }

  /// Print every metric of the selected table (per-layer when `trace`),
  /// then, untraced, the unbounded loop.* and tail.* rows, then the result
  /// line. A metric that was neither set nor skipped fails the run.
  void Finish(bool trace);

 private:
  std::map<std::string, double> values_;
  std::map<std::string, std::string> skipped_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  bool correct_ = true;
};

/// Crash recovery: times Repository::Open on a crash image (a repository
/// dropped without Close). Workloads time a few opens between the windows
/// of their loops. recover_s is the mean of all opens without the fastest
/// and slowest tenth: a shared machine alternates between a fast and a
/// slow state for seconds at a time, which makes a median of such samples
/// jump between two values from run to run, while the mean follows the
/// share of time spent in each.
class RecoveryTimer {
 public:
  /// `check` audits the state recovered by the first open.
  RecoveryTimer(std::string dir,
                std::function<void(orpheus::storage::Repository*)> check)
      : dir_(std::move(dir)), check_(std::move(check)) {}

  /// Time `n` more opens; each is dropped without Close again.
  void Time(int n, Report* report);
  /// Report recover_s and the replay's per-layer metrics.
  void Finish(Report* report) const;

 private:
  std::string dir_;
  std::function<void(orpheus::storage::Repository*)> check_;
  std::vector<double> seconds_;
  uint64_t replayed_ = 0;  // WAL records replayed over all opens
};

/// Report a metric that is the median of repeated timings (set-ups), with
/// the sample count and the min/median/max spread.
void ReportMedian(const std::string& metric, const std::string& what,
                  const std::vector<double>& seconds, Report* report);

/// Format a double with the shortest round-trip representation.
std::string FormatNumber(double v);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
