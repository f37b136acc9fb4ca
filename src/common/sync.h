#ifndef ORPHEUS_COMMON_SYNC_H_
#define ORPHEUS_COMMON_SYNC_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <shared_mutex>

/// Annotated synchronization layer (DESIGN.md §12).
///
/// Every mutex, reader-writer lock, and condition variable in src/ goes
/// through the wrappers below instead of the raw std:: primitives (enforced
/// by the tools/lint.py `raw-sync` rule). The wrappers buy two things:
///
///   1. **Compile-time race detection.** Each wrapper carries Clang
///      thread-safety capability attributes, so a field annotated
///      ORPHEUS_GUARDED_BY(mu_) that is touched without holding mu_, or a
///      REQUIRES method called without its lock, is a *compile error* under
///      `clang++ -Wthread-safety -Werror=thread-safety` (the CI
///      thread-safety job). Under GCC the attribute macros expand to
///      nothing and the wrappers cost exactly one forwarded call.
///
///   2. **Runtime lock-order deadlock detection.** Every Mutex optionally
///      carries a name and a rank from the lock_rank table below. With the
///      detector enabled (ORPHEUS_DEADLOCK_DEBUG=1 in the environment, or
///      building with -DORPHEUS_DEADLOCK_DEBUG), each thread tracks its
///      held-lock stack; acquiring a ranked mutex while holding one of
///      equal or higher rank, re-acquiring a held mutex, or closing a cycle
///      in the global lock-order graph (the classic ABBA pattern, caught on
///      the *potential*, not the actual deadlock) aborts the process with
///      both acquisition stacks. Disabled — the default — every lock pays
///      one relaxed atomic load and a predicted-false branch; no state is
///      recorded.
///
/// Conventions:
///   - Name every long-lived mutex ("subsystem.what") and rank it in the
///     lock_rank table. Short-lived local mutexes may stay anonymous and
///     unranked (they still participate in ABBA cycle detection).
///   - Annotate every guarded field with ORPHEUS_GUARDED_BY(mu_) and every
///     method that assumes the lock with ORPHEUS_REQUIRES(mu_).
///   - Prefer MutexLock/ReaderMutexLock RAII over manual Lock/Unlock.
///   - ORPHEUS_NO_THREAD_SAFETY_ANALYSIS is reserved for the internals of
///     this layer; it must not appear anywhere else in src/.

// ---------------------------------------------------------------------------
// Clang thread-safety attribute macros (no-ops under GCC/MSVC).
// ---------------------------------------------------------------------------

#if defined(__clang__) && !defined(SWIG)
#define ORPHEUS_TS_ATTRIBUTE_(x) __attribute__((x))
#else
#define ORPHEUS_TS_ATTRIBUTE_(x)
#endif

/// On a class: instances are lockable capabilities ("mutex").
#define ORPHEUS_CAPABILITY(x) ORPHEUS_TS_ATTRIBUTE_(capability(x))

/// On a class: RAII object that acquires in its ctor, releases in its dtor.
#define ORPHEUS_SCOPED_CAPABILITY ORPHEUS_TS_ATTRIBUTE_(scoped_lockable)

/// On a field: reads and writes require holding the named mutex.
#define ORPHEUS_GUARDED_BY(x) ORPHEUS_TS_ATTRIBUTE_(guarded_by(x))

/// On a pointer field: the *pointee* is guarded by the named mutex.
#define ORPHEUS_PT_GUARDED_BY(x) ORPHEUS_TS_ATTRIBUTE_(pt_guarded_by(x))

/// On a mutex member: documents static acquisition order.
#define ORPHEUS_ACQUIRED_BEFORE(...) \
  ORPHEUS_TS_ATTRIBUTE_(acquired_before(__VA_ARGS__))
#define ORPHEUS_ACQUIRED_AFTER(...) \
  ORPHEUS_TS_ATTRIBUTE_(acquired_after(__VA_ARGS__))

/// On a function: the caller must hold the named mutex(es).
#define ORPHEUS_REQUIRES(...) \
  ORPHEUS_TS_ATTRIBUTE_(requires_capability(__VA_ARGS__))
#define ORPHEUS_REQUIRES_SHARED(...) \
  ORPHEUS_TS_ATTRIBUTE_(requires_shared_capability(__VA_ARGS__))

/// On a function: acquires / releases the named mutex(es).
#define ORPHEUS_ACQUIRE(...) \
  ORPHEUS_TS_ATTRIBUTE_(acquire_capability(__VA_ARGS__))
#define ORPHEUS_ACQUIRE_SHARED(...) \
  ORPHEUS_TS_ATTRIBUTE_(acquire_shared_capability(__VA_ARGS__))
#define ORPHEUS_RELEASE(...) \
  ORPHEUS_TS_ATTRIBUTE_(release_capability(__VA_ARGS__))
#define ORPHEUS_RELEASE_SHARED(...) \
  ORPHEUS_TS_ATTRIBUTE_(release_shared_capability(__VA_ARGS__))
#define ORPHEUS_TRY_ACQUIRE(...) \
  ORPHEUS_TS_ATTRIBUTE_(try_acquire_capability(__VA_ARGS__))
#define ORPHEUS_TRY_ACQUIRE_SHARED(...) \
  ORPHEUS_TS_ATTRIBUTE_(try_acquire_shared_capability(__VA_ARGS__))

/// On a function: the caller must NOT hold the named mutex(es).
#define ORPHEUS_EXCLUDES(...) ORPHEUS_TS_ATTRIBUTE_(locks_excluded(__VA_ARGS__))

/// On a function: asserts (at runtime, for the analysis) that the lock is
/// held without acquiring it.
#define ORPHEUS_ASSERT_CAPABILITY(x) ORPHEUS_TS_ATTRIBUTE_(assert_capability(x))

/// On a function returning a mutex reference: names the returned capability.
#define ORPHEUS_RETURN_CAPABILITY(x) ORPHEUS_TS_ATTRIBUTE_(lock_returned(x))

/// Escape hatch. Only sanctioned inside common/sync.{h,cc}.
#define ORPHEUS_NO_THREAD_SAFETY_ANALYSIS \
  ORPHEUS_TS_ATTRIBUTE_(no_thread_safety_analysis)

namespace orpheus {

// ---------------------------------------------------------------------------
// Lock ranks: the global acquisition order (DESIGN.md §12 has the table).
//
// A thread may only acquire a ranked mutex whose rank is STRICTLY GREATER
// than every ranked mutex it already holds; the deadlock detector aborts on
// violations. Ranks are spaced by 10 so a new subsystem slots in without
// renumbering. Equal-rank mutexes (the metrics shards) must never be held
// together. Rank 0 (kUnranked) opts out of rank checks but still
// participates in cycle detection.
// ---------------------------------------------------------------------------

namespace lock_rank {
inline constexpr int kUnranked = 0;
inline constexpr int kNetServer = 1;         // net/server.cc (session registry)
inline constexpr int kSessionCommit = 2;     // session/session.cc (committer)
inline constexpr int kSessionData = 5;       // session/session.cc (CVD state)
inline constexpr int kRepository = 10;       // storage/repository.cc
inline constexpr int kThreadPool = 20;       // common/thread_pool.cc (queue)
inline constexpr int kTaskGroup = 30;        // common/thread_pool.cc (groups)
inline constexpr int kTraceRegistry = 50;    // common/trace.cc
inline constexpr int kFailpointRegistry = 60;  // common/failpoint.cc
inline constexpr int kEnvWarnOnce = 70;      // common/env.cc
inline constexpr int kLogger = 80;           // common/log.cc
inline constexpr int kMetricsShard = 90;     // common/metrics.h (16 shards)
}  // namespace lock_rank

namespace sync_internal {

/// Master switch for the lock-order detector. Latched from the
/// ORPHEUS_DEADLOCK_DEBUG environment variable (default: the
/// -DORPHEUS_DEADLOCK_DEBUG compile flag, else off) during static
/// initialization; SetDeadlockDebug flips it at quiescent points.
extern std::atomic<bool> g_deadlock_active;

inline bool DeadlockDebugActive() {
  return g_deadlock_active.load(std::memory_order_relaxed);
}

/// Detector hooks, out-of-line so the disabled fast path stays one load +
/// branch. OnAcquire runs *before* blocking on the lock (so a detected
/// cycle aborts instead of deadlocking); OnAcquired records a lock obtained
/// without ordering checks (TryLock success, CondVar re-acquire).
void OnAcquire(const void* mu, const char* name, int rank);
void OnAcquired(const void* mu, const char* name, int rank);
void OnRelease(const void* mu);
/// Drops every lock-order-graph edge touching `mu` (called from wrapper
/// destructors so a recycled stack address cannot alias a dead mutex).
void OnDestroy(const void* mu);

/// Number of locks the calling thread currently holds according to the
/// detector (always 0 while the detector is off).
size_t HeldLockCountForTest();

}  // namespace sync_internal

/// True while the runtime lock-order detector is recording.
bool DeadlockDebugEnabled();

/// Enable/disable the detector. Call only at quiescent points (no locks
/// held anywhere): disabling clears the calling thread's held stack and the
/// global lock-order graph.
void SetDeadlockDebug(bool enabled);

// ---------------------------------------------------------------------------
// Mutex
// ---------------------------------------------------------------------------

/// Annotated std::mutex. Constexpr-constructible, so namespace-scope
/// instances are immune to static-initialization-order problems.
class ORPHEUS_CAPABILITY("mutex") Mutex {
 public:
  constexpr Mutex() noexcept = default;
  /// Named + ranked: participates in the detector's rank checks and shows
  /// up by name in abort reports. `name` must be a string literal (or
  /// otherwise outlive the mutex).
  constexpr explicit Mutex(const char* name,
                           int rank = lock_rank::kUnranked) noexcept
      : name_(name), rank_(rank) {}

  ~Mutex() {
    if (sync_internal::DeadlockDebugActive()) sync_internal::OnDestroy(this);
  }

  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() ORPHEUS_ACQUIRE() {
    if (sync_internal::DeadlockDebugActive()) {
      sync_internal::OnAcquire(this, name_, rank_);
    }
    mu_.lock();
  }

  void Unlock() ORPHEUS_RELEASE() {
    mu_.unlock();
    if (sync_internal::DeadlockDebugActive()) sync_internal::OnRelease(this);
  }

  /// Never blocks, so the detector records a success without ordering
  /// checks (a try-lock cannot close a deadlock cycle by itself).
  bool TryLock() ORPHEUS_TRY_ACQUIRE(true) {
    if (!mu_.try_lock()) return false;
    if (sync_internal::DeadlockDebugActive()) {
      sync_internal::OnAcquired(this, name_, rank_);
    }
    return true;
  }

  const char* name() const { return name_; }
  int rank() const { return rank_; }

 private:
  friend class CondVar;
  std::mutex mu_;
  const char* name_ = "mutex";
  int rank_ = lock_rank::kUnranked;
};

// ---------------------------------------------------------------------------
// SharedMutex
// ---------------------------------------------------------------------------

/// Annotated std::shared_mutex. Reader acquisitions participate in the
/// deadlock detector exactly like exclusive ones (conservative: a
/// reader/reader inversion is flagged even though it only deadlocks once a
/// writer joins the party).
class ORPHEUS_CAPABILITY("shared_mutex") SharedMutex {
 public:
  SharedMutex() noexcept = default;
  explicit SharedMutex(const char* name,
                       int rank = lock_rank::kUnranked) noexcept
      : name_(name), rank_(rank) {}

  ~SharedMutex() {
    if (sync_internal::DeadlockDebugActive()) sync_internal::OnDestroy(this);
  }

  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void Lock() ORPHEUS_ACQUIRE() {
    if (sync_internal::DeadlockDebugActive()) {
      sync_internal::OnAcquire(this, name_, rank_);
    }
    mu_.lock();
  }

  void Unlock() ORPHEUS_RELEASE() {
    mu_.unlock();
    if (sync_internal::DeadlockDebugActive()) sync_internal::OnRelease(this);
  }

  bool TryLock() ORPHEUS_TRY_ACQUIRE(true) {
    if (!mu_.try_lock()) return false;
    if (sync_internal::DeadlockDebugActive()) {
      sync_internal::OnAcquired(this, name_, rank_);
    }
    return true;
  }

  void ReaderLock() ORPHEUS_ACQUIRE_SHARED() {
    if (sync_internal::DeadlockDebugActive()) {
      sync_internal::OnAcquire(this, name_, rank_);
    }
    mu_.lock_shared();
  }

  void ReaderUnlock() ORPHEUS_RELEASE_SHARED() {
    mu_.unlock_shared();
    if (sync_internal::DeadlockDebugActive()) sync_internal::OnRelease(this);
  }

  bool ReaderTryLock() ORPHEUS_TRY_ACQUIRE_SHARED(true) {
    if (!mu_.try_lock_shared()) return false;
    if (sync_internal::DeadlockDebugActive()) {
      sync_internal::OnAcquired(this, name_, rank_);
    }
    return true;
  }

  const char* name() const { return name_; }
  int rank() const { return rank_; }

 private:
  std::shared_mutex mu_;
  const char* name_ = "shared_mutex";
  int rank_ = lock_rank::kUnranked;
};

// ---------------------------------------------------------------------------
// RAII lock holders
// ---------------------------------------------------------------------------

/// Scoped exclusive lock, the default way to hold a Mutex.
class ORPHEUS_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu) ORPHEUS_ACQUIRE(mu) : mu_(mu) { mu_->Lock(); }
  ~MutexLock() ORPHEUS_RELEASE() { mu_->Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex* const mu_;
};

/// Scoped exclusive lock on a SharedMutex (the writer side).
class ORPHEUS_SCOPED_CAPABILITY WriterMutexLock {
 public:
  explicit WriterMutexLock(SharedMutex* mu) ORPHEUS_ACQUIRE(mu) : mu_(mu) {
    mu_->Lock();
  }
  ~WriterMutexLock() ORPHEUS_RELEASE() { mu_->Unlock(); }

  WriterMutexLock(const WriterMutexLock&) = delete;
  WriterMutexLock& operator=(const WriterMutexLock&) = delete;

 private:
  SharedMutex* const mu_;
};

/// Scoped shared (reader) lock on a SharedMutex.
class ORPHEUS_SCOPED_CAPABILITY ReaderMutexLock {
 public:
  explicit ReaderMutexLock(SharedMutex* mu) ORPHEUS_ACQUIRE_SHARED(mu)
      : mu_(mu) {
    mu_->ReaderLock();
  }
  ~ReaderMutexLock() ORPHEUS_RELEASE() { mu_->ReaderUnlock(); }

  ReaderMutexLock(const ReaderMutexLock&) = delete;
  ReaderMutexLock& operator=(const ReaderMutexLock&) = delete;

 private:
  SharedMutex* const mu_;
};

// ---------------------------------------------------------------------------
// CondVar
// ---------------------------------------------------------------------------

/// Condition variable bound to the annotated Mutex. Waits release and
/// re-acquire the mutex (the detector's held-lock stack is kept accurate
/// across the wait). All waits can wake spuriously; callers loop on their
/// predicate or use the predicate overloads.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Block until notified (or a spurious wakeup).
  void Wait(Mutex* mu) ORPHEUS_REQUIRES(mu);

  /// Block until notified or `timeout` elapses. Returns false iff the wait
  /// timed out without a notification.
  bool WaitFor(Mutex* mu, std::chrono::nanoseconds timeout)
      ORPHEUS_REQUIRES(mu);

  /// Wait until `pred()` is true. The predicate runs with the mutex held;
  /// when it reads ORPHEUS_GUARDED_BY state, prefer an explicit
  /// `while (!cond) cv.Wait(&mu);` loop at the call site — the analysis
  /// cannot see through the predicate indirection.
  template <typename Pred>
  void Wait(Mutex* mu, Pred pred) ORPHEUS_REQUIRES(mu) {
    while (!pred()) Wait(mu);
  }

  /// Wait up to `timeout` for `pred()` to become true; returns the final
  /// predicate value (true iff the condition held before the deadline).
  template <typename Pred>
  bool WaitFor(Mutex* mu, std::chrono::nanoseconds timeout, Pred pred)
      ORPHEUS_REQUIRES(mu) {
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    while (!pred()) {
      if (!WaitUntil(mu, deadline)) return pred();
    }
    return true;
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  /// Returns false iff the deadline passed without a notification.
  bool WaitUntil(Mutex* mu, std::chrono::steady_clock::time_point deadline)
      ORPHEUS_REQUIRES(mu);

  std::condition_variable cv_;
};

}  // namespace orpheus

#endif  // ORPHEUS_COMMON_SYNC_H_
