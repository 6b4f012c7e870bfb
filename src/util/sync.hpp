#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdio>
#include <mutex>

#include "obs/metrics.hpp"
#include "util/errors.hpp"

// Annotated synchronization layer: every mutex, lock, and condition variable
// in src/ is a Mutex, ScopedLock or CondVar from this header (scripts/lint.sh
// rejects raw std sync primitives outside it). There is one lock type, an
// exclusive mutex; the wrappers buy three things std::mutex does not give us:
//
//   1. Clang thread-safety analysis. The RELM_* attribute macros below expand
//      to clang's capability attributes, so a `cmake --preset tsa` build
//      (-Wthread-safety -Werror=thread-safety) proves at compile time that
//      every access to a RELM_GUARDED_BY member happens under its lock. Under
//      gcc the attributes expand to nothing and the wrappers compile to the
//      plain std types.
//
//   2. Lock ranks. Every Mutex is constructed with a LockRank; debug builds
//      (NDEBUG unset, or RELM_DCHECKS=ON — same gate as RELM_DCHECK) keep a
//      per-thread stack of held ranks and abort on any acquisition that is
//      not strictly rank-increasing. A potential deadlock (lock-order
//      inversion between two threads) becomes a deterministic single-thread
//      test failure at the first out-of-order acquisition.
//
//   3. Contention observability. In debug builds, a lock() that does not
//      succeed immediately bumps the `sync.lock.contended` counter and feeds
//      the blocked time into the `sync.lock.wait_seconds` histogram
//      (docs/OBSERVABILITY.md). Release builds skip all of this: lock() is
//      exactly std::mutex::lock() (BM_SyncOverhead* in bench/micro_executor
//      holds the zero-overhead claim).
//
// Conventions (docs/STATIC_ANALYSIS.md has the full write-up and rank table):
//   - Annotate the data, not just the lock: every member a lock protects gets
//     RELM_GUARDED_BY(mutex); helpers called with the lock held get
//     RELM_REQUIRES(mutex).
//   - RELM_NO_THREAD_SAFETY_ANALYSIS may appear only inside this header
//     (enforced by scripts/lint.sh); everywhere else, restructure instead.
//   - Condition-variable predicates are re-checked in an explicit
//     `while (!pred) cv.wait(lock);` loop in the function that holds the
//     lock, never a lambda handed to a wait overload — clang analyzes lambda
//     bodies as separate functions that do not inherit the caller's lockset.

// ---------------------------------------------------------------------------
// Clang capability attributes (no-ops under gcc).
// ---------------------------------------------------------------------------

#if defined(__clang__)
#define RELM_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define RELM_THREAD_ANNOTATION(x)
#endif

#define RELM_CAPABILITY(x) RELM_THREAD_ANNOTATION(capability(x))
#define RELM_SCOPED_CAPABILITY RELM_THREAD_ANNOTATION(scoped_lockable)
#define RELM_GUARDED_BY(x) RELM_THREAD_ANNOTATION(guarded_by(x))
#define RELM_REQUIRES(...) \
  RELM_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
#define RELM_ACQUIRE(...) RELM_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define RELM_RELEASE(...) RELM_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
#define RELM_ASSERT_CAPABILITY(x) RELM_THREAD_ANNOTATION(assert_capability(x))
#define RELM_NO_THREAD_SAFETY_ANALYSIS \
  RELM_THREAD_ANNOTATION(no_thread_safety_analysis)

// Debug gate for the rank detector and contention metrics; deliberately the
// same condition as RELM_DCHECK (util/errors.hpp) so the sanitizer presets
// (RELM_DCHECKS=ON) check lock discipline for the whole library.
#if !defined(NDEBUG) || defined(RELM_ENABLE_DCHECKS)
#define RELM_SYNC_DEBUG 1
#else
#define RELM_SYNC_DEBUG 0
#endif

namespace relm::util {

// Acquisition order for every lock in the library, one block per subsystem.
// A thread may only acquire a lock whose rank is STRICTLY GREATER than every
// rank it already holds — so equal-rank nesting (e.g. two cache shards) is
// also rejected. Values are spaced so a subsystem can grow internal levels
// without renumbering its neighbors. Keep this table in sync with
// docs/STATIC_ANALYSIS.md.
enum class LockRank : int {
  // util/thread_pool — outermost: tasks run arbitrary library code (model
  // eval, caches, tracing) with no pool lock held, so no higher-ranked lock
  // may be held across a submit or a wait.
  kPoolShared = 10,  // shared-pool singleton pointer
  kPoolState = 12,   // worker wake state: latest batch + stop flag
  kPoolJob = 13,     // per-batch error slot + completion condvar

  // core/pipeline/cache (compiled-artifact cache).
  kCompileCacheConfig = 20,  // global cache singleton pointer
  kCompileCacheLru = 21,     // the component LRU

  // model (CachingModel logit cache).
  kModelCacheShard = 30,  // the 16 logit-cache LRU shards

  // obs/trace.
  kTraceSink = 40,    // buffer registry + atexit output paths
  kTraceBuffer = 41,  // per-thread event buffers

  // obs/metrics — above the caches and trace: metric registration happens
  // under shard/buffer locks (first use of a cached handle).
  kMetricsRegistry = 50,

  // util/logging — innermost leaf: any subsystem may log mid-operation.
  kLogging = 60,
};

// Human-readable rank name for the detector's failure message.
inline const char* lock_rank_name(LockRank rank) {
  switch (rank) {
    case LockRank::kPoolShared: return "pool.shared";
    case LockRank::kPoolState: return "pool.state";
    case LockRank::kPoolJob: return "pool.job";
    case LockRank::kCompileCacheConfig: return "compile_cache.config";
    case LockRank::kCompileCacheLru: return "compile_cache.lru";
    case LockRank::kModelCacheShard: return "model_cache.shard";
    case LockRank::kTraceSink: return "trace.sink";
    case LockRank::kTraceBuffer: return "trace.buffer";
    case LockRank::kMetricsRegistry: return "metrics.registry";
    case LockRank::kLogging: return "logging";
  }
  return "?";
}

namespace sync_detail {

// Per-thread stack of held ranks. Function-local thread_local so the storage
// is header-only and initialized on first use from any TU.
struct HeldRanks {
  // A fixed array avoids an allocator round-trip on the first lock of every
  // thread; depth > kMax would mean > 16 simultaneously-held locks, which the
  // strictly-increasing rank rule over ~11 distinct ranks already forbids.
  static constexpr std::size_t kMax = 16;
  LockRank ranks[kMax];
  std::size_t depth = 0;
};

inline HeldRanks& held_ranks() {
  thread_local HeldRanks held;
  return held;
}

// Aborts (via the RELM_DCHECK reporter, so death tests can match on the
// message) when acquiring `rank` would violate the strict ordering.
inline void check_acquire(LockRank rank) {
  const HeldRanks& held = held_ranks();
  for (std::size_t i = 0; i < held.depth; ++i) {
    if (static_cast<int>(held.ranks[i]) >= static_cast<int>(rank)) {
      char msg[160];
      std::snprintf(msg, sizeof(msg),
                    "lock rank order violation: acquiring '%s' (%d) while "
                    "holding '%s' (%d); see the rank table in util/sync.hpp",
                    lock_rank_name(rank), static_cast<int>(rank),
                    lock_rank_name(held.ranks[i]),
                    static_cast<int>(held.ranks[i]));
      ::relm::detail::dcheck_fail("lock rank order", msg, __FILE__, __LINE__);
    }
  }
}

inline void push_rank(LockRank rank) {
  HeldRanks& held = held_ranks();
  if (held.depth >= HeldRanks::kMax) {
    ::relm::detail::dcheck_fail("held-rank stack overflow",
                                "more than 16 locks held by one thread",
                                __FILE__, __LINE__);
  }
  held.ranks[held.depth++] = rank;
}

inline void pop_rank(LockRank rank) {
  HeldRanks& held = held_ranks();
  // Unlocks are not always LIFO (ScopedLock::unlock, condvar waits): remove
  // the most recent instance of this rank wherever it sits.
  for (std::size_t i = held.depth; i > 0; --i) {
    if (held.ranks[i - 1] == rank) {
      for (std::size_t j = i - 1; j + 1 < held.depth; ++j) {
        held.ranks[j] = held.ranks[j + 1];
      }
      --held.depth;
      return;
    }
  }
  ::relm::detail::dcheck_fail("lock rank bookkeeping",
                              "releasing a lock rank this thread does not hold",
                              __FILE__, __LINE__);
}

inline bool rank_held(LockRank rank) {
  const HeldRanks& held = held_ranks();
  for (std::size_t i = 0; i < held.depth; ++i) {
    if (held.ranks[i] == rank) return true;
  }
  return false;
}

inline void dcheck_rank_held(LockRank rank) {
  if (!rank_held(rank)) {
    char msg[128];
    std::snprintf(msg, sizeof(msg),
                  "assert_held: lock rank '%s' is not held by this thread",
                  lock_rank_name(rank));
    ::relm::detail::dcheck_fail("assert_held", msg, __FILE__, __LINE__);
  }
}

// Contention metrics, registered lazily. The registry's own mutex is
// Instrument::kOff, so this lookup can never recurse into itself; callers
// fetch the handles BEFORE blocking so the registry lock is taken while the
// contended lock is still unheld (rank-clean even for high-rank locks).
struct SyncMetrics {
  obs::Counter& contended;
  obs::Histogram& wait_seconds;
};

inline SyncMetrics& sync_metrics() {
  static SyncMetrics m{
      obs::Registry::instance().counter("sync.lock.contended"),
      obs::Registry::instance().histogram("sync.lock.wait_seconds"),
  };
  return m;
}

inline void lock_contended(std::mutex& m, bool instrumented) {
  if (!instrumented) {
    m.lock();
    return;
  }
  SyncMetrics& metrics = sync_metrics();
  const auto t0 = std::chrono::steady_clock::now();
  m.lock();
  metrics.contended.add();
  metrics.wait_seconds.observe(
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count());
}

}  // namespace sync_detail

class CondVar;

// Whether a lock reports contention to the obs registry. kOff exists for the
// two locks that sit inside the reporting path itself (the metrics registry's
// own mutex) or rank above it; everything else uses the default.
enum class Instrument { kOff, kOn };

// std::mutex with a clang capability, a lock rank, and (debug builds only)
// contention counters. See the header comment for the three guarantees.
class RELM_CAPABILITY("mutex") Mutex {
 public:
  explicit Mutex(LockRank rank, Instrument instrument = Instrument::kOn)
      : rank_(rank), instrumented_(instrument == Instrument::kOn) {}

  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() RELM_ACQUIRE() {
#if RELM_SYNC_DEBUG
    sync_detail::check_acquire(rank_);
    if (!m_.try_lock()) sync_detail::lock_contended(m_, instrumented_);
    sync_detail::push_rank(rank_);
#else
    m_.lock();
#endif
  }

  void unlock() RELM_RELEASE() {
#if RELM_SYNC_DEBUG
    sync_detail::pop_rank(rank_);
#endif
    m_.unlock();
  }

  // Tells the static analysis (and, in debug builds, checks at runtime via
  // the rank stack) that the calling thread holds this lock. For the rare
  // spot where the analysis cannot see the acquisition.
  void assert_held() const RELM_ASSERT_CAPABILITY(this) {
#if RELM_SYNC_DEBUG
    sync_detail::dcheck_rank_held(rank_);
#endif
  }

  LockRank rank() const { return rank_; }

 private:
  friend class CondVar;

  std::mutex m_;
  const LockRank rank_;
  const bool instrumented_;
};

// RAII lock over a Mutex. Relockable: unlock()/lock() support the
// worker-loop pattern of dropping the lock around a long operation, and
// CondVar::wait releases/reacquires through it.
class RELM_SCOPED_CAPABILITY ScopedLock {
 public:
  explicit ScopedLock(Mutex& m) RELM_ACQUIRE(m) : mutex_(m) { m.lock(); }

  ScopedLock(const ScopedLock&) = delete;
  ScopedLock& operator=(const ScopedLock&) = delete;

  ~ScopedLock() RELM_RELEASE() {
    if (owned_) release_impl();
  }

  void unlock() RELM_RELEASE() {
    RELM_DCHECK(owned_, "ScopedLock::unlock without the lock held");
    release_impl();
    owned_ = false;
  }

  void lock() RELM_ACQUIRE() {
    RELM_DCHECK(!owned_, "ScopedLock::lock while already holding the lock");
    mutex_.lock();
    owned_ = true;
  }

  bool owns_lock() const { return owned_; }

 private:
  friend class CondVar;

  void release_impl() RELM_NO_THREAD_SAFETY_ANALYSIS { mutex_.unlock(); }

  Mutex& mutex_;
  bool owned_ = true;
};

// Condition variable bound to relm::Mutex via ScopedLock. Waits are spurious-
// wakeup-prone by contract: call sites re-check their predicate in an
// explicit `while (!pred) cv.wait(lock);` loop (see the header comment for
// why a predicate overload is deliberately absent).
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void notify_one() noexcept { cv_.notify_one(); }
  void notify_all() noexcept { cv_.notify_all(); }

  // Atomically releases lock's Mutex, blocks, and reacquires before
  // returning. The lock is held on entry and on exit, which is exactly what
  // the (suppressed) static analysis would conclude.
  void wait(ScopedLock& lock) RELM_NO_THREAD_SAFETY_ANALYSIS {
    Mutex& m = lock.mutex_;
    RELM_DCHECK(lock.owned_, "CondVar::wait needs an owned ScopedLock");
#if RELM_SYNC_DEBUG
    sync_detail::pop_rank(m.rank_);
#endif
    std::unique_lock<std::mutex> adopted(m.m_, std::adopt_lock);
    cv_.wait(adopted);
    adopted.release();
#if RELM_SYNC_DEBUG
    // No rank re-check: the wake reacquires the same lock from the same
    // nesting position the original (checked) acquisition validated.
    sync_detail::push_rank(m.rank_);
#endif
  }

 private:
  std::condition_variable cv_;
};

}  // namespace relm::util

namespace relm {
using util::CondVar;
using util::Instrument;
using util::LockRank;
using util::Mutex;
using util::ScopedLock;
}  // namespace relm
