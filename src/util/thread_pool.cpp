#include "util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <thread>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "util/sync.hpp"

namespace relm::util {

namespace {

// True while the current thread runs a task of some pool's batch; nested
// submit calls run inline.
thread_local bool t_in_parallel_region = false;

// Scheduling metrics. The batch counters are added once per batch (never per
// task — the task body is the hot path); "serial" counts the batches submit
// ran inline. A steal is counted when it happens.
struct PoolMetrics {
  obs::Counter& serial;
  obs::Counter& async_batches;
  obs::Counter& async_tasks;
  obs::Counter& steals;

  static PoolMetrics& get() {
    static PoolMetrics m{
        obs::Registry::instance().counter("pool.serial_dispatches"),
        obs::Registry::instance().counter("pool.async_batches"),
        obs::Registry::instance().counter("pool.async_tasks"),
        obs::Registry::instance().counter("pool.steals")};
    return m;
  }
};

constexpr std::size_t kNoTask = static_cast<std::size_t>(-1);

}  // namespace

// Shared state of one submit() batch. Task lifecycle is a per-index atomic
// byte: kTodo -> kClaimed (CAS by exactly one thread) -> kDone. All claiming
// is lock-free; the mutex guards only the error slot and backs the condvar a
// waiter sleeps on when every remaining task is claimed elsewhere.
struct ThreadPool::AsyncBatch::State {
  static constexpr std::uint8_t kTodo = 0;
  static constexpr std::uint8_t kClaimed = 1;
  static constexpr std::uint8_t kDone = 2;

  // fn, n, and lanes are written before the batch is published (through the
  // pool's state mutex) and read-only afterwards.
  std::function<void(std::size_t)> fn;
  std::size_t n = 0;
  std::size_t lanes = 1;  // workers + calling thread; task i's home is i % lanes
  std::unique_ptr<std::atomic<std::uint8_t>[]> status;
  std::atomic<std::size_t> unclaimed{0};
  std::atomic<std::size_t> completed{0};
  // True while some thread may be sleeping in wait()/wait_all(); gates the
  // notify in run_one so uncontended completions never touch the mutex.
  std::atomic<bool> waiter{false};
  Mutex mutex{LockRank::kPoolJob};
  CondVar done;
  std::exception_ptr error RELM_GUARDED_BY(mutex);

  bool try_claim(std::size_t i) {
    std::uint8_t expected = kTodo;
    if (!status[i].compare_exchange_strong(expected, kClaimed)) return false;
    unclaimed.fetch_sub(1);
    return true;
  }

  // Claims a task for a pool worker: first a pass over the lane's home
  // stripe, then a stealing pass over everything else. Both passes walk
  // BACKWARDS from the last task: the submitter retires in submission order
  // and claims forward from the retirement head (claim_preferring), so
  // workers eating the tail keeps the head unclaimed for it. That matters
  // most on oversubscribed machines — a preempted worker holding a claim on
  // the next-to-retire task forces the submitter into a futex sleep per
  // hand-off — and is harmless on idle ones. All status transitions are
  // one-way, so a task claimable in the second pass is provably from a
  // foreign stripe: a steal.
  std::size_t claim(std::size_t lane) {
    if (unclaimed.load(std::memory_order_relaxed) == 0) return kNoTask;
    const std::size_t home = lane % lanes;
    if (home < n) {
      const std::size_t last = home + ((n - 1 - home) / lanes) * lanes;
      for (std::size_t i = last;; i -= lanes) {
        if (try_claim(i)) return i;
        if (i == home) break;
      }
    }
    for (std::size_t i = n; i > 0; --i) {
      if (try_claim(i - 1)) {
        PoolMetrics::get().steals.add();
        return i - 1;
      }
    }
    return kNoTask;
  }

  // Claim order for the thread that waits on the batch (lane 0): task
  // `want` itself, then the ones needed soonest after it (retirement is in
  // submission order).
  std::size_t claim_preferring(std::size_t want) {
    if (unclaimed.load(std::memory_order_relaxed) == 0) return kNoTask;
    for (std::size_t k = 0; k < n; ++k) {
      const std::size_t i = (want + k) % n;
      if (try_claim(i)) {
        if (i % lanes != 0) PoolMetrics::get().steals.add();
        return i;
      }
    }
    return kNoTask;
  }

  // Runs claimed task i. The running thread, worker or waiter, is in a
  // parallel region until the task returns.
  void run_one(std::size_t i) {
    const bool outer = t_in_parallel_region;
    t_in_parallel_region = true;
    try {
      fn(i);
    } catch (...) {
      ScopedLock lock(mutex);
      if (!error) error = std::current_exception();
    }
    t_in_parallel_region = outer;
    status[i].store(kDone);
    completed.fetch_add(1);
    // Seq-cst ordering of (status/completed store, waiter load) against the
    // waiter's (waiter store, status/completed check under the lock) makes a
    // lost wakeup impossible: if the waiter missed our completion, we see its
    // flag and the lock serializes the notify after its check, before its
    // wait.
    if (waiter.load()) {
      ScopedLock lock(mutex);
      done.notify_all();
    }
  }

  // The waiter's loop: runs unclaimed tasks in claim_preferring order from
  // `want` until finished() holds. Each scan resumes after the last claim,
  // because every task it passed is already claimed; draining m tasks costs
  // O(n) probes, not O(m * n). When every remaining task is claimed by
  // another thread, it yields a few quanta first: on an oversubscribed
  // machine the owner is likely just preempted, and ceding the CPU lets it
  // finish without the futex round-trip (the owner also skips its notify
  // when nobody set the waiter flag). Only then does it sleep on the condvar.
  template <typename Finished>
  void help_until(std::size_t want, Finished finished) {
    for (std::size_t from = want; !finished();) {
      const std::size_t j = claim_preferring(from);
      if (j == kNoTask) break;
      run_one(j);
      from = j + 1;
    }
    for (int spin = 0; spin < 32; ++spin) {
      if (finished()) return;
      std::this_thread::yield();
    }
    waiter.store(true);
    {
      ScopedLock lock(mutex);
      while (!finished()) done.wait(lock);
    }
    waiter.store(false);
  }
};

struct ThreadPool::Impl {
  std::vector<std::thread> workers;
  Mutex mutex{LockRank::kPoolState};
  CondVar work_cv;
  // Most recent submit() batch. A drained batch is left in place (its
  // unclaimed count is 0, so the worker predicate ignores it) and replaced
  // by the next submit; workers never block on a stale pointer.
  std::shared_ptr<AsyncBatch::State> async RELM_GUARDED_BY(mutex);
  bool stop RELM_GUARDED_BY(mutex) = false;

  void worker_loop(std::size_t lane) {
    ScopedLock lock(mutex);
    for (;;) {
      while (!stop && (!async || async->unclaimed.load() == 0)) {
        work_cv.wait(lock);
      }
      if (stop) return;
      std::shared_ptr<AsyncBatch::State> batch = async;
      lock.unlock();
      for (std::size_t i = batch->claim(lane); i != kNoTask;
           i = batch->claim(lane)) {
        batch->run_one(i);
      }
      lock.lock();
    }
  }
};

namespace {

// Physical cores available beyond the calling thread. Pool size is a
// *request*; on a machine with fewer cores than requested threads, waking a
// worker cannot add parallelism — it can only preempt the coordinator (futex
// wake + context switch per batch, ~10µs each, thousands of batches per
// search). Dispatch therefore never wakes more workers than spare cores; the
// caller drains whatever is left inline, which is the exact-serial fast path
// and produces byte-identical results (scheduling never affects output).
std::size_t spare_cores() {
  static const std::size_t spare = [] {
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 1 ? static_cast<std::size_t>(hw - 1) : 0;
  }();
  return spare;
}

}  // namespace

ThreadPool::ThreadPool(std::size_t threads) : impl_(std::make_unique<Impl>()) {
  const std::size_t workers = threads > 1 ? threads - 1 : 0;
  impl_->workers.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    // Lane 0 is the calling/submitting thread; workers take 1..N.
    impl_->workers.emplace_back(
        [impl = impl_.get(), lane = i + 1] { impl->worker_loop(lane); });
  }
}

ThreadPool::~ThreadPool() {
  {
    ScopedLock lock(impl_->mutex);
    impl_->stop = true;
  }
  impl_->work_cv.notify_all();
  for (std::thread& worker : impl_->workers) worker.join();
}

std::size_t ThreadPool::threads() const { return impl_->workers.size() + 1; }

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& fn) {
  // The batch refers to fn instead of copying it. The pool may keep the
  // drained batch until the next submit, but never calls fn again.
  AsyncBatch batch = submit(n, std::cref(fn));
  batch.wait_all();
  batch.rethrow_if_error();
}

ThreadPool::AsyncBatch::AsyncBatch(std::shared_ptr<State> state)
    : state_(std::move(state)) {}

ThreadPool::AsyncBatch& ThreadPool::AsyncBatch::operator=(
    AsyncBatch&& other) noexcept {
  if (this != &other) {
    if (state_) wait_all();
    state_ = std::move(other.state_);
    error_ = std::move(other.error_);
  }
  return *this;
}

ThreadPool::AsyncBatch::~AsyncBatch() {
  // Drain without rethrowing: the error (if any) was already capturable via
  // rethrow_if_error, and a throwing destructor is worse than a dropped one.
  if (state_) wait_all();
}

void ThreadPool::AsyncBatch::wait(std::size_t i) {
  if (!state_) return;  // a serial batch ran inside submit()
  State& s = *state_;
  s.help_until(i, [&s, i] { return s.status[i].load() == State::kDone; });
}

void ThreadPool::AsyncBatch::wait_all() {
  if (!state_) return;
  State& s = *state_;
  s.help_until(0, [&s] { return s.completed.load() == s.n; });
}

void ThreadPool::AsyncBatch::rethrow_if_error() {
  std::exception_ptr error = error_;
  if (state_) {
    ScopedLock lock(state_->mutex);
    error = state_->error;
  }
  if (error) std::rethrow_exception(error);
}

ThreadPool::AsyncBatch ThreadPool::submit(std::size_t n,
                                          std::function<void(std::size_t)> fn) {
  PoolMetrics& metrics = PoolMetrics::get();
  metrics.async_batches.add();
  metrics.async_tasks.add(n);
  // Wake only as many workers as there are tasks AND spare cores: a surplus
  // worker would wake, find nothing claimable (or preempt the coordinator),
  // and sleep again — pure context-switch churn on oversubscribed machines.
  const std::size_t wake =
      std::min({n, impl_->workers.size(), spare_cores()});
  // No worker would help (none could wake; one task, which the caller would
  // claim before a woken worker got to it; or we are already inside a
  // parallel region): run the tasks here, in order, keeping the first error
  // — the exact-serial fast path, with no allocation. Tasks write only their
  // own slot, so running them before the caller's first wait is
  // unobservable.
  if (wake == 0 || n <= 1 || t_in_parallel_region) {
    metrics.serial.add();
    AsyncBatch batch;
    for (std::size_t i = 0; i < n; ++i) {
      try {
        fn(i);
      } catch (...) {
        if (!batch.error_) batch.error_ = std::current_exception();
      }
    }
    return batch;
  }

  auto state = std::make_shared<AsyncBatch::State>();
  state->fn = std::move(fn);
  state->n = n;
  state->lanes = impl_->workers.size() + 1;
  state->status = std::make_unique<std::atomic<std::uint8_t>[]>(n);
  for (std::size_t i = 0; i < n; ++i) {
    state->status[i].store(AsyncBatch::State::kTodo, std::memory_order_relaxed);
  }
  state->unclaimed.store(n);
  {
    ScopedLock lock(impl_->mutex);
    impl_->async = state;
  }
  if (wake >= impl_->workers.size()) {
    impl_->work_cv.notify_all();
  } else {
    for (std::size_t w = 0; w < wake; ++w) impl_->work_cv.notify_one();
  }
  return AsyncBatch(std::move(state));
}

namespace {

std::size_t default_thread_count() {
  if (const char* env = std::getenv("RELM_THREADS")) {
    const long parsed = std::atol(env);
    if (parsed >= 1) return static_cast<std::size_t>(parsed);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

Mutex g_shared_mutex{LockRank::kPoolShared};
std::unique_ptr<ThreadPool> g_shared_pool RELM_GUARDED_BY(g_shared_mutex);

}  // namespace

ThreadPool& ThreadPool::shared() {
  ScopedLock lock(g_shared_mutex);
  if (!g_shared_pool) {
    g_shared_pool = std::make_unique<ThreadPool>(default_thread_count());
    obs::Registry::instance().gauge("pool.threads")
        .set(static_cast<double>(g_shared_pool->threads()));
  }
  return *g_shared_pool;
}

void ThreadPool::set_shared_threads(std::size_t threads) {
  ScopedLock lock(g_shared_mutex);
  g_shared_pool = std::make_unique<ThreadPool>(threads > 0 ? threads : 1);
  obs::Registry::instance().gauge("pool.threads")
      .set(static_cast<double>(g_shared_pool->threads()));
}

}  // namespace relm::util
