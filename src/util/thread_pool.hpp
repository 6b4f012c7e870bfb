#pragma once

#include <cstddef>
#include <exception>
#include <functional>
#include <memory>

namespace relm::util {

// Fixed-size thread pool with one scheduler: submit(n, fn), a batch of n
// tasks in which fn(i) runs exactly once for every i in [0, n). Tasks are
// claimed one at a time by the pool's workers (striped by index, with
// cross-stripe stealing once a stripe drains) and by the thread that waits
// on the batch — the waiter "helps" by running unclaimed tasks itself
// instead of sleeping. A batch indexed by input position is deterministic by
// construction: whatever thread computes index i, the result lands in slot i,
// so outputs are identical for every thread count (docs/PERFORMANCE.md).
//
// submit runs the whole batch itself, in index order, before it returns when
// no worker would help: no workers, no spare core, a batch of at most one
// task, or a call from inside a parallel region. That is exact serial
// execution with no wakeups and no allocation.
//
// A thread is in a parallel region while it runs a task, whether it is a
// worker or a waiter helping, so nested calls (fn itself calling submit or
// parallel_for, on this or any pool) run inline instead of deadlocking.
// Concurrent callers are not serialized: each drains its own batch, and idle
// workers serve the most recent one.
//
// parallel_for(n, fn) is submit, wait_all and rethrow_if_error in one call:
// the model-evaluation hot path (LanguageModel::next_log_probs_batch) needs a
// parallel map. The executor's pipeline uses submit directly: the
// coordinator submits a round of expansion tasks and retires results in
// submission order while later tasks are still running (docs/PERFORMANCE.md,
// "The async frontier pipeline").
class ThreadPool {
 public:
  // `threads` is the total parallelism including the calling thread:
  // ThreadPool(4) spawns 3 workers and the caller participates as the 4th.
  // threads <= 1 spawns no workers and every batch runs serially.
  explicit ThreadPool(std::size_t threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Total parallelism (workers + calling thread); >= 1.
  std::size_t threads() const;

  // Runs fn(i) for every i in [0, n), blocking until all complete. The first
  // exception thrown by any fn is rethrown on the calling thread after the
  // loop drains (remaining indices still run).
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

  // Handle to an in-flight submit() batch. Movable, not copyable; the
  // destructor drains the batch (without rethrowing — call wait_all +
  // rethrow_if_error for errors). fn runs exactly once per index on SOME
  // thread; which thread is unspecified, so fn must be a pure function of i
  // writing only to its own output slot.
  class AsyncBatch {
   public:
    AsyncBatch() = default;
    AsyncBatch(AsyncBatch&&) noexcept = default;
    AsyncBatch& operator=(AsyncBatch&&) noexcept;
    AsyncBatch(const AsyncBatch&) = delete;
    AsyncBatch& operator=(const AsyncBatch&) = delete;
    ~AsyncBatch();

    // Blocks until task i completed. Prefers claiming task i itself, then
    // helps with other unclaimed tasks, and only sleeps when every remaining
    // task is claimed by another thread.
    void wait(std::size_t i);
    void wait_all();
    // Rethrows the first exception any task threw (after wait_all).
    void rethrow_if_error();

   private:
    friend class ThreadPool;
    struct State;
    explicit AsyncBatch(std::shared_ptr<State> state);
    std::shared_ptr<State> state_;  // null for a batch submit() ran serially
    std::exception_ptr error_;      // a serial batch's first error
  };

  // Submits n tasks and returns immediately. Workers start claiming right
  // away; the caller synchronizes per task with wait(i) or all at once with
  // wait_all(). On the serial path above, every task has run when submit
  // returns.
  AsyncBatch submit(std::size_t n, std::function<void(std::size_t)> fn);

  // Process-wide pool used by LanguageModel::next_log_probs_batch. Sized on
  // first use from the RELM_THREADS environment variable, falling back to
  // std::thread::hardware_concurrency().
  static ThreadPool& shared();

  // Replaces the shared pool with one of the given size (clamped to >= 1).
  // Call at startup (e.g. from a --threads flag) before queries run; the old
  // pool is joined and destroyed, so no batch may be in flight.
  static void set_shared_threads(std::size_t threads);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace relm::util
