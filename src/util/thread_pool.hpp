#pragma once

#include <cstddef>
#include <exception>
#include <functional>
#include <memory>

namespace relm::util {

// Fixed-size fork-join thread pool for data-parallel loops.
//
// The only primitive is parallel_for(n, fn): fn(i) runs exactly once for
// every i in [0, n), distributed across the pool's threads plus the calling
// thread, and parallel_for returns only after all n indices completed. There
// is no work stealing and no task graph — the model-evaluation hot path
// (LanguageModel::next_log_probs_batch) needs exactly a parallel map, and a
// parallel map indexed by input position is deterministic by construction:
// whatever thread computes index i, the result lands in slot i, so outputs
// are identical for every thread count (see docs/PERFORMANCE.md).
//
// Nested parallel_for calls (fn itself calling parallel_for, on this or any
// pool) degrade to serial execution on the calling thread instead of
// deadlocking. Concurrent parallel_for calls from distinct threads are
// serialized.
//
// The second primitive is submit(n, fn): an asynchronous task batch with no
// barrier at submission. Tasks are claimed one at a time by the pool's
// workers (striped by index, with cross-stripe stealing once a stripe
// drains) and by any thread blocked in AsyncBatch::wait — the waiter "helps"
// by running unclaimed tasks itself instead of sleeping. When no worker
// could take a task (no workers, no spare core, or a submit from inside a
// parallel region), submit runs the tasks itself, in index order, before it
// returns: exact serial execution with no wakeups and no allocation. This is
// the executor's pipeline seam: the coordinator submits a round of expansion
// tasks and retires results in submission order while later tasks are still
// running (docs/PERFORMANCE.md, "Async frontier pipeline").
class ThreadPool {
 public:
  // `threads` is the total parallelism including the calling thread:
  // ThreadPool(4) spawns 3 workers and the caller participates as the 4th.
  // threads <= 1 spawns no workers and parallel_for runs serially.
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
  // writing only to its own output slot — exactly the parallel_for contract.
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
    // Tasks executed by a lane other than their home stripe (contended
    // hand-offs; also surfaced process-wide as the pool.steals counter).
    std::size_t steals() const;

   private:
    friend class ThreadPool;
    struct State;
    explicit AsyncBatch(std::shared_ptr<State> state);
    std::shared_ptr<State> state_;  // null for a batch submit() ran serially
    std::exception_ptr error_;      // a serial batch's first error
  };

  // Submits n tasks and returns immediately. Workers start claiming right
  // away (when the pool has any); the caller synchronizes per task with
  // wait(i) or all at once with wait_all(). On the serial path above, every
  // task has run when submit returns.
  AsyncBatch submit(std::size_t n, std::function<void(std::size_t)> fn);

  // Process-wide pool used by LanguageModel::next_log_probs_batch. Sized on
  // first use from the RELM_THREADS environment variable, falling back to
  // std::thread::hardware_concurrency().
  static ThreadPool& shared();

  // Replaces the shared pool with one of the given size (clamped to >= 1).
  // Call at startup (e.g. from a --threads flag) before queries run; the old
  // pool is joined and destroyed, so no parallel_for may be in flight.
  static void set_shared_threads(std::size_t threads);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace relm::util
