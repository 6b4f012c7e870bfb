#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <new>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "util/rng.hpp"
#include "util/strings.hpp"
#include "util/thread_pool.hpp"

// Global allocation counter: replaces the global allocator for this binary so
// AsyncBatch.SerialSubmitAllocatesNothing can pin the contract. Counting is
// the only side effect.
namespace {
std::atomic<std::size_t> g_alloc_count{0};
}

// GCC inlines these and then flags free() against the malloc inside the
// replaced new as a mismatched pair; the pair is internally consistent.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace relm::util {
namespace {

TEST(Pcg32, Deterministic) {
  Pcg32 a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Pcg32, DifferentSeedsDiffer) {
  Pcg32 a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(Pcg32, BoundedStaysInBound) {
  Pcg32 rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.bounded(17), 17u);
  }
}

TEST(Pcg32, UniformInUnitInterval) {
  Pcg32 rng(9);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Pcg32, RangeInclusive) {
  Pcg32 rng(3);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    auto v = rng.range(-2, 2);
    ASSERT_GE(v, -2);
    ASSERT_LE(v, 2);
    if (v == -2) saw_lo = true;
    if (v == 2) saw_hi = true;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Pcg32, WeightedRespectsWeights) {
  Pcg32 rng(5);
  std::array<double, 3> weights{1.0, 0.0, 3.0};
  std::array<int, 3> hits{};
  for (int i = 0; i < 8000; ++i) {
    std::size_t pick = rng.weighted(weights);
    ASSERT_LT(pick, 3u);
    ++hits[pick];
  }
  EXPECT_EQ(hits[1], 0);
  EXPECT_NEAR(static_cast<double>(hits[2]) / hits[0], 3.0, 0.4);
}

TEST(Pcg32, WeightedZeroTotal) {
  Pcg32 rng(5);
  std::array<double, 2> weights{0.0, 0.0};
  EXPECT_EQ(rng.weighted(weights), weights.size());
}

TEST(Strings, Split) {
  auto parts = split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(parts[3], "c");
}

TEST(Strings, SplitTrailingDelimiter) {
  auto parts = split("a,", ',');
  ASSERT_EQ(parts.size(), 2u);
  EXPECT_EQ(parts[1], "");
}

TEST(Strings, SplitWhitespace) {
  auto parts = split_whitespace("  the\tquick \n fox ");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "the");
  EXPECT_EQ(parts[1], "quick");
  EXPECT_EQ(parts[2], "fox");
}

TEST(Strings, Join) {
  EXPECT_EQ(join({"a", "b", "c"}, "|"), "a|b|c");
  EXPECT_EQ(join({}, "|"), "");
}

TEST(Strings, StartsEndsWith) {
  EXPECT_TRUE(starts_with("https://www.x", "https://"));
  EXPECT_FALSE(starts_with("http", "https://"));
  EXPECT_TRUE(ends_with("file.txt", ".txt"));
  EXPECT_FALSE(ends_with("txt", ".txt"));
}

TEST(Strings, ToLower) { EXPECT_EQ(to_lower("MiXeD 42!"), "mixed 42!"); }

TEST(Strings, EscapeForDisplay) {
  EXPECT_EQ(escape_for_display("ab"), "ab");
  EXPECT_EQ(escape_for_display("a\nb"), "a\\nb");
  EXPECT_EQ(escape_for_display(std::string("\x01", 1)), "\\x01");
  EXPECT_EQ(escape_for_display("a\\b"), "a\\\\b");
}

TEST(Strings, RegexEscapeRoundTrip) {
  // The escaped form must parse as a literal; spot-check metacharacters.
  EXPECT_EQ(regex_escape("a.b"), "a\\.b");
  EXPECT_EQ(regex_escape("x{2}"), "x\\{2\\}");
  EXPECT_EQ(regex_escape("(a|b)*"), "\\(a\\|b\\)\\*");
}

// ---------------------------------------------------------------------------
// Thread pool
// ---------------------------------------------------------------------------

TEST(ThreadPool, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> touched(257);
  pool.parallel_for(touched.size(),
                    [&](std::size_t i) { touched[i].fetch_add(1); });
  for (const auto& t : touched) EXPECT_EQ(t.load(), 1);
}

TEST(ThreadPool, ResultsInInputOrderAnyThreadCount) {
  // out[i] must equal f(i) regardless of which thread ran it; more items
  // than threads so the queue wraps.
  for (std::size_t threads : {1u, 2u, 3u, 8u}) {
    ThreadPool pool(threads);
    std::vector<std::size_t> out(1000, 0);
    pool.parallel_for(out.size(), [&](std::size_t i) { out[i] = i * i; });
    for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i * i);
  }
}

TEST(ThreadPool, SingleThreadRunsOnCaller) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.threads(), 1u);
  std::vector<int> out(16, 0);
  pool.parallel_for(out.size(), [&](std::size_t i) { out[i] = 1; });
  EXPECT_EQ(std::accumulate(out.begin(), out.end(), 0), 16);
}

TEST(ThreadPool, NestedParallelForFallsBackToSerial) {
  ThreadPool pool(4);
  std::atomic<int> total{0};
  pool.parallel_for(8, [&](std::size_t) {
    // Re-entrant use from a worker must not deadlock; it runs serially on
    // the calling thread.
    pool.parallel_for(8, [&](std::size_t) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 64);
}

TEST(ThreadPool, ExceptionPropagatesAndPoolSurvives) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for(100,
                                 [&](std::size_t i) {
                                   if (i == 37) throw std::runtime_error("boom");
                                 }),
               std::runtime_error);
  // The pool remains usable after a failed job.
  std::atomic<int> total{0};
  pool.parallel_for(10, [&](std::size_t) { total.fetch_add(1); });
  EXPECT_EQ(total.load(), 10);
}

// Concurrent callers are not serialized: each drains its own batch while
// idle workers serve the latest one, and every index of every call still
// runs exactly once.
TEST(ThreadPool, ConcurrentCallersEachDrainTheirOwnBatch) {
  ThreadPool pool(4);
  constexpr std::size_t kCallers = 4;
  constexpr std::size_t kCalls = 50;
  std::atomic<bool> go{false};
  std::atomic<std::size_t> wrong{0};
  std::vector<std::thread> callers;
  for (std::size_t c = 0; c < kCallers; ++c) {
    callers.emplace_back([&] {
      while (!go.load()) std::this_thread::yield();
      for (std::size_t call = 0; call < kCalls; ++call) {
        std::vector<std::atomic<int>> runs(97);
        pool.parallel_for(runs.size(),
                          [&](std::size_t i) { runs[i].fetch_add(1); });
        for (const auto& r : runs) {
          if (r.load() != 1) wrong.fetch_add(1);
        }
      }
    });
  }
  go.store(true);
  for (std::thread& caller : callers) caller.join();
  EXPECT_EQ(wrong.load(), 0u);
}

TEST(ThreadPool, SharedPoolResizable) {
  ThreadPool::set_shared_threads(3);
  EXPECT_EQ(ThreadPool::shared().threads(), 3u);
  std::vector<int> out(64, 0);
  ThreadPool::shared().parallel_for(out.size(),
                                    [&](std::size_t i) { out[i] = 1; });
  EXPECT_EQ(std::accumulate(out.begin(), out.end(), 0), 64);
  ThreadPool::set_shared_threads(1);
}

// ---------------------------------------------------------------------------
// Async batches (ThreadPool::submit). Pool sizes 1, 2 and 4: a one-thread
// pool runs every batch inside submit; the others hand batches of two or
// more tasks to workers when the host has spare cores.
// ---------------------------------------------------------------------------

constexpr std::size_t kPoolSizes[] = {1, 2, 4};

TEST(AsyncBatch, EveryIndexRunsExactlyOnce) {
  for (std::size_t threads : kPoolSizes) {
    SCOPED_TRACE(threads);
    ThreadPool pool(threads);
    std::vector<std::atomic<int>> runs(257);
    ThreadPool::AsyncBatch batch =
        pool.submit(runs.size(), [&](std::size_t i) { runs[i].fetch_add(1); });
    batch.wait_all();
    batch.rethrow_if_error();
    for (const auto& r : runs) EXPECT_EQ(r.load(), 1);
  }
}

TEST(AsyncBatch, WaitReturnsOnlyAfterItsTask) {
  constexpr std::size_t kTasks = 64;
  for (std::size_t threads : kPoolSizes) {
    SCOPED_TRACE(threads);
    ThreadPool pool(threads);
    std::vector<std::atomic<bool>> done(kTasks);
    ThreadPool::AsyncBatch batch = pool.submit(kTasks, [&](std::size_t i) {
      if (i % 8 == 0) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
      done[i].store(true);
    });
    // Out of submission order, so some waits land on tasks still running.
    for (std::size_t k = 0; k < kTasks; ++k) {
      const std::size_t i = (k * 37) % kTasks;
      batch.wait(i);
      EXPECT_TRUE(done[i].load()) << i;
    }
    batch.wait_all();
  }
}

TEST(AsyncBatch, RethrowsFirstErrorAndPoolRunsAnotherBatch) {
  for (std::size_t threads : kPoolSizes) {
    SCOPED_TRACE(threads);
    ThreadPool pool(threads);
    std::atomic<int> ran{0};
    ThreadPool::AsyncBatch batch = pool.submit(100, [&](std::size_t i) {
      ran.fetch_add(1);
      if (i % 10 == 3) throw std::runtime_error(std::to_string(i));
    });
    batch.wait_all();
    EXPECT_EQ(ran.load(), 100);  // an error does not cancel the other tasks
    try {
      batch.rethrow_if_error();
      ADD_FAILURE() << "no error rethrown";
    } catch (const std::runtime_error& e) {
      const int index = std::stoi(e.what());
      EXPECT_EQ(index % 10, 3);
      // Serially, tasks run in index order: the first error is task 3's.
      if (threads == 1) {
        EXPECT_EQ(index, 3);
      }
    }

    std::atomic<int> again{0};
    ThreadPool::AsyncBatch next =
        pool.submit(10, [&](std::size_t) { again.fetch_add(1); });
    next.wait_all();
    EXPECT_NO_THROW(next.rethrow_if_error());
    EXPECT_EQ(again.load(), 10);
  }
}

TEST(AsyncBatch, SubmitInsideParallelForDrainsSerially) {
  for (std::size_t threads : kPoolSizes) {
    SCOPED_TRACE(threads);
    ThreadPool pool(threads);
    std::atomic<int> foreign{0};
    std::atomic<int> total{0};
    pool.parallel_for(8, [&](std::size_t) {
      const std::thread::id self = std::this_thread::get_id();
      std::array<std::thread::id, 16> ran_on{};
      ThreadPool::AsyncBatch batch = pool.submit(
          ran_on.size(),
          [&](std::size_t i) { ran_on[i] = std::this_thread::get_id(); });
      // Every task ran on this thread before submit returned.
      for (const std::thread::id& id : ran_on) {
        if (id != self) foreign.fetch_add(1);
      }
      batch.wait_all();
      total.fetch_add(static_cast<int>(ran_on.size()));
    });
    EXPECT_EQ(foreign.load(), 0);
    EXPECT_EQ(total.load(), 8 * 16);
  }
}

// A thread is in a parallel region while it runs a task, the submitter too
// when it helps inside wait(i): a nested submit from such a task runs inline
// on that thread instead of handing its tasks to idle workers.
TEST(AsyncBatch, TaskRunByWaiterRunsNestedCallsInline) {
  ThreadPool pool(4);
  const std::thread::id self = std::this_thread::get_id();
  constexpr std::size_t kTasks = 4;
  std::atomic<bool> submitted{false};
  std::atomic<int> run_in_wait{0};
  std::atomic<int> foreign{0};
  ThreadPool::AsyncBatch batch = pool.submit(kTasks, [&](std::size_t) {
    const std::thread::id runner = std::this_thread::get_id();
    if (runner == self && submitted.load()) {
      run_in_wait.fetch_add(1);
      // Let the workers finish their own tasks and go idle first.
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    std::array<std::thread::id, 16> ran_on{};
    pool.submit(ran_on.size(), [&](std::size_t i) {
          ran_on[i] = std::this_thread::get_id();
          std::this_thread::sleep_for(std::chrono::microseconds(50));
        }).wait_all();
    for (const std::thread::id& id : ran_on) {
      if (id != runner) foreign.fetch_add(1);
    }
  });
  submitted.store(true);
  for (std::size_t i = 0; i < kTasks; ++i) batch.wait(i);
  batch.wait_all();
  EXPECT_EQ(foreign.load(), 0);
  // On a host without a spare core, submit ran the whole batch inline.
  if (std::thread::hardware_concurrency() > 1) {
    EXPECT_GE(run_in_wait.load(), 1);
  }
}

// Inline batches allocate nothing: every batch on a one-thread pool, and a
// batch of one task on a bigger pool.
TEST(AsyncBatch, SerialSubmitAllocatesNothing) {
  for (const auto& [threads, tasks] :
       {std::pair<std::size_t, std::size_t>{1, 64}, {4, 1}}) {
    SCOPED_TRACE(threads);
    ThreadPool pool(threads);
    std::vector<std::size_t> out(tasks, 0);
    // One captured reference: std::function stores it inline.
    auto body = [&out](std::size_t i) { out[i] = i + 1; };
    pool.submit(out.size(), body).wait_all();  // warm-up: registers the metrics

    const std::size_t before = g_alloc_count.load(std::memory_order_relaxed);
    {
      ThreadPool::AsyncBatch batch = pool.submit(out.size(), body);
      for (std::size_t i = 0; i < out.size(); ++i) batch.wait(i);
      batch.wait_all();
      batch.rethrow_if_error();
    }
    const std::size_t after = g_alloc_count.load(std::memory_order_relaxed);
    EXPECT_EQ(after, before) << "a serial submit allocated";
    for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i + 1);
  }
}

}  // namespace
}  // namespace relm::util
