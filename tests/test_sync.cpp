// Tests for the annotated synchronization layer (util/sync.hpp): lock-rank
// deadlock detection, contention observability, and the CondVar/ScopedLock
// contracts. Built with RELM_ENABLE_DCHECKS=1 so the rank detector is active
// regardless of the outer build type.

#include "util/sync.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"

namespace relm::util {
namespace {

using ::relm::obs::Registry;

// Death tests fork; the style must be thread-safe because several tests in
// this binary spawn threads.
class SyncDeathTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  }
};

TEST(SyncTest, OrderedNestingPasses) {
  Mutex outer(LockRank::kPoolState);
  Mutex inner(LockRank::kPoolJob);
  ScopedLock a(outer);
  ScopedLock b(inner);
  SUCCEED();
}

TEST(SyncTest, FullSubsystemChainPasses) {
  // The deepest realistic nesting: shared pool -> compile cache -> model shard
  // -> trace -> metrics -> logging, strictly increasing all the way down.
  Mutex pool(LockRank::kPoolShared);
  Mutex compile(LockRank::kCompileCacheLru);
  Mutex model(LockRank::kModelCacheShard);
  Mutex sink(LockRank::kTraceSink);
  Mutex registry(LockRank::kMetricsRegistry);
  Mutex logging(LockRank::kLogging);
  ScopedLock l1(pool);
  ScopedLock l2(compile);
  ScopedLock l3(model);
  ScopedLock l4(sink);
  ScopedLock l5(registry);
  ScopedLock l6(logging);
  SUCCEED();
}

TEST_F(SyncDeathTest, InvertedAcquisitionDies) {
  // Deliberate inversion: acquire a low rank while holding a high one. This
  // is the exact shape of a cross-thread deadlock, caught deterministically
  // on one thread.
  EXPECT_DEATH(
      {
        Mutex logging(LockRank::kLogging);
        Mutex shard(LockRank::kModelCacheShard);
        ScopedLock high(logging);
        ScopedLock low(shard);
      },
      "lock rank order violation");
}

TEST_F(SyncDeathTest, EqualRankNestingDies) {
  // Two shards of the same cache share a rank; holding both at once is the
  // classic shard-A/shard-B vs shard-B/shard-A deadlock.
  EXPECT_DEATH(
      {
        Mutex shard_a(LockRank::kModelCacheShard);
        Mutex shard_b(LockRank::kModelCacheShard);
        ScopedLock a(shard_a);
        ScopedLock b(shard_b);
      },
      "lock rank order violation");
}

TEST_F(SyncDeathTest, AssertHeldDiesWhenNotHeld) {
  EXPECT_DEATH(
      {
        Mutex m(LockRank::kPoolJob);
        m.assert_held();
      },
      "assert_held");
}

TEST(SyncTest, ReleaseRestoresRankHeadroom) {
  Mutex high(LockRank::kLogging);
  Mutex low(LockRank::kPoolJob);
  {
    ScopedLock l(high);
  }
  // The high rank was released, so a lower acquisition is legal again.
  ScopedLock l(low);
  SUCCEED();
}

TEST(SyncTest, ScopedLockUnlockRelock) {
  Mutex m(LockRank::kPoolState);
  ScopedLock lock(m);
  EXPECT_TRUE(lock.owns_lock());
  lock.unlock();
  EXPECT_FALSE(lock.owns_lock());
  lock.lock();
  EXPECT_TRUE(lock.owns_lock());
  m.assert_held();
}

TEST(SyncTest, ScopedLockUnlockAllowsReacquireLowerRank) {
  // The worker-loop pattern: drop the state lock around running the job.
  // While it is dropped the thread's rank headroom must fully reset, so even
  // a lower-ranked acquisition is legal.
  Mutex state(LockRank::kPoolState);
  Mutex shared(LockRank::kPoolShared);
  ScopedLock lock(state);
  lock.unlock();
  {
    ScopedLock other(shared);  // lower rank: legal only because state is free
  }
  lock.lock();
}

TEST(SyncTest, CondVarWaitNotify) {
  Mutex m(LockRank::kPoolJob);
  CondVar cv;
  bool ready = false;  // guarded by m
  std::thread producer([&] {
    {
      ScopedLock lock(m);
      ready = true;
    }
    cv.notify_one();
  });
  {
    ScopedLock lock(m);
    while (!ready) cv.wait(lock);
    EXPECT_TRUE(ready);
    // The lock is held again after wait(): the rank stack must agree.
    m.assert_held();
  }
  producer.join();
}

TEST(SyncTest, CondVarWaitReleasesRankWhileBlocked) {
  // While one thread is parked in wait(), another thread must be able to
  // acquire the same mutex (wait released it) and, on the waiter side, the
  // reacquisition must not trip the rank detector.
  Mutex m(LockRank::kPoolState);
  CondVar cv;
  int stage = 0;  // guarded by m
  std::thread waiter([&] {
    ScopedLock lock(m);
    stage = 1;
    cv.notify_all();
    while (stage != 2) cv.wait(lock);
    stage = 3;
    cv.notify_all();
  });
  {
    ScopedLock lock(m);
    while (stage != 1) cv.wait(lock);
    stage = 2;
    cv.notify_all();
    while (stage != 3) cv.wait(lock);
  }
  waiter.join();
  EXPECT_EQ(stage, 3);
}

TEST(SyncTest, ContentionCountersIncrement) {
  obs::Counter& contended = Registry::instance().counter("sync.lock.contended");
  obs::Histogram& wait =
      Registry::instance().histogram("sync.lock.wait_seconds");
  const std::uint64_t contended_before = contended.value();
  const std::uint64_t wait_before = wait.count();

  // Retry until the race lands: the holder must still be inside the critical
  // section when the main thread calls lock(). A 20ms hold per attempt makes
  // a miss essentially impossible, but looping keeps the test deterministic.
  bool observed = false;
  for (int attempt = 0; attempt < 50 && !observed; ++attempt) {
    Mutex m(LockRank::kPoolJob);
    std::atomic<bool> held{false};
    std::thread holder([&] {
      ScopedLock lock(m);
      held.store(true);
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    });
    while (!held.load()) std::this_thread::yield();
    {
      ScopedLock lock(m);  // blocks until the holder's sleep expires
    }
    holder.join();
    observed = contended.value() > contended_before;
  }
  EXPECT_TRUE(observed) << "lock() never observed contention in 50 attempts";
  EXPECT_GT(wait.count(), wait_before);
}

TEST(SyncTest, UncontendedLockDoesNotCountAsContended) {
  obs::Counter& contended = Registry::instance().counter("sync.lock.contended");
  const std::uint64_t before = contended.value();
  Mutex m(LockRank::kPoolJob);
  for (int i = 0; i < 100; ++i) {
    ScopedLock lock(m);
  }
  EXPECT_EQ(contended.value(), before);
}

TEST(SyncTest, InstrumentOffLockSkipsMetrics) {
  obs::Counter& contended = Registry::instance().counter("sync.lock.contended");
  const std::uint64_t before = contended.value();
  Mutex m(LockRank::kMetricsRegistry, Instrument::kOff);
  std::atomic<bool> held{false};
  std::thread holder([&] {
    ScopedLock lock(m);
    held.store(true);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  });
  while (!held.load()) std::this_thread::yield();
  {
    ScopedLock lock(m);  // contends, but must not report
  }
  holder.join();
  EXPECT_EQ(contended.value(), before);
}

TEST(SyncTest, LockRankNamesCoverAllRanks) {
  for (LockRank rank :
       {LockRank::kPoolShared, LockRank::kPoolState, LockRank::kPoolJob,
        LockRank::kCompileCacheConfig, LockRank::kCompileCacheLru,
        LockRank::kModelCacheShard,
        LockRank::kTraceSink, LockRank::kTraceBuffer,
        LockRank::kMetricsRegistry, LockRank::kLogging}) {
    EXPECT_STRNE(lock_rank_name(rank), "?");
  }
}

}  // namespace
}  // namespace relm::util
