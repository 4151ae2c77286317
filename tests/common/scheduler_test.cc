// Stress tests for the morsel-execution TaskScheduler: correctness of
// fork-join counting under contention, nested parallelism (help-while-wait
// must not deadlock), zero-worker degradation, and the thread-safety of the
// shared MemoryTracker. Built with -fsanitize=thread in the CI Debug job.
#include "common/task_scheduler.h"

#include <atomic>
#include <vector>

#include "exec/memory_tracker.h"
#include "gtest/gtest.h"

namespace bdcc {
namespace common {
namespace {

TEST(TaskSchedulerTest, RunsEveryTask) {
  TaskScheduler scheduler(4);
  std::atomic<int> count{0};
  TaskScheduler::TaskGroup group(&scheduler);
  for (int i = 0; i < 1000; ++i) {
    group.Submit([&count] { count.fetch_add(1); });
  }
  group.Wait();
  EXPECT_EQ(count.load(), 1000);
}

TEST(TaskSchedulerTest, ParallelForCoversAllIndices) {
  TaskScheduler scheduler(4);
  std::vector<std::atomic<int>> hits(512);
  scheduler.ParallelFor(hits.size(), [&](size_t i) { hits[i].fetch_add(1); });
  for (size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(TaskSchedulerTest, ZeroWorkersRunsOnWaiter) {
  TaskScheduler scheduler(0);
  std::atomic<int> count{0};
  scheduler.ParallelFor(64, [&](size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 64);
}

TEST(TaskSchedulerTest, NestedParallelForDoesNotDeadlock) {
  TaskScheduler scheduler(2);
  std::atomic<int> count{0};
  scheduler.ParallelFor(8, [&](size_t) {
    scheduler.ParallelFor(8, [&](size_t) { count.fetch_add(1); });
  });
  EXPECT_EQ(count.load(), 64);
}

TEST(TaskSchedulerTest, WaitIsReusableAndIdempotent) {
  TaskScheduler scheduler(2);
  std::atomic<int> count{0};
  TaskScheduler::TaskGroup group(&scheduler);
  group.Submit([&count] { count.fetch_add(1); });
  group.Wait();
  group.Wait();  // no-op
  group.Submit([&count] { count.fetch_add(1); });
  group.Wait();
  EXPECT_EQ(count.load(), 2);
}

TEST(TaskSchedulerTest, ManySmallGroupsStress) {
  TaskScheduler scheduler(4);
  std::atomic<int> count{0};
  for (int round = 0; round < 100; ++round) {
    TaskScheduler::TaskGroup group(&scheduler);
    for (int i = 0; i < 20; ++i) {
      group.Submit([&count] { count.fetch_add(1); });
    }
    group.Wait();
  }
  EXPECT_EQ(count.load(), 2000);
}

TEST(TaskSchedulerTest, SharedPoolExists) {
  TaskScheduler* shared = TaskScheduler::Shared();
  ASSERT_NE(shared, nullptr);
  EXPECT_EQ(shared, TaskScheduler::Shared());
  EXPECT_GE(shared->num_workers(), 1);
  std::atomic<int> count{0};
  shared->ParallelFor(32, [&](size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 32);
}

// Steal-heavy: every task is submitted from one external thread (so all
// work lands in the injection queue and workers race to claim it), and the
// tasks themselves fan out nested subtasks from worker threads (local
// deques), which idle workers then steal. Run under TSan in CI.
TEST(TaskSchedulerTest, StealHeavyNestedSubmission) {
  TaskScheduler scheduler(4);
  std::atomic<int> count{0};
  TaskScheduler::TaskGroup group(&scheduler);
  for (int i = 0; i < 64; ++i) {
    group.Submit([&scheduler, &count] {
      // Nested fan-out from a worker: pushed LIFO onto its own deque,
      // stolen FIFO by the other workers.
      TaskScheduler::TaskGroup inner(&scheduler);
      for (int j = 0; j < 32; ++j) {
        inner.Submit([&count] { count.fetch_add(1); });
      }
      inner.Wait();
    });
  }
  group.Wait();
  EXPECT_EQ(count.load(), 64 * 32);
}

// Uneven task sizes: a few long tasks pin workers while many short tasks
// queue behind them — completion requires the free workers (and the
// helping waiter) to steal around the stragglers.
TEST(TaskSchedulerTest, UnevenTaskSizesComplete) {
  TaskScheduler scheduler(3);
  std::atomic<uint64_t> sum{0};
  TaskScheduler::TaskGroup group(&scheduler);
  for (int i = 0; i < 200; ++i) {
    int spin = (i % 17 == 0) ? 40000 : 10;  // sporadic heavy tasks
    group.Submit([&sum, spin] {
      uint64_t acc = 0;
      for (int k = 0; k < spin; ++k) acc += static_cast<uint64_t>(k) * k;
      sum.fetch_add(acc + 1);
    });
  }
  group.Wait();
  // Every task ran exactly once: 200 "+1"s plus deterministic spin sums.
  uint64_t expect = 0;
  for (int i = 0; i < 200; ++i) {
    int spin = (i % 17 == 0) ? 40000 : 10;
    uint64_t acc = 0;
    for (int k = 0; k < spin; ++k) acc += static_cast<uint64_t>(k) * k;
    expect += acc + 1;
  }
  EXPECT_EQ(sum.load(), expect);
}

// Two schedulers interleaved from the same threads: worker-local deques
// must stay per-scheduler (a worker of A submitting to B goes through B's
// injection queue, not A's deques).
TEST(TaskSchedulerTest, CrossSchedulerSubmission) {
  TaskScheduler a(2), b(2);
  std::atomic<int> count{0};
  a.ParallelFor(16, [&](size_t) {
    b.ParallelFor(8, [&](size_t) { count.fetch_add(1); });
  });
  EXPECT_EQ(count.load(), 16 * 8);
}

// One MemoryTracker shared by many workers: the running total must return
// to zero and the peak must be at least any single worker's footprint and
// at most the theoretical concurrent maximum.
TEST(TaskSchedulerTest, MemoryTrackerIsThreadSafe) {
  TaskScheduler scheduler(4);
  exec::MemoryTracker tracker;
  constexpr uint64_t kPerTask = 1000;
  scheduler.ParallelFor(256, [&](size_t) {
    exec::TrackedMemory mem(&tracker);
    EXPECT_TRUE(mem.TrySet(kPerTask).ok());
    mem.Shrink(kPerTask / 2);
    mem.Clear();
  });
  EXPECT_EQ(tracker.current_bytes(), 0u);
  EXPECT_GE(tracker.peak_bytes(), kPerTask);
  EXPECT_LE(tracker.peak_bytes(), kPerTask * 256);
}

}  // namespace
}  // namespace common
}  // namespace bdcc
