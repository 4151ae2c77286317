// Rng, Arena, logging, memory tracker.
#include <set>
#include <thread>

#include "common/arena.h"
#include "common/logging.h"
#include "common/rng.h"
#include "exec/memory_tracker.h"
#include "gtest/gtest.h"

namespace bdcc {
namespace {

TEST(RngTest, DeterministicPerSeed) {
  Rng a(42), b(42), c(43);
  for (int i = 0; i < 100; ++i) {
    uint64_t va = a.Next64();
    EXPECT_EQ(va, b.Next64());
    EXPECT_NE(va, c.Next64());  // overwhelmingly likely
  }
}

TEST(RngTest, UniformBounds) {
  Rng rng(7);
  std::set<int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    int64_t v = rng.Uniform(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all values hit
  EXPECT_EQ(rng.Uniform(5, 5), 5);
}

TEST(RngTest, DoubleAndChance) {
  Rng rng(9);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
    if (rng.Chance(0.25)) ++hits;
  }
  EXPECT_NEAR(hits, 2500, 250);
}

TEST(ArenaTest, InternStableAcrossGrowth) {
  Arena arena(64);  // tiny blocks to force growth
  std::vector<std::string_view> views;
  for (int i = 0; i < 200; ++i) {
    views.push_back(arena.Intern("string-" + std::to_string(i)));
  }
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(views[i], "string-" + std::to_string(i));
  }
  EXPECT_GT(arena.bytes_reserved(), 1000u);
  EXPECT_EQ(arena.Intern(""), std::string_view());
}

TEST(ArenaTest, LargeAllocationGetsOwnBlock) {
  Arena arena(16);
  std::string big(1000, 'x');
  std::string_view v = arena.Intern(big);
  EXPECT_EQ(v.size(), 1000u);
  EXPECT_EQ(v, big);
}

TEST(LoggingTest, ThresholdRespected) {
  LogLevel before = GetLogLevel();
  SetLogLevel(LogLevel::kError);
  EXPECT_EQ(GetLogLevel(), LogLevel::kError);
  SetLogLevel(before);
}

TEST(MemoryTrackerTest, PeakTracksHighWater) {
  exec::MemoryTracker tracker;
  tracker.Allocate(100);
  tracker.Allocate(50);
  EXPECT_EQ(tracker.current_bytes(), 150u);
  EXPECT_EQ(tracker.peak_bytes(), 150u);
  tracker.Release(120);
  EXPECT_EQ(tracker.current_bytes(), 30u);
  EXPECT_EQ(tracker.peak_bytes(), 150u);
  tracker.Allocate(10);
  EXPECT_EQ(tracker.peak_bytes(), 150u);
}

TEST(MemoryTrackerTest, TrackedMemoryRaii) {
  exec::MemoryTracker tracker;
  {
    exec::TrackedMemory mem(&tracker);
    ASSERT_TRUE(mem.TrySet(500).ok());
    EXPECT_EQ(tracker.current_bytes(), 500u);
    mem.Shrink(200);
    EXPECT_EQ(tracker.current_bytes(), 200u);
    ASSERT_TRUE(mem.TrySet(800).ok());
    EXPECT_EQ(tracker.peak_bytes(), 800u);
  }
  EXPECT_EQ(tracker.current_bytes(), 0u);  // released on destruction
  exec::TrackedMemory null_ok(nullptr);
  EXPECT_TRUE(null_ok.TrySet(100).ok());  // no-op, no crash
}

}  // namespace
}  // namespace bdcc
