// Snapshot-consistent scans over a live table: the clustered leg plus the
// delta leg must return exactly the rows of the pinned snapshot — equal to
// a merged table's scan, under sarg filtering (including per-chunk string
// dictionaries), and under concurrent append/merge/scan (the TSan suite).
#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bdcc/scatter_scan.h"
#include "common/task_scheduler.h"
#include "delta/delta_merger.h"
#include "delta/live_table.h"
#include "exec/scan.h"
#include "tests/delta/delta_fixture.h"
#include "tests/test_util.h"

namespace bdcc {
namespace delta {
namespace {

class LiveScanTest : public DeltaFixture {
 protected:
  std::unique_ptr<LiveTable> MakeLive() {
    resolver_ = std::make_unique<Resolver>(&tables_, &catalog_);
    return LiveTable::Create(Build(tables_.at("F")), resolver_.get())
        .ValueOrDie();
  }

  // Scan a pinned snapshot: clustered ranges of its base version plus the
  // delta leg over its chunks.
  static Result<exec::Batch> ScanSnapshot(
      std::shared_ptr<const TableSnapshot> snap,
      std::vector<exec::ScanPredicate> preds, bool row_filter,
      exec::ExecContext* ctx, bool zero_copy = false) {
    exec::BdccScan scan = MakeScan(snap, std::move(preds));
    scan.EnableRowFilter(row_filter);
    scan.EnableZeroCopy(zero_copy);
    return exec::CollectAll(&scan, ctx);
  }

  static exec::BdccScan MakeScan(std::shared_ptr<const TableSnapshot> snap,
                                 std::vector<exec::ScanPredicate> preds) {
    exec::BdccScan scan(snap->base.get(), {"f_d", "f_payload", "f_tag"},
                        PlanNaturalScan(*snap->base), std::move(preds));
    std::vector<const Table*> chunks;
    for (const auto& chunk : snap->chunks) chunks.push_back(&chunk->data());
    scan.AttachDelta(snap, std::move(chunks));
    return scan;
  }

  std::unique_ptr<Resolver> resolver_;
};

TEST_F(LiveScanTest, LiveScanEqualsMergedScan) {
  auto live = MakeLive();
  ASSERT_TRUE(live->Append(MakeRows(1, 700)).ok());
  ASSERT_TRUE(live->Append(MakeRows(2, 500)).ok());

  exec::ExecContext live_ctx(nullptr);
  auto snap = live->OpenSnapshot();
  exec::Batch with_delta =
      ScanSnapshot(snap, {}, /*row_filter=*/false, &live_ctx).ValueOrDie();
  EXPECT_EQ(with_delta.num_rows, 5000u + 1200u);
  EXPECT_EQ(live_ctx.stats()->delta_rows_scanned, 1200u);
  EXPECT_EQ(live_ctx.stats()->delta_chunks, 2u);

  ASSERT_TRUE(live->Merge().ok());
  exec::ExecContext merged_ctx(nullptr);
  exec::Batch merged =
      ScanSnapshot(live->OpenSnapshot(), {}, false, &merged_ctx).ValueOrDie();
  EXPECT_EQ(merged_ctx.stats()->delta_rows_scanned, 0u);
  testutil::ExpectBatchesEqual(with_delta, merged, "live-vs-merged ");
}

TEST_F(LiveScanTest, DeltaLegEmitsNoViews) {
  auto live = MakeLive();
  ASSERT_TRUE(live->Append(MakeRows(1, 700)).ok());
  ASSERT_TRUE(live->Append(MakeRows(2, 500)).ok());
  auto snap = live->OpenSnapshot();

  // Zero-copy on: the clustered leg emits views, the delta leg (payloads
  // >= 1000000, see MakeRows) only owned batches.
  exec::ExecContext ctx(nullptr);
  exec::BdccScan scan = MakeScan(snap, {});
  scan.EnableZeroCopy(true);
  ASSERT_TRUE(scan.Open(&ctx).ok());
  uint64_t view_batches = 0;
  uint64_t delta_rows = 0;
  uint64_t rows = 0;
  while (true) {
    exec::Batch b = scan.Next(&ctx).ValueOrDie();
    if (b.empty()) break;
    bool view = b.columns[1].is_view();
    view_batches += view ? 1 : 0;
    const int64_t* payload = b.columns[1].i64_data();
    for (size_t i = 0; i < b.num_rows; ++i) {
      bool from_delta = payload[i] >= 1000000;
      ASSERT_FALSE(view && from_delta) << "view batch holds delta row " << i;
      delta_rows += from_delta ? 1 : 0;
    }
    rows += b.num_rows;
    scan.Recycle(std::move(b));
  }
  scan.Close(&ctx);
  EXPECT_EQ(rows, 5000u + 1200u);
  EXPECT_EQ(delta_rows, 1200u);
  EXPECT_GT(view_batches, 0u);
  EXPECT_EQ(view_batches, ctx.stats()->chunks_zero_copy);
  EXPECT_EQ(ctx.stats()->delta_rows_scanned, 1200u);

  // And the zero-copy live scan still matches the merged table's scan.
  exec::ExecContext live_ctx(nullptr);
  exec::Batch with_delta = ScanSnapshot(snap, {}, /*row_filter=*/false,
                                        &live_ctx, /*zero_copy=*/true)
                               .ValueOrDie();
  ASSERT_TRUE(live->Merge().ok());
  exec::ExecContext merged_ctx(nullptr);
  exec::Batch merged =
      ScanSnapshot(live->OpenSnapshot(), {}, false, &merged_ctx).ValueOrDie();
  testutil::ExpectBatchesEqual(with_delta, merged, "live-vs-merged ");
}

TEST_F(LiveScanTest, SargFilteringCoversBothLegs) {
  auto live = MakeLive();
  ASSERT_TRUE(live->Append(MakeRows(1, 700)).ok());
  ASSERT_TRUE(live->Append(MakeRows(2, 500)).ok());

  // Numeric range on the clustered dimension column plus a string range
  // that must be re-resolved against every chunk's own dictionary.
  std::vector<exec::ScanPredicate> preds = {
      {"f_d", ValueRange{Value::Int32(10), Value::Int32(20)}},
      {"f_tag", ValueRange{Value::String("tag_0_0"), Value::String("tag_1_3")}},
  };

  exec::ExecContext live_ctx(nullptr);
  exec::Batch with_delta =
      ScanSnapshot(live->OpenSnapshot(), preds, /*row_filter=*/true, &live_ctx)
          .ValueOrDie();

  ASSERT_TRUE(live->Merge().ok());
  exec::ExecContext merged_ctx(nullptr);
  exec::Batch merged =
      ScanSnapshot(live->OpenSnapshot(), preds, true, &merged_ctx)
          .ValueOrDie();
  ASSERT_GT(merged.num_rows, 0u);
  testutil::ExpectBatchesEqual(with_delta, merged, "filtered live-vs-merged ");
}

TEST_F(LiveScanTest, PinnedSnapshotScansAreRepeatableAcrossMutation) {
  auto live = MakeLive();
  ASSERT_TRUE(live->Append(MakeRows(1, 700)).ok());
  auto snap = live->OpenSnapshot();

  exec::ExecContext ctx1(nullptr);
  exec::Batch before = ScanSnapshot(snap, {}, false, &ctx1).ValueOrDie();

  // Concurrent-world mutations: more appends, then a merge.
  ASSERT_TRUE(live->Append(MakeRows(2, 600)).ok());
  ASSERT_TRUE(live->Merge().ok());

  exec::ExecContext ctx2(nullptr);
  exec::Batch after = ScanSnapshot(snap, {}, false, &ctx2).ValueOrDie();
  EXPECT_EQ(before.num_rows, 5700u);
  testutil::ExpectBatchesEqual(before, after, "pinned snapshot repeat ");
}

// The TSan anchor: concurrent appenders, a background merger, and scanning
// readers. Every scan must see exactly its snapshot's rows (base logical
// rows + delta rows) with the payload sum matching a direct read of the
// snapshot's own tables.
TEST_F(LiveScanTest, DeltaConcurrencyAppendMergeScan) {
  auto live = MakeLive();
  common::TaskScheduler scheduler(2);
  DeltaMerger::Options merge_options;
  merge_options.trigger_rows = 400;
  merge_options.max_groups_per_pass = 8;
  DeltaMerger merger(live.get(), &scheduler, merge_options);

  constexpr int kWriters = 2;
  constexpr int kBatchesPerWriter = 6;
  constexpr int kBatchRows = 250;
  std::atomic<bool> failed{false};

  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      for (int b = 0; b < kBatchesPerWriter; ++b) {
        auto appended =
            live->Append(MakeRows(1 + w * kBatchesPerWriter + b, kBatchRows));
        if (!appended.ok()) failed.store(true);
        std::this_thread::yield();
      }
    });
  }
  for (int r = 0; r < 2; ++r) {
    threads.emplace_back([&] {
      for (int i = 0; i < 12; ++i) {
        auto snap = live->OpenSnapshot();
        exec::ExecContext ctx(nullptr);
        auto scanned = ScanSnapshot(snap, {}, false, &ctx);
        if (!scanned.ok()) {
          failed.store(true);
          return;
        }
        // Row count: exactly the snapshot's split.
        uint64_t expect_rows = snap->base->logical_rows() + snap->delta_rows;
        if (scanned.value().num_rows != expect_rows) failed.store(true);
        // Payload sum: scan vs direct reads of the pinned tables.
        int64_t direct = 0, from_scan = 0;
        const Table& base_data = snap->base->data();
        int payload_col = -1;
        for (int c = 0; c < static_cast<int>(base_data.num_columns()); ++c) {
          if (base_data.column_name(c) == "f_payload") payload_col = c;
        }
        for (uint64_t row = 0; row < snap->base->logical_rows(); ++row) {
          direct += base_data.column(payload_col).i64()[row];
        }
        for (const auto& chunk : snap->chunks) {
          for (int64_t v : chunk->data().column(payload_col).i64()) {
            direct += v;
          }
        }
        const exec::Batch& batch = scanned.value();
        for (size_t row = 0; row < batch.num_rows; ++row) {
          from_scan += batch.columns[1].i64_data()[batch.RowAt(row)];
        }
        if (direct != from_scan) failed.store(true);
        std::this_thread::yield();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  ASSERT_FALSE(failed.load());

  merger.Drain();
  merger.Stop();
  EXPECT_TRUE(merger.last_error().ok()) << merger.last_error().ToString();

  // Everything landed: one final merge pass (the merger stops at its
  // trigger) and a full scan.
  ASSERT_TRUE(live->Merge().ok());
  exec::ExecContext ctx(nullptr);
  exec::Batch final_scan =
      ScanSnapshot(live->OpenSnapshot(), {}, false, &ctx).ValueOrDie();
  EXPECT_EQ(final_scan.num_rows,
            5000u + uint64_t{kWriters} * kBatchesPerWriter * kBatchRows);
  EXPECT_EQ(ctx.stats()->delta_rows_scanned, 0u);
}

}  // namespace
}  // namespace delta
}  // namespace bdcc
