// Direct execution over encoded lanes and zero-copy view emission, over
// every scan leaf (PlainScan, natural BdccScan, grouped BdccScan): both
// EncodedEval modes must produce identical scan results, zero-copy scans
// must match copying scans, view batches of grouped scans must carry their
// group id, and the ExecStats counters (encoded_spans, decodes_skipped,
// chunks_zero_copy) must fire exactly where the design says they do.
#include <memory>
#include <string>
#include <vector>

#include "bdcc/bdcc_table.h"
#include "bdcc/binning.h"
#include "bdcc/scatter_scan.h"
#include "common/rng.h"
#include "exec/exec_context.h"
#include "exec/operator.h"
#include "exec/scan.h"
#include "gtest/gtest.h"
#include "storage/table.h"
#include "tests/test_util.h"

namespace bdcc {
namespace exec {
namespace {

// Clustered-ish table: k arrives in runs (RLE-friendly), c is a narrow
// dict-coded tag column, v/w exercise the float and int64 kernel paths.
Table RunsTable(uint64_t rows, uint32_t zone_rows, uint64_t seed = 5) {
  Rng rng(seed);
  Table t("T");
  Column k(TypeId::kInt32), v(TypeId::kFloat64), s(TypeId::kString),
      w(TypeId::kInt64);
  const char* tags[] = {"alpha", "beta", "gamma", "delta", "epsilon"};
  int32_t cur = 0;
  uint64_t run_left = 0;
  for (uint64_t i = 0; i < rows; ++i) {
    if (run_left == 0) {
      cur = static_cast<int32_t>(rng.Uniform(0, 999));
      run_left = static_cast<uint64_t>(rng.Uniform(1, 300));
    }
    --run_left;
    k.AppendInt32(cur);
    v.AppendFloat64(rng.NextDouble());
    s.AppendString(tags[rng.Uniform(0, 4)]);
    w.AppendInt64(static_cast<int64_t>(i));
  }
  t.AddColumn("k", std::move(k)).AbortIfNotOK();
  t.AddColumn("v", std::move(v)).AbortIfNotOK();
  t.AddColumn("s", std::move(s)).AbortIfNotOK();
  t.AddColumn("w", std::move(w)).AbortIfNotOK();
  t.BuildZoneMaps(zone_rows);
  t.BuildEncodedLanes();
  return t;
}

class NoFkResolver : public TableResolver {
 public:
  explicit NoFkResolver(const Table* t) : t_(t) {}
  Result<const Table*> GetTable(const std::string& name) const override {
    if (name == t_->name()) return t_;
    return Status::NotFound(name);
  }
  Result<const catalog::ForeignKey*> GetForeignKey(
      const std::string& id) const override {
    return Status::NotFound(id);
  }

 private:
  const Table* t_;
};

// The same rows clustered on k (one range dimension), with zone maps and
// encoded lanes at the plain table's zone granularity.
std::unique_ptr<BdccTable> ClusteredOnK(const Table& t) {
  auto dim =
      binning::CreateRangeDimension("D", "T", "k", 0, 999, 5).ValueOrDie();
  std::vector<DimensionUse> uses(1);
  uses[0].dimension = std::make_shared<const Dimension>(std::move(dim));
  NoFkResolver resolver(&t);
  BdccBuildOptions options;
  options.tuning.efficient_access_bytes = 2048;
  options.zone_rows = t.zone_rows();
  return std::make_unique<BdccTable>(
      BuildBdccTable(t.Clone(), uses, resolver, options).ValueOrDie());
}

enum class Leaf { kPlain, kBdccNatural, kBdccGrouped };
const Leaf kLeaves[] = {Leaf::kPlain, Leaf::kBdccNatural, Leaf::kBdccGrouped};

const char* LeafName(Leaf leaf) {
  switch (leaf) {
    case Leaf::kPlain:
      return "plain";
    case Leaf::kBdccNatural:
      return "bdcc-natural";
    case Leaf::kBdccGrouped:
      return "bdcc-grouped";
  }
  return "?";
}

// A plain table and its k-clustered BDCC twin, scannable by any leaf.
struct Leaves {
  Leaves(uint64_t rows, uint32_t zone_rows)
      : plain(RunsTable(rows, zone_rows)), bdcc(ClusteredOnK(plain)) {}

  // Group spec of the grouped leaf: the top two bits of k's bins, so each
  // group id spans several zones and can be emitted as views.
  static GroupSpec Grouping() { return GroupSpec{0, 2}; }

  // The id Grouping() assigns to a row with this k.
  int64_t GroupIdOfK(int32_t k) const {
    const Dimension& dim = *bdcc->uses()[0].dimension;
    return static_cast<int64_t>(dim.BinOfInt(k) >> (dim.bits() - 2));
  }

  std::unique_ptr<TableScan> Make(Leaf leaf, std::vector<std::string> cols,
                                  std::vector<ScanPredicate> preds) const {
    switch (leaf) {
      case Leaf::kPlain:
        return std::make_unique<PlainScan>(&plain, std::move(cols),
                                           std::move(preds));
      case Leaf::kBdccNatural:
        return std::make_unique<BdccScan>(bdcc.get(), std::move(cols),
                                          PlanNaturalScan(*bdcc),
                                          std::move(preds));
      case Leaf::kBdccGrouped:
        return std::make_unique<BdccScan>(
            bdcc.get(), std::move(cols), PlanNaturalScan(*bdcc),
            std::move(preds), std::vector<GroupSpec>{Grouping()});
    }
    return nullptr;
  }

  Table plain;
  std::unique_ptr<BdccTable> bdcc;
};

struct ScanRun {
  Batch result;
  ExecStats stats;
};

ScanRun RunScanOp(std::unique_ptr<TableScan> scan, EncodedEval mode,
                  bool row_filter, bool zero_copy) {
  ExecContext ctx(nullptr);
  scan->EnableRowFilter(row_filter);
  scan->SetEncodedEval(mode);
  scan->EnableZeroCopy(zero_copy);
  ScanRun out;
  out.result = CollectAll(scan.get(), &ctx).ValueOrDie();
  out.stats = *ctx.stats();
  return out;
}

ScanRun RunScan(const Leaves& t, Leaf leaf, std::vector<ScanPredicate> preds,
                EncodedEval mode, bool row_filter, bool zero_copy) {
  return RunScanOp(t.Make(leaf, {"k", "v", "s", "w"}, std::move(preds)),
                   mode, row_filter, zero_copy);
}

std::vector<ScanPredicate> KRange(int32_t lo, int32_t hi) {
  return {{"k", ValueRange{Value::Int32(lo), Value::Int32(hi)}}};
}

TEST(EncodedScanTest, AllEvalModesAgree) {
  Leaves t(20000, 256);
  ASSERT_TRUE(t.plain.HasEncodedLanes());
  ASSERT_TRUE(t.bdcc->data().HasEncodedLanes());
  struct Case {
    int32_t lo, hi;
  } cases[] = {{0, 0}, {0, 49}, {100, 349}, {0, 899}, {0, 999}};
  for (Leaf leaf : kLeaves) {
    for (const Case& c : cases) {
      ScanRun off = RunScan(t, leaf, KRange(c.lo, c.hi), EncodedEval::kOff,
                            /*row_filter=*/true, /*zero_copy=*/false);
      ScanRun direct = RunScan(t, leaf, KRange(c.lo, c.hi),
                               EncodedEval::kAuto, true, false);
      std::string label = std::string(LeafName(leaf)) + " k in [" +
                          std::to_string(c.lo) + "," + std::to_string(c.hi) +
                          "]";
      testutil::ExpectBatchesEqual(off.result, direct.result,
                                   label + " direct");
      EXPECT_EQ(off.stats.encoded_spans, 0u) << label;
      // Direct mode must actually have gone through the encoded lane for
      // every mixed span it evaluated (all-match zones skip evaluation, and
      // supertight ranges may zone-prune the entire table).
      if ((c.lo > 0 || c.hi < 999) && direct.stats.rows_scanned > 0) {
        EXPECT_GT(direct.stats.encoded_spans, 0u) << label;
      }
    }
  }
}

TEST(EncodedScanTest, StringPredicateUsesEncodedVerdicts) {
  Leaves t(20000, 256);
  std::vector<ScanPredicate> preds = {
      {"s", ValueRange{Value::String("beta"), Value::String("delta")}}};
  for (Leaf leaf : kLeaves) {
    ScanRun off = RunScan(t, leaf, preds, EncodedEval::kOff, true, false);
    ScanRun direct = RunScan(t, leaf, preds, EncodedEval::kAuto, true, false);
    testutil::ExpectBatchesEqual(off.result, direct.result,
                                 std::string(LeafName(leaf)) + " verdicts");
    EXPECT_GT(direct.stats.encoded_spans, 0u) << LeafName(leaf);
    EXPECT_GT(direct.result.num_rows, 0u) << LeafName(leaf);
  }
}

TEST(EncodedScanTest, CombinedPredicatesAgreeAcrossModes) {
  Leaves t(20000, 256);
  std::vector<ScanPredicate> preds = {
      {"k", ValueRange{Value::Int32(100), Value::Int32(700)}},
      {"s", ValueRange{Value::String("beta"), Value::String("gamma")}},
      {"w", ValueRange{Value::Int64(1000), Value::Int64(15000)}}};
  for (Leaf leaf : kLeaves) {
    ScanRun off = RunScan(t, leaf, preds, EncodedEval::kOff, true, false);
    ScanRun direct = RunScan(t, leaf, preds, EncodedEval::kAuto, true, false);
    testutil::ExpectBatchesEqual(off.result, direct.result,
                                 std::string(LeafName(leaf)) + " combined");
  }
}

TEST(EncodedScanTest, WorksWithoutEncodedLanes) {
  // kAuto on a table that never built encodings silently evaluates flat.
  Table t = RunsTable(5000, 256);
  Table plain = t.Clone();
  plain.BuildZoneMaps(256);  // zone maps but no encoded lanes
  ASSERT_FALSE(plain.HasEncodedLanes());
  const std::vector<std::string> cols = {"k", "v", "s", "w"};
  ScanRun off =
      RunScanOp(std::make_unique<PlainScan>(&plain, cols, KRange(100, 400)),
                EncodedEval::kOff, true, false);
  ScanRun direct =
      RunScanOp(std::make_unique<PlainScan>(&plain, cols, KRange(100, 400)),
                EncodedEval::kAuto, true, false);
  testutil::ExpectBatchesEqual(off.result, direct.result, "no encodings");
  EXPECT_EQ(direct.stats.encoded_spans, 0u);
}

TEST(ZeroCopyScanTest, UnfilteredScanEmitsViews) {
  Leaves t(20000, 256);
  for (Leaf leaf : kLeaves) {
    std::string label = std::string(LeafName(leaf)) + " unfiltered views";
    ScanRun copy = RunScan(t, leaf, {}, EncodedEval::kOff, false, false);
    ScanRun views = RunScan(t, leaf, {}, EncodedEval::kOff, false, true);
    testutil::ExpectBatchesEqual(copy.result, views.result, label);
    EXPECT_EQ(copy.stats.chunks_zero_copy, 0u) << label;
    EXPECT_GT(views.stats.chunks_zero_copy, 0u) << label;
    EXPECT_EQ(views.result.num_rows, 20000u) << label;
  }
}

TEST(ZeroCopyScanTest, ZoneAllMatchShortCircuitsDecode) {
  Leaves t(20000, 256);
  for (Leaf leaf : kLeaves) {
    std::string label = LeafName(leaf);
    // A predicate the whole table satisfies: every zone proves all-match,
    // so a filtered scan never evaluates a row and emits pure views.
    ScanRun copy =
        RunScan(t, leaf, KRange(0, 999), EncodedEval::kAuto, true, false);
    ScanRun views =
        RunScan(t, leaf, KRange(0, 999), EncodedEval::kAuto, true, true);
    testutil::ExpectBatchesEqual(copy.result, views.result,
                                 label + " all-match views");
    EXPECT_GT(views.stats.decodes_skipped, 0u) << label;
    EXPECT_GT(views.stats.chunks_zero_copy, 0u) << label;
    EXPECT_EQ(views.result.num_rows, 20000u) << label;

    // A selective predicate still filters correctly with zero-copy enabled
    // (partial chunks fall back to the copying path).
    ScanRun sel_copy =
        RunScan(t, leaf, KRange(0, 99), EncodedEval::kAuto, true, false);
    ScanRun sel_views =
        RunScan(t, leaf, KRange(0, 99), EncodedEval::kAuto, true, true);
    testutil::ExpectBatchesEqual(sel_copy.result, sel_views.result,
                                 label + " selective with zero-copy enabled");
  }
}

TEST(ZeroCopyScanTest, GroupedViewBatchesCarryTheirGroupId) {
  Leaves t(20000, 256);
  for (bool row_filter : {false, true}) {
    ExecContext ctx(nullptr);
    std::unique_ptr<TableScan> scan =
        t.Make(Leaf::kBdccGrouped, {"k"}, KRange(0, 999));
    scan->EnableRowFilter(row_filter);
    scan->SetEncodedEval(EncodedEval::kAuto);
    scan->EnableZeroCopy(true);
    ASSERT_TRUE(scan->Open(&ctx).ok());
    uint64_t views = 0;
    uint64_t rows = 0;
    while (true) {
      Batch b = scan->Next(&ctx).ValueOrDie();
      if (b.empty()) break;
      views += b.columns[0].is_view() ? 1 : 0;
      b.Compact();
      for (size_t i = 0; i < b.num_rows; ++i) {
        ASSERT_EQ(b.group_id, t.GroupIdOfK(b.columns[0].i32[i]))
            << "row " << rows + i << (row_filter ? " (filtered)" : "");
      }
      rows += b.num_rows;
      scan->Recycle(std::move(b));
    }
    scan->Close(&ctx);
    EXPECT_EQ(rows, 20000u);
    EXPECT_GT(views, 0u);
    EXPECT_EQ(views, ctx.stats()->chunks_zero_copy);
  }
}

TEST(ZeroCopyScanTest, ViewBatchesCompactToOwnedLanes) {
  Table t = RunsTable(4096, 512);
  ExecContext ctx(nullptr);
  PlainScan scan(&t, {"k", "v", "w"});
  scan.EnableZeroCopy(true);
  ASSERT_TRUE(scan.Open(&ctx).ok());
  bool saw_view = false;
  uint64_t rows = 0;
  while (true) {
    Batch b = scan.Next(&ctx).ValueOrDie();
    if (b.empty()) break;
    for (ColumnVector& c : b.columns) saw_view |= c.is_view();
    // Views read through the typed accessors...
    const int32_t* kd = b.columns[0].i32_data();
    for (size_t i = 0; i < b.num_rows; ++i) {
      ASSERT_EQ(kd[i], t.column(0).i32()[rows + i]);
    }
    // ...and Compact() turns them into ordinary owned lanes.
    b.Compact();
    for (ColumnVector& c : b.columns) ASSERT_FALSE(c.is_view());
    ASSERT_EQ(b.columns[0].i32.size(), b.num_rows);
    rows += b.num_rows;
  }
  scan.Close(&ctx);
  EXPECT_TRUE(saw_view);
  EXPECT_EQ(rows, 4096u);
}

TEST(ZeroCopyScanTest, StatsMergePropagatesNewCounters) {
  ExecStats a, b;
  a.decodes_skipped = 3;
  a.chunks_zero_copy = 5;
  a.encoded_spans = 7;
  b.Merge(a);
  b.Merge(a);
  EXPECT_EQ(b.decodes_skipped, 6u);
  EXPECT_EQ(b.chunks_zero_copy, 10u);
  EXPECT_EQ(b.encoded_spans, 14u);
}

}  // namespace
}  // namespace exec
}  // namespace bdcc
