// Hash, merge, and sandwich join tests, including the key equivalence
// property: all join strategies produce the same result multiset.
#include <numeric>

#include "common/rng.h"
#include "exec/hash_join.h"
#include "exec/merge_join.h"
#include "exec/sandwich_join.h"
#include "gtest/gtest.h"
#include "tests/test_util.h"

namespace bdcc {
namespace exec {
namespace {

// Operator feeding pre-built batches.
class VectorSource : public Operator {
 public:
  VectorSource(Schema schema, std::vector<Batch> batches)
      : schema_(std::move(schema)), batches_(std::move(batches)) {}

  const Schema& schema() const override { return schema_; }
  Status Open(ExecContext*) override {
    at_ = 0;
    return Status::OK();
  }
  Result<Batch> Next(ExecContext*) override {
    if (at_ >= batches_.size()) return Batch::Empty();
    Batch out;
    const Batch& src = batches_[at_++];
    out.num_rows = src.num_rows;
    out.group_id = src.group_id;
    out.columns = src.columns;  // copy
    return out;
  }

 private:
  Schema schema_;
  std::vector<Batch> batches_;
  size_t at_ = 0;
};

Batch RowsBatch(std::vector<int32_t> keys, std::vector<int64_t> payloads,
                int64_t group_id = -1) {
  Batch b;
  ColumnVector k(TypeId::kInt32), p(TypeId::kInt64);
  k.i32 = std::move(keys);
  p.i64 = std::move(payloads);
  b.num_rows = k.i32.size();
  b.columns = {std::move(k), std::move(p)};
  b.group_id = group_id;
  return b;
}

Schema LeftSchema() {
  return Schema({{"lk", TypeId::kInt32}, {"lp", TypeId::kInt64}});
}
Schema RightSchema() {
  return Schema({{"rk", TypeId::kInt32}, {"rp", TypeId::kInt64}});
}

OperatorPtr Left(std::vector<Batch> b) {
  return std::make_unique<VectorSource>(LeftSchema(), std::move(b));
}
OperatorPtr Right(std::vector<Batch> b) {
  return std::make_unique<VectorSource>(RightSchema(), std::move(b));
}

TEST(HashJoinTest, Inner) {
  ExecContext ctx(nullptr);
  HashJoin join(Left({RowsBatch({1, 2, 3, 2}, {10, 20, 30, 21})}),
                Right({RowsBatch({2, 4, 2}, {200, 400, 201})}), {"lk"},
                {"rk"}, JoinType::kInner);
  Batch out = CollectAll(&join, &ctx).ValueOrDie();
  // Left rows with key 2 match two build rows each -> 4 results.
  EXPECT_EQ(out.num_rows, 4u);
  ASSERT_EQ(out.columns.size(), 4u);
  for (size_t r = 0; r < out.num_rows; ++r) {
    EXPECT_EQ(out.columns[0].i32[r], out.columns[2].i32[r]);
  }
}

TEST(HashJoinTest, LeftOuterProducesNulls) {
  ExecContext ctx(nullptr);
  HashJoin join(Left({RowsBatch({1, 2}, {10, 20})}),
                Right({RowsBatch({2}, {200})}), {"lk"}, {"rk"},
                JoinType::kLeftOuter);
  Batch out = CollectAll(&join, &ctx).ValueOrDie();
  EXPECT_EQ(out.num_rows, 2u);
  int null_rows = 0;
  for (size_t r = 0; r < out.num_rows; ++r) {
    if (out.columns[2].IsNull(r)) {
      ++null_rows;
      EXPECT_EQ(out.columns[0].i32[r], 1);
    }
  }
  EXPECT_EQ(null_rows, 1);
}

TEST(HashJoinTest, SemiAndAnti) {
  ExecContext ctx(nullptr);
  HashJoin semi(Left({RowsBatch({1, 2, 3}, {10, 20, 30})}),
                Right({RowsBatch({2, 2, 5}, {0, 0, 0})}), {"lk"}, {"rk"},
                JoinType::kLeftSemi);
  Batch s = CollectAll(&semi, &ctx).ValueOrDie();
  ASSERT_EQ(s.num_rows, 1u);  // key 2 once, despite two matches
  EXPECT_EQ(s.columns[0].i32[0], 2);
  EXPECT_EQ(s.columns.size(), 2u);  // left columns only

  HashJoin anti(Left({RowsBatch({1, 2, 3}, {10, 20, 30})}),
                Right({RowsBatch({2}, {0})}), {"lk"}, {"rk"},
                JoinType::kLeftAnti);
  Batch a = CollectAll(&anti, &ctx).ValueOrDie();
  EXPECT_EQ(a.num_rows, 2u);
}

TEST(HashJoinTest, NullKeysNeverMatch) {
  Batch left = RowsBatch({1, 2}, {10, 20});
  left.columns[0].nulls = {0, 1};
  Batch right = RowsBatch({2, 1}, {200, 100});
  right.columns[0].nulls = {1, 0};
  ExecContext ctx(nullptr);
  HashJoin join(Left({left}), Right({right}), {"lk"}, {"rk"},
                JoinType::kInner);
  Batch out = CollectAll(&join, &ctx).ValueOrDie();
  ASSERT_EQ(out.num_rows, 1u);
  EXPECT_EQ(out.columns[0].i32[0], 1);
}

TEST(HashJoinTest, TracksBuildMemory) {
  ExecContext ctx(nullptr);
  std::vector<int32_t> keys(5000);
  std::vector<int64_t> vals(5000);
  std::iota(keys.begin(), keys.end(), 0);
  HashJoin join(Left({RowsBatch({1}, {1})}),
                Right({RowsBatch(keys, vals)}), {"lk"}, {"rk"},
                JoinType::kInner);
  (void)CollectAll(&join, &ctx).ValueOrDie();
  // Build side ~5000 rows * 12B plus table overhead; peak reflects it.
  EXPECT_GT(ctx.memory()->peak_bytes(), 50000u);
  EXPECT_EQ(ctx.memory()->current_bytes(), 0u);  // released on Close
}

TEST(MergeJoinTest, InnerWithDuplicateProbe) {
  ExecContext ctx(nullptr);
  MergeJoin join(Left({RowsBatch({1, 1, 2, 5, 5, 9}, {0, 1, 2, 3, 4, 5})}),
                 Right({RowsBatch({1, 2, 3, 5}, {100, 200, 300, 500})}),
                 "lk", "rk");
  Batch out = CollectAll(&join, &ctx).ValueOrDie();
  EXPECT_EQ(out.num_rows, 5u);  // 1,1,2,5,5 match; 9 has no partner
  for (size_t r = 0; r < out.num_rows; ++r) {
    EXPECT_EQ(out.columns[0].i32[r], out.columns[2].i32[r]);
    EXPECT_EQ(out.columns[3].i64[r], out.columns[0].i32[r] * 100);
  }
}

TEST(MergeJoinTest, BatchBoundaries) {
  // Runs span batch boundaries on both sides.
  ExecContext ctx(nullptr);
  MergeJoin join(
      Left({RowsBatch({1, 3}, {0, 1}), RowsBatch({3, 7}, {2, 3})}),
      Right({RowsBatch({1, 2}, {10, 20}), RowsBatch({3, 7}, {30, 70})}),
      "lk", "rk");
  Batch out = CollectAll(&join, &ctx).ValueOrDie();
  EXPECT_EQ(out.num_rows, 4u);
}

TEST(SandwichJoinTest, AlignedGroups) {
  ExecContext ctx(nullptr);
  SandwichHashJoin join(
      Left({RowsBatch({1, 2}, {10, 20}, 0), RowsBatch({5}, {50}, 2)}),
      Right({RowsBatch({2, 1}, {200, 100}, 0), RowsBatch({5, 6}, {500, 600}, 2)}),
      {"lk"}, {"rk"}, JoinType::kInner);
  Batch out = CollectAll(&join, &ctx).ValueOrDie();
  EXPECT_EQ(out.num_rows, 3u);
}

TEST(SandwichJoinTest, MissingGroupsEitherSide) {
  ExecContext ctx(nullptr);
  // Left group 1 has no right partner; right group 3 has no left partner.
  SandwichHashJoin join(
      Left({RowsBatch({1}, {10}, 0), RowsBatch({2}, {20}, 1)}),
      Right({RowsBatch({1}, {100}, 0), RowsBatch({9}, {900}, 3)}), {"lk"},
      {"rk"}, JoinType::kInner);
  Batch out = CollectAll(&join, &ctx).ValueOrDie();
  EXPECT_EQ(out.num_rows, 1u);
  EXPECT_EQ(out.columns[0].i32[0], 1);
}

TEST(SandwichJoinTest, AntiEmitsUnmatchedGroups) {
  ExecContext ctx(nullptr);
  SandwichHashJoin join(
      Left({RowsBatch({1}, {10}, 0), RowsBatch({2}, {20}, 1)}),
      Right({RowsBatch({1}, {100}, 0)}), {"lk"}, {"rk"},
      JoinType::kLeftAnti);
  Batch out = CollectAll(&join, &ctx).ValueOrDie();
  ASSERT_EQ(out.num_rows, 1u);
  EXPECT_EQ(out.columns[0].i32[0], 2);
}

TEST(SandwichJoinTest, LeftOuterAcrossGroups) {
  ExecContext ctx(nullptr);
  SandwichHashJoin join(
      Left({RowsBatch({1, 2}, {10, 20}, 0), RowsBatch({7}, {70}, 5)}),
      Right({RowsBatch({2}, {200}, 0)}), {"lk"}, {"rk"},
      JoinType::kLeftOuter);
  Batch out = CollectAll(&join, &ctx).ValueOrDie();
  EXPECT_EQ(out.num_rows, 3u);
  int nulls = 0;
  for (size_t r = 0; r < out.num_rows; ++r) {
    if (out.columns[2].IsNull(r)) ++nulls;
  }
  EXPECT_EQ(nulls, 2);  // key 1 (group present) and key 7 (group absent)
}

TEST(SandwichJoinTest, RejectsUntaggedInput) {
  ExecContext ctx(nullptr);
  SandwichHashJoin join(Left({RowsBatch({1}, {10})}),
                        Right({RowsBatch({1}, {100}, 0)}), {"lk"}, {"rk"},
                        JoinType::kInner);
  ASSERT_TRUE(join.Open(&ctx).ok());
  auto result = join.Next(&ctx);
  EXPECT_FALSE(result.ok());
}

TEST(SandwichJoinTest, MemoryPeaksAtLargestGroup) {
  // 4 groups of build rows; sandwich peak ~ one group, hash join ~ all.
  std::vector<Batch> build_batches, probe_batches;
  for (int g = 0; g < 4; ++g) {
    std::vector<int32_t> keys(1000);
    std::vector<int64_t> vals(1000);
    std::iota(keys.begin(), keys.end(), g * 1000);
    build_batches.push_back(RowsBatch(keys, vals, g));
    probe_batches.push_back(RowsBatch({g * 1000 + 5}, {1}, g));
  }
  uint64_t sandwich_peak, hash_peak;
  {
    ExecContext ctx(nullptr);
    SandwichHashJoin join(Left(probe_batches), Right(build_batches), {"lk"},
                          {"rk"}, JoinType::kInner);
    Batch out = CollectAll(&join, &ctx).ValueOrDie();
    EXPECT_EQ(out.num_rows, 4u);
    sandwich_peak = ctx.memory()->peak_bytes();
  }
  {
    ExecContext ctx(nullptr);
    HashJoin join(Left(probe_batches), Right(build_batches), {"lk"}, {"rk"},
                  JoinType::kInner);
    Batch out = CollectAll(&join, &ctx).ValueOrDie();
    EXPECT_EQ(out.num_rows, 4u);
    hash_peak = ctx.memory()->peak_bytes();
  }
  EXPECT_LT(sandwich_peak * 2, hash_peak)
      << "sandwich=" << sandwich_peak << " hash=" << hash_peak;
}

TEST(SandwichJoinTest, GroupBuildRefusesUnderTinyBudget) {
  std::vector<Batch> build_batches, probe_batches;
  for (int g = 0; g < 2; ++g) {
    std::vector<int32_t> keys(1000);
    std::iota(keys.begin(), keys.end(), g * 1000);
    build_batches.push_back(RowsBatch(keys, std::vector<int64_t>(1000), g));
    probe_batches.push_back(RowsBatch({g * 1000 + 5}, {1}, g));
  }
  ExecContext ctx(nullptr);
  ctx.memory()->set_limit(1024);
  SandwichHashJoin join(Left(probe_batches), Right(build_batches), {"lk"},
                        {"rk"}, JoinType::kInner);
  auto result = CollectAll(&join, &ctx);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsResourceExhausted())
      << result.status().ToString();
  EXPECT_NE(result.status().ToString().find("sandwich-join build"),
            std::string::npos);
  EXPECT_GE(ctx.stats()->budget_denials, 1u);
  EXPECT_EQ(ctx.memory()->current_bytes(), 0u);
}

TEST(JoinEquivalenceTest, SandwichMatchesHashJoinProperty) {
  // Random co-grouped data: results must agree across strategies.
  Rng rng(31);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<Batch> lbatches, rbatches;
    for (int g = 0; g < 8; ++g) {
      std::vector<int32_t> lk, rk;
      std::vector<int64_t> lp, rp;
      int ln = static_cast<int>(rng.Uniform(0, 20));
      int rn = static_cast<int>(rng.Uniform(0, 20));
      for (int i = 0; i < ln; ++i) {
        lk.push_back(static_cast<int32_t>(g * 100 + rng.Uniform(0, 9)));
        lp.push_back(rng.Uniform(0, 1000));
      }
      for (int i = 0; i < rn; ++i) {
        rk.push_back(static_cast<int32_t>(g * 100 + rng.Uniform(0, 9)));
        rp.push_back(rng.Uniform(0, 1000));
      }
      if (ln) lbatches.push_back(RowsBatch(lk, lp, g));
      if (rn) rbatches.push_back(RowsBatch(rk, rp, g));
    }
    for (JoinType type : {JoinType::kInner, JoinType::kLeftSemi,
                          JoinType::kLeftAnti, JoinType::kLeftOuter}) {
      ExecContext ctx(nullptr);
      SandwichHashJoin sj(Left(lbatches), Right(rbatches), {"lk"}, {"rk"},
                          type);
      Batch a = CollectAll(&sj, &ctx).ValueOrDie();
      HashJoin hj(Left(lbatches), Right(rbatches), {"lk"}, {"rk"}, type);
      Batch b = CollectAll(&hj, &ctx).ValueOrDie();
      testutil::ExpectBatchesEqual(a, b,
                                   std::string("trial ") +
                                       std::to_string(trial) + " " +
                                       JoinTypeName(type));
    }
  }
}

}  // namespace
}  // namespace exec
}  // namespace bdcc
