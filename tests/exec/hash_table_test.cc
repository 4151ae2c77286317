#include "exec/hash_table.h"

#include <algorithm>
#include <climits>
#include <random>
#include <string>
#include <unordered_map>

#include "gtest/gtest.h"

namespace bdcc {
namespace exec {
namespace {

Batch MakeBatch() {
  Batch b;
  ColumnVector i(TypeId::kInt32);
  i.i32 = {7, 7, 9};
  ColumnVector l(TypeId::kInt64);
  l.i64 = {100, 200, 100};
  ColumnVector s(TypeId::kString);
  s.dict = std::make_shared<Dictionary>();
  for (const char* v : {"x", "y", "x"}) s.i32.push_back(s.dict->GetOrAdd(v));
  ColumnVector f(TypeId::kFloat64);
  f.f64 = {1.0, 2.0, 1.0};
  b.columns = {std::move(i), std::move(l), std::move(s), std::move(f)};
  b.num_rows = 3;
  return b;
}

Schema MakeSchema() {
  return Schema({{"i", TypeId::kInt32},
                 {"l", TypeId::kInt64},
                 {"s", TypeId::kString},
                 {"f", TypeId::kFloat64}});
}

TEST(KeyEncoderTest, IntFastPath) {
  KeyEncoder enc;
  ASSERT_TRUE(enc.Bind(MakeSchema(), {"i"}).ok());
  EXPECT_TRUE(enc.int_path());
  std::vector<int64_t> keys;
  std::vector<uint8_t> valid;
  Batch b = MakeBatch();
  enc.EncodeInts(b, &keys, &valid);
  EXPECT_EQ(keys, (std::vector<int64_t>{7, 7, 9}));
  EXPECT_EQ(valid, (std::vector<uint8_t>{1, 1, 1}));
}

TEST(KeyEncoderTest, BytesPathForFloatsAndWideComposites) {
  KeyEncoder enc;
  ASSERT_TRUE(enc.Bind(MakeSchema(), {"f"}).ok());
  EXPECT_FALSE(enc.int_path());
  KeyEncoder enc2;
  ASSERT_TRUE(enc2.Bind(MakeSchema(), {"i", "l"}).ok());  // i64 not packable
  EXPECT_FALSE(enc2.int_path());

  std::vector<std::string> keys;
  std::vector<uint8_t> valid;
  Batch b = MakeBatch();
  enc2.EncodeBytes(b, &keys, &valid);
  EXPECT_EQ(keys[0].size(), 14u);  // (1 tag + 4) + (1 tag + 8) bytes
  EXPECT_NE(keys[0], keys[1]);     // (7,100) vs (7,200)
  EXPECT_NE(keys[0], keys[2]);     // (7,100) vs (9,100)

  // String keys compare by content, not code.
  KeyEncoder enc3;
  ASSERT_TRUE(enc3.Bind(MakeSchema(), {"s", "f"}).ok());
  EXPECT_FALSE(enc3.int_path());
  enc3.EncodeBytes(b, &keys, &valid);
  EXPECT_EQ(keys[0], keys[2]);  // both ("x", 1.0)
  EXPECT_NE(keys[0], keys[1]);
}

TEST(KeyEncoderTest, SingleStringKeyUsesDictCodePath) {
  KeyEncoder enc;
  ASSERT_TRUE(enc.Bind(MakeSchema(), {"s"}).ok());
  EXPECT_TRUE(enc.int_path());
  std::vector<int64_t> keys;
  std::vector<uint8_t> valid;
  Batch b = MakeBatch();
  enc.EncodeInts(b, &keys, &valid);
  EXPECT_EQ(keys[0], keys[2]);  // both "x"
  EXPECT_NE(keys[0], keys[1]);
  EXPECT_EQ(valid, (std::vector<uint8_t>{1, 1, 1}));

  // A later batch with a *different* dictionary (same strings in another
  // insertion order) must produce the same keys: codes canonicalize against
  // the first dictionary seen.
  Batch b2 = MakeBatch();
  b2.columns[2].dict = std::make_shared<Dictionary>();
  b2.columns[2].i32.clear();
  for (const char* v : {"y", "x", "zebra"}) {
    b2.columns[2].i32.push_back(b2.columns[2].dict->GetOrAdd(v));
  }
  std::vector<int64_t> keys2;
  enc.EncodeInts(b2, &keys2, &valid);
  EXPECT_EQ(keys2[1], keys[0]);  // "x" matches batch 1's "x"
  EXPECT_EQ(keys2[0], keys[1]);  // "y" matches batch 1's "y"
  EXPECT_NE(keys2[2], keys[0]);  // "zebra" is a fresh, stable side id
  EXPECT_NE(keys2[2], keys[1]);
  std::vector<int64_t> keys3;
  enc.EncodeInts(b2, &keys3, &valid);
  EXPECT_EQ(keys3[2], keys2[2]);  // stable across batches
}

TEST(KeyEncoderTest, PackedPairPath) {
  KeyEncoder enc;
  ASSERT_TRUE(enc.Bind(MakeSchema(), {"i", "s"}).ok());
  EXPECT_TRUE(enc.int_path());
  std::vector<int64_t> keys;
  std::vector<uint8_t> valid;
  Batch b = MakeBatch();
  enc.EncodeInts(b, &keys, &valid);
  // Rows: (7,"x"), (7,"y"), (9,"x") — all distinct, none equal.
  EXPECT_NE(keys[0], keys[1]);
  EXPECT_NE(keys[0], keys[2]);
  EXPECT_NE(keys[1], keys[2]);
  // Same logical tuple encodes identically.
  std::vector<int64_t> again;
  enc.EncodeInts(b, &again, &valid);
  EXPECT_EQ(keys, again);
}

TEST(KeyEncoderTest, SelAwareEncoding) {
  KeyEncoder enc;
  ASSERT_TRUE(enc.Bind(MakeSchema(), {"i"}).ok());
  Batch b = MakeBatch();
  b.sel = {2, 0};
  b.num_rows = 2;
  std::vector<int64_t> keys;
  std::vector<uint8_t> valid;
  enc.EncodeInts(b, &keys, &valid);
  EXPECT_EQ(keys, (std::vector<int64_t>{9, 7}));
}

TEST(KeyEncoderTest, ProbeResolvesAgainstBuildSpace) {
  KeyEncoder build;
  ASSERT_TRUE(build.Bind(MakeSchema(), {"s"}).ok());
  std::vector<int64_t> bkeys;
  std::vector<uint8_t> valid;
  Batch bb = MakeBatch();
  build.EncodeInts(bb, &bkeys, &valid);

  // Probe batch with its own dictionary: "x" must map to the build key,
  // "nope" must map to a key matching nothing (and not crash).
  Batch pb = MakeBatch();
  pb.columns[2].dict = std::make_shared<Dictionary>();
  pb.columns[2].i32.clear();
  for (const char* v : {"nope", "x", "nope"}) {
    pb.columns[2].i32.push_back(pb.columns[2].dict->GetOrAdd(v));
  }
  KeyEncoder probe;
  ASSERT_TRUE(probe.BindProbe(MakeSchema(), {"s"}, &build).ok());
  std::vector<int64_t> pkeys;
  probe.EncodeInts(pb, &pkeys, &valid);
  EXPECT_EQ(pkeys[1], bkeys[0]);  // "x"
  EXPECT_NE(pkeys[0], bkeys[0]);
  EXPECT_NE(pkeys[0], bkeys[1]);
}

TEST(KeyEncoderTest, TranslationCacheSurvivesDictionaryAddressReuse) {
  // Per-batch dictionaries (e.g. expression-generated strings) are freed
  // between batches; the allocator may hand the next batch's equal-sized
  // dictionary the same heap address. The translation cache must not
  // validate by address and reuse the previous dictionary's mapping.
  Schema schema({{"s", TypeId::kString}});
  auto make_batch = [](std::initializer_list<const char*> dict_order) {
    Batch b;
    ColumnVector s(TypeId::kString);
    s.dict = std::make_shared<Dictionary>();
    for (const char* v : dict_order) s.dict->GetOrAdd(v);
    s.i32 = {s.dict->Find("a"), s.dict->Find("b")};
    b.columns = {std::move(s)};
    b.num_rows = 2;
    return b;
  };

  KeyEncoder enc;
  ASSERT_TRUE(enc.Bind(schema, {"s"}).ok());
  std::vector<int64_t> keys;
  std::vector<uint8_t> valid;
  Batch b1 = make_batch({"a", "b"});  // adopted as canonical space
  enc.EncodeInts(b1, &keys, &valid);
  std::vector<int64_t> canon_keys = keys;

  // Fill the cache from a dictionary with the opposite code order, then
  // free it so its address can be reused.
  {
    Batch b2 = make_batch({"b", "a"});
    enc.EncodeInts(b2, &keys, &valid);
    EXPECT_EQ(keys, canon_keys);  // same strings -> same keys
  }
  // Same-sized fresh dictionary, canonical order: if the stale cache were
  // revalidated by address, "a" would encode as "b" and vice versa.
  Batch b3 = make_batch({"a", "b"});
  enc.EncodeInts(b3, &keys, &valid);
  EXPECT_EQ(keys, canon_keys);
}

TEST(KeyEncoderTest, NullKeysFlaggedInvalid) {
  Batch b = MakeBatch();
  b.columns[0].nulls = {0, 1, 0};
  KeyEncoder enc;
  ASSERT_TRUE(enc.Bind(MakeSchema(), {"i"}).ok());
  std::vector<int64_t> keys;
  std::vector<uint8_t> valid;
  enc.EncodeInts(b, &keys, &valid);
  EXPECT_EQ(valid, (std::vector<uint8_t>{1, 0, 1}));
  KeyEncoder enc2;
  ASSERT_TRUE(enc2.Bind(MakeSchema(), {"i", "l"}).ok());
  std::vector<std::string> bkeys;
  enc2.EncodeBytes(b, &bkeys, &valid);
  EXPECT_EQ(valid[1], 0);
}

TEST(KeyEncoderTest, ProbeRejectsPositionallyMismatchedPackedKeys) {
  // Both sides bind as kPacked, but the build packs dictionary codes where
  // the probe would pack raw integers — equal bit patterns must not join.
  KeyEncoder build;
  ASSERT_TRUE(build.Bind(MakeSchema(), {"s", "i"}).ok());
  KeyEncoder probe;
  EXPECT_FALSE(probe.BindProbe(MakeSchema(), {"i", "i"}, &build).ok());
  KeyEncoder ok_probe;
  EXPECT_TRUE(ok_probe.BindProbe(MakeSchema(), {"s", "i"}, &build).ok());
}

TEST(KeyEncoderTest, MissingColumnFailsBind) {
  KeyEncoder enc;
  EXPECT_FALSE(enc.Bind(MakeSchema(), {"nope"}).ok());
}

TEST(DenseKeyMapTest, DenseIdsInsertionOrder) {
  DenseKeyMap map;
  bool inserted;
  EXPECT_EQ(map.FindOrInsert(100, &inserted), 0);
  EXPECT_TRUE(inserted);
  EXPECT_EQ(map.FindOrInsert(-5, &inserted), 1);
  EXPECT_TRUE(inserted);
  EXPECT_EQ(map.FindOrInsert(100, &inserted), 0);
  EXPECT_FALSE(inserted);
  EXPECT_EQ(map.Find(-5), 1);
  EXPECT_EQ(map.Find(42), -1);
  EXPECT_EQ(map.size(), 2u);
  map.Clear();
  EXPECT_EQ(map.size(), 0u);
}

TEST(DenseKeyMapTest, BytesMode) {
  DenseKeyMap map;
  bool inserted;
  EXPECT_EQ(map.FindOrInsert(std::string("abc"), &inserted), 0);
  EXPECT_EQ(map.FindOrInsert(std::string("def"), &inserted), 1);
  EXPECT_EQ(map.Find(std::string("abc")), 0);
  EXPECT_GT(map.MemoryBytes(), 0u);
}

// ---- DenseKeyMap properties, against a std::unordered_map reference ----

// Inserts `key` into both maps and checks the id and the inserted flag
// (ids are dense: a fresh key gets the reference's size).
void InsertBoth(int64_t key, DenseKeyMap* map,
                std::unordered_map<int64_t, int64_t>* ref) {
  bool inserted;
  int64_t id = map->FindOrInsert(key, &inserted);
  auto [it, ref_inserted] =
      ref->emplace(key, static_cast<int64_t>(ref->size()));
  ASSERT_EQ(inserted, ref_inserted) << "key " << key;
  ASSERT_EQ(id, it->second) << "key " << key;
}

void ExpectSameContents(const DenseKeyMap& map,
                        const std::unordered_map<int64_t, int64_t>& ref) {
  ASSERT_EQ(map.size(), ref.size());
  for (const auto& [key, id] : ref) ASSERT_EQ(map.Find(key), id) << key;
}

// A map holding only int keys stays within 32 B per key (plus the minimum
// slot array): keys once by id, at most 4 slots of 4 B per key.
constexpr uint64_t kMaxBytesPerIntKey = 32;
constexpr uint64_t kMinTableBytes = 64;

TEST(DenseKeyMapPropertyTest, RandomKeysThroughSeveralGrowths) {
  std::mt19937_64 rng(20130408);
  DenseKeyMap map;
  std::unordered_map<int64_t, int64_t> ref;
  size_t next_check = 16;
  for (int i = 0; i < 100000; ++i) {
    // Half the draws from a small domain (repeats), half from all 64 bits.
    int64_t key = (rng() & 1) ? static_cast<int64_t>(rng() % 50000)
                              : static_cast<int64_t>(rng());
    ASSERT_NO_FATAL_FAILURE(InsertBoth(key, &map, &ref));
    ASSERT_LE(map.MemoryBytes(),
              kMaxBytesPerIntKey * map.size() + kMinTableBytes)
        << "at " << map.size() << " keys";
    if (map.size() >= next_check) {
      ASSERT_NO_FATAL_FAILURE(ExpectSameContents(map, ref));
      next_check *= 2;
    }
  }
  ASSERT_NO_FATAL_FAILURE(ExpectSameContents(map, ref));
  EXPECT_GT(map.size(), 60000u);  // grew well past several doublings
  // Absent keys miss.
  for (int i = 0; i < 10000; ++i) {
    int64_t key = static_cast<int64_t>(rng());
    EXPECT_EQ(map.Find(key), ref.count(key) ? ref.at(key) : -1);
  }
}

TEST(DenseKeyMapPropertyTest, ExtremeKeys) {
  DenseKeyMap map;
  std::unordered_map<int64_t, int64_t> ref;
  const int64_t keys[] = {INT64_MIN, INT64_MAX, -1, 0, 1,
                          INT64_MIN + 1, 0xFFFFFFFFll, INT64_MAX - 1};
  EXPECT_EQ(map.Find(0), -1);  // empty map
  for (int round = 0; round < 2; ++round) {
    for (int64_t k : keys) ASSERT_NO_FATAL_FAILURE(InsertBoth(k, &map, &ref));
  }
  ASSERT_NO_FATAL_FAILURE(ExpectSameContents(map, ref));
  EXPECT_EQ(map.size(), 8u);
  EXPECT_EQ(map.Find(INT64_MIN), 0);
  EXPECT_EQ(map.Find(INT64_MAX), 1);
  EXPECT_EQ(map.Find(-1), 2);
  EXPECT_EQ(map.Find(0), 3);
  EXPECT_EQ(map.Find(2), -1);
}

TEST(DenseKeyMapPropertyTest, KeysDifferingOnlyInHighBits) {
  // kPacked puts the first key column in the high 32 bits: keys that agree
  // on every low bit must still spread over the slots.
  DenseKeyMap map;
  std::unordered_map<int64_t, int64_t> ref;
  for (int64_t hi = 0; hi < 4096; ++hi) {
    ASSERT_NO_FATAL_FAILURE(InsertBoth((hi << 32) | 7, &map, &ref));
  }
  for (int64_t hi = 0; hi < 4096; ++hi) {
    ASSERT_NO_FATAL_FAILURE(InsertBoth((hi << 32) | 7, &map, &ref));
  }
  ASSERT_NO_FATAL_FAILURE(ExpectSameContents(map, ref));
  EXPECT_EQ(map.Find(7 | (int64_t{4096} << 32)), -1);
  EXPECT_EQ(map.Find(8), -1);
  EXPECT_LE(map.MemoryBytes(), kMaxBytesPerIntKey * map.size() + kMinTableBytes);
}

TEST(DenseKeyMapPropertyTest, ClearThenReuseSmaller) {
  std::mt19937_64 rng(7);
  DenseKeyMap map;
  std::unordered_map<int64_t, int64_t> ref;
  for (int i = 0; i < 20000; ++i) {
    ASSERT_NO_FATAL_FAILURE(
        InsertBoth(static_cast<int64_t>(rng()), &map, &ref));
  }
  uint64_t grown = map.MemoryBytes();
  std::vector<int64_t> old_keys;
  for (const auto& kv : ref) old_keys.push_back(kv.first);
  for (int round = 0; round < 3; ++round) {
    map.Clear();
    EXPECT_EQ(map.size(), 0u);
    EXPECT_EQ(map.MemoryBytes(), grown);  // capacity kept
    for (int64_t k : old_keys) ASSERT_EQ(map.Find(k), -1);
    ref.clear();
    for (int i = 0; i < 300; ++i) {
      ASSERT_NO_FATAL_FAILURE(
          InsertBoth(static_cast<int64_t>(rng() % 200), &map, &ref));
    }
    ASSERT_NO_FATAL_FAILURE(ExpectSameContents(map, ref));
    EXPECT_EQ(map.MemoryBytes(), grown);  // no regrowth below capacity
  }
}

TEST(DenseKeyMapPropertyTest, ReserveThenInsert) {
  DenseKeyMap map;
  std::unordered_map<int64_t, int64_t> ref;
  map.Reserve(5000);
  uint64_t reserved = map.MemoryBytes();
  EXPECT_LE(reserved, kMaxBytesPerIntKey * 5000 + kMinTableBytes);
  for (int64_t k = 0; k < 5000; ++k) {
    ASSERT_NO_FATAL_FAILURE(InsertBoth(k * 4099 - 77, &map, &ref));
  }
  ASSERT_NO_FATAL_FAILURE(ExpectSameContents(map, ref));
  EXPECT_EQ(map.MemoryBytes(), reserved);  // sized once, never regrown
  map.Reserve(10);                         // never shrinks
  EXPECT_EQ(map.MemoryBytes(), reserved);
  ASSERT_NO_FATAL_FAILURE(ExpectSameContents(map, ref));
}

TEST(DenseKeyMapPropertyTest, NullAndByteIdsShareOneDenseSequence) {
  std::mt19937_64 rng(99);
  DenseKeyMap map;
  bool inserted;
  // Placeholder key entries of byte/null ids are not findable as int keys.
  EXPECT_EQ(map.NullId(&inserted), 0);
  EXPECT_EQ(map.FindOrInsert(std::string("x"), &inserted), 1);
  EXPECT_EQ(map.Find(int64_t{0}), -1);
  EXPECT_EQ(map.FindOrInsert(int64_t{0}, &inserted), 2);
  EXPECT_TRUE(inserted);
  map.Clear();

  std::unordered_map<int64_t, int64_t> int_ref;
  std::unordered_map<std::string, int64_t> byte_ref;
  int64_t null_ref = -1;
  int64_t next_id = 0;
  for (int i = 0; i < 20000; ++i) {
    uint64_t draw = rng() % 10;
    if (draw == 0) {
      int64_t id = map.NullId(&inserted);
      ASSERT_EQ(inserted, null_ref < 0);
      if (null_ref < 0) null_ref = next_id++;
      ASSERT_EQ(id, null_ref);
    } else if (draw <= 3) {
      std::string key = "k" + std::to_string(rng() % 3000);
      int64_t id = map.FindOrInsert(key, &inserted);
      auto [it, fresh] = byte_ref.emplace(key, next_id);
      ASSERT_EQ(inserted, fresh);
      if (fresh) ++next_id;
      ASSERT_EQ(id, it->second);
    } else {
      int64_t key = static_cast<int64_t>(rng() % 5000);
      int64_t id = map.FindOrInsert(key, &inserted);
      auto [it, fresh] = int_ref.emplace(key, next_id);
      ASSERT_EQ(inserted, fresh);
      if (fresh) ++next_id;
      ASSERT_EQ(id, it->second);
    }
    ASSERT_EQ(map.size(), static_cast<size_t>(next_id));
  }
  // Every id 0..n-1 is used exactly once across the three key spaces.
  std::vector<int> seen(next_id, 0);
  for (const auto& [key, id] : int_ref) {
    ASSERT_EQ(map.Find(key), id);
    ++seen[id];
  }
  for (const auto& [key, id] : byte_ref) {
    ASSERT_EQ(map.Find(key), id);
    ++seen[id];
  }
  ASSERT_GE(null_ref, 0);
  ++seen[null_ref];
  EXPECT_EQ(std::count(seen.begin(), seen.end(), 1), next_id);
}

TEST(JoinHashTableTest, ChainsDuplicates) {
  JoinHashTable table;
  ASSERT_TRUE(table.Init(MakeSchema(), {"i"}).ok());
  ASSERT_TRUE(table.AddBatch(MakeBatch()).ok());
  ASSERT_TRUE(table.AddBatch(MakeBatch()).ok());
  EXPECT_EQ(table.num_rows(), 6u);
  int matches_7 = 0, matches_9 = 0;
  table.ForEachMatch(int64_t{7}, [&](BuildRowRef) { ++matches_7; });
  table.ForEachMatch(int64_t{9}, [&](BuildRowRef) { ++matches_9; });
  EXPECT_EQ(matches_7, 4);
  EXPECT_EQ(matches_9, 2);
  EXPECT_TRUE(table.HasMatch(int64_t{7}));
  EXPECT_FALSE(table.HasMatch(int64_t{8}));
  EXPECT_GT(table.MemoryBytes(), 0u);
  table.Clear();
  EXPECT_EQ(table.num_rows(), 0u);
  EXPECT_FALSE(table.HasMatch(int64_t{7}));
}

TEST(JoinHashTableTest, MaterializedColumnsPreserveValues) {
  JoinHashTable table;
  ASSERT_TRUE(table.Init(MakeSchema(), {"i"}).ok());
  ASSERT_TRUE(table.AddBatch(MakeBatch()).ok());
  table.ForEachMatch(int64_t{9}, [&](BuildRowRef build) {
    EXPECT_EQ((*build.columns)[1].i64[build.row], 100);
    EXPECT_EQ((*build.columns)[2].GetString(build.row), "x");
    EXPECT_DOUBLE_EQ((*build.columns)[3].f64[build.row], 1.0);
  });
}

}  // namespace
}  // namespace exec
}  // namespace bdcc
