// Unit tests for the §4.3 storage layer: enum columns (incl. u8→u16 code
// promotion), immutable fragments with delta updates, Reorganize, summary
// indices (pruning soundness as a property test), join indices, ColumnBM.

#include <cmath>
#include <filesystem>
#include <set>

#include <gtest/gtest.h>

#include "common/profiling.h"
#include "common/rng.h"
#include "exec/plan.h"
#include "storage/catalog.h"
#include "storage/columnbm.h"
#include "storage/compression.h"
#include "storage/summary_index.h"
#include "storage/table.h"
#include "tests/test_util.h"

namespace x100 {
namespace {

TEST(ColumnTest, PlainTypesRoundTrip) {
  Column c64(TypeId::kF64);
  c64.AppendF64(1.5);
  c64.AppendF64(-2.25);
  EXPECT_DOUBLE_EQ(c64.GetF64(0), 1.5);
  EXPECT_DOUBLE_EQ(c64.GetF64(1), -2.25);
  EXPECT_EQ(c64.bytes(), 16u);

  Column cd(TypeId::kDate);
  cd.AppendI64(8035);
  EXPECT_EQ(cd.GetI64(0), 8035);
  EXPECT_EQ(cd.storage_type(), TypeId::kDate);

  Column cs(TypeId::kStr);
  cs.AppendStr("hello");
  cs.AppendStr("world");
  EXPECT_STREQ(cs.GetStr(1), "world");
}

TEST(ColumnTest, EnumEncodingSharesDictionary) {
  Column c(TypeId::kStr, /*enum_encoded=*/true);
  c.AppendStr("MAIL");
  c.AppendStr("SHIP");
  c.AppendStr("MAIL");
  EXPECT_EQ(c.storage_type(), TypeId::kU8);
  EXPECT_EQ(c.dict()->size(), 2);
  EXPECT_EQ(c.CodeAt(0), 0);
  EXPECT_EQ(c.CodeAt(2), 0);
  EXPECT_EQ(c.CodeAt(1), 1);
  EXPECT_STREQ(c.GetStr(2), "MAIL");
  // 3 rows cost 3 bytes of codes.
  EXPECT_EQ(c.bytes(), 3u);
}

TEST(ColumnTest, EnumNumericValues) {
  Column c(TypeId::kF64, true);
  for (int i = 0; i < 100; i++) c.AppendF64((i % 11) / 100.0);
  EXPECT_EQ(c.dict()->size(), 11);
  EXPECT_EQ(c.storage_type(), TypeId::kU8);
  for (int i = 0; i < 100; i++) EXPECT_DOUBLE_EQ(c.GetF64(i), (i % 11) / 100.0);
}

TEST(ColumnTest, CodePromotionU8ToU16) {
  Column c(TypeId::kI32, true);
  for (int i = 0; i < 1000; i++) c.AppendI64(i % 700);
  EXPECT_EQ(c.storage_type(), TypeId::kU16);
  EXPECT_EQ(c.dict()->size(), 700);
  for (int i = 0; i < 1000; i++) EXPECT_EQ(c.GetI64(i), i % 700);
}

// ---- Table update semantics (Figure 8) ----------------------------------------

class TableUpdateTest : public ::testing::Test {
 protected:
  void SetUp() override {
    table_ = std::make_unique<Table>(
        "t", std::vector<Table::ColumnSpec>{{"k", TypeId::kI32, false},
                                            {"tag", TypeId::kStr, true},
                                            {"v", TypeId::kF64, false}});
    for (int i = 0; i < 100; i++) {
      table_->AppendRow({Value::I32(i), Value::Str(i % 2 ? "odd" : "even"),
                         Value::F64(i * 1.5)});
    }
    table_->Freeze();
  }
  std::unique_ptr<Table> table_;
};

TEST_F(TableUpdateTest, InsertGoesToDelta) {
  table_->Insert({Value::I32(100), Value::Str("odd"), Value::F64(150.0)});
  EXPECT_EQ(table_->fragment_rows(), 100);
  EXPECT_EQ(table_->delta_rows(), 1);
  EXPECT_EQ(table_->num_rows(), 101);
  EXPECT_EQ(table_->GetValue(100, 0).AsI64(), 100);
  EXPECT_EQ(table_->GetValue(100, 1).AsStr(), "odd");
}

TEST_F(TableUpdateTest, DeltaSharesEnumDictionary) {
  table_->Insert({Value::I32(100), Value::Str("odd"), Value::F64(1.0)});
  table_->Insert({Value::I32(101), Value::Str("brand-new"), Value::F64(2.0)});
  // Same dictionary object: "odd" keeps its fragment code; new value extends.
  EXPECT_EQ(table_->delta_column(1).CodeAt(0), table_->column(1).CodeAt(1));
  EXPECT_EQ(table_->GetValue(101, 1).AsStr(), "brand-new");
  EXPECT_EQ(table_->column(1).dict()->size(), 3);
}

TEST_F(TableUpdateTest, DeleteHidesRow) {
  ASSERT_TRUE(table_->Delete(10).ok());
  EXPECT_TRUE(table_->IsDeleted(10));
  EXPECT_EQ(table_->num_rows(), 99);
  EXPECT_FALSE(table_->Delete(10).ok());   // double delete
  EXPECT_FALSE(table_->Delete(500).ok());  // out of range
}

TEST_F(TableUpdateTest, UpdateIsDeletePlusInsert) {
  ASSERT_TRUE(table_->Update(5, "v", Value::F64(999.0)).ok());
  EXPECT_TRUE(table_->IsDeleted(5));
  EXPECT_EQ(table_->delta_rows(), 1);
  // The re-inserted row carries the old key and the new value.
  int64_t new_row = table_->fragment_rows();
  EXPECT_EQ(table_->GetValue(new_row, 0).AsI64(), 5);
  EXPECT_DOUBLE_EQ(table_->GetValue(new_row, 2).AsF64(), 999.0);
  EXPECT_FALSE(table_->Update(5, "v", Value::F64(1.0)).ok());  // deleted row
}

TEST_F(TableUpdateTest, ReorganizeFoldsDeltas) {
  ASSERT_TRUE(table_->Delete(0).ok());
  ASSERT_TRUE(table_->Update(1, "v", Value::F64(-1.0)).ok());
  table_->Insert({Value::I32(200), Value::Str("even"), Value::F64(7.0)});
  int64_t visible = table_->num_rows();
  table_->Reorganize();
  EXPECT_EQ(table_->num_rows(), visible);
  EXPECT_EQ(table_->delta_rows(), 0);
  EXPECT_EQ(table_->num_deleted(), 0);
  // All visible data preserved: key 1 has updated value, key 0 gone.
  std::set<int64_t> keys;
  bool saw_updated = false;
  for (int64_t r = 0; r < table_->num_rows(); r++) {
    int64_t k = table_->GetValue(r, 0).AsI64();
    keys.insert(k);
    if (k == 1) saw_updated = table_->GetValue(r, 2).AsF64() == -1.0;
  }
  EXPECT_EQ(keys.count(0), 0u);
  EXPECT_TRUE(saw_updated);
  EXPECT_EQ(keys.count(200), 1u);
}

// ---- Summary index soundness (property) -----------------------------------------

class SummaryIndexTest : public ::testing::TestWithParam<int> {};

TEST_P(SummaryIndexTest, RangeIsConservative) {
  // Almost-sorted data (the clustered case §4.3 targets) with noise.
  Rng rng(GetParam());
  Column col(TypeId::kI32);
  constexpr int kN = 10000;
  std::vector<int32_t> vals(kN);
  for (int i = 0; i < kN; i++) {
    vals[i] = static_cast<int32_t>(i / 10 + rng.Uniform(-20, 20));
    col.AppendI64(vals[i]);
  }
  SummaryIndex idx = SummaryIndex::Build(col, 100);

  for (int t = 0; t < 50; t++) {
    double lo = static_cast<double>(rng.Uniform(-50, 1100));
    double hi = lo + static_cast<double>(rng.Uniform(0, 300));
    SummaryIndex::RowRange rr = idx.Range(lo, hi);
    // Soundness: every matching row is inside [begin, end).
    for (int i = 0; i < kN; i++) {
      if (vals[i] >= lo && vals[i] <= hi) {
        ASSERT_GE(i, rr.begin) << "lo=" << lo << " hi=" << hi;
        ASSERT_LT(i, rr.end);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SummaryIndexTest, ::testing::Values(1, 2, 3));

TEST(SummaryIndexTest, PrunesClusteredRanges) {
  Column col(TypeId::kI32);
  for (int i = 0; i < 100000; i++) col.AppendI64(i);  // perfectly sorted
  SummaryIndex idx = SummaryIndex::Build(col, 1000);
  SummaryIndex::RowRange rr = idx.Range(50000, 50999);
  // The pruned region must be a small superset of rows 50000..50999.
  EXPECT_LE(rr.begin, 50000);
  EXPECT_GE(rr.end, 51000);
  EXPECT_LE(rr.end - rr.begin, 3000);
  // Out-of-domain ranges collapse to (nearly) empty.
  SummaryIndex::RowRange none = idx.Range(2e9, 3e9);
  EXPECT_GE(none.begin, none.end - 1);
}

// ---- Join index -------------------------------------------------------------------

TEST(JoinIndexTest, MapsForeignKeysToRowIds) {
  Catalog cat;
  Table* dim = cat.AddTable("dim", {{"id", TypeId::kI32, false},
                                    {"name", TypeId::kStr, false}});
  for (int i = 0; i < 10; i++) {
    dim->AppendRow({Value::I32(100 + i), Value::Str("d" + std::to_string(i))});
  }
  dim->Freeze();
  Table* fact = cat.AddTable("fact", {{"fk", TypeId::kI32, false}});
  for (int i = 0; i < 50; i++) fact->AppendRow({Value::I32(100 + i % 10)});
  fact->Freeze();

  ASSERT_TRUE(fact->BuildJoinIndex("fk", *dim, "id").ok());
  int ji = fact->ColumnIndex(Table::JoinIndexName("dim"));
  for (int64_t r = 0; r < fact->num_rows(); r++) {
    int64_t target = fact->GetValue(r, ji).AsI64();
    EXPECT_EQ(dim->GetValue(target, 0).AsI64(), fact->GetValue(r, 0).AsI64());
  }
  // Dangling FK is an error.
  Table* bad = cat.AddTable("bad", {{"fk", TypeId::kI32, false}});
  bad->AppendRow({Value::I32(9999)});
  bad->Freeze();
  EXPECT_FALSE(bad->BuildJoinIndex("fk", *dim, "id").ok());
}

// ---- ColumnBM -----------------------------------------------------------------------

TEST(ColumnBmTest, ChunksAndAccounting) {
  Column col(TypeId::kI64);
  for (int64_t i = 0; i < 300000; i++) col.AppendI64(i);  // 2.4MB -> 3 blocks

  ColumnBm bm;  // 1MB blocks
  bm.Store("t.col", col);
  EXPECT_EQ(bm.NumBlocks("t.col"), 3);

  int64_t expect = 0;
  for (int64_t b = 0; b < bm.NumBlocks("t.col"); b++) {
    ColumnBm::BlockRef ref = bm.ReadBlock("t.col", b);
    const int64_t* vals = static_cast<const int64_t*>(ref.data);
    for (size_t i = 0; i < ref.bytes / 8; i++) EXPECT_EQ(vals[i], expect++);
  }
  EXPECT_EQ(expect, 300000);
  EXPECT_EQ(bm.blocks_read(), 3);
  EXPECT_EQ(bm.bytes_read(), static_cast<int64_t>(col.bytes()));
}

// ---- FOR compression ----------------------------------------------------------

class ForCodecTest : public ::testing::TestWithParam<int> {};

TEST_P(ForCodecTest, RoundTripI64) {
  Rng rng(GetParam());
  std::vector<int64_t> in;
  switch (GetParam()) {
    case 1:  // constant
      in.assign(1000, -42);
      break;
    case 2:  // sorted dates
      for (int i = 0; i < 5000; i++) in.push_back(8035 + i / 10);
      break;
    case 3:  // random small range incl. negatives
      for (int i = 0; i < 3000; i++) in.push_back(rng.Uniform(-100, 100));
      break;
    case 4:  // full-width values (falls back to 64-bit packing)
      for (int i = 0; i < 500; i++) in.push_back(static_cast<int64_t>(rng.Next()));
      break;
    default:  // single value
      in.assign(1, 7);
  }
  Buffer enc;
  size_t bytes = ForCodec::Encode(in.data(), static_cast<int64_t>(in.size()), 8,
                                  &enc);
  EXPECT_EQ(bytes, enc.size_bytes());
  EXPECT_EQ(ForCodec::EncodedCount(enc.data()),
            static_cast<int64_t>(in.size()));
  EXPECT_EQ(ForCodec::EncodedBytes(enc.data()), bytes);
  std::vector<int64_t> out(in.size(), -1);
  int64_t n = ForCodec::Decode(enc.data(), out.data(), 8);
  ASSERT_EQ(n, static_cast<int64_t>(in.size()));
  EXPECT_EQ(in, out);
}

INSTANTIATE_TEST_SUITE_P(Distributions, ForCodecTest,
                         ::testing::Values(1, 2, 3, 4, 5));

TEST(ForCodecTest, RoundTripNarrowWidths) {
  std::vector<int32_t> dates;
  for (int i = 0; i < 2000; i++) dates.push_back(8035 + i);
  Buffer enc;
  ForCodec::Encode(dates.data(), 2000, 4, &enc);
  std::vector<int32_t> out(2000);
  ASSERT_EQ(ForCodec::Decode(enc.data(), out.data(), 4), 2000);
  EXPECT_EQ(dates, out);

  std::vector<int8_t> small{-5, 0, 5, 5, -5};
  Buffer enc8;
  ForCodec::Encode(small.data(), 5, 1, &enc8);
  std::vector<int8_t> out8(5);
  ASSERT_EQ(ForCodec::Decode(enc8.data(), out8.data(), 1), 5);
  EXPECT_EQ(small, out8);
}

TEST(ForCodecTest, EmptyBlockRoundTrips) {
  // n = 0 is a legal block: header only, zero values out, output untouched.
  Buffer enc;
  size_t bytes = ForCodec::Encode(nullptr, 0, 8, &enc);
  EXPECT_EQ(bytes, ForCodec::kHeaderBytes);
  EXPECT_LE(bytes, ForCodec::MaxEncodedBytes(0));
  EXPECT_EQ(ForCodec::EncodedCount(enc.data()), 0);
  EXPECT_EQ(ForCodec::EncodedBytes(enc.data()), ForCodec::kHeaderBytes);
  int64_t sentinel = 123;
  EXPECT_EQ(ForCodec::Decode(enc.data(), &sentinel, 8), 0);
  EXPECT_EQ(sentinel, 123);
}

TEST(ForCodecTest, ConstantBlockIsHeaderOnly) {
  // bits = 0: every delta is zero, so the payload is empty.
  std::vector<int64_t> in(4096, -77);
  Buffer enc;
  size_t bytes = ForCodec::Encode(in.data(), 4096, 8, &enc);
  EXPECT_EQ(bytes, ForCodec::kHeaderBytes);
  std::vector<int64_t> out(4096, 0);
  ASSERT_EQ(ForCodec::Decode(enc.data(), out.data(), 8), 4096);
  EXPECT_EQ(in, out);
}

TEST(ForCodecTest, FullWidthDeltasWithNegatives) {
  // Blocks spanning INT64_MIN..INT64_MAX need all 64 delta bits; the
  // value-reference subtraction must happen in the unsigned domain (the
  // signed form overflows, which is UB).
  std::vector<int64_t> in = {INT64_MIN, -1, 0, 1, INT64_MAX,
                             INT64_MIN, INT64_MAX, 42, -42};
  Buffer enc;
  size_t bytes =
      ForCodec::Encode(in.data(), static_cast<int64_t>(in.size()), 8, &enc);
  EXPECT_LE(bytes, ForCodec::MaxEncodedBytes(static_cast<int64_t>(in.size())));
  EXPECT_EQ(ForCodec::EncodedBytes(enc.data()), bytes);
  std::vector<int64_t> out(in.size(), 0);
  ASSERT_EQ(ForCodec::Decode(enc.data(), out.data(), 8),
            static_cast<int64_t>(in.size()));
  EXPECT_EQ(in, out);
}

TEST(ForCodecTest, CompressesClusteredDates) {
  // A year of clustered dates spans < 2^9 distinct values: ~9 bits vs 32.
  std::vector<int32_t> dates;
  for (int i = 0; i < 65536; i++) dates.push_back(8035 + i / 200);
  Buffer enc;
  size_t bytes = ForCodec::Encode(dates.data(), 65536, 4, &enc);
  EXPECT_LT(bytes, 65536 * 4 / 3);  // better than 3x
}

TEST(ColumnBmTest, CompressedRoundTripAndAccounting) {
  Column col(TypeId::kDate);
  for (int i = 0; i < 300000; i++) col.AppendI64(8035 + i / 100);
  ColumnBm bm;
  bm.Store("plain", col);
  size_t comp = bm.StoreCompressed("comp", col);
  EXPECT_LT(comp, col.bytes() / 2);  // clustered dates compress well
  EXPECT_EQ(bm.FileBytes("comp"), static_cast<int64_t>(comp));

  bm.ResetStats();
  std::vector<int32_t> out(1 << 16);
  int64_t seen = 0;
  for (int64_t b = 0; b < bm.NumBlocks("comp"); b++) {
    int64_t n = bm.ReadDecompressed("comp", b, out.data());
    for (int64_t i = 0; i < n; i++) {
      ASSERT_EQ(out[i], static_cast<int32_t>(col.GetI64(seen + i)));
    }
    seen += n;
  }
  EXPECT_EQ(seen, col.size());
  // I/O accounting counts compressed bytes only.
  EXPECT_EQ(bm.bytes_read(), static_cast<int64_t>(comp));
}

TEST(ColumnBmTest, SimulatedBandwidthThrottles) {
  Column col(TypeId::kI64);
  for (int64_t i = 0; i < 200000; i++) col.AppendI64(i);  // 1.6MB
  // A pool that holds the whole file whatever env X100_BM_BYTES says.
  ColumnBm bm(ColumnBm::Options{.pool_bytes = 16 << 20});
  bm.Store("c", col);
  bm.set_simulated_bandwidth(100e6);  // 100MB/s -> 1.6MB takes >= 16ms
  // The ceiling applies to logical reads: the first pass loads the blocks
  // from the chunk file, the second is all pool hits, and both stall.
  for (int pass = 0; pass < 2; pass++) {
    SCOPED_TRACE(pass);
    int64_t stall0 = bm.stall_nanos();
    uint64_t t0 = NowNanos();
    bool all_hits = true;
    for (int64_t b = 0; b < bm.NumBlocks("c"); b++) {
      all_hits = bm.ReadBlock("c", b).cache_hit && all_hits;
    }
    double ms = (NowNanos() - t0) / 1e6;
    EXPECT_GE(ms, 14.0);
    EXPECT_GE(bm.stall_nanos() - stall0, 14'000'000);
    if (pass == 1) {
      EXPECT_TRUE(all_hits);
    }
  }
}

TEST(ColumnBmTest, DefaultInstanceOwnsItsScratchDirectory) {
  Column col(TypeId::kI64);
  for (int64_t i = 0; i < 1000; i++) col.AppendI64(i);
  std::string dir;
  {
    ColumnBm bm;
    dir = bm.dir();
    ASSERT_FALSE(dir.empty());
    EXPECT_TRUE(std::filesystem::is_directory(dir));
    EXPECT_EQ(std::filesystem::path(dir).parent_path(),
              std::filesystem::temp_directory_path());
    bm.Store("c", col);
    EXPECT_EQ(bm.NumBlocks("c"), 1);
    EXPECT_FALSE(std::filesystem::is_empty(dir));
  }
  EXPECT_FALSE(std::filesystem::exists(dir));
}

TEST(ColumnBmTest, NamedDirectoryIsKept) {
  testing::ScopedTempDir tmp;
  Column col(TypeId::kI64);
  for (int64_t i = 0; i < 1000; i++) col.AppendI64(i);
  {
    ColumnBm bm(ColumnBm::Options{.disk_dir = tmp.path()});
    EXPECT_EQ(bm.dir(), tmp.path());
    bm.Store("c", col);
  }
  ASSERT_TRUE(std::filesystem::is_directory(tmp.path()));
  EXPECT_TRUE(std::filesystem::is_regular_file(
      std::filesystem::path(tmp.path()) / "c"));
}

TEST(ColumnBmTest, BmScanWritesTheTableManifest) {
  Catalog db;
  Table* t = db.AddTable("data", {{"id", TypeId::kI32, false}});
  for (int i = 0; i < 1000; i++) t->AppendRow({Value::I32(i)});
  t->Freeze();
  ColumnBm bm;
  ExecContext ctx;
  std::unique_ptr<Operator> scan =
      plan::BmScan(&ctx, &bm, *t, {.cols = {"id"}, .compress = true});
  scan->Open();
  int64_t rows = 0;
  while (VectorBatch* b = scan->Next()) rows += b->sel_count();
  scan->Close();
  EXPECT_EQ(rows, 1000);
  EXPECT_TRUE(bm.Contains("data.id.cmp"));
  EXPECT_TRUE(std::filesystem::is_regular_file(
      std::filesystem::path(bm.dir()) / "data.manifest"));
}

}  // namespace
}  // namespace x100
