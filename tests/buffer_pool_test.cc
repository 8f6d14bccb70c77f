// Tests for the disk-backed ColumnBM subsystem: chunk-file format +
// checksums (storage/disk_store.h), bounded buffer pool with clock eviction
// and thread-safe pins (storage/buffer_pool.h), the ColumnBm disk backend,
// and the acceptance matrix — Q1/Q6 over memory vs disk (cold pool) vs
// morsel-parallel disk scans.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "exec/plan.h"
#include "storage/buffer_pool.h"
#include "storage/columnbm.h"
#include "storage/disk_store.h"
#include "storage/shared_scan.h"
#include "tests/test_util.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"

namespace x100 {
namespace {

using testing::ExpectTablesEqual;
using testing::ScopedTempDir;

// ---- DiskStore: chunk-file format ------------------------------------------

TEST(DiskStoreTest, WriteReadRoundTrip) {
  ScopedTempDir dir("x100_bm_test");
  DiskStore store(dir.path());

  std::vector<std::vector<int64_t>> blocks;
  for (int b = 0; b < 3; b++) {
    std::vector<int64_t> block(1000 + 100 * b);
    for (size_t i = 0; i < block.size(); i++) {
      block[i] = b * 1000000 + static_cast<int64_t>(i);
    }
    blocks.push_back(std::move(block));
  }

  Status s;
  auto w = store.NewFile("t.col", /*compressed=*/false, /*value_width=*/8, &s);
  ASSERT_NE(w, nullptr) << s.message();
  for (const auto& block : blocks) {
    ASSERT_TRUE(w->AppendBlock(block.data(), block.size() * 8,
                               static_cast<int64_t>(block.size()))
                    .ok());
  }
  ASSERT_TRUE(w->Finish().ok());
  EXPECT_TRUE(store.Exists("t.col"));

  DiskStore::FileMeta meta;
  ASSERT_TRUE(store.OpenMeta("t.col", &meta).ok());
  EXPECT_FALSE(meta.compressed);
  EXPECT_EQ(meta.value_width, 8u);
  ASSERT_EQ(meta.blocks.size(), 3u);
  uint64_t payload = 0;
  for (int b = 0; b < 3; b++) {
    EXPECT_EQ(meta.blocks[b].bytes, blocks[b].size() * 8);
    EXPECT_EQ(meta.blocks[b].value_count,
              static_cast<int64_t>(blocks[b].size()));
    payload += meta.blocks[b].bytes;
  }
  EXPECT_EQ(meta.payload_bytes, payload);

  for (int b = 0; b < 3; b++) {
    std::vector<int64_t> buf(blocks[b].size());
    ASSERT_TRUE(store.ReadBlock("t.col", meta, b, buf.data()).ok());
    EXPECT_EQ(buf, blocks[b]);
  }
}

TEST(DiskStoreTest, DetectsPayloadCorruption) {
  ScopedTempDir dir("x100_bm_test");
  DiskStore store(dir.path());
  std::vector<int64_t> block(512);
  for (size_t i = 0; i < block.size(); i++) block[i] = static_cast<int64_t>(i);
  Status s;
  auto w = store.NewFile("c.col", false, 8, &s);
  ASSERT_NE(w, nullptr);
  ASSERT_TRUE(w->AppendBlock(block.data(), block.size() * 8, 512).ok());
  ASSERT_TRUE(w->Finish().ok());

  // Flip one payload byte on disk; the read must fail its checksum.
  std::FILE* f = std::fopen(store.PathFor("c.col").c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fseek(f, 100, SEEK_SET), 0);
  int ch = std::fgetc(f);
  ASSERT_EQ(std::fseek(f, 100, SEEK_SET), 0);
  std::fputc(ch ^ 0xFF, f);
  std::fclose(f);

  DiskStore::FileMeta meta;
  ASSERT_TRUE(store.OpenMeta("c.col", &meta).ok());
  std::vector<int64_t> buf(block.size());
  Status rs = store.ReadBlock("c.col", meta, 0, buf.data());
  EXPECT_FALSE(rs.ok());
  EXPECT_NE(rs.message().find("checksum"), std::string::npos) << rs.message();
}

TEST(DiskStoreTest, RejectsTruncatedFile) {
  ScopedTempDir dir("x100_bm_test");
  DiskStore store(dir.path());
  std::vector<int64_t> block(256, 7);
  Status s;
  auto w = store.NewFile("t.col", false, 8, &s);
  ASSERT_NE(w, nullptr);
  ASSERT_TRUE(w->AppendBlock(block.data(), block.size() * 8, 256).ok());
  ASSERT_TRUE(w->Finish().ok());

  std::error_code ec;
  auto size = std::filesystem::file_size(store.PathFor("t.col"), ec);
  ASSERT_FALSE(ec);
  std::filesystem::resize_file(store.PathFor("t.col"), size - 8, ec);
  ASSERT_FALSE(ec);

  DiskStore::FileMeta meta;
  EXPECT_FALSE(store.OpenMeta("t.col", &meta).ok());
}

TEST(DiskStoreTest, ReadsV1FormatFiles) {
  // Hand-craft a v1 ("X100COL1") chunk file byte by byte: FOR payload, a
  // footer whose entries still have the zeroed reserved field where v2
  // stores the codec id. OpenMeta must read it and infer kFor from the
  // compressed flag; the ColumnBm read path must decode it.
  ScopedTempDir dir("x100_bm_test");
  std::vector<int32_t> vals(5000);
  for (size_t i = 0; i < vals.size(); i++) {
    vals[i] = 8035 + static_cast<int32_t>(i / 64);
  }
  Buffer enc;
  size_t enc_bytes = ForCodec::Encode(vals.data(), vals.size(), 4, &enc);

  struct V1Header {
    char magic[8];
    uint32_t version, flags, value_width, crc;
  } h{};
  std::memcpy(h.magic, DiskStore::kMagicV1, 8);
  h.version = DiskStore::kVersionV1;
  h.flags = DiskStore::kFlagCompressed;
  h.value_width = 4;
  h.crc = Crc32(&h, sizeof(h) - 4);
  struct V1Entry {
    uint64_t offset, bytes;
    int64_t value_count;
    uint32_t crc, reserved;
  } e{sizeof(h), enc_bytes, static_cast<int64_t>(vals.size()),
      Crc32(enc.data(), enc_bytes), 0};
  struct V1Tail {
    uint64_t num_blocks, footer_bytes;
    uint32_t crc;
    char magic[4];
  } tail{1, sizeof(e), Crc32(&e, sizeof(e)), {'X', 'F', 'T', 'R'}};

  std::FILE* f = std::fopen((dir.path() + "/old.cmp").c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(&h, sizeof(h), 1, f), 1u);
  ASSERT_EQ(std::fwrite(enc.data(), 1, enc_bytes, f), enc_bytes);
  ASSERT_EQ(std::fwrite(&e, sizeof(e), 1, f), 1u);
  ASSERT_EQ(std::fwrite(&tail, sizeof(tail), 1, f), 1u);
  ASSERT_EQ(std::fclose(f), 0);

  DiskStore store(dir.path());
  DiskStore::FileMeta meta;
  ASSERT_TRUE(store.OpenMeta("old.cmp", &meta).ok());
  EXPECT_TRUE(meta.compressed);
  ASSERT_EQ(meta.blocks.size(), 1u);
  EXPECT_EQ(meta.blocks[0].codec, CodecId::kFor);

  ColumnBm bm(ColumnBm::Options{.disk_dir = dir.path()});
  EXPECT_EQ(bm.BlockCodec("old.cmp", 0), CodecId::kFor);
  std::vector<int32_t> out(vals.size());
  ASSERT_EQ(bm.ReadDecompressed("old.cmp", 0, out.data()),
            static_cast<int64_t>(vals.size()));
  EXPECT_EQ(out, vals);
}

TEST(DiskStoreTest, RejectsUnknownCodecId) {
  ScopedTempDir dir("x100_bm_test");
  DiskStore store(dir.path());
  std::vector<int64_t> block(64, 9);
  Status s;
  auto w = store.NewFile("bad.cmp", /*compressed=*/true, 8, &s);
  ASSERT_NE(w, nullptr);
  ASSERT_TRUE(w->AppendBlock(block.data(), block.size() * 8, 64,
                             static_cast<CodecId>(200))
                  .ok());
  ASSERT_TRUE(w->Finish().ok());

  DiskStore::FileMeta meta;
  Status rs = store.OpenMeta("bad.cmp", &meta);
  EXPECT_FALSE(rs.ok());
  EXPECT_NE(rs.message().find("unknown codec id 200"), std::string::npos)
      << rs.message();
}

TEST(DiskStoreTest, ManifestRoundTrip) {
  ScopedTempDir dir("x100_bm_test");
  DiskStore store(dir.path());
  std::vector<DiskStore::ManifestEntry> entries(2);
  entries[0] = {"t.a.plain", 4096, 2, 0xDEADBEEF, false};
  entries[1] = {"t.b.for", 128, 1, 0x12345678, true};
  ASSERT_TRUE(store.WriteManifest("t", entries).ok());

  std::vector<DiskStore::ManifestEntry> got;
  ASSERT_TRUE(store.ReadManifest("t", &got).ok());
  ASSERT_EQ(got.size(), 2u);
  for (int i = 0; i < 2; i++) {
    EXPECT_EQ(got[i].file, entries[i].file);
    EXPECT_EQ(got[i].payload_bytes, entries[i].payload_bytes);
    EXPECT_EQ(got[i].num_blocks, entries[i].num_blocks);
    EXPECT_EQ(got[i].crc, entries[i].crc);
    EXPECT_EQ(got[i].compressed, entries[i].compressed);
  }

  // A tampered manifest fails its trailing checksum.
  std::FILE* f = std::fopen(store.PathFor("t.manifest").c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fseek(f, 32, SEEK_SET), 0);
  std::fputc('Z', f);
  std::fclose(f);
  EXPECT_FALSE(store.ReadManifest("t", &got).ok());
}

// ---- BufferPool ------------------------------------------------------------

TEST(BufferPoolTest, HitsMissesAndBudgetedEviction) {
  BufferPool pool(/*budget_bytes=*/64 << 10);
  auto load = [](int v) {
    return [v](void* dst) {
      auto* p = static_cast<int64_t*>(dst);
      for (int i = 0; i < 1024; i++) p[i] = v * 100000 + i;  // 8KB
      return Status::OK();
    };
  };

  // 16 distinct 8KB blocks through an 8-frame budget: evictions must occur
  // and residency must stay within budget (nothing is pinned afterwards).
  for (int round = 0; round < 2; round++) {
    for (int k = 0; k < 16; k++) {
      BufferPool::Pin pin;
      bool hit = true;
      ASSERT_TRUE(pool.GetOrLoad("blk" + std::to_string(k), 8 << 10, load(k),
                                 &pin, &hit)
                      .ok());
      const auto* p = static_cast<const int64_t*>(pin.data());
      EXPECT_EQ(p[0], k * 100000);
      EXPECT_EQ(p[1023], k * 100000 + 1023);
    }
    EXPECT_LE(pool.resident_bytes(), pool.budget_bytes());
  }
  BufferPool::Stats st = pool.stats();
  EXPECT_GT(st.evictions, 0u);
  EXPECT_GT(st.misses, 8u);  // second round re-misses evicted blocks
  EXPECT_EQ(st.read_bytes, st.misses * (8 << 10));
}

TEST(BufferPoolTest, PinnedFramesAreNotEvicted) {
  BufferPool pool(/*budget_bytes=*/16 << 10);  // two 8KB frames
  auto fill = [](char v) {
    return [v](void* dst) {
      std::memset(dst, v, 8 << 10);
      return Status::OK();
    };
  };
  BufferPool::Pin pinned;
  ASSERT_TRUE(pool.GetOrLoad("keep", 8 << 10, fill('K'), &pinned).ok());
  // Blow well past the budget while "keep" stays pinned.
  for (int k = 0; k < 8; k++) {
    BufferPool::Pin p;
    ASSERT_TRUE(
        pool.GetOrLoad("other" + std::to_string(k), 8 << 10, fill('o'), &p)
            .ok());
  }
  // The pinned payload is still intact and still a hit.
  const char* data = static_cast<const char*>(pinned.data());
  for (int i = 0; i < (8 << 10); i += 1024) EXPECT_EQ(data[i], 'K');
  bool hit = false;
  BufferPool::Pin again;
  ASSERT_TRUE(pool.GetOrLoad("keep", 8 << 10, fill('X'), &again, &hit).ok());
  EXPECT_TRUE(hit);
  EXPECT_EQ(static_cast<const char*>(again.data())[0], 'K');
}

TEST(BufferPoolTest, FailedLoadIsNotCached) {
  BufferPool pool(1 << 20);
  BufferPool::Pin pin;
  Status s = pool.GetOrLoad(
      "bad", 1024, [](void*) { return Status::Error("boom"); }, &pin);
  EXPECT_FALSE(s.ok());
  // Retry succeeds: the failed frame was un-cached.
  s = pool.GetOrLoad(
      "bad", 1024,
      [](void* dst) {
        std::memset(dst, 1, 1024);
        return Status::OK();
      },
      &pin);
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(static_cast<const char*>(pin.data())[7], 1);
}

TEST(BufferPoolTest, FailedLoadWaitersRetryInsteadOfAdoptingError) {
  // Regression: when a load failed while other threads were parked on the
  // same frame's rendezvous, the waiters used to adopt the loader's error
  // even though their own retry would have succeeded. Only the thread whose
  // loader actually failed may see the error; every waiter must re-lookup
  // and load the block successfully.
  BufferPool pool(1 << 20);
  constexpr int kThreads = 8;
  std::atomic<int> entered{0};
  std::atomic<int> attempts{0};
  std::atomic<int> failures{0}, successes{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&] {
      entered++;
      BufferPool::Pin pin;
      Status s = pool.GetOrLoad(
          "flaky", 4096,
          [&](void* dst) {
            if (attempts.fetch_add(1) == 0) {
              // First attempt: hold the frame loading until every other
              // thread has entered GetOrLoad (parking them on the
              // rendezvous), then fail.
              while (entered.load() < kThreads) std::this_thread::yield();
              std::this_thread::sleep_for(std::chrono::milliseconds(10));
              return Status::Error("injected transient fault");
            }
            std::memset(dst, 42, 4096);
            return Status::OK();
          },
          &pin);
      if (!s.ok()) {
        failures++;
      } else {
        successes++;
        EXPECT_EQ(static_cast<const char*>(pin.data())[4095], 42);
      }
    });
  }
  for (auto& th : threads) th.join();
  // Exactly the one injected fault surfaces; no waiter inherits it.
  EXPECT_EQ(failures.load(), 1);
  EXPECT_EQ(successes.load(), kThreads - 1);
  EXPECT_GE(pool.stats().load_retries, 1u);
}

TEST(BufferPoolTest, ConcurrentPinHammer) {
  // 4 threads hammer 12 distinct 4KB blocks through a 4-frame pool: every
  // read must observe fully loaded, un-corrupted payloads even while other
  // threads force eviction.
  BufferPool pool(/*budget_bytes=*/16 << 10);
  constexpr int kThreads = 4, kIters = 2000, kKeys = 12;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIters; i++) {
        int k = (i * (t + 7)) % kKeys;
        BufferPool::Pin pin;
        Status s = pool.GetOrLoad(
            "blk" + std::to_string(k), 4 << 10,
            [k](void* dst) {
              auto* p = static_cast<int32_t*>(dst);
              for (int j = 0; j < 1024; j++) p[j] = k * 10000 + j;
              return Status::OK();
            },
            &pin);
        if (!s.ok()) {
          failures++;
          continue;
        }
        const auto* p = static_cast<const int32_t*>(pin.data());
        for (int j = 0; j < 1024; j += 97) {
          if (p[j] != k * 10000 + j) failures++;
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  BufferPool::Stats st = pool.stats();
  EXPECT_GT(st.evictions, 0u);
  EXPECT_GT(st.hits, 0u);
}

// ---- SharedScanRegistry ----------------------------------------------------

TEST(SharedScanRegistryTest, AttacherReusesOwnersPayload) {
  SharedScanRegistry reg;
  SharedScanRegistry::Lease owner = reg.Acquire("f", 0);
  ASSERT_TRUE(owner.owner);
  SharedScanRegistry::Lease att = reg.Acquire("f", 0);
  ASSERT_FALSE(att.owner);
  ASSERT_TRUE(att.attached);
  EXPECT_EQ(att.block, owner.block);

  std::thread publisher([&] {
    owner.block->decoded_mode = true;
    owner.block->decoded = std::make_shared<std::vector<char>>(16, 'x');
    owner.block->count = 16;
    reg.Publish(owner);
  });
  std::string err;
  ASSERT_TRUE(reg.Wait(att, &err)) << err;
  EXPECT_EQ(att.block->count, 16);
  EXPECT_EQ(att.block->decoded->at(7), 'x');
  publisher.join();

  // A later Acquire while the payload is still referenced attaches too.
  SharedScanRegistry::Lease late = reg.Acquire("f", 0);
  EXPECT_TRUE(late.attached);
  EXPECT_TRUE(reg.Wait(late, &err));  // already resolved: returns at once

  // Once every scan drops its reference the entry expires: fresh owner.
  owner = {};
  att = {};
  late = {};
  SharedScanRegistry::Lease fresh = reg.Acquire("f", 0);
  EXPECT_TRUE(fresh.owner);
}

TEST(SharedScanRegistryTest, OwnerFailureWakesAttachersForFallback) {
  SharedScanRegistry reg;
  SharedScanRegistry::Lease owner = reg.Acquire("f", 1);
  SharedScanRegistry::Lease att = reg.Acquire("f", 1);
  std::thread failer([&] { reg.Fail(owner, "injected disk error"); });
  std::string err;
  EXPECT_FALSE(reg.Wait(att, &err));
  EXPECT_EQ(err, "injected disk error");
  failer.join();
  // Fail() unregistered the key even while `att` still holds the old
  // block, so a retry starts fresh instead of attaching to the corpse.
  SharedScanRegistry::Lease retry = reg.Acquire("f", 1);
  EXPECT_TRUE(retry.owner);
}

TEST(SharedScanRegistryTest, DistinctBlocksDoNotShare) {
  SharedScanRegistry reg;
  SharedScanRegistry::Lease a = reg.Acquire("f", 0);
  SharedScanRegistry::Lease b = reg.Acquire("f", 1);
  SharedScanRegistry::Lease c = reg.Acquire("g", 0);
  EXPECT_TRUE(a.owner);
  EXPECT_TRUE(b.owner);
  EXPECT_TRUE(c.owner);
  reg.Publish(a);
  reg.Publish(b);
  reg.Publish(c);
}

// ---- ColumnBm disk backend -------------------------------------------------

TEST(ColumnBmDiskTest, StoreReadRoundTripAndPersistence) {
  ScopedTempDir dir("x100_bm_test");
  Column col(TypeId::kI64);
  for (int64_t i = 0; i < 300000; i++) col.AppendI64(i);  // 2.4MB -> 3 blocks

  {
    ColumnBm bm(ColumnBm::Options{.disk_dir = dir.path()});
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
    ASSERT_TRUE(bm.WriteTableManifest("t", {"t.col"}).ok());
  }

  // A fresh instance over the same directory serves the same blocks from
  // the files alone (footer metadata, no in-memory state).
  ColumnBm bm2(ColumnBm::Options{.disk_dir = dir.path()});
  EXPECT_TRUE(bm2.Contains("t.col"));
  EXPECT_EQ(bm2.NumBlocks("t.col"), 3);
  ColumnBm::BlockRef ref = bm2.ReadBlock("t.col", 2);
  const int64_t* vals = static_cast<const int64_t*>(ref.data);
  EXPECT_EQ(vals[0], 2 * (1 << 20) / 8);  // first value of the third block
  EXPECT_FALSE(ref.cache_hit);            // cold pool
  ColumnBm::BlockRef ref2 = bm2.ReadBlock("t.col", 2);
  EXPECT_TRUE(ref2.cache_hit);
}

TEST(ColumnBmDiskTest, CompressedRoundTripAndAccounting) {
  ScopedTempDir dir("x100_bm_test");
  Column col(TypeId::kDate);
  for (int i = 0; i < 300000; i++) col.AppendI64(8035 + i / 100);
  ColumnBm bm(ColumnBm::Options{.disk_dir = dir.path()});
  size_t comp = bm.StoreCompressed("comp", col);
  EXPECT_LT(comp, col.bytes() / 2);
  EXPECT_EQ(bm.FileBytes("comp"), static_cast<int64_t>(comp));

  bm.ResetStats();
  std::vector<int32_t> out(1 << 16);
  int64_t seen = 0;
  for (int64_t b = 0; b < bm.NumBlocks("comp"); b++) {
    EXPECT_EQ(bm.CompressedBlockCount("comp", b),
              std::min<int64_t>(1 << 16, col.size() - seen));
    int64_t n = bm.ReadDecompressed("comp", b, out.data());
    for (int64_t i = 0; i < n; i++) {
      ASSERT_EQ(out[i], static_cast<int32_t>(col.GetI64(seen + i)));
    }
    seen += n;
  }
  EXPECT_EQ(seen, col.size());
  // Logical I/O accounting counts compressed bytes only.
  EXPECT_EQ(bm.bytes_read(), static_cast<int64_t>(comp));
}

TEST(ColumnBmDiskTest, TinyPoolForcesEvictionButStaysCorrect) {
  ScopedTempDir dir("x100_bm_test");
  Column col(TypeId::kI64);
  for (int64_t i = 0; i < 500000; i++) col.AppendI64(i * 3);  // 4MB -> 4 blocks
  // Pool holds barely one 1MB block: every sequential pass re-reads.
  ColumnBm bm(ColumnBm::Options{
      .disk_dir = dir.path(), .pool_bytes = (1 << 20) + (64 << 10)});
  bm.Store("t.c", col);
  for (int pass = 0; pass < 2; pass++) {
    int64_t expect = 0;
    for (int64_t b = 0; b < bm.NumBlocks("t.c"); b++) {
      ColumnBm::BlockRef ref = bm.ReadBlock("t.c", b);
      const int64_t* vals = static_cast<const int64_t*>(ref.data);
      for (size_t i = 0; i < ref.bytes / 8; i++) {
        ASSERT_EQ(vals[i], expect * 3);
        expect++;
      }
    }
    ASSERT_EQ(expect, 500000);
  }
  ASSERT_NE(bm.pool(), nullptr);
  EXPECT_GT(bm.pool()->stats().evictions, 0u);
  EXPECT_LE(bm.pool()->resident_bytes(), bm.pool()->budget_bytes());
}

// ---- Acceptance: one plan per query over RAM and over ColumnBM blocks ------

class DiskQueryTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    DbgenOptions opts;
    opts.scale_factor = 0.01;
    db_ = GenerateTpch(opts).release();
  }
  static Catalog* db_;
};

Catalog* DiskQueryTest::db_ = nullptr;

TEST_F(DiskQueryTest, AllQueriesMatchAcrossBackends) {
  // The same 22 plans, once over RAM fragments and once with the context's
  // block source serving every catalog table from disk blocks. Serial plans
  // are operator-for-operator identical (the block path skips summary-index
  // pruning, but each plan's Select applies the exact predicate), so results
  // are bit-identical (eps 0). The pool budget comes from env X100_BM_BYTES,
  // so the CI disk job runs this sweep under eviction pressure.
  for (bool compress : {false, true}) {
    ScopedTempDir dir("x100_bm_test");
    ColumnBm bm(ColumnBm::Options{.disk_dir = dir.path()});
    for (int q = 1; q <= kNumTpchQueries; q++) {
      SCOPED_TRACE("q" + std::to_string(q) + (compress ? " compress" : ""));
      ExecContext ram_ctx;
      std::unique_ptr<Table> ram = RunX100Query(q, &ram_ctx, *db_);
      QueryTrace trace;
      ExecContext ctx;
      ctx.trace = &trace;
      ctx.blocks = {&bm, db_, compress};
      std::unique_ptr<Table> disk = RunX100Query(q, &ctx, *db_);
      ExpectTablesEqual(*ram, *disk, 0.0);
      EXPECT_NE(trace.ToString().find("BmScan"), std::string::npos);
    }
  }
}

TEST_F(DiskQueryTest, WarmAndParallelRunsMatch) {
  // The plans with an Exchange variant: a warm-pool rerun stays
  // bit-identical, and 4 workers over the same disk files match within the
  // relative tolerance the serial-vs-parallel tests use (workers
  // partial-aggregate their morsels, so double sums change order).
  for (int q : {1, 3, 6, 14}) {
    for (bool compress : {false, true}) {
      SCOPED_TRACE("q" + std::to_string(q) + (compress ? " compress" : ""));
      ScopedTempDir dir("x100_bm_test");
      ExecContext ram_ctx;
      std::unique_ptr<Table> ram = RunX100Query(q, &ram_ctx, *db_);
      // Pool budget pinned (not env X100_BM_BYTES): the warm-run hit
      // assertion needs the working set to fit.
      ColumnBm bm(ColumnBm::Options{.disk_dir = dir.path(),
                                    .pool_bytes = 64 << 20});
      ExecContext ctx;
      ctx.blocks = {&bm, db_, compress};
      std::unique_ptr<Table> cold = RunX100Query(q, &ctx, *db_);
      ExpectTablesEqual(*ram, *cold, 0.0);
      std::unique_ptr<Table> warm = RunX100Query(q, &ctx, *db_);
      ExpectTablesEqual(*ram, *warm, 0.0);
      EXPECT_GT(bm.pool()->stats().hits, 0u);

      ExecContext pctx;
      pctx.num_threads = 4;
      pctx.blocks = ctx.blocks;
      std::unique_ptr<Table> par = RunX100Query(q, &pctx, *db_);
      ExpectTablesEqual(*ram, *par);
    }
  }
}

TEST_F(DiskQueryTest, DiskScanSurvivesEvictionPressure) {
  // Q6 with small blocks and a pool far smaller than the working set: the
  // scan must stream through eviction and still match.
  ScopedTempDir dir("x100_bm_test");
  ExecContext ram_ctx;
  std::unique_ptr<Table> ram = RunX100Query(6, &ram_ctx, *db_);
  ColumnBm bm(ColumnBm::Options{.block_size = 64 << 10,
                                .disk_dir = dir.path(),
                                .pool_bytes = 256 << 10});
  ExecContext ctx;
  ctx.blocks = {&bm, db_};
  std::unique_ptr<Table> disk = RunX100Query(6, &ctx, *db_);
  ExpectTablesEqual(*ram, *disk, 0.0);
  EXPECT_GT(bm.pool()->stats().evictions, 0u);

  ExecContext pctx;
  pctx.num_threads = 4;
  pctx.blocks = ctx.blocks;
  std::unique_ptr<Table> par = RunX100Query(6, &pctx, *db_);
  ExpectTablesEqual(*ram, *par);
}

TEST_F(DiskQueryTest, EveryPinnedCodecIsBitIdenticalOnQ1AndQ6) {
  // Q1/Q6 results must not depend on which codec served the blocks — cold
  // pool, warm pool, and morsel-parallel.
  for (int q : {1, 6}) {
    ExecContext ram_ctx;
    std::unique_ptr<Table> ram = RunX100Query(q, &ram_ctx, *db_);
    for (CodecId codec : {CodecId::kFor, CodecId::kPdict, CodecId::kRle,
                          CodecId::kPforDelta}) {
      SCOPED_TRACE(std::string("q") + std::to_string(q) + " codec=" +
                   Codec::Name(codec));
      ScopedTempDir dir("x100_bm_test");
      ColumnBm bm(ColumnBm::Options{.disk_dir = dir.path(),
                                    .pool_bytes = 64 << 20});
      ExecContext ctx;
      ctx.blocks = {&bm, db_, true, codec};
      std::unique_ptr<Table> cold = RunX100Query(q, &ctx, *db_);
      ExpectTablesEqual(*ram, *cold, 0.0);
      std::unique_ptr<Table> warm = RunX100Query(q, &ctx, *db_);
      ExpectTablesEqual(*ram, *warm, 0.0);
      ExecContext pctx;
      pctx.num_threads = 4;
      pctx.blocks = ctx.blocks;
      std::unique_ptr<Table> par = RunX100Query(q, &pctx, *db_);
      ExpectTablesEqual(*ram, *par);
    }
  }
}

TEST_F(DiskQueryTest, TraceShowsCodecCounters) {
  // A compressed disk Q6 must report per-codec staging counters on the
  // BmScan trace node.
  ScopedTempDir dir("x100_bm_test");
  QueryTrace trace;
  ExecContext ctx;
  ctx.trace = &trace;
  ColumnBm bm(ColumnBm::Options{.disk_dir = dir.path()});
  ctx.blocks = {&bm, db_, true, CodecId::kFor};
  std::unique_ptr<Table> r = RunX100Query(6, &ctx, *db_);
  ASSERT_EQ(r->num_rows(), 1);
  std::string txt = trace.ToString();
  EXPECT_NE(txt.find("codec.for.blocks"), std::string::npos) << txt;
  EXPECT_NE(txt.find("codec.for.bytes"), std::string::npos) << txt;
}

TEST_F(DiskQueryTest, TraceShowsPrefetchAndPoolCounters) {
  ScopedTempDir dir("x100_bm_test");
  QueryTrace trace;
  ExecContext ctx;
  ctx.trace = &trace;
  ColumnBm bm(ColumnBm::Options{.disk_dir = dir.path()});
  ctx.blocks = {&bm, db_};
  std::unique_ptr<Table> r = RunX100Query(6, &ctx, *db_);
  ASSERT_EQ(r->num_rows(), 1);
  std::string txt = trace.ToString();
  EXPECT_NE(txt.find("BmScan"), std::string::npos) << txt;
  EXPECT_NE(txt.find("prefetch.hits"), std::string::npos) << txt;
  EXPECT_NE(txt.find("pool.misses"), std::string::npos) << txt;
  std::string json = trace.ToJson();
  EXPECT_NE(json.find("prefetch.scheduled"), std::string::npos) << json;
}

}  // namespace
}  // namespace x100
