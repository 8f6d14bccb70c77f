// Tests for epoch-based MVCC snapshots (storage/snapshot.h) and the durable
// store built on them (storage/durable.h): snapshot isolation, fenced
// structural changes, order-preserving merge, join-index maintenance on
// append, WAL recovery and checkpointing, concurrent readers vs writers
// (the TSan target), and — the vector-boundary regression suite — deletion
// lists straddling 1024-tuple vector edges, bit-identical to a
// pre-materialized reference.

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "exec/operator.h"
#include "storage/catalog.h"
#include "storage/columnbm.h"
#include "storage/durable.h"
#include "storage/snapshot.h"
#include "tests/test_util.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"

namespace x100 {
namespace {

using testing::ExpectTablesEqual;
using testing::ScopedTempDir;

// ---- MvccTable on a small hand-built table ---------------------------------

std::unique_ptr<Catalog> MakeEmpBase() {
  auto cat = std::make_unique<Catalog>();
  Table* dept = cat->AddTable(
      "dept", {{"d_id", TypeId::kI64, false},
               {"d_name", TypeId::kStr, /*enum_encoded=*/true}});
  for (int64_t i = 0; i < 8; i++) {
    dept->AppendRow({Value::I64(i), Value::Str("d" + std::to_string(i))});
  }
  dept->Freeze();
  Table* emp = cat->AddTable("emp", {{"e_id", TypeId::kI64, false},
                                     {"e_dept", TypeId::kI64, false},
                                     {"e_pay", TypeId::kF64, false}});
  for (int64_t i = 0; i < 100; i++) {
    emp->AppendRow({Value::I64(i), Value::I64(i % 8), Value::F64(1.5 * i)});
  }
  emp->Freeze();
  return cat;
}

TEST(MvccTableTest, PinnedSnapshotIsStableWhileWriterMutates) {
  std::unique_ptr<Catalog> cat = MakeEmpBase();
  MvccTable m(cat->Find("emp"), /*reserve_delta_rows=*/64);

  std::shared_ptr<const TableSnapshot> s0 = m.Pin();
  EXPECT_EQ(s0->total_rows, 100);
  EXPECT_EQ(s0->fragment_rows, 100);
  EXPECT_TRUE(s0->deleted->empty());

  ASSERT_TRUE(
      m.Append({Value::I64(100), Value::I64(3), Value::F64(7.0)}).ok());
  ASSERT_TRUE(m.Delete(5).ok());

  // The old pin still describes the pre-mutation world...
  EXPECT_EQ(s0->total_rows, 100);
  EXPECT_TRUE(s0->deleted->empty());
  // ...while a fresh pin sees both changes, at a later epoch.
  std::shared_ptr<const TableSnapshot> s1 = m.Pin();
  EXPECT_GT(s1->epoch, s0->epoch);
  EXPECT_EQ(s1->total_rows, 101);
  ASSERT_EQ(s1->deleted->size(), 1u);
  EXPECT_EQ((*s1->deleted)[0], 5);
  EXPECT_EQ(m.table()->GetValue(100, 2).AsF64(), 7.0);
}

TEST(MvccTableTest, AppendBeyondReservedCapacityGrowsBehindFence) {
  std::unique_ptr<Catalog> cat = MakeEmpBase();
  MvccTable m(cat->Find("emp"), /*reserve_delta_rows=*/4);
  for (int64_t i = 0; i < 1000; i++) {
    ASSERT_TRUE(
        m.Append({Value::I64(100 + i), Value::I64(i % 8), Value::F64(2.0 * i)})
            .ok());
  }
  std::shared_ptr<const TableSnapshot> s = m.Pin();
  EXPECT_EQ(s->total_rows, 1100);
  for (int64_t i = 0; i < 1000; i += 97) {
    EXPECT_EQ(m.table()->GetValue(100 + i, 0).AsI64(), 100 + i);
    EXPECT_EQ(m.table()->GetValue(100 + i, 2).AsF64(), 2.0 * i);
  }
}

TEST(MvccTableTest, EnumDictionaryWidensPastU8Codes) {
  auto cat = std::make_unique<Catalog>();
  Table* t = cat->AddTable(
      "tags", {{"id", TypeId::kI64, false},
               {"tag", TypeId::kStr, /*enum_encoded=*/true}});
  t->AppendRow({Value::I64(0), Value::Str("tag-0")});
  t->Freeze();
  MvccTable m(t, /*reserve_delta_rows=*/64);
  // 400 distinct values blow through the 256-entry u8 code space; the dict
  // widening is a fenced structural change and must keep old codes readable.
  for (int64_t i = 1; i < 400; i++) {
    ASSERT_TRUE(
        m.Append({Value::I64(i), Value::Str("tag-" + std::to_string(i))})
            .ok());
  }
  for (int64_t i = 0; i < 400; i += 37) {
    EXPECT_EQ(m.table()->GetValue(i, 1).AsStr(), "tag-" + std::to_string(i));
  }
}

TEST(MvccTableTest, MergeFoldsDeltasInOrderAndBumpsFragmentVersion) {
  std::unique_ptr<Catalog> cat = MakeEmpBase();
  Table* emp = cat->Find("emp");
  MvccTable m(emp, /*reserve_delta_rows=*/64);
  for (int64_t i = 0; i < 10; i++) {
    ASSERT_TRUE(
        m.Append({Value::I64(100 + i), Value::I64(0), Value::F64(i)}).ok());
  }
  ASSERT_TRUE(m.Delete(0).ok());
  ASSERT_TRUE(m.Delete(99).ok());
  ASSERT_TRUE(m.Delete(105).ok());  // a delta row

  ASSERT_TRUE(m.Merge().ok());
  std::shared_ptr<const TableSnapshot> s = m.Pin();
  EXPECT_EQ(s->fragment_version, 1);
  EXPECT_EQ(s->fragment_rows, 107);  // 110 minus three deletions
  EXPECT_EQ(s->total_rows, 107);
  EXPECT_TRUE(s->deleted->empty());
  // Survivors keep their relative order: old row 1 is new row 0, and the
  // delta rows follow the fragment with row 105 (e_id 105) gone.
  EXPECT_EQ(emp->GetValue(0, 0).AsI64(), 1);
  EXPECT_EQ(emp->GetValue(97, 0).AsI64(), 98);
  EXPECT_EQ(emp->GetValue(98, 0).AsI64(), 100);
  EXPECT_EQ(emp->GetValue(102, 0).AsI64(), 104);
  EXPECT_EQ(emp->GetValue(103, 0).AsI64(), 106);
}

TEST(MvccTableTest, AppendMaintainsJoinIndexAndRejectsDanglingFk) {
  std::unique_ptr<Catalog> cat = MakeEmpBase();
  Table* emp = cat->Find("emp");
  Table* dept = cat->Find("dept");
  ASSERT_TRUE(emp->BuildJoinIndex("e_dept", *dept, "d_id").ok());
  int ji = emp->ColumnIndex(Table::JoinIndexName("dept"));
  ASSERT_GE(ji, 0);

  MvccTable m(emp, /*reserve_delta_rows=*/64);
  m.RegisterJoinIndex({"e_dept"}, dept, {"d_id"}, "dept");
  ASSERT_TRUE(
      m.Append({Value::I64(100), Value::I64(6), Value::F64(1.0)}).ok());
  EXPECT_EQ(emp->GetValue(100, ji).AsI64(), 6);  // dept d_id=6 is rowid 6

  Status s = m.Append({Value::I64(101), Value::I64(42), Value::F64(1.0)});
  EXPECT_FALSE(s.ok()) << "dangling fk must be rejected";
}

// ---- DurableStore: WAL recovery, checkpoint, merge replay ------------------

DurableStore::Options StoreOpts(const std::string& dir) {
  DurableStore::Options o;
  o.wal_dir = dir;
  o.group_commit_us = 0;
  o.merge_threshold_rows = 1 << 20;
  o.background_merge = false;
  return o;
}

std::unique_ptr<DurableStore> OpenEmpStore(const DurableStore::Options& o) {
  std::string error;
  auto store = DurableStore::Open(o, MakeEmpBase(), &error);
  EXPECT_NE(store, nullptr) << error;
  if (store == nullptr) return nullptr;
  X100_CHECK_OK(store->RegisterJoinIndex("emp", {"e_dept"}, "dept", {"d_id"}));
  X100_CHECK_OK(store->Recover());
  return store;
}

TEST(DurableStoreTest, RecoverReplaysAcknowledgedWritesOverBase) {
  ScopedTempDir dir("x100_durable_test");
  DurableStore::Options opts = StoreOpts(dir.path());
  {
    auto store = OpenEmpStore(opts);
    ASSERT_NE(store, nullptr);
    uint64_t lsn = 0;
    for (int64_t i = 0; i < 50; i++) {
      ASSERT_TRUE(store
                      ->Append("emp",
                               {Value::I64(100 + i), Value::I64(i % 8),
                                Value::F64(3.0 * i)},
                               /*durable=*/true, &lsn)
                      .ok());
    }
    ASSERT_TRUE(store->Delete("emp", 7, /*durable=*/true, &lsn).ok());
    EXPECT_GT(lsn, 0u);
  }  // "crash": the store goes away without checkpoint or clean shutdown

  auto store = OpenEmpStore(opts);
  ASSERT_NE(store, nullptr);
  const Table* emp = store->catalog()->Find("emp");
  ASSERT_NE(emp, nullptr);
  EXPECT_EQ(emp->total_rows(), 150);
  EXPECT_TRUE(emp->IsDeleted(7));
  int ji = emp->ColumnIndex(Table::JoinIndexName("dept"));
  ASSERT_GE(ji, 0);
  for (int64_t i = 0; i < 50; i += 7) {
    EXPECT_EQ(emp->GetValue(100 + i, 0).AsI64(), 100 + i);
    EXPECT_EQ(emp->GetValue(100 + i, 2).AsF64(), 3.0 * i);
    EXPECT_EQ(emp->GetValue(100 + i, ji).AsI64(), i % 8);
  }
}

TEST(DurableStoreTest, CheckpointShortensReplayAndSurvivesReopen) {
  ScopedTempDir dir("x100_durable_test");
  DurableStore::Options opts = StoreOpts(dir.path());
  {
    auto store = OpenEmpStore(opts);
    ASSERT_NE(store, nullptr);
    uint64_t lsn = 0;
    for (int64_t i = 0; i < 20; i++) {
      ASSERT_TRUE(store
                      ->Append("emp",
                               {Value::I64(100 + i), Value::I64(0),
                                Value::F64(i)},
                               true, &lsn)
                      .ok());
    }
    ASSERT_TRUE(store->Checkpoint().ok());
    // Post-checkpoint writes land in the fresh WAL.
    for (int64_t i = 20; i < 30; i++) {
      ASSERT_TRUE(store
                      ->Append("emp",
                               {Value::I64(100 + i), Value::I64(0),
                                Value::F64(i)},
                               true, &lsn)
                      .ok());
    }
  }
  auto store = OpenEmpStore(opts);
  ASSERT_NE(store, nullptr);
  EXPECT_GT(store->image_lsn(), 0u) << "checkpoint image not picked up";
  const Table* emp = store->catalog()->Find("emp");
  EXPECT_EQ(emp->total_rows(), 130);
  for (int64_t i = 0; i < 30; i += 3) {
    EXPECT_EQ(emp->GetValue(100 + i, 0).AsI64(), 100 + i);
  }
}

TEST(DurableStoreTest, MergeReplaysDeterministically) {
  ScopedTempDir dir("x100_durable_test");
  DurableStore::Options opts = StoreOpts(dir.path());
  opts.merge_threshold_rows = 8;
  auto Check = [](const Table* emp) {
    EXPECT_EQ(emp->fragment_version(), 1);
    EXPECT_EQ(emp->total_rows(), 119);  // 100 base + 20 appended - 1 deleted
    EXPECT_EQ(emp->delta_rows(), 0);
    EXPECT_EQ(emp->GetValue(0, 0).AsI64(), 0);
    EXPECT_EQ(emp->GetValue(2, 0).AsI64(), 3);  // rowid 2 was deleted
    EXPECT_EQ(emp->GetValue(118, 0).AsI64(), 119);
  };
  {
    auto store = OpenEmpStore(opts);
    ASSERT_NE(store, nullptr);
    uint64_t lsn = 0;
    for (int64_t i = 0; i < 20; i++) {
      ASSERT_TRUE(store
                      ->Append("emp",
                               {Value::I64(100 + i), Value::I64(i % 8),
                                Value::F64(i)},
                               true, &lsn)
                      .ok());
    }
    ASSERT_TRUE(store->Delete("emp", 2, true, &lsn).ok());
    // emp has a join index INTO dept but nothing points at emp, so it is
    // merge-eligible; dept (a target) must never merge in the background.
    EXPECT_EQ(store->MergeIfNeeded(), 1);
    Check(store->catalog()->Find("emp"));
  }
  // Replay re-runs the logged merge; the recovered fragments are
  // bit-identical, rowids included.
  auto store = OpenEmpStore(opts);
  ASSERT_NE(store, nullptr);
  Check(store->catalog()->Find("emp"));
}

// ---- Concurrency: epoch-consistent snapshots under load (TSan target) ------

TEST(DurableStoreTest, ConcurrentReadersSeeEpochConsistentSnapshots) {
  ScopedTempDir dir("x100_snapshot_tpch");
  DbgenOptions gen;
  gen.scale_factor = 0.005;
  std::string error;
  DurableStore::Options opts;
  opts.wal_dir = dir.path();
  opts.group_commit_us = 100;
  opts.merge_threshold_rows = 1 << 20;  // keep rowids stable for the check
  opts.background_merge = false;
  auto store = DurableStore::Open(opts, GenerateTpch(gen), &error);
  ASSERT_NE(store, nullptr) << error;
  X100_CHECK_OK(store->RegisterJoinIndex("lineitem", {"l_orderkey"}, "orders",
                                         {"o_orderkey"}));
  X100_CHECK_OK(store->RegisterJoinIndex("lineitem", {"l_partkey"}, "part",
                                         {"p_partkey"}));
  X100_CHECK_OK(store->RegisterJoinIndex("lineitem", {"l_suppkey"}, "supplier",
                                         {"s_suppkey"}));
  X100_CHECK_OK(store->RegisterJoinIndex("lineitem",
                                         {"l_partkey", "l_suppkey"},
                                         "partsupp",
                                         {"ps_partkey", "ps_suppkey"}));
  X100_CHECK_OK(store->Recover());

  const Table* li = store->catalog()->Find("lineitem");
  const int64_t base_rows = li->total_rows();
  const int num_declared = static_cast<int>(li->specs().size());

  // Writer: append copies of existing rows (valid fks by construction).
  constexpr int kAppends = 400;
  std::thread writer([&] {
    for (int i = 0; i < kAppends; i++) {
      std::vector<Value> row;
      row.reserve(static_cast<size_t>(num_declared));
      int64_t src = i % base_rows;
      for (int c = 0; c < num_declared; c++) {
        row.push_back(li->GetValue(src, c));
      }
      uint64_t lsn = 0;
      Status s = store->Append("lineitem", row, /*durable=*/(i % 8 == 0),
                               &lsn);
      EXPECT_TRUE(s.ok()) << s.message();
    }
  });

  // Readers: under one pinned set, a query must be repeatable bit-for-bit
  // no matter what the writer does meanwhile.
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; r++) {
    readers.emplace_back([&, r] {
      int64_t last_total = 0;
      for (int iter = 0; iter < 6; iter++) {
        std::shared_ptr<SnapshotSet> snaps = store->PinAll();
        const TableSnapshot* snap = snaps->Find("lineitem");
        ASSERT_NE(snap, nullptr);
        // Published high-water never moves backwards.
        EXPECT_GE(snap->total_rows, last_total);
        last_total = snap->total_rows;
        ExecContext ctx;
        ctx.snapshots = snaps.get();
        std::unique_ptr<Table> a =
            RunX100Query(r % 2 == 0 ? 6 : 1, &ctx, *store->catalog());
        std::unique_ptr<Table> b =
            RunX100Query(r % 2 == 0 ? 6 : 1, &ctx, *store->catalog());
        ExpectTablesEqual(*a, *b, /*eps=*/0.0);
      }
    });
  }
  writer.join();
  for (std::thread& t : readers) t.join();

  std::shared_ptr<SnapshotSet> fin = store->PinAll();
  EXPECT_EQ(fin->Find("lineitem")->total_rows, base_rows + kAppends);
}

// ---- Deletion lists at vector boundaries (Q1/Q6, scan + BmScan paths) ------

class DeletionBoundaryTest : public ::testing::Test {
 protected:
  static std::unique_ptr<Catalog> MakeDb() {
    DbgenOptions gen;
    gen.scale_factor = 0.01;
    return GenerateTpch(gen);
  }

  /// Rowids chosen to straddle 1024-tuple vector edges: both edges of the
  /// first vector, both sides of an interior boundary, one ENTIRE vector
  /// ([4096, 5120)), the table's final row, and the same edge pattern around
  /// a mid-table boundary — lineitem is date-clustered, so only mid-table
  /// rows land in the 1994/1995 windows Q6 and Q14 filter on.
  static std::vector<int64_t> BoundaryRowids(int64_t n) {
    std::vector<int64_t> ids = {0, 1023, 1024, 2047, 2048, n - 1};
    for (int64_t r = 4 * 1024; r < 5 * 1024; r++) ids.push_back(r);
    int64_t mid = (n / 2) / 1024 * 1024;
    for (int64_t r : {mid - 1, mid, mid + 1023, mid + 1024}) ids.push_back(r);
    return ids;
  }
};

TEST_F(DeletionBoundaryTest, Q1Q6BitIdenticalToPreMaterializedReference) {
  std::unique_ptr<Catalog> live = MakeDb();      // deletions via MVCC
  std::unique_ptr<Catalog> plain = MakeDb();     // deletions via live deltas
  std::unique_ptr<Catalog> reference = MakeDb(); // deletions materialized
  Table* li = live->Find("lineitem");
  const int64_t n = li->total_rows();
  const std::vector<int64_t> doomed = BoundaryRowids(n);

  MvccTable m(li, /*reserve_delta_rows=*/1024);
  for (int64_t r : doomed) {
    ASSERT_TRUE(m.Delete(r).ok());
    ASSERT_TRUE(plain->Find("lineitem")->Delete(r).ok());
    ASSERT_TRUE(reference->Find("lineitem")->Delete(r).ok());
  }
  reference->Find("lineitem")->Reorganize();  // no deltas, fresh rowids

  SnapshotSet snaps;
  snaps.tables["lineitem"] = m.Pin();
  for (int q : {1, 6}) {
    ExecContext ref_ctx;
    std::unique_ptr<Table> want = RunX100Query(q, &ref_ctx, *reference);

    // Live-table delta path (single-writer mode, no snapshot).
    ExecContext plain_ctx;
    std::unique_ptr<Table> got_plain = RunX100Query(q, &plain_ctx, *plain);
    ExpectTablesEqual(*want, *got_plain, /*eps=*/0.0);

    // MVCC snapshot path, in-memory ScanOp.
    ExecContext mvcc_ctx;
    mvcc_ctx.snapshots = &snaps;
    std::unique_ptr<Table> got_mvcc = RunX100Query(q, &mvcc_ctx, *live);
    ExpectTablesEqual(*want, *got_mvcc, /*eps=*/0.0);

    // MVCC snapshot path, disk-backed BmScanOp.
    ScopedTempDir disk("x100_delbound");
    ColumnBm bm(ColumnBm::Options{.disk_dir = disk.path()});
    ExecContext disk_ctx = mvcc_ctx;
    disk_ctx.blocks = {&bm, live.get()};
    std::unique_ptr<Table> got_disk = RunX100Query(q, &disk_ctx, *live);
    ExpectTablesEqual(*want, *got_disk, /*eps=*/0.0);
  }
}

TEST_F(DeletionBoundaryTest, DeletedDeltaRowsCompactAcrossTheFragmentEdge) {
  std::unique_ptr<Catalog> live = MakeDb();
  std::unique_ptr<Catalog> reference = MakeDb();
  Table* li = live->Find("lineitem");
  Table* ref_li = reference->Find("lineitem");
  const int64_t frag = li->total_rows();
  const int num_declared = static_cast<int>(li->specs().size());
  const int num_cols = li->num_columns();

  MvccTable m(li, /*reserve_delta_rows=*/64);
  m.RegisterJoinIndex({"l_orderkey"}, live->Find("orders"),
                      {"o_orderkey"}, "orders");
  m.RegisterJoinIndex({"l_partkey"}, live->Find("part"), {"p_partkey"},
                      "part");
  m.RegisterJoinIndex({"l_suppkey"}, live->Find("supplier"),
                      {"s_suppkey"}, "supplier");
  m.RegisterJoinIndex({"l_partkey", "l_suppkey"}, live->Find("partsupp"),
                      {"ps_partkey", "ps_suppkey"}, "partsupp");

  // Append 10 copied rows; delete the fragment's last row, the first and
  // last delta rows, and one in the middle. The survivors must read back
  // through both the fragment->delta transition and delta-tail compaction.
  for (int64_t i = 0; i < 10; i++) {
    std::vector<Value> row;
    for (int c = 0; c < num_declared; c++) {
      row.push_back(li->GetValue(i * 37, c));
    }
    ASSERT_TRUE(m.Append(row).ok());
    std::vector<Value> full;
    for (int c = 0; c < num_cols; c++) {
      full.push_back(ref_li->GetValue(i * 37, c));
    }
    ref_li->Insert(full);
  }
  for (int64_t r : {frag - 1, frag, frag + 5, frag + 9}) {
    ASSERT_TRUE(m.Delete(r).ok());
    ASSERT_TRUE(ref_li->Delete(r).ok());
  }
  ref_li->Reorganize();

  SnapshotSet snaps;
  snaps.tables["lineitem"] = m.Pin();
  for (int q : {1, 6}) {
    ExecContext ref_ctx;
    std::unique_ptr<Table> want = RunX100Query(q, &ref_ctx, *reference);
    ExecContext mvcc_ctx;
    mvcc_ctx.snapshots = &snaps;
    std::unique_ptr<Table> got = RunX100Query(q, &mvcc_ctx, *live);
    ExpectTablesEqual(*want, *got, /*eps=*/0.0);

    ScopedTempDir disk("x100_delbound_delta");
    ColumnBm bm(ColumnBm::Options{.disk_dir = disk.path()});
    ExecContext disk_ctx = mvcc_ctx;
    disk_ctx.blocks = {&bm, live.get()};
    std::unique_ptr<Table> got_disk = RunX100Query(q, &disk_ctx, *live);
    ExpectTablesEqual(*want, *got_disk, /*eps=*/0.0);
  }
}

TEST_F(DeletionBoundaryTest, OldPinStillSeesPreDeleteWorld) {
  std::unique_ptr<Catalog> live = MakeDb();
  Table* li = live->Find("lineitem");
  MvccTable m(li, /*reserve_delta_rows=*/64);

  SnapshotSet before;
  before.tables["lineitem"] = m.Pin();
  ExecContext ctx0;
  ctx0.snapshots = &before;
  std::unique_ptr<Table> pristine = RunX100Query(1, &ctx0, *live);

  for (int64_t r : BoundaryRowids(li->total_rows())) {
    ASSERT_TRUE(m.Delete(r).ok());
  }

  // The pre-delete pin replays the pristine result bit-for-bit; a fresh pin
  // does not (over a thousand rows left Q1's counts).
  std::unique_ptr<Table> replay = RunX100Query(1, &ctx0, *live);
  ExpectTablesEqual(*pristine, *replay, /*eps=*/0.0);

  SnapshotSet after;
  after.tables["lineitem"] = m.Pin();
  ExecContext ctx1;
  ctx1.snapshots = &after;
  std::unique_ptr<Table> mutated = RunX100Query(1, &ctx1, *live);
  auto total_count = [](const Table& t) {
    int64_t total = 0;
    int count_col = t.num_columns() - 1;  // count_order is Q1's last column
    for (int64_t r = 0; r < t.num_rows(); r++) {
      total += t.GetValue(r, count_col).AsI64();
    }
    return total;
  };
  EXPECT_LT(total_count(*mutated), total_count(*pristine));
}

}  // namespace
}  // namespace x100
