// Hash-table layer tests: the batch probe/insert protocol of every HashImpl
// (chained / linear open-addressing) at the unit level,
// operator-level edge cases (empty build side, all-miss probes, duplicate
// keys across growth, extreme i64 keys, selection-vector probes), and
// bit-identity of Q1/Q3/Q14 across all implementations on both the RAM and
// disk backends.

#include <cstdint>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "common/hash.h"
#include "exec/hash_table.h"
#include "exec/plan.h"
#include "storage/columnbm.h"
#include "tests/test_util.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"

namespace x100 {
namespace {

using plan::OpPtr;
using testing::ExpectTablesEqual;
using testing::ScopedTempDir;

template <typename... Ts>
std::vector<AggrSpec> AG(Ts&&... ts) {
  std::vector<AggrSpec> v;
  (v.push_back(std::move(ts)), ...);
  return v;
}

const HashImpl kAllImpls[] = {HashImpl::kChained, HashImpl::kLinear};

std::string ImplParamName(const ::testing::TestParamInfo<HashImpl>& info) {
  return HashImplName(info.param);
}

// Drives the find-or-insert protocol for a batch of hashes against `t`,
// treating the 64-bit hash itself as the key (so candidate == match).
// Returns the resolved value per lane.
std::vector<uint32_t> FindOrInsert(HashTable* t, HashTable::Probe* p,
                                   const std::vector<uint64_t>& hashes,
                                   const std::vector<uint32_t>& values) {
  int n = static_cast<int>(hashes.size());
  t->Reserve(hashes.size());
  t->ProbeBegin(p, hashes.data(), nullptr, n);
  while (int nc = t->ProbeRound(p)) {
    for (int k = 0; k < nc; k++) t->Accept(p, k);
  }
  std::vector<uint32_t> out(hashes.size());
  for (int j = 0; j < n; j++) {
    uint32_t v = p->result(j);
    if (v == HashTable::kNone) {
      uint32_t cand = HashTable::kNone;
      while (!t->InsertMiss(p, j, values[j], &cand)) {
        v = t->EntryValue(cand);  // same-hash entry from this batch
        break;
      }
      if (v == HashTable::kNone) v = values[j];
    }
    out[j] = v;
  }
  return out;
}

class HashTableImplTest : public ::testing::TestWithParam<HashImpl> {};

TEST_P(HashTableImplTest, EmptyTableAllMiss) {
  HashTable t(GetParam());
  HashTable::Probe p;
  std::vector<uint64_t> hashes;
  for (int i = 0; i < 100; i++) hashes.push_back(HashU64(i * 977));
  t.ProbeBegin(&p, hashes.data(), nullptr, 100);
  EXPECT_EQ(t.ProbeRound(&p), 0);  // no candidates anywhere
  for (int j = 0; j < 100; j++) {
    EXPECT_EQ(p.result(j), HashTable::kNone);
  }
  EXPECT_EQ(t.size(), 0u);
}

TEST_P(HashTableImplTest, InsertFindRoundTripAcrossGrowth) {
  HashTable t(GetParam());
  HashTable::Probe p;
  t.Reset(0);  // start tiny so inserts force rebuilds
  const int kKeys = 20000;
  const int kBatch = 512;
  for (int base = 0; base < kKeys; base += kBatch) {
    std::vector<uint64_t> hashes;
    std::vector<uint32_t> values;
    int end = base + kBatch < kKeys ? base + kBatch : kKeys;
    for (int i = base; i < end; i++) {
      hashes.push_back(HashU64(static_cast<uint64_t>(i)));
      values.push_back(static_cast<uint32_t>(i));
    }
    std::vector<uint32_t> got = FindOrInsert(&t, &p, hashes, values);
    for (size_t j = 0; j < values.size(); j++) {
      EXPECT_EQ(got[j], values[j]);
    }
  }
  EXPECT_EQ(t.size(), static_cast<size_t>(kKeys));
  EXPECT_GT(t.stats().grows, 0u);

  // Every key resolves to its value; unseen keys miss.
  std::vector<uint64_t> hashes;
  for (int i = 0; i < kBatch; i++) {
    hashes.push_back(HashU64(static_cast<uint64_t>(i * 37)));
  }
  t.ProbeBegin(&p, hashes.data(), nullptr, kBatch);
  while (int nc = t.ProbeRound(&p)) {
    for (int k = 0; k < nc; k++) t.Accept(&p, k);
  }
  for (int i = 0; i < kBatch; i++) {
    uint32_t want = static_cast<uint32_t>(i * 37);
    if (i * 37 < kKeys) {
      EXPECT_EQ(p.result(i), want);
    } else {
      EXPECT_EQ(p.result(i), HashTable::kNone);
    }
  }
}

TEST_P(HashTableImplTest, SelectionVectorLanes) {
  HashTable t(GetParam());
  HashTable::Probe p;
  std::vector<uint64_t> hashes(16, 0);
  // Only odd positions carry live hashes; the sel vector must be honored.
  std::vector<int> sel;
  std::vector<uint32_t> values;
  for (int i = 1; i < 16; i += 2) {
    hashes[i] = HashU64(static_cast<uint64_t>(i));
    sel.push_back(i);
  }
  int n = static_cast<int>(sel.size());
  t.Reserve(static_cast<size_t>(n));
  t.ProbeBegin(&p, hashes.data(), sel.data(), n);
  EXPECT_EQ(t.ProbeRound(&p), 0);
  for (int j = 0; j < n; j++) {
    uint32_t cand = HashTable::kNone;
    EXPECT_TRUE(t.InsertMiss(&p, j, static_cast<uint32_t>(sel[j]), &cand));
  }
  // Re-probe through the same sel: lane j must resolve to sel[j].
  t.ProbeBegin(&p, hashes.data(), sel.data(), n);
  while (int nc = t.ProbeRound(&p)) {
    for (int k = 0; k < nc; k++) t.Accept(&p, k);
  }
  for (int j = 0; j < n; j++) {
    EXPECT_EQ(p.result(j), static_cast<uint32_t>(sel[j]));
  }
}

TEST_P(HashTableImplTest, SameHashTwiceInOneBatchChainsViaInsertMiss) {
  // Two lanes with the same (previously unseen) hash both miss the vector
  // pass; the scalar pass must hand lane 2 the entry lane 1 just created.
  HashTable t(GetParam());
  HashTable::Probe p;
  uint64_t h = HashU64(42);
  std::vector<uint64_t> hashes = {h, h};
  t.Reserve(2);
  t.ProbeBegin(&p, hashes.data(), nullptr, 2);
  EXPECT_EQ(t.ProbeRound(&p), 0);
  uint32_t cand = HashTable::kNone;
  EXPECT_TRUE(t.InsertMiss(&p, 0, 7, &cand));
  EXPECT_FALSE(t.InsertMiss(&p, 1, 8, &cand));  // finds lane 0's entry
  EXPECT_EQ(t.EntryValue(cand), 7u);
  EXPECT_EQ(t.size(), 1u);
}

TEST_P(HashTableImplTest, ResetDropsEntriesKeepsStats) {
  HashTable t(GetParam());
  HashTable::Probe p;
  std::vector<uint64_t> hashes;
  std::vector<uint32_t> values;
  for (int i = 0; i < 200; i++) {
    hashes.push_back(HashU64(static_cast<uint64_t>(i)));
    values.push_back(static_cast<uint32_t>(i));
  }
  FindOrInsert(&t, &p, hashes, values);
  uint64_t inserts = t.stats().inserts;
  EXPECT_EQ(inserts, 200u);
  t.Reset(0);
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.stats().inserts, inserts);  // lifetime stats survive Reset
  t.ProbeBegin(&p, hashes.data(), nullptr, 1);
  EXPECT_EQ(t.ProbeRound(&p), 0);
  EXPECT_EQ(p.result(0), HashTable::kNone);
}

INSTANTIATE_TEST_SUITE_P(Impls, HashTableImplTest,
                         ::testing::ValuesIn(kAllImpls), ImplParamName);

TEST(HashTableTest, ContextDefaultsToLinear) {
  ExecContext ctx;
  EXPECT_EQ(ctx.hash_impl, HashImpl::kLinear);
}

// ---- Operator-level edge cases, each under every implementation ------------

class HashOpsTest : public ::testing::TestWithParam<HashImpl> {
 protected:
  ExecContext ctx_;
  void SetUp() override { ctx_.hash_impl = GetParam(); }

  static std::unique_ptr<Table> MakeKv(const std::string& name,
                                       const std::vector<int64_t>& keys) {
    auto t = std::make_unique<Table>(
        name, std::vector<Table::ColumnSpec>{{"k", TypeId::kI64, false},
                                             {"v", TypeId::kI64, false}});
    int64_t i = 0;
    for (int64_t k : keys) t->AppendRow({Value::I64(k), Value::I64(i++)});
    t->Freeze();
    return t;
  }
};

TEST_P(HashOpsTest, EmptyBuildSide) {
  std::unique_ptr<Table> probe = MakeKv("p", {1, 2, 3, 4, 5});
  std::unique_ptr<Table> build = MakeKv("b", {});
  auto inner = plan::Join(&ctx_, plan::Scan(&ctx_, *probe, {"k", "v"}),
                          plan::Scan(&ctx_, *build, {"k"}),
                          {.probe_keys = {"k"},
                           .build_keys = {"k"},
                           .probe_out = {"k", "v"}});
  EXPECT_EQ(RunPlan(std::move(inner), "r")->num_rows(), 0);

  auto anti = plan::AntiJoin(&ctx_, plan::Scan(&ctx_, *probe, {"k", "v"}),
                             plan::Scan(&ctx_, *build, {"k"}),
                             {.probe_keys = {"k"},
                              .build_keys = {"k"},
                              .probe_out = {"k", "v"}});
  EXPECT_EQ(RunPlan(std::move(anti), "r")->num_rows(), 5);

  auto outer = plan::Join(&ctx_, plan::Scan(&ctx_, *probe, {"k", "v"}),
                          plan::Scan(&ctx_, *build, {"k", "v"}),
                          {.probe_keys = {"k"},
                           .build_keys = {"k"},
                           .probe_out = {"k"},
                           .build_out = {"v"},
                           .type = JoinType::kLeftOuterDefault});
  std::unique_ptr<Table> r = RunPlan(std::move(outer), "r");
  EXPECT_EQ(r->num_rows(), 5);
  for (int64_t i = 0; i < r->num_rows(); i++) {
    EXPECT_EQ(r->GetValue(i, 1).AsI64(), 0);  // type-default fill
  }
}

TEST_P(HashOpsTest, AllProbeMissBatches) {
  std::vector<int64_t> pk, bk;
  for (int64_t i = 0; i < 3000; i++) pk.push_back(i);
  for (int64_t i = 0; i < 500; i++) bk.push_back(100000 + i);  // disjoint
  std::unique_ptr<Table> probe = MakeKv("p", pk);
  std::unique_ptr<Table> build = MakeKv("b", bk);
  auto j = plan::Join(&ctx_, plan::Scan(&ctx_, *probe, {"k", "v"}),
                      plan::Scan(&ctx_, *build, {"k", "v"}),
                      {.probe_keys = {"k"},
                       .build_keys = {"k"},
                       .probe_out = {"k"},
                       .build_out = {"v"}});
  EXPECT_EQ(RunPlan(std::move(j), "r")->num_rows(), 0);
}

TEST_P(HashOpsTest, HeavyDuplicateKeysAcrossResize) {
  // 20000 build rows over 1000 distinct keys: the table grows several times
  // while every key accumulates a 20-deep duplicate chain. Every probe of
  // key k must see all 20 rows.
  std::vector<int64_t> bk, pk;
  for (int64_t i = 0; i < 20000; i++) bk.push_back(i % 1000);
  for (int64_t i = 0; i < 1000; i++) pk.push_back(i);
  std::unique_ptr<Table> probe = MakeKv("p", pk);
  std::unique_ptr<Table> build = MakeKv("b", bk);
  auto j = plan::Join(&ctx_, plan::Scan(&ctx_, *probe, {"k"}),
                      plan::Scan(&ctx_, *build, {"k", "v"}),
                      {.probe_keys = {"k"},
                       .build_keys = {"k"},
                       .probe_out = {"k"},
                       .build_out = {"v"}});
  std::unique_ptr<Table> r = RunPlan(std::move(j), "r");
  EXPECT_EQ(r->num_rows(), 20000);
  for (int64_t i = 0; i < r->num_rows(); i++) {
    EXPECT_EQ(r->GetValue(i, 1).AsI64() % 1000, r->GetValue(i, 0).AsI64());
  }

  // Same shape through aggregation: 1000 groups, 20 rows each.
  auto ag = plan::HashAggr(
      &ctx_, plan::Scan(&ctx_, *build, {"k"}), {"k"}, AG(CountAll("n")));
  std::unique_ptr<Table> g = RunPlan(std::move(ag), "g");
  EXPECT_EQ(g->num_rows(), 1000);
  for (int64_t i = 0; i < g->num_rows(); i++) {
    EXPECT_EQ(g->GetValue(i, 1).AsI64(), 20);
  }
}

TEST_P(HashOpsTest, ExtremeI64Keys) {
  const int64_t kMin = std::numeric_limits<int64_t>::min();
  const int64_t kMax = std::numeric_limits<int64_t>::max();
  std::vector<int64_t> keys = {kMin, kMax, -1, 0, 1, kMin + 1, kMax - 1, -42};
  std::unique_ptr<Table> probe = MakeKv("p", keys);
  std::unique_ptr<Table> build = MakeKv("b", keys);
  auto j = plan::Join(&ctx_, plan::Scan(&ctx_, *probe, {"k", "v"}),
                      plan::Scan(&ctx_, *build, {"k", "v"}),
                      {.probe_keys = {"k"},
                       .build_keys = {"k"},
                       .probe_out = {"k", "v"},
                       .build_out = {"v"}});
  std::unique_ptr<Table> r = RunPlan(std::move(j), "r");
  EXPECT_EQ(r->num_rows(), static_cast<int64_t>(keys.size()));
  for (int64_t i = 0; i < r->num_rows(); i++) {
    EXPECT_EQ(r->GetValue(i, 1).AsI64(), r->GetValue(i, 2).AsI64());
  }
}

TEST_P(HashOpsTest, SelectionVectorProbesAcrossVectorBoundaries) {
  // A selective filter upstream of the join hands the probe sel vectors;
  // a tiny vector size makes chains of them straddle many batches.
  ctx_.vector_size = 16;
  auto probe = std::make_unique<Table>(
      "p", std::vector<Table::ColumnSpec>{{"k", TypeId::kI64, false},
                                          {"flag", TypeId::kI64, false}});
  for (int64_t i = 0; i < 2000; i++) {
    probe->AppendRow({Value::I64(i), Value::I64(i % 2)});
  }
  probe->Freeze();
  std::vector<int64_t> bk;
  for (int64_t i = 0; i < 100; i++) bk.push_back(i * 3);
  std::unique_ptr<Table> build = MakeKv("b", bk);
  using namespace x100::exprs;
  OpPtr scan = plan::Scan(&ctx_, *probe, {"k", "flag"});
  scan = plan::Select(&ctx_, std::move(scan),
                      Eq(Col("flag"), Lit(Value::I64(0))));
  auto j = plan::Join(&ctx_, std::move(scan),
                      plan::Scan(&ctx_, *build, {"k", "v"}),
                      {.probe_keys = {"k"},
                       .build_keys = {"k"},
                       .probe_out = {"k"},
                       .build_out = {"v"}});
  std::unique_ptr<Table> r = RunPlan(std::move(j), "r");
  // Even probe keys that hit the build side (multiples of 3 up to 297):
  // multiples of 6 in [0, 297] -> 50 rows.
  EXPECT_EQ(r->num_rows(), 50);
  for (int64_t i = 0; i < r->num_rows(); i++) {
    EXPECT_EQ(r->GetValue(i, 0).AsI64() % 6, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(Impls, HashOpsTest, ::testing::ValuesIn(kAllImpls),
                         ImplParamName);

// ---- Bit-identity of TPC-H results across implementations ------------------

class HashImplQueryTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    DbgenOptions opts;
    opts.scale_factor = 0.01;
    db_ = GenerateTpch(opts).release();
  }
  static Catalog* db_;
};

Catalog* HashImplQueryTest::db_ = nullptr;

TEST_F(HashImplQueryTest, QueriesBitIdenticalAcrossImplsRam) {
  for (int q : {1, 3, 14}) {
    ExecContext base;
    base.hash_impl = HashImpl::kChained;
    std::unique_ptr<Table> chained = RunX100Query(q, &base, *db_);
    ExecContext ctx;  // the engine layout: linear
    std::unique_ptr<Table> got = RunX100Query(q, &ctx, *db_);
    ExpectTablesEqual(*chained, *got, 0.0);  // bit-identical, eps 0
  }
}

TEST_F(HashImplQueryTest, QueriesBitIdenticalAcrossImplsDisk) {
  for (int q : {3, 14}) {
    ScopedTempDir dir("x100_ht_disk");
    ColumnBm bm(ColumnBm::Options{.disk_dir = dir.path()});
    ExecContext base;
    base.hash_impl = HashImpl::kChained;
    base.blocks = {&bm, db_};
    std::unique_ptr<Table> chained = RunX100Query(q, &base, *db_);
    ExecContext ctx;
    ctx.blocks = {&bm, db_};
    std::unique_ptr<Table> got = RunX100Query(q, &ctx, *db_);
    ExpectTablesEqual(*chained, *got, 0.0);
  }
}

}  // namespace
}  // namespace x100
