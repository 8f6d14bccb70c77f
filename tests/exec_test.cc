// Unit + property tests for the X100 engine: scan (views, deletes, deltas,
// SMA pruning), expression binding (casts, CSE, dictionary rewrites),
// select/project, the three aggregation operators (equivalence property),
// joins (hash vs nested-loop equivalence, semi/anti/outer, fetch joins),
// TopN vs Order, and the Array operator.

#include <map>
#include <set>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "exec/bm_scan.h"
#include "exec/plan.h"
#include "exec/row_util.h"
#include "storage/catalog.h"
#include "tests/test_util.h"

namespace x100 {
namespace {

using namespace x100::exprs;
using plan::OpPtr;
using testing::ExpectTablesEqual;

template <typename... Ts>
std::vector<NamedExpr> NE(Ts&&... ts) {
  std::vector<NamedExpr> v;
  (v.push_back(std::move(ts)), ...);
  return v;
}
template <typename... Ts>
std::vector<AggrSpec> AG(Ts&&... ts) {
  std::vector<AggrSpec> v;
  (v.push_back(std::move(ts)), ...);
  return v;
}

/// A little mixed-type table with an enum column and deterministic content.
std::unique_ptr<Table> MakeData(int n, bool enum_tag = true) {
  auto t = std::make_unique<Table>(
      "data", std::vector<Table::ColumnSpec>{{"id", TypeId::kI32, false},
                                             {"tag", TypeId::kStr, enum_tag},
                                             {"qty", TypeId::kF64, true},
                                             {"price", TypeId::kF64, false},
                                             {"day", TypeId::kDate, false}});
  const char* tags[3] = {"red", "green", "blue"};
  Rng rng(77);
  for (int i = 0; i < n; i++) {
    t->AppendRow({Value::I32(i), Value::Str(tags[i % 3]),
                  Value::F64(static_cast<double>(rng.Uniform(1, 50))),
                  Value::F64(rng.NextDouble() * 100),
                  Value::Date(8035 + i / 10)});
  }
  t->Freeze();
  return t;
}

// ---- Scan -------------------------------------------------------------------

TEST(ScanTest, ZeroCopyViewsOnCleanFragments) {
  std::unique_ptr<Table> t = MakeData(5000);
  ExecContext ctx;
  ScanOp scan(&ctx, *t, {"id", "price"});
  scan.Open();
  int64_t seen = 0;
  while (VectorBatch* b = scan.Next()) {
    EXPECT_TRUE(b->column(0).is_view());  // no copy
    const int32_t* ids = b->column(0).Data<int32_t>();
    for (int i = 0; i < b->count(); i++) EXPECT_EQ(ids[i], seen + i);
    seen += b->count();
  }
  EXPECT_EQ(seen, 5000);
}

TEST(ScanTest, SkipsDeletedAndAppendsDeltas) {
  std::unique_ptr<Table> t = MakeData(100);
  for (int64_t r = 0; r < 100; r += 7) ASSERT_TRUE(t->Delete(r).ok());
  t->Insert({Value::I32(1000), Value::Str("red"), Value::F64(3),
             Value::F64(1.0), Value::Date(9000)});
  ExecContext ctx;
  ctx.vector_size = 16;
  ScanOp scan(&ctx, *t, {"id", "tag"});
  scan.Open();
  std::set<int64_t> ids;
  while (VectorBatch* b = scan.Next()) {
    for (int j = 0; j < b->sel_count(); j++) {
      ids.insert(BatchValueAt(*b, 0, b->sel() ? b->sel()[j] : j).AsI64());
    }
  }
  EXPECT_EQ(static_cast<int64_t>(ids.size()), t->num_rows());
  EXPECT_EQ(ids.count(0), 0u);   // deleted
  EXPECT_EQ(ids.count(7), 0u);   // deleted
  EXPECT_EQ(ids.count(1), 1u);
  EXPECT_EQ(ids.count(1000), 1u);  // delta row visible
}

TEST(ScanTest, RowIdEmission) {
  std::unique_ptr<Table> t = MakeData(50);
  ASSERT_TRUE(t->Delete(3).ok());
  ExecContext ctx;
  ScanOp scan(&ctx, *t, {"id"});
  scan.EmitRowId("#rowid");
  scan.Open();
  VectorBatch* b = scan.Next();
  ASSERT_NE(b, nullptr);
  const int64_t* rid = static_cast<const int64_t*>(b->column(1).data());
  EXPECT_EQ(rid[0], 0);
  EXPECT_EQ(rid[3], 4);  // 3 was deleted
}

TEST(ScanTest, SummaryIndexPruning) {
  std::unique_ptr<Table> t = MakeData(50000);  // day clustered: i/10
  t->BuildSummaryIndex("day");
  ExecContext ctx;
  Profiler prof;
  ctx.profiler = &prof;
  auto scan = std::make_unique<ScanOp>(
      &ctx, *t, std::vector<std::string>{"day", "id"});
  scan->RestrictRange("day", 8135, 8137);
  OpPtr op = std::move(scan);
  op = plan::Select(&ctx, std::move(op),
                    exprs::Between(Col("day"), Lit(Value::Date(8135)),
                                   Lit(Value::Date(8137))));
  std::unique_ptr<Table> r = RunPlan(std::move(op), "r");
  EXPECT_EQ(r->num_rows(), 30);  // 10 ids per day, 3 days
  // The scan must have touched far fewer than 50000 tuples.
  const PrimitiveStats* scan_stats = nullptr;
  for (const auto& [name, s] : prof.Rows()) {
    if (name == "Scan") scan_stats = s;
  }
  ASSERT_NE(scan_stats, nullptr);
  EXPECT_LT(scan_stats->tuples, 5000u);
}

// ---- Expression binding -----------------------------------------------------

TEST(ExprTest, MixedTypeArithmeticWidens) {
  std::unique_ptr<Table> t = MakeData(10);
  ExecContext ctx;
  OpPtr op = plan::Scan(&ctx, *t, {"id", "price"});
  op = plan::Project(&ctx, std::move(op),
                     NE(As("x", Mul(Col("id"), Col("price")))));
  std::unique_ptr<Table> r = RunPlan(std::move(op), "r");
  for (int64_t i = 0; i < 10; i++) {
    EXPECT_DOUBLE_EQ(r->GetValue(i, 0).AsF64(),
                     static_cast<double>(i) * t->GetValue(i, 3).AsF64());
  }
}

TEST(ExprTest, EnumDecodeIsAutomatic) {
  std::unique_ptr<Table> t = MakeData(30);
  ExecContext ctx;
  Profiler prof;
  ctx.profiler = &prof;
  OpPtr op = plan::Scan(&ctx, *t, {"qty"});
  op = plan::Project(&ctx, std::move(op),
                     NE(As("double_qty", Mul(LitF64(2.0), Col("qty")))));
  std::unique_ptr<Table> r = RunPlan(std::move(op), "r");
  for (int64_t i = 0; i < 30; i++) {
    EXPECT_DOUBLE_EQ(r->GetValue(i, 0).AsF64(), 2 * t->GetValue(i, 2).AsF64());
  }
  bool fetched = false;
  for (const auto& [name, s] : prof.Rows()) {
    if (name.find("map_fetch_f64_col_u8_col") == 0) fetched = true;
  }
  EXPECT_TRUE(fetched);  // the automatic Fetch1Join of §4.3
}

TEST(ExprTest, DictEqRewriteComparesCodes) {
  std::unique_ptr<Table> t = MakeData(300);
  ExecContext ctx;
  Profiler prof;
  ctx.profiler = &prof;
  OpPtr op = plan::Scan(&ctx, *t, {"id", "tag"});
  op = plan::Select(&ctx, std::move(op), Eq(Col("tag"), LitStr("green")));
  std::unique_ptr<Table> r = RunPlan(std::move(op), "r");
  EXPECT_EQ(r->num_rows(), 100);
  // The select ran on u8 codes, not decoded strings.
  bool code_select = false, str_select = false;
  for (const auto& [name, s] : prof.Rows()) {
    if (name.find("select_eq_u8") == 0) code_select = true;
    if (name.find("select_eq_str") == 0) str_select = true;
  }
  EXPECT_TRUE(code_select);
  EXPECT_FALSE(str_select);
}

TEST(ExprTest, DictEqAbsentConstantIsConstFalse) {
  std::unique_ptr<Table> t = MakeData(50);
  ExecContext ctx;
  OpPtr op = plan::Scan(&ctx, *t, {"id", "tag"});
  op = plan::Select(&ctx, std::move(op), Eq(Col("tag"), LitStr("mauve")));
  EXPECT_EQ(RunPlan(std::move(op), "r")->num_rows(), 0);
  OpPtr op2 = plan::Scan(&ctx, *t, {"id", "tag"});
  op2 = plan::Select(&ctx, std::move(op2), Ne(Col("tag"), LitStr("mauve")));
  EXPECT_EQ(RunPlan(std::move(op2), "r2")->num_rows(), 50);
}

TEST(ExprTest, OrPredicateMergesSelectionVectors) {
  std::unique_ptr<Table> t = MakeData(120);
  ExecContext ctx;
  ctx.vector_size = 32;
  OpPtr op = plan::Scan(&ctx, *t, {"id", "tag"});
  op = plan::Select(&ctx, std::move(op),
                    Or(Eq(Col("tag"), LitStr("red")),
                       Eq(Col("tag"), LitStr("blue"))));
  std::unique_ptr<Table> r = RunPlan(std::move(op), "r");
  EXPECT_EQ(r->num_rows(), 80);
  // Positions stayed ascending through the merge: ids are sorted.
  for (int64_t i = 1; i < r->num_rows(); i++) {
    EXPECT_LT(r->GetValue(i - 1, 0).AsI64(), r->GetValue(i, 0).AsI64());
  }
}

TEST(ExprTest, CommonSubexpressionsBindOnce) {
  // Q1-style reuse: discountprice feeds two outputs; the binder's CSE must
  // evaluate the shared sub-tree once per vector, not once per use.
  std::unique_ptr<Table> t = MakeData(4096);
  ExecContext ctx;
  ctx.vector_size = 1024;
  Profiler prof;
  ctx.profiler = &prof;
  OpPtr op = plan::Scan(&ctx, *t, {"qty", "price"});
  auto disc_price = [] {
    return Mul(Sub(LitF64(1.0), Col("qty")), Col("price"));
  };
  op = plan::Project(&ctx, std::move(op),
                     NE(As("a", disc_price()),
                        As("b", Mul(disc_price(), LitF64(2.0)))));
  std::unique_ptr<Table> r = RunPlan(std::move(op), "r");
  for (int64_t i = 0; i < 10; i++) {
    EXPECT_DOUBLE_EQ(r->GetValue(i, 1).AsF64(), 2 * r->GetValue(i, 0).AsF64());
  }
  for (const auto& [name, s] : prof.Rows()) {
    if (name == "map_sub_f64_val_f64_col") {
      // One evaluation per input tuple, not two.
      EXPECT_EQ(s->tuples, 4096u);
    }
    if (name.find("map_fetch_f64_col_u8_col") == 0) {
      // qty decoded once per tuple despite three textual uses.
      EXPECT_EQ(s->tuples, 4096u);
    }
  }
}

TEST(ExprTest, CompoundFusionSameResult) {
  std::unique_ptr<Table> t = MakeData(500);
  auto make = [&](ExecContext* ctx) {
    OpPtr op = plan::Scan(ctx, *t, {"qty", "price"});
    op = plan::Project(
        ctx, std::move(op),
        NE(As("v", Mul(Sub(LitF64(1.0), Col("qty")), Col("price")))));
    return RunPlan(std::move(op), "r");
  };
  ExecContext plain;
  plain.fuse_compound_primitives = false;
  ExecContext fused;
  fused.fuse_compound_primitives = true;
  Profiler prof;
  fused.profiler = &prof;
  std::unique_ptr<Table> a = make(&plain);
  std::unique_ptr<Table> b = make(&fused);
  ExpectTablesEqual(*a, *b, 0.0);
  bool saw_fused = false;
  for (const auto& [name, s] : prof.Rows()) {
    if (name == "map_fused_sub_vc_mul_pc_f64") saw_fused = true;
  }
  EXPECT_TRUE(saw_fused);
}

TEST(ExprTest, YearFunction) {
  std::unique_ptr<Table> t = MakeData(10);
  ExecContext ctx;
  OpPtr op = plan::Scan(&ctx, *t, {"day"});
  op = plan::Project(&ctx, std::move(op), NE(As("y", Call1("year", Col("day")))));
  std::unique_ptr<Table> r = RunPlan(std::move(op), "r");
  EXPECT_EQ(r->GetValue(0, 0).AsI64(), 1992);  // day 8035 = 1992-01-01
}

// ---- Aggregation equivalence (property) -------------------------------------

TEST(AggrOpTest, HashDirectOrderedAgree) {
  // Data grouped on a small i8-domain column, arriving clustered so all
  // three physical aggregations apply (§4.1.2).
  auto t = std::make_unique<Table>(
      "g", std::vector<Table::ColumnSpec>{{"grp", TypeId::kI8, false},
                                          {"v", TypeId::kF64, false}});
  Rng rng(3);
  for (int g = 0; g < 26; g++) {
    int reps = static_cast<int>(rng.Uniform(1, 400));
    for (int i = 0; i < reps; i++) {
      t->AppendRow({Value::I8(static_cast<int8_t>('a' + g)),
                    Value::F64(rng.NextDouble() * 10)});
    }
  }
  t->Freeze();

  ExecContext ctx;
  ctx.vector_size = 128;
  auto make_aggrs = [] {
    return AG(Sum("s", Col("v")), Min("mn", Col("v")), Max("mx", Col("v")),
              CountAll("n"));
  };
  auto sorted = [&](OpPtr op) {
    return RunPlan(plan::Order(&ctx, std::move(op), {Asc("grp")}), "r");
  };
  std::unique_ptr<Table> h = sorted(plan::HashAggr(
      &ctx, plan::Scan(&ctx, *t, {"grp", "v"}), {"grp"}, make_aggrs()));
  std::unique_ptr<Table> d = sorted(plan::DirectAggr(
      &ctx, plan::Scan(&ctx, *t, {"grp", "v"}), {"grp"}, make_aggrs()));
  std::unique_ptr<Table> o = sorted(plan::OrdAggr(
      &ctx, plan::Scan(&ctx, *t, {"grp", "v"}), {"grp"}, make_aggrs()));
  ExpectTablesEqual(*h, *d, 1e-10);
  ExpectTablesEqual(*h, *o, 1e-10);
}

TEST(AggrOpTest, ScalarAggregateOnEmptyInput) {
  std::unique_ptr<Table> t = MakeData(10);
  ExecContext ctx;
  OpPtr op = plan::Scan(&ctx, *t, {"id", "price"});
  op = plan::Select(&ctx, std::move(op), Gt(Col("id"), LitI32(1000)));  // none
  op = plan::HashAggr(&ctx, std::move(op), {},
                      AG(Sum("s", Col("price")), CountAll("n")));
  std::unique_ptr<Table> r = RunPlan(std::move(op), "r");
  ASSERT_EQ(r->num_rows(), 1);
  EXPECT_DOUBLE_EQ(r->GetValue(0, 0).AsF64(), 0.0);
  EXPECT_EQ(r->GetValue(0, 1).AsI64(), 0);
}

TEST(AggrOpTest, GroupedAggregateOnEmptyInputIsEmpty) {
  std::unique_ptr<Table> t = MakeData(10);
  ExecContext ctx;
  OpPtr op = plan::Scan(&ctx, *t, {"id", "tag", "price"});
  op = plan::Select(&ctx, std::move(op), Gt(Col("id"), LitI32(1000)));
  op = plan::HashAggr(&ctx, std::move(op), {"tag"}, AG(CountAll("n")));
  EXPECT_EQ(RunPlan(std::move(op), "r")->num_rows(), 0);
}

// ---- Joins ------------------------------------------------------------------

struct JoinFixture {
  std::unique_ptr<Table> fact;
  std::unique_ptr<Table> dim;

  explicit JoinFixture(int nf = 500, int nd = 20) {
    fact = std::make_unique<Table>(
        "fact", std::vector<Table::ColumnSpec>{{"fk", TypeId::kI32, false},
                                               {"m", TypeId::kF64, false}});
    dim = std::make_unique<Table>(
        "dim", std::vector<Table::ColumnSpec>{{"id", TypeId::kI32, false},
                                              {"label", TypeId::kStr, false}});
    Rng rng(11);
    for (int i = 0; i < nf; i++) {
      // Keys 0..nd+4: some fact rows dangle (no dim match).
      fact->AppendRow({Value::I32(static_cast<int32_t>(rng.Uniform(0, nd + 4))),
                       Value::F64(i * 0.5)});
    }
    fact->Freeze();
    for (int i = 0; i < nd; i++) {
      dim->AppendRow({Value::I32(i), Value::Str("L" + std::to_string(i))});
    }
    dim->Freeze();
  }
};

TEST(JoinTest, HashJoinMatchesNestedLoop) {
  JoinFixture f;
  ExecContext ctx;
  ctx.vector_size = 64;
  auto hash = plan::Join(&ctx, plan::Scan(&ctx, *f.fact, {"fk", "m"}),
                         plan::Scan(&ctx, *f.dim, {"id", "label"}),
                         {.probe_keys = {"fk"},
                          .build_keys = {"id"},
                          .probe_out = {"fk", "m"},
                          .build_out = {"label"}});
  std::unique_ptr<Table> h = RunPlan(
      plan::Order(&ctx, std::move(hash), {Asc("fk"), Asc("m")}), "h");

  // Nested loop: CartProd + Select(fk == id), per §4.1.2 the default join.
  auto nl = plan::CartProd(&ctx, plan::Scan(&ctx, *f.fact, {"fk", "m"}),
                           plan::Scan(&ctx, *f.dim, {"id", "label"}),
                           {"fk", "m"}, {"id", "label"});
  nl = plan::Select(&ctx, std::move(nl), Eq(Col("fk"), Col("id")));
  nl = plan::Project(&ctx, std::move(nl),
                     NE(Pass("fk"), Pass("m"), Pass("label")));
  std::unique_ptr<Table> n =
      RunPlan(plan::Order(&ctx, std::move(nl), {Asc("fk"), Asc("m")}), "n");
  ExpectTablesEqual(*h, *n, 0.0);
  EXPECT_GT(h->num_rows(), 0);
}

TEST(JoinTest, SemiAntiPartitionProbe) {
  JoinFixture f;
  ExecContext ctx;
  auto semi = plan::SemiJoin(&ctx, plan::Scan(&ctx, *f.fact, {"fk", "m"}),
                             plan::Scan(&ctx, *f.dim, {"id"}),
                             {.probe_keys = {"fk"},
                              .build_keys = {"id"},
                              .probe_out = {"fk", "m"}});
  auto anti = plan::AntiJoin(&ctx, plan::Scan(&ctx, *f.fact, {"fk", "m"}),
                             plan::Scan(&ctx, *f.dim, {"id"}),
                             {.probe_keys = {"fk"},
                              .build_keys = {"id"},
                              .probe_out = {"fk", "m"}});
  std::unique_ptr<Table> s = RunPlan(std::move(semi), "s");
  std::unique_ptr<Table> a = RunPlan(std::move(anti), "a");
  EXPECT_EQ(s->num_rows() + a->num_rows(), f.fact->num_rows());
  for (int64_t r = 0; r < s->num_rows(); r++) EXPECT_LT(s->GetValue(r, 0).AsI64(), 20);
  for (int64_t r = 0; r < a->num_rows(); r++) EXPECT_GE(a->GetValue(r, 0).AsI64(), 20);
}

TEST(JoinTest, LeftOuterDefaultFillsZeros) {
  JoinFixture f;
  ExecContext ctx;
  auto j = plan::Join(&ctx, plan::Scan(&ctx, *f.fact, {"fk", "m"}),
                      plan::Scan(&ctx, *f.dim, {"id", "label"}),
                      {.probe_keys = {"fk"},
                       .build_keys = {"id"},
                       .probe_out = {"fk"},
                       .build_out = {"label"},
                       .type = JoinType::kLeftOuterDefault});
  std::unique_ptr<Table> r = RunPlan(std::move(j), "r");
  EXPECT_EQ(r->num_rows(), f.fact->num_rows());
  for (int64_t i = 0; i < r->num_rows(); i++) {
    if (r->GetValue(i, 0).AsI64() >= 20) {
      EXPECT_EQ(r->GetValue(i, 1).AsStr(), "");  // type-default for no match
    } else {
      EXPECT_EQ(r->GetValue(i, 1).AsStr(),
                "L" + std::to_string(r->GetValue(i, 0).AsI64()));
    }
  }
}

TEST(JoinTest, DuplicateBuildKeysExpand) {
  // N:M expansion: every probe row with key k must pair with every build row
  // carrying k, across emission-chunk boundaries.
  ExecContext ctx;
  ctx.vector_size = 8;  // force many small output chunks
  auto probe = std::make_unique<Table>(
      "p", std::vector<Table::ColumnSpec>{{"k", TypeId::kI32, false},
                                          {"pid", TypeId::kI32, false}});
  auto build = std::make_unique<Table>(
      "b", std::vector<Table::ColumnSpec>{{"k", TypeId::kI32, false},
                                          {"bid", TypeId::kI32, false}});
  for (int i = 0; i < 30; i++) probe->AppendRow({Value::I32(i % 3), Value::I32(i)});
  probe->Freeze();
  for (int i = 0; i < 12; i++) build->AppendRow({Value::I32(i % 4), Value::I32(i)});
  build->Freeze();

  auto j = plan::Join(&ctx, plan::Scan(&ctx, *probe, {"k", "pid"}),
                      plan::Scan(&ctx, *build, {"k", "bid"}),
                      {.probe_keys = {"k"},
                       .build_keys = {"k"},
                       .probe_out = {"k", "pid"},
                       .build_out = {"bid"}});
  std::unique_ptr<Table> r = RunPlan(std::move(j), "r");
  // Keys 0,1,2 appear 10x in probe and 3x in build each: 3 * 10 * 3 pairs.
  EXPECT_EQ(r->num_rows(), 90);
  for (int64_t i = 0; i < r->num_rows(); i++) {
    EXPECT_EQ(r->GetValue(i, 0).AsI64() % 3,
              r->GetValue(i, 2).AsI64() % 4 % 3);
    EXPECT_EQ(r->GetValue(i, 0).AsI64(), r->GetValue(i, 2).AsI64() % 4);
  }
}

TEST(JoinTest, MultiKeyJoin) {
  ExecContext ctx;
  auto a = std::make_unique<Table>(
      "a", std::vector<Table::ColumnSpec>{{"k1", TypeId::kI32, false},
                                          {"k2", TypeId::kI32, false}});
  auto b = std::make_unique<Table>(
      "b", std::vector<Table::ColumnSpec>{{"k1", TypeId::kI32, false},
                                          {"k2", TypeId::kI32, false},
                                          {"payload", TypeId::kI64, false}});
  for (int i = 0; i < 40; i++) a->AppendRow({Value::I32(i % 5), Value::I32(i % 7)});
  a->Freeze();
  for (int i = 0; i < 35; i++) {
    b->AppendRow({Value::I32(i % 5), Value::I32(i % 7), Value::I64(i)});
  }
  b->Freeze();
  auto j = plan::Join(&ctx, plan::Scan(&ctx, *a, {"k1", "k2"}),
                      plan::Scan(&ctx, *b, {"k1", "k2", "payload"}),
                      {.probe_keys = {"k1", "k2"},
                       .build_keys = {"k1", "k2"},
                       .probe_out = {"k1", "k2"},
                       .build_out = {"payload"}});
  std::unique_ptr<Table> r = RunPlan(std::move(j), "r");
  for (int64_t i = 0; i < r->num_rows(); i++) {
    int64_t payload = r->GetValue(i, 2).AsI64();
    EXPECT_EQ(payload % 5, r->GetValue(i, 0).AsI64());
    EXPECT_EQ(payload % 7, r->GetValue(i, 1).AsI64());
  }
  EXPECT_EQ(r->num_rows(), 40);  // each (k1,k2) matches exactly one b row
}

class RadixJoinTest : public ::testing::TestWithParam<int> {};

TEST_P(RadixJoinTest, MatchesHashJoin) {
  JoinFixture f(2000, 50);
  ExecContext ctx;
  ctx.vector_size = 128;
  auto hash = plan::Join(&ctx, plan::Scan(&ctx, *f.fact, {"fk", "m"}),
                         plan::Scan(&ctx, *f.dim, {"id", "label"}),
                         {.probe_keys = {"fk"},
                          .build_keys = {"id"},
                          .probe_out = {"fk", "m"},
                          .build_out = {"label"}});
  std::unique_ptr<Table> h =
      RunPlan(plan::Order(&ctx, std::move(hash), {Asc("fk"), Asc("m")}), "h");

  auto radix = std::make_unique<RadixJoinOp>(
      &ctx, plan::Scan(&ctx, *f.fact, {"fk", "m"}),
      plan::Scan(&ctx, *f.dim, {"id", "label"}),
      std::vector<std::string>{"fk"}, std::vector<std::string>{"id"},
      std::vector<std::string>{"fk", "m"}, std::vector<std::string>{"label"},
      GetParam());
  std::unique_ptr<Table> r = RunPlan(
      plan::Order(&ctx, plan::OpPtr(std::move(radix)), {Asc("fk"), Asc("m")}),
      "r");
  ExpectTablesEqual(*h, *r, 0.0);
}

INSTANTIATE_TEST_SUITE_P(Bits, RadixJoinTest, ::testing::Values(0, 1, 4, 8));

TEST(RadixJoinTest, StringKeys) {
  ExecContext ctx;
  auto a = std::make_unique<Table>(
      "a", std::vector<Table::ColumnSpec>{{"k", TypeId::kStr, false}});
  auto b = std::make_unique<Table>(
      "b", std::vector<Table::ColumnSpec>{{"k", TypeId::kStr, false},
                                          {"v", TypeId::kI64, false}});
  const char* keys[4] = {"alpha", "beta", "gamma", "delta"};
  for (int i = 0; i < 100; i++) a->AppendRow({Value::Str(keys[i % 4])});
  a->Freeze();
  for (int i = 0; i < 3; i++) {
    b->AppendRow({Value::Str(keys[i]), Value::I64(i)});
  }
  b->Freeze();
  auto radix = std::make_unique<RadixJoinOp>(
      &ctx, plan::Scan(&ctx, *a, {"k"}), plan::Scan(&ctx, *b, {"k", "v"}),
      std::vector<std::string>{"k"}, std::vector<std::string>{"k"},
      std::vector<std::string>{"k"}, std::vector<std::string>{"v"}, 2);
  std::unique_ptr<Table> r = RunPlan(plan::OpPtr(std::move(radix)), "r");
  EXPECT_EQ(r->num_rows(), 75);  // "delta" rows have no match
  for (int64_t i = 0; i < r->num_rows(); i++) {
    EXPECT_EQ(r->GetValue(i, 0).AsStr(), keys[r->GetValue(i, 1).AsI64()]);
  }
}

TEST(JoinTest, Fetch1JoinByJoinIndex) {
  JoinFixture f;
  // Restrict fact to keys that exist, build the join index.
  auto fact2 = std::make_unique<Table>(
      "fact2", std::vector<Table::ColumnSpec>{{"fk", TypeId::kI32, false}});
  for (int64_t r = 0; r < f.fact->num_rows(); r++) {
    int32_t k = static_cast<int32_t>(f.fact->GetValue(r, 0).AsI64());
    if (k < 20) fact2->AppendRow({Value::I32(k)});
  }
  fact2->Freeze();
  ASSERT_TRUE(fact2->BuildJoinIndex("fk", *f.dim, "id").ok());

  ExecContext ctx;
  OpPtr op = plan::Scan(&ctx, *fact2, {"fk", Table::JoinIndexName("dim")});
  op = plan::Fetch1Join(&ctx, std::move(op), *f.dim,
                        Table::JoinIndexName("dim"), {{"label", "label"}});
  std::unique_ptr<Table> r = RunPlan(std::move(op), "r");
  EXPECT_EQ(r->num_rows(), fact2->num_rows());
  for (int64_t i = 0; i < r->num_rows(); i++) {
    EXPECT_EQ(r->GetValue(i, 2).AsStr(),
              "L" + std::to_string(r->GetValue(i, 0).AsI64()));
  }
}

TEST(JoinTest, FetchNJoinExpandsRanges) {
  auto target = std::make_unique<Table>(
      "t", std::vector<Table::ColumnSpec>{{"v", TypeId::kI64, false}});
  for (int i = 0; i < 100; i++) target->AppendRow({Value::I64(i * 10)});
  target->Freeze();
  auto src = std::make_unique<Table>(
      "s", std::vector<Table::ColumnSpec>{{"start", TypeId::kI64, false},
                                          {"cnt", TypeId::kI64, false}});
  src->AppendRow({Value::I64(5), Value::I64(3)});
  src->AppendRow({Value::I64(50), Value::I64(0)});
  src->AppendRow({Value::I64(98), Value::I64(2)});
  src->Freeze();

  ExecContext ctx;
  OpPtr op = plan::Scan(&ctx, *src, {"start", "cnt"});
  op = std::make_unique<FetchNJoinOp>(
      &ctx, std::move(op), *target, "start", "cnt",
      std::vector<std::pair<std::string, std::string>>{{"v", "v"}});
  std::unique_ptr<Table> r = RunPlan(std::move(op), "r");
  ASSERT_EQ(r->num_rows(), 5);
  EXPECT_EQ(r->GetValue(0, 2).AsI64(), 50);   // rows 5,6,7
  EXPECT_EQ(r->GetValue(2, 2).AsI64(), 70);
  EXPECT_EQ(r->GetValue(3, 2).AsI64(), 980);  // rows 98,99
  EXPECT_EQ(r->GetValue(4, 2).AsI64(), 990);
}

// ---- ColumnBM-backed scan (disk path) ---------------------------------------

TEST(BmScanTest, MatchesInMemoryScanPlainAndCompressed) {
  std::unique_ptr<Table> t = MakeData(30000);
  ExecContext ctx;
  auto run = [&](OpPtr scan) {
    auto op = plan::Select(&ctx, std::move(scan),
                           Gt(Col("qty"), LitF64(25.0)));
    op = plan::HashAggr(&ctx, std::move(op), {"tag"},
                        AG(Sum("s", Col("qty")), CountAll("n")));
    return RunPlan(plan::Order(&ctx, std::move(op), {Asc("tag")}), "r");
  };
  std::unique_ptr<Table> ram =
      run(plan::Scan(&ctx, *t, {"tag", "qty"}));

  ColumnBm bm;
  std::unique_ptr<Table> plain = run(std::make_unique<BmScanOp>(
      &ctx, &bm, *t, BmScanSpec{.cols = {"tag", "qty"}}));
  ExpectTablesEqual(*ram, *plain, 0.0);

  ColumnBm bm2;
  std::unique_ptr<Table> comp = run(std::make_unique<BmScanOp>(
      &ctx, &bm2, *t, BmScanSpec{.cols = {"tag", "qty"}, .compress = true}));
  ExpectTablesEqual(*ram, *comp, 0.0);
  // Compressed image moved fewer bytes over the I/O boundary.
  EXPECT_LT(bm2.bytes_read(), bm.bytes_read());
}

TEST(BmScanTest, BlocksAreReusedAcrossQueries) {
  std::unique_ptr<Table> t = MakeData(5000);
  ExecContext ctx;
  ColumnBm bm;
  for (int run = 0; run < 2; run++) {
    auto op = plan::HashAggr(
        &ctx,
        plan::OpPtr(std::make_unique<BmScanOp>(
            &ctx, &bm, *t, BmScanSpec{.cols = {"id"}, .compress = true})),
        {}, AG(Sum("s", Col("id"))));
    std::unique_ptr<Table> r = RunPlan(std::move(op), "r");
    EXPECT_DOUBLE_EQ(static_cast<double>(r->GetValue(0, 0).AsI64()),
                     5000.0 * 4999.0 / 2.0);
  }
  EXPECT_TRUE(bm.Contains("data.id.cmp"));
}

TEST(BmScanTest, RejectsUnsupportedTablesWithClearErrors) {
  ExecContext ctx;
  ColumnBm bm;
  auto expect_throw = [&](const Table& t, std::vector<std::string> cols,
                          const char* needle) {
    try {
      BmScanOp op(&ctx, &bm, t, BmScanSpec{.cols = std::move(cols)});
      FAIL() << "expected std::invalid_argument mentioning '" << needle << "'";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << e.what();
    }
  };

  {  // unfrozen table
    Table t("u", std::vector<Table::ColumnSpec>{{"x", TypeId::kI32, false}});
    t.AppendRow({Value::I32(1)});
    expect_throw(t, {"x"}, "not frozen");
  }
  {  // delta rows
    std::unique_ptr<Table> t = MakeData(100);
    t->Insert({Value::I32(100), Value::Str("red"), Value::F64(1.0),
               Value::F64(2.0), Value::Date(8035)});
    expect_throw(*t, {"id"}, "delta rows");
  }
  {  // deleted rows
    std::unique_ptr<Table> t = MakeData(100);
    ASSERT_TRUE(t->Delete(3).ok());
    expect_throw(*t, {"id"}, "deleted rows");
  }
}

TEST(BmScanTest, ResidentStringColumnsMatchInMemoryScan) {
  // Non-enum strings are heap pointers, so they are never block-stored: the
  // scan copies them from the RAM fragment beside the block-served columns,
  // for every morsel split and with or without compression.
  std::unique_ptr<Table> t = MakeData(3000, /*enum_tag=*/false);
  ExecContext ctx;
  ctx.vector_size = 100;
  std::unique_ptr<Table> ram =
      RunPlan(plan::Scan(&ctx, *t, {"tag", "id"}), "ram");
  for (bool compress : {false, true}) {
    ColumnBm bm;
    for (int workers : {1, 3}) {
      std::vector<std::unique_ptr<Table>> parts;
      for (int w = 0; w < workers; w++) {
        parts.push_back(RunPlan(
            plan::BmScan(&ctx, &bm, *t,
                         {.cols = {"tag", "id"},
                          .compress = compress,
                          .morsel = {w, workers}}),
            "disk"));
      }
      int64_t row = 0;
      for (const auto& p : parts) {
        for (int64_t r = 0; r < p->num_rows(); r++, row++) {
          ASSERT_EQ(p->GetValue(r, 0).AsStr(), ram->GetValue(row, 0).AsStr());
          ASSERT_EQ(p->GetValue(r, 1).AsI64(), ram->GetValue(row, 1).AsI64());
        }
      }
      EXPECT_EQ(row, ram->num_rows());
    }
    EXPECT_FALSE(bm.Contains("data.tag.plain"));
    EXPECT_FALSE(bm.Contains("data.tag.cmp"));
  }
}

TEST(BmScanTest, ContextBlockSourceChoosesTheScan) {
  // plan::Scan reads ColumnBM blocks for the tables of the context's block
  // catalog and RAM fragments for anything else (materialized sub-results).
  Catalog db;
  Table* t = db.AddTable("data", {{"id", TypeId::kI32, false}});
  for (int i = 0; i < 1000; i++) t->AppendRow({Value::I32(i)});
  t->Freeze();
  std::unique_ptr<Table> other = MakeData(10);
  ColumnBm bm;
  QueryTrace trace;
  ExecContext ctx;
  ctx.trace = &trace;
  ctx.blocks = {&bm, &db};
  std::unique_ptr<Table> r =
      RunPlan(plan::Scan(&ctx, *t, {.cols = {"id"},
                                    .range = ScanSpec::Range{"id", 0, 10}}),
              "r");
  // The range is only a pruning hint: the block path returns every row.
  EXPECT_EQ(r->num_rows(), 1000);
  EXPECT_TRUE(bm.Contains("data.id.plain"));
  RunPlan(plan::Scan(&ctx, *other, std::vector<std::string>{"id"}), "o");
  std::string txt = trace.ToString();
  EXPECT_NE(txt.find("BmScan"), std::string::npos) << txt;
  EXPECT_NE(txt.find("Scan(data)"), std::string::npos) << txt;
  EXPECT_THROW(plan::Scan(&ctx, *t, ScanSpec{.cols = {"id"}, .rowid = "rid"}),
               std::invalid_argument);
}

TEST(BmScanTest, MorselScansPartitionTheFragment) {
  std::unique_ptr<Table> t = MakeData(10000);
  ExecContext ctx;
  ColumnBm bm;
  auto sum_count = [&](ScanSpec::Morsel m) {
    auto op = plan::HashAggr(
        &ctx,
        plan::BmScan(&ctx, &bm, *t,
                     {.cols = {"id"}, .compress = true, .morsel = m}),
        {}, AG(Sum("s", Col("id")), CountAll("n")));
    std::unique_ptr<Table> r = RunPlan(std::move(op), "r");
    return std::pair<int64_t, int64_t>(r->GetValue(0, 0).AsI64(),
                                       r->GetValue(0, 1).AsI64());
  };
  int64_t sum = 0, rows = 0;
  for (int w = 0; w < 4; w++) {
    auto [s, n] = sum_count({w, 4});
    sum += s;
    rows += n;
  }
  EXPECT_EQ(rows, 10000);
  EXPECT_EQ(sum, 10000ll * 9999 / 2);
  // Degenerate split: one worker owns everything.
  auto [s1, n1] = sum_count({0, 1});
  EXPECT_EQ(n1, 10000);
  EXPECT_EQ(s1, sum);
}

// ---- TopN / Order / Array ---------------------------------------------------

TEST(SortTest, TopNEqualsOrderPrefix) {
  std::unique_ptr<Table> t = MakeData(777);
  ExecContext ctx;
  auto full = RunPlan(plan::Order(&ctx, plan::Scan(&ctx, *t, {"id", "price"}),
                                  {Desc("price"), Asc("id")}),
                      "full");
  auto top = RunPlan(plan::TopN(&ctx, plan::Scan(&ctx, *t, {"id", "price"}),
                                {Desc("price"), Asc("id")}, 25),
                     "top");
  ASSERT_EQ(top->num_rows(), 25);
  for (int64_t r = 0; r < 25; r++) {
    EXPECT_EQ(top->GetValue(r, 0).AsI64(), full->GetValue(r, 0).AsI64());
    EXPECT_DOUBLE_EQ(top->GetValue(r, 1).AsF64(), full->GetValue(r, 1).AsF64());
  }
}

TEST(SortTest, OrderDecodesEnumColumns) {
  std::unique_ptr<Table> t = MakeData(30);
  ExecContext ctx;
  auto r = RunPlan(plan::Order(&ctx, plan::Scan(&ctx, *t, {"tag", "id"}),
                               {Asc("tag"), Asc("id")}),
                   "r");
  EXPECT_EQ(r->GetValue(0, 0).AsStr(), "blue");
  EXPECT_EQ(r->GetValue(29, 0).AsStr(), "red");
}

TEST(SortTest, TopNLargerThanInput) {
  std::unique_ptr<Table> t = MakeData(5);
  ExecContext ctx;
  auto r = RunPlan(
      plan::TopN(&ctx, plan::Scan(&ctx, *t, {"id"}), {Asc("id")}, 100), "r");
  EXPECT_EQ(r->num_rows(), 5);
}

TEST(ArrayOpTest, ColumnMajorCoordinates) {
  ExecContext ctx;
  ctx.vector_size = 4;
  ArrayOp arr(&ctx, {3, 2});
  arr.Open();
  std::vector<std::pair<int64_t, int64_t>> coords;
  while (VectorBatch* b = arr.Next()) {
    for (int i = 0; i < b->count(); i++) {
      coords.emplace_back(static_cast<const int64_t*>(b->column(0).data())[i],
                          static_cast<const int64_t*>(b->column(1).data())[i]);
    }
  }
  ASSERT_EQ(coords.size(), 6u);
  // Column-major: first dimension varies fastest.
  EXPECT_EQ(coords[0], (std::pair<int64_t, int64_t>{0, 0}));
  EXPECT_EQ(coords[1], (std::pair<int64_t, int64_t>{1, 0}));
  EXPECT_EQ(coords[3], (std::pair<int64_t, int64_t>{0, 1}));
  EXPECT_EQ(coords[5], (std::pair<int64_t, int64_t>{2, 1}));
}

}  // namespace
}  // namespace x100
