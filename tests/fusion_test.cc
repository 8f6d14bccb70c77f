// Adaptive fused-execution tests: the binder's chain pattern-matcher must be
// pure on a registry miss (the original fallthrough bug left the operand
// Decode/Cast steps orphaned in the program), fused kernels must be
// bit-identical to the interpreted chains they replace — across random
// expression shapes, IEEE specials, INT64 extremes, selection vectors,
// vector sizes, and the RAM/disk/parallel backends — and EXPLAIN ANALYZE
// must show fused steps as their own fused[sub>mul]-style plan nodes.

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "exec/bound_expr.h"
#include "exec/plan.h"
#include "exec/trace.h"
#include "primitives/fused.h"
#include "primitives/primitive.h"
#include "storage/columnbm.h"
#include "tests/test_util.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"

namespace x100 {
namespace {

using namespace x100::exprs;
using plan::OpPtr;
using testing::ExpectTablesEqual;
using testing::ScopedTempDir;

template <typename... Ts>
std::vector<NamedExpr> NE(Ts&&... ts) {
  std::vector<NamedExpr> v;
  (v.push_back(std::move(ts)), ...);
  return v;
}

/// f64 columns a/b/c carry IEEE specials (NaN, +-inf, -0.0, a denormal)
/// sprinkled into uniform noise; i64 columns x/y/z stay within +-2^13 so
/// depth-4 multiply chains cannot overflow; flt is special-free for
/// selection predicates.
std::unique_ptr<Table> MakeFusionData(int n) {
  auto t = std::make_unique<Table>(
      "fdata", std::vector<Table::ColumnSpec>{{"a", TypeId::kF64, false},
                                              {"b", TypeId::kF64, false},
                                              {"c", TypeId::kF64, false},
                                              {"flt", TypeId::kF64, false},
                                              {"x", TypeId::kI64, false},
                                              {"y", TypeId::kI64, false},
                                              {"z", TypeId::kI64, false}});
  Rng rng(20260808);
  auto f64 = [&](int i) -> double {
    if (i % 97 == 13) return std::numeric_limits<double>::quiet_NaN();
    if (i % 89 == 7) return std::numeric_limits<double>::infinity();
    if (i % 83 == 5) return -std::numeric_limits<double>::infinity();
    if (i % 79 == 3) return -0.0;
    if (i % 71 == 2) return std::numeric_limits<double>::denorm_min();
    return rng.NextDouble() * 200.0 - 100.0;
  };
  for (int i = 0; i < n; i++) {
    t->AppendRow({Value::F64(f64(i)), Value::F64(f64(i + 1)),
                  Value::F64(f64(i + 2)), Value::F64(rng.NextDouble()),
                  Value::I64(rng.Uniform(-8192, 8192)),
                  Value::I64(rng.Uniform(-8192, 8192)),
                  Value::I64(rng.Uniform(-8192, 8192))});
  }
  t->Freeze();
  return t;
}

/// Bit-exact table comparison: signed zeros, infinity signs and denormals
/// must survive fusion, which rules out ExpectTablesEqual's numeric
/// ASSERT_NEAR. NaNs compare equal to any NaN: when both operands of an
/// add/mul are NaN, x86 propagates whichever sits in the first source
/// register, and C lets the compiler commute those ops — so NaN payload
/// bits are not pinned on either the fused or the interpreted path.
void ExpectBitIdentical(const Table& a, const Table& b) {
  ASSERT_EQ(a.num_columns(), b.num_columns());
  ASSERT_EQ(a.num_rows(), b.num_rows());
  for (int64_t r = 0; r < a.num_rows(); r++) {
    for (int c = 0; c < a.num_columns(); c++) {
      Value va = a.GetValue(r, c);
      Value vb = b.GetValue(r, c);
      ASSERT_EQ(va.type(), vb.type()) << "row " << r << " col " << c;
      if (va.type() == TypeId::kF64) {
        double x = va.AsF64(), y = vb.AsF64();
        if (std::isnan(x) && std::isnan(y)) continue;
        EXPECT_EQ(std::bit_cast<uint64_t>(x), std::bit_cast<uint64_t>(y))
            << "row " << r << " col " << c << ": " << x << " vs " << y;
      } else {
        EXPECT_EQ(va.AsI64(), vb.AsI64()) << "row " << r << " col " << c;
      }
    }
  }
}

// ---- Binder regression: a fusion miss must be free of side effects --------

TEST(FusionBinderTest, MissLeavesProgramIdenticalToUnfusedBinding) {
  // i64 chains through div never hit the registry (no fused i64 div
  // kernels), so this expression probes the fuser and misses. The original
  // pattern-matcher bound its operands BEFORE checking the registry; the
  // miss then left dead Decode/Cast steps in the program, executed on every
  // vector. The probe must be pure: the programs bound with fusion on and
  // off must be step-for-step identical.
  std::unique_ptr<Table> t = MakeFusionData(64);
  ExecContext ctx;
  ScanOp scan(&ctx, *t, {"x", "y", "z"});
  ExprPtr e = Div(Add(Col("x"), Col("y")), Col("z"));

  auto bind = [&](bool fuse) {
    ExecContext c;
    c.fuse_compound_primitives = fuse;
    auto p = std::make_unique<bind_internal::Program>(&c, "probe");
    p->NoteSubtreeUses(*e);
    p->BindValue(scan.schema(), *e);
    return p;
  };
  std::unique_ptr<bind_internal::Program> fused = bind(true);
  std::unique_ptr<bind_internal::Program> plain = bind(false);
  ASSERT_EQ(fused->steps().size(), plain->steps().size());
  for (size_t i = 0; i < fused->steps().size(); i++) {
    // Same primitives (registry pointers), same dataflow.
    EXPECT_EQ(fused->steps()[i].prim, plain->steps()[i].prim) << "step " << i;
    EXPECT_EQ(fused->steps()[i].res_reg, plain->steps()[i].res_reg);
    EXPECT_EQ(fused->steps()[i].args.size(), plain->steps()[i].args.size());
  }
}

TEST(FusionBinderTest, HitBindsOneFusedStep) {
  // The Q1 shape (1 - d) * p over plain f64 columns needs no decode or cast
  // steps, so the whole chain must collapse into exactly one program step.
  std::unique_ptr<Table> t = MakeFusionData(64);
  ExecContext ctx;
  ScanOp scan(&ctx, *t, {"a", "b"});
  ExprPtr e = Mul(Sub(LitF64(1.0), Col("a")), Col("b"));
  bind_internal::Program p(&ctx, "hit");
  p.NoteSubtreeUses(*e);
  p.BindValue(scan.schema(), *e);
  ASSERT_EQ(p.steps().size(), 1u);
  const MapPrimitive* want =
      PrimitiveRegistry::Get().FindMap("map_fused_sub_vc_mul_pc_f64");
  ASSERT_NE(want, nullptr);
  EXPECT_EQ(p.steps()[0].prim, want);
  EXPECT_EQ(p.steps()[0].saved_bytes_per_tuple, 16u);
}

TEST(FusionBinderTest, DeepMissShrinksToFusedPrefixPlusInterpretedStep) {
  // Depth-3 i64 chains are not generated (f64 only at depth 3); the binder
  // must shrink the chain instead of abandoning it: the deepest link drops
  // out, binds as an ordinary interpreted step, and the remaining depth-2
  // chain fuses.
  std::unique_ptr<Table> t = MakeFusionData(64);
  ExecContext ctx;
  ScanOp scan(&ctx, *t, {"x", "y", "z"});
  ExprPtr e = Add(Mul(Add(Col("x"), Col("y")), Col("z")), Col("x"));
  bind_internal::Program p(&ctx, "shrink");
  p.NoteSubtreeUses(*e);
  p.BindValue(scan.schema(), *e);
  ASSERT_EQ(p.steps().size(), 2u);
  const MapPrimitive* fused =
      PrimitiveRegistry::Get().FindMap("map_fused_mul_cc_add_pc_i64");
  ASSERT_NE(fused, nullptr);
  EXPECT_NE(p.steps()[0].prim, fused);  // interpreted add(x, y)
  EXPECT_EQ(p.steps()[1].prim, fused);  // fused (dropped * z) + x
}

TEST(FusionBinderTest, NumericConstantsOfAnyTypeFuse) {
  // The original guard accepted only kF64 literals; an i32 literal in an
  // otherwise-f64 chain fell through. StoreConst converts the constant to
  // the chain type exactly like the generic path, so the shapes must agree.
  std::unique_ptr<Table> t = MakeFusionData(512);
  auto make = [&](ExecContext* ctx) {
    OpPtr op = plan::Scan(ctx, *t, {"a", "b"});
    op = plan::Project(
        ctx, std::move(op),
        NE(As("v", Mul(Sub(LitI32(1), Col("a")), Col("b")))));
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
  ExpectBitIdentical(*a, *b);
  bool saw_fused = false;
  for (const auto& [name, s] : prof.Rows()) {
    if (name == "map_fused_sub_vc_mul_pc_f64") saw_fused = true;
  }
  EXPECT_TRUE(saw_fused);
}

TEST(FusionBinderTest, MahalanobisIsAMacroForTheGeneratedChain) {
  // mahalanobis(a, b, c) binds as div(square(sub(a, b)), c): one generated
  // depth-3 kernel with fusion on, three interpreted steps with it off, and
  // the same numbers either way.
  std::unique_ptr<Table> t = MakeFusionData(256);
  ExecContext ctx;
  ScanOp scan(&ctx, *t, {"a", "b", "c"});
  auto mahal = [](ExprPtr a, ExprPtr b, ExprPtr c) {
    std::vector<ExprPtr> args;
    args.push_back(std::move(a));
    args.push_back(std::move(b));
    args.push_back(std::move(c));
    return Expr::Call("mahalanobis", std::move(args));
  };
  ExprPtr e = mahal(Col("a"), Col("b"), Col("c"));
  auto bind = [&](bool fuse) {
    ExecContext c;
    c.fuse_compound_primitives = fuse;
    bind_internal::Program p(&c, "mahal");
    p.NoteSubtreeUses(*e);
    p.BindValue(scan.schema(), *e);
    std::vector<const MapPrimitive*> prims;
    for (const bind_internal::MapStep& s : p.steps()) prims.push_back(s.prim);
    return prims;
  };
  const PrimitiveRegistry& r = PrimitiveRegistry::Get();
  EXPECT_EQ(bind(true), std::vector<const MapPrimitive*>{r.FindMap(
                            "map_fused_sub_cc_square_p_div_pc_f64")});
  EXPECT_EQ(bind(false),
            (std::vector<const MapPrimitive*>{
                r.FindMap("map_sub_f64_col_f64_col"),
                r.FindMap("map_square_f64_col"),
                r.FindMap("map_div_f64_col_f64_col")}));

  auto run = [&](bool fuse) {
    ExecContext c;
    c.fuse_compound_primitives = fuse;
    OpPtr op = plan::Scan(&c, *t, {"a", "b", "c"});
    op = plan::Project(&c, std::move(op),
                       NE(As("d", mahal(Col("a"), Col("b"), Col("c")))));
    return RunPlan(std::move(op), "r");
  };
  ExpectBitIdentical(*run(false), *run(true));

  // Wrong arity is still the caller's bind error, fused or not.
  for (bool fuse : {true, false}) {
    ExecContext c;
    c.fuse_compound_primitives = fuse;
    std::vector<ExprPtr> two;
    two.push_back(Col("a"));
    two.push_back(Col("b"));
    ExprPtr bad = Expr::Call("mahalanobis", std::move(two));
    bind_internal::Program p(&c, "mahal");
    p.NoteSubtreeUses(*bad);
    EXPECT_THROW(p.BindValue(scan.schema(), *bad), std::invalid_argument);
  }
}

// ---- Differential: fused and interpreted chains are bit-identical ----------

/// A random linear map chain of `depth` nodes over the f64 or i64 columns.
/// i64 chains avoid div (no fused i64 div kernels exist, and the interpreted
/// kernel shares its SIGFPE hazard) and square (the binder computes square
/// in f64, so an i64 square chain is never type-uniform).
ExprPtr RandomChain(Rng* rng, bool f64, int depth) {
  const char* cols_f64[3] = {"a", "b", "c"};
  const char* cols_i64[3] = {"x", "y", "z"};
  auto leaf = [&](bool force_col) -> ExprPtr {
    if (!force_col && rng->Uniform(0, 3) == 0) {
      return f64 ? LitF64(rng->NextDouble() * 20.0 - 10.0)
                 : LitI64(rng->Uniform(-8192, 8192));
    }
    return Col((f64 ? cols_f64 : cols_i64)[rng->Uniform(0, 2)]);
  };
  auto binop = [&]() -> const char* {
    switch (rng->Uniform(0, f64 ? 3 : 2)) {
      case 0: return "add";
      case 1: return "sub";
      case 2: return "mul";
      default: return "div";
    }
  };
  // First step: binary over two leaves (at least one column) or unary.
  ExprPtr e;
  if (rng->Uniform(0, 4) == 0) {
    e = f64 && rng->Uniform(0, 1) == 0 ? Square(leaf(true))
                                       : Call1("neg", leaf(true));
  } else {
    e = Call2(binop(), leaf(true), leaf(false));
  }
  for (int d = 1; d < depth; d++) {
    int kind = rng->Uniform(0, 4);
    if (kind == 0) {
      e = f64 && rng->Uniform(0, 1) == 0 ? Square(std::move(e))
                                         : Call1("neg", std::move(e));
    } else if (kind == 1) {
      e = Call2(binop(), leaf(false), std::move(e));
    } else {
      e = Call2(binop(), std::move(e), leaf(false));
    }
  }
  return e;
}

TEST(FusionDifferentialTest, RandomChainsBitIdenticalAcrossVectorSizes) {
  std::unique_ptr<Table> t = MakeFusionData(3000);
  Rng rng(42);
  for (int round = 0; round < 8; round++) {
    std::vector<NamedExpr> exprs;
    for (int i = 0; i < 6; i++) {
      bool f64 = i % 2 == 0;
      int depth = static_cast<int>(rng.Uniform(2, 5));
      exprs.push_back(As("e" + std::to_string(i),
                         RandomChain(&rng, f64, depth)));
    }
    for (int vs : {1, 13, 1024}) {
      auto make = [&](bool fuse) {
        ExecContext ctx;
        ctx.vector_size = vs;
        ctx.fuse_compound_primitives = fuse;
        OpPtr op = plan::Scan(&ctx, *t,
                              {"a", "b", "c", "flt", "x", "y", "z"});
        // Selection vector under the projection: fused kernels see the same
        // sel-compacted positions the interpreted chain sees.
        op = plan::Select(&ctx, std::move(op),
                          Gt(Col("flt"), LitF64(0.3)));
        std::vector<NamedExpr> cloned;
        for (const NamedExpr& ne : exprs) {
          cloned.push_back(As(ne.name, ne.expr->Clone()));
        }
        op = plan::Project(&ctx, std::move(op), std::move(cloned));
        return RunPlan(std::move(op), "r");
      };
      std::unique_ptr<Table> plain = make(false);
      std::unique_ptr<Table> fused = make(true);
      ASSERT_GT(plain->num_rows(), 0);
      ExpectBitIdentical(*plain, *fused);
    }
  }
}

TEST(FusionDifferentialTest, Int64ExtremesSurviveFusedChains) {
  // INT64_MIN/MAX rows with per-row compensating operands keep every
  // intermediate in range (signed overflow is UB on both paths); the fused
  // kernels must produce the same 64-bit values.
  auto t = std::make_unique<Table>(
      "ext", std::vector<Table::ColumnSpec>{{"x", TypeId::kI64, false},
                                            {"y", TypeId::kI64, false},
                                            {"z", TypeId::kI64, false}});
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  t->AppendRow({Value::I64(kMax), Value::I64(10), Value::I64(3)});
  t->AppendRow({Value::I64(kMin + 2), Value::I64(-10), Value::I64(-3)});
  t->AppendRow({Value::I64(-1), Value::I64(kMax), Value::I64(0)});
  t->AppendRow({Value::I64(-1), Value::I64(kMin / 2), Value::I64(1)});
  t->AppendRow({Value::I64(1), Value::I64(0), Value::I64(kMin + 1)});
  t->Freeze();
  auto make = [&](bool fuse) {
    ExecContext ctx;
    ctx.fuse_compound_primitives = fuse;
    OpPtr op = plan::Scan(&ctx, *t, {"x", "y", "z"});
    op = plan::Project(
        &ctx, std::move(op),
        NE(As("s", Add(Sub(Col("x"), Col("y")), Col("z"))),
           As("n", Call1("neg", Add(Col("y"), Col("z"))))));
    return RunPlan(std::move(op), "r");
  };
  std::unique_ptr<Table> plain = make(false);
  std::unique_ptr<Table> fused = make(true);
  ExpectBitIdentical(*plain, *fused);
  // Spot-check the arithmetic really exercised the extremes.
  EXPECT_EQ(fused->GetValue(0, 0).AsI64(), kMax - 10 + 3);
  EXPECT_EQ(fused->GetValue(1, 0).AsI64(), kMin + 2 + 10 - 3);
}

// ---- Backends: RAM, disk, exchange workers ---------------------------------

class FusionTpchTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    DbgenOptions opts;
    opts.scale_factor = 0.02;
    db_ = GenerateTpch(opts).release();
  }
  static Catalog* db_;
};
Catalog* FusionTpchTest::db_ = nullptr;

TEST_F(FusionTpchTest, Q1Q6FusedBitIdenticalOnRamAndDisk) {
  for (int q : {1, 6}) {
    ExecContext plain;
    plain.fuse_compound_primitives = false;
    ExecContext fused;
    fused.fuse_compound_primitives = true;
    std::unique_ptr<Table> ram_plain = RunX100Query(q, &plain, *db_);
    std::unique_ptr<Table> ram_fused = RunX100Query(q, &fused, *db_);
    ExpectBitIdentical(*ram_plain, *ram_fused);

    ScopedTempDir dir("x100_fusion_test");
    ColumnBm bm(ColumnBm::Options{.disk_dir = dir.path()});
    plain.blocks = {&bm, db_};
    fused.blocks = {&bm, db_};
    std::unique_ptr<Table> disk_plain = RunX100Query(q, &plain, *db_);
    std::unique_ptr<Table> disk_fused = RunX100Query(q, &fused, *db_);
    ExpectBitIdentical(*disk_plain, *disk_fused);
    ExpectBitIdentical(*ram_fused, *disk_fused);
  }
}

TEST_F(FusionTpchTest, Q1Q6FusedMatchesUnfusedUnderExchange) {
  // 4-worker runs partial-aggregate per morsel before the merge, so double
  // sums can differ from serial in the last ulp — same relative tolerance
  // the serial-vs-parallel tests use. At num_threads=1 the exchange is
  // elided and the comparison is exact.
  for (int q : {1, 6}) {
    for (int threads : {1, 4}) {
      ExecContext plain;
      plain.num_threads = threads;
      plain.fuse_compound_primitives = false;
      ExecContext fused;
      fused.num_threads = threads;
      fused.fuse_compound_primitives = true;
      std::unique_ptr<Table> a = RunX100Query(q, &plain, *db_);
      std::unique_ptr<Table> b = RunX100Query(q, &fused, *db_);
      if (threads == 1) {
        ExpectBitIdentical(*a, *b);
      } else {
        ExpectTablesEqual(*a, *b);
      }
    }
  }
}

// ---- EXPLAIN ANALYZE -------------------------------------------------------

TEST_F(FusionTpchTest, ExplainAnalyzeShowsFusedNodes) {
  QueryTrace trace;
  ExecContext ctx;
  ctx.trace = &trace;
  std::unique_ptr<Table> r = RunX100Query(1, &ctx, *db_);
  ASSERT_NE(r, nullptr);
  std::string text = trace.ToString();
  // Q1's two fused chains: (1-disc)*price and (1-disc)*price*(1+tax).
  EXPECT_NE(text.find("fused[sub>mul]"), std::string::npos) << text;
  EXPECT_NE(text.find("fused[add>mul]"), std::string::npos) << text;

  // The fused nodes account their work and carry the saved-traffic counter.
  bool found = false;
  std::vector<const TraceNode*> stack(trace.roots().begin(),
                                      trace.roots().end());
  while (!stack.empty()) {
    const TraceNode* n = stack.back();
    stack.pop_back();
    for (const TraceNode* c : n->children) stack.push_back(c);
    if (n->label.find("fused[") != 0) continue;
    found = true;
    EXPECT_GT(n->tuples, 0u) << n->label;
    EXPECT_GT(n->next_calls, 0u) << n->label;
    bool saw_saved = false;
    for (const auto& [name, v] : n->counters) {
      if (name == "map.fused.saved_bytes") {
        saw_saved = v > 0;
      }
    }
    EXPECT_TRUE(saw_saved) << n->label;
  }
  EXPECT_TRUE(found);
}

TEST_F(FusionTpchTest, ExplainAnalyzeMergesFusedNodesAcrossWorkers) {
  QueryTrace trace;
  ExecContext ctx;
  ctx.num_threads = 4;
  ctx.trace = &trace;
  std::unique_ptr<Table> r = RunX100Query(1, &ctx, *db_);
  ASSERT_NE(r, nullptr);
  std::string text = trace.ToString();
  EXPECT_NE(text.find("Exchange(workers=4)"), std::string::npos) << text;
  // The merged per-worker subtree shows ONE fused node summing all workers.
  EXPECT_NE(text.find("fused[sub>mul]"), std::string::npos) << text;
}

TEST(FusionTpchKernelsTest, EachQueryBindsExactlyItsMeasuredFusedKernels) {
  // Regression guard for the generator's pruning: the registry keeps every
  // depth-2 shape but only the deep shapes something binds. If a plan or
  // binder change makes a query bind a different fused kernel (or lose
  // one), this set changes and the depth-3 list in fused_gen_d3.cc must be
  // revisited.
  const std::map<int, std::set<std::string>> want = {
      {1, {"map_fused_sub_vc_mul_pc_f64", "map_fused_add_vc_mul_pc_f64"}},
      {3, {"map_fused_sub_vc_mul_pc_f64"}},
      {5, {"map_fused_sub_vc_mul_pc_f64"}},
      {7, {"map_fused_sub_vc_mul_pc_f64"}},
      {8, {"map_fused_sub_vc_mul_pc_f64"}},
      {9, {"map_fused_sub_vc_mul_pc_sub_pc_f64"}},
      {10, {"map_fused_sub_vc_mul_pc_f64"}},
      {14, {"map_fused_sub_vc_mul_pc_f64", "map_fused_mul_vc_div_pc_f64"}},
      {15, {"map_fused_sub_vc_mul_pc_f64"}},
      {17, {"map_fused_div_cc_mul_vp_f64"}},
      {19, {"map_fused_sub_vc_mul_pc_f64"}},
  };
  DbgenOptions opts;
  opts.scale_factor = 0.01;
  std::unique_ptr<Catalog> db = GenerateTpch(opts);
  for (int q = 1; q <= 22; q++) {
    SCOPED_TRACE("Q" + std::to_string(q));
    QueryTrace trace;
    ExecContext ctx;
    ctx.trace = &trace;
    ASSERT_NE(RunX100Query(q, &ctx, *db), nullptr);
    std::set<std::string> got;
    std::vector<const TraceNode*> stack(trace.roots().begin(),
                                        trace.roots().end());
    while (!stack.empty()) {
      const TraceNode* n = stack.back();
      stack.pop_back();
      for (const TraceNode* c : n->children) stack.push_back(c);
      if (n->detail.rfind("map_fused_", 0) == 0) got.insert(n->detail);
    }
    auto it = want.find(q);
    EXPECT_EQ(got, it == want.end() ? std::set<std::string>{} : it->second);
  }
}

TEST_F(FusionTpchTest, TraceOffFusedStepsStillRun) {
  // Fusion must not depend on tracing: no trace, fused kernels still bind
  // (their Profiler rows prove it) and results match the unfused plan.
  Profiler prof;
  ExecContext ctx;
  ctx.profiler = &prof;
  std::unique_ptr<Table> fused = RunX100Query(1, &ctx, *db_);
  ExecContext plain;
  plain.fuse_compound_primitives = false;
  std::unique_ptr<Table> ref = RunX100Query(1, &plain, *db_);
  ExpectBitIdentical(*ref, *fused);
  bool saw = false;
  for (const auto& [name, s] : prof.Rows()) {
    if (name.rfind("map_fused_", 0) == 0 && s->tuples > 0) saw = true;
  }
  EXPECT_TRUE(saw);
}

}  // namespace
}  // namespace x100
