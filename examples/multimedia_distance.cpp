// The paper's extensibility story (§4.2): X100 treats user-provided code
// patterns as first-class primitives. The example is the one the paper uses —
// the Mahalanobis distance /(square(-(double*,double*)),double*) from
// multimedia retrieval, written mahalanobis(x, mu, sigma) — executed two ways:
//   1. fusion off: a chain of single-function vectorized primitives (sub,
//      square, div)
//   2. fusion on: the binder expands the call to div(square(sub(..)), ..)
//      and binds the whole sub-tree to one generated compound primitive
//      (one loop, intermediates in registers)
// and reports the speedup of the compound form (the paper sees ~2x).
//
//   $ ./build/examples/multimedia_distance

#include <cstdio>

#include "common/profiling.h"
#include "exec/plan.h"
#include "storage/catalog.h"

using namespace x100;

namespace {

double RunVariant(const Table& t, bool compound) {
  ExecContext ctx;
  ctx.fuse_compound_primitives = compound;
  std::vector<ExprPtr> args;
  args.push_back(Col("x"));
  args.push_back(Col("mu"));
  args.push_back(Col("sigma"));
  ExprPtr dist = Expr::Call("mahalanobis", std::move(args));
  auto plan = plan::Scan(&ctx, t, {"x", "mu", "sigma"});
  std::vector<NamedExpr> exprs;
  exprs.push_back(As("d", std::move(dist)));
  plan = plan::Project(&ctx, std::move(plan), std::move(exprs));
  std::vector<AggrSpec> aggrs;
  aggrs.push_back(Sum("total", Col("d")));
  plan = plan::HashAggr(&ctx, std::move(plan), {}, std::move(aggrs));

  uint64_t t0 = NowNanos();
  std::unique_ptr<Table> r = RunPlan(std::move(plan), "dist");
  double ms = (NowNanos() - t0) / 1e6;
  std::printf("  %-22s %8.2f ms   (checksum %.3f)\n",
              compound ? "compound primitive" : "single primitives", ms,
              r->GetValue(0, 0).AsF64());
  return ms;
}

}  // namespace

int main() {
  Catalog catalog;
  Table* vecs = catalog.AddTable("features", {{"x", TypeId::kF64, false},
                                              {"mu", TypeId::kF64, false},
                                              {"sigma", TypeId::kF64, false}});
  for (int i = 0; i < 4000000; i++) {
    vecs->AppendRow({Value::F64(i % 251), Value::F64(i % 97),
                     Value::F64(1.0 + i % 13)});
  }
  vecs->Freeze();

  std::printf("Mahalanobis distance over %lld tuples:\n",
              static_cast<long long>(vecs->num_rows()));
  RunVariant(*vecs, false);  // warm-up + chained
  double chained = RunVariant(*vecs, false);
  double compound = RunVariant(*vecs, true);
  std::printf("compound speedup: %.2fx\n", chained / compound);
  return 0;
}
