// Adaptive fused execution: the generated fused-chain kernels against the
// interpreted single-primitive chains they replace. Micro rows time one
// cache-resident vector shape at a time (depth-2 Q1 shape, depth-3
// mahalanobis shape) through the registry kernels directly; the end-to-end
// rows run full TPC-H Q1 with the binder's chain fuser on vs off — the
// generalized form of the paper's §4.2 claim that compound primitives run
// ~2x faster because intermediates stay in registers.

#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "primitives/primitive.h"
#include "tpch/queries.h"

using namespace x100;
using namespace x100::bench;

namespace {

struct Cols {
  std::vector<double> a, b, c, t1, t2, out;
  explicit Cols(int n) : a(n), b(n), c(n), t1(n), t2(n), out(n) {
    Rng rng(11);
    for (int i = 0; i < n; i++) {
      a[i] = rng.NextDouble() * 100;
      b[i] = rng.NextDouble() * 100;
      c[i] = rng.NextDouble() * 9 + 1;
    }
  }
};

/// IPC of the best-timed rep, when that rep measured both counters.
double BestRepIpc(const RepSet& r) {
  if (r.seconds.empty()) return 0.0;
  size_t best = 0;
  for (size_t i = 1; i < r.seconds.size(); i++) {
    if (r.seconds[i] < r.seconds[best]) best = i;
  }
  const PerfCounterValues& p = r.perf[best];
  return p.HasIpc() ? p.Ipc() : 0.0;
}

}  // namespace

int main() {
  constexpr int kVec = 1024;   // one cache-resident vector
  constexpr int kVecs = 4096;  // total 4M tuples per measurement
  int reps = Reps(5);
  Cols cols(kVec);
  const PrimitiveRegistry& r = PrimitiveRegistry::Get();
  BenchExport ex("fusion");

  // Depth-2, the Q1 shape: (1 - a) * b as sub then mul vs one fused kernel.
  auto chain_sub_mul = [&] {
    const MapPrimitive* sub = r.FindMap("map_sub_f64_val_f64_col");
    const MapPrimitive* mul = r.FindMap("map_mul_f64_col_f64_col");
    double one = 1.0;
    for (int v = 0; v < kVecs; v++) {
      const void* a1[2] = {&one, cols.a.data()};
      sub->fn(kVec, cols.t1.data(), a1, nullptr);
      const void* a2[2] = {cols.t1.data(), cols.b.data()};
      mul->fn(kVec, cols.out.data(), a2, nullptr);
    }
  };
  auto fused_sub_mul = [&] {
    const MapPrimitive* m = r.FindMap("map_fused_sub_vc_mul_pc_f64");
    double one = 1.0;
    for (int v = 0; v < kVecs; v++) {
      const void* args[3] = {&one, cols.a.data(), cols.b.data()};
      m->fn(kVec, cols.out.data(), args, nullptr);
    }
  };

  // Depth-3, the paper's mahalanobis shape: square(a - b) / c as three
  // primitives vs the generated sub_cc > square_p > div_pc kernel.
  auto chain_mahal = [&] {
    const MapPrimitive* sub = r.FindMap("map_sub_f64_col_f64_col");
    const MapPrimitive* sq = r.FindMap("map_square_f64_col");
    const MapPrimitive* div = r.FindMap("map_div_f64_col_f64_col");
    for (int v = 0; v < kVecs; v++) {
      const void* a1[2] = {cols.a.data(), cols.b.data()};
      sub->fn(kVec, cols.t1.data(), a1, nullptr);
      const void* a2[1] = {cols.t1.data()};
      sq->fn(kVec, cols.t2.data(), a2, nullptr);
      const void* a3[2] = {cols.t2.data(), cols.c.data()};
      div->fn(kVec, cols.out.data(), a3, nullptr);
    }
  };
  auto fused_mahal = [&] {
    const MapPrimitive* m = r.FindMap("map_fused_sub_cc_square_p_div_pc_f64");
    for (int v = 0; v < kVecs; v++) {
      const void* args[3] = {cols.a.data(), cols.b.data(), cols.c.data()};
      m->fn(kVec, cols.out.data(), args, nullptr);
    }
  };

  std::printf("Fused-chain kernels vs interpreted chains "
              "(4M tuples, vectors of %d)\n\n", kVec);
  std::printf("%-36s %10s %12s\n", "chain", "ms", "vs chained");
  const double kTuples = static_cast<double>(kVec) * kVecs;
  struct Micro {
    const char* key;
    const char* label;
    RepSet chained, fused;
  } micro[2] = {{"submul", "(1-a)*b: depth-2", {}, {}},
                {"mahal", "square(a-b)/c: depth-3", {}, {}}};
  micro[0].chained = MeasureReps(reps, chain_sub_mul);
  micro[0].fused = MeasureReps(reps, fused_sub_mul);
  micro[1].chained = MeasureReps(reps, chain_mahal);
  micro[1].fused = MeasureReps(reps, fused_mahal);
  for (const Micro& m : micro) {
    double c = m.chained.Best() * 1e3, f = m.fused.Best() * 1e3;
    ex.AddReps(std::string(m.key) + "_interpreted", m.chained);
    ex.AddReps(std::string(m.key) + "_fused", m.fused);
    ex.AddScalar(std::string(m.key) + "_fused_speedup", c / f);
    ex.AddScalar(std::string(m.key) + "_fused_ns_per_tuple",
                 m.fused.Best() * 1e9 / kTuples, "ns");
    std::printf("%-36s %10.2f %12s\n",
                (std::string(m.label) + " interpreted").c_str(), c, "1.00x");
    std::printf("%-36s %10.2f %11.2fx\n",
                (std::string(m.label) + " fused").c_str(), f, c / f);
  }

  // End to end: TPC-H Q1, binder chain-fusion off vs on. Same plan, same
  // data; only the map pipeline differs — results are bit-identical
  // (tests/fusion_test.cc), so any delta is pure map-pipeline time.
  std::unique_ptr<Catalog> db = MakeTpch(ScaleFactor(0.25));
  ExecContext plain;
  plain.fuse_compound_primitives = false;
  ExecContext fused;
  fused.fuse_compound_primitives = true;
  RunX100Query(1, &plain, *db);  // warm-up
  RepSet rp = MeasureReps(reps, [&] { RunX100Query(1, &plain, *db); });
  RepSet rf = MeasureReps(reps, [&] { RunX100Query(1, &fused, *db); });
  ex.AddReps("q1_unfused", rp);
  ex.AddReps("q1_fused", rf);
  double speedup = rp.Best() / rf.Best();
  ex.AddScalar("q1_fused_speedup", speedup);
  double ipc = BestRepIpc(rf);
  if (ipc > 0.0) ex.AddScalar("q1_fused_ipc", ipc);
  std::printf("\nTPC-H Q1 end-to-end: %.1f ms unfused, %.1f ms fused "
              "(%.2fx)\n", rp.Best() * 1e3, rf.Best() * 1e3, speedup);
  ex.Write();
  return 0;
}
