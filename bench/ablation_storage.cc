// Ablation for the §4.3 storage claims:
//  (a) enumeration compression: smaller columns, with the automatic
//      decode Fetch1Join costing only ~2 cycles/tuple (Table 5's
//      map_fetch rows) — measured by scanning+summing an enum f64 column
//      vs the same data stored plain;
//  (b) summary indices: a range predicate on a clustered column scans only
//      the pruned #rowId range instead of the whole fragment.

#include <cstdio>

#include "bench/bench_util.h"
#include "common/date.h"
#include "exec/plan.h"
#include "storage/catalog.h"
#include "storage/columnbm.h"

using namespace x100;
using namespace x100::exprs;
using namespace x100::bench;

namespace {

template <typename... Ts>
std::vector<AggrSpec> AG(Ts&&... ts) {
  std::vector<AggrSpec> v;
  (v.push_back(std::move(ts)), ...);
  return v;
}

double SumColumn(ExecContext* ctx, const Table& t, const char* col) {
  auto op = plan::Scan(ctx, t, {col});
  op = plan::HashAggr(ctx, std::move(op), {}, AG(Sum("s", Col(col))));
  return RunPlan(std::move(op), "s")->GetValue(0, 0).AsF64();
}

}  // namespace

int main() {
  int reps = Reps(3);
  constexpr int kN = 4000000;

  // (a) enum vs plain storage of a low-cardinality f64 column.
  Catalog cat;
  Table* enc = cat.AddTable("enc", {{"v", TypeId::kF64, true}});
  Table* plain = cat.AddTable("plain", {{"v", TypeId::kF64, false}});
  for (int i = 0; i < kN; i++) {
    double v = (i % 11) / 100.0;  // l_discount-like domain
    enc->AppendRow({Value::F64(v)});
    plain->AppendRow({Value::F64(v)});
  }
  enc->Freeze();
  plain->Freeze();

  ExecContext ctx;
  BenchExport ex("ablation_storage");
  RepSet r_enc = MeasureReps(reps, [&] { SumColumn(&ctx, *enc, "v"); });
  RepSet r_plain = MeasureReps(reps, [&] { SumColumn(&ctx, *plain, "v"); });
  ex.AddReps("sum_enum", r_enc);
  ex.AddReps("sum_plain", r_plain);
  double t_enc = r_enc.Best(), t_plain = r_plain.Best();
  std::printf("Enumeration-compression ablation: sum over %d low-cardinality "
              "f64 values\n", kN);
  std::printf("%-26s %10s %12s\n", "storage", "bytes", "scan+sum ms");
  std::printf("%-26s %10zu %12.2f\n", "plain f64",
              plain->column(0).bytes(), t_plain * 1e3);
  std::printf("%-26s %10zu %12.2f   (decode fetch inserted automatically)\n",
              "enum (u8 codes + dict)", enc->column(0).bytes(), t_enc * 1e3);
  std::printf("compression: %.1fx smaller, decode overhead: %.2fx time\n\n",
              static_cast<double>(plain->column(0).bytes()) /
                  static_cast<double>(enc->column(0).bytes()),
              t_enc / t_plain);

  // (b) summary-index range pruning on a clustered date column.
  std::unique_ptr<Catalog> db = MakeTpch(ScaleFactor(0.25));
  Table& li = db->Get("lineitem");
  int32_t lo = ParseDate("1994-03-01"), hi = ParseDate("1994-03-31");
  auto run = [&](bool use_sma) {
    auto scan = std::make_unique<ScanOp>(
        &ctx, li, std::vector<std::string>{"l_shipdate", "l_extendedprice"});
    if (use_sma) scan->RestrictRange("l_shipdate", lo, hi);
    plan::OpPtr op = std::move(scan);
    op = plan::Select(&ctx, std::move(op),
                      Between(Col("l_shipdate"), Lit(Value::Date(lo)),
                              Lit(Value::Date(hi))));
    op = plan::HashAggr(&ctx, std::move(op), {},
                        AG(Sum("s", Col("l_extendedprice")), CountAll("n")));
    return RunPlan(std::move(op), "r");
  };
  auto r1 = run(false);
  auto r2 = run(true);
  X100_CHECK(r1->GetValue(0, 1).AsI64() == r2->GetValue(0, 1).AsI64());
  RepSet r_full = MeasureReps(reps, [&] { run(false); });
  RepSet r_sma = MeasureReps(reps, [&] { run(true); });
  ex.AddReps("range_full_scan", r_full);
  ex.AddReps("range_sma_pruned", r_sma);
  double t_full = r_full.Best(), t_sma = r_sma.Best();
  std::printf("Summary-index ablation: one-month range over clustered "
              "l_shipdate (%lld of %lld rows qualify)\n",
              static_cast<long long>(r1->GetValue(0, 1).AsI64()),
              static_cast<long long>(li.num_rows()));
  std::printf("%-26s %12.2f ms\n", "full scan", t_full * 1e3);
  std::printf("%-26s %12.2f ms   (%.1fx)\n", "summary-index pruned",
              t_sma * 1e3, t_full / t_sma);

  // (c) ColumnBM + lightweight compression under an I/O-bandwidth ceiling:
  // the disk-bound regime the paper's ColumnBM targets. The blocks live in
  // chunk files behind the buffer pool, and the simulated 200MB/s ceiling
  // throttles every logical block read (pool hit or miss), so the page cache
  // cannot hide the I/O. Reading the FOR-compressed file moves fewer bytes
  // across that boundary; decompression happens CPU-side.
  const Column& dates = li.column(li.ColumnIndex("l_shipdate"));
  ColumnBm bm;
  bm.Store("l_shipdate.plain", dates);
  size_t comp_bytes =
      bm.StoreCompressed("l_shipdate.for", dates, 1 << 16, CodecId::kFor);
  bm.set_simulated_bandwidth(200e6);
  std::vector<int32_t> buf(1 << 16);
  auto scan_plain = [&] {
    int64_t sum = 0;
    for (int64_t b = 0; b < bm.NumBlocks("l_shipdate.plain"); b++) {
      ColumnBm::BlockRef ref = bm.ReadBlock("l_shipdate.plain", b);
      const int32_t* v = static_cast<const int32_t*>(ref.data);
      for (size_t i = 0; i < ref.bytes / 4; i++) sum += v[i];
    }
    return sum;
  };
  auto scan_comp = [&] {
    int64_t sum = 0;
    for (int64_t b = 0; b < bm.NumBlocks("l_shipdate.for"); b++) {
      int64_t n = bm.ReadDecompressed("l_shipdate.for", b, buf.data());
      for (int64_t i = 0; i < n; i++) sum += buf[i];
    }
    return sum;
  };
  X100_CHECK(scan_plain() == scan_comp());
  bm.ResetStats();
  RepSet r_plain_io = MeasureReps(reps, [&] { scan_plain(); });
  RepSet r_comp_io = MeasureReps(reps, [&] { scan_comp(); });
  ex.AddReps("io_plain_blocks", r_plain_io);
  ex.AddReps("io_for_compressed", r_comp_io);
  double t_plain_io = r_plain_io.Best(), t_comp_io = r_comp_io.Best();
  std::printf("\nColumnBM at a simulated 200 MB/s I/O boundary (l_shipdate, "
              "%lld values):\n", static_cast<long long>(dates.size()));
  std::printf("%-26s %10zu B %10.2f ms\n", "plain blocks",
              dates.bytes(), t_plain_io * 1e3);
  std::printf("%-26s %10zu B %10.2f ms   (%.1fx less I/O, %.1fx faster)\n",
              "FOR-compressed blocks", comp_bytes, t_comp_io * 1e3,
              static_cast<double>(dates.bytes()) / comp_bytes,
              t_plain_io / t_comp_io);
  ex.AddScalar("plain_bytes", static_cast<double>(dates.bytes()), "B");
  ex.AddScalar("compressed_bytes", static_cast<double>(comp_bytes), "B");
  ex.AddScalar("io_stall_ms", bm.stall_nanos() / 1e6, "ms");
  ex.Write();
  return 0;
}
