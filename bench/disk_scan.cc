// Disk-backed ColumnBM scan bench: TPC-H Q1 and Q6 through real file I/O
// (§4.3 ColumnBM: large chunks + a sequential-scan buffer manager). Two
// regimes per query:
//
//  - cold: a fresh ColumnBm (empty buffer pool) over an already-written
//    directory — every block crosses the disk boundary. "Cold" means
//    pool-cold; the OS page cache is not dropped, so this bounds the
//    pool + checksum + staging overhead rather than raw platter speed.
//  - warm: the same instance re-scanned — blocks served from the pool.
//
// A third section measures the codec suite (§4.3 lightweight compression)
// per codec over lineitem's integral columns: compression ratio (plain
// bytes / stored bytes) and cold-scan decode bandwidth in logical MB/s —
// the paper's point that decompression bandwidth, not disk bandwidth,
// bounds cold scans.
//
// Exports BENCH_disk_scan.json with per-regime rep distributions, MB/s
// (logical bytes served / best wall time), the prefetch hit rate observed
// across the cold runs, and per-codec codec_<name>_{ratio,cold_mb_per_s}.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/metrics.h"
#include "storage/columnbm.h"
#include "tpch/queries.h"

using namespace x100;
using namespace x100::bench;

int main() {
  double sf = ScaleFactor(0.05);
  int reps = Reps(3);
  std::unique_ptr<Catalog> db = MakeTpch(sf);

  ScopedTempDir scratch("x100_disk_scan");
  const std::string& dir = scratch.path();

  BenchExport ex("disk_scan");
  ex.AddScalar("scale_factor", sf);
  std::printf("Disk scan: TPC-H SF=%.4g, best of %d\n", sf, reps);
  std::printf("%3s %12s %12s %12s %12s %10s\n", "Q", "cold s", "warm s",
              "cold MB/s", "warm MB/s", "pf hit");

  for (int q : {1, 6}) {
    // The query with its lineitem scan served from `bm`'s blocks.
    auto run = [&](ColumnBm* bm) {
      ExecContext ctx;
      ctx.blocks = {bm, db.get()};
      RunX100Query(q, &ctx, *db);
    };
    // Populate the chunk files once; the first disk scan stores them.
    {
      ColumnBm writer(ColumnBm::Options{.disk_dir = dir});
      run(&writer);
    }

    // Cold: fresh pool per rep, so every rep re-reads from disk. Prefetch
    // hit rate comes from the registry delta across the cold reps.
    MetricsSnapshot before = MetricsRegistry::Get().Snapshot();
    int64_t bytes_per_run = 0;
    RepSet cold = MeasureReps(reps, [&] {
      ColumnBm bm(ColumnBm::Options{.disk_dir = dir});
      run(&bm);
      bytes_per_run = bm.bytes_read();
    });
    MetricsSnapshot after = MetricsRegistry::Get().Snapshot();
    uint64_t scheduled = after.counters["prefetch.scheduled"] -
                         before.counters["prefetch.scheduled"];
    uint64_t pf_hits =
        after.counters["prefetch.hits"] - before.counters["prefetch.hits"];
    double hit_rate =
        scheduled > 0 ? static_cast<double>(pf_hits) /
                            static_cast<double>(scheduled)
                      : 0.0;

    // Warm: one instance, one priming pass, then timed pool-resident scans.
    ColumnBm bm(ColumnBm::Options{.disk_dir = dir});
    run(&bm);
    RepSet warm = MeasureReps(reps, [&] { run(&bm); });

    double mb = static_cast<double>(bytes_per_run) / 1e6;
    double cold_rate = mb / cold.Best();
    double warm_rate = mb / warm.Best();
    std::string qs = "q" + std::to_string(q);
    ex.AddReps(qs + "_cold", cold);
    ex.AddReps(qs + "_warm", warm);
    ex.AddScalar(qs + "_scan_bytes", static_cast<double>(bytes_per_run), "B");
    ex.AddScalar(qs + "_cold_mb_per_s", cold_rate, "MB/s");
    ex.AddScalar(qs + "_warm_mb_per_s", warm_rate, "MB/s");
    ex.AddScalar(qs + "_prefetch_hit_rate", hit_rate);
    std::printf("%3d %12.4f %12.4f %12.1f %12.1f %9.0f%%\n", q, cold.Best(),
                warm.Best(), cold_rate, warm_rate, 100.0 * hit_rate);
  }

  // ---- Per-codec compression ratio + cold decode bandwidth ----------------
  //
  // Every integral lineitem column (dates, keys, enum codes, join indexes)
  // stored under each pinned codec plus the auto picker ("cmp"), then
  // scanned back block-at-a-time through a fresh (pool-cold) ColumnBm per
  // rep. Ratio is plain/stored bytes aggregated over the column set; MB/s
  // counts decoded (logical) bytes.
  const Table& li = db->Get("lineitem");
  std::vector<int> codec_cols;
  int64_t plain_bytes = 0;
  for (int c = 0; c < li.num_columns(); c++) {
    if (IsIntegral(li.column(c).storage_type())) {
      codec_cols.push_back(c);
      plain_bytes += static_cast<int64_t>(li.column(c).bytes());
    }
  }

  struct Regime {
    const char* label;
    std::optional<CodecId> force;
  };
  const Regime regimes[] = {{"raw", CodecId::kRaw},
                            {"for", CodecId::kFor},
                            {"pdict", CodecId::kPdict},
                            {"rle", CodecId::kRle},
                            {"pford", CodecId::kPforDelta},
                            {"auto", std::nullopt}};

  std::printf("\nCodec suite over %zu integral lineitem columns "
              "(%.1f MB plain)\n",
              codec_cols.size(), plain_bytes / 1e6);
  std::printf("%-6s %10s %8s %12s\n", "codec", "stored MB", "ratio",
              "cold MB/s");
  for (const Regime& r : regimes) {
    {
      ColumnBm writer(ColumnBm::Options{.disk_dir = dir});
      int64_t stored = 0;
      for (int c : codec_cols) {
        stored += static_cast<int64_t>(writer.StoreCompressed(
            "li." + li.schema().field(c).name + "." + r.label, li.column(c),
            1 << 16, r.force));
      }
      double ratio = static_cast<double>(plain_bytes) /
                     static_cast<double>(stored);
      RepSet cold = MeasureReps(reps, [&] {
        ColumnBm bm(ColumnBm::Options{.disk_dir = dir});
        std::vector<char> buf;
        for (int c : codec_cols) {
          std::string f = "li." + li.schema().field(c).name + "." + r.label;
          buf.resize((size_t{1} << 16) *
                     TypeWidth(li.column(c).storage_type()));
          for (int64_t b = 0; b < bm.NumBlocks(f); b++) {
            bm.ReadDecompressed(f, b, buf.data());
          }
        }
      });
      double rate = plain_bytes / 1e6 / cold.Best();
      std::string key = std::string("codec_") + r.label;
      ex.AddReps(key + "_cold", cold);
      ex.AddScalar(key + "_stored_bytes", static_cast<double>(stored), "B");
      ex.AddScalar(key + "_ratio", ratio);
      ex.AddScalar(key + "_cold_mb_per_s", rate, "MB/s");
      std::printf("%-6s %10.1f %7.2fx %12.1f\n", r.label, stored / 1e6, ratio,
                  rate);
    }
  }

  ex.Write();
  return 0;
}
