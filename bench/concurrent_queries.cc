// Concurrent-query serving bench: N sessions (1/4/16) through the
// QueryService over ONE shared disk-backed, compressed ColumnBm — the
// paper's §4.3 claim that ColumnBM is designed for many concurrent queries
// reusing each other's I/O, measured end to end. Each session runs a
// rotation of the lineitem-scan mix (Q1/Q3/Q6/Q14), width 1, so concurrency
// comes purely from sessions.
//
// Queries are submitted as QueryRequests — the serving layer's one request
// schema (server/request.h) — against an engine cache seeded with the
// shared catalog and ColumnBm, with n admission slots standing in for n
// sessions.
//
// Reported per session count: aggregate throughput (queries/s), per-request
// exec-latency p50/p99, and fairness (p99/p50 — a FIFO admission controller
// over a fair pool should keep this near 1). The serial baseline runs the
// identical 16-session workload back to back on one thread; speedup_16 is
// the machine-independent ratio the CI gate holds at >= ~2x.
//
// Hard self-checks (exit 1): every concurrent result must be bit-identical
// to the serial reference (sessions are width-1, so even FP summation order
// matches), and the shared-scan registry must have served at least one
// block by attaching (bm.shared.attached_blocks > 0) — otherwise the
// sessions silently duplicated their I/O.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/metrics.h"
#include "server/engine_cache.h"
#include "server/query_service.h"
#include "storage/columnbm.h"
#include "tpch/queries.h"

using namespace x100;
using namespace x100::bench;

namespace {

constexpr int kMix[] = {1, 3, 6, 14};
constexpr int kMixSize = 4;

/// Exact (bit-identical) table comparison — width-1 sessions run the very
/// serial plan, so not even FP tolerance is owed.
bool SameTables(const Table& a, const Table& b) {
  if (a.num_rows() != b.num_rows() || a.num_columns() != b.num_columns()) {
    return false;
  }
  for (int64_t r = 0; r < a.num_rows(); r++) {
    for (int c = 0; c < a.num_columns(); c++) {
      Value va = a.GetValue(r, c);
      Value vb = b.GetValue(r, c);
      if (va.type() == TypeId::kStr) {
        if (va.AsStr() != vb.AsStr()) return false;
      } else if (va.type() == TypeId::kF64) {
        if (va.AsF64() != vb.AsF64()) return false;
      } else if (va.AsI64() != vb.AsI64()) {
        return false;
      }
    }
  }
  return true;
}

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t i = static_cast<size_t>(p * static_cast<double>(v.size() - 1));
  return v[i];
}

}  // namespace

int main() {
  double sf = ScaleFactor(0.05);
  int rounds = Reps(3);  // queries per session
  std::unique_ptr<Catalog> db = MakeTpch(sf);

  ScopedTempDir scratch("x100_concurrent");
  const std::string& dir = scratch.path();

  // One engine under everything. The first pass stores the chunk files and
  // computes the serial reference results; later passes are pool-warm, so
  // serial and concurrent runs see the same storage state.
  ColumnBm bm(ColumnBm::Options{.disk_dir = dir});
  auto run_disk = [&](int q) {
    ExecContext ctx;
    ctx.blocks = {&bm, db.get(), /*compress=*/true};
    return RunX100Query(q, &ctx, *db);
  };
  std::unique_ptr<Table> ref[23];
  for (int q : kMix) ref[q] = run_disk(q);

  const int kMaxSessions = 16;
  const int total_queries = kMaxSessions * rounds;

  // Serial baseline: the full 16-session workload, one query at a time.
  uint64_t t0 = NowNanos();
  for (int s = 0; s < kMaxSessions; s++) {
    for (int r = 0; r < rounds; r++) {
      int q = kMix[(s + r) % kMixSize];
      std::unique_ptr<Table> res = run_disk(q);
      if (!SameTables(*ref[q], *res)) {
        std::fprintf(stderr, "serial rerun of q%d diverged\n", q);
        return 1;
      }
    }
  }
  double serial_s = (NowNanos() - t0) / 1e9;
  double serial_qps = static_cast<double>(total_queries) / serial_s;

  BenchExport ex("concurrent_queries");
  ex.AddScalar("scale_factor", sf);
  ex.AddScalar("rounds_per_session", rounds);
  ex.AddScalar("serial_qps", serial_qps, "q/s");

  std::printf(
      "Concurrent queries: SF=%.4g, %d queries/session, mix Q1/Q3/Q6/Q14\n",
      sf, rounds);
  std::printf("serial baseline: %.1f q/s (%d queries in %.3f s)\n\n",
              serial_qps, total_queries, serial_s);
  std::printf("%9s %10s %10s %10s %10s %9s\n", "sessions", "wall s", "q/s",
              "p50 ms", "p99 ms", "fairness");

  Counter* attached =
      MetricsRegistry::Get().GetCounter("bm.shared.attached_blocks");
  uint64_t attached0 = attached->Get();
  std::atomic<int> mismatches{0};
  double qps16 = 0.0;

  for (int n : {1, 4, 16}) {
    // The serving-path request schema: every query of every session goes in
    // as a QueryRequest (disk engine, compressed) against the service's
    // engine cache, seeded with the shared catalog + ColumnBm so requests
    // scan the very tables the serial reference scanned. n concurrent
    // admission slots stand in for n sessions; the workload (n * rounds
    // queries of the rotating mix) is identical to the closure-era bench.
    QueryService svc({/*max_concurrent=*/n, /*max_worker_threads=*/0});
    svc.engines()->Seed(sf, db.get(), &bm);
    std::vector<std::pair<int, std::shared_ptr<QuerySession>>> live;
    uint64_t c0 = NowNanos();
    for (int s = 0; s < n; s++) {
      for (int r = 0; r < rounds; r++) {
        int q = kMix[(s + r) % kMixSize];
        QueryRequest req;
        req.query = "q" + std::to_string(q);
        req.engine = QueryEngine::kDisk;
        req.scale_factor = sf;
        req.compress = true;
        req.label = "q" + std::to_string(q) + "#" + std::to_string(s);
        live.emplace_back(q, svc.Submit(req));
      }
    }
    std::vector<double> exec_ms;
    for (auto& [q, sess] : live) {
      if (sess->Wait() != QuerySession::State::kDone) {
        std::fprintf(stderr, "session %llu failed: %s\n",
                     static_cast<unsigned long long>(sess->id()),
                     sess->error().c_str());
        return 1;
      }
      std::unique_ptr<Table> res = sess->TakeResult();
      if (res == nullptr || !SameTables(*ref[q], *res)) mismatches++;
      exec_ms.push_back(sess->exec_nanos() / 1e6);
    }
    double wall_s = (NowNanos() - c0) / 1e9;
    double qps = static_cast<double>(n * rounds) / wall_s;
    double p50 = Percentile(exec_ms, 0.50);
    double p99 = Percentile(exec_ms, 0.99);
    double fairness = p50 > 0 ? p99 / p50 : 0.0;
    if (n == 16) qps16 = qps;

    ex.AddScalar("qps_" + std::to_string(n), qps, "q/s");
    ex.AddScalar("p50_ms_" + std::to_string(n), p50, "ms");
    ex.AddScalar("p99_ms_" + std::to_string(n), p99, "ms");
    ex.AddScalar("fairness_" + std::to_string(n), fairness);
    std::printf("%9d %10.3f %10.1f %10.2f %10.2f %9.2f\n", n, wall_s, qps,
                p50, p99, fairness);
  }

  uint64_t attached_blocks = attached->Get() - attached0;
  double speedup = serial_qps > 0 ? qps16 / serial_qps : 0.0;
  ex.AddScalar("speedup_16", speedup, "x");
  ex.AddScalar("shared_attached_blocks",
               static_cast<double>(attached_blocks));
  std::printf("\n16-session speedup over serial: %.2fx; shared-scan attached "
              "blocks: %llu\n",
              speedup, static_cast<unsigned long long>(attached_blocks));

  ex.Write();

  if (mismatches.load() != 0) {
    std::fprintf(stderr, "error: %d concurrent result(s) diverged from the "
                         "serial reference\n", mismatches.load());
    return 1;
  }
  if (attached_blocks == 0) {
    std::fprintf(stderr, "error: no shared-scan attaches — concurrent "
                         "sessions duplicated all block I/O\n");
    return 1;
  }
  return 0;
}
