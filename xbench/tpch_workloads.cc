// tpch_ram and tpch_disk: the TPC-H suite end to end, in RAM through
// RunX100Query and from disk through QueryService::Submit.
//
// Both run repeated passes in a seed-shuffled order for the run's seconds,
// time every query, and check every result: each timed result must be bit
// for bit the result of the pass before timing, and that one must match an
// independent reference (the MIL engine for tpch_ram, the RAM result for
// tpch_disk).

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/profiling.h"
#include "common/types.h"
#include "exec/trace.h"
#include "mil/mil_db.h"
#include "server/engine_cache.h"
#include "server/query_service.h"
#include "storage/columnbm.h"
#include "storage/compression.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"
#include "workloads.h"

namespace xbench {

namespace {

using x100::Catalog;
using x100::Table;

// SF 0.25: lineitem's 1.5M rows take 119 MiB in fixed-width columns alone,
// beyond the 105 MiB L3 of the reference host, so scans and the Q9/Q21 hash
// tables run out of cache; three dbgens and the timed passes still fit the
// run's time budget.
constexpr double kSf = 0.25;
constexpr int kSetups = 3;     // setup_s is the median of these
constexpr int kMinPasses = 3;  // per timed phase, even past the deadline
// The queries with disk plans.
constexpr int kDiskQueries[] = {1, 3, 6, 14};
constexpr int kNumDiskQueries = 4;
// Pool budget far below the compressed bytes one disk pass reads (about
// 60 MB at SF 0.25), so every pass evicts and re-reads its blocks.
constexpr int64_t kPoolBytes = int64_t{8} << 20;

std::unique_ptr<Catalog> Dbgen(double sf) {
  x100::DbgenOptions opts;
  opts.scale_factor = sf;
  return x100::GenerateTpch(opts);
}

/// Per-pass and per-query timings of one timed phase.
struct Timings {
  std::vector<double> pass_s;
  std::vector<std::vector<double>> query_ms;  // by query slot
  explicit Timings(int nq) : query_ms(static_cast<size_t>(nq)) {}

  std::vector<double> PerQueryMedians() const {
    std::vector<double> m;
    for (const std::vector<double>& v : query_ms) m.push_back(Median(v));
    return m;
  }
  std::vector<double> AllQueries() const {
    std::vector<double> all;
    for (const std::vector<double>& v : query_ms) {
      all.insert(all.end(), v.begin(), v.end());
    }
    return all;
  }
};

/// EXPLAIN ANALYZE readings summed over every traced query of a phase.
struct TraceSums {
  std::map<std::string, uint64_t> self_cycles;  // by operator kind
  uint64_t ht_probes = 0, ht_slot_scans = 0, ht_grows = 0;

  void Add(const x100::QueryTrace& t) {
    for (const x100::TraceNode* root : t.roots()) Walk(root);
  }
  void Walk(const x100::TraceNode* n) {
    self_cycles[n->label] += n->SelfCycles();
    for (const auto& [name, v] : n->counters) {
      if (name == "ht.probes") ht_probes += v;
      if (name == "ht.slot_scans") ht_slot_scans += v;
      if (name == "ht.grows") ht_grows += v;
    }
    for (const x100::TraceNode* c : n->children) Walk(c);
  }
};

void AddTraceLayers(const TraceSums& sums, int passes, RunResult* r) {
  double ms_per_cycle = 1.0 / (x100::CyclesPerNanosecond() * 1e6);
  for (const char* op : kOperatorKinds) {
    auto it = sums.self_cycles.find(op);
    double cycles = it == sums.self_cycles.end() ? 0 : it->second;
    r->layer[std::string("exec.self_ms.") + op] = cycles * ms_per_cycle / passes;
  }
  r->layer["exec.ht.probes"] = static_cast<double>(sums.ht_probes) / passes;
  r->layer["exec.ht.grows"] = static_cast<double>(sums.ht_grows) / passes;
  r->layer["exec.ht.slot_scans_per_probe"] =
      sums.ht_probes > 0 ? static_cast<double>(sums.ht_slot_scans) /
                               static_cast<double>(sums.ht_probes)
                         : 0;
}

/// Runs timed passes until `deadline_ns` (at least kMinPasses). `run(slot,
/// traced)` executes one query and returns its result; every result must
/// equal `first[slot]` bit for bit. With a tracer, each pass is a root span
/// with one child per query plus one for the result check.
template <typename RunFn>
void TimedPasses(const RunArgs& args, int nq, const std::vector<int>& qnum,
                 uint64_t deadline_ns, bool traced, uint64_t pass_seed_base,
                 const std::vector<std::unique_ptr<Table>>& first,
                 Tracer* tracer, RunFn&& run, Timings* tm, Tally* tally) {
  for (int pass = 0; pass < kMinPasses || Now() < deadline_ns; pass++) {
    std::vector<int> order =
        ShuffledOrder(SubSeed(args.seed, pass_seed_base + pass), nq);
    std::vector<std::unique_ptr<Table>> got(static_cast<size_t>(nq));
    uint64_t pass_start = Now();
    int64_t root = tracer ? tracer->Open("tpch.pass", pass_start, -1, 0) : -1;
    for (int slot : order) {
      uint64_t t0 = Now();
      got[static_cast<size_t>(slot)] = run(slot, traced);
      uint64_t t1 = Now();
      tm->query_ms[static_cast<size_t>(slot)].push_back((t1 - t0) / 1e6);
      if (tracer) {
        tracer->Add(Span{"exec.q" + std::to_string(qnum[static_cast<size_t>(slot)]),
                         t0, t1, root, 0});
      }
    }
    uint64_t pass_end = Now();
    tm->pass_s.push_back((pass_end - pass_start) / 1e9);
    for (int s = 0; s < nq; s++) {
      tally->attempted++;
      const Table* g = got[static_cast<size_t>(s)].get();
      if (g == nullptr) {
        tally->failed++;
      } else if (!SameBits(*g, *first[static_cast<size_t>(s)])) {
        tally->mismatched++;
      }
    }
    if (tracer) {
      uint64_t check_end = Now();
      tracer->Add(Span{"bench.check", pass_end, check_end, root, 0});
      tracer->Close(root, check_end);
    }
  }
}

/// The end-to-end metrics and report lines shared by both TPC-H workloads.
void TpchEndToEnd(const Timings& tm, int nq, const std::vector<int>& qnum,
                  RunResult* r) {
  double suite_s = Median(tm.pass_s);
  r->query_geomean_ms = Geomean(tm.PerQueryMedians());
  Tail tail = TailPercentile(tm.AllQueries());
  r->max_qps = nq / suite_s;
  int64_t n = static_cast<int64_t>(tm.pass_s.size());
  r->layer["suite_s"] = suite_s;
  std::vector<double> sorted = tm.pass_s;
  std::sort(sorted.begin(), sorted.end());
  char range[96];
  std::snprintf(range, sizeof(range), "median of %lld passes, %.4g..%.4g s",
                static_cast<long long>(n), sorted.front(), sorted.back());
  Report(r, "suite_s", suite_s, "s", range);
  Report(r, "query_geomean_ms", r->query_geomean_ms, "ms",
         "geomean of " + std::to_string(nq) + " per-query medians, n=" +
             std::to_string(n) + " each");
  Report(r, "query_tail_ms", tail.value, "ms",
         "p" + std::to_string(static_cast<int>(tail.level)) + " of n=" +
             std::to_string(tail.n) + " query executions");
  Report(r, "max_qps", r->max_qps, "1/s",
         "queries per second of one serial stream, from suite_s");
  std::vector<double> med = tm.PerQueryMedians();
  for (int s = 0; s < nq; s++) {
    std::vector<double> v = tm.query_ms[static_cast<size_t>(s)];
    std::sort(v.begin(), v.end());
    char range[64];
    std::snprintf(range, sizeof(range), "median, %.4g..%.4g ms", v.front(),
                  v.back());
    Report(r, "q" + std::to_string(qnum[static_cast<size_t>(s)]) + "_ms",
           med[static_cast<size_t>(s)], "ms", range);
  }
}

void PerQueryLayers(const Timings& tm, const std::vector<int>& qnum,
                    RunResult* r) {
  std::vector<double> med = tm.PerQueryMedians();
  for (size_t s = 0; s < qnum.size(); s++) {
    r->layer["exec.q" + std::to_string(qnum[s]) + "_ms"] = med[s];
  }
}

}  // namespace

RunResult RunTpchRam(const RunArgs& args, Tracer* tracer) {
  RunResult r;
  const int nq = x100::kNumTpchQueries;
  std::vector<int> qnum;
  for (int q = 1; q <= nq; q++) qnum.push_back(q);

  // Set-up: dbgen, repeated; each repetition replaces the previous catalog.
  std::unique_ptr<Catalog> db;
  std::vector<double> setup_s;
  for (int i = 0; i < kSetups; i++) {
    db.reset();
    uint64_t t0 = Now();
    db = Dbgen(kSf);
    uint64_t t1 = Now();
    setup_s.push_back((t1 - t0) / 1e9);
    if (tracer) {
      int64_t root = tracer->Add(Span{"setup", t0, t1, -1, 0});
      tracer->Add(Span{"tpch.dbgen", t0, t1, root, 0});
    }
  }
  r.setup_s = Median(setup_s);
  r.layer["tpch.dbgen_s"] = r.setup_s;

  // The untimed first pass: warms caches and fixes the results every timed
  // pass must reproduce.
  std::vector<std::unique_ptr<Table>> first;
  for (int q = 1; q <= nq; q++) {
    x100::ExecContext ctx;
    first.push_back(x100::RunX100Query(q, &ctx, *db));
  }

  x100::Profiler prof;
  TraceSums sums;
  auto run = [&](int slot, bool traced) {
    x100::ExecContext ctx;
    if (!traced) return x100::RunX100Query(slot + 1, &ctx, *db);
    x100::QueryTrace qt;
    ctx.profiler = &prof;
    ctx.trace = &qt;
    std::unique_ptr<Table> res = x100::RunX100Query(slot + 1, &ctx, *db);
    sums.Add(qt);
    return res;
  };

  Timings plain(nq), traced(nq);
  uint64_t start = Now();
  uint64_t budget = static_cast<uint64_t>(args.seconds) * 1000000000ULL;
  if (!args.trace) {
    TimedPasses(args, nq, qnum, start + budget, false, 0, first, nullptr, run,
                &plain, &r.tally);
  } else {
    // Half untraced (the overhead baseline and per-query times), half with
    // the Profiler and EXPLAIN ANALYZE on.
    TimedPasses(args, nq, qnum, start + budget / 2, false, 0, first, tracer,
                run, &plain, &r.tally);
    TimedPasses(args, nq, qnum, Now() + budget / 2, true, 1 << 20, first,
                tracer, run, &traced, &r.tally);
  }
  r.peak_rss_mb = PeakRssMb();

  // Independent reference: the MIL engine, at the TPC-H test suite's
  // tolerance. A wrong first pass makes every execution of that query wrong.
  {
    x100::MilDatabase mil(*db);
    for (int q = 1; q <= nq; q++) {
      x100::MilSession session;
      std::unique_ptr<Table> ref = x100::RunMilQuery(q, &session, &mil);
      if (!NearlyEqual(*first[static_cast<size_t>(q - 1)], *ref, 1e-8)) {
        std::fprintf(stderr, "tpch_ram: q%d differs from the MIL reference\n",
                     q);
        r.correct = false;
        int64_t runs = static_cast<int64_t>(
            plain.query_ms[static_cast<size_t>(q - 1)].size() +
            traced.query_ms[static_cast<size_t>(q - 1)].size());
        r.tally.mismatched += runs;
      }
    }
  }
  if (r.tally.mismatched > 0) r.correct = false;

  TpchEndToEnd(plain, nq, qnum, &r);
  PerQueryLayers(plain, qnum, &r);
  if (args.trace) {
    int passes = static_cast<int>(traced.pass_s.size());
    AddTraceLayers(sums, passes, &r);
    for (const auto& [name, st] : prof.Rows()) {
      // Operators also register rows (Table 5's lower half); their time is
      // in exec.self_ms.*.
      if (!name.empty() && name[0] >= 'A' && name[0] <= 'Z') continue;
      r.layer["primitives." + MetricName(name) + ".cycles_per_tuple"] =
          st->CyclesPerTuple();
      Report(&r, "primitives." + MetricName(name) + ".cycles_per_tuple",
             st->CyclesPerTuple(), "cycles",
             std::to_string(st->cycles / passes) + " cycles/pass");
    }
    r.layer["bench.trace_overhead_s"] =
        Median(traced.pass_s) - Median(plain.pass_s);
  }
  return r;
}

RunResult RunTpchDisk(const RunArgs& args, Tracer* tracer) {
  RunResult r;
  const int nq = kNumDiskQueries;
  std::vector<int> qnum(kDiskQueries, kDiskQueries + nq);
  namespace fs = std::filesystem;
  const std::string bm_dir = args.work_dir + "/bm";

  auto request = [&qnum](int slot, bool traced) {
    x100::QueryRequest req;
    req.query = "q" + std::to_string(qnum[static_cast<size_t>(slot)]);
    req.engine = x100::QueryEngine::kDisk;
    req.scale_factor = kSf;
    req.compress = true;
    req.collect_trace = traced;
    return req;
  };

  // Set-up: dbgen, a fresh disk store, and the first pass, which stores and
  // compresses every column the four plans read. Repeated from scratch.
  std::unique_ptr<Catalog> db;
  std::unique_ptr<x100::ColumnBm> bm;
  std::unique_ptr<x100::QueryService> svc;
  std::vector<std::unique_ptr<Table>> first;
  std::vector<double> setup_s, dbgen_s, load_s;
  for (int i = 0; i < kSetups; i++) {
    svc.reset();
    bm.reset();
    db.reset();
    first.clear();
    fs::remove_all(bm_dir);
    fs::create_directories(bm_dir);
    uint64_t t0 = Now();
    db = Dbgen(kSf);
    uint64_t t1 = Now();
    bm = std::make_unique<x100::ColumnBm>(
        x100::ColumnBm::Options{.disk_dir = bm_dir, .pool_bytes = kPoolBytes});
    x100::QueryService::Options so;
    so.max_concurrent = 1;
    so.max_worker_threads = 1;
    svc = std::make_unique<x100::QueryService>(so);
    svc->engines()->Seed(kSf, db.get(), bm.get());
    for (int s = 0; s < nq; s++) {
      std::shared_ptr<x100::QuerySession> sess = svc->Submit(request(s, false));
      first.push_back(sess->TakeResult());
      if (first.back() == nullptr) {
        throw std::runtime_error("tpch_disk: set-up q" +
                                 std::to_string(qnum[static_cast<size_t>(s)]) +
                                 " failed: " + sess->error());
      }
    }
    uint64_t t2 = Now();
    setup_s.push_back((t2 - t0) / 1e9);
    dbgen_s.push_back((t1 - t0) / 1e9);
    load_s.push_back((t2 - t1) / 1e9);
    if (tracer) {
      int64_t root = tracer->Add(Span{"setup", t0, t2, -1, 0});
      tracer->Add(Span{"tpch.dbgen", t0, t1, root, 0});
      tracer->Add(Span{"storage.load", t1, t2, root, 0});
    }
  }
  r.setup_s = Median(setup_s);
  r.layer["tpch.dbgen_s"] = Median(dbgen_s);
  r.layer["storage.load_s"] = Median(load_s);

  TraceSums sums;
  auto run = [&](int slot, bool traced) -> std::unique_ptr<Table> {
    std::shared_ptr<x100::QuerySession> sess = svc->Submit(request(slot, traced));
    std::unique_ptr<Table> res = sess->TakeResult();
    if (traced && sess->trace() != nullptr) sums.Add(*sess->trace());
    return res;
  };

  Timings plain(nq), traced(nq);
  uint64_t budget = static_cast<uint64_t>(args.seconds) * 1000000000ULL;
  // Each query runs on a driver thread of the service, and its scans wait
  // for blocks staged by prefetch tasks on a thread pool: the CPUs stay
  // awake so that no hand-off waits for a halted vCPU (see CpuWaker).
  auto waker = std::make_unique<CpuWaker>(AllowedCpus());
  x100::MetricsRegistry::Get().ResetAll();
  uint64_t start = Now();
  TimedPasses(args, nq, qnum, start + (args.trace ? budget / 2 : budget),
              false, 0, first, tracer, run, &plain, &r.tally);
  uint64_t plain_ns = Now() - start;
  x100::MetricsSnapshot io = x100::MetricsRegistry::Get().Snapshot();
  if (args.trace) {
    TimedPasses(args, nq, qnum, Now() + budget / 2, true, 1 << 20, first,
                tracer, run, &traced, &r.tally);
  }
  waker.reset();
  r.peak_rss_mb = PeakRssMb();

  // Reference: the same plans on the in-RAM catalog, bit for bit.
  for (int s = 0; s < nq; s++) {
    x100::ExecContext ctx;
    std::unique_ptr<Table> ram =
        x100::RunX100Query(qnum[static_cast<size_t>(s)], &ctx, *db);
    if (!SameBits(*first[static_cast<size_t>(s)], *ram)) {
      std::fprintf(stderr, "tpch_disk: q%d differs from the RAM result\n",
                   qnum[static_cast<size_t>(s)]);
      r.tally.mismatched += static_cast<int64_t>(
          plain.query_ms[static_cast<size_t>(s)].size() +
          traced.query_ms[static_cast<size_t>(s)].size());
    }
  }
  if (r.tally.mismatched > 0) r.correct = false;

  TpchEndToEnd(plain, nq, qnum, &r);
  PerQueryLayers(plain, qnum, &r);
  if (args.trace) {
    AddTraceLayers(sums, static_cast<int>(traced.pass_s.size()), &r);
    auto counter = [&io](const char* name) -> double {
      auto it = io.counters.find(name);
      return it == io.counters.end() ? 0 : static_cast<double>(it->second);
    };
    double hits = counter("bm.pool.hits"), misses = counter("bm.pool.misses");
    double passes = static_cast<double>(plain.pass_s.size());
    r.layer["storage.pool.hit_rate"] = hits + misses > 0 ? hits / (hits + misses) : 0;
    r.layer["storage.pool.evictions"] = counter("bm.pool.evictions") / passes;
    r.layer["storage.pool.read_mb_s"] =
        counter("bm.pool.read_bytes") / 1e6 / (plain_ns / 1e9);
    double sched = counter("prefetch.scheduled");
    r.layer["storage.prefetch.hit_rate"] =
        sched > 0 ? counter("prefetch.hits") / sched : 0;

    // Codec decode speed and compression ratio over every compressed block
    // the plans stored: the block is read (pool or disk) outside the clock,
    // only Decode is timed. Repeated until each codec has 0.2 s of work.
    struct CodecAcc {
      double bytes = 0;
      uint64_t ns = 0;
    };
    std::map<std::string, CodecAcc> codecs;
    double raw_bytes = 0, stored_bytes = 0;
    std::vector<char> buf;
    for (int round = 0; round < 50; round++) {
      for (const char* tname : {"lineitem", "orders", "part", "customer",
                                "supplier", "partsupp", "nation", "region"}) {
        const Table* t = db->Find(tname);
        if (t == nullptr) continue;
        for (int c = 0; c < t->num_columns(); c++) {
          std::string file = std::string(tname) + "." +
                             t->schema().field(c).name + ".cmp";
          if (!bm->Contains(file)) continue;
          size_t width = x100::TypeWidth(t->column(c).storage_type());
          if (round == 0) stored_bytes += static_cast<double>(bm->FileBytes(file));
          for (int64_t b = 0; b < bm->NumBlocks(file); b++) {
            x100::CodecId id = bm->BlockCodec(file, b);
            int64_t count = bm->CompressedBlockCount(file, b);
            if (round == 0) raw_bytes += static_cast<double>(count) * width;
            if (id == x100::CodecId::kRaw) continue;
            x100::ColumnBm::BlockRef ref = bm->ReadBlock(file, b);
            buf.resize(static_cast<size_t>(count) * width);
            const x100::Codec* codec = x100::Codec::ForId(id);
            uint64_t t0 = Now();
            int64_t got = codec->Decode(ref.data, ref.bytes, buf.data(), width);
            uint64_t t1 = Now();
            if (got != count) r.correct = false;
            CodecAcc& acc = codecs[codec->name()];
            acc.bytes += static_cast<double>(count) * width;
            acc.ns += t1 - t0;
          }
        }
      }
      bool enough = true;
      for (const auto& [name, acc] : codecs) enough &= acc.ns > 200000000ULL;
      if (enough) break;
    }
    for (const auto& [name, acc] : codecs) {
      r.layer["storage.codec." + name + ".decode_mb_s"] =
          acc.ns > 0 ? acc.bytes / 1e6 / (acc.ns / 1e9) : 0;
    }
    r.layer["storage.compress_ratio"] =
        stored_bytes > 0 ? raw_bytes / stored_bytes : 0;
    r.layer["bench.trace_overhead_s"] =
        Median(traced.pass_s) - Median(plain.pass_s);
  }
  svc.reset();
  bm.reset();
  fs::remove_all(bm_dir);
  return r;
}

}  // namespace xbench
