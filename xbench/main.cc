// The repository benchmark: one process runs one workload for a fixed
// number of seconds, checks every result, prints a report of every metric
// it measured, and ends with one JSON line holding the end-to-end metrics
// (--trace 0) or the per-layer metrics (--trace 1).
//
//   xbench --workload tpch_ram|tpch_disk|serve_ingest --seed N --seconds S
//          --trace 0|1 --work-dir DIR [--spans FILE]
//
// Exit status 0 only when every operation succeeded and every result
// matched its reference. See README.md for the metric -> layer -> workload
// map.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>
#include <vector>

#include "stats.h"
#include "workloads.h"

using namespace xbench;

namespace {

struct MetricDef {
  std::string name;
  std::string unit;
};

/// The per-layer metrics, in output order; BENCHMARK.json lists the same.
std::vector<MetricDef> LayerMetrics() {
  std::vector<MetricDef> m;
  for (int q = 1; q <= 22; q++) m.push_back({"exec.q" + std::to_string(q) + "_ms", "ms"});
  for (const char* op : kOperatorKinds) {
    m.push_back({std::string("exec.self_ms.") + op, "ms"});
  }
  m.push_back({"exec.ht.slot_scans_per_probe", "count"});
  m.push_back({"exec.ht.grows", "count"});
  m.push_back({"exec.ht.probes", "count"});
  for (const char* p : kTopPrimitives) {
    m.push_back({std::string("primitives.") + p + ".cycles_per_tuple", "cycles"});
  }
  m.push_back({"storage.pool.hit_rate", "ratio"});
  m.push_back({"storage.pool.evictions", "count"});
  m.push_back({"storage.pool.read_mb_s", "MB/s"});
  m.push_back({"storage.prefetch.hit_rate", "ratio"});
  for (const char* c : {"for", "pdict", "rle", "pford"}) {
    m.push_back({std::string("storage.codec.") + c + ".decode_mb_s", "MB/s"});
  }
  m.push_back({"storage.compress_ratio", "ratio"});
  m.push_back({"storage.load_s", "s"});
  m.push_back({"storage.wal.commit_wait_us_p50", "us"});
  m.push_back({"storage.wal.commit_wait_us_p99", "us"});
  m.push_back({"storage.wal.records_per_fsync", "count"});
  m.push_back({"storage.wal.bytes_per_row", "B"});
  m.push_back({"storage.mvcc.merges", "count"});
  m.push_back({"storage.recover_s", "s"});
  for (const char* s : {"queue", "session", "net"}) {
    m.push_back({std::string("server.") + s + "_ms_p50", "ms"});
    m.push_back({std::string("server.") + s + "_ms_p99", "ms"});
  }
  m.push_back({"server.encode_mb_s", "MB/s"});
  m.push_back({"tpch.dbgen_s", "s"});
  m.push_back({"bench.gen_lag_ms_max", "ms"});
  m.push_back({"bench.trace_overhead_s", "s"});
  m.push_back({"bench.failed_frac", "ratio"});
  m.push_back({"bench.span_self_sum_err_ns_max", "ns"});
  // Workload-specific end-to-end figures (see README.md): measured in the
  // traced run, reported here because not every workload has them.
  m.push_back({"suite_s", "s"});
  for (const char* load : {"light", "heavy"}) {
    for (const char* kind : {"query", "commit"}) {
      for (const char* p : {"p50", "p99"}) {
        m.push_back({std::string(load) + "." + kind + "_" + p + "_ms", "ms"});
      }
    }
  }
  m.push_back({"stream_mb_s", "MB/s"});
  return m;
}

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "xbench: %s\nusage: xbench --workload tpch_ram|tpch_disk|"
               "serve_ingest --seed N --seconds S --trace 0|1 --work-dir DIR "
               "[--spans FILE]\n",
               why);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  RunArgs args;
  std::string spans_path;
  bool have_seed = false;
  for (int i = 1; i < argc; i++) {
    std::string a = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + a).c_str());
    std::string v = argv[++i];
    if (a == "--workload") {
      args.workload = v;
    } else if (a == "--seed") {
      args.seed = std::strtoull(v.c_str(), nullptr, 10);
      have_seed = true;
    } else if (a == "--seconds") {
      args.seconds = std::atoi(v.c_str());
    } else if (a == "--trace") {
      args.trace = v == "1";
    } else if (a == "--work-dir") {
      args.work_dir = v;
    } else if (a == "--spans") {
      spans_path = v;
    } else {
      Usage(("unknown argument " + a).c_str());
    }
  }
  if (!have_seed || args.work_dir.empty() || args.seconds < 1 ||
      args.seconds > 600) {
    Usage("--seed, --work-dir and --seconds in 1..600 are required");
  }
  args.nproc = std::max<int>(1, static_cast<int>(AllowedCpus().size()));

  std::filesystem::remove_all(args.work_dir);
  std::filesystem::create_directories(args.work_dir);

  Tracer tracer;
  Tracer* tr = args.trace ? &tracer : nullptr;
  RunResult r;
  try {
    if (args.workload == "tpch_ram") {
      r = RunTpchRam(args, tr);
    } else if (args.workload == "tpch_disk") {
      r = RunTpchDisk(args, tr);
    } else if (args.workload == "serve_ingest") {
      r = RunServeIngest(args, tr);
    } else {
      Usage(("unknown workload " + args.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "xbench: %s failed: %s\n", args.workload.c_str(),
                 e.what());
    std::filesystem::remove_all(args.work_dir);
    return 1;
  }
  std::filesystem::remove_all(args.work_dir);

  Report(&r, "setup_s", r.setup_s, "s", "median of the run's set-ups");
  Report(&r, "peak_rss_mb", r.peak_rss_mb, "MB", "at the end of the timed phase");
  Report(&r, "failed_frac", r.tally.failed_frac(), "ratio",
         std::to_string(r.tally.bad()) + " of " +
             std::to_string(r.tally.attempted) + " operations (" +
             std::to_string(r.tally.failed) + " failed, " +
             std::to_string(r.tally.refused) + " refused, " +
             std::to_string(r.tally.mismatched) + " mismatched)");
  r.layer["bench.failed_frac"] = r.tally.failed_frac();

  std::vector<Metric> out;
  if (!args.trace) {
    out = {{"setup_s", r.setup_s, "s"},
           {"query_geomean_ms", r.query_geomean_ms, "ms"},
           {"max_qps", r.max_qps, "1/s"},
           {"peak_rss_mb", r.peak_rss_mb, "MB"}};
  } else {
    std::vector<uint64_t> errs = TreeSelfSumErrors(tracer.spans());
    uint64_t worst = 0;
    for (uint64_t e : errs) worst = std::max(worst, e);
    r.layer["bench.span_self_sum_err_ns_max"] = static_cast<double>(worst);
    for (const MetricDef& d : LayerMetrics()) {
      auto it = r.layer.find(d.name);
      out.push_back({d.name, it == r.layer.end() ? 0.0 : it->second, d.unit});
    }
    if (!spans_path.empty() && !tracer.WriteJsonLines(spans_path)) {
      std::fprintf(stderr, "xbench: cannot write %s\n", spans_path.c_str());
      r.correct = false;
    }
    std::fprintf(stderr, "xbench: %zu spans in %zu trees\n",
                 tracer.spans().size(), errs.size());
  }

  std::printf("# %s seed=%llu seconds=%d trace=%d nproc=%d\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0, args.nproc);
  for (const std::string& line : r.report) std::printf("# %s\n", line.c_str());
  bool ok = r.correct && r.tally.bad() == 0;
  std::printf("%s\n", ResultJson(r.correct, r.tally.attempted, r.tally.bad(),
                                 out).c_str());
  std::fflush(stdout);
  return ok ? 0 : 1;
}
