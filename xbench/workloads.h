#ifndef XBENCH_WORKLOADS_H_
#define XBENCH_WORKLOADS_H_

// The three workloads of the repository benchmark and what they hand back
// to main.cc, which prints the report and the result line.

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "stats.h"

namespace x100 {
class Table;
}

namespace xbench {

struct RunArgs {
  std::string workload;
  uint64_t seed = 0;
  int seconds = 10;
  bool trace = false;
  /// Scratch directory inside the checkout (disk blocks, WAL); emptied
  /// before and after the run.
  std::string work_dir;
  int nproc = 1;
};

struct RunResult {
  /// False on any result that differs from its reference.
  bool correct = true;
  Tally tally;
  /// The end-to-end metrics every workload reports (untraced run).
  double setup_s = 0;
  double query_geomean_ms = 0;
  double max_qps = 0;
  double peak_rss_mb = 0;
  /// Per-layer readings by metric name (traced run); names the workload
  /// does not exercise stay absent and main.cc reports them as 0.
  std::map<std::string, double> layer;
  /// Human-readable report: every metric the workload measures, by name,
  /// with unit and sample count.
  std::vector<std::string> report;
};

/// Nanoseconds on the steady clock shared by every timing in the benchmark.
uint64_t Now();

/// Peak resident set of the process so far, in MB.
double PeakRssMb();

/// CPUs this process may run on, in ascending order.
std::vector<int> AllowedCpus();
/// Restricts the calling thread (and threads it creates afterwards) to
/// `cpus`.
void PinThread(const std::vector<int>& cpus);

/// Keeps `cpus` from halting while it lives: one SCHED_IDLE thread per CPU
/// spins and gives way at once to any other runnable thread (the effect of
/// booting with idle=poll). On a virtual machine a halted vCPU runs again
/// only when the host schedules it: 30 us at the median and 1.7 ms at p99
/// on a quiet reference host, and far more while other tenants keep the
/// host busy. Work that hands each request or block between threads pays
/// that at every hand-off; work that keeps its one CPU busy, like
/// tpch_ram, never does. With the spinners the figures measure the program
/// rather than the host's scheduler.
class CpuWaker {
 public:
  explicit CpuWaker(const std::vector<int>& cpus);
  ~CpuWaker();
  CpuWaker(const CpuWaker&) = delete;
  CpuWaker& operator=(const CpuWaker&) = delete;

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

/// Appends "name = value unit (detail)" to the report.
void Report(RunResult* r, const std::string& name, double value,
            const std::string& unit, const std::string& detail = "");

/// Exact comparison: same shape, same values, f64 compared bit for bit.
bool SameBits(const x100::Table& a, const x100::Table& b);
/// The TPC-H test suite's cross-engine rule: numerics within a relative
/// 1e-8, everything else exact.
bool NearlyEqual(const x100::Table& a, const x100::Table& b, double eps);

/// Operator kinds the plan factories label EXPLAIN ANALYZE nodes with.
inline constexpr const char* kOperatorKinds[] = {
    "Scan",       "BmScan",   "Select", "Project", "HashAggr",
    "DirectAggr", "OrdAggr",  "HashJoin", "SemiJoin", "AntiJoin",
    "Fetch1Join", "CartProd", "TopN",   "Order",   "Exchange"};

/// Primitives whose cycles/tuple the traced tpch_ram run reports: the 12
/// with the most total cycles over the 22 queries at the benchmark's SF,
/// measured at this benchmark's first version, plus the two busiest fused
/// kernels. The report lists every primitive.
inline constexpr const char* kTopPrimitives[] = {
    "select_like_str_col_str_val",  "select_notlike_str_col_str_val",
    "aggr_sum_f64_col",             "map_hash_i32_col",
    "select_eq_u8_col_u8_val",      "select_lt_i32_col_i32_col",
    "map_rehash_i32_col",           "select_gt_i32_col_i32_col",
    "map_fetch_i32_col_i64_col",    "map_fetch_i64_col_i64_col",
    "map_fetch_f64_col_u8_col",     "map_fetch_str_col_i64_col",
    "map_fused_sub_vc_mul_pc_f64",  "map_fused_sub_vc_mul_pc_sub_pc_f64"};

RunResult RunTpchRam(const RunArgs& args, Tracer* tracer);
RunResult RunTpchDisk(const RunArgs& args, Tracer* tracer);
RunResult RunServeIngest(const RunArgs& args, Tracer* tracer);

}  // namespace xbench

#endif  // XBENCH_WORKLOADS_H_
