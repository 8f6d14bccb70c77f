// Helpers shared by the workloads: clocks, peak memory, the report, and
// result-table comparison.

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "storage/table.h"
#include "workloads.h"

namespace xbench {

uint64_t Now() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double PeakRssMb() {
  struct rusage ru;
  std::memset(&ru, 0, sizeof(ru));
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

std::vector<int> AllowedCpus() {
  std::vector<int> cpus;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return cpus;
  for (int c = 0; c < CPU_SETSIZE; c++) {
    if (CPU_ISSET(c, &set)) cpus.push_back(c);
  }
  return cpus;
}

void PinThread(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c : cpus) CPU_SET(c, &set);
  sched_setaffinity(0, sizeof(set), &set);
}

CpuWaker::CpuWaker(const std::vector<int>& cpus) {
  for (int c : cpus) {
    threads_.emplace_back([this, c] {
      PinThread({c});
      sched_param p{};
      pthread_setschedparam(pthread_self(), SCHED_IDLE, &p);
      while (!stop_.load(std::memory_order_relaxed)) {
#if defined(__x86_64__) || defined(__i386__)
        __builtin_ia32_pause();
#endif
      }
    });
  }
}

CpuWaker::~CpuWaker() {
  stop_.store(true);
  for (std::thread& t : threads_) t.join();
}

void Report(RunResult* r, const std::string& name, double value,
            const std::string& unit, const std::string& detail) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", value);
  std::string line = name + " = " + buf + " " + unit;
  if (!detail.empty()) line += "  (" + detail + ")";
  r->report.push_back(line);
}

namespace {

/// Walks both tables cell by cell; `same` decides numeric cells.
template <typename NumEq>
bool CompareTables(const x100::Table& a, const x100::Table& b, NumEq same) {
  if (a.num_rows() != b.num_rows() || a.num_columns() != b.num_columns()) {
    return false;
  }
  for (int64_t r = 0; r < a.num_rows(); r++) {
    for (int c = 0; c < a.num_columns(); c++) {
      x100::Value va = a.GetValue(r, c);
      x100::Value vb = b.GetValue(r, c);
      bool a_str = va.type() == x100::TypeId::kStr;
      if (a_str != (vb.type() == x100::TypeId::kStr)) return false;
      if (a_str) {
        if (va.AsStr() != vb.AsStr()) return false;
        continue;
      }
      bool a_flt = va.type() == x100::TypeId::kF64 ||
                   va.type() == x100::TypeId::kF32;
      bool b_flt = vb.type() == x100::TypeId::kF64 ||
                   vb.type() == x100::TypeId::kF32;
      if (a_flt || b_flt) {
        if (!same(va.AsF64(), vb.AsF64(), a_flt && b_flt)) return false;
      } else if (va.AsI64() != vb.AsI64()) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace

bool SameBits(const x100::Table& a, const x100::Table& b) {
  return CompareTables(a, b, [](double x, double y, bool both_float) {
    uint64_t bx, by;
    std::memcpy(&bx, &x, sizeof(bx));
    std::memcpy(&by, &y, sizeof(by));
    return both_float && bx == by;
  });
}

bool NearlyEqual(const x100::Table& a, const x100::Table& b, double eps) {
  return CompareTables(a, b, [eps](double x, double y, bool) {
    double tol = eps * std::max({1.0, std::fabs(x), std::fabs(y)});
    return std::fabs(x - y) <= tol;
  });
}

}  // namespace xbench
