#ifndef XBENCH_STATS_H_
#define XBENCH_STATS_H_

// Measurement primitives of the repository benchmark: seeded streams,
// percentiles under the ">= 10 samples beyond" rule, geomeans, failure
// tallies, open-loop timing and in-memory spans with self time. Kept free
// of engine headers so the self-tests (selftest.cc) pin them down on their
// own, and so a change to the engine cannot change the benchmark's inputs.

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace xbench {

// ---------------------------------------------------------------------------
// Seeded randomness

/// splitmix64: tiny, fast, and fully determined by its seed — the
/// benchmark's only source of randomness.
class Rng {
 public:
  explicit Rng(uint64_t seed) : s_(seed) {}
  uint64_t Next() {
    uint64_t z = (s_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n); n > 0.
  uint64_t Below(uint64_t n) { return Next() % n; }
  /// Uniform in [0, 1).
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t s_;
};

/// Mixes a sub-stream tag into a seed so independent streams of one run
/// (query order, arrivals, row values) do not share draws.
uint64_t SubSeed(uint64_t seed, uint64_t tag);

/// Permutation of 0..n-1 (Fisher-Yates over Rng(seed)).
std::vector<int> ShuffledOrder(uint64_t seed, int n);

// ---------------------------------------------------------------------------
// Statistics

double Median(std::vector<double> v);
double Geomean(const std::vector<double>& v);

/// Tail percentile under the reporting rule: the highest level, at most
/// p99, that has at least kTailBeyond samples strictly beyond its
/// nearest-rank position. `level` is 0 when even the median lacks that
/// support (fewer than 20 samples).
struct Tail {
  double level = 0;  // e.g. 99, 98, 95 ...
  double value = 0;
  int64_t n = 0;
};
inline constexpr int64_t kTailBeyond = 10;
/// Nearest-rank percentile of `sorted` at `level` (0 < level <= 100).
double NearestRank(const std::vector<double>& sorted, double level);
Tail TailPercentile(std::vector<double> v);

/// Operations attempted against those that failed, were refused, or
/// returned a wrong result. A refused or failed operation also counts as
/// missing any latency limit (see Latencies::AddMissed).
struct Tally {
  int64_t attempted = 0;
  int64_t failed = 0;      // error reply or transport failure
  int64_t refused = 0;     // rejected before running
  int64_t mismatched = 0;  // completed, but the result was wrong
  int64_t bad() const { return failed + refused + mismatched; }
  double failed_frac() const {
    return attempted > 0 ? static_cast<double>(bad()) /
                               static_cast<double>(attempted)
                         : 0.0;
  }
  void Add(const Tally& o) {
    attempted += o.attempted;
    failed += o.failed;
    refused += o.refused;
    mismatched += o.mismatched;
  }
};

/// Latency samples (ms) of one operation class. Missed operations enter
/// as +infinity, so they sit beyond every percentile and fail any limit.
class Latencies {
 public:
  void Add(double ms) { v_.push_back(ms); }
  void AddMissed();
  const std::vector<double>& values() const { return v_; }
  int64_t n() const { return static_cast<int64_t>(v_.size()); }
  double P50() const;
  Tail TailP() const { return TailPercentile(v_); }

 private:
  std::vector<double> v_;
};

// ---------------------------------------------------------------------------
// Open-loop timing

/// One scheduled operation's clock readings (ns on one steady clock). An
/// open-loop generator owes each operation its due time: latency runs
/// from `due`, so a stalled generator or a full socket makes every later
/// operation late instead of silently lowering the offered rate.
struct OpClock {
  uint64_t due = 0;
  uint64_t sent = 0;
  uint64_t done = 0;
  double latency_ms() const { return (done - due) / 1e6; }
  double lateness_ms() const { return sent > due ? (sent - due) / 1e6 : 0; }
  double from_send_ms() const { return (done - sent) / 1e6; }
};

// ---------------------------------------------------------------------------
// Spans

/// One traced interval: a call the benchmark made into a layer.
struct Span {
  std::string name;
  uint64_t start = 0;  // ns
  uint64_t end = 0;    // ns
  int64_t parent = -1;  // index into the tracer's spans, -1 for roots
  uint64_t request = 0;
};

/// In-memory span store: spans are appended as they end and written out
/// once, at exit. Thread-safe appends.
class Tracer {
 public:
  /// Records a finished span; returns its index (usable as a parent of
  /// spans recorded later).
  int64_t Add(Span s);
  /// Reserves a slot for a span whose children are recorded before it
  /// ends; finish it with Close().
  int64_t Open(std::string name, uint64_t start, int64_t parent,
               uint64_t request);
  void Close(int64_t id, uint64_t end);

  std::vector<Span> spans() const;
  /// Writes one JSON object per line (name, start_ns, end_ns, parent,
  /// request, self_ns). False if the file cannot be written.
  bool WriteJsonLines(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Self time of every span: its duration minus the part of its interval
/// covered by the union of its children (overlapping children count once).
std::vector<uint64_t> SelfTimes(const std::vector<Span>& spans);

/// For each root, |sum of self times in its tree - root duration| in ns —
/// zero whenever children nest inside parents without overlapping.
std::vector<uint64_t> TreeSelfSumErrors(const std::vector<Span>& spans);

// ---------------------------------------------------------------------------
// Output

/// Metrics of one run in output order.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// The single-line result object: {"correct","attempted","failed",
/// "metrics":{name:{"value","unit"}}}.
std::string ResultJson(bool correct, int64_t attempted, int64_t failed,
                       const std::vector<Metric>& metrics);

/// Replaces characters outside [A-Za-z0-9_.-] so any engine-provided name
/// (primitive, operator) is a valid metric name.
std::string MetricName(const std::string& raw);

}  // namespace xbench

#endif  // XBENCH_STATS_H_
