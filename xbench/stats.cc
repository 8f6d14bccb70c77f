#include "stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

namespace xbench {

uint64_t SubSeed(uint64_t seed, uint64_t tag) {
  Rng r(seed ^ (tag * 0xd1b54a32d192ed03ULL));
  return r.Next();
}

std::vector<int> ShuffledOrder(uint64_t seed, int n) {
  std::vector<int> order(static_cast<size_t>(n));
  for (int i = 0; i < n; i++) order[static_cast<size_t>(i)] = i;
  Rng r(seed);
  for (int i = n - 1; i > 0; i--) {
    int j = static_cast<int>(r.Below(static_cast<uint64_t>(i) + 1));
    std::swap(order[static_cast<size_t>(i)], order[static_cast<size_t>(j)]);
  }
  return order;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Geomean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double log_sum = 0;
  for (double x : v) log_sum += std::log(x);
  return std::exp(log_sum / static_cast<double>(v.size()));
}

double NearestRank(const std::vector<double>& sorted, double level) {
  if (sorted.empty()) return 0;
  double n = static_cast<double>(sorted.size());
  auto rank = static_cast<size_t>(std::ceil(level / 100.0 * n));
  if (rank < 1) rank = 1;
  if (rank > sorted.size()) rank = sorted.size();
  return sorted[rank - 1];
}

Tail TailPercentile(std::vector<double> v) {
  Tail t;
  t.n = static_cast<int64_t>(v.size());
  std::sort(v.begin(), v.end());
  // Levels tried from the top; the first whose nearest-rank position
  // leaves kTailBeyond samples above it wins.
  static constexpr double kLevels[] = {99, 98, 97, 96, 95, 90, 75, 50};
  for (double level : kLevels) {
    auto rank = static_cast<int64_t>(
        std::ceil(level / 100.0 * static_cast<double>(t.n)));
    if (t.n - rank >= kTailBeyond) {
      t.level = level;
      t.value = NearestRank(v, level);
      return t;
    }
  }
  return t;
}

void Latencies::AddMissed() {
  v_.push_back(std::numeric_limits<double>::infinity());
}

double Latencies::P50() const {
  std::vector<double> s = v_;
  std::sort(s.begin(), s.end());
  return NearestRank(s, 50);
}

int64_t Tracer::Add(Span s) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(s));
  return static_cast<int64_t>(spans_.size()) - 1;
}

int64_t Tracer::Open(std::string name, uint64_t start, int64_t parent,
                     uint64_t request) {
  return Add(Span{std::move(name), start, start, parent, request});
}

void Tracer::Close(int64_t id, uint64_t end) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(id)].end = end;
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

bool Tracer::WriteJsonLines(const std::string& path) const {
  std::vector<Span> all = spans();
  std::vector<uint64_t> self = SelfTimes(all);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (size_t i = 0; i < all.size(); i++) {
    const Span& s = all[i];
    std::fprintf(f,
                 "{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%llu,"
                 "\"end_ns\":%llu,\"parent\":%lld,\"request\":%llu,"
                 "\"self_ns\":%llu}\n",
                 i, s.name.c_str(), static_cast<unsigned long long>(s.start),
                 static_cast<unsigned long long>(s.end),
                 static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.request),
                 static_cast<unsigned long long>(self[i]));
  }
  return std::fclose(f) == 0;
}

std::vector<uint64_t> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<uint64_t, uint64_t>>> kids(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      kids[static_cast<size_t>(s.parent)].emplace_back(s.start, s.end);
    }
  }
  std::vector<uint64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); i++) {
    const Span& p = spans[i];
    std::vector<std::pair<uint64_t, uint64_t>>& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    // Length of the union of child intervals, clipped to the parent.
    uint64_t covered = 0, cur_lo = 0, cur_hi = 0;
    bool open = false;
    for (auto [lo, hi] : iv) {
      lo = std::max(lo, p.start);
      hi = std::min(hi, p.end);
      if (hi <= lo) continue;
      if (open && lo <= cur_hi) {
        cur_hi = std::max(cur_hi, hi);
        continue;
      }
      if (open) covered += cur_hi - cur_lo;
      cur_lo = lo;
      cur_hi = hi;
      open = true;
    }
    if (open) covered += cur_hi - cur_lo;
    uint64_t dur = p.end > p.start ? p.end - p.start : 0;
    self[i] = dur > covered ? dur - covered : 0;
  }
  return self;
}

std::vector<uint64_t> TreeSelfSumErrors(const std::vector<Span>& spans) {
  std::vector<uint64_t> self = SelfTimes(spans);
  // Spans are recorded after their parents were opened, so a parent's
  // index is always smaller: one forward pass finds every span's root.
  std::vector<size_t> root(spans.size());
  std::vector<uint64_t> sum(spans.size(), 0);
  for (size_t i = 0; i < spans.size(); i++) {
    int64_t p = spans[i].parent;
    root[i] = p >= 0 && static_cast<size_t>(p) < i ? root[static_cast<size_t>(p)]
                                                   : i;
    sum[root[i]] += self[i];
  }
  std::vector<uint64_t> errors;
  for (size_t i = 0; i < spans.size(); i++) {
    if (root[i] != i) continue;
    uint64_t dur = spans[i].end - spans[i].start;
    errors.push_back(sum[i] > dur ? sum[i] - dur : dur - sum[i]);
  }
  return errors;
}

namespace {
std::string JsonNumber(double v) {
  // Finite values keep every digit; a missed-limit infinity (which only a
  // failed run can carry) is written as the largest finite double.
  if (!std::isfinite(v)) v = std::numeric_limits<double>::max();
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}
}  // namespace

std::string ResultJson(bool correct, int64_t attempted, int64_t failed,
                       const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); i++) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           JsonNumber(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
           "\"}";
  }
  out += "}}";
  return out;
}

std::string MetricName(const std::string& raw) {
  std::string out = raw;
  for (char& c : out) {
    bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
              (c >= '0' && c <= '9') || c == '_' || c == '.' || c == '-';
    if (!ok) c = '_';
  }
  return out;
}

}  // namespace xbench
