// Self-tests of the benchmark's own measurement code (stats.h, schedule.h).
// run.py runs this binary before every measurement and refuses to report
// numbers when it fails. Exit status 0 = all checks passed.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <vector>

#include "schedule.h"
#include "stats.h"

using namespace xbench;

namespace {

int g_failures = 0;

void Check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "selftest FAILED: %s\n", what);
    g_failures++;
  }
}

bool Near(double a, double b, double tol = 1e-9) {
  return std::fabs(a - b) <= tol * std::max(1.0, std::fabs(b));
}

std::vector<double> Iota(int n) {
  std::vector<double> v;
  for (int i = 1; i <= n; i++) v.push_back(i);
  return v;
}

void TestPercentileRule() {
  // 1000 samples: p99's nearest rank is 990, leaving exactly 10 beyond.
  Tail t = TailPercentile(Iota(1000));
  Check(t.level == 99 && t.value == 990 && t.n == 1000, "p99 at n=1000");
  // 999 samples: p99 would leave 9 beyond, so the rule drops to p98.
  t = TailPercentile(Iota(999));
  Check(t.level == 98 && t.value == 980 && t.n == 999, "p98 at n=999");
  // 100 samples: p90 leaves exactly 10.
  t = TailPercentile(Iota(100));
  Check(t.level == 90 && t.value == 90, "p90 at n=100");
  // Many samples never report above p99.
  t = TailPercentile(Iota(100000));
  Check(t.level == 99 && t.value == 99000, "capped at p99");
  // Fewer than 20 samples support no level at all.
  t = TailPercentile(Iota(19));
  Check(t.level == 0 && t.n == 19, "unsupported below 20 samples");
  // Input order does not matter.
  std::vector<double> rev = Iota(1000);
  std::reverse(rev.begin(), rev.end());
  Check(TailPercentile(rev).value == 990, "percentile sorts its input");
  // Sample counts reach the caller through Latencies.
  Latencies lat;
  for (int i = 1; i <= 40; i++) lat.Add(i);
  Check(lat.n() == 40 && lat.P50() == 20 && lat.TailP().level == 75,
        "latency sample count and median");
}

void TestGeomean() {
  Check(Near(Geomean({1, 100}), 10), "geomean of 1 and 100");
  Check(Near(Geomean({2, 2, 2}), 2), "geomean of equal values");
  Check(Near(Geomean({0.001, 1000}), 1), "geomean keeps short queries");
  Check(Geomean({}) == 0, "geomean of nothing");
  Check(Near(Median({3, 1, 2}), 2) && Near(Median({4, 1, 3, 2}), 2.5),
        "median odd and even");
}

void TestSelfTime() {
  // root [0,100) with children a [10,40) and b [30,60) overlapping, and a
  // grandchild under a. Root self = 100 - |[10,60)| = 50.
  std::vector<Span> s = {
      {"root", 0, 100, -1, 1},
      {"a", 10, 40, 0, 1},
      {"b", 30, 60, 0, 1},
      {"a.child", 15, 25, 1, 1},
  };
  std::vector<uint64_t> self = SelfTimes(s);
  Check(self[0] == 50, "root self time with overlapping children");
  Check(self[1] == 20, "child self time minus grandchild");
  Check(self[2] == 30 && self[3] == 10, "leaf self time");
  // Overlap makes the tree's self times exceed the root: detected.
  std::vector<uint64_t> err = TreeSelfSumErrors(s);
  Check(err.size() == 1 && err[0] == 10, "overlap shows as a self-sum error");
  // Disjoint children nested inside their parents add up exactly.
  std::vector<Span> nested = {
      {"pass", 0, 100, -1, 0},
      {"q1", 0, 30, 0, 0},
      {"q2", 40, 90, 0, 0},
      {"check", 90, 100, 0, 0},
      {"pass2", 200, 260, -1, 0},
      {"q1", 210, 250, 4, 0},
  };
  err = TreeSelfSumErrors(nested);
  Check(err.size() == 2 && err[0] == 0 && err[1] == 0,
        "self times sum to each root's duration");
  Tracer tr;
  int64_t root = tr.Open("root", 5, -1, 7);
  tr.Add(Span{"kid", 6, 8, root, 7});
  tr.Close(root, 10);
  std::vector<uint64_t> st = SelfTimes(tr.spans());
  Check(st[0] == 3 && st[1] == 2, "tracer open/close spans");
}

void TestOpenLoopLateness() {
  // Due at 1 ms, sent at 5 ms because the generator stalled, done at 6 ms:
  // the user waited 5 ms, not 1 ms.
  OpClock c{1000000, 5000000, 6000000};
  Check(Near(c.latency_ms(), 5.0), "latency counts from the due time");
  Check(Near(c.lateness_ms(), 4.0), "generator lateness");
  Check(Near(c.from_send_ms(), 1.0), "send-to-done is not the latency");
  // A stall delays every later operation of the schedule.
  std::vector<OpClock> ops = {{0, 0, 1}, {1000, 9000, 9001}, {2000, 9001, 9002}};
  double worst = 0;
  for (const OpClock& o : ops) worst = std::max(worst, o.latency_ms());
  Check(Near(worst, 0.008001), "stall charged to the stalled operation");
  Check(ops[2].latency_ms() > ops[2].from_send_ms(),
        "queued operation pays the stall");
}

void TestFailedFrac() {
  Tally t;
  t.attempted = 200;
  t.refused = 2;
  t.mismatched = 1;
  t.failed = 1;
  Check(t.bad() == 4 && Near(t.failed_frac(), 0.02),
        "failed_frac counts refusals and mismatches");
  Tally u;
  u.attempted = 100;
  u.mismatched = 1;
  t.Add(u);
  Check(t.attempted == 300 && t.bad() == 5, "tallies add");
  Check(Tally{}.failed_frac() == 0, "no attempts, no failures");
  // A refused request misses any latency limit.
  Latencies lat;
  for (int i = 0; i < 99; i++) lat.Add(1.0);
  lat.AddMissed();
  std::vector<double> v = lat.values();
  std::sort(v.begin(), v.end());
  Check(std::isinf(NearestRank(v, 100)), "missed op sits beyond the tail");
}

void TestSeededStreams() {
  OpMix mix;
  OpStream a(42, mix, 100000), b(42, mix, 100000), c(43, mix, 100000);
  std::vector<Op> sa = a.Take(5000, 800.0, 0);
  std::vector<Op> sb = b.Take(5000, 800.0, 0);
  std::vector<Op> sc = c.Take(5000, 800.0, 0);
  bool same = sa.size() == sb.size();
  for (size_t i = 0; same && i < sa.size(); i++) {
    same = sa[i].due_ns == sb[i].due_ns && sa[i].kind == sb[i].kind &&
           sa[i].conn == sb[i].conn && sa[i].arg == sb[i].arg &&
           sa[i].value == sb[i].value;
  }
  Check(same, "same seed, same operation stream");
  bool differs = false;
  for (size_t i = 0; i < sa.size(); i++) {
    differs |= sa[i].due_ns != sc[i].due_ns || sa[i].kind != sc[i].kind;
  }
  Check(differs, "another seed, another stream");
  // Arrival rate is honoured: 5000 ops at 800/s span about 6.25 s.
  double span_s = sa.back().due_ns / 1e9;
  Check(span_s > 5.5 && span_s < 7.0, "open-loop arrival rate");
  // Deletes never repeat a rowid, across successive Take()s too.
  std::vector<Op> more = a.Take(20000, 5000.0, 0);
  std::vector<int64_t> del;
  for (const auto* s : {&sa, &more}) {
    for (const Op& o : *s) {
      if (o.kind == OpKind::kDelete) del.push_back(o.arg);
    }
  }
  std::sort(del.begin(), del.end());
  Check(!del.empty() && std::adjacent_find(del.begin(), del.end()) == del.end(),
        "deletes hit distinct rowids");
  // The mix holds exactly within every block.
  int kinds[4] = {};
  for (size_t i = 0; i < static_cast<size_t>(mix.block); i++) {
    kinds[static_cast<int>(sa[i].kind)]++;
  }
  Check(kinds[0] == mix.append && kinds[1] == mix.del && kinds[3] == mix.scan &&
            kinds[2] == mix.block - mix.append - mix.del - mix.scan,
        "mix shares hold within a block");
  // After StopDeletes the delete slots append: same write share, no deletes.
  OpStream d(42, mix, 100000);
  d.StopDeletes();
  std::vector<Op> late = d.Take(static_cast<int64_t>(mix.block) * 10, 800.0, 0);
  int64_t late_appends = 0, late_deletes = 0;
  for (const Op& o : late) {
    late_appends += o.kind == OpKind::kAppend;
    late_deletes += o.kind == OpKind::kDelete;
  }
  Check(late_deletes == 0 && late_appends == 10 * (mix.append + mix.del),
        "no deletes after StopDeletes, same write share");
  Check(ShuffledOrder(7, 22) == ShuffledOrder(7, 22) &&
            ShuffledOrder(7, 22) != ShuffledOrder(8, 22),
        "seeded query order");
}

void TestResultJson() {
  std::string j = ResultJson(true, 3, 0, {{"a_ms", 1.5, "ms"}});
  Check(j == "{\"correct\": true, \"attempted\": 3, \"failed\": 0, "
             "\"metrics\": {\"a_ms\": {\"value\": 1.5, \"unit\": \"ms\"}}}",
        "result line shape");
  Check(MetricName("select_<_sint(col)") == "select___sint_col_",
        "metric names are sanitized");
}

}  // namespace

int main() {
  TestPercentileRule();
  TestGeomean();
  TestSelfTime();
  TestOpenLoopLateness();
  TestFailedFrac();
  TestSeededStreams();
  TestResultJson();
  if (g_failures > 0) {
    std::fprintf(stderr, "selftest: %d check(s) failed\n", g_failures);
    return 1;
  }
  std::fprintf(stderr, "selftest: all checks passed\n");
  return 0;
}
