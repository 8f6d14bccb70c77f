// Hash-table micro-bench: builds and probes both HashImpl layouts (chained /
// linear open-addressing) head-to-head at a cache-resident size and at an
// SF=0.1-class build size, exporting BENCH_hashtable.json for the CI gate
// (bench/baselines/hashtable.json).
//
// Measured per impl and size:
//   build_<impl>_<size>            seconds per rep (insert all keys)
//   probe_<impl>_<size>            seconds per rep (probe the whole stream)
//   build/probe _ns_per_tuple      scalars from the best rep
//   probe_<impl>_large_llc_miss_per_tuple   counter scalar, only when the
//        machine exposes a PMU (absent on perf-less runners; the baseline
//        marks these "counter": true so ABSENT passes the gate)
// plus the gated headline: linear_vs_chained_probe_speedup_large — the new
// default must beat the chained layout on probe ns/tuple at the large size.

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/hash.h"
#include "common/perf_counters.h"
#include "exec/hash_table.h"

namespace x100 {
namespace {

using bench::BenchExport;
using bench::MeasureReps;
using bench::RepSet;

constexpr int kLanes = 1024;  // vector-at-a-time, engine default

// Inserts keys [0, n) (hashed) in chunks, exactly the operators' protocol.
void BuildTable(HashTable* t, HashTable::Probe* p,
                const std::vector<uint64_t>& hashes) {
  t->Reset(0);  // grow from scratch: growth cost is part of build
  size_t n = hashes.size();
  for (size_t base = 0; base < n; base += kLanes) {
    int cn = static_cast<int>(n - base < kLanes ? n - base : kLanes);
    t->Reserve(static_cast<size_t>(cn));
    t->ProbeBegin(p, hashes.data() + base, nullptr, cn);
    while (int nc = t->ProbeRound(p)) {
      for (int k = 0; k < nc; k++) t->Accept(p, k);  // hash == key here
    }
    for (int j = 0; j < cn; j++) {
      if (p->result(j) != HashTable::kNone) continue;
      uint32_t cand = HashTable::kNone;
      t->InsertMiss(p, j, static_cast<uint32_t>(base) + j, &cand);
    }
  }
}

// Probes the stream in chunks; returns a sink value so the loop can't be
// dead-code-eliminated.
uint64_t ProbeTable(HashTable* t, HashTable::Probe* p,
                    const std::vector<uint64_t>& stream) {
  uint64_t sink = 0;
  size_t n = stream.size();
  for (size_t base = 0; base < n; base += kLanes) {
    int cn = static_cast<int>(n - base < kLanes ? n - base : kLanes);
    t->ProbeBegin(p, stream.data() + base, nullptr, cn);
    while (int nc = t->ProbeRound(p)) {
      for (int k = 0; k < nc; k++) t->Accept(p, k);
    }
    for (int j = 0; j < cn; j++) sink += p->result(j);
  }
  return sink;
}

struct SizeClass {
  const char* name;
  size_t build_keys;
  size_t probes;
};

}  // namespace
}  // namespace x100

int main() {
  using namespace x100;

  int reps = bench::Reps(5);
  // "small" is cache-resident; "large" matches an SF=0.1 join build side
  // (orders has 150K rows at SF=0.1) and spills the slot array out of L2.
  const SizeClass sizes[] = {
      {"small", size_t{1} << 12, size_t{1} << 20},
      {"large", size_t{1} << 18, size_t{1} << 22},
  };
  const HashImpl impls[] = {HashImpl::kChained, HashImpl::kLinear};

  BenchExport out("hashtable");
  double probe_best_large[2] = {0, 0};

  for (const SizeClass& sz : sizes) {
    // Distinct keys, hashed once up front (the engine hashes via the
    // map_hash pipeline; this bench measures the table, not the hashing).
    std::vector<uint64_t> build_hash(sz.build_keys);
    for (size_t i = 0; i < sz.build_keys; i++) {
      build_hash[i] = HashU64(static_cast<uint64_t>(i));
    }
    // Probe stream: uniform-random hits over the whole key range, so every
    // probe is a dependent random access into the slot array.
    std::vector<uint64_t> stream(sz.probes);
    uint64_t s = 0x9E3779B97F4A7C15ull;
    for (size_t i = 0; i < sz.probes; i++) {
      s = s * 6364136223846793005ull + 1442695040888963407ull;
      stream[i] = build_hash[(s >> 33) % sz.build_keys];
    }

    for (int ii = 0; ii < 2; ii++) {
      HashImpl impl = impls[ii];
      std::string tag = std::string(HashImplName(impl)) + "_" + sz.name;
      HashTable t(impl);
      HashTable::Probe p;

      RepSet build = MeasureReps(reps, [&] { BuildTable(&t, &p, build_hash); });
      if (t.size() != sz.build_keys) {
        std::fprintf(stderr, "[bench] BUG: %s built %zu of %zu keys\n",
                     tag.c_str(), t.size(), sz.build_keys);
        return 1;
      }

      uint64_t sink = 0;
      RepSet probe =
          MeasureReps(reps, [&] { sink += ProbeTable(&t, &p, stream); });
      if (sink == uint64_t{0xFFFFFFFFFFFFFFFFull}) std::fprintf(stderr, "-");

      out.AddReps("build_" + tag, build);
      out.AddReps("probe_" + tag, probe);
      double build_ns = build.Best() * 1e9 / static_cast<double>(sz.build_keys);
      double probe_ns = probe.Best() * 1e9 / static_cast<double>(sz.probes);
      out.AddScalar("build_" + tag + "_ns_per_tuple", build_ns, "ns");
      out.AddScalar("probe_" + tag + "_ns_per_tuple", probe_ns, "ns");
      std::fprintf(stderr,
                   "[bench] %-14s build %6.2f ns/key  probe %6.2f ns/probe\n",
                   tag.c_str(), build_ns, probe_ns);

      // Cache misses per probe: only when every rep measured the counter.
      uint32_t mask = probe.PerfMask();
      if (mask & (1u << static_cast<int>(PerfEvent::kCacheMisses))) {
        uint64_t best_miss = ~uint64_t{0};
        for (const PerfCounterValues& v : probe.perf) {
          uint64_t m = v.Get(PerfEvent::kCacheMisses);
          if (m < best_miss) best_miss = m;
        }
        out.AddScalar("probe_" + tag + "_llc_miss_per_tuple",
                      static_cast<double>(best_miss) /
                          static_cast<double>(sz.probes));
      }

      if (std::string(sz.name) == "large") probe_best_large[ii] = probe.Best();
    }
  }

  // The headline CI gate: the engine default (linear) must beat the legacy
  // chained layout on probe time at the large size.
  if (probe_best_large[1] > 0) {
    out.AddScalar("linear_vs_chained_probe_speedup_large",
                  probe_best_large[0] / probe_best_large[1], "x");
  }

  return out.Write().empty() ? 1 : 0;
}
