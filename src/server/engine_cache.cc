#include "server/engine_cache.h"

#include <cstdio>
#include <filesystem>
#include <stdexcept>

#include "tpch/dbgen.h"

namespace x100 {

namespace {

/// Stable directory suffix for a scale factor ("%g" is exact for the SFs
/// requests may carry and never contains '/').
std::string SfTag(double sf) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", sf);
  return buf;
}

/// The per-SF meta file pins the directory to its scale factor: reopening
/// a WAL directory against a different SF would replay records into the
/// wrong base catalog and corrupt it silently.
void CheckOrWriteSfMeta(const std::string& dir, double sf) {
  std::string path = dir + "/SF";
  std::string want = SfTag(sf);
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f != nullptr) {
    char buf[64] = {0};
    size_t n = std::fread(buf, 1, sizeof(buf) - 1, f);
    std::fclose(f);
    std::string got(buf, n);
    while (!got.empty() && (got.back() == '\n' || got.back() == ' ')) {
      got.pop_back();
    }
    if (got != want) {
      throw std::runtime_error("engine cache: WAL dir " + dir +
                               " was created at SF " + got +
                               ", refusing to open it at SF " + want);
    }
    return;
  }
  f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    throw std::runtime_error("engine cache: cannot write " + path);
  }
  std::fwrite(want.data(), 1, want.size(), f);
  std::fputc('\n', f);
  std::fclose(f);
}

/// Mirrors dbgen's join-index set (tpch/dbgen.cc): every registration both
/// (re)builds the `#ji_*` column when the catalog lacks it — checkpoint
/// images do not persist join indices — and arms incremental maintenance
/// for appends.
void RegisterTpchJoinIndices(DurableStore* store) {
  struct Reg {
    const char* table;
    std::vector<std::string> fk;
    const char* target;
    std::vector<std::string> key;
  };
  const Reg regs[] = {
      {"lineitem", {"l_orderkey"}, "orders", {"o_orderkey"}},
      {"lineitem", {"l_partkey"}, "part", {"p_partkey"}},
      {"lineitem", {"l_suppkey"}, "supplier", {"s_suppkey"}},
      {"lineitem",
       {"l_partkey", "l_suppkey"},
       "partsupp",
       {"ps_partkey", "ps_suppkey"}},
      {"orders", {"o_custkey"}, "customer", {"c_custkey"}},
      {"customer", {"c_nationkey"}, "nation", {"n_nationkey"}},
      {"supplier", {"s_nationkey"}, "nation", {"n_nationkey"}},
      {"nation", {"n_regionkey"}, "region", {"r_regionkey"}},
      {"partsupp", {"ps_partkey"}, "part", {"p_partkey"}},
      {"partsupp", {"ps_suppkey"}, "supplier", {"s_suppkey"}},
  };
  for (const Reg& r : regs) {
    if (store->catalog()->Find(r.table) == nullptr ||
        store->catalog()->Find(r.target) == nullptr) {
      continue;
    }
    Status s = store->RegisterJoinIndex(r.table, r.fk, r.target, r.key);
    if (!s.ok()) {
      throw std::runtime_error("engine cache: join index " +
                               std::string(r.table) + "->" + r.target +
                               ": " + s.message());
    }
  }
}

}  // namespace

void EngineCache::EnableDurability(DurabilityOptions opts) {
  std::lock_guard<std::mutex> lock(mu_);
  durability_ = std::move(opts);
}

void EngineCache::Seed(double sf, const Catalog* db, ColumnBm* bm) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry& e = entries_[sf];
  if (e.db != nullptr) return;
  e.db = db;
  e.bm = bm;
}

EngineCache::Engine EngineCache::Get(double sf, bool want_disk) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry& e = entries_[sf];
  if (e.db == nullptr) {
    DbgenOptions opts;
    opts.scale_factor = sf;
    std::unique_ptr<Catalog> base = GenerateTpch(opts);
    if (!durability_.wal_dir.empty()) {
      std::string dir = durability_.wal_dir + "/sf_" + SfTag(sf);
      std::error_code ec;
      std::filesystem::create_directories(dir, ec);
      if (ec) {
        throw std::runtime_error("engine cache: cannot create " + dir + ": " +
                                 ec.message());
      }
      CheckOrWriteSfMeta(dir, sf);
      DurableStore::Options dopts;
      dopts.wal_dir = dir;
      dopts.group_commit_us = durability_.group_commit_us;
      dopts.merge_threshold_rows = durability_.merge_threshold_rows;
      dopts.background_merge = durability_.background_merge;
      std::string err;
      e.store = DurableStore::Open(dopts, std::move(base), &err);
      if (e.store == nullptr) {
        throw std::runtime_error("engine cache: durable open: " + err);
      }
      RegisterTpchJoinIndices(e.store.get());
      Status s = e.store->Recover();
      if (!s.ok()) {
        throw std::runtime_error("engine cache: recovery: " + s.message());
      }
      e.db = e.store->catalog();
    } else {
      e.owned_db = std::move(base);
      e.db = e.owned_db.get();
    }
  }
  if (want_disk && e.bm == nullptr) {
    e.owned_bm = std::make_unique<ColumnBm>();
    e.bm = e.owned_bm.get();
  }
  return Engine{e.db, e.bm, e.store.get()};
}

}  // namespace x100
