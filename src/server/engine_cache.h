#ifndef X100_SERVER_ENGINE_CACHE_H_
#define X100_SERVER_ENGINE_CACHE_H_

// Engine state behind the request API: one (catalog, optional disk
// ColumnBm) pair per scale factor, built lazily from the deterministic
// dbgen on first use or seeded by a caller that already generated the
// data (tpch_runner, benches, tests). The cache is what lets a
// QueryRequest carry nothing but an SF and still resolve to real tables
// on any server.

#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "storage/catalog.h"
#include "storage/columnbm.h"
#include "storage/durable.h"

namespace x100 {

class EngineCache {
 public:
  /// One scale factor's engine state. `db` is always set; `bm` is set once
  /// any disk request at this SF has been served (or the seeder passed
  /// one); `store` is set when the cache was opened with a WAL directory
  /// (EnableDurability) — it accepts updates and hands out snapshots.
  /// Pointers stay valid for the cache's lifetime.
  struct Engine {
    const Catalog* db = nullptr;
    ColumnBm* bm = nullptr;
    DurableStore* store = nullptr;
  };

  /// Durable serving configuration: when `wal_dir` is set, every lazily
  /// created engine lives behind a DurableStore whose WAL + checkpoint
  /// images go under `<wal_dir>/sf_<sf>` — surviving restarts because the
  /// base catalog (deterministic dbgen) plus the replayed WAL reproduces
  /// the pre-crash state bit-identically.
  struct DurabilityOptions {
    std::string wal_dir;
    int64_t group_commit_us = kDefaultWalGroupUs;
    int64_t merge_threshold_rows = kDefaultMergeRows;
    bool background_merge = true;
  };

  /// Lazily created ColumnBms remove their own scratch directories. WAL
  /// directories are deliberately never removed — they are the durability.
  EngineCache() = default;

  EngineCache(const EngineCache&) = delete;
  EngineCache& operator=(const EngineCache&) = delete;

  /// Call before the first Get(). Engines created after this are durable;
  /// Seed()ed engines stay caller-owned and read-only.
  void EnableDurability(DurabilityOptions opts);

  /// Registers a caller-owned engine for `sf` instead of lazy dbgen — the
  /// runner and benches already hold a generated catalog, and tests want
  /// requests served from the very tables their serial references scanned.
  /// `db` (and `bm` when given) must outlive the cache. No-op when `sf`
  /// is already present.
  void Seed(double sf, const Catalog* db, ColumnBm* bm = nullptr);

  /// Engine state for `sf`, dbgen-generating the catalog on first use; with
  /// `want_disk`, also creates a ColumnBm in its own scratch directory.
  /// Blocks concurrent callers while generating — the first query at a new
  /// SF pays generation inside its execution window, by design (an
  /// admission slot is exactly the budget such work should consume). Throws
  /// std::runtime_error when the scratch directory cannot be made.
  Engine Get(double sf, bool want_disk);

 private:
  struct Entry {
    std::unique_ptr<Catalog> owned_db;
    const Catalog* db = nullptr;
    std::unique_ptr<ColumnBm> owned_bm;
    ColumnBm* bm = nullptr;
    std::unique_ptr<DurableStore> store;  // owns the catalog when set
  };

  std::mutex mu_;
  std::map<double, Entry> entries_;
  DurabilityOptions durability_;  // wal_dir empty: durability off
};

}  // namespace x100

#endif  // X100_SERVER_ENGINE_CACHE_H_
