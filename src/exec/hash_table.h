#ifndef X100_EXEC_HASH_TABLE_H_
#define X100_EXEC_HASH_TABLE_H_

// Shared vectorized hash-table layer for hash join, radix join and hash
// aggregation (§4.1.2: the primitives that live or die by cache behaviour).
//
// The table maps a 64-bit hash to a 32-bit value (a build row id or a group
// id) and is operated batch-at-a-time: callers hash a whole vector with the
// map_hash/map_rehash pipeline, then drive a probe-all loop that advances
// every unresolved lane per round and hands back candidate entries as a
// selection vector for (caller-side) key verification — the table itself
// never touches key bytes, so one layer serves multi-column, string and
// enum-code keys alike. Slot lines are software-prefetched a fixed distance
// ahead of the probing lane.
//
// Two interchangeable layouts sit behind one API so bench/hash_table.cc can
// race them head-to-head and EXPERIMENTS E17 can report cache misses per
// tuple:
//   - kLinear:  open addressing, linear probing over a contiguous
//               (tag, entry) slot array; 8-byte slots, 8 per cache line.
//               The engine layout.
//   - kChained: bucket array of entry-chain heads (the pre-rewrite layout),
//               kept as the paper-era reference the bit-identity tests run
//               against via ExecContext::hash_impl.
//
// Keys are unique: duplicate-key handling (a join build side) lives in the
// caller, which keeps one entry per distinct key and chains further rows
// through its own next-array. That keeps match-emission order identical
// across layouts (bit-identical query results).
//
// Growth is power-of-two and happens only in Reset()/Reserve() — never
// inside the probe loop — so callers reserve a batch's worth of headroom up
// front and probe cursors stay valid for the whole batch.

#include <cstddef>
#include <cstdint>
#include <vector>

namespace x100 {

struct TraceNode;

/// Physical hash-table layout, selectable per query.
enum class HashImpl { kChained, kLinear };

const char* HashImplName(HashImpl impl);

/// Lifetime activity counters, surfaced as ht.* trace counters on the
/// owning operator's EXPLAIN ANALYZE node and as ht.<impl>.* registry
/// metrics. slot_scans/probes is the mean probe displacement.
struct HashTableStats {
  uint64_t probes = 0;         ///< lanes entered into a probe pass
  uint64_t probe_rounds = 0;   ///< vectorized rounds over active lanes
  uint64_t slot_scans = 0;     ///< slots (or chain entries) examined
  uint64_t candidates = 0;     ///< full-hash matches handed to the caller
  uint64_t key_rejects = 0;    ///< candidates the caller's key compare killed
  uint64_t inserts = 0;        ///< distinct entries created
  uint64_t grows = 0;          ///< capacity rebuilds
};

class HashTable {
 public:
  /// "no value": absent probe result / end of a caller-side dup chain.
  static constexpr uint32_t kNone = 0xFFFFFFFFu;

  /// Slot lines are prefetched this many active lanes ahead of the one
  /// being scanned (covers L2 latency at vector-loop issue rates).
  static constexpr int kPrefetchDist = 8;

  /// Reusable per-batch probe state. One Probe serves many batches; arrays
  /// are grown once to the vector size and reused.
  class Probe {
   public:
    /// Resolved value of `lane` (valid once the round loop has drained):
    /// the matched entry's value, or kNone for a miss.
    uint32_t result(int lane) const { return result_[lane]; }
    /// Entry index behind result(), or kNone. Entry values may be updated
    /// through it (join build-side duplicate chains).
    uint32_t result_entry(int lane) const { return result_entry_[lane]; }

    int cand_count() const { return static_cast<int>(cand_lane_.size()); }
    int cand_lane(int k) const { return cand_lane_[k]; }
    uint32_t cand_entry(int k) const { return cand_entry_[k]; }

   private:
    friend class HashTable;
    std::vector<uint64_t> hash_;
    std::vector<uint32_t> result_;
    std::vector<uint32_t> result_entry_;
    std::vector<uint32_t> cursor_;  // impl-specific scan position
    std::vector<uint8_t> phase_;    // chained: scalar chain-walk restarted
    std::vector<int> active_;
    std::vector<int> cand_lane_;
    std::vector<uint32_t> cand_entry_;
    int n_ = 0;
  };

  explicit HashTable(HashImpl impl);

  HashImpl impl() const { return impl_; }
  size_t size() const { return entries_count_; }
  size_t capacity() const { return capacity_; }
  const HashTableStats& stats() const { return stats_; }

  /// Drops all entries and pre-sizes for `expected` distinct keys.
  /// Lifetime stats are kept (radix join resets once per partition).
  void Reset(size_t expected);

  /// Guarantees `extra` further inserts succeed without a mid-batch
  /// rebuild. Call once per input vector, before ProbeBegin.
  void Reserve(size_t extra);

  /// Starts a probe pass over lanes 0..n-1; lane j's hash is
  /// hashes[sel ? sel[j] : j]. Results reset to kNone.
  void ProbeBegin(Probe* p, const uint64_t* hashes, const int* sel, int n);

  /// Advances every active lane to its next full-hash-matching candidate
  /// (lanes reaching table end resolve to a miss). Returns the number of
  /// candidates delivered; 0 means the pass is drained. The caller must
  /// Accept() or Reject() every candidate before the next round.
  int ProbeRound(Probe* p);

  /// Caller's key compare confirmed candidate k: its lane resolves.
  void Accept(Probe* p, int k) {
    uint32_t e = p->cand_entry_[k];
    p->result_[p->cand_lane_[k]] = entries_[e].value;
    p->result_entry_[p->cand_lane_[k]] = e;
  }

  /// Key compare rejected candidate k: its lane resumes scanning.
  void Reject(Probe* p, int k) {
    stats_.key_rejects++;
    p->active_.push_back(p->cand_lane_[k]);
  }

  /// Scalar find-or-insert for a lane that drained to a miss — the rare
  /// new-key path, run in lane order after the round loop so group ids /
  /// duplicate chains form in first-encounter order. Returns true when a
  /// new entry holding `value` was created. Returns false with
  /// *cand_entry set when an entry inserted earlier in this batch is a
  /// full-hash match: key-check it, and on mismatch call again.
  bool InsertMiss(Probe* p, int lane, uint32_t value, uint32_t* cand_entry);

  uint32_t EntryValue(uint32_t entry) const { return entries_[entry].value; }
  /// Repoints `entry` at a new value (join duplicate-chain head update).
  void SetEntryValue(uint32_t entry, uint32_t value) {
    entries_[entry].value = value;
  }

  /// Adds activity since the last publish to `node` (ht.* counters, when
  /// tracing) and to the metrics registry (ht.<impl>.*), then zeroes the
  /// published window.
  void PublishStats(TraceNode* node);

 private:
  struct Slot {          // linear
    uint32_t tag;        // hash >> 32
    uint32_t entry1;     // entry index + 1; 0 = empty
  };
  struct Entry {
    uint64_t hash;
    uint32_t value;
  };

  static uint32_t Tag(uint64_t h) { return static_cast<uint32_t>(h >> 32); }
  size_t HomeSlot(uint64_t h) const { return h & mask_; }

  void EnsureCapacity(size_t total_entries);
  void Rebuild(size_t new_capacity);
  uint32_t NewEntry(uint64_t h, uint32_t value);

  int RoundChained(Probe* p);
  int RoundLinear(Probe* p);
  bool InsertMissChained(Probe* p, int lane, uint32_t value, uint32_t* cand);
  bool InsertMissLinear(Probe* p, int lane, uint32_t value, uint32_t* cand);

  HashImpl impl_;
  std::vector<Slot> slots_;     // linear: capacity_ slots
  std::vector<uint32_t> heads_; // chained: bucket -> entry + 1
  std::vector<uint32_t> next_;  // chained: per entry
  std::vector<Entry> entries_;
  size_t entries_count_ = 0;
  size_t capacity_ = 0;  // slots (linear) or buckets (chained)
  size_t mask_ = 0;      // slot mask (linear) / bucket mask (chained)
  HashTableStats stats_;
  HashTableStats published_;  // snapshot at last PublishStats
};

}  // namespace x100

#endif  // X100_EXEC_HASH_TABLE_H_
