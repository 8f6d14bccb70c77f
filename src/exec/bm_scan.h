#ifndef X100_EXEC_BM_SCAN_H_
#define X100_EXEC_BM_SCAN_H_

#include <memory>
#include <string>
#include <vector>

#include "exec/operator.h"
#include "exec/scan.h"
#include "storage/columnbm.h"
#include "storage/table.h"

namespace x100 {

struct TraceNode;

/// Options for one ColumnBM scan (mirrors ScanSpec for plan::BmScan):
///
///   BmScan(ctx, &bm, t, {.cols = {"a", "b"},
///                        .compress = true,
///                        .morsel = {w, n}})
struct BmScanSpec {
  std::vector<std::string> cols;
  /// Compress integral columns on store — each block gets the cheapest
  /// codec (FOR/PDICT/RLE/PFOR-delta/raw) by sampled trial-encode unless
  /// `codec` pins one. Decompression then happens block-at-a-time on the
  /// RAM/cache boundary at read time (on the prefetch thread when possible).
  bool compress = false;
  /// When set (and `compress`), every block is stored with this codec.
  std::optional<CodecId> codec;
  /// Contiguous share of the fragment this scan covers (block-aligned where
  /// possible; the union over workers is the whole fragment).
  ScanSpec::Morsel morsel;
};

/// Scan over ColumnBM block storage — the paper's goal (iii): the same
/// vectorized pipeline fed by the lowest storage hierarchy instead of RAM
/// (§4 "Disk"). Column data is served block-at-a-time from the ColumnBM
/// chunk files behind the bounded buffer pool (optionally codec-compressed)
/// and sliced into vectors at the RAM/cache boundary.
///
/// Sequential readahead: while a block is being consumed/decoded, the next
/// block of each column is read on the shared ThreadPool so I/O overlaps
/// decode. Shared scans (§4.3: ColumnBM is designed for many concurrent
/// queries): every load goes through the ColumnBm's SharedScanRegistry, so a
/// scan attaches to another scan's in-flight load of the same (file, block)
/// instead of re-reading and re-decoding it.
///
/// Restriction of the disk image: the table must be a pure frozen fragment
/// (no deltas, no deletes — ColumnBM stores immutable fragments, §4.3); the
/// constructor throws std::invalid_argument with a precise message when it
/// is not. Enum-compressed strings are blocked as their code columns.
/// Non-enum string columns are heap pointers, not a disk format: they stay
/// resident, and each vector copies them from the in-memory fragment.
///
/// MVCC exception: when the ExecContext carries a pinned snapshot for the
/// table, deltas and deletes are allowed — the frozen fragment still comes
/// from ColumnBM blocks (named with a ".v<fragment_version>" infix after a
/// merge so stale cached files are never served), deleted rows are compacted
/// out of each vector, and the snapshot's delta tail is appended from the
/// in-memory delta columns. Every bound comes from the snapshot.
class BmScanOp : public Operator {
 public:
  /// Ensures each requested column of `table` is stored in `bm` under
  /// "<table>.<column>" (codec-compressed when `spec.compress` and the
  /// physical type is integral), then scans `spec.morsel`'s share from those
  /// blocks, prefetching the next block of each column.
  BmScanOp(ExecContext* ctx, ColumnBm* bm, const Table& table, BmScanSpec spec);

  /// Cancels/waits out in-flight prefetch tasks: a cancelled query unwinds
  /// without Close(), and the tasks hold raw ColumnBm pointers and pool
  /// pins that must not outlive the operator tree's teardown.
  ~BmScanOp() override;

  const Schema& schema() const override { return schema_; }
  void Open() override;
  VectorBatch* Next() override;
  /// Cancels in-flight prefetch reads and waits them out, then publishes the
  /// scan's prefetch/pool counters to the trace node (if any).
  void Close() override;

  /// EXPLAIN ANALYZE hook (wired by plan::BmScan): Close() adds
  /// prefetch.hits / prefetch.late / pool.hits / pool.misses /
  /// shared.attached / shared.published plus codec.<name>.blocks/bytes for
  /// every codec the scan staged.
  void set_trace_node(TraceNode* node) { trace_node_ = node; }

  struct PrefetchStats {
    int64_t scheduled = 0;
    int64_t hits = 0;  // block already loaded when the scan needed it
    int64_t late = 0;  // scan had to wait on an in-flight prefetch
  };
  const PrefetchStats& prefetch_stats() const { return prefetch_; }

 private:
  /// One in-flight readahead of (file, block), run on the shared pool.
  struct Ticket;

  struct ColState {
    std::string file;
    bool resident = false;  // non-enum string: read from the RAM fragment
    bool compressed = false;
    size_t width = 0;
    int64_t num_blocks = 0;
    // Current block staging. `ref` holds the buffer-pool pin that keeps
    // `cur` valid across Next() calls. `buf` is shared because a decoded
    // payload may be published to (or attached from) concurrent scans of
    // the same file via the SharedScanRegistry.
    ColumnBm::BlockRef ref;
    std::shared_ptr<std::vector<char>> buf;  // decoded values (codec blocks)
    // Keeps the SharedScanRegistry entry for the staged block attachable
    // while it is being consumed (type-erased: the registry types stay out
    // of this header).
    std::shared_ptr<void> stage_keep;
    const char* cur = nullptr;   // current block data
    int64_t block = -1;
    int64_t avail = 0;           // values left in the current block
    int64_t off = 0;             // consumed values in the current block
    int64_t skip = 0;            // morsel: values to drop from the next block
    int64_t rows_left = 0;       // values still to deliver for this morsel
    std::shared_ptr<Ticket> next;  // outstanding readahead, if any
  };

  bool FillColumn(int c, char* dst, int64_t n);
  /// Compacts rows of window [lo, hi) that are on the (snapshot's) deletion
  /// list out of the batch's owned buffers in place; returns the surviving
  /// row count (== n when the window has no deletions).
  int CompactDeleted(int64_t lo, int64_t hi, int n);
  void StageBlock(ColState& st);
  void SchedulePrefetch(ColState& st);
  void CancelPrefetches();

  ExecContext* ctx_;
  ColumnBm* bm_;
  const Table& table_;
  std::vector<int> col_idx_;
  BmScanSpec spec_;
  Schema schema_;
  std::vector<ColState> cols_;
  const TableSnapshot* snap_ = nullptr;  // pinned view, or null for live
  int64_t frag_rows_ = 0;  // fragment/delta boundary (snapshot or live)
  int64_t pos_ = 0;       // next row (fragment-absolute) to deliver
  int64_t end_ = 0;       // morsel end row
  int64_t delta_pos_ = 0, delta_end_ = 0;  // snapshot delta tail (morsel)
  bool in_delta_ = false;
  PrefetchStats prefetch_;
  int64_t pool_hits_ = 0, pool_misses_ = 0;
  // Shared-scan effectiveness: blocks this scan reused from a concurrent
  // scan's load, and loads it published for others (main thread).
  int64_t shared_attached_ = 0, shared_published_ = 0;
  // Blocks/stored bytes staged per codec (indexed by CodecId; main thread).
  int64_t codec_blocks_[kNumCodecs] = {0};
  int64_t codec_bytes_[kNumCodecs] = {0};
  TraceNode* trace_node_ = nullptr;
  VectorBatch batch_;
};

}  // namespace x100

#endif  // X100_EXEC_BM_SCAN_H_
