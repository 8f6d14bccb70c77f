#include "exec/bm_scan.h"

#include <algorithm>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <stdexcept>

#include "common/metrics.h"
#include "common/thread_pool.h"
#include "exec/trace.h"
#include "storage/compression.h"
#include "storage/shared_scan.h"

namespace x100 {

namespace {
struct PrefetchMetrics {
  Counter* scheduled;
  Counter* hits;
  Counter* late;
  static PrefetchMetrics& Get() {
    static PrefetchMetrics m = {
        MetricsRegistry::Get().GetCounter("prefetch.scheduled"),
        MetricsRegistry::Get().GetCounter("prefetch.hits"),
        MetricsRegistry::Get().GetCounter("prefetch.late")};
    return m;
  }
};

/// One staged block, ready for the copy loop: either a pinned raw payload or
/// decoded values in a shareable buffer. Produced by the loaders below on
/// whichever thread stages the block (scan or prefetch).
struct Staged {
  bool decoded_mode = false;
  std::shared_ptr<std::vector<char>> decoded;
  int64_t count = 0;  // decoded value count
  ColumnBm::BlockRef ref;
  bool pool_hit = false;
  bool attached = false;  // reused another scan's load (no I/O paid here)
  /// Registry entry this payload came from (or was published to). Held while
  /// the block is being consumed so the entry stays attachable for scans
  /// trailing slightly behind — the registry itself is weak and never
  /// extends lifetimes.
  std::shared_ptr<SharedScanRegistry::Block> keepalive;
};

/// Reads (and codec-decodes) block `b` of `file` directly. Throws
/// std::runtime_error on I/O or decode failure.
Staged LoadBlockDirect(ColumnBm* bm, const std::string& file, int64_t b,
                       CodecId codec, size_t width) {
  Staged s;
  ColumnBm::BlockRef ref = bm->ReadBlock(file, b);
  s.pool_hit = ref.cache_hit;
  if (codec != CodecId::kRaw) {
    const Codec* c = Codec::ForId(codec);
    int64_t count = c->EncodedCount(ref.data, ref.bytes, width);
    auto buf = std::make_shared<std::vector<char>>(
        static_cast<size_t>(count) * width);
    int64_t got = c->Decode(ref.data, ref.bytes, buf->data(), width);
    if (got != count) {
      throw std::runtime_error("BmScanOp: decode count mismatch in " + file +
                               " block " + std::to_string(b));
    }
    s.decoded_mode = true;
    s.decoded = std::move(buf);
    s.count = count;
  } else {
    s.ref = std::move(ref);
  }
  return s;
}

/// Shared-scan load: attach to a concurrent scan's load of the same block
/// when one is in flight (or its payload still live), else own the load and
/// publish it in `bm`'s registry. An owner whose load fails propagates its
/// own error; attachers waiting on it retry with a direct load instead of
/// inheriting the owner's fate.
Staged LoadBlock(ColumnBm* bm, const std::string& file, int64_t b,
                 CodecId codec, size_t width) {
  SharedScanRegistry* reg = &bm->shared_scans();
  SharedScanRegistry::Lease lease = reg->Acquire(file, b);
  if (!lease.owner) {
    std::string err;
    if (reg->Wait(lease, &err)) {
      Staged s;
      s.decoded_mode = lease.block->decoded_mode;
      s.decoded = lease.block->decoded;
      s.count = lease.block->count;
      s.ref = lease.block->ref;  // copies the pin; payload stays valid
      s.pool_hit = true;         // served without touching the pool or disk
      s.attached = true;
      s.keepalive = lease.block;
      return s;
    }
    return LoadBlockDirect(bm, file, b, codec, width);
  }
  try {
    Staged s = LoadBlockDirect(bm, file, b, codec, width);
    lease.block->decoded_mode = s.decoded_mode;
    lease.block->decoded = s.decoded;
    lease.block->count = s.count;
    lease.block->ref = s.ref;
    lease.block->pool_hit = s.pool_hit;
    reg->Publish(lease);
    s.keepalive = lease.block;
    return s;
  } catch (const std::exception& e) {
    reg->Fail(lease, e.what());
    throw;
  }
}
}  // namespace

/// One in-flight readahead. The pool task owns a shared_ptr, so the ticket
/// (and the block pin inside it) outlives both the task and the scan,
/// whichever finishes last. The scan only ever *blocks* on a ticket whose
/// task has `started` (bounded: the task is on a thread and will finish).
/// A ticket still queued — the shared pool may be saturated with exchange
/// workers, which themselves submit these tasks — is cancelled instead:
/// the scan steals the read and the task later no-ops. Waiting on a queued
/// task would deadlock when every pool thread is a blocked worker.
struct BmScanOp::Ticket {
  std::mutex mu;
  std::condition_variable cv;
  int64_t block = 0;
  bool started = false;
  bool done = false;
  bool cancelled = false;
  bool failed = false;
  std::string error;
  Staged staged;  // the loaded payload (raw pinned ref or decoded values)
};

BmScanOp::BmScanOp(ExecContext* ctx, ColumnBm* bm, const Table& table,
                   BmScanSpec spec)
    : ctx_(ctx), bm_(bm), table_(table), spec_(std::move(spec)) {
  if (!table.frozen()) {
    throw std::invalid_argument(
        "BmScanOp: table '" + table.name() +
        "' is not frozen; ColumnBM stores immutable fragments — call "
        "Freeze() first");
  }
  // Under a pinned MVCC snapshot, deltas/deletes are handled by the scan
  // itself (delta tail from memory, deletion compaction per vector), and the
  // live counters below are moving targets owned by concurrent writers — so
  // neither check applies (nor may it even read them).
  bool mvcc = ctx->snapshots != nullptr &&
              ctx->snapshots->Find(table.name()) != nullptr;
  if (!mvcc && table.delta_rows() != 0) {
    throw std::invalid_argument(
        "BmScanOp: table '" + table.name() + "' has " +
        std::to_string(table.delta_rows()) +
        " delta rows; ColumnBM scans cover only the frozen fragment — "
        "merge the deltas (Freeze) before scanning");
  }
  if (!mvcc && table.num_deleted() != 0) {
    throw std::invalid_argument(
        "BmScanOp: table '" + table.name() + "' has " +
        std::to_string(table.num_deleted()) +
        " deleted rows; the ColumnBM block image has no deletion list — "
        "compact the table before scanning");
  }
  for (const std::string& name : spec_.cols) {
    int ci = table.ColumnIndex(name);
    const Column& col = table.column(ci);
    col_idx_.push_back(ci);
    Field f;
    f.name = name;
    f.type = col.storage_type();
    if (col.is_enum()) {
      f.dict = {true, nullptr, col.dict()->value_type(), 0};
    }
    schema_.Add(f);
  }
}

BmScanOp::~BmScanOp() { CancelPrefetches(); }

void BmScanOp::Open() {
  prefetch_ = PrefetchStats{};
  pool_hits_ = pool_misses_ = 0;
  shared_attached_ = shared_published_ = 0;
  for (int i = 0; i < kNumCodecs; i++) codec_blocks_[i] = codec_bytes_[i] = 0;

  // Under MVCC serving every bound comes from the pinned snapshot (live
  // counters move under concurrent writers; see ScanOp::Open).
  snap_ = ctx_->snapshots != nullptr ? ctx_->snapshots->Find(table_.name())
                                     : nullptr;
  frag_rows_ = snap_ != nullptr ? snap_->fragment_rows : table_.fragment_rows();

  Table::RowRange range =
      Table::MorselRange(0, frag_rows_, spec_.morsel.worker,
                         spec_.morsel.num_workers, /*align=*/1);
  pos_ = range.begin;
  end_ = range.end;
  int64_t total = snap_ != nullptr ? snap_->total_rows : frag_rows_;
  Table::RowRange dr = Table::MorselRange(
      frag_rows_, total, spec_.morsel.worker, spec_.morsel.num_workers, 1);
  delta_pos_ = dr.begin;
  delta_end_ = dr.end;
  in_delta_ = false;

  cols_.clear();
  std::vector<std::string> files;
  for (int i = 0; i < static_cast<int>(col_idx_.size()); i++) {
    const Column& col = table_.column(col_idx_[i]);
    if (col.is_enum()) {
      Field* f = const_cast<Field*>(&schema_.field(i));
      f->dict = {true, col.dict()->base(), col.dict()->value_type(),
                 col.dict()->size()};
    }
    ColState st;
    st.width = TypeWidth(col.storage_type());
    // Non-enum strings are heap pointers, not a disk format: they stay
    // resident and Next() copies them from the in-memory fragment.
    st.resident = col.type() == TypeId::kStr && !col.is_enum();
    if (st.resident) {
      cols_.push_back(std::move(st));
      continue;
    }
    st.compressed = spec_.compress && IsIntegral(col.storage_type());
    std::string suffix = ".plain";
    if (st.compressed) {
      // Pinned-codec scans get their own files so regimes don't alias.
      suffix = spec_.codec.has_value()
                   ? std::string(".") + Codec::Name(*spec_.codec)
                   : std::string(".cmp");
    }
    // Post-merge fragments get a ".v<version>" infix: a delta->fragment
    // merge rewrites the fragment in place, and block files cached under the
    // old name must never serve the new fragment's scan (or vice versa).
    int64_t ver =
        snap_ != nullptr ? snap_->fragment_version : table_.fragment_version();
    std::string vinfix = ver > 0 ? ".v" + std::to_string(ver) : "";
    st.file = table_.name() + vinfix + "." + schema_.field(i).name + suffix;
    // Store-once rendezvous: concurrent sessions opening scans over the
    // same table must not race the contains/store pair (one wins, the rest
    // see the file stored before their first read).
    bm_->EnsureStored(st.file, [&] {
      if (st.compressed) {
        bm_->StoreCompressed(st.file, col, 1 << 16, spec_.codec);
      } else {
        bm_->Store(st.file, col);
      }
    });
    st.num_blocks = bm_->NumBlocks(st.file);
    // Seek to the block containing the morsel's first row.
    int64_t row = 0, b = 0;
    while (b < st.num_blocks) {
      int64_t cnt =
          st.compressed
              ? bm_->CompressedBlockCount(st.file, b)
              : static_cast<int64_t>(bm_->BlockBytes(st.file, b) / st.width);
      if (row + cnt > range.begin) break;
      row += cnt;
      b++;
    }
    st.block = b - 1;
    st.skip = range.begin - row;
    st.rows_left = range.end - range.begin;
    files.push_back(st.file);
    cols_.push_back(std::move(st));
  }
  Status s = bm_->WriteTableManifest(table_.name(), files);
  if (!s.ok()) {
    throw std::runtime_error("BmScanOp: manifest write failed: " +
                             s.message());
  }
  batch_ = VectorBatch(schema_, ctx_->vector_size);
}

void BmScanOp::SchedulePrefetch(ColState& st) {
  int64_t next = st.block + 1;
  // No readahead past the last block this morsel actually needs.
  if (st.next != nullptr || next >= st.num_blocks || st.rows_left <= st.avail) {
    return;
  }
  auto t = std::make_shared<Ticket>();
  t->block = next;
  st.next = t;
  prefetch_.scheduled++;
  ColumnBm* bm = bm_;
  std::string file = st.file;
  // Codec looked up on the scan thread (metadata peek); kRaw payloads stay
  // zero-copy behind their pool pin, everything else decodes on the pool
  // thread so codec choice is invisible to the operators above. The load
  // goes through the shared-scan registry, so concurrent sessions'
  // prefetches of the same block collapse into one read+decode.
  CodecId codec =
      st.compressed ? bm_->BlockCodec(st.file, next) : CodecId::kRaw;
  size_t width = st.width;
  ThreadPool::Shared().Submit([t, bm, file, codec, width, next] {
    {
      std::lock_guard<std::mutex> lock(t->mu);
      if (t->cancelled) {
        t->done = true;
        t->cv.notify_all();
        return;
      }
      t->started = true;
    }
    Staged staged;
    bool failed = false;
    std::string error;
    try {
      staged = LoadBlock(bm, file, next, codec, width);
    } catch (const std::exception& e) {
      failed = true;
      error = e.what();
    }
    std::lock_guard<std::mutex> lock(t->mu);
    if (failed) {
      t->failed = true;
      t->error = error;
    } else {
      t->staged = std::move(staged);
    }
    t->done = true;
    t->cv.notify_all();
  });
}

void BmScanOp::StageBlock(ColState& st) {
  st.block++;
  X100_CHECK(st.block < st.num_blocks);
  CodecId codec =
      st.compressed ? bm_->BlockCodec(st.file, st.block) : CodecId::kRaw;
  codec_blocks_[static_cast<int>(codec)]++;
  codec_bytes_[static_cast<int>(codec)] +=
      static_cast<int64_t>(bm_->BlockBytes(st.file, st.block));
  std::shared_ptr<Ticket> t = std::move(st.next);
  if (t != nullptr) {
    X100_CHECK(t->block == st.block);
    std::unique_lock<std::mutex> lock(t->mu);
    if (t->done) {
      prefetch_.hits++;
    } else if (!t->started) {
      // The task is still queued — possibly behind exchange workers hogging
      // every shared pool thread. Steal the read: cancel the ticket (the
      // task will no-op) and fall through to the synchronous path below.
      t->cancelled = true;
      prefetch_.late++;
      lock.unlock();
      t = nullptr;
    } else {
      prefetch_.late++;
      t->cv.wait(lock, [&] { return t->done; });
    }
  }
  Staged staged;
  if (t != nullptr) {
    std::unique_lock<std::mutex> lock(t->mu);
    if (t->failed) {
      throw std::runtime_error("BmScanOp: readahead of " + st.file +
                               " block " + std::to_string(st.block) +
                               " failed: " + t->error);
    }
    staged = std::move(t->staged);
  } else {
    staged = LoadBlock(bm_, st.file, st.block, codec, st.width);
  }
  (staged.pool_hit ? pool_hits_ : pool_misses_)++;
  if (staged.attached) {
    shared_attached_++;
  } else if (staged.keepalive != nullptr) {
    shared_published_++;
  }
  st.stage_keep = staged.keepalive;
  if (staged.decoded_mode) {
    st.buf = std::move(staged.decoded);
    st.cur = st.buf->data();
    st.avail = staged.count;
    st.ref = ColumnBm::BlockRef{};
  } else {
    st.ref = std::move(staged.ref);
    st.cur = static_cast<const char*>(st.ref.data);
    st.avail = static_cast<int64_t>(st.ref.bytes / st.width);
  }
  st.off = 0;
  if (st.skip > 0) {
    X100_CHECK(st.skip < st.avail);
    st.off = st.skip;
    st.avail -= st.skip;
    st.skip = 0;
  }
  SchedulePrefetch(st);
}

bool BmScanOp::FillColumn(int c, char* dst, int64_t n) {
  ColState& st = cols_[c];
  while (n > 0) {
    if (st.avail == 0) {
      if (st.block + 1 >= st.num_blocks) return false;
      StageBlock(st);
    }
    int64_t take = std::min(n, st.avail);
    std::memcpy(dst, st.cur + static_cast<size_t>(st.off) * st.width,
                static_cast<size_t>(take) * st.width);
    dst += static_cast<size_t>(take) * st.width;
    st.off += take;
    st.avail -= take;
    st.rows_left -= take;
    n -= take;
  }
  return true;
}

int BmScanOp::CompactDeleted(int64_t lo, int64_t hi, int n) {
  const std::vector<int64_t>& dels =
      snap_ != nullptr ? *snap_->deleted : table_.deletion_list();
  auto dbegin = std::lower_bound(dels.begin(), dels.end(), lo);
  auto dend = std::lower_bound(dbegin, dels.end(), hi);
  if (dbegin == dend) return n;
  int out = n;
  for (int c = 0; c < schema_.num_fields(); c++) {
    // Batch columns are owned buffers (FillColumn memcpys into them), so
    // live rows compact in place.
    char* base = static_cast<char*>(batch_.column(c).data());
    size_t w = TypeWidth(schema_.field(c).type);
    auto d = dbegin;
    int k = 0;
    for (int64_t r = lo; r < hi; r++) {
      if (d != dend && *d == r) {
        ++d;
        continue;
      }
      if (k != r - lo) {
        std::memmove(base + static_cast<size_t>(k) * w,
                     base + static_cast<size_t>(r - lo) * w, w);
      }
      k++;
    }
    out = k;
  }
  return out;
}

VectorBatch* BmScanOp::Next() {
  ctx_->CheckCancel();
  while (true) {
    if (!in_delta_) {
      int64_t remaining = end_ - pos_;
      if (remaining <= 0) {
        if (delta_end_ > delta_pos_) {
          in_delta_ = true;
          continue;
        }
        return nullptr;
      }
      int n =
          static_cast<int>(std::min<int64_t>(ctx_->vector_size, remaining));
      int64_t lo = pos_;
      for (int c = 0; c < static_cast<int>(cols_.size()); c++) {
        char* dst = static_cast<char*>(batch_.column(c).data());
        if (cols_[c].resident) {
          // Fragment rows below the bound taken at Open() are immutable
          // (the same read ScanOp does under a pinned snapshot).
          const char* src =
              static_cast<const char*>(table_.column(col_idx_[c]).raw());
          size_t w = cols_[c].width;
          std::memcpy(dst, src + static_cast<size_t>(lo) * w,
                      static_cast<size_t>(n) * w);
          continue;
        }
        bool ok = FillColumn(c, dst, n);
        X100_CHECK(ok);
      }
      pos_ += n;
      int count = CompactDeleted(lo, lo + n, n);
      if (count == 0) continue;  // fully deleted window; try the next one
      batch_.set_count(count);
      batch_.ClearSel();
      return &batch_;
    }
    // Snapshot delta tail: the uncompressed-code delta columns live in
    // memory only (never block-stored); rows below the snapshot's high-water
    // mark are immutable, so plain memcpys off the pre-reserved buffers are
    // race-free.
    int64_t remaining = delta_end_ - delta_pos_;
    if (remaining <= 0) return nullptr;
    int n = static_cast<int>(std::min<int64_t>(ctx_->vector_size, remaining));
    int64_t lo = delta_pos_;
    for (int c = 0; c < static_cast<int>(cols_.size()); c++) {
      const Column& col = table_.delta_column(col_idx_[c]);
      size_t w = TypeWidth(schema_.field(c).type);
      const char* base = static_cast<const char*>(col.raw()) +
                         static_cast<size_t>(lo - frag_rows_) * w;
      std::memcpy(batch_.column(c).data(), base, static_cast<size_t>(n) * w);
    }
    delta_pos_ += n;
    int count = CompactDeleted(lo, lo + n, n);
    if (count == 0) continue;
    batch_.set_count(count);
    batch_.ClearSel();
    return &batch_;
  }
}

void BmScanOp::CancelPrefetches() {
  for (ColState& st : cols_) {
    if (st.next == nullptr) continue;
    std::unique_lock<std::mutex> lock(st.next->mu);
    st.next->cancelled = true;
    // Wait out a *started* task: it holds a ColumnBm pointer, and callers
    // may tear the buffer manager down right after Close(). A still-queued
    // task only touches the ticket (which it co-owns) before checking the
    // flag, so it is safe to leave behind — and waiting for it could
    // deadlock if no pool thread ever frees up to run it.
    if (st.next->started) {
      st.next->cv.wait(lock, [&] { return st.next->done; });
    }
    lock.unlock();
    st.next.reset();
  }
}

void BmScanOp::Close() {
  CancelPrefetches();
  for (ColState& st : cols_) {
    st.ref = ColumnBm::BlockRef{};  // drop pool pins
    st.buf.reset();
    st.stage_keep.reset();  // let the registry entry expire
    st.cur = nullptr;
  }
  if (trace_node_ != nullptr) {
    trace_node_->AddCounter("prefetch.scheduled",
                            static_cast<uint64_t>(prefetch_.scheduled));
    trace_node_->AddCounter("prefetch.hits",
                            static_cast<uint64_t>(prefetch_.hits));
    trace_node_->AddCounter("prefetch.late",
                            static_cast<uint64_t>(prefetch_.late));
    trace_node_->AddCounter("pool.hits", static_cast<uint64_t>(pool_hits_));
    trace_node_->AddCounter("pool.misses", static_cast<uint64_t>(pool_misses_));
    if (shared_attached_ > 0) {
      trace_node_->AddCounter("shared.attached",
                              static_cast<uint64_t>(shared_attached_));
    }
    if (shared_published_ > 0) {
      trace_node_->AddCounter("shared.published",
                              static_cast<uint64_t>(shared_published_));
    }
    for (int i = 0; i < kNumCodecs; i++) {
      if (codec_blocks_[i] == 0) continue;
      std::string name = Codec::All()[i]->name();
      trace_node_->AddCounter("codec." + name + ".blocks",
                              static_cast<uint64_t>(codec_blocks_[i]));
      trace_node_->AddCounter("codec." + name + ".bytes",
                              static_cast<uint64_t>(codec_bytes_[i]));
    }
  }
  PrefetchMetrics::Get().scheduled->Add(prefetch_.scheduled);
  PrefetchMetrics::Get().hits->Add(prefetch_.hits);
  PrefetchMetrics::Get().late->Add(prefetch_.late);
  // Zero so a double Close (or reopen without Close) never double-publishes.
  prefetch_ = PrefetchStats{};
  pool_hits_ = pool_misses_ = 0;
  shared_attached_ = shared_published_ = 0;
  for (int i = 0; i < kNumCodecs; i++) codec_blocks_[i] = codec_bytes_[i] = 0;
}

}  // namespace x100
