#ifndef X100_STORAGE_COLUMNBM_H_
#define X100_STORAGE_COLUMNBM_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/config.h"
#include "storage/buffer_pool.h"
#include "storage/column.h"
#include "storage/disk_store.h"

namespace x100 {

class SharedScanRegistry;

/// ColumnBM buffer manager (§4, "Disk"; §4.3).
///
/// Where MonetDB stores each BAT in one continuous file, ColumnBM partitions
/// column data into large (>1MB) chunks and serves them through a buffer pool
/// geared to sequential access. Blocks always live in checksummed chunk files
/// (storage/disk_store.h) and are read through a bounded BufferPool
/// (storage/buffer_pool.h, budget env X100_BM_BYTES), so every scan touches
/// real file I/O and eviction.
///
/// The chunk files go under Options::disk_dir when the caller names one (the
/// directory is the caller's and is never removed). With an empty disk_dir
/// the instance makes its own scratch directory under the system temp
/// directory and removes it, files and all, on destruction.
///
/// Thread-safety: Store/StoreCompressed must not race with reads of the same
/// file (scans store at Open, which exchange runs serially); everything else
/// — ReadBlock/ReadDecompressed/metadata from any number of threads — is
/// safe, which is what morsel-parallel scans and async prefetch require.
class ColumnBm {
 public:
  struct Options {
    size_t block_size = kColumnBmBlockSize;
    /// Root of the chunk files; empty: a private scratch directory.
    std::string disk_dir;
    /// Buffer-pool budget in bytes; <= 0 reads env X100_BM_BYTES.
    int64_t pool_bytes = 0;
  };

  /// Default options: a private scratch directory, the env pool budget.
  ColumnBm();
  /// Throws std::runtime_error when the scratch directory cannot be made.
  explicit ColumnBm(const Options& opts);
  /// Closes the pool and the chunk files, then removes the scratch
  /// directory if this instance made it.
  ~ColumnBm();

  ColumnBm(const ColumnBm&) = delete;
  ColumnBm& operator=(const ColumnBm&) = delete;

  BufferPool* pool() { return pool_.get(); }
  /// Directory holding the chunk files (Options::disk_dir or the scratch).
  const std::string& dir() const { return dir_; }

  /// Copies a column's physical data into chunked storage under `file`.
  void Store(const std::string& file, const Column& col);

  /// Store-once rendezvous for concurrent scans of the same frozen column:
  /// runs `store` (which must Store/StoreCompressed exactly `file`) iff the
  /// file is absent, serializing racing callers so one stores and the rest
  /// see it stored. Without this, two sessions opening the same table race
  /// the Contains/Store pair and concurrently rewrite the file under each
  /// other's reads.
  void EnsureStored(const std::string& file,
                    const std::function<void()>& store);

  /// Registry letting concurrent scans of this instance attach to each
  /// other's in-flight block loads (storage/shared_scan.h).
  SharedScanRegistry& shared_scans() { return *shared_; }

  /// Stores an integral column compressed (§4.3 lightweight compression) in
  /// fixed-count blocks. Each block gets the cheapest codec by sampled
  /// trial-encode (FOR / PDICT / RLE / PFOR-delta, falling back to raw when
  /// nothing beats verbatim bytes); pass `force` to pin one codec for every
  /// block (benchmarks and bit-identity tests). Decompression happens at
  /// read time on the RAM->cache boundary. Returns the stored byte size.
  size_t StoreCompressed(const std::string& file, const Column& col,
                         int64_t values_per_block = 1 << 16,
                         std::optional<CodecId> force = std::nullopt);

  /// Reads block `b` of a compressed file, decompressing into `out`
  /// (caller provides >= values_per_block * width bytes). Returns the value
  /// count. Accounts only the *compressed* bytes as I/O.
  int64_t ReadDecompressed(const std::string& file, int64_t b, void* out);

  /// Total stored bytes of `file` (compressed size for compressed files).
  int64_t FileBytes(const std::string& file) const;

  /// Number of blocks in `file`.
  int64_t NumBlocks(const std::string& file) const;

  bool Contains(const std::string& file) const;

  /// Decoded value count of compressed block `b` (header/footer peek; no
  /// I/O accounting — callers size their decode buffer with this).
  int64_t CompressedBlockCount(const std::string& file, int64_t b) const;

  /// Stored byte size of block `b` (no I/O accounting).
  size_t BlockBytes(const std::string& file, int64_t b) const;

  /// Codec block `b` of a compressed file was stored with (kRaw for files
  /// written by Store). No I/O accounting.
  CodecId BlockCodec(const std::string& file, int64_t b) const;

  /// Returns block `b` (pointer + byte count), accounting the read. The
  /// payload stays valid for the BlockRef's lifetime: the ref carries the
  /// buffer-pool pin, so callers that stage a block across calls must keep
  /// the ref alive. Throws std::runtime_error on I/O or checksum failure.
  struct BlockRef {
    const void* data = nullptr;
    size_t bytes = 0;
    /// True when the pool already held the block; false when the read went
    /// to the chunk file (pool miss).
    bool cache_hit = true;
    BufferPool::Pin pin;
  };
  BlockRef ReadBlock(const std::string& file, int64_t b);

  /// Writes the per-table manifest listing `files` (all must be stored) via
  /// the DiskStore.
  Status WriteTableManifest(const std::string& table,
                            const std::vector<std::string>& files);

  // -- accounting --

  /// Per-instance I/O accounting: logical block reads and bytes served
  /// through the interface (every ReadBlock/ReadDecompressed, cached or
  /// not), plus nanoseconds stalled in the simulated-bandwidth throttle.
  /// Physical disk traffic is the buffer pool's read_bytes counter.
  struct Stats {
    int64_t blocks_read = 0;
    int64_t bytes_read = 0;
    int64_t stall_nanos = 0;
  };
  Stats stats() const {
    return {blocks_read_.load(std::memory_order_relaxed),
            bytes_read_.load(std::memory_order_relaxed),
            stall_nanos_.load(std::memory_order_relaxed)};
  }
  int64_t blocks_read() const {
    return blocks_read_.load(std::memory_order_relaxed);
  }
  int64_t bytes_read() const {
    return bytes_read_.load(std::memory_order_relaxed);
  }
  int64_t stall_nanos() const {
    return stall_nanos_.load(std::memory_order_relaxed);
  }
  void ResetStats() {
    blocks_read_.store(0, std::memory_order_relaxed);
    bytes_read_.store(0, std::memory_order_relaxed);
    stall_nanos_.store(0, std::memory_order_relaxed);
  }

  /// If >0, every logical block read (ReadBlock/ReadDecompressed, pool hit
  /// or miss) busy-waits to cap throughput at this many bytes/sec,
  /// simulating an I/O-bound substrate on hosts whose page cache makes the
  /// chunk files nearly free to read.
  void set_simulated_bandwidth(double bytes_per_sec) {
    simulated_bandwidth_ = bytes_per_sec;
  }

  size_t block_size() const { return block_size_; }

 private:
  void AccountRead(size_t bytes);
  void Throttle(size_t bytes);
  /// Cached footer metadata for `file` (loads on first use).
  const DiskStore::FileMeta& MetaFor(const std::string& file) const;

  size_t block_size_;
  std::string dir_;
  bool owns_dir_ = false;  // dir_ is this instance's scratch directory

  // Serializes EnsureStored (and manifest writes) across sessions. Ordered
  // outermost: never taken while meta_mu_ is held.
  std::mutex store_mu_;
  std::unique_ptr<SharedScanRegistry> shared_;

  std::unique_ptr<DiskStore> store_;
  std::unique_ptr<BufferPool> pool_;
  mutable std::mutex meta_mu_;
  mutable std::map<std::string, DiskStore::FileMeta> meta_;

  std::atomic<int64_t> blocks_read_{0};
  std::atomic<int64_t> bytes_read_{0};
  std::atomic<int64_t> stall_nanos_{0};
  double simulated_bandwidth_ = 0;
};

}  // namespace x100

#endif  // X100_STORAGE_COLUMNBM_H_
