#include "storage/columnbm.h"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <stdexcept>
#include <system_error>

#include "common/metrics.h"
#include "common/profiling.h"
#include "common/status.h"
#include "storage/compression.h"
#include "storage/shared_scan.h"

namespace x100 {

namespace {
// Registry mirrors of the per-instance stats, so BENCH_*.json snapshots see
// buffer-manager activity without threading ColumnBm pointers around.
struct BmMetrics {
  Counter* blocks_read;
  Counter* bytes_read;
  Counter* stall_nanos;
  static BmMetrics& Get() {
    static BmMetrics m = {
        MetricsRegistry::Get().GetCounter("columnbm.blocks_read"),
        MetricsRegistry::Get().GetCounter("columnbm.bytes_read"),
        MetricsRegistry::Get().GetCounter("columnbm.stall_nanos")};
    return m;
  }
};

// Per-codec freeze-path accounting (bm.codec.<name>.blocks/bytes): how many
// blocks each codec won at StoreCompressed time and their stored sizes.
struct CodecMetrics {
  Counter* blocks[kNumCodecs];
  Counter* bytes[kNumCodecs];
  static CodecMetrics& Get() {
    static CodecMetrics m = [] {
      CodecMetrics cm;
      for (int i = 0; i < kNumCodecs; i++) {
        std::string name = Codec::All()[i]->name();
        cm.blocks[i] =
            MetricsRegistry::Get().GetCounter("bm.codec." + name + ".blocks");
        cm.bytes[i] =
            MetricsRegistry::Get().GetCounter("bm.codec." + name + ".bytes");
      }
      return cm;
    }();
    return m;
  }
  void Account(CodecId codec, size_t stored_bytes) {
    int i = static_cast<int>(codec);
    blocks[i]->Inc();
    bytes[i]->Add(stored_bytes);
  }
};

[[noreturn]] void ThrowIo(const Status& s) {
  throw std::runtime_error("ColumnBm: " + s.message());
}
}  // namespace

ColumnBm::ColumnBm() : ColumnBm(Options{}) {}

ColumnBm::ColumnBm(const Options& opts)
    : block_size_(opts.block_size),
      dir_(opts.disk_dir),
      shared_(std::make_unique<SharedScanRegistry>()) {
  if (dir_.empty()) {
    std::string tmpl =
        (std::filesystem::temp_directory_path() / "x100_bm_XXXXXX").string();
    if (mkdtemp(tmpl.data()) == nullptr) {
      throw std::runtime_error("ColumnBm: cannot create scratch directory " +
                               tmpl + ": " + std::strerror(errno));
    }
    dir_ = tmpl;
    owns_dir_ = true;
  }
  store_ = std::make_unique<DiskStore>(dir_);
  pool_ = std::make_unique<BufferPool>(opts.pool_bytes);
}

void ColumnBm::EnsureStored(const std::string& file,
                            const std::function<void()>& store) {
  std::lock_guard<std::mutex> lock(store_mu_);
  if (Contains(file)) return;
  store();
}

ColumnBm::~ColumnBm() {
  // Frames and open chunk files go first, then the files themselves.
  pool_.reset();
  store_.reset();
  if (owns_dir_) {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }
}

void ColumnBm::Store(const std::string& file, const Column& col) {
  size_t total = col.bytes();
  const char* src = static_cast<const char*>(col.raw());
  Status s;
  std::unique_ptr<DiskStore::Writer> w =
      store_->NewFile(file, /*compressed=*/false, /*value_width=*/0, &s);
  if (w == nullptr) ThrowIo(s);
  for (size_t off = 0; off < total; off += block_size_) {
    size_t n = std::min(block_size_, total - off);
    s = w->AppendBlock(src + off, n, /*value_count=*/0);
    if (!s.ok()) ThrowIo(s);
  }
  s = w->Finish();
  if (!s.ok()) ThrowIo(s);
  std::lock_guard<std::mutex> lock(meta_mu_);
  meta_.erase(file);
  pool_->InvalidatePrefix(file + ":");
}

namespace {
// One block's freeze-path encode: sampled trial-encode selection unless the
// caller pinned a codec. Empty blocks keep the header-only FOR form so the
// value count stays self-describing.
size_t EncodeBlock(const char* src, int64_t n, size_t w,
                   std::optional<CodecId> force, Buffer* enc,
                   CodecId* chosen) {
  if (force.has_value() && n > 0) {
    *chosen = *force;
    return Codec::ForId(*force)->Encode(src, n, w, enc);
  }
  return EncodeBestCodec(src, n, w, enc, chosen);
}
}  // namespace

size_t ColumnBm::StoreCompressed(const std::string& file, const Column& col,
                                 int64_t values_per_block,
                                 std::optional<CodecId> force) {
  X100_CHECK(IsIntegral(col.storage_type()) || col.is_enum());
  size_t w = TypeWidth(col.storage_type());
  const char* src = static_cast<const char*>(col.raw());
  size_t total = 0;
  Status s;
  std::unique_ptr<DiskStore::Writer> wr =
      store_->NewFile(file, /*compressed=*/true, w, &s);
  if (wr == nullptr) ThrowIo(s);
  for (int64_t off = 0; off == 0 || off < col.size(); off += values_per_block) {
    int64_t n = std::min<int64_t>(values_per_block, col.size() - off);
    Buffer enc;
    CodecId chosen;
    size_t bytes = EncodeBlock(src + static_cast<size_t>(off) * w, n, w,
                               force, &enc, &chosen);
    s = wr->AppendBlock(enc.data(), bytes, n, chosen);
    if (!s.ok()) ThrowIo(s);
    CodecMetrics::Get().Account(chosen, bytes);
    total += bytes;
  }
  s = wr->Finish();
  if (!s.ok()) ThrowIo(s);
  std::lock_guard<std::mutex> lock(meta_mu_);
  meta_.erase(file);
  pool_->InvalidatePrefix(file + ":");
  return total;
}

bool ColumnBm::Contains(const std::string& file) const {
  {
    std::lock_guard<std::mutex> lock(meta_mu_);
    if (meta_.count(file) > 0) return true;
  }
  return store_->Exists(file);
}

const DiskStore::FileMeta& ColumnBm::MetaFor(const std::string& file) const {
  std::lock_guard<std::mutex> lock(meta_mu_);
  auto it = meta_.find(file);
  if (it != meta_.end()) return it->second;
  DiskStore::FileMeta meta;
  Status s = store_->OpenMeta(file, &meta);
  if (!s.ok()) ThrowIo(s);
  return meta_.emplace(file, std::move(meta)).first->second;
}

int64_t ColumnBm::NumBlocks(const std::string& file) const {
  return static_cast<int64_t>(MetaFor(file).blocks.size());
}

int64_t ColumnBm::FileBytes(const std::string& file) const {
  return static_cast<int64_t>(MetaFor(file).payload_bytes);
}

size_t ColumnBm::BlockBytes(const std::string& file, int64_t b) const {
  const DiskStore::FileMeta& meta = MetaFor(file);
  X100_CHECK(b >= 0 && b < static_cast<int64_t>(meta.blocks.size()));
  return meta.blocks[static_cast<size_t>(b)].bytes;
}

int64_t ColumnBm::CompressedBlockCount(const std::string& file,
                                       int64_t b) const {
  const DiskStore::FileMeta& meta = MetaFor(file);
  X100_CHECK(meta.compressed);
  X100_CHECK(b >= 0 && b < static_cast<int64_t>(meta.blocks.size()));
  return meta.blocks[static_cast<size_t>(b)].value_count;
}

CodecId ColumnBm::BlockCodec(const std::string& file, int64_t b) const {
  const DiskStore::FileMeta& meta = MetaFor(file);
  X100_CHECK(b >= 0 && b < static_cast<int64_t>(meta.blocks.size()));
  return meta.blocks[static_cast<size_t>(b)].codec;
}

void ColumnBm::AccountRead(size_t bytes) {
  blocks_read_.fetch_add(1, std::memory_order_relaxed);
  bytes_read_.fetch_add(static_cast<int64_t>(bytes),
                        std::memory_order_relaxed);
  BmMetrics::Get().blocks_read->Inc();
  BmMetrics::Get().bytes_read->Add(bytes);
}

void ColumnBm::Throttle(size_t bytes) {
  if (simulated_bandwidth_ <= 0) return;
  double secs = static_cast<double>(bytes) / simulated_bandwidth_;
  uint64_t start = NowNanos();
  uint64_t wait = static_cast<uint64_t>(secs * 1e9);
  while (NowNanos() - start < wait) {
  }
  uint64_t stalled = NowNanos() - start;
  stall_nanos_.fetch_add(static_cast<int64_t>(stalled),
                         std::memory_order_relaxed);
  BmMetrics::Get().stall_nanos->Add(stalled);
}

ColumnBm::BlockRef ColumnBm::ReadBlock(const std::string& file, int64_t b) {
  const DiskStore::FileMeta& meta = MetaFor(file);
  X100_CHECK(b >= 0 && b < static_cast<int64_t>(meta.blocks.size()));
  size_t bytes = meta.blocks[static_cast<size_t>(b)].bytes;
  BufferPool::Pin pin;
  bool hit = false;
  Status s = pool_->GetOrLoad(
      file + ":" + std::to_string(b), bytes,
      [&](void* dst) {
        return store_->ReadBlock(file, meta, static_cast<size_t>(b), dst);
      },
      &pin, &hit);
  if (!s.ok()) ThrowIo(s);
  AccountRead(bytes);
  Throttle(bytes);
  BlockRef ref;
  ref.data = pin.data();
  ref.bytes = bytes;
  ref.cache_hit = hit;
  ref.pin = std::move(pin);
  return ref;
}

int64_t ColumnBm::ReadDecompressed(const std::string& file, int64_t b,
                                   void* out) {
  const DiskStore::FileMeta& meta = MetaFor(file);
  X100_CHECK(meta.compressed);
  X100_CHECK(b >= 0 && b < static_cast<int64_t>(meta.blocks.size()));
  CodecId codec = meta.blocks[static_cast<size_t>(b)].codec;
  // Only the compressed bytes cross the I/O boundary; decompression is CPU
  // work on the cache side (§4 "Cache").
  BlockRef ref = ReadBlock(file, b);
  return Codec::ForId(codec)->Decode(ref.data, ref.bytes, out,
                                     meta.value_width);
}

Status ColumnBm::WriteTableManifest(const std::string& table,
                                    const std::vector<std::string>& files) {
  // Concurrent sessions opening the same table each write the manifest;
  // serialize so the file is never two writers' interleaving.
  std::lock_guard<std::mutex> lock(store_mu_);
  std::vector<DiskStore::ManifestEntry> entries;
  entries.reserve(files.size());
  for (const std::string& file : files) {
    const DiskStore::FileMeta& meta = MetaFor(file);
    DiskStore::ManifestEntry e;
    e.file = file;
    e.payload_bytes = meta.payload_bytes;
    e.num_blocks = meta.blocks.size();
    std::vector<uint32_t> crcs;
    crcs.reserve(meta.blocks.size());
    for (const DiskStore::BlockMeta& b : meta.blocks) crcs.push_back(b.crc);
    e.crc = Crc32(crcs.data(), crcs.size() * sizeof(uint32_t));
    e.compressed = meta.compressed;
    entries.push_back(std::move(e));
  }
  return store_->WriteManifest(table, entries);
}

}  // namespace x100
