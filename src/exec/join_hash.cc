#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "common/hash.h"
#include "common/metrics.h"
#include "exec/join.h"
#include "exec/join_internal.h"

namespace x100 {

using join_internal::BindJoinColumns;
using join_internal::DrainedStore;
using join_internal::GatherByPos;
using join_internal::GatherByRow;

// ---- HashJoinOp -------------------------------------------------------------

struct HashJoinOp::Impl {
  explicit Impl(HashImpl hash_impl) : table(hash_impl) {}

  DrainedStore store;  // build keys first, then build outputs
  size_t num_keys = 0;
  // Shared vectorized table: distinct key -> head build row. Duplicate rows
  // chain through next_dup (head = latest row, so a chain walk visits rows
  // in reverse insertion order — the same emission order the old push-front
  // chained table produced, for any HashImpl).
  HashTable table;
  HashTable::Probe probe;
  std::vector<uint32_t> next_dup;  // per build row; kNone ends the chain
  std::vector<uint64_t> row_hash;

  // Probe-side hash pipeline.
  struct HashStep {
    const MapPrimitive* prim;
    int col;
    PrimitiveStats* stats;
    size_t bytes_per_tuple;
  };
  std::vector<HashStep> hash_steps;
  std::vector<int> probe_key_cols;
  std::vector<size_t> probe_key_widths;
  std::vector<bool> key_is_str;
  Vector hash_a, hash_b;

  // Output machinery.
  std::vector<int> probe_out_cols;
  std::vector<size_t> probe_out_widths;
  int num_probe_out = 0;
  std::vector<size_t> build_out_store;  // store column index per build output

  std::vector<int> pend_pos;
  std::vector<int64_t> pend_row;
  size_t pend_consumed = 0;

  VectorBatch* cur_probe = nullptr;
  bool probe_done = false;
  bool built = false;
  VectorBatch out;
  PrimitiveStats* op_stats = nullptr;

  // Registry metrics (hit rate = probe_hits / probe_tuples).
  Histogram* m_build_rows = nullptr;
  Counter* m_probe_tuples = nullptr;
  Counter* m_probe_hits = nullptr;

  bool KeysEqual(const VectorBatch* batch, int pos, size_t row) const {
    for (size_t c = 0; c < num_keys; c++) {
      const char* a =
          static_cast<const char*>(batch->column(probe_key_cols[c]).data()) +
          static_cast<size_t>(pos) * probe_key_widths[c];
      const char* b = store.ColData(c) + row * store.widths[c];
      if (key_is_str[c]) {
        if (std::strcmp(*reinterpret_cast<const char* const*>(a),
                        *reinterpret_cast<const char* const*>(b)) != 0) {
          return false;
        }
      } else {
        X100_CHECK(probe_key_widths[c] == store.widths[c]);
        if (std::memcmp(a, b, store.widths[c]) != 0) return false;
      }
    }
    return true;
  }

  bool BuildKeysEqual(size_t a, size_t b) const {
    for (size_t c = 0; c < num_keys; c++) {
      const char* pa = store.ColData(c) + a * store.widths[c];
      const char* pb = store.ColData(c) + b * store.widths[c];
      if (key_is_str[c]) {
        if (std::strcmp(*reinterpret_cast<const char* const*>(pa),
                        *reinterpret_cast<const char* const*>(pb)) != 0) {
          return false;
        }
      } else if (std::memcmp(pa, pb, store.widths[c]) != 0) {
        return false;
      }
    }
    return true;
  }
};

HashJoinOp::HashJoinOp(ExecContext* ctx, std::unique_ptr<Operator> probe,
                       std::unique_ptr<Operator> build, JoinSpec spec)
    : ctx_(ctx),
      probe_(std::move(probe)),
      build_(std::move(build)),
      probe_keys_(std::move(spec.probe_keys)),
      build_keys_(std::move(spec.build_keys)),
      probe_out_(std::move(spec.probe_out)),
      build_out_(std::move(spec.build_out)),
      type_(spec.type) {
  if ((type_ == JoinType::kSemi || type_ == JoinType::kAnti) &&
      !build_out_.empty()) {
    throw std::invalid_argument(std::string("bind error in ") +
                                JoinLabel(type_) +
                                ": semi/anti joins emit no build columns");
  }
  BindJoinColumns(JoinLabel(type_), probe_->schema(), build_->schema(),
                  probe_keys_, build_keys_, probe_out_, build_out_, &schema_);
}

HashJoinOp::~HashJoinOp() = default;

void HashJoinOp::Open() {
  probe_->Open();
  build_->Open();
  impl_ = std::make_unique<Impl>(ctx_->hash_impl);
  Impl& im = *impl_;

  // Refresh output fields (children resolve dictionary bases in Open).
  {
    int fi = 0;
    for (const std::string& name : probe_out_) {
      *const_cast<Field*>(&schema_.field(fi++)) =
          probe_->schema().field(probe_->schema().Find(name));
    }
    for (const std::string& name : build_out_) {
      *const_cast<Field*>(&schema_.field(fi++)) =
          build_->schema().field(build_->schema().Find(name));
    }
  }

  // Store layout: keys then outputs (outputs may repeat keys; simplicity
  // beats the few duplicated bytes).
  std::vector<std::string> store_cols = build_keys_;
  store_cols.insert(store_cols.end(), build_out_.begin(), build_out_.end());
  im.store.Init(build_->schema(), store_cols);
  im.num_keys = build_keys_.size();
  for (size_t i = 0; i < build_out_.size(); i++) {
    im.build_out_store.push_back(im.num_keys + i);
  }

  const Schema& ps = probe_->schema();
  for (size_t c = 0; c < probe_keys_.size(); c++) {
    int ci = BindColumn(ps, probe_keys_[c], JoinLabel(type_));
    im.probe_key_cols.push_back(ci);
    im.probe_key_widths.push_back(TypeWidth(ps.field(ci).type));
    // Keys are compared raw; undecoded enum codes only work if both sides
    // share the dictionary object — plans join on plain key columns, so
    // require value (non-code) types of one physical type on both sides.
    const Field& pf = ps.field(ci);
    const Field& bf = im.store.schema.field(c);
    const char* tn = pf.type == TypeId::kDate ? "i32" : TypeName(pf.type);
    const char* btn = bf.type == TypeId::kDate ? "i32" : TypeName(bf.type);
    if (pf.dict.valid() || bf.dict.valid() || std::strcmp(tn, btn) != 0) {
      throw std::invalid_argument(
          std::string("bind error in ") + JoinLabel(type_) + ": keys '" +
          probe_keys_[c] + "' and '" + build_keys_[c] +
          "' must be plain (not enum-coded) values of one type");
    }
    im.key_is_str.push_back(pf.type == TypeId::kStr);
    std::string name =
        std::string(c == 0 ? "map_hash_" : "map_rehash_") + tn + "_col";
    const MapPrimitive* prim = PrimitiveRegistry::Get().FindMap(name);
    if (prim == nullptr) {
      throw std::invalid_argument(std::string("bind error in ") +
                                  JoinLabel(type_) + ": no primitive '" +
                                  name + "' for key '" + probe_keys_[c] +
                                  "'");
    }
    im.hash_steps.push_back(
        {prim, ci, ctx_->profiler ? ctx_->profiler->GetStats(name) : nullptr,
         TypeWidth(ps.field(ci).type) + 8});
  }

  for (const std::string& name : probe_out_) {
    int ci = ps.Find(name);
    im.probe_out_cols.push_back(ci);
    im.probe_out_widths.push_back(TypeWidth(ps.field(ci).type));
  }
  im.num_probe_out = static_cast<int>(probe_out_.size());

  im.hash_a.Allocate(TypeId::kI64, ctx_->vector_size);
  im.hash_b.Allocate(TypeId::kI64, ctx_->vector_size);
  im.out = VectorBatch(schema_, ctx_->vector_size);
  im.op_stats = ctx_->profiler ? ctx_->profiler->GetStats("HashJoin") : nullptr;
  MetricsRegistry& reg = MetricsRegistry::Get();
  im.m_build_rows = reg.GetHistogram("join.hash.build_rows");
  im.m_probe_tuples = reg.GetCounter("join.hash.probe_tuples");
  im.m_probe_hits = reg.GetCounter("join.hash.probe_hits");
}

void HashJoinOp::BuildSide() {
  Impl& im = *impl_;
  while (VectorBatch* batch = build_->Next()) {
    im.store.Append(batch);
  }
  // Hash all build rows, then find-or-chain them batch-at-a-time. The apply
  // pass runs in row order after each probe pass drains, so duplicate chains
  // form in insertion order regardless of which lanes resolved vectorized
  // and which went through the scalar InsertMiss path.
  im.row_hash.resize(im.store.rows);
  for (size_t r = 0; r < im.store.rows; r++) {
    uint64_t h = 0;
    for (size_t c = 0; c < im.num_keys; c++) {
      const char* p = im.store.ColData(c) + r * im.store.widths[c];
      uint64_t hv;
      if (im.key_is_str[c]) {
        hv = HashStr(*reinterpret_cast<const char* const*>(p));
      } else {
        uint64_t raw = 0;
        std::memcpy(&raw, p, im.store.widths[c]);
        hv = HashU64(raw);
      }
      h = c == 0 ? hv : HashCombine(h, hv);
    }
    im.row_hash[r] = h;
  }
  im.next_dup.assign(im.store.rows, HashTable::kNone);
  im.table.Reset(im.store.rows);
  size_t chunk = static_cast<size_t>(ctx_->vector_size);
  for (size_t base = 0; base < im.store.rows; base += chunk) {
    int n = static_cast<int>(std::min(chunk, im.store.rows - base));
    im.table.Reserve(static_cast<size_t>(n));
    im.table.ProbeBegin(&im.probe, im.row_hash.data() + base, nullptr, n);
    while (int nc = im.table.ProbeRound(&im.probe)) {
      for (int k = 0; k < nc; k++) {
        size_t row = base + static_cast<size_t>(im.probe.cand_lane(k));
        if (im.BuildKeysEqual(row,
                              im.table.EntryValue(im.probe.cand_entry(k)))) {
          im.table.Accept(&im.probe, k);
        } else {
          im.table.Reject(&im.probe, k);
        }
      }
    }
    for (int j = 0; j < n; j++) {
      uint32_t r = static_cast<uint32_t>(base) + static_cast<uint32_t>(j);
      uint32_t e = im.probe.result_entry(j);
      if (e == HashTable::kNone) {
        uint32_t cand = HashTable::kNone;
        for (;;) {
          if (im.table.InsertMiss(&im.probe, j, r, &cand)) break;
          if (im.BuildKeysEqual(r, im.table.EntryValue(cand))) {
            e = cand;
            break;
          }
        }
      }
      if (e != HashTable::kNone) {
        // Same key as the entry's current head: push-front onto the chain.
        // EntryValue is re-read here (not the probe-time result) because an
        // earlier row of this batch may already have moved the head.
        im.next_dup[r] = im.table.EntryValue(e);
        im.table.SetEntryValue(e, r);
      }
    }
  }
  im.m_build_rows->Record(im.store.rows);
  im.built = true;
}

void HashJoinOp::ProcessProbeBatch(VectorBatch* batch) {
  Impl& im = *impl_;
  int n = batch->sel_count();
  const int* sel = batch->sel();

  uint64_t* cur = im.hash_a.Data<uint64_t>();
  uint64_t* other = im.hash_b.Data<uint64_t>();
  for (size_t s = 0; s < im.hash_steps.size(); s++) {
    Impl::HashStep& hs = im.hash_steps[s];
    const void* args[2] = {batch->column(hs.col).data(), cur};
    void* res = s == 0 ? cur : other;
    if (hs.stats) {
      ScopedCycles cyc(hs.stats);
      hs.prim->fn(n, res, args, sel);
      hs.stats->calls++;
      hs.stats->tuples += static_cast<uint64_t>(n);
      hs.stats->bytes += static_cast<uint64_t>(n) * hs.bytes_per_tuple;
    } else {
      hs.prim->fn(n, res, args, sel);
    }
    if (s != 0) std::swap(cur, other);
  }

  uint64_t t0 = im.op_stats ? ReadCycleCounter() : 0;
  uint64_t hits = 0;
  // Vectorized probe-all: every lane advances per round, candidates come
  // back as a selection vector for key verification; match emission then
  // runs lane-order so output order matches the scalar chain walk.
  im.table.ProbeBegin(&im.probe, cur, sel, n);
  while (int nc = im.table.ProbeRound(&im.probe)) {
    for (int k = 0; k < nc; k++) {
      int pos = sel ? sel[im.probe.cand_lane(k)] : im.probe.cand_lane(k);
      if (im.KeysEqual(batch, pos, im.table.EntryValue(im.probe.cand_entry(k)))) {
        im.table.Accept(&im.probe, k);
      } else {
        im.table.Reject(&im.probe, k);
      }
    }
  }
  for (int j = 0; j < n; j++) {
    int i = sel ? sel[j] : j;
    uint32_t head = im.probe.result(j);
    if (head != HashTable::kNone) {
      hits++;
      if (type_ == JoinType::kInner || type_ == JoinType::kLeftOuterDefault) {
        for (uint32_t r = head; r != HashTable::kNone; r = im.next_dup[r]) {
          im.pend_pos.push_back(i);
          im.pend_row.push_back(static_cast<int64_t>(r));
        }
      } else if (type_ == JoinType::kSemi) {
        im.pend_pos.push_back(i);
        im.pend_row.push_back(-1);
      }
    } else if (type_ == JoinType::kAnti ||
               type_ == JoinType::kLeftOuterDefault) {
      im.pend_pos.push_back(i);
      im.pend_row.push_back(-1);
    }
  }
  im.m_probe_tuples->Add(static_cast<uint64_t>(n));
  im.m_probe_hits->Add(hits);
  if (im.op_stats) {
    im.op_stats->calls++;
    im.op_stats->tuples += static_cast<uint64_t>(n);
    im.op_stats->cycles += ReadCycleCounter() - t0;
  }
}

VectorBatch* HashJoinOp::Next() {
  Impl& im = *impl_;
  if (!im.built) BuildSide();
  while (true) {
    size_t avail = im.pend_pos.size() - im.pend_consumed;
    if (avail == 0) {
      im.pend_pos.clear();
      im.pend_row.clear();
      im.pend_consumed = 0;
      if (im.probe_done) return nullptr;
      im.cur_probe = probe_->Next();
      if (im.cur_probe == nullptr) {
        im.probe_done = true;
        return nullptr;
      }
      ProcessProbeBatch(im.cur_probe);
      continue;
    }
    int n = static_cast<int>(
        std::min<size_t>(avail, static_cast<size_t>(ctx_->vector_size)));
    const int* pos = im.pend_pos.data() + im.pend_consumed;
    const int64_t* rows = im.pend_row.data() + im.pend_consumed;
    for (int c = 0; c < im.num_probe_out; c++) {
      GatherByPos(im.out.column(c).data(),
                  im.cur_probe->column(im.probe_out_cols[c]).data(),
                  im.probe_out_widths[c], pos, n);
    }
    for (size_t c = 0; c < im.build_out_store.size(); c++) {
      size_t sc = im.build_out_store[c];
      const Field& f = im.store.schema.field(static_cast<int>(sc));
      GatherByRow(im.out.column(im.num_probe_out + static_cast<int>(c)).data(),
                  im.store.ColData(sc), im.store.widths[sc], rows, n,
                  f.type == TypeId::kStr, "");
    }
    im.pend_consumed += static_cast<size_t>(n);
    im.out.set_count(n);
    im.out.ClearSel();
    return &im.out;
  }
}

void HashJoinOp::Close() {
  if (impl_) impl_->table.PublishStats(trace_node_);
  probe_->Close();
  build_->Close();
}

// ---- CartProdOp -------------------------------------------------------------

struct CartProdOp::Impl {
  DrainedStore store;
  std::vector<int> probe_out_cols;
  std::vector<size_t> probe_out_widths;

  VectorBatch* cur_probe = nullptr;
  int probe_j = 0;       // index into the probe batch's live positions
  int64_t build_r = 0;   // next build row to pair with the current tuple
  bool done = false;
  VectorBatch out;
};

CartProdOp::CartProdOp(ExecContext* ctx, std::unique_ptr<Operator> probe,
                       std::unique_ptr<Operator> build,
                       std::vector<std::string> probe_out,
                       std::vector<std::string> build_out)
    : ctx_(ctx),
      probe_(std::move(probe)),
      build_(std::move(build)),
      probe_out_(std::move(probe_out)),
      build_out_(std::move(build_out)) {
  for (const std::string& name : probe_out_) {
    schema_.Add(probe_->schema().field(
        BindColumn(probe_->schema(), name, "CartProd")));
  }
  for (const std::string& name : build_out_) {
    schema_.Add(build_->schema().field(
        BindColumn(build_->schema(), name, "CartProd")));
  }
}

CartProdOp::~CartProdOp() = default;

void CartProdOp::Open() {
  probe_->Open();
  build_->Open();
  impl_ = std::make_unique<Impl>();
  Impl& im = *impl_;
  {
    int fi = 0;
    for (const std::string& name : probe_out_) {
      *const_cast<Field*>(&schema_.field(fi++)) =
          probe_->schema().field(probe_->schema().Find(name));
    }
    for (const std::string& name : build_out_) {
      *const_cast<Field*>(&schema_.field(fi++)) =
          build_->schema().field(build_->schema().Find(name));
    }
  }
  im.store.Init(build_->schema(), build_out_);
  while (VectorBatch* batch = build_->Next()) im.store.Append(batch);
  const Schema& ps = probe_->schema();
  for (const std::string& name : probe_out_) {
    int ci = ps.Find(name);
    im.probe_out_cols.push_back(ci);
    im.probe_out_widths.push_back(TypeWidth(ps.field(ci).type));
  }
  im.out = VectorBatch(schema_, ctx_->vector_size);
}

VectorBatch* CartProdOp::Next() {
  Impl& im = *impl_;
  if (im.done) return nullptr;
  int emitted = 0;
  int cap = ctx_->vector_size;
  while (emitted < cap) {
    if (im.cur_probe == nullptr) {
      im.cur_probe = probe_->Next();
      im.probe_j = 0;
      im.build_r = 0;
      if (im.cur_probe == nullptr) {
        im.done = true;
        break;
      }
    }
    int pn = im.cur_probe->sel_count();
    const int* psel = im.cur_probe->sel();
    if (im.probe_j >= pn || im.store.rows == 0) {
      im.cur_probe = nullptr;
      if (im.store.rows == 0) {
        im.done = true;
        break;
      }
      continue;
    }
    int pos = psel ? psel[im.probe_j] : im.probe_j;
    while (im.build_r < static_cast<int64_t>(im.store.rows) && emitted < cap) {
      for (size_t c = 0; c < im.probe_out_cols.size(); c++) {
        std::memcpy(static_cast<char*>(im.out.column(static_cast<int>(c)).data()) +
                        static_cast<size_t>(emitted) * im.probe_out_widths[c],
                    static_cast<const char*>(
                        im.cur_probe->column(im.probe_out_cols[c]).data()) +
                        static_cast<size_t>(pos) * im.probe_out_widths[c],
                    im.probe_out_widths[c]);
      }
      for (size_t c = 0; c < im.store.src_cols.size(); c++) {
        int oc = static_cast<int>(im.probe_out_cols.size() + c);
        std::memcpy(static_cast<char*>(im.out.column(oc).data()) +
                        static_cast<size_t>(emitted) * im.store.widths[c],
                    im.store.ColData(c) +
                        static_cast<size_t>(im.build_r) * im.store.widths[c],
                    im.store.widths[c]);
      }
      im.build_r++;
      emitted++;
    }
    if (im.build_r >= static_cast<int64_t>(im.store.rows)) {
      im.probe_j++;
      im.build_r = 0;
    }
  }
  if (emitted == 0) return nullptr;
  im.out.set_count(emitted);
  im.out.ClearSel();
  return &im.out;
}

void CartProdOp::Close() {
  probe_->Close();
  build_->Close();
}

}  // namespace x100
