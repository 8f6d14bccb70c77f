#include <cstring>
#include <stdexcept>

#include "exec/join.h"
#include "exec/join_internal.h"

namespace x100 {

// ---- Fetch1JoinOp -----------------------------------------------------------

struct Fetch1JoinOp::Impl {
  int rowid_idx = -1;
  struct FetchCol {
    const void* base;     // target fragment data (physical)
    size_t width;
    const MapPrimitive* prim;
    PrimitiveStats* stats;
    Vector result;
  };
  std::vector<FetchCol> fetches;
  VectorBatch out;
  PrimitiveStats* op_stats = nullptr;
};

Fetch1JoinOp::Fetch1JoinOp(ExecContext* ctx, std::unique_ptr<Operator> child,
                           const Table& target, std::string rowid_col,
                           std::vector<std::pair<std::string, std::string>> fetch)
    : ctx_(ctx),
      child_(std::move(child)),
      target_(target),
      rowid_col_(std::move(rowid_col)),
      fetch_(std::move(fetch)) {
  schema_ = child_->schema();
  for (const auto& [src, dst] : fetch_) {
    const Column& col =
        target_.column(BindColumn(target_.schema(), src, "Fetch1Join"));
    Field f;
    f.name = dst;
    f.type = col.storage_type();
    if (col.is_enum()) {
      f.dict = {true, nullptr, col.dict()->value_type(), 0};
    }
    schema_.Add(f);
  }
}

Fetch1JoinOp::~Fetch1JoinOp() = default;

void Fetch1JoinOp::Open() {
  child_->Open();
  impl_ = std::make_unique<Impl>();
  Impl& im = *impl_;

  // Child fields may have refreshed dictionaries.
  const Schema& cs = child_->schema();
  for (int i = 0; i < cs.num_fields(); i++) {
    *const_cast<Field*>(&schema_.field(i)) = cs.field(i);
  }
  im.rowid_idx = BindColumn(cs, rowid_col_, "Fetch1Join");
  if (cs.field(im.rowid_idx).type != TypeId::kI64) {
    throw std::invalid_argument("bind error in Fetch1Join: row-id column '" +
                                rowid_col_ + "' is " +
                                TypeName(cs.field(im.rowid_idx).type) +
                                ", not i64");
  }

  for (size_t fi = 0; fi < fetch_.size(); fi++) {
    const Column& col = target_.column(target_.ColumnIndex(fetch_[fi].first));
    Field* f = const_cast<Field*>(&schema_.field(cs.num_fields() +
                                                 static_cast<int>(fi)));
    if (col.is_enum()) {
      f->dict = {true, col.dict()->base(), col.dict()->value_type(),
                 col.dict()->size()};
    }
    const char* tn = f->type == TypeId::kDate ? "i32" : TypeName(f->type);
    std::string name = std::string("map_fetch_") + tn + "_col_i64_col";
    const MapPrimitive* prim = PrimitiveRegistry::Get().FindMap(name);
    X100_CHECK(prim != nullptr);
    Impl::FetchCol fc;
    fc.base = col.raw();
    fc.width = TypeWidth(f->type);
    fc.prim = prim;
    fc.stats = ctx_->profiler ? ctx_->profiler->GetStats(name) : nullptr;
    fc.result.Allocate(f->type, ctx_->vector_size);
    im.fetches.push_back(std::move(fc));
  }
  im.out = VectorBatch(schema_, ctx_->vector_size);
  im.op_stats =
      ctx_->profiler ? ctx_->profiler->GetStats("Fetch1Join") : nullptr;

  // Positional fetch addresses immutable fragments only.
  X100_CHECK(target_.delta_rows() == 0 && target_.num_deleted() == 0);
}

VectorBatch* Fetch1JoinOp::Next() {
  Impl& im = *impl_;
  VectorBatch* batch = child_->Next();
  if (batch == nullptr) return nullptr;
  uint64_t t0 = im.op_stats ? ReadCycleCounter() : 0;

  int n = batch->sel_count();
  const int* sel = batch->sel();
  const void* rowids = batch->column(im.rowid_idx).data();

  const Schema& cs = child_->schema();
  for (int c = 0; c < cs.num_fields(); c++) {
    im.out.column(c).SetView(cs.field(c).type, batch->column(c).data(),
                             batch->count());
  }
  for (size_t fi = 0; fi < im.fetches.size(); fi++) {
    Impl::FetchCol& fc = im.fetches[fi];
    const void* args[2] = {rowids, fc.base};
    if (fc.stats) {
      ScopedCycles cyc(fc.stats);
      fc.prim->fn(n, fc.result.data(), args, sel);
      fc.stats->calls++;
      fc.stats->tuples += static_cast<uint64_t>(n);
      fc.stats->bytes += static_cast<uint64_t>(n) * (8 + fc.width);
    } else {
      fc.prim->fn(n, fc.result.data(), args, sel);
    }
    im.out.column(cs.num_fields() + static_cast<int>(fi))
        .SetView(schema_.field(cs.num_fields() + static_cast<int>(fi)).type,
                 fc.result.data(), batch->count());
  }
  im.out.set_count(batch->count());
  if (batch->sel_active()) {
    std::memcpy(im.out.mutable_sel()->data(), batch->sel(),
                sizeof(int) * static_cast<size_t>(n));
    im.out.ActivateSel(n);
  } else {
    im.out.ClearSel();
  }
  if (im.op_stats) {
    im.op_stats->calls++;
    im.op_stats->tuples += static_cast<uint64_t>(n);
    im.op_stats->cycles += ReadCycleCounter() - t0;
  }
  return &im.out;
}

// ---- FetchNJoinOp -----------------------------------------------------------

struct FetchNJoinOp::Impl {
  int start_idx = -1, count_idx = -1;
  std::vector<int> child_cols;
  std::vector<size_t> child_widths;
  struct FetchCol {
    const void* base;
    size_t width;
    bool is_str;
  };
  std::vector<FetchCol> fetches;

  std::vector<int> pend_pos;
  std::vector<int64_t> pend_row;
  size_t pend_consumed = 0;
  VectorBatch* cur = nullptr;
  bool done = false;
  VectorBatch out;
};

FetchNJoinOp::FetchNJoinOp(ExecContext* ctx, std::unique_ptr<Operator> child,
                           const Table& target, std::string start_col,
                           std::string count_col,
                           std::vector<std::pair<std::string, std::string>> fetch)
    : ctx_(ctx),
      child_(std::move(child)),
      target_(target),
      start_col_(std::move(start_col)),
      count_col_(std::move(count_col)),
      fetch_(std::move(fetch)) {
  schema_ = child_->schema();
  for (const auto& [src, dst] : fetch_) {
    const Column& col = target_.column(target_.ColumnIndex(src));
    Field f;
    f.name = dst;
    f.type = col.storage_type();
    if (col.is_enum()) {
      f.dict = {true, nullptr, col.dict()->value_type(), 0};
    }
    schema_.Add(f);
  }
}

FetchNJoinOp::~FetchNJoinOp() = default;

void FetchNJoinOp::Open() {
  child_->Open();
  impl_ = std::make_unique<Impl>();
  Impl& im = *impl_;
  const Schema& cs = child_->schema();
  for (int i = 0; i < cs.num_fields(); i++) {
    *const_cast<Field*>(&schema_.field(i)) = cs.field(i);
    im.child_cols.push_back(i);
    im.child_widths.push_back(TypeWidth(cs.field(i).type));
  }
  im.start_idx = cs.Find(start_col_);
  im.count_idx = cs.Find(count_col_);
  X100_CHECK(im.start_idx >= 0 && im.count_idx >= 0);
  X100_CHECK(cs.field(im.start_idx).type == TypeId::kI64);
  X100_CHECK(cs.field(im.count_idx).type == TypeId::kI64);

  for (size_t fi = 0; fi < fetch_.size(); fi++) {
    const Column& col = target_.column(target_.ColumnIndex(fetch_[fi].first));
    Field* f = const_cast<Field*>(&schema_.field(cs.num_fields() +
                                                 static_cast<int>(fi)));
    if (col.is_enum()) {
      f->dict = {true, col.dict()->base(), col.dict()->value_type(),
                 col.dict()->size()};
    }
    im.fetches.push_back(
        {col.raw(), TypeWidth(f->type), f->type == TypeId::kStr});
  }
  im.out = VectorBatch(schema_, ctx_->vector_size);
  X100_CHECK(target_.delta_rows() == 0 && target_.num_deleted() == 0);
}

VectorBatch* FetchNJoinOp::Next() {
  Impl& im = *impl_;
  while (true) {
    size_t avail = im.pend_pos.size() - im.pend_consumed;
    if (avail == 0) {
      im.pend_pos.clear();
      im.pend_row.clear();
      im.pend_consumed = 0;
      if (im.done) return nullptr;
      im.cur = child_->Next();
      if (im.cur == nullptr) {
        im.done = true;
        return nullptr;
      }
      int n = im.cur->sel_count();
      const int* sel = im.cur->sel();
      const int64_t* starts =
          static_cast<const int64_t*>(im.cur->column(im.start_idx).data());
      const int64_t* counts =
          static_cast<const int64_t*>(im.cur->column(im.count_idx).data());
      for (int j = 0; j < n; j++) {
        int i = sel ? sel[j] : j;
        for (int64_t r = 0; r < counts[i]; r++) {
          im.pend_pos.push_back(i);
          im.pend_row.push_back(starts[i] + r);
        }
      }
      continue;
    }
    int n = static_cast<int>(
        std::min<size_t>(avail, static_cast<size_t>(ctx_->vector_size)));
    const int* pos = im.pend_pos.data() + im.pend_consumed;
    const int64_t* rows = im.pend_row.data() + im.pend_consumed;
    for (size_t c = 0; c < im.child_cols.size(); c++) {
      join_internal::GatherByPos(im.out.column(static_cast<int>(c)).data(),
                                 im.cur->column(im.child_cols[c]).data(),
                                 im.child_widths[c], pos, n);
    }
    for (size_t fi = 0; fi < im.fetches.size(); fi++) {
      int oc = static_cast<int>(im.child_cols.size() + fi);
      join_internal::GatherByRow(im.out.column(oc).data(), im.fetches[fi].base,
                                 im.fetches[fi].width, rows, n,
                                 im.fetches[fi].is_str, "");
    }
    im.pend_consumed += static_cast<size_t>(n);
    im.out.set_count(n);
    im.out.ClearSel();
    return &im.out;
  }
}

}  // namespace x100
