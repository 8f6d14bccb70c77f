#include <cstring>
#include <stdexcept>
#include <string>

#include "exec/aggr_internal.h"

namespace x100 {

using aggr_internal::BoundAggr;

namespace {
/// The plan's grouping does not fit direct aggregation: the client's error.
[[noreturn]] void ThrowBindError(const std::string& what) {
  throw std::invalid_argument("bind error in DirectAggr: " + what);
}
}  // namespace

// Direct aggregation (§4.1.2): group columns with small bit-domains index the
// accumulator arrays directly — no hash table at all. For Q1 this is
// map_directgrp over (l_returnflag, l_linestatus) into a 2^16 array, exactly
// the Table 5 trace. Group values are reconstructed from the group id when
// draining (the id *is* the concatenated bit representation).
struct DirectAggrOp::Impl {
  std::unique_ptr<MultiExprEvaluator> inputs;
  std::vector<BoundAggr> aggrs;

  std::vector<int> key_cols;
  std::vector<size_t> key_widths;
  const MapPrimitive* grp_prim = nullptr;
  PrimitiveStats* grp_stats = nullptr;
  size_t grp_bytes_per_tuple = 0;

  size_t domain = 0;
  std::vector<uint8_t> seen;
  std::unique_ptr<uint32_t[]> groups;

  bool built = false;
  std::vector<uint32_t> present;  // occupied group ids, ascending
  size_t emit_pos = 0;
  VectorBatch out;
};

DirectAggrOp::DirectAggrOp(ExecContext* ctx, std::unique_ptr<Operator> child,
                           std::vector<std::string> group_by,
                           std::vector<AggrSpec> aggrs)
    : ctx_(ctx),
      child_(std::move(child)),
      group_by_(std::move(group_by)),
      specs_(std::move(aggrs)) {
  if (group_by_.empty() || group_by_.size() > 2) {
    ThrowBindError("needs 1 or 2 group-by columns, got " +
                   std::to_string(group_by_.size()));
  }
  std::vector<BoundAggr> probe;
  aggr_internal::BindAggrInputs(ctx_, child_->schema(), specs_, &probe,
                                "DirectAggr");
  aggr_internal::BuildAggrSchema(child_->schema(), group_by_, probe, &schema_);
}

DirectAggrOp::~DirectAggrOp() = default;

void DirectAggrOp::Open() {
  child_->Open();
  impl_ = std::make_unique<Impl>();
  Impl& im = *impl_;

  im.inputs = aggr_internal::BindAggrInputs(
      ctx_, child_->schema(), specs_, &im.aggrs, "DirectAggr", trace_node_);
  schema_ = Schema();
  im.key_cols = aggr_internal::BuildAggrSchema(child_->schema(), group_by_,
                                               im.aggrs, &schema_);
  const Schema& cs = child_->schema();
  std::string name = "map_directgrp";
  im.grp_bytes_per_tuple = sizeof(uint32_t);
  for (int ci : im.key_cols) {
    TypeId t = cs.field(ci).type;
    // The group id is the keys' concatenated bits: one key of at most 16
    // bits, or two 8-bit keys.
    if (TypeWidth(t) > 2 || (im.key_cols.size() == 2 && TypeWidth(t) != 1)) {
      ThrowBindError("group-by column '" + cs.field(ci).name + "' is " +
                     TypeName(t) +
                     "; keys must fit 16 bits (one key) or 8 bits each (two "
                     "keys)");
    }
    im.key_widths.push_back(TypeWidth(t));
    name += std::string("_") + TypeName(t) + "_col";
    im.grp_bytes_per_tuple += TypeWidth(t);
  }
  im.grp_prim = PrimitiveRegistry::Get().FindMap(name);
  if (im.grp_prim == nullptr) ThrowBindError("no primitive '" + name + "'");
  im.grp_stats = ctx_->profiler ? ctx_->profiler->GetStats(name) : nullptr;

  im.domain = im.key_cols.size() == 2
                  ? 1u << 16
                  : (im.key_widths[0] == 1 ? 1u << 8 : 1u << 16);
  im.seen.assign(im.domain, 0);
  im.groups = std::make_unique<uint32_t[]>(ctx_->vector_size);
  for (BoundAggr& a : im.aggrs) a.EnsureSlots(im.domain);
}

void DirectAggrOp::Build() {
  Impl& im = *impl_;
  PrimitiveStats* op_stats =
      ctx_->profiler ? ctx_->profiler->GetStats("DirectAggr") : nullptr;
  while (VectorBatch* batch = child_->Next()) {
    if (im.inputs) im.inputs->Eval(batch);
    int n = batch->sel_count();
    const int* sel = batch->sel();

    const void* args[2];
    for (size_t c = 0; c < im.key_cols.size(); c++) {
      args[c] = batch->column(im.key_cols[c]).data();
    }
    if (im.grp_stats) {
      ScopedCycles cyc(im.grp_stats);
      im.grp_prim->fn(n, im.groups.get(), args, sel);
      im.grp_stats->calls++;
      im.grp_stats->tuples += static_cast<uint64_t>(n);
      im.grp_stats->bytes += static_cast<uint64_t>(n) * im.grp_bytes_per_tuple;
    } else {
      im.grp_prim->fn(n, im.groups.get(), args, sel);
    }

    uint64_t t0 = op_stats ? ReadCycleCounter() : 0;
    if (sel) {
      for (int j = 0; j < n; j++) im.seen[im.groups[sel[j]]] = 1;
    } else {
      for (int i = 0; i < n; i++) im.seen[im.groups[i]] = 1;
    }
    if (op_stats) {
      op_stats->calls++;
      op_stats->tuples += static_cast<uint64_t>(n);
      op_stats->cycles += ReadCycleCounter() - t0;
    }

    for (BoundAggr& a : im.aggrs) {
      aggr_internal::UpdateAggr(&a, im.inputs.get(), batch, im.groups.get());
    }
  }
  for (uint32_t g = 0; g < im.domain; g++) {
    if (im.seen[g]) im.present.push_back(g);
  }
  im.built = true;
  im.out = VectorBatch(schema_, ctx_->vector_size);
}

VectorBatch* DirectAggrOp::Next() {
  Impl& im = *impl_;
  if (!im.built) Build();
  if (im.emit_pos >= im.present.size()) return nullptr;

  int n = static_cast<int>(std::min<size_t>(
      ctx_->vector_size, im.present.size() - im.emit_pos));
  for (int r = 0; r < n; r++) {
    uint32_t gid = im.present[im.emit_pos + static_cast<size_t>(r)];
    // Reconstruct group-key values from the id's bit layout.
    if (im.key_cols.size() == 2) {
      static_cast<uint8_t*>(im.out.column(0).data())[r] =
          static_cast<uint8_t>(gid >> 8);
      static_cast<uint8_t*>(im.out.column(1).data())[r] =
          static_cast<uint8_t>(gid & 0xFF);
    } else if (im.key_widths[0] == 1) {
      static_cast<uint8_t*>(im.out.column(0).data())[r] =
          static_cast<uint8_t>(gid);
    } else {
      static_cast<uint16_t*>(im.out.column(0).data())[r] =
          static_cast<uint16_t>(gid);
    }
  }
  for (size_t a = 0; a < im.aggrs.size(); a++) {
    int col = static_cast<int>(im.key_cols.size() + a);
    size_t w = TypeWidth(im.aggrs[a].state_type);
    char* dst = static_cast<char*>(im.out.column(col).data());
    for (int r = 0; r < n; r++) {
      uint32_t gid = im.present[im.emit_pos + static_cast<size_t>(r)];
      std::memcpy(dst + static_cast<size_t>(r) * w,
                  static_cast<const char*>(im.aggrs[a].state.data()) + gid * w,
                  w);
    }
  }
  im.out.set_count(n);
  im.out.ClearSel();
  im.emit_pos += static_cast<size_t>(n);
  return &im.out;
}

}  // namespace x100
