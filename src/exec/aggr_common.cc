#include <cstring>
#include <limits>

#include "exec/aggr_internal.h"

namespace x100 {

namespace aggr_internal {

namespace {

const char* OpName(AggrOp op) {
  switch (op) {
    case AggrOp::kSum:   return "sum";
    case AggrOp::kMin:   return "min";
    case AggrOp::kMax:   return "max";
    case AggrOp::kCount: return "count";
  }
  return "?";
}

}  // namespace

void BoundAggr::EnsureSlots(size_t n) {
  while (slots < n) {
    switch (state_type) {
      case TypeId::kF64:
        state.PushBack(op == AggrOp::kMin ? std::numeric_limits<double>::infinity()
                       : op == AggrOp::kMax
                           ? -std::numeric_limits<double>::infinity()
                           : 0.0);
        break;
      case TypeId::kI64:
        state.PushBack(op == AggrOp::kMin ? std::numeric_limits<int64_t>::max()
                       : op == AggrOp::kMax
                           ? std::numeric_limits<int64_t>::min()
                           : int64_t{0});
        break;
      case TypeId::kI32:
        state.PushBack(op == AggrOp::kMin ? std::numeric_limits<int32_t>::max()
                       : op == AggrOp::kMax
                           ? std::numeric_limits<int32_t>::min()
                           : int32_t{0});
        break;
      default:
        X100_CHECK(false);
    }
    slots++;
  }
}

Value BoundAggr::Result(size_t slot) const {
  switch (state_type) {
    case TypeId::kF64: return Value::F64(state.At<double>(slot));
    case TypeId::kI64: return Value::I64(state.At<int64_t>(slot));
    case TypeId::kI32: return Value::I32(state.At<int32_t>(slot));
    default:
      X100_CHECK(false);
  }
  return Value();
}

void BindAggr(ExecContext* ctx, const AggrSpec& spec, TypeId input_type,
              BoundAggr* out) {
  out->op = spec.op;
  out->output = spec.output;
  out->input_type = input_type;
  std::string name;
  if (spec.op == AggrOp::kCount) {
    name = "aggr_count";
  } else {
    name = std::string("aggr_") + OpName(spec.op) + "_" + TypeName(input_type) +
           "_col";
  }
  out->prim = PrimitiveRegistry::Get().FindAggr(name);
  if (out->prim == nullptr) {
    std::fprintf(stderr, "bind error: no aggregate primitive '%s'\n", name.c_str());
    X100_CHECK(false);
  }
  out->state_type = out->prim->state_type;
  out->stats = ctx->profiler ? ctx->profiler->GetStats(name) : nullptr;
}

std::vector<int> BuildAggrSchema(const Schema& child,
                                 const std::vector<std::string>& group_by,
                                 const std::vector<BoundAggr>& aggrs,
                                 Schema* schema) {
  std::vector<int> key_cols;
  for (const std::string& g : group_by) {
    int ci = BindColumn(child, g, "Aggr");
    key_cols.push_back(ci);
    schema->Add(child.field(ci));
  }
  for (const BoundAggr& a : aggrs) {
    schema->Add(a.output, a.state_type);
  }
  return key_cols;
}

std::unique_ptr<MultiExprEvaluator> BindAggrInputs(
    ExecContext* ctx, const Schema& child, const std::vector<AggrSpec>& specs,
    std::vector<BoundAggr>* bound, const std::string& label,
    TraceNode* trace_parent) {
  // Binding copies everything it needs (constants, arg refs); the widened
  // expression trees can be dropped once the evaluator is constructed.
  std::vector<ExprPtr> widened;
  std::vector<const Expr*> ptrs;
  bound->clear();
  for (const AggrSpec& s : specs) {
    BoundAggr b;
    if (s.input != nullptr) {
      widened.push_back(exprs::Call1("widen", s.input->Clone()));
      b.input_idx = static_cast<int>(ptrs.size());
      ptrs.push_back(widened.back().get());
    }
    bound->push_back(std::move(b));
  }
  std::unique_ptr<MultiExprEvaluator> eval;
  if (!ptrs.empty()) {
    eval = std::make_unique<MultiExprEvaluator>(ctx, child, ptrs, label,
                                                trace_parent);
  }
  for (size_t i = 0; i < specs.size(); i++) {
    TypeId t = TypeId::kI64;
    if ((*bound)[i].input_idx >= 0) t = eval->type((*bound)[i].input_idx);
    int saved_idx = (*bound)[i].input_idx;
    BindAggr(ctx, specs[i], t, &(*bound)[i]);
    (*bound)[i].input_idx = saved_idx;
  }
  return eval;
}

void UpdateAggr(BoundAggr* a, MultiExprEvaluator* inputs, VectorBatch* batch,
                const uint32_t* groups) {
  const void* col = nullptr;
  size_t in_width = 0;
  if (a->input_idx >= 0) {
    MultiExprEvaluator::Out r = inputs->Result(a->input_idx, batch);
    X100_CHECK(r.is_col);
    col = r.data;
    in_width = TypeWidth(r.type);
  }
  int n = batch->sel_count();
  const int* sel = batch->sel();
  if (a->stats) {
    ScopedCycles cycles(a->stats);
    a->prim->fn(n, a->state.data(), groups, col, sel);
    a->stats->calls++;
    a->stats->tuples += static_cast<uint64_t>(n);
    a->stats->bytes += static_cast<uint64_t>(n) * (in_width + sizeof(uint32_t));
  } else {
    a->prim->fn(n, a->state.data(), groups, col, sel);
  }
}

}  // namespace aggr_internal

std::vector<AggrSpec> CloneAggrSpecs(const std::vector<AggrSpec>& specs) {
  std::vector<AggrSpec> out;
  out.reserve(specs.size());
  for (const AggrSpec& s : specs) {
    out.push_back({s.op, s.input ? s.input->Clone() : nullptr, s.output});
  }
  return out;
}

std::vector<AggrSpec> MergeAggrSpecs(const std::vector<AggrSpec>& specs) {
  std::vector<AggrSpec> out;
  out.reserve(specs.size());
  for (const AggrSpec& s : specs) {
    AggrOp op = (s.op == AggrOp::kMin || s.op == AggrOp::kMax) ? s.op
                                                               : AggrOp::kSum;
    out.push_back({op, Col(s.output), s.output});
  }
  return out;
}

}  // namespace x100
