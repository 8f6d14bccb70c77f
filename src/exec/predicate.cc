#include <algorithm>
#include <cstring>
#include <memory>
#include <utility>

#include "exec/bound_expr.h"

// PredicateEvaluator: binds and/or trees of comparisons to select_*
// primitives. AND chains thread the shrinking selection vector through each
// conjunct; OR evaluates both sides on the same input and merge-unions the
// (ascending) outputs. Equality with a constant found in a column's
// dictionary compares raw codes without decoding.

namespace x100 {

using bind_internal::ArgRef;
using bind_internal::ValueNode;

namespace {

const char* PrimTypeName(TypeId t) {
  return t == TypeId::kDate ? "i32" : TypeName(t);
}

bool IsCmp(const std::string& fn) {
  return fn == "lt" || fn == "le" || fn == "gt" || fn == "ge" || fn == "eq" ||
         fn == "ne" || fn == "like" || fn == "notlike";
}

std::string FlipCmp(const std::string& fn) {
  if (fn == "lt") return "gt";
  if (fn == "le") return "ge";
  if (fn == "gt") return "lt";
  if (fn == "ge") return "le";
  return fn;
}

}  // namespace

struct PredicateEvaluator::PredNode {
  enum class Kind { kAnd, kOr, kNot, kCmp, kTrue, kFalse };
  Kind kind;
  std::vector<std::unique_ptr<PredNode>> children;

  // kCmp:
  const SelectPrimitive* prim = nullptr;
  ArgRef args[2];
  PrimitiveStats* stats = nullptr;
  size_t bytes_per_tuple = 0;

  // Scratch selection buffers (AND ping-pong; OR accumulator, child output
  // and merge target).
  std::unique_ptr<int[]> buf_a, buf_b, buf_c;
};

PredicateEvaluator::PredicateEvaluator(ExecContext* ctx, const Schema& input,
                                       const Expr& pred,
                                       const std::string& label,
                                       TraceNode* trace_parent)
    : program_(ctx, label, trace_parent) {
  program_.NoteSubtreeUses(pred);
  root_ = BindPred(input, pred);
}

PredicateEvaluator::~PredicateEvaluator() = default;

std::unique_ptr<PredicateEvaluator::PredNode> PredicateEvaluator::BindPred(
    const Schema& input, const Expr& e) {
  ExecContext* ctx = program_.ctx();
  auto node = std::make_unique<PredNode>();

  if (e.kind() != Expr::Kind::kCall) {
    program_.Fail("predicate '" + e.Signature() + "' is not a comparison");
  }
  const std::string& fn = e.name();

  if (fn == "not") {
    if (e.args().size() != 1) program_.Fail("'not' takes 1 argument");
    node->kind = PredNode::Kind::kNot;
    node->children.push_back(BindPred(input, *e.args()[0]));
    node->buf_a = std::make_unique<int[]>(ctx->vector_size);
    return node;
  }

  if (fn == "and" || fn == "or") {
    node->kind = fn == "and" ? PredNode::Kind::kAnd : PredNode::Kind::kOr;
    // Flatten nested chains of the same connective.
    for (const ExprPtr& a : e.args()) {
      if (a->kind() == Expr::Kind::kCall && a->name() == fn) {
        auto sub = BindPred(input, *a);
        for (auto& c : sub->children) node->children.push_back(std::move(c));
      } else {
        node->children.push_back(BindPred(input, *a));
      }
    }
    node->buf_a = std::make_unique<int[]>(ctx->vector_size);
    node->buf_b = std::make_unique<int[]>(ctx->vector_size);
    if (node->kind == PredNode::Kind::kOr) {
      node->buf_c = std::make_unique<int[]>(ctx->vector_size);
    }
    return node;
  }

  if (!IsCmp(fn) || e.args().size() != 2) {
    program_.Fail("predicate '" + e.Signature() +
                  "' is not a two-argument comparison");
  }
  const Expr* le = e.args()[0].get();
  const Expr* re = e.args()[1].get();
  std::string op = fn;
  // Normalize <const> op <col> to <col> flipped-op <const>.
  if (le->kind() == Expr::Kind::kConst && re->kind() != Expr::Kind::kConst) {
    std::swap(le, re);
    op = FlipCmp(op);
  }

  ValueNode l = program_.BindValue(input, *le);
  ValueNode r = program_.BindValue(input, *re);

  // Dictionary rewrite: (eq|ne) of an enum-code column against a constant
  // compares codes directly; a constant absent from the dictionary makes the
  // predicate constant-false (eq) / constant-true (ne).
  if ((op == "eq" || op == "ne") && l.dict.valid() &&
      re->kind() == Expr::Kind::kConst) {
    // Reconstruct the dictionary to look up the constant: DictRef exposes the
    // base array; do a linear probe over its `size` entries.
    const Value& cv = re->value();
    int code = -1;
    for (int c = 0; c < l.dict.size; c++) {
      bool match = false;
      switch (l.dict.value_type) {
        case TypeId::kStr:
          match = std::strcmp(static_cast<const char* const*>(l.dict.base)[c],
                              cv.AsStr().c_str()) == 0;
          break;
        case TypeId::kF64:
          match = static_cast<const double*>(l.dict.base)[c] == cv.AsF64();
          break;
        case TypeId::kI32:
        case TypeId::kDate:
          match = static_cast<const int32_t*>(l.dict.base)[c] == cv.AsI64();
          break;
        case TypeId::kI64:
          match = static_cast<const int64_t*>(l.dict.base)[c] == cv.AsI64();
          break;
        default:
          X100_CHECK(false);
      }
      if (match) {
        code = c;
        break;
      }
    }
    if (code < 0) {
      node->kind = op == "eq" ? PredNode::Kind::kFalse : PredNode::Kind::kTrue;
      return node;
    }
    TypeId ct = l.type;  // code type: u8 or u16
    node->kind = PredNode::Kind::kCmp;
    std::string name = std::string("select_") + op + "_" + PrimTypeName(ct) +
                       "_col_" + PrimTypeName(ct) + "_val";
    if (program_.ctx()->predicated_selects) name += "_pred";
    node->prim = PrimitiveRegistry::Get().FindSelect(name);
    X100_CHECK(node->prim != nullptr);
    node->args[0] = l.ref;
    node->args[1] = {ArgRef::Src::kConst, 0,
                     program_.StoreConst(Value::I64(code), ct), false, 0};
    node->stats = program_.Stats(name);
    node->bytes_per_tuple = TypeWidth(ct) + sizeof(int);
    return node;
  }

  // General comparison: decode enum columns, unify types.
  l = program_.Decode(l);
  r = program_.Decode(r);
  TypeId t;
  if (l.type == TypeId::kStr || r.type == TypeId::kStr) {
    if (l.type != r.type) {
      program_.Fail("'" + op + "' of a string and a number");
    }
    t = TypeId::kStr;
  } else if (l.type == r.type) {
    t = l.type;  // same-type compares exist for all widths
  } else {
    t = TypeId::kF64;
    if (l.type != TypeId::kF64 && r.type != TypeId::kF64) {
      t = TypeId::kI64;
      if (TypeWidth(l.type) <= 4 && TypeWidth(r.type) <= 4) t = TypeId::kI32;
    }
  }
  auto unify = [&](ValueNode n, const Expr* src) {
    if (n.type == t) return n;
    if (src->kind() == Expr::Kind::kConst) {
      n.ref.cptr = program_.StoreConst(src->value(), t);
      n.type = t;
      return n;
    }
    return program_.Cast(n, t);
  };
  l = unify(l, le);
  r = unify(r, re);
  if (!l.ref.is_col) program_.Fail("'" + op + "' of two constants");

  node->kind = PredNode::Kind::kCmp;
  std::string name = std::string("select_") + op + "_" + PrimTypeName(t) +
                     "_col_" + PrimTypeName(t) + (r.ref.is_col ? "_col" : "_val");
  if (program_.ctx()->predicated_selects && t != TypeId::kStr) name += "_pred";
  node->prim = PrimitiveRegistry::Get().FindSelect(name);
  if (node->prim == nullptr) program_.Fail("no primitive '" + name + "'");
  node->args[0] = l.ref;
  node->args[1] = r.ref;
  node->stats = program_.Stats(name);
  node->bytes_per_tuple =
      TypeWidth(t) * (1 + (r.ref.is_col ? 1 : 0)) + sizeof(int);
  return node;
}

int PredicateEvaluator::EvalNode(PredNode* node, VectorBatch* batch,
                                 const int* sel, int n, int* out_sel) {
  switch (node->kind) {
    case PredNode::Kind::kTrue:
      if (sel) {
        std::memcpy(out_sel, sel, sizeof(int) * static_cast<size_t>(n));
      } else {
        for (int i = 0; i < n; i++) out_sel[i] = i;
      }
      return n;
    case PredNode::Kind::kFalse:
      return 0;
    case PredNode::Kind::kCmp: {
      const void* args[2] = {program_.ArgPtr(node->args[0], batch),
                             program_.ArgPtr(node->args[1], batch)};
      int k;
      if (node->stats) {
        ScopedCycles cycles(node->stats);
        k = node->prim->fn(n, out_sel, args, sel);
        node->stats->calls++;
        node->stats->tuples += n;
        node->stats->bytes += static_cast<uint64_t>(n) * node->bytes_per_tuple;
      } else {
        k = node->prim->fn(n, out_sel, args, sel);
      }
      return k;
    }
    case PredNode::Kind::kAnd: {
      // Thread the shrinking selection through the conjuncts; ping-pong
      // between the two scratch buffers, final conjunct writes out_sel.
      const int* cur = sel;
      int cur_n = n;
      int* bufs[2] = {node->buf_a.get(), node->buf_b.get()};
      int which = 0;
      for (size_t c = 0; c < node->children.size(); c++) {
        int* target =
            (c + 1 == node->children.size()) ? out_sel : bufs[which];
        cur_n = EvalNode(node->children[c].get(), batch, cur, cur_n, target);
        cur = target;
        which ^= 1;
        if (cur_n == 0 && c + 1 < node->children.size()) return 0;
      }
      return cur_n;
    }
    case PredNode::Kind::kNot: {
      // Complement: input positions minus the child's (both ascending).
      int k = EvalNode(node->children[0].get(), batch, sel, n,
                       node->buf_a.get());
      const int* hit = node->buf_a.get();
      int m = 0, j = 0;
      for (int i = 0; i < n; i++) {
        int pos = sel ? sel[i] : i;
        if (j < k && hit[j] == pos) {
          j++;
        } else {
          out_sel[m++] = pos;
        }
      }
      return m;
    }
    case PredNode::Kind::kOr: {
      // Evaluate children against the same input; union the ascending
      // outputs pairwise. `sel` may be `out_sel` itself (SelectOp filters in
      // place), so the union builds up in scratch and out_sel is written
      // only after the last child has read its input.
      int* acc = node->buf_a.get();
      int* tmp = node->buf_b.get();
      int* merged = node->buf_c.get();
      int acc_n = 0;
      for (size_t c = 0; c < node->children.size(); c++) {
        int k = EvalNode(node->children[c].get(), batch, sel, n, tmp);
        // Merge-union acc[0..acc_n) and tmp[0..k) into merged.
        int i = 0, j = 0, m = 0;
        while (i < acc_n && j < k) {
          if (acc[i] < tmp[j]) {
            merged[m++] = acc[i++];
          } else if (acc[i] > tmp[j]) {
            merged[m++] = tmp[j++];
          } else {
            merged[m++] = acc[i++];
            j++;
          }
        }
        while (i < acc_n) merged[m++] = acc[i++];
        while (j < k) merged[m++] = tmp[j++];
        std::swap(acc, merged);
        acc_n = m;
      }
      std::memcpy(out_sel, acc, sizeof(int) * static_cast<size_t>(acc_n));
      return acc_n;
    }
  }
  return 0;
}

int PredicateEvaluator::Eval(VectorBatch* batch, int* out_sel) {
  program_.RunSteps(batch);
  return EvalNode(root_.get(), batch, batch->sel(), batch->sel_count(), out_sel);
}

}  // namespace x100
