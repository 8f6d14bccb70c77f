#include "exec/bound_expr.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "exec/trace.h"
#include "primitives/fused.h"

namespace x100 {
namespace bind_internal {

namespace {

/// Primitive-signature type name; dates are i32 at the primitive level.
const char* PrimTypeName(TypeId t) {
  if (t == TypeId::kDate) return "i32";
  return TypeName(t);
}

/// Physical type primitives see (dates fold into i32).
TypeId PrimType(TypeId t) { return t == TypeId::kDate ? TypeId::kI32 : t; }

/// Type both sides of an arithmetic op are widened to.
TypeId ArithType(TypeId t) {
  switch (PrimType(t)) {
    case TypeId::kI8:
    case TypeId::kU8:
    case TypeId::kI16:
    case TypeId::kU16:
    case TypeId::kI32:
      return TypeId::kI32;
    case TypeId::kI64:
      return TypeId::kI64;
    case TypeId::kF32:
    case TypeId::kF64:
      return TypeId::kF64;
    default:
      return PrimType(t);
  }
}

TypeId CommonType(TypeId a, TypeId b) {
  a = PrimType(a);
  b = PrimType(b);
  if (a == b) return a;
  if (a == TypeId::kStr || b == TypeId::kStr) {
    throw std::invalid_argument("bind error: no implicit conversion between " +
                                std::string(TypeName(a)) + " and " +
                                TypeName(b));
  }
  TypeId aa = ArithType(a), bb = ArithType(b);
  if (aa == TypeId::kF64 || bb == TypeId::kF64) return TypeId::kF64;
  if (aa == TypeId::kI64 || bb == TypeId::kI64) return TypeId::kI64;
  return TypeId::kI32;
}

bool IsComparisonFn(const std::string& fn) {
  return fn == "lt" || fn == "le" || fn == "gt" || fn == "ge" || fn == "eq" ||
         fn == "ne" || fn == "like" || fn == "notlike";
}

/// Op kind of a call node the chain fuser can absorb, checked against the
/// node's explicit arity (a malformed `sub` with one argument must not be
/// treated as a binary candidate — BindCall rejects it as a bind error).
std::optional<fused::OpK> FusibleOp(const std::string& fn, size_t arity) {
  using fused::OpK;
  if (arity == 2) {
    if (fn == "add") return OpK::kAdd;
    if (fn == "sub") return OpK::kSub;
    if (fn == "mul") return OpK::kMul;
    if (fn == "div") return OpK::kDiv;
  } else if (arity == 1) {
    if (fn == "neg") return OpK::kNeg;
    if (fn == "square") return OpK::kSquare;
  }
  return std::nullopt;
}

/// Binder-side expression macros: a call that binds as the plain arithmetic
/// it stands for, so the chain fuser (or, with fusion off, the interpreted
/// steps) handles it like any other expression.
///   mahalanobis(a, b, c) = div(square(sub(a, b)), c) — the paper's §4.2
///   compound-primitive example.
/// Null when `expr` is not a macro call of the right arity.
ExprPtr ExpandMacro(const Expr& expr) {
  if (expr.kind() != Expr::Kind::kCall || expr.name() != "mahalanobis" ||
      expr.args().size() != 3) {
    return nullptr;
  }
  const auto& a = expr.args();
  return exprs::Div(exprs::Square(exprs::Sub(a[0]->Clone(), a[1]->Clone())),
                    a[2]->Clone());
}

/// Minimum intermediate-vector traffic (bytes/tuple) a fused chain must
/// eliminate to be worth binding. Chains of 8-byte types always clear it
/// (one 8-byte store + load per collapsed edge = 16); a hypothetical 4-byte
/// chain would not.
constexpr size_t kMinFusedSavedBytes = 16;

Value ConvertConst(const Value& v, TypeId to) {
  switch (PrimType(to)) {
    case TypeId::kI8:   return Value::I8(static_cast<int8_t>(v.AsI64()));
    case TypeId::kU8:   return Value::U8(static_cast<uint8_t>(v.AsI64()));
    case TypeId::kI16:  return Value::I16(static_cast<int16_t>(v.AsI64()));
    case TypeId::kU16:  return Value::U16(static_cast<uint16_t>(v.AsI64()));
    case TypeId::kI32:  return Value::I32(static_cast<int32_t>(v.AsI64()));
    case TypeId::kI64:
      return Value::I64(v.type() == TypeId::kF64 || v.type() == TypeId::kF32
                            ? static_cast<int64_t>(v.AsF64())
                            : v.AsI64());
    case TypeId::kF64:  return Value::F64(v.AsF64());
    case TypeId::kStr:  return v;
    default:
      X100_CHECK(false);
  }
  return v;
}

}  // namespace

int Program::AllocReg(TypeId t) {
  registers_.emplace_back(t == TypeId::kStr ? TypeId::kStr : PrimType(t),
                          ctx_->vector_size);
  return static_cast<int>(registers_.size()) - 1;
}

const void* Program::StoreConst(const Value& v, TypeId physical) {
  consts_.emplace_back();
  ConstSlot& slot = consts_.back();
  if (physical == TypeId::kStr) {
    slot.owned_str = v.AsStr();
    slot.sptr = slot.owned_str.c_str();
    return &slot.sptr;
  }
  Value c = ConvertConst(v, physical);
  switch (PrimType(physical)) {
    case TypeId::kI8: {
      int8_t x = static_cast<int8_t>(c.AsI64());
      std::memcpy(slot.bytes, &x, sizeof(x));
      break;
    }
    case TypeId::kU8: {
      uint8_t x = static_cast<uint8_t>(c.AsI64());
      std::memcpy(slot.bytes, &x, sizeof(x));
      break;
    }
    case TypeId::kI16: {
      int16_t x = static_cast<int16_t>(c.AsI64());
      std::memcpy(slot.bytes, &x, sizeof(x));
      break;
    }
    case TypeId::kU16: {
      uint16_t x = static_cast<uint16_t>(c.AsI64());
      std::memcpy(slot.bytes, &x, sizeof(x));
      break;
    }
    case TypeId::kI32: {
      int32_t x = static_cast<int32_t>(c.AsI64());
      std::memcpy(slot.bytes, &x, sizeof(x));
      break;
    }
    case TypeId::kI64: {
      int64_t x = c.AsI64();
      std::memcpy(slot.bytes, &x, sizeof(x));
      break;
    }
    case TypeId::kF64: {
      double x = c.AsF64();
      std::memcpy(slot.bytes, &x, sizeof(x));
      break;
    }
    default:
      X100_CHECK(false);
  }
  return slot.bytes;
}

const char** Program::StoreStrConst(const std::string& s) {
  consts_.emplace_back();
  ConstSlot& slot = consts_.back();
  slot.owned_str = s;
  slot.sptr = slot.owned_str.c_str();
  return &slot.sptr;
}

void Program::Fail(const std::string& what) const {
  throw std::invalid_argument("bind error in " + label_ + ": " + what);
}

PrimitiveStats* Program::Stats(const std::string& prim_name) {
  if (ctx_->profiler == nullptr) return nullptr;
  return ctx_->profiler->GetStats(prim_name);
}

ValueNode Program::Decode(ValueNode node) {
  if (!node.dict.valid()) return node;
  std::string key = "decode@" + std::to_string(node.ref.index);
  auto it = memo_.find(key);
  if (it != memo_.end()) return it->second;

  TypeId value_type = node.dict.value_type;
  std::string name = std::string("map_fetch_") + PrimTypeName(value_type) +
                     "_col_" + PrimTypeName(node.type) + "_col";
  const MapPrimitive* prim = PrimitiveRegistry::Get().FindMap(name);
  X100_CHECK(prim != nullptr);

  MapStep step;
  step.prim = prim;
  step.args.push_back(node.ref);
  step.args.push_back({ArgRef::Src::kDictBase, 0, node.dict.base, false, 0});
  step.res_reg = AllocReg(value_type);
  step.stats = Stats(name);
  step.bytes_per_tuple = TypeWidth(node.type) + TypeWidth(value_type);
  steps_.push_back(std::move(step));

  ValueNode out;
  out.ref = {ArgRef::Src::kReg, steps_.back().res_reg, nullptr, true,
             TypeWidth(value_type)};
  out.type = PrimType(value_type);
  memo_[key] = out;
  return out;
}

ValueNode Program::Cast(ValueNode node, TypeId to) {
  to = PrimType(to);
  if (PrimType(node.type) == to) return node;
  if (node.ref.src == ArgRef::Src::kConst) {
    // Re-store the constant in the target type. The original Value is not
    // kept; reconstruct from the slot via widths. Callers avoid this path by
    // binding constants with their final type, so keep it simple: constants
    // are always bound via BindValue which stores pre-converted values.
    X100_CHECK(false && "constants are converted at bind time");
  }
  std::string name = std::string("map_cast_") + PrimTypeName(to) + "_" +
                     PrimTypeName(node.type) + "_col";
  const MapPrimitive* prim = PrimitiveRegistry::Get().FindMap(name);
  if (prim == nullptr) Fail("no primitive '" + name + "'");

  MapStep step;
  step.prim = prim;
  step.args.push_back(node.ref);
  step.res_reg = AllocReg(to);
  step.stats = Stats(name);
  step.bytes_per_tuple = TypeWidth(node.type) + TypeWidth(to);
  steps_.push_back(std::move(step));

  ValueNode out;
  out.ref = {ArgRef::Src::kReg, steps_.back().res_reg, nullptr, true, TypeWidth(to)};
  out.type = to;
  return out;
}

void Program::NoteSubtreeUses(const Expr& expr) {
  if (expr.kind() != Expr::Kind::kCall) return;
  if (ExprPtr m = ExpandMacro(expr)) return NoteSubtreeUses(*m);
  use_counts_[expr.Signature()]++;
  for (const ExprPtr& a : expr.args()) NoteSubtreeUses(*a);
}

std::optional<TypeId> Program::InferType(const Schema& input,
                                         const Expr& expr) const {
  switch (expr.kind()) {
    case Expr::Kind::kColumn: {
      int ci = input.Find(expr.name());
      if (ci < 0) return std::nullopt;
      const Field& f = input.field(ci);
      return PrimType(f.dict.valid() ? f.dict.value_type : f.type);
    }
    case Expr::Kind::kConst:
      return PrimType(expr.value().type());
    case Expr::Kind::kCall:
      break;
  }
  if (ExprPtr m = ExpandMacro(expr)) return InferType(input, *m);
  const std::string& fn = expr.name();
  const auto& args = expr.args();
  if (fn == "sqrt" || fn == "square") {
    return args.size() == 1 ? std::optional<TypeId>(TypeId::kF64)
                            : std::nullopt;
  }
  if (fn == "neg") {
    if (args.size() != 1) return std::nullopt;
    std::optional<TypeId> a = InferType(input, *args[0]);
    if (!a) return std::nullopt;
    return ArithType(*a) == TypeId::kI64 ? TypeId::kI64 : TypeId::kF64;
  }
  if (fn == "dbl") {
    return args.size() == 1 ? std::optional<TypeId>(TypeId::kF64)
                            : std::nullopt;
  }
  if (fn == "i64") {
    return args.size() == 1 ? std::optional<TypeId>(TypeId::kI64)
                            : std::nullopt;
  }
  if (fn == "year") {
    return args.size() == 1 ? std::optional<TypeId>(TypeId::kI32)
                            : std::nullopt;
  }
  if (fn == "widen") {
    if (args.size() != 1) return std::nullopt;
    std::optional<TypeId> a = InferType(input, *args[0]);
    if (!a) return std::nullopt;
    return *a == TypeId::kStr ? *a : ArithType(*a);
  }
  if ((fn == "add" || fn == "sub" || fn == "mul" || fn == "div") &&
      args.size() == 2) {
    std::optional<TypeId> l = InferType(input, *args[0]);
    std::optional<TypeId> r = InferType(input, *args[1]);
    if (!l || !r || *l == TypeId::kStr || *r == TypeId::kStr)
      return std::nullopt;
    // CommonType(ArithType, ArithType) without the mixed-string abort.
    TypeId aa = ArithType(*l), bb = ArithType(*r);
    if (aa == TypeId::kF64 || bb == TypeId::kF64) return TypeId::kF64;
    if (aa == TypeId::kI64 || bb == TypeId::kI64) return TypeId::kI64;
    return TypeId::kI32;
  }
  return std::nullopt;
}

bool Program::TryFuseChain(const Schema& input, const Expr& expr,
                           ValueNode* out) {
  if (!ctx_->fuse_compound_primitives) return false;
  if (expr.kind() != Expr::Kind::kCall) return false;
  if (!FusibleOp(expr.name(), expr.args().size())) return false;
  std::optional<TypeId> rt = InferType(input, expr);
  if (!rt || (*rt != TypeId::kF64 && *rt != TypeId::kI64)) return false;
  const TypeId T = *rt;

  // --- Probe phase: walk the chain root-down without emitting anything. ---
  // (The original pattern-matcher bound its operands *before* checking they
  // qualified; a miss then left the operand Decode/Cast steps orphaned in
  // steps_, executed dead on every vector. The probe below is pure: until a
  // registry kernel is resolved, no step, register or constant is created.)
  struct Link {
    const Expr* node = nullptr;   // the chain's call node
    fused::OpK op{};
    fused::Shape shape{};
    const Expr* leaf0 = nullptr;  // leaves in kernel-slot order
    const Expr* leaf1 = nullptr;
  };

  std::vector<Link> rev;  // root-first; reversed into execution order below
  const Expr* cur = &expr;
  while (true) {
    const auto& args = cur->args();
    fused::OpK opk = *FusibleOp(cur->name(), args.size());
    // Pick the operand the chain continues through (left preferred): a
    // fusible call of the same uniform type that is neither already bound
    // (reuse its register instead) nor independently used by another
    // expression (recomputing it inside the kernel would defeat CSE). A
    // child whose use count equals its parent's only ever occurs inside the
    // parent, so absorbing it is CSE-safe — this is what lets Q1's
    // disc_price chain fuse even though disc_price itself feeds two
    // aggregates (the second reuses the memoized fused register).
    auto use_count = [&](const Expr& e) {
      auto it = use_counts_.find(e.Signature());
      return it == use_counts_.end() ? 0 : it->second;
    };
    const Expr* prev_child = nullptr;
    int prev_side = -1;
    if (static_cast<int>(rev.size()) + 1 < fused::kMaxFusedChain) {
      for (size_t side = 0; side < args.size(); side++) {
        const Expr& c = *args[side];
        if (c.kind() != Expr::Kind::kCall) continue;
        if (!FusibleOp(c.name(), c.args().size())) continue;
        if (memo_.count(c.Signature()) > 0) continue;
        if (use_count(c) > use_count(*cur)) continue;
        std::optional<TypeId> ct = InferType(input, c);
        if (!ct || *ct != T) continue;
        prev_child = &c;
        prev_side = static_cast<int>(side);
        break;
      }
    }
    Link link;
    link.node = cur;
    link.op = opk;
    if (args.size() == 1) {
      if (prev_child != nullptr) {
        link.shape = fused::Shape::kP;
      } else {
        link.shape = fused::Shape::kC;
        link.leaf0 = args[0].get();
      }
    } else if (prev_child == nullptr) {
      const Expr* l = args[0].get();
      const Expr* r = args[1].get();
      bool lval = l->kind() == Expr::Kind::kConst;
      bool rval = r->kind() == Expr::Kind::kConst;
      if (lval && rval) return false;  // no val-val kernels
      link.shape = lval ? fused::Shape::kVC
                        : rval ? fused::Shape::kCV : fused::Shape::kCC;
      link.leaf0 = l;
      link.leaf1 = r;
    } else if (prev_side == 0) {  // prev <op> leaf
      const Expr* leaf = args[1].get();
      link.shape = leaf->kind() == Expr::Kind::kConst ? fused::Shape::kPV
                                                      : fused::Shape::kPC;
      link.leaf0 = leaf;
    } else {  // leaf <op> prev
      const Expr* leaf = args[0].get();
      link.shape = leaf->kind() == Expr::Kind::kConst ? fused::Shape::kVP
                                                      : fused::Shape::kCP;
      link.leaf0 = leaf;
    }
    rev.push_back(link);
    if (prev_child == nullptr) break;
    cur = prev_child;
  }
  if (rev.size() < 2) return false;
  std::reverse(rev.begin(), rev.end());
  std::vector<Link> chain = std::move(rev);

  // Adaptive registry match: the generator pre-instantiates every depth-2
  // shape but only the depth-3 shapes a workload binds, so on a miss the
  // deepest node leaves the chain (its subtree becomes an ordinary leaf,
  // bound recursively — where it may fuse on its own) and the shorter chain
  // is probed again. A depth-3 chain thus degrades to a fused depth-2 step
  // plus an interpreted step, never to a whole-chain fallback.
  const MapPrimitive* prim = nullptr;
  std::vector<fused::StepSig> sig;
  std::string name;
  while (chain.size() >= 2) {
    sig.clear();
    for (const Link& l : chain) sig.emplace_back(l.op, l.shape);
    name = fused::KernelName(T, sig);
    prim = PrimitiveRegistry::Get().FindMap(name);
    if (prim != nullptr) break;
    const Expr* dropped = chain.front().node;
    chain.erase(chain.begin());
    Link& first = chain.front();
    switch (first.shape) {
      case fused::Shape::kP:
        first.shape = fused::Shape::kC;
        first.leaf0 = dropped;
        break;
      case fused::Shape::kPC:  // prev op col  ->  col op col
        first.shape = fused::Shape::kCC;
        first.leaf1 = first.leaf0;
        first.leaf0 = dropped;
        break;
      case fused::Shape::kPV:  // prev op val  ->  col op val
        first.shape = fused::Shape::kCV;
        first.leaf1 = first.leaf0;
        first.leaf0 = dropped;
        break;
      case fused::Shape::kCP:  // col op prev  ->  col op col
        first.shape = fused::Shape::kCC;
        first.leaf1 = dropped;
        break;
      case fused::Shape::kVP:  // val op prev  ->  val op col
        first.shape = fused::Shape::kVC;
        first.leaf1 = dropped;
        break;
      default:
        X100_CHECK(false && "first link cannot have a prev-extension shape");
    }
  }
  if (prim == nullptr) return false;

  // Validate leaves: constants must be numeric (StoreConst converts them to
  // T exactly like the generic path), columns/subtrees must bind to a
  // castable non-string type. Still no emission.
  size_t saved = 2 * TypeWidth(T) * (chain.size() - 1);
  if (saved < kMinFusedSavedBytes) return false;
  for (const Link& l : chain) {
    for (const Expr* leaf : {l.leaf0, l.leaf1}) {
      if (leaf == nullptr) continue;
      if (leaf->kind() == Expr::Kind::kConst) {
        if (leaf->value().type() == TypeId::kStr) return false;
      } else {
        std::optional<TypeId> lt = InferType(input, *leaf);
        if (!lt || *lt == TypeId::kStr) return false;
      }
    }
  }

  // --- Emit phase: bind the leaves, then one fused step. ---
  MapStep step;
  step.prim = prim;
  int ncols = 0;
  for (const Link& l : chain) {
    for (const Expr* leaf : {l.leaf0, l.leaf1}) {
      if (leaf == nullptr) continue;
      if (leaf->kind() == Expr::Kind::kConst) {
        step.args.push_back(
            {ArgRef::Src::kConst, 0, StoreConst(leaf->value(), T), false, 0});
      } else {
        ValueNode n = Cast(Decode(BindValue(input, *leaf)), T);
        X100_CHECK(n.ref.is_col);
        step.args.push_back(n.ref);
        ncols++;
      }
    }
  }
  X100_CHECK(static_cast<int>(step.args.size()) == prim->num_args);
  step.res_reg = AllocReg(T);
  step.stats = Stats(name);
  step.bytes_per_tuple = TypeWidth(T) * (1 + ncols);
  step.saved_bytes_per_tuple = saved;
  if (trace_parent_ != nullptr && ctx_->trace != nullptr) {
    step.tnode = ctx_->trace->NewNode(fused::DisplayName(sig), name, {});
    ctx_->trace->AttachChild(trace_parent_, step.tnode);
  }
  steps_.push_back(std::move(step));

  out->ref = {ArgRef::Src::kReg, steps_.back().res_reg, nullptr, true,
              TypeWidth(T)};
  out->type = T;
  out->dict = DictRef{};
  return true;
}

ValueNode Program::BindValue(const Schema& input, const Expr& expr) {
  std::string sig = expr.Signature();
  auto it = memo_.find(sig);
  if (it != memo_.end()) return it->second;

  ValueNode node;
  switch (expr.kind()) {
    case Expr::Kind::kColumn: {
      int ci = BindColumn(input, expr.name(), label_.c_str());
      const Field& f = input.field(ci);
      node.ref = {ArgRef::Src::kBatchCol, ci, nullptr, true, TypeWidth(f.type)};
      node.type = PrimType(f.type);
      node.dict = f.dict;
      break;
    }
    case Expr::Kind::kConst: {
      TypeId t = PrimType(expr.value().type());
      node.ref = {ArgRef::Src::kConst, 0, StoreConst(expr.value(), t), false, 0};
      node.type = t;
      break;
    }
    case Expr::Kind::kCall:
      node = BindCall(input, expr);
      break;
  }
  memo_[sig] = node;
  return node;
}

ValueNode Program::BindCall(const Schema& input, const Expr& expr) {
  const std::string& fn = expr.name();
  if (IsComparisonFn(fn) || fn == "and" || fn == "or") {
    Fail("predicate '" + fn + "' used as a value");
  }
  // Arity of the function forms below (binary arithmetic when unlisted).
  size_t arity = 2;
  if (fn == "mahalanobis") {
    arity = 3;
  } else if (fn == "sqrt" || fn == "square" || fn == "neg" || fn == "dbl" ||
             fn == "i64" || fn == "year" || fn == "widen") {
    arity = 1;
  } else if (fn != "add" && fn != "sub" && fn != "mul" && fn != "div") {
    Fail("unknown function '" + fn + "'");
  }
  if (expr.args().size() != arity) {
    Fail("'" + fn + "' takes " + std::to_string(arity) + " argument" +
         (arity == 1 ? "" : "s") + ", got " +
         std::to_string(expr.args().size()));
  }
  if (ExprPtr m = ExpandMacro(expr)) return BindValue(input, *m);

  // Adaptive chain fusion (§4.2 generalized): probe for a 2..3-node
  // arithmetic chain rooted here whose pre-generated kernel exists in the
  // registry, and bind the whole chain as one fused step — the intermediates
  // stay in registers instead of round-tripping through vectors.
  {
    ValueNode fused_out;
    if (TryFuseChain(input, expr, &fused_out)) return fused_out;
  }

  if (fn == "sqrt" || fn == "square" || fn == "neg") {
    ValueNode a = Decode(BindValue(input, *expr.args()[0]));
    if (!a.ref.is_col) Fail(fn + " takes a column argument");
    TypeId t = fn == "neg" && ArithType(a.type) == TypeId::kI64 ? TypeId::kI64
                                                                : TypeId::kF64;
    a = Cast(a, t);
    std::string name = "map_" + fn + "_" + PrimTypeName(t) + "_col";
    const MapPrimitive* prim = PrimitiveRegistry::Get().FindMap(name);
    if (prim == nullptr) Fail("no primitive '" + name + "'");
    MapStep step;
    step.prim = prim;
    step.args.push_back(a.ref);
    step.res_reg = AllocReg(t);
    step.stats = Stats(name);
    step.bytes_per_tuple = 2 * TypeWidth(t);
    steps_.push_back(std::move(step));
    ValueNode out;
    out.ref = {ArgRef::Src::kReg, steps_.back().res_reg, nullptr, true, TypeWidth(t)};
    out.type = t;
    return out;
  }

  // Explicit cast functions used by plans: dbl(x), i64(x).
  if (fn == "dbl" || fn == "i64") {
    ValueNode a = Decode(BindValue(input, *expr.args()[0]));
    return Cast(a, fn == "dbl" ? TypeId::kF64 : TypeId::kI64);
  }

  // year(x): calendar year of a date column.
  if (fn == "year") {
    ValueNode a = Decode(BindValue(input, *expr.args()[0]));
    if (!(PrimType(a.type) == TypeId::kI32 && a.ref.is_col)) {
      Fail("year takes a date column argument");
    }
    std::string name = "map_year_i32_col";
    const MapPrimitive* prim = PrimitiveRegistry::Get().FindMap(name);
    MapStep step;
    step.prim = prim;
    step.args.push_back(a.ref);
    step.res_reg = AllocReg(TypeId::kI32);
    step.stats = Stats(name);
    step.bytes_per_tuple = 8;
    steps_.push_back(std::move(step));
    ValueNode out;
    out.ref = {ArgRef::Src::kReg, steps_.back().res_reg, nullptr, true, 4};
    out.type = TypeId::kI32;
    return out;
  }

  // widen(x): decode and promote to an aggregation-friendly type
  // (i32 / i64 / f64 / str); used on aggregate inputs.
  if (fn == "widen") {
    ValueNode a = Decode(BindValue(input, *expr.args()[0]));
    if (a.type == TypeId::kStr) return a;
    return Cast(a, ArithType(a.type));
  }

  // Generic binary arithmetic.
  const Expr& le = *expr.args()[0];
  const Expr& re = *expr.args()[1];

  ValueNode l = Decode(BindValue(input, le));
  ValueNode r = Decode(BindValue(input, re));
  TypeId t = CommonType(ArithType(l.type), ArithType(r.type));
  // Constants were stored in their literal type; rebind them in `t`.
  if (le.kind() == Expr::Kind::kConst) {
    l.ref.cptr = StoreConst(le.value(), t);
    l.type = t;
  } else {
    l = Cast(l, t);
  }
  if (re.kind() == Expr::Kind::kConst) {
    r.ref.cptr = StoreConst(re.value(), t);
    r.type = t;
  } else {
    r = Cast(r, t);
  }
  if (!l.ref.is_col && !r.ref.is_col) {
    Fail("'" + fn + "' of two constants");
  }

  std::string name = "map_" + fn + "_" + PrimTypeName(t) +
                     (l.ref.is_col ? "_col_" : "_val_") + PrimTypeName(t) +
                     (r.ref.is_col ? "_col" : "_val");
  const MapPrimitive* prim = PrimitiveRegistry::Get().FindMap(name);
  if (prim == nullptr) Fail("no primitive '" + name + "'");
  MapStep step;
  step.prim = prim;
  step.args = {l.ref, r.ref};
  step.res_reg = AllocReg(t);
  step.stats = Stats(name);
  step.bytes_per_tuple = TypeWidth(t) * (1 + (l.ref.is_col ? 1 : 0) +
                                         (r.ref.is_col ? 1 : 0));
  steps_.push_back(std::move(step));
  ValueNode out;
  out.ref = {ArgRef::Src::kReg, steps_.back().res_reg, nullptr, true, TypeWidth(t)};
  out.type = t;
  return out;
}

const void* Program::ArgPtr(const ArgRef& a, VectorBatch* batch) {
  switch (a.src) {
    case ArgRef::Src::kBatchCol:
      return batch->column(a.index).data();
    case ArgRef::Src::kReg:
      return registers_[a.index].data();
    case ArgRef::Src::kConst:
    case ArgRef::Src::kDictBase:
      return a.cptr;
  }
  return nullptr;
}

void Program::RunSteps(VectorBatch* batch) {
  X100_CHECK(batch->count() <= ctx_->vector_size);
  const int* sel = batch->sel();
  int n = batch->sel_count();
  const void* args[8];  // fused depth-3 chains take up to 4 operands
  for (MapStep& step : steps_) {
    X100_CHECK(step.args.size() <= 8);
    for (size_t i = 0; i < step.args.size(); i++) {
      args[i] = ArgPtr(step.args[i], batch);
    }
    void* res = registers_[step.res_reg].data();
    auto run = [&] {
      if (step.stats) {
        ScopedCycles cycles(step.stats);
        step.prim->fn(n, res, args, sel);
        step.stats->calls++;
        step.stats->tuples += n;
        step.stats->bytes += static_cast<uint64_t>(n) * step.bytes_per_tuple;
      } else {
        step.prim->fn(n, res, args, sel);
      }
    };
    if (step.tnode != nullptr) {
      // Fused steps show up in EXPLAIN ANALYZE as their own plan node under
      // the operator that bound them.
      step.tnode->next_calls++;
      step.tnode->batches++;
      step.tnode->tuples += static_cast<uint64_t>(n);
      step.tnode->AddCounter(
          "map.fused.saved_bytes",
          static_cast<uint64_t>(n) * step.saved_bytes_per_tuple);
      ScopedCounters sc(step.tnode);
      run();
    } else {
      run();
    }
  }
}

}  // namespace bind_internal

int BindColumn(const Schema& input, const std::string& name, const char* op) {
  int ci = input.Find(name);
  if (ci < 0) {
    throw std::invalid_argument(std::string("bind error in ") + op +
                                ": no column '" + name + "' in " +
                                input.ToString());
  }
  return ci;
}

// ---- MultiExprEvaluator -----------------------------------------------------

MultiExprEvaluator::MultiExprEvaluator(ExecContext* ctx, const Schema& input,
                                       const std::vector<const Expr*>& exprs,
                                       const std::string& label,
                                       TraceNode* trace_parent)
    : program_(ctx, label, trace_parent) {
  // Count shared subtrees across all expressions first: the chain fuser must
  // not absorb a subtree that CSE would otherwise compute once.
  for (const Expr* e : exprs) program_.NoteSubtreeUses(*e);
  results_.reserve(exprs.size());
  for (const Expr* e : exprs) {
    results_.push_back(program_.BindValue(input, *e));
  }
}

void MultiExprEvaluator::Eval(VectorBatch* batch) { program_.RunSteps(batch); }

MultiExprEvaluator::Out MultiExprEvaluator::Result(int i, VectorBatch* batch) {
  const bind_internal::ValueNode& node = results_[i];
  return {program_.ArgPtr(node.ref, batch), node.type, node.dict, node.ref.is_col};
}

}  // namespace x100
