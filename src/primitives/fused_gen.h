#ifndef X100_PRIMITIVES_FUSED_GEN_H_
#define X100_PRIMITIVES_FUSED_GEN_H_

// Template-metaprogramming kernel generator for fused map-primitive chains.
// One FusedMap<T, Steps...> instantiation evaluates a whole 2..3-node chain
// of add/sub/mul/div/neg/square per element, intermediates never leaving
// registers — the paper's §4.2 compound primitives, but generated from
// (op × operand-shape) step descriptors instead of hand-written per
// pattern. fused_gen_d2.cc enumerates the full depth-2 cross product;
// fused_gen_d3.cc lists the few deeper shapes a workload binds. Both
// register each instantiation under its fused::KernelName; the binder then
// treats a registry hit as "this chain shape is fusable".
//
// Include only from primitives/fused_gen_d*.cc.

#include <cstdint>
#include <utility>
#include <vector>

#include "primitives/fused.h"
#include "primitives/primitive.h"

namespace x100::fused_gen {

using fused::OpK;
using fused::Shape;

/// Compile-time chain step descriptor.
template <OpK O, Shape S>
struct St {
  static constexpr OpK kOp = O;
  static constexpr Shape kShape = S;
};

template <typename T, OpK Op>
inline T Apply2(T a, T b) {
  if constexpr (Op == OpK::kAdd) return a + b;
  else if constexpr (Op == OpK::kSub) return a - b;
  else if constexpr (Op == OpK::kMul) return a * b;
  else return a / b;
}

template <typename T, OpK Op>
inline T Apply1(T a) {
  if constexpr (Op == OpK::kNeg) return -a;
  else return a * a;  // square
}

/// Per-step operand pointers/values, loaded once before the loop (the same
/// hoist the hand-written kernels in kernels.h do by declaration order).
template <typename T>
struct Bound {
  const T* a = nullptr;  // column operand (left / only)
  const T* b = nullptr;  // column operand (right of a CC step)
  T v{};                 // value operand
};

template <typename T, typename S>
inline Bound<T> BindStep(const void* const* args, int* k) {
  Bound<T> bnd;
  constexpr Shape sh = S::kShape;
  if constexpr (sh == Shape::kCC) {
    bnd.a = static_cast<const T*>(args[(*k)++]);
    bnd.b = static_cast<const T*>(args[(*k)++]);
  } else if constexpr (sh == Shape::kCV) {
    bnd.a = static_cast<const T*>(args[(*k)++]);
    bnd.v = *static_cast<const T*>(args[(*k)++]);
  } else if constexpr (sh == Shape::kVC) {
    bnd.v = *static_cast<const T*>(args[(*k)++]);
    bnd.b = static_cast<const T*>(args[(*k)++]);
  } else if constexpr (sh == Shape::kC || sh == Shape::kPC ||
                       sh == Shape::kCP) {
    bnd.a = static_cast<const T*>(args[(*k)++]);
  } else if constexpr (sh == Shape::kPV || sh == Shape::kVP) {
    bnd.v = *static_cast<const T*>(args[(*k)++]);
  }
  // Shape::kP consumes no slot.
  return bnd;
}

template <typename T, typename S>
inline T EvalStep(const Bound<T>& bnd, int i, [[maybe_unused]] T prev) {
  constexpr Shape sh = S::kShape;
  if constexpr (sh == Shape::kCC) return Apply2<T, S::kOp>(bnd.a[i], bnd.b[i]);
  else if constexpr (sh == Shape::kCV) return Apply2<T, S::kOp>(bnd.a[i], bnd.v);
  else if constexpr (sh == Shape::kVC) return Apply2<T, S::kOp>(bnd.v, bnd.b[i]);
  else if constexpr (sh == Shape::kC)  return Apply1<T, S::kOp>(bnd.a[i]);
  else if constexpr (sh == Shape::kPC) return Apply2<T, S::kOp>(prev, bnd.a[i]);
  else if constexpr (sh == Shape::kPV) return Apply2<T, S::kOp>(prev, bnd.v);
  else if constexpr (sh == Shape::kCP) return Apply2<T, S::kOp>(bnd.a[i], prev);
  else if constexpr (sh == Shape::kVP) return Apply2<T, S::kOp>(bnd.v, prev);
  else return Apply1<T, S::kOp>(prev);  // kP
}

template <typename T, typename... Ss, size_t... I>
inline T EvalChain(const Bound<T>* bs, int i, std::index_sequence<I...>) {
  T acc{};
  ((acc = EvalStep<T, Ss>(bs[I], i, acc)), ...);
  return acc;
}

/// The generated kernel. Same contract as every map primitive: writes at
/// the selected positions only. Only the result pointer needs __restrict__
/// for the no-sel loop to vectorize — loads can then never be clobbered by
/// the stores.
template <typename T, typename... Ss>
void FusedMap(int n, void* res, const void* const* args, const int* sel) {
  T* __restrict__ r = static_cast<T*>(res);
  Bound<T> bs[sizeof...(Ss)];
  {
    int idx = 0, k = 0;
    ((bs[idx++] = BindStep<T, Ss>(args, &k)), ...);
  }
  constexpr auto kIdx = std::index_sequence_for<Ss...>{};
  if (sel) {
    for (int j = 0; j < n; j++) {
      int i = sel[j];
      r[i] = EvalChain<T, Ss...>(bs, i, kIdx);
    }
  } else {
    for (int i = 0; i < n; i++) r[i] = EvalChain<T, Ss...>(bs, i, kIdx);
  }
}

// ---- enumeration machinery --------------------------------------------------

template <typename... Ts>
struct L {};

template <typename T>
struct Tag {
  using type = T;
};

template <typename... Ts, typename F>
inline void ForEach(L<Ts...>, F&& f) {
  (f(Tag<Ts>{}), ...);
}

template <typename... Ls>
struct Cat;
template <typename L1>
struct Cat<L1> {
  using type = L1;
};
template <typename... As, typename... Bs, typename... Rest>
struct Cat<L<As...>, L<Bs...>, Rest...> {
  using type = typename Cat<L<As..., Bs...>, Rest...>::type;
};
template <typename... Ls>
using CatT = typename Cat<Ls...>::type;

template <typename T>
struct TypeOf;
template <>
struct TypeOf<double> {
  static constexpr TypeId kId = TypeId::kF64;
};
template <>
struct TypeOf<int64_t> {
  static constexpr TypeId kId = TypeId::kI64;
};

template <typename T, typename... Ss>
void Reg1(PrimitiveRegistry* r) {
  std::vector<fused::StepSig> sig{{Ss::kOp, Ss::kShape}...};
  r->RegisterMap(fused::KernelName(TypeOf<T>::kId, sig), TypeOf<T>::kId,
                 (0 + ... + fused::Slots(Ss::kShape)), &FusedMap<T, Ss...>);
}

template <typename T, typename L0, typename L1>
void Gen2(PrimitiveRegistry* r) {
  ForEach(L0{}, [r](auto t0) {
    using S0 = typename decltype(t0)::type;
    ForEach(L1{}, [r](auto t1) {
      using S1 = typename decltype(t1)::type;
      Reg1<T, S0, S1>(r);
    });
  });
}

// ---- shared step lists ------------------------------------------------------

/// Binary op in the three first-step shapes.
template <OpK O>
using Bin3 = L<St<O, Shape::kCC>, St<O, Shape::kCV>, St<O, Shape::kVC>>;
/// Binary op in all four extension shapes.
template <OpK O>
using Ext4 = L<St<O, Shape::kPC>, St<O, Shape::kPV>, St<O, Shape::kCP>,
               St<O, Shape::kVP>>;

/// All f64 first steps: four binary ops × three shapes, plus unary neg /
/// square over a column.
using FirstF64 = CatT<Bin3<OpK::kAdd>, Bin3<OpK::kSub>, Bin3<OpK::kMul>,
                      Bin3<OpK::kDiv>,
                      L<St<OpK::kNeg, Shape::kC>, St<OpK::kSquare, Shape::kC>>>;
/// All f64 extension steps.
using ExtFullF64 = CatT<Ext4<OpK::kAdd>, Ext4<OpK::kSub>, Ext4<OpK::kMul>,
                        Ext4<OpK::kDiv>,
                        L<St<OpK::kNeg, Shape::kP>, St<OpK::kSquare, Shape::kP>>>;

// Per-depth registration entry points, one TU each. Together they are
// hooked into PrimitiveRegistry::Get() via RegisterFusedChainPrimitives
// (primitive.h).
void RegisterFusedD2(PrimitiveRegistry* r);  // f64 + i64 depth-2 chains
void RegisterFusedD3(PrimitiveRegistry* r);  // bound f64 depth-3 chains

}  // namespace x100::fused_gen

#endif  // X100_PRIMITIVES_FUSED_GEN_H_
