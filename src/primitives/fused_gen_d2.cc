#include "primitives/fused_gen.h"

// Depth-2 fused chains: the full f64 cross product (every binary op and
// shape on both steps, plus unary neg/square) and the i64 subset — no i64
// div (SIGFPE / INT64_MIN÷-1 hazards stay in the interpreted kernels where
// both paths share them) and no i64 square (the generic binder computes
// square in f64, so an i64 square chain can never be type-uniform).

namespace x100::fused_gen {

namespace {

using FirstI64 = CatT<Bin3<OpK::kAdd>, Bin3<OpK::kSub>, Bin3<OpK::kMul>,
                      L<St<OpK::kNeg, Shape::kC>>>;
using ExtI64 = CatT<Ext4<OpK::kAdd>, Ext4<OpK::kSub>, Ext4<OpK::kMul>,
                    L<St<OpK::kNeg, Shape::kP>>>;

}  // namespace

void RegisterFusedD2(PrimitiveRegistry* r) {
  Gen2<double, FirstF64, ExtFullF64>(r);  // 14 × 18
  Gen2<int64_t, FirstI64, ExtI64>(r);     // 10 × 13
}

}  // namespace x100::fused_gen

namespace x100 {

void RegisterFusedChainPrimitives(PrimitiveRegistry* r) {
  fused_gen::RegisterFusedD2(r);
  fused_gen::RegisterFusedD3(r);
}

}  // namespace x100
