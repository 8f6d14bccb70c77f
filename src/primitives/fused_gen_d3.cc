#include "primitives/fused_gen.h"

// Deep fused chains: only the depth-3 f64 shapes something binds, not a
// cross product. The binder shrinks any other deep chain until its name
// hits the registry, so it binds as a depth-2 fused step plus interpreted
// steps, with bit-identical results. Add a shape here when a query, an
// example or a gated bench binds it (tests/fusion_test.cc pins the TPC-H
// set).

namespace x100::fused_gen {

void RegisterFusedD3(PrimitiveRegistry* r) {
  // TPC-H Q9's amount: (1 - l_discount) * l_extendedprice - cost, where
  // cost = ps_supplycost * l_quantity binds first as its own step.
  Reg1<double, St<OpK::kSub, Shape::kVC>, St<OpK::kMul, Shape::kPC>,
       St<OpK::kSub, Shape::kPC>>(r);
  // mahalanobis(a, b, c) = square(a - b) / c, the paper's §4.2 example
  // (examples/multimedia_distance, bench/fusion's depth-3 gate).
  Reg1<double, St<OpK::kSub, Shape::kCC>, St<OpK::kSquare, Shape::kP>,
       St<OpK::kDiv, Shape::kPC>>(r);
  // Squared distance term (x - cx)^2 + (y - cy)^2 (examples/kmeans).
  Reg1<double, St<OpK::kSub, Shape::kCC>, St<OpK::kSquare, Shape::kP>,
       St<OpK::kAdd, Shape::kPC>>(r);
}

}  // namespace x100::fused_gen
