#ifndef X100_PRIMITIVES_FUSED_H_
#define X100_PRIMITIVES_FUSED_H_

// Shared vocabulary of the fused-chain kernel generator (fused_gen.h) and
// the binder's chain pattern-matcher (exec/bound_expr.cc). A fused kernel
// evaluates a *linear chain* of 2..kMaxFusedChain arithmetic nodes in one
// loop, keeping every intermediate in a register (§4.2 compound
// primitives, generalized). Both sides compose the same canonical registry
// name from the chain's (op, shape) steps, so a registry hit is the
// adaptive "can we fuse this?" test.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/types.h"

namespace x100::fused {

/// Longest chain the generator instantiates kernels for.
inline constexpr int kMaxFusedChain = 3;

enum class OpK : uint8_t { kAdd, kSub, kMul, kDiv, kNeg, kSquare };

/// Operand shape of one chain step. The first step has no previous value;
/// extension steps combine the running value (`p`) with at most one leaf.
/// Leaf operands are `c` (column) or `v` (single value / constant). `cp` and
/// `vp` are kept distinct from `pc`/`pv`: FP ops are not commutative at the
/// bit level (NaN payload propagation follows operand order on SSE).
enum class Shape : uint8_t {
  kCC, kCV, kVC,  // first step, binary: col op col / col op val / val op col
  kC,             // first step, unary over a column
  kPC, kPV,       // extension: prev op col / prev op val
  kCP, kVP,       // extension: col op prev / val op prev
  kP,             // extension, unary over prev
};

constexpr bool IsUnaryOp(OpK op) { return op == OpK::kNeg || op == OpK::kSquare; }

/// Operand slots the step consumes from the primitive's args array.
constexpr int Slots(Shape s) {
  switch (s) {
    case Shape::kCC:
    case Shape::kCV:
    case Shape::kVC:
      return 2;
    case Shape::kP:
      return 0;
    default:
      return 1;
  }
}

constexpr const char* OpToken(OpK op) {
  switch (op) {
    case OpK::kAdd:    return "add";
    case OpK::kSub:    return "sub";
    case OpK::kMul:    return "mul";
    case OpK::kDiv:    return "div";
    case OpK::kNeg:    return "neg";
    case OpK::kSquare: return "square";
  }
  return "?";
}

constexpr const char* ShapeToken(Shape s) {
  switch (s) {
    case Shape::kCC: return "cc";
    case Shape::kCV: return "cv";
    case Shape::kVC: return "vc";
    case Shape::kC:  return "c";
    case Shape::kPC: return "pc";
    case Shape::kPV: return "pv";
    case Shape::kCP: return "cp";
    case Shape::kVP: return "vp";
    case Shape::kP:  return "p";
  }
  return "?";
}

using StepSig = std::pair<OpK, Shape>;

/// Canonical registry name, e.g. map_fused_sub_vc_mul_pc_f64 for
/// (V - a) * b over doubles.
inline std::string KernelName(TypeId t, const std::vector<StepSig>& steps) {
  std::string name = "map_fused";
  for (const StepSig& s : steps) {
    name += std::string("_") + OpToken(s.first) + "_" + ShapeToken(s.second);
  }
  name += std::string("_") + TypeName(t);
  return name;
}

/// EXPLAIN ANALYZE label, e.g. fused[sub>mul].
inline std::string DisplayName(const std::vector<StepSig>& steps) {
  std::string name = "fused[";
  for (size_t i = 0; i < steps.size(); i++) {
    if (i > 0) name += ">";
    name += OpToken(steps[i].first);
  }
  return name + "]";
}

}  // namespace x100::fused

#endif  // X100_PRIMITIVES_FUSED_H_
