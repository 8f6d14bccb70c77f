#ifndef X100_PRIMITIVES_PRIMITIVE_H_
#define X100_PRIMITIVES_PRIMITIVE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/types.h"

namespace x100 {

/// Vectorized execution primitives (§4.2).
///
/// X100 generates hundreds of primitives from patterns; here the generator is
/// a template + macro layer (see map_arith.cc etc.) and every instantiation is
/// registered under its paper-style signature name, e.g.
///   map_add_f64_col_f64_col, select_lt_i32_col_i32_val, aggr_sum_f64_col.
///
/// All primitives accept an optional selection vector `sel` (ascending
/// positions, `n` entries when present): results are written *at the selected
/// positions*, leaving unselected slots untouched, exactly as in §4.1.1.

/// Map primitive: res[i] = f(args...[i]) for the n (selected) positions.
/// `args` point at column data or at a single constant, fixed at bind time by
/// the _col/_val suffixes in the name.
using MapFn = void (*)(int n, void* res, const void* const* args, const int* sel);

/// Select primitive: fills `res_sel` with qualifying positions, returns how
/// many. When `sel` is non-null only those positions are tested (chained
/// conjunctions keep selection vectors ascending).
using SelectFn = int (*)(int n, int* res_sel, const void* const* args, const int* sel);

/// Aggregate-update primitive: agg[group[i]] op= col[i] for the n (selected)
/// positions. `groups` may be null, meaning group 0 (scalar aggregates).
using AggrFn = void (*)(int n, void* agg, const uint32_t* groups, const void* col,
                        const int* sel);

struct MapPrimitive {
  TypeId result;
  int num_args;
  MapFn fn;
};

struct SelectPrimitive {
  int num_args;
  SelectFn fn;
};

struct AggrPrimitive {
  TypeId state_type;  // accumulator slot type (i32 sums widen to i64)
  AggrFn fn;
};

/// Name → primitive tables, built once. The exec-layer binder composes names
/// from expression trees and resolves them here (the analogue of the paper's
/// signature-request files resolved against generated code).
class PrimitiveRegistry {
 public:
  static const PrimitiveRegistry& Get();

  const MapPrimitive* FindMap(const std::string& name) const;
  const SelectPrimitive* FindSelect(const std::string& name) const;
  const AggrPrimitive* FindAggr(const std::string& name) const;

  void RegisterMap(const std::string& name, TypeId result, int num_args, MapFn fn);
  void RegisterSelect(const std::string& name, int num_args, SelectFn fn);
  void RegisterAggr(const std::string& name, TypeId state, AggrFn fn);

  /// Number of registered primitives (the paper quotes "hundreds").
  size_t size() const { return maps_.size() + selects_.size() + aggrs_.size(); }

  std::vector<std::string> MapNames() const;

 private:
  PrimitiveRegistry() = default;

  std::map<std::string, MapPrimitive> maps_;
  std::map<std::string, SelectPrimitive> selects_;
  std::map<std::string, AggrPrimitive> aggrs_;
};

// Per-family registration hooks, called once from PrimitiveRegistry::Get().
void RegisterMapArith(PrimitiveRegistry* r);
void RegisterMapCast(PrimitiveRegistry* r);
void RegisterSelectCmp(PrimitiveRegistry* r);
void RegisterAggrPrimitives(PrimitiveRegistry* r);
void RegisterFetchHash(PrimitiveRegistry* r);
void RegisterStringPrimitives(PrimitiveRegistry* r);
void RegisterFusedChainPrimitives(PrimitiveRegistry* r);

}  // namespace x100

#endif  // X100_PRIMITIVES_PRIMITIVE_H_
