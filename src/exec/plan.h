#ifndef X100_EXEC_PLAN_H_
#define X100_EXEC_PLAN_H_

// Plan-builder DSL: thin factories so hand-translated query plans read like
// the X100 algebra of Figure 9. Everything returns std::unique_ptr<Operator>.
//
// When ExecContext::trace is set, each factory wraps its operator in an
// InstrumentedOperator (exec/trace.h), so plans built through this DSL come
// out pre-wired for EXPLAIN ANALYZE. Operator options travel in spec structs
// (ScanSpec, JoinSpec) so factories stay single-signature and call sites use
// designated initializers instead of positional argument lists.

#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "exec/aggr.h"
#include "exec/basic_ops.h"
#include "exec/bm_scan.h"
#include "exec/exchange.h"
#include "exec/join.h"
#include "exec/materialize.h"
#include "exec/scan.h"
#include "exec/sort.h"
#include "exec/trace.h"
#include "storage/catalog.h"

namespace x100::plan {

using OpPtr = std::unique_ptr<Operator>;

/// ColumnBM block scan configured by a BmScanSpec (columns + compression,
/// morsel share — see exec/bm_scan.h). When tracing, the scan's
/// prefetch.* / pool.* counters land on this node at Close().
inline OpPtr BmScan(ExecContext* ctx, ColumnBm* bm, const Table& t,
                    BmScanSpec spec) {
  std::string detail = t.name();
  if (spec.compress) {
    detail += spec.codec ? " " + std::string(Codec::Name(*spec.codec)) : " cmp";
  }
  if (spec.morsel.num_workers > 1) {
    detail += " morsel " + std::to_string(spec.morsel.worker) + "/" +
              std::to_string(spec.morsel.num_workers);
  }
  auto s = std::make_unique<BmScanOp>(ctx, bm, t, std::move(spec));
  BmScanOp* raw = s.get();
  OpPtr wrapped =
      MaybeTrace(ctx, std::move(s), "BmScan", std::move(detail), {});
  if (ctx->trace != nullptr) {
    raw->set_trace_node(
        static_cast<InstrumentedOperator*>(wrapped.get())->node());
  }
  return wrapped;
}

/// Table scan configured by a ScanSpec (columns + optional summary-index
/// range, #rowId emission, and morsel share — see exec/scan.h).
///
/// The storage tier comes from the context, not the plan: when
/// ExecContext::blocks serves `t` (it is one of that catalog's tables), the
/// scan reads ColumnBM blocks through BmScan. There the range is only a
/// pruning hint the block path does without — the plan's Select applies the
/// exact predicate — and #rowId emission throws std::invalid_argument.
inline OpPtr Scan(ExecContext* ctx, const Table& t, ScanSpec spec) {
  const BlockSource& src = ctx->blocks;
  if (src.bm != nullptr && src.catalog != nullptr &&
      src.catalog->Find(t.name()) == &t) {
    if (!spec.rowid.empty()) {
      throw std::invalid_argument("Scan: #rowId emission (" + spec.rowid +
                                  ") is not supported on block scans of '" +
                                  t.name() + "'");
    }
    return BmScan(ctx, src.bm, t,
                  {.cols = std::move(spec.cols),
                   .compress = src.compress,
                   .codec = src.codec,
                   .morsel = spec.morsel});
  }
  std::string detail = t.name();
  if (spec.range) detail += " range:" + spec.range->col;
  if (!spec.rowid.empty()) detail += " +rowid";
  if (spec.morsel.num_workers > 1) {
    detail += " morsel " + std::to_string(spec.morsel.worker) + "/" +
              std::to_string(spec.morsel.num_workers);
  }
  auto s = std::make_unique<ScanOp>(ctx, t, std::move(spec));
  return MaybeTrace(ctx, std::move(s), "Scan", std::move(detail), {});
}

/// Convenience: full-table scan of `cols`.
inline OpPtr Scan(ExecContext* ctx, const Table& t,
                  std::vector<std::string> cols) {
  return Scan(ctx, t, ScanSpec{.cols = std::move(cols)});
}

inline OpPtr Select(ExecContext* ctx, OpPtr child, ExprPtr pred) {
  const Operator* c = child.get();
  auto op = std::make_unique<SelectOp>(ctx, std::move(child), std::move(pred));
  SelectOp* raw = op.get();
  OpPtr wrapped = MaybeTrace(ctx, std::move(op), "Select", "", {c});
  if (ctx->trace != nullptr) {
    raw->set_trace_node(
        static_cast<InstrumentedOperator*>(wrapped.get())->node());
  }
  return wrapped;
}

inline OpPtr Project(ExecContext* ctx, OpPtr child, std::vector<NamedExpr> e) {
  const Operator* c = child.get();
  auto op = std::make_unique<ProjectOp>(ctx, std::move(child), std::move(e));
  ProjectOp* raw = op.get();
  OpPtr wrapped = MaybeTrace(ctx, std::move(op), "Project", "", {c});
  if (ctx->trace != nullptr) {
    raw->set_trace_node(
        static_cast<InstrumentedOperator*>(wrapped.get())->node());
  }
  return wrapped;
}

inline OpPtr HashAggr(ExecContext* ctx, OpPtr child,
                      std::vector<std::string> group_by,
                      std::vector<AggrSpec> aggrs) {
  const Operator* c = child.get();
  auto op = std::make_unique<HashAggrOp>(ctx, std::move(child),
                                         std::move(group_by), std::move(aggrs));
  HashAggrOp* raw = op.get();
  OpPtr wrapped = MaybeTrace(ctx, std::move(op), "HashAggr", "", {c});
  if (ctx->trace != nullptr) {
    raw->set_trace_node(
        static_cast<InstrumentedOperator*>(wrapped.get())->node());
  }
  return wrapped;
}

inline OpPtr DirectAggr(ExecContext* ctx, OpPtr child,
                        std::vector<std::string> group_by,
                        std::vector<AggrSpec> aggrs) {
  const Operator* c = child.get();
  auto op = std::make_unique<DirectAggrOp>(ctx, std::move(child),
                                           std::move(group_by),
                                           std::move(aggrs));
  DirectAggrOp* raw = op.get();
  OpPtr wrapped = MaybeTrace(ctx, std::move(op), "DirectAggr", "", {c});
  if (ctx->trace != nullptr) {
    raw->set_trace_node(
        static_cast<InstrumentedOperator*>(wrapped.get())->node());
  }
  return wrapped;
}

inline OpPtr OrdAggr(ExecContext* ctx, OpPtr child,
                     std::vector<std::string> group_by,
                     std::vector<AggrSpec> aggrs) {
  const Operator* c = child.get();
  auto op = std::make_unique<OrdAggrOp>(ctx, std::move(child),
                                        std::move(group_by), std::move(aggrs));
  OrdAggrOp* raw = op.get();
  OpPtr wrapped = MaybeTrace(ctx, std::move(op), "OrdAggr", "", {c});
  if (ctx->trace != nullptr) {
    raw->set_trace_node(
        static_cast<InstrumentedOperator*>(wrapped.get())->node());
  }
  return wrapped;
}

/// Equi-hash-join configured by a JoinSpec (keys, outputs, type — see
/// exec/join.h).
inline OpPtr Join(ExecContext* ctx, OpPtr probe, OpPtr build, JoinSpec spec) {
  const Operator* p = probe.get();
  const Operator* b = build.get();
  const char* label = JoinLabel(spec.type);
  auto op = std::make_unique<HashJoinOp>(ctx, std::move(probe),
                                         std::move(build), std::move(spec));
  HashJoinOp* raw = op.get();
  OpPtr wrapped = MaybeTrace(ctx, std::move(op), label, "", {p, b});
  if (ctx->trace != nullptr) {
    raw->set_trace_node(
        static_cast<InstrumentedOperator*>(wrapped.get())->node());
  }
  return wrapped;
}

inline OpPtr SemiJoin(ExecContext* ctx, OpPtr probe, OpPtr build,
                      JoinSpec spec) {
  spec.type = JoinType::kSemi;
  return Join(ctx, std::move(probe), std::move(build), std::move(spec));
}

inline OpPtr AntiJoin(ExecContext* ctx, OpPtr probe, OpPtr build,
                      JoinSpec spec) {
  spec.type = JoinType::kAnti;
  return Join(ctx, std::move(probe), std::move(build), std::move(spec));
}

inline OpPtr Fetch1Join(ExecContext* ctx, OpPtr child, const Table& target,
                        std::string rowid_col,
                        std::vector<std::pair<std::string, std::string>> fetch) {
  const Operator* c = child.get();
  auto op = std::make_unique<Fetch1JoinOp>(ctx, std::move(child), target,
                                           std::move(rowid_col),
                                           std::move(fetch));
  return MaybeTrace(ctx, std::move(op), "Fetch1Join", target.name(), {c});
}

inline OpPtr CartProd(ExecContext* ctx, OpPtr probe, OpPtr build,
                      std::vector<std::string> probe_out,
                      std::vector<std::string> build_out) {
  const Operator* p = probe.get();
  const Operator* b = build.get();
  auto op = std::make_unique<CartProdOp>(ctx, std::move(probe),
                                         std::move(build), std::move(probe_out),
                                         std::move(build_out));
  return MaybeTrace(ctx, std::move(op), "CartProd", "", {p, b});
}

inline OpPtr TopN(ExecContext* ctx, OpPtr child, std::vector<OrdKey> keys,
                  int64_t n) {
  const Operator* c = child.get();
  auto op = std::make_unique<TopNOp>(ctx, std::move(child), std::move(keys), n);
  return MaybeTrace(ctx, std::move(op), "TopN", std::to_string(n), {c});
}

inline OpPtr Order(ExecContext* ctx, OpPtr child, std::vector<OrdKey> keys) {
  const Operator* c = child.get();
  auto op = std::make_unique<OrderOp>(ctx, std::move(child), std::move(keys));
  return MaybeTrace(ctx, std::move(op), "Order", "", {c});
}

/// Xchg (§6): runs `num_workers` pipelines built by `factory` on pool
/// threads and merges their batches. When tracing, the per-worker subtrees
/// are aggregated into one subtree under this node at Close().
inline OpPtr Exchange(ExecContext* ctx, int num_workers, WorkerPlanFn factory,
                      int queue_capacity = 0) {
  auto op = std::make_unique<ExchangeOp>(ctx, num_workers, std::move(factory),
                                         queue_capacity);
  ExchangeOp* raw = op.get();
  OpPtr wrapped =
      MaybeTrace(ctx, std::move(op), "Exchange",
                 "workers=" + std::to_string(num_workers), {});
  if (ctx->trace != nullptr) {
    raw->set_trace_node(
        static_cast<InstrumentedOperator*>(wrapped.get())->node());
  }
  return wrapped;
}

}  // namespace x100::plan

#endif  // X100_EXEC_PLAN_H_
