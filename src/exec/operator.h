#ifndef X100_EXEC_OPERATOR_H_
#define X100_EXEC_OPERATOR_H_

#include <optional>
#include <string>

#include "common/cancel.h"
#include "common/config.h"
#include "common/profiling.h"
#include "exec/hash_table.h"
#include "storage/compression.h"
#include "vector/batch.h"

namespace x100 {

class Catalog;
class ColumnBm;
class QueryTrace;
struct SnapshotSet;

/// Where a query's scans of stored tables read from (§4.3: the same plan over
/// any level of the storage hierarchy). With `bm` unset every scan reads the
/// in-RAM fragments; with `bm` set, plan::Scan turns a scan of one of
/// `catalog`'s tables into a ColumnBM block scan (exec/bm_scan.h) and leaves
/// scans of anything else — materialized sub-results — in RAM.
struct BlockSource {
  ColumnBm* bm = nullptr;
  /// The catalog whose tables `bm` serves (matched by table identity).
  const Catalog* catalog = nullptr;
  /// Codec-compress integral columns on store (BmScanSpec::compress).
  bool compress = false;
  /// When set (and `compress`), every block uses this codec.
  std::optional<CodecId> codec;
};

/// Per-query execution settings shared by all operators of a plan.
struct ExecContext {
  /// Tuples per vector (§5.1.1; Figure 10 sweeps this).
  int vector_size = kDefaultVectorSize;
  /// Use the predicated select primitives instead of the branching ones
  /// (Figure 2's two code shapes).
  bool predicated_selects = false;
  /// Let the binder fuse arithmetic map-primitive chains into single
  /// compound kernels (§4.2: "dynamic compilation of compound primitives
  /// ... mandated by an optimizer"). Fused plans are bit-identical to the
  /// interpreted chain, so this defaults on via the strict-parsed X100_FUSE
  /// env knob; paper-trace benchmarks that want Table 5's single-primitive
  /// pipeline pin it off, and QueryRequest.fuse overrides it per query.
  bool fuse_compound_primitives = EnvFuse() != 0;
  /// When set, primitives and operators account calls/tuples/bytes/cycles
  /// here (the Table 5 trace). Null disables tracing.
  Profiler* profiler = nullptr;
  /// When set, the plan factories (exec/plan.h) wrap every operator in an
  /// InstrumentedOperator recording per-plan-node calls/batches/tuples/cycles
  /// — the EXPLAIN ANALYZE tree. Null disables per-node tracing.
  QueryTrace* trace = nullptr;
  /// Intra-query parallelism budget (the paper's Xchg route, §6). Plans that
  /// have a parallel variant (tpch Q1/Q3/Q6/Q14) run it through an
  /// ExchangeOp with this many workers when > 1; 1 keeps every plan
  /// single-threaded. Wired to env X100_THREADS by the runner and benches
  /// (EnvParallelism()).
  int num_threads = 1;
  /// Per-query cancellation/deadline token (common/cancel.h), owned by the
  /// submitter (QueryService session, runner, test). Source operators and
  /// Exchange poll it once per vector via CheckCancel(); null disables
  /// cancellation entirely (standalone plans pay one pointer test).
  CancelToken* cancel = nullptr;
  /// Pinned MVCC snapshots (storage/snapshot.h), keyed by table name, when
  /// the query runs against a store with concurrent writers. Scans that find
  /// their table here take every bound — fragment rows, delta high-water
  /// mark, deletion list — from the snapshot instead of the live table, so
  /// in-flight appends/deletes/merges are invisible. Null (or a missing
  /// table entry) reads the live table directly, the single-writer default.
  const SnapshotSet* snapshots = nullptr;
  /// Physical hash-table layout for hash join / radix join / hash
  /// aggregation (exec/hash_table.h): linear open addressing. Tests set
  /// kChained, the paper-era reference, to cross-check results for
  /// bit-identity.
  HashImpl hash_impl = HashImpl::kLinear;
  /// Storage tier the plan's table scans read (RAM unless `blocks.bm` is
  /// set). Exchange workers inherit it, so parallel plans scan blocks too.
  BlockSource blocks;

  /// Per-vector cancellation poll: throws QueryCancelled when the token is
  /// tripped or its deadline passed. No-op without a token.
  void CheckCancel() const {
    if (cancel != nullptr) cancel->Check();
  }
};

/// X100 algebra operator: classical Volcano Open/Next/Close, but Next()
/// returns a vector batch instead of a tuple (§4.1). The returned batch is
/// owned by the operator and valid until the next call to Next() or Close().
class Operator {
 public:
  virtual ~Operator() = default;

  /// Output Dataflow shape; valid after construction.
  virtual const Schema& schema() const = 0;

  virtual void Open() = 0;
  virtual VectorBatch* Next() = 0;
  virtual void Close() {}
};

/// Index of column `name` in operator `op`'s input schema. Plans come from
/// clients (algebra text), so a missing column is an input error, not an
/// engine invariant: it throws std::invalid_argument("bind error in ...")
/// like the expression binder, and a serving session fails the request.
/// (Defined with the binder, exec/bound_expr.cc.)
int BindColumn(const Schema& input, const std::string& name, const char* op);

}  // namespace x100

#endif  // X100_EXEC_OPERATOR_H_
