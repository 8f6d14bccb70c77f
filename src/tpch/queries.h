#ifndef X100_TPCH_QUERIES_H_
#define X100_TPCH_QUERIES_H_

#include <memory>

#include "exec/operator.h"
#include "mil/mil_db.h"
#include "storage/catalog.h"
#include "tuple/tuple_profile.h"

namespace x100 {

inline constexpr int kNumTpchQueries = 22;

/// Runs TPC-H query `q` (1-22) on the X100 engine; the result is a frozen
/// Table in the query's output column order, already sorted per the query's
/// ORDER BY (with deterministic tiebreaks so engines can be compared).
/// All 22 queries are hand-translated to X100 algebra, as in §5; SQL
/// subqueries become materialized sub-plans. The plans do not name a storage
/// tier: with ctx->blocks serving `db` they scan ColumnBM blocks instead of
/// RAM fragments, with bit-identical serial results. With ctx->num_threads
/// > 1, Q1, Q3, Q6 and Q14 fan their lineitem pipeline out over an Exchange.
std::unique_ptr<Table> RunX100Query(int q, ExecContext* ctx, const Catalog& db);

/// Same queries hand-translated to MIL column algebra (full materialization).
/// Result schema/order matches RunX100Query for cross-checking.
std::unique_ptr<Table> RunMilQuery(int q, MilSession* session, MilDatabase* db);

/// Tuple-at-a-time engine: Q1 and Q6 only (the Table 1 baseline).
/// `store` must be a RowStore over lineitem with the query's columns; use
/// MakeTupleQ1Store / MakeTupleQ6Store.
class RowStore;
std::unique_ptr<RowStore> MakeTupleQ1Store(const Catalog& db);
std::unique_ptr<Table> RunTupleQ1(const RowStore& store, TupleProfile* prof);
std::unique_ptr<RowStore> MakeTupleQ6Store(const Catalog& db);
std::unique_ptr<Table> RunTupleQ6(const RowStore& store, TupleProfile* prof);

/// Hard-coded Q1 (Figure 4) over plain arrays (built via MilDatabase BATs);
/// returns the same result table shape as RunX100Query(1).
std::unique_ptr<Table> RunHardcodedQ1(MilDatabase* db);

}  // namespace x100

#endif  // X100_TPCH_QUERIES_H_
