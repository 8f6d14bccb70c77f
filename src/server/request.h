#ifndef X100_SERVER_REQUEST_H_
#define X100_SERVER_REQUEST_H_

// The request/response schema of the serving layer.
//
// Every way into the engine — in-process callers (tpch_runner --sessions,
// bench/concurrent_queries, tests) and the TCP front-end
// (server/tcp_server.h) — describes a query as a QueryRequest and receives
// its result through a ResultSink. One schema on both paths means the wire
// protocol serializes exactly what the in-process API speaks, so network
// and in-process measurements are comparable by construction (the uniform
// entry point without which serving claims cannot be checked against serial
// execution).

#include <cstdint>
#include <string>
#include <vector>

#include "common/cancel.h"
#include "common/config.h"
#include "common/value.h"
#include "storage/table.h"

namespace x100 {

/// Which storage path a request runs against: in-RAM vertical fragments or
/// the disk-backed ColumnBM block path (§4.3).
enum class QueryEngine : uint8_t { kRam = 0, kDisk = 1 };

/// Everything needed to run one query — small, explicit, and wire-
/// serializable (server/wire.h). Engine state (catalog, ColumnBm) is owned
/// by the service and selected by `scale_factor`; dbgen is deterministic,
/// so every server at the same SF holds bit-identical data and responses
/// can be checked against local serial execution.
struct QueryRequest {
  /// "q1".."q22" (case-insensitive, "6" also accepted) names a
  /// hand-translated TPC-H plan; any other text is X100 algebra for
  /// exec/algebra_parser.h (Figure 9 notation).
  std::string query;
  /// kDisk runs the same plan (any of q1..q22, or algebra text) with its
  /// table scans served from ColumnBM blocks (ExecContext::blocks).
  QueryEngine engine = QueryEngine::kRam;
  /// TPC-H scale factor the query runs against; the service lazily dbgens
  /// (or is seeded with) one engine per SF. Capped by Validate() so a
  /// remote client cannot ask the server to materialize arbitrary memory.
  double scale_factor = 0.01;
  /// Per-block codec compression for the disk engine (ignored for kRam).
  bool compress = true;
  /// Exchange width the plan may use (QueryOptions::num_threads).
  int num_threads = 1;
  /// Tuples per vector — also the row granularity of result batches.
  int vector_size = kDefaultVectorSize;
  /// Wall-clock budget covering queue AND execution; 0 = none.
  uint64_t timeout_ms = 0;
  /// Collect a per-session EXPLAIN ANALYZE trace (QuerySession::trace()).
  bool collect_trace = false;
  /// Fused map-primitive chains (§4.2): -1 uses the server's engine default
  /// (the X100_FUSE knob), 0 forces interpreted chains, 1 forces fusion.
  /// Fused and interpreted plans return bit-identical results; this exists
  /// so clients can A/B the two executions. Validate() rejects other values.
  int fuse = -1;
  /// Label for traces and error messages; defaults to `query` when empty.
  std::string label;

  /// 1..22 when `query` names a TPC-H query, else 0 (algebra text).
  int TpchQueryNumber() const;

  /// Shape check without touching an engine: "" when plausible, else why
  /// not (empty query, SF/width/vector-size/fuse out of range). Algebra
  /// text is only syntax-checked at execution, against the target catalog;
  /// parse and bind errors surface as a failed session.
  std::string Validate() const;
};

/// Validate() bounds: generous for in-process callers, but a hard ceiling
/// on what a network client may ask a server to build or reserve.
inline constexpr double kMaxRequestScaleFactor = 8.0;
inline constexpr int kMaxRequestThreads = 64;
inline constexpr int kMaxRequestVectorSize = 4 << 20;

enum class QueryStatus : uint8_t { kDone = 0, kFailed = 1, kCancelled = 2 };

// ---------------------------------------------------------------------------
// Updates (the durable write path, storage/durable.h). Like QueryRequest,
// one schema serves in-process callers and the wire (kUpdate frames), so a
// network client can mutate the same tables queries read — under snapshot
// isolation, with the write WAL-logged before it is acknowledged.

enum class UpdateOp : uint8_t { kAppend = 0, kDelete = 1 };

/// One row-level mutation against a served engine. Only engines opened
/// with a WAL directory (QueryService::Options::wal_dir) accept updates;
/// read-only engines fail the request with a clear error.
struct UpdateRequest {
  UpdateOp op = UpdateOp::kAppend;
  /// Target table name in the SF's catalog (e.g. "lineitem").
  std::string table;
  /// Scale factor selecting the engine, same domain as QueryRequest's.
  double scale_factor = 0.01;
  /// kAppend: one value per declared column (join-index columns are
  /// maintained automatically from the foreign keys).
  std::vector<Value> row;
  /// kDelete: the virtual #rowId to delete.
  int64_t rowid = 0;
  /// Wait for the WAL record to be fsync'd (group commit) before the
  /// request is acknowledged. False returns once applied + buffered —
  /// faster, but the write may be lost in a crash.
  bool durable = true;

  /// Shape check mirroring QueryRequest::Validate(): "" when plausible.
  std::string Validate() const;
};

/// Terminal record of one update.
struct UpdateOutcome {
  bool ok = false;
  std::string error;
  /// WAL sequence number of the logged record (0 on failure). With
  /// `durable`, every record up to this lsn is on stable storage.
  uint64_t lsn = 0;
};

/// Terminal record of one request, delivered to the sink exactly once and
/// mirrored by the session accessors (error(), queue_nanos(), ...).
struct QueryOutcome {
  QueryStatus status = QueryStatus::kDone;
  /// kCancelled only: the deadline fired rather than an explicit cancel.
  bool deadline_exceeded = false;
  std::string error;
  /// Result rows streamed (kDone only; 0 otherwise).
  int64_t rows = 0;
  uint64_t queue_nanos = 0;
  uint64_t exec_nanos = 0;
};

/// Receives one request's result stream, on the session's driver thread:
/// zero or more OnBatch calls covering rows [0, rows) of the materialized
/// result in order, then exactly one OnDone — which also fires (with no
/// batches) for failed and cancelled sessions. A sink that blocks in
/// OnBatch blocks the driver thread while it holds its admission slot:
/// that IS the backpressure path — a slow network consumer pushes back
/// into the query's driver rather than buffering unboundedly.
class ResultSink {
 public:
  virtual ~ResultSink() = default;

  /// Called once from Submit, before the driver can deliver anything, with
  /// the session's cancellation token. Network sinks poll it while blocked
  /// on a full outbox so a cancelled query does not stay wedged behind a
  /// stalled consumer. Default ignores it.
  virtual void OnAttach(CancelToken* cancel) { (void)cancel; }

  /// Rows [begin, end) of the result. Return false to abandon the stream
  /// (the consumer disconnected): the session unwinds as kCancelled.
  virtual bool OnBatch(const Table& result, int64_t begin, int64_t end) = 0;

  virtual void OnDone(const QueryOutcome& outcome) = 0;
};

}  // namespace x100

#endif  // X100_SERVER_REQUEST_H_
