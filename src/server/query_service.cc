#include "server/query_service.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>

#include "common/metrics.h"
#include "common/profiling.h"
#include "common/thread_pool.h"
#include "exec/algebra_parser.h"
#include "exec/materialize.h"
#include "server/engine_cache.h"
#include "tpch/queries.h"

namespace x100 {

namespace {
struct ServerMetrics {
  Counter* submitted;
  Counter* completed;
  Counter* failed;
  Counter* cancelled;
  Histogram* queue_ns;
  Histogram* exec_ns;
  Gauge* running;
  /// server.hw.<event> totals across sessions — driver-thread hardware
  /// counters, registered lazily (and atomically: drivers race here) so a
  /// perf-less process never shows zero-valued hw counters that look like
  /// measurements.
  std::atomic<Counter*> hw[kNumPerfEvents];
  static ServerMetrics& Get() {
    static ServerMetrics m = {
        MetricsRegistry::Get().GetCounter("server.submitted"),
        MetricsRegistry::Get().GetCounter("server.completed"),
        MetricsRegistry::Get().GetCounter("server.failed"),
        MetricsRegistry::Get().GetCounter("server.cancelled"),
        MetricsRegistry::Get().GetHistogram("server.queue_ns"),
        MetricsRegistry::Get().GetHistogram("server.exec_ns"),
        MetricsRegistry::Get().GetGauge("server.running"),
        {}};
    return m;
  }
  void AddPerf(const PerfCounterValues& d) {
    for (int i = 0; i < kNumPerfEvents; i++) {
      PerfEvent e = static_cast<PerfEvent>(i);
      if (!d.Has(e)) continue;
      Counter* c = hw[i].load(std::memory_order_acquire);
      if (c == nullptr) {
        // Racing drivers resolve to the same registry pointer.
        c = MetricsRegistry::Get().GetCounter(std::string("server.hw.") +
                                              PerfEventName(e));
        hw[i].store(c, std::memory_order_release);
      }
      c->Add(d.Get(e));
    }
  }
};
}  // namespace

/// Resolves a (pre-validated) request into its materialized result: a
/// hand-translated TPC-H plan or parsed algebra text, scanning RAM
/// fragments or (kDisk) ColumnBM blocks. Runs on the session's driver
/// thread; throws to report failure.
static std::unique_ptr<Table> ExecuteRequest(const QueryRequest& req,
                                             EngineCache* engines,
                                             ExecContext* ctx) {
  int q = req.TpchQueryNumber();
  EngineCache::Engine eng =
      engines->Get(req.scale_factor, req.engine == QueryEngine::kDisk);
  // Durable engines serve concurrent writers: pin an epoch-consistent
  // snapshot of every table for the whole plan build + execution (scans
  // take all bounds from it), released when this frame unwinds — normally
  // or by exception — letting writers' structural fences drain.
  struct SnapshotPin {
    ExecContext* ctx = nullptr;
    std::shared_ptr<SnapshotSet> snaps;
    ~SnapshotPin() {
      if (ctx != nullptr) ctx->snapshots = nullptr;
    }
  } pin;
  if (eng.store != nullptr) {
    pin.ctx = ctx;
    pin.snaps = eng.store->PinAll();
    ctx->snapshots = pin.snaps.get();
  }
  // The disk engine runs the same plans; only the scan source differs.
  if (req.engine == QueryEngine::kDisk) {
    ctx->blocks = {eng.bm, eng.db, req.compress};
  }
  if (q > 0) return RunX100Query(q, ctx, *eng.db);
  AlgebraParser parser(ctx, *eng.db);
  std::string error;
  std::unique_ptr<Operator> plan = parser.Parse(req.query, &error);
  if (plan == nullptr) {
    throw std::invalid_argument("algebra parse error: " + error);
  }
  return RunPlan(std::move(plan), req.label.empty() ? "result" : req.label);
}

/// The session's terminal record as a sink sees it.
static QueryOutcome OutcomeOf(QuerySession::State state,
                              const std::string& error, bool deadline,
                              int64_t rows, uint64_t queue_nanos,
                              uint64_t exec_nanos) {
  QueryOutcome o;
  switch (state) {
    case QuerySession::State::kDone: o.status = QueryStatus::kDone; break;
    case QuerySession::State::kCancelled:
      o.status = QueryStatus::kCancelled;
      break;
    default: o.status = QueryStatus::kFailed; break;
  }
  o.deadline_exceeded = deadline;
  o.error = error;
  o.rows = rows;
  o.queue_nanos = queue_nanos;
  o.exec_nanos = exec_nanos;
  return o;
}

QuerySession::QuerySession(uint64_t id, QueryFn fn, QueryOptions opts)
    : id_(id), fn_(std::move(fn)), opts_(std::move(opts)) {}

QuerySession::State QuerySession::state() const {
  std::lock_guard<std::mutex> lock(mu_);
  return state_;
}

QuerySession::State QuerySession::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [&] {
    return state_ != State::kQueued && state_ != State::kRunning;
  });
  return state_;
}

std::unique_ptr<Table> QuerySession::TakeResult() {
  Wait();
  std::lock_guard<std::mutex> lock(mu_);
  return std::move(result_);
}

const QueryTrace* QuerySession::trace() const {
  return opts_.collect_trace ? &trace_ : nullptr;
}

QueryService::QueryService() : QueryService(Options{}) {}

QueryService::QueryService(Options opts)
    : opts_(opts), engines_(std::make_unique<EngineCache>()) {
  if (opts_.max_concurrent < 1) opts_.max_concurrent = 1;
  worker_budget_ = opts_.max_worker_threads > 0
                       ? opts_.max_worker_threads
                       : ThreadPool::Shared().num_threads();
  if (!opts_.wal_dir.empty()) {
    EngineCache::DurabilityOptions d;
    d.wal_dir = opts_.wal_dir;
    d.group_commit_us = opts_.wal_group_us;
    d.merge_threshold_rows = opts_.merge_threshold_rows;
    engines_->EnableDurability(std::move(d));
  }
}

QueryService::~QueryService() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& s : sessions_) s->Cancel();
  }
  Drain();
}

std::shared_ptr<QuerySession> QueryService::Submit(
    const QueryRequest& req, std::shared_ptr<ResultSink> sink) {
  QueryOptions qo;
  qo.label = req.label.empty() ? req.query : req.label;
  qo.num_threads = req.num_threads;
  qo.vector_size = req.vector_size;
  qo.timeout_ms = req.timeout_ms;
  qo.collect_trace = req.collect_trace;
  qo.fuse = req.fuse;
  EngineCache* engines = engines_.get();
  QueryFn fn = [req, engines](ExecContext* ctx) {
    std::string why = req.Validate();
    if (!why.empty()) throw std::invalid_argument("invalid request: " + why);
    return ExecuteRequest(req, engines, ctx);
  };
  return SubmitInternal(std::move(fn), std::move(qo), std::move(sink));
}

std::shared_ptr<QuerySession> QueryService::Submit(QueryFn fn,
                                                   QueryOptions opts) {
  return SubmitInternal(std::move(fn), std::move(opts), nullptr);
}

/// Resolves the SF's DurableStore, failing (not throwing) when the
/// service is read-only or the engine cannot be built.
static DurableStore* StoreFor(EngineCache* engines, double sf,
                              const std::string& wal_dir,
                              std::string* error) {
  if (wal_dir.empty()) {
    *error = "server is read-only (started without a WAL directory)";
    return nullptr;
  }
  try {
    EngineCache::Engine eng = engines->Get(sf, /*want_disk=*/false);
    if (eng.store == nullptr) {
      *error = "engine at this scale factor is read-only (seeded)";
      return nullptr;
    }
    return eng.store;
  } catch (const std::exception& e) {
    *error = e.what();
    return nullptr;
  }
}

UpdateOutcome QueryService::SubmitUpdate(const UpdateRequest& req) {
  UpdateOutcome out;
  std::string why = req.Validate();
  if (!why.empty()) {
    out.error = "invalid update: " + why;
    return out;
  }
  DurableStore* store =
      StoreFor(engines_.get(), req.scale_factor, opts_.wal_dir, &out.error);
  if (store == nullptr) return out;
  Status s = req.op == UpdateOp::kAppend
                 ? store->Append(req.table, req.row, req.durable, &out.lsn)
                 : store->Delete(req.table, req.rowid, req.durable, &out.lsn);
  if (!s.ok()) {
    out.error = s.message();
    out.lsn = 0;
    return out;
  }
  out.ok = true;
  return out;
}

UpdateOutcome QueryService::WaitDurable(double sf, uint64_t lsn) {
  UpdateOutcome out;
  DurableStore* store =
      StoreFor(engines_.get(), sf, opts_.wal_dir, &out.error);
  if (store == nullptr) return out;
  Status s = store->WaitDurable(lsn);
  if (!s.ok()) {
    out.error = s.message();
    return out;
  }
  out.ok = true;
  out.lsn = lsn;
  return out;
}

std::shared_ptr<QuerySession> QueryService::SubmitInternal(
    QueryFn fn, QueryOptions opts, std::shared_ptr<ResultSink> sink) {
  ServerMetrics::Get().submitted->Inc();
  std::lock_guard<std::mutex> lock(mu_);
  auto s = std::shared_ptr<QuerySession>(
      new QuerySession(next_id_++, std::move(fn), std::move(opts)));
  s->sink_ = std::move(sink);
  if (s->sink_ != nullptr) s->sink_->OnAttach(&s->token_);
  s->submit_nanos_ = NowNanos();
  if (s->opts_.timeout_ms > 0) {
    // The deadline covers queue time too: an overloaded server times a
    // query out rather than running it long after its caller gave up.
    s->token_.SetDeadlineNanos(s->submit_nanos_ +
                               s->opts_.timeout_ms * 1'000'000ull);
  }
  sessions_.push_back(s);
  admission_queue_.push_back(s->id_);
  // The driver blocks in Admit() until Submit's lock is released.
  drivers_.emplace_back([this, s] { RunSession(s); });
  return s;
}

bool QueryService::Admit(const std::shared_ptr<QuerySession>& s,
                         int reservation) {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    if (s->token_.cancelled() || s->token_.expired()) {
      auto it = std::find(admission_queue_.begin(), admission_queue_.end(),
                          s->id_);
      if (it != admission_queue_.end()) admission_queue_.erase(it);
      admit_cv_.notify_all();  // the next-in-line predicate may now pass
      return false;
    }
    if (!admission_queue_.empty() && admission_queue_.front() == s->id_ &&
        running_ < opts_.max_concurrent &&
        reserved_workers_ + reservation <= worker_budget_) {
      admission_queue_.pop_front();
      running_++;
      reserved_workers_ += reservation;
      ServerMetrics::Get().running->Set(static_cast<double>(running_));
      return true;
    }
    // Timed wait so an armed deadline fires without anyone notifying.
    admit_cv_.wait_for(lock, std::chrono::milliseconds(5));
  }
}

void QueryService::Release(int reservation) {
  std::lock_guard<std::mutex> lock(mu_);
  running_--;
  reserved_workers_ -= reservation;
  ServerMetrics::Get().running->Set(static_cast<double>(running_));
  admit_cv_.notify_all();
}

void QueryService::StreamResult(const std::shared_ptr<QuerySession>& s,
                                std::unique_ptr<Table>* result,
                                QuerySession::State* final_state,
                                std::string* error, bool* deadline) {
  if (s->sink_ == nullptr) return;
  if (*final_state != QuerySession::State::kDone || *result == nullptr) {
    return;
  }
  const Table& t = **result;
  int64_t rows = t.num_rows();
  int64_t step = std::max(1, s->opts_.vector_size);
  for (int64_t b = 0; b < rows; b += step) {
    if (s->token_.cancelled() || s->token_.expired()) {
      *final_state = QuerySession::State::kCancelled;
      *deadline = !s->token_.cancelled() && s->token_.expired();
      *error = *deadline ? "query deadline exceeded while streaming"
                         : "query cancelled while streaming";
      break;
    }
    if (!s->sink_->OnBatch(t, b, std::min(b + step, rows))) {
      *final_state = QuerySession::State::kCancelled;
      *error = "result stream abandoned by consumer";
      break;
    }
  }
  // The sink consumed the result: a streamed session retains no table, so
  // TakeResult() returns null and the server holds no per-result memory.
  result->reset();
}

void QueryService::RunSession(const std::shared_ptr<QuerySession>& s) {
  // A query wider than the whole budget is clamped, not rejected: it runs
  // with every worker the service can ever grant.
  int width = std::max(1, std::min(s->opts_.num_threads, worker_budget_));
  int reservation = width > 1 ? width : 0;

  if (!Admit(s, reservation)) {
    {
      std::lock_guard<std::mutex> lock(s->mu_);
      s->queue_nanos_ = NowNanos() - s->submit_nanos_;
      s->state_ = QuerySession::State::kCancelled;
      s->deadline_exceeded_ = !s->token_.cancelled() && s->token_.expired();
      s->error_ = s->deadline_exceeded_
                      ? "query deadline exceeded while queued"
                      : "query cancelled while queued";
      ServerMetrics::Get().cancelled->Inc();
      ServerMetrics::Get().queue_ns->Record(s->queue_nanos_);
      s->cv_.notify_all();
    }
    if (s->sink_ != nullptr) {
      s->sink_->OnDone(OutcomeOf(QuerySession::State::kCancelled, s->error_,
                                 s->deadline_exceeded_, 0, s->queue_nanos_,
                                 0));
    }
    return;
  }

  uint64_t start = NowNanos();
  {
    std::lock_guard<std::mutex> lock(s->mu_);
    s->queue_nanos_ = start - s->submit_nanos_;
    s->state_ = QuerySession::State::kRunning;
    s->cv_.notify_all();
  }
  ServerMetrics::Get().queue_ns->Record(s->queue_nanos_);

  ExecContext ctx;
  ctx.vector_size = s->opts_.vector_size;
  ctx.num_threads = width;
  ctx.cancel = &s->token_;
  if (s->opts_.collect_trace) ctx.trace = &s->trace_;
  // -1 keeps the engine default (the X100_FUSE knob baked into ExecContext).
  if (s->opts_.fuse >= 0) ctx.fuse_compound_primitives = s->opts_.fuse != 0;

  std::unique_ptr<Table> result;
  QuerySession::State final_state = QuerySession::State::kDone;
  std::string error;
  bool deadline = false;
  // Per-session hardware counters on the driver thread. Fresh driver thread
  // per session, so the group is opened here and closed at thread exit.
  ScopedPerfThread perf_thread;
  PerfCounterValues perf_start = ReadThreadPerfCounters();
  try {
    result = s->fn_(&ctx);
  } catch (const QueryCancelled& e) {
    final_state = QuerySession::State::kCancelled;
    error = e.what();
    deadline = e.deadline_exceeded();
  } catch (const std::exception& e) {
    final_state = QuerySession::State::kFailed;
    error = e.what();
  } catch (...) {
    final_state = QuerySession::State::kFailed;
    error = "unknown error";
  }

  PerfCounterValues perf_delta =
      ReadThreadPerfCounters().Since(perf_start);
  ServerMetrics::Get().AddPerf(perf_delta);

  // Stream before releasing the admission slot: a slow consumer keeps the
  // driver (and its slot) occupied — bounded buffering by construction.
  int64_t result_rows = result != nullptr ? result->num_rows() : 0;
  StreamResult(s, &result, &final_state, &error, &deadline);

  Release(reservation);
  uint64_t exec = NowNanos() - start;
  ServerMetrics::Get().exec_ns->Record(exec);
  switch (final_state) {
    case QuerySession::State::kDone:
      ServerMetrics::Get().completed->Inc();
      break;
    case QuerySession::State::kCancelled:
      ServerMetrics::Get().cancelled->Inc();
      break;
    default:
      ServerMetrics::Get().failed->Inc();
      break;
  }

  {
    std::lock_guard<std::mutex> lock(s->mu_);
    s->exec_nanos_ = exec;
    s->perf_ = perf_delta;
    s->result_ = std::move(result);
    s->error_ = std::move(error);
    s->deadline_exceeded_ = deadline;
    s->state_ = final_state;
    s->cv_.notify_all();
  }
  if (s->sink_ != nullptr) {
    int64_t rows =
        final_state == QuerySession::State::kDone ? result_rows : 0;
    s->sink_->OnDone(OutcomeOf(final_state, s->error_, deadline, rows,
                               s->queue_nanos_, exec));
  }
}

void QueryService::Drain() {
  std::vector<std::thread> drivers;
  {
    std::lock_guard<std::mutex> lock(mu_);
    drivers.swap(drivers_);
  }
  for (std::thread& t : drivers) t.join();
}

}  // namespace x100
