// QueryService serving-layer tests: many concurrent sessions over one shared
// engine must produce exactly the serial results, honour the admission bound,
// and unwind cancellation/deadlines without leaking pins or threads.
//
// Real queries go through the request API (QueryRequest + ResultSink, the
// schema the TCP front-end serializes); synthetic workloads (sleep loops,
// fault injection, admission probes) keep using the deprecated closure shim
// on purpose — no request schema should have to express them.

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/cancel.h"
#include "common/metrics.h"
#include "server/engine_cache.h"
#include "server/query_service.h"
#include "server/request.h"
#include "storage/buffer_pool.h"
#include "storage/columnbm.h"
#include "tests/test_util.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"

namespace x100 {
namespace {

using testing::ExpectTablesEqual;
using testing::ScopedTempDir;

/// The lineitem-scan query mix the concurrency tests rotate through (the
/// four plans with an Exchange variant).
constexpr int kMix[] = {1, 3, 6, 14};

constexpr double kSf = 0.02;

class ServerTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    DbgenOptions opts;
    opts.scale_factor = kSf;
    db_ = GenerateTpch(opts).release();
    for (int q : kMix) {
      ExecContext ctx;
      serial_[q] = RunX100Query(q, &ctx, *db_);
    }
  }
  static const Table& Serial(int q) { return *serial_[q]; }

  /// Request for TPC-H query `q` against the suite's seeded engine.
  static QueryRequest Req(int q, QueryEngine engine = QueryEngine::kRam) {
    QueryRequest req;
    req.query = "q" + std::to_string(q);
    req.engine = engine;
    req.scale_factor = kSf;
    return req;
  }

  static Catalog* db_;
  static std::unique_ptr<Table> serial_[23];
};
Catalog* ServerTest::db_ = nullptr;
std::unique_ptr<Table> ServerTest::serial_[23];

/// Test sink: records streamed spans and the terminal outcome.
struct CollectingSink : ResultSink {
  bool OnBatch(const Table& result, int64_t begin, int64_t end) override {
    batches.push_back({begin, end});
    rows += end - begin;
    if (first_batch_cols < 0) first_batch_cols = result.num_columns();
    return !abandon;
  }
  void OnDone(const QueryOutcome& o) override {
    outcome = o;
    done_calls++;
  }

  bool abandon = false;  // return false from OnBatch (consumer walked away)
  std::vector<std::pair<int64_t, int64_t>> batches;
  int64_t rows = 0;
  int first_batch_cols = -1;
  int done_calls = 0;
  QueryOutcome outcome;
};

/// Spins until `s` leaves kQueued (bounded); returns its state.
QuerySession::State AwaitStart(QuerySession* s) {
  for (int i = 0; i < 20000; i++) {
    QuerySession::State st = s->state();
    if (st != QuerySession::State::kQueued) return st;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return s->state();
}

TEST_F(ServerTest, ConcurrentMixedQueriesBitIdenticalToSerialRam) {
  // 3 sessions per query, all serial-width: concurrency comes from the
  // sessions, so every result must be bit-identical (eps 0) to the serial
  // reference.
  QueryService svc({/*max_concurrent=*/12, /*max_worker_threads=*/0});
  svc.engines()->Seed(kSf, db_);
  std::vector<std::pair<int, std::shared_ptr<QuerySession>>> live;
  for (int rep = 0; rep < 3; rep++) {
    for (int q : kMix) {
      live.emplace_back(q, svc.Submit(Req(q)));
    }
  }
  for (auto& [q, s] : live) {
    ASSERT_EQ(s->Wait(), QuerySession::State::kDone) << s->error();
    std::unique_ptr<Table> r = s->TakeResult();
    ASSERT_NE(r, nullptr);
    ExpectTablesEqual(Serial(q), *r, 0.0);
  }
}

TEST_F(ServerTest, ConcurrentDiskScansBitIdenticalAndLeakNoPins) {
  // One shared disk-backed, compressed ColumnBm under every session; the
  // first sessions to open each table race its EnsureStored and the block
  // scans overlap through the shared-scan registry. Results must still be
  // bit-identical to the RAM serial reference.
  ScopedTempDir dir("x100_server_test");
  ColumnBm bm(ColumnBm::Options{.disk_dir = dir.path()});
  QueryService svc({/*max_concurrent=*/8, /*max_worker_threads=*/0});
  svc.engines()->Seed(kSf, db_, &bm);
  std::vector<std::pair<int, std::shared_ptr<QuerySession>>> live;
  for (int rep = 0; rep < 2; rep++) {
    for (int q : kMix) {
      live.emplace_back(q, svc.Submit(Req(q, QueryEngine::kDisk)));
    }
  }
  for (auto& [q, s] : live) {
    ASSERT_EQ(s->Wait(), QuerySession::State::kDone) << s->error();
    std::unique_ptr<Table> r = s->TakeResult();
    ASSERT_NE(r, nullptr);
    ExpectTablesEqual(Serial(q), *r, 0.0);
  }
  svc.Drain();
  // Every pin must be back: with no query live, the whole pool is
  // evictable. A leaked pin would survive the invalidation.
  bm.pool()->InvalidatePrefix("");
  EXPECT_EQ(bm.pool()->resident_bytes(), 0u);
}

TEST_F(ServerTest, WideSessionsShareTheWorkerBudget) {
  // 4 sessions each asking for 4 exchange workers against a budget of 2:
  // admission clamps the width and serializes the reservations; results
  // match serial within FP-summation tolerance (worker count changes the
  // sum order).
  QueryService svc({/*max_concurrent=*/4, /*max_worker_threads=*/2});
  svc.engines()->Seed(kSf, db_);
  std::vector<std::shared_ptr<QuerySession>> live;
  for (int i = 0; i < 4; i++) {
    QueryRequest req = Req(1);
    req.num_threads = 4;
    live.push_back(svc.Submit(req));
  }
  for (auto& s : live) {
    ASSERT_EQ(s->Wait(), QuerySession::State::kDone) << s->error();
    std::unique_ptr<Table> r = s->TakeResult();
    ASSERT_NE(r, nullptr);
    ExpectTablesEqual(Serial(1), *r);
  }
}

TEST_F(ServerTest, AdmissionNeverExceedsMaxConcurrent) {
  QueryService svc({/*max_concurrent=*/2, /*max_worker_threads=*/0});
  std::atomic<int> running{0}, peak{0};
  std::vector<std::shared_ptr<QuerySession>> live;
  for (int i = 0; i < 10; i++) {
    live.push_back(svc.Submit([&](ExecContext*) -> std::unique_ptr<Table> {
      int cur = running.fetch_add(1) + 1;
      int p = peak.load();
      while (cur > p && !peak.compare_exchange_weak(p, cur)) {
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      running.fetch_sub(1);
      return nullptr;
    }));
  }
  for (auto& s : live) {
    EXPECT_EQ(s->Wait(), QuerySession::State::kDone);
  }
  EXPECT_LE(peak.load(), 2);
  EXPECT_GE(peak.load(), 1);
}

TEST_F(ServerTest, CancelMidQueryReleasesPinsAndThreads) {
  ScopedTempDir dir("x100_server_test");
  ColumnBm bm(ColumnBm::Options{.disk_dir = dir.path()});
  {
    QueryService svc({/*max_concurrent=*/2, /*max_worker_threads=*/0});
    auto s = svc.Submit([&bm](ExecContext* c) -> std::unique_ptr<Table> {
      // Loop the disk query so the cancel lands mid-pipeline with blocks
      // pinned; the per-vector poll throws QueryCancelled out of here.
      std::unique_ptr<Table> r;
      c->blocks = {&bm, db_, /*compress=*/true};
      for (int i = 0; i < 200000; i++) r = RunX100Query(6, c, *db_);
      return r;
    });
    ASSERT_EQ(AwaitStart(s.get()), QuerySession::State::kRunning);
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    s->Cancel();
    EXPECT_EQ(s->Wait(), QuerySession::State::kCancelled);
    EXPECT_FALSE(s->deadline_exceeded());
    EXPECT_EQ(s->TakeResult(), nullptr);
    svc.Drain();
  }
  // The unwound query must have dropped every pin on its way out.
  bm.pool()->InvalidatePrefix("");
  EXPECT_EQ(bm.pool()->resident_bytes(), 0u);
}

TEST_F(ServerTest, QueuedSessionsHonourCancelAndDeadline) {
  QueryService svc({/*max_concurrent=*/1, /*max_worker_threads=*/0});
  std::atomic<bool> release{false};
  auto blocker = svc.Submit([&](ExecContext*) -> std::unique_ptr<Table> {
    while (!release.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return nullptr;
  });
  ASSERT_EQ(AwaitStart(blocker.get()), QuerySession::State::kRunning);

  // Cancelled while queued: never runs, terminal immediately.
  auto cancelled = svc.Submit([](ExecContext*) -> std::unique_ptr<Table> {
    ADD_FAILURE() << "cancelled-while-queued session must never run";
    return nullptr;
  });
  cancelled->Cancel();
  EXPECT_EQ(cancelled->Wait(), QuerySession::State::kCancelled);
  EXPECT_FALSE(cancelled->deadline_exceeded());
  EXPECT_NE(cancelled->error().find("queued"), std::string::npos)
      << cancelled->error();

  // Deadline fires while queued behind the blocker.
  QueryOptions qo;
  qo.timeout_ms = 30;
  auto expired = svc.Submit([](ExecContext*) -> std::unique_ptr<Table> {
    ADD_FAILURE() << "expired-while-queued session must never run";
    return nullptr;
  }, qo);
  EXPECT_EQ(expired->Wait(), QuerySession::State::kCancelled);
  EXPECT_TRUE(expired->deadline_exceeded());

  release.store(true);
  EXPECT_EQ(blocker->Wait(), QuerySession::State::kDone);
}

TEST_F(ServerTest, DeadlineExpiresMidQuery) {
  QueryService svc({/*max_concurrent=*/1, /*max_worker_threads=*/0});
  QueryOptions qo;
  qo.timeout_ms = 25;
  auto s = svc.Submit([](ExecContext* c) -> std::unique_ptr<Table> {
    std::unique_ptr<Table> r;
    for (int i = 0; i < 200000; i++) {
      r = RunX100Query(6, c, *db_);
    }
    return r;
  }, qo);
  EXPECT_EQ(s->Wait(), QuerySession::State::kCancelled);
  EXPECT_TRUE(s->deadline_exceeded());
}

TEST_F(ServerTest, FailedQueryReportsErrorNotCancellation) {
  QueryService svc;
  auto s = svc.Submit([](ExecContext*) -> std::unique_ptr<Table> {
    throw std::runtime_error("synthetic plan failure");
  });
  EXPECT_EQ(s->Wait(), QuerySession::State::kFailed);
  EXPECT_NE(s->error().find("synthetic plan failure"), std::string::npos);
}

TEST_F(ServerTest, PerSessionTraceIsCollected) {
  QueryService svc;
  svc.engines()->Seed(kSf, db_);
  QueryRequest req = Req(6);
  req.collect_trace = true;
  auto s = svc.Submit(req);
  ASSERT_EQ(s->Wait(), QuerySession::State::kDone) << s->error();
  ASSERT_NE(s->trace(), nullptr);
  EXPECT_NE(s->trace()->ToString().find("Scan"), std::string::npos);
}

TEST_F(ServerTest, DestructorCancelsLiveSessions) {
  // Dropping the service mid-flight must cancel and join everything — no
  // detached driver keeps running against a dead service.
  std::shared_ptr<QuerySession> s;
  {
    QueryService svc({/*max_concurrent=*/1, /*max_worker_threads=*/0});
    s = svc.Submit([](ExecContext* c) -> std::unique_ptr<Table> {
      std::unique_ptr<Table> r;
      for (int i = 0; i < 200000; i++) {
        r = RunX100Query(6, c, *db_);
      }
      return r;
    });
    AwaitStart(s.get());
  }
  QuerySession::State st = s->state();
  EXPECT_TRUE(st == QuerySession::State::kCancelled ||
              st == QuerySession::State::kDone);
}

TEST_F(ServerTest, ServerMetricsAccount) {
  Counter* completed = MetricsRegistry::Get().GetCounter("server.completed");
  Counter* cancelled = MetricsRegistry::Get().GetCounter("server.cancelled");
  uint64_t done0 = completed->Get(), can0 = cancelled->Get();
  QueryService svc({/*max_concurrent=*/4, /*max_worker_threads=*/0});
  auto ok = svc.Submit(
      [](ExecContext* c) { return RunX100Query(6, c, *db_); });
  auto dead = svc.Submit([](ExecContext* c) -> std::unique_ptr<Table> {
    std::unique_ptr<Table> r;
    for (int i = 0; i < 200000; i++) {
      r = RunX100Query(6, c, *db_);
    }
    return r;
  });
  AwaitStart(dead.get());
  dead->Cancel();
  ok->Wait();
  dead->Wait();
  svc.Drain();
  EXPECT_GE(completed->Get(), done0 + 1);
  EXPECT_GE(cancelled->Get(), can0 + 1);
}

TEST_F(ServerTest, SinkStreamsWholeResultInOrderThenReportsDone) {
  QueryService svc;
  svc.engines()->Seed(kSf, db_);
  QueryRequest req = Req(1);
  req.vector_size = 2;  // tiny batches: force multi-batch streaming
  auto sink = std::make_shared<CollectingSink>();
  auto s = svc.Submit(req, sink);
  ASSERT_EQ(s->Wait(), QuerySession::State::kDone) << s->error();
  svc.Drain();  // OnDone has fired once the driver joined

  EXPECT_EQ(sink->done_calls, 1);
  EXPECT_EQ(sink->outcome.status, QueryStatus::kDone);
  EXPECT_EQ(sink->rows, Serial(1).num_rows());
  EXPECT_EQ(sink->outcome.rows, Serial(1).num_rows());
  EXPECT_EQ(sink->first_batch_cols, Serial(1).num_columns());
  // Spans tile [0, rows) in order.
  int64_t expect_begin = 0;
  for (auto& [b, e] : sink->batches) {
    EXPECT_EQ(b, expect_begin);
    EXPECT_LE(e - b, 2);
    expect_begin = e;
  }
  EXPECT_EQ(expect_begin, Serial(1).num_rows());
  // A streamed result is released, not retained.
  EXPECT_EQ(s->TakeResult(), nullptr);
}

TEST_F(ServerTest, AbandonedSinkCancelsTheSession) {
  QueryService svc;
  svc.engines()->Seed(kSf, db_);
  QueryRequest req = Req(1);
  req.vector_size = 1;
  auto sink = std::make_shared<CollectingSink>();
  sink->abandon = true;  // consumer walks away at the first batch
  auto s = svc.Submit(req, sink);
  EXPECT_EQ(s->Wait(), QuerySession::State::kCancelled);
  EXPECT_NE(s->error().find("abandoned"), std::string::npos) << s->error();
  svc.Drain();
  EXPECT_EQ(sink->done_calls, 1);
  EXPECT_EQ(sink->outcome.status, QueryStatus::kCancelled);
}

TEST_F(ServerTest, InvalidRequestsFailTheSessionNotTheService) {
  QueryService svc;
  svc.engines()->Seed(kSf, db_);

  QueryRequest empty;  // no query text
  auto s1 = svc.Submit(empty);
  EXPECT_EQ(s1->Wait(), QuerySession::State::kFailed);
  EXPECT_NE(s1->error().find("invalid request"), std::string::npos)
      << s1->error();

  QueryRequest fuse2 = Req(2, QueryEngine::kDisk);
  fuse2.fuse = 2;  // outside [-1, 1]
  auto s2 = svc.Submit(fuse2);
  EXPECT_EQ(s2->Wait(), QuerySession::State::kFailed);
  EXPECT_NE(s2->error().find("fuse"), std::string::npos) << s2->error();

  QueryRequest parse = Req(1);
  parse.query = "Frobnicate(Table(lineitem))";
  auto s3 = svc.Submit(parse);
  EXPECT_EQ(s3->Wait(), QuerySession::State::kFailed);
  EXPECT_NE(s3->error().find("parse"), std::string::npos) << s3->error();

  // The service is unharmed: a good request still runs.
  auto ok = svc.Submit(Req(6));
  EXPECT_EQ(ok->Wait(), QuerySession::State::kDone) << ok->error();

  // Every query runs on the disk engine, q2 included (the service creates
  // the ColumnBm on first use): same plan, same result as RAM.
  auto disk2 = svc.Submit(Req(2, QueryEngine::kDisk));
  ASSERT_EQ(disk2->Wait(), QuerySession::State::kDone) << disk2->error();
  std::unique_ptr<Table> got = disk2->TakeResult();
  ASSERT_NE(got, nullptr);
  ExecContext ctx;
  ExpectTablesEqual(*RunX100Query(2, &ctx, *db_), *got, 0.0);
}

TEST_F(ServerTest, AlgebraTextRequestExecutes) {
  QueryService svc;
  svc.engines()->Seed(kSf, db_);
  QueryRequest req;
  req.query = "Table(region)";
  req.scale_factor = kSf;
  auto s = svc.Submit(req);
  ASSERT_EQ(s->Wait(), QuerySession::State::kDone) << s->error();
  std::unique_ptr<Table> r = s->TakeResult();
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->num_rows(), 5);  // TPC-H region is fixed at 5 rows
}

TEST_F(ServerTest, RequestValidation) {
  QueryRequest req;
  EXPECT_FALSE(QueryRequest{}.Validate().empty());  // empty query
  req.query = "q6";
  EXPECT_EQ(req.Validate(), "");
  EXPECT_EQ(req.TpchQueryNumber(), 6);
  req.query = "Q14";
  EXPECT_EQ(req.TpchQueryNumber(), 14);
  req.query = "6";
  EXPECT_EQ(req.TpchQueryNumber(), 6);
  req.query = "q23";
  EXPECT_EQ(req.TpchQueryNumber(), 0);  // algebra text, not TPC-H
  req.query = "Table(region)";
  EXPECT_EQ(req.TpchQueryNumber(), 0);

  req.query = "q6";
  req.scale_factor = kMaxRequestScaleFactor * 2;
  EXPECT_NE(req.Validate().find("scale_factor"), std::string::npos);
  req.scale_factor = 0.01;
  req.num_threads = kMaxRequestThreads + 1;
  EXPECT_NE(req.Validate().find("num_threads"), std::string::npos);
  req.num_threads = 1;
  req.vector_size = 0;
  EXPECT_NE(req.Validate().find("vector_size"), std::string::npos);
  req.vector_size = 1024;
  req.engine = QueryEngine::kDisk;  // serves every query and algebra text
  req.query = "q2";
  EXPECT_EQ(req.Validate(), "");
  req.query = "Table(orders)";
  EXPECT_EQ(req.Validate(), "");
  req.query = "q14";
  EXPECT_EQ(req.Validate(), "");
  req.fuse = 2;
  EXPECT_NE(req.Validate().find("fuse"), std::string::npos);
  req.fuse = -2;
  EXPECT_NE(req.Validate().find("fuse"), std::string::npos);
  for (int fuse : {-1, 0, 1}) {
    req.fuse = fuse;
    EXPECT_EQ(req.Validate(), "");
  }
}

TEST_F(ServerTest, FuseToggleIsBitIdenticalPerRequest) {
  // The per-request fusion override is an A/B knob: the same query with
  // fuse=0 (interpreted chains), fuse=1 (fused kernels) and fuse=-1 (engine
  // default) must produce bit-identical tables.
  QueryService svc({/*max_concurrent=*/4, /*max_worker_threads=*/0});
  svc.engines()->Seed(kSf, db_);
  for (int q : kMix) {
    std::unique_ptr<Table> results[3];
    for (int fuse : {-1, 0, 1}) {
      QueryRequest req = Req(q);
      req.fuse = fuse;
      std::shared_ptr<QuerySession> s = svc.Submit(req);
      ASSERT_EQ(s->Wait(), QuerySession::State::kDone) << s->error();
      results[fuse + 1] = s->TakeResult();
      ASSERT_NE(results[fuse + 1], nullptr);
    }
    ExpectTablesEqual(*results[0], *results[1], 0.0);
    ExpectTablesEqual(*results[0], *results[2], 0.0);
    ExpectTablesEqual(Serial(q), *results[0], 0.0);
  }
}

TEST_F(ServerTest, LazyEngineCacheServesUnseededScaleFactor) {
  // No Seed: the first request at this SF dbgens its own engine (the
  // deterministic generator makes it bit-identical to the suite's).
  QueryService svc;
  auto s = svc.Submit(Req(6));
  ASSERT_EQ(s->Wait(), QuerySession::State::kDone) << s->error();
  std::unique_ptr<Table> r = s->TakeResult();
  ASSERT_NE(r, nullptr);
  ExpectTablesEqual(Serial(6), *r, 0.0);
}

}  // namespace
}  // namespace x100
