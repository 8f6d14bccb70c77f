// Tests for intra-query parallelism: the Xchg operator (§6's parallelism
// route), morsel partitioning of scans, merged partial aggregation on the
// TPC-H plans, and thread-safety of the shared infrastructure.

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/cancel.h"
#include "common/config.h"
#include "common/metrics.h"
#include "common/thread_pool.h"
#include "exec/exchange.h"
#include "exec/plan.h"
#include "tests/test_util.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"

namespace x100 {
namespace {

using namespace x100::exprs;
using testing::ExpectTablesEqual;

template <typename... Ts>
std::vector<AggrSpec> AG(Ts&&... ts) {
  std::vector<AggrSpec> v;
  (v.push_back(std::move(ts)), ...);
  return v;
}

// ---- Table::MorselRange ----------------------------------------------------

TEST(MorselRangeTest, PartitionsExactlyAndAligned) {
  for (int64_t end : {int64_t{0}, int64_t{5}, int64_t{999}, int64_t{1000},
                      int64_t{10000}, int64_t{123457}}) {
    for (int nw : {1, 2, 3, 8, 64}) {
      int64_t expect_begin = 0;
      for (int w = 0; w < nw; w++) {
        Table::RowRange r =
            Table::MorselRange(0, end, w, nw, kSummaryIndexGranule);
        EXPECT_EQ(r.begin, expect_begin) << "end=" << end << " w=" << w
                                         << "/" << nw;
        EXPECT_LE(r.begin, r.end);
        // Interior split points sit on granule boundaries so per-worker
        // summary-index pruning stays exact.
        if (w > 0 && r.begin != 0 && r.begin != end) {
          EXPECT_EQ(r.begin % kSummaryIndexGranule, 0);
        }
        expect_begin = r.end;
      }
      EXPECT_EQ(expect_begin, end) << "union must cover [0," << end << ")";
    }
  }
}

TEST(MorselRangeTest, NonZeroBaseAndUnitAlign) {
  // The delta region partitions with align=1 from an arbitrary base.
  int64_t expect_begin = 70;
  for (int w = 0; w < 4; w++) {
    Table::RowRange r = Table::MorselRange(70, 97, w, 4, 1);
    EXPECT_EQ(r.begin, expect_begin);
    expect_begin = r.end;
  }
  EXPECT_EQ(expect_begin, 97);
}

// ---- ExchangeOp ------------------------------------------------------------

std::unique_ptr<Table> MakeNumbers(int64_t n) {
  auto t = std::make_unique<Table>(
      "numbers", std::vector<Table::ColumnSpec>{{"k", TypeId::kI64, false},
                                                {"v", TypeId::kF64, false}});
  for (int64_t i = 0; i < n; i++) {
    t->AppendRow({Value::I64(i), Value::F64(i * 0.25)});
  }
  t->Freeze();
  return t;
}

int64_t Drain(Operator* op) {
  int64_t rows = 0;
  while (VectorBatch* b = op->Next()) rows += b->sel_count();
  return rows;
}

TEST(ExchangeTest, SingleWorkerBitIdenticalToPlainScan) {
  std::unique_ptr<Table> t = MakeNumbers(10000);
  ExecContext ctx;
  ctx.vector_size = 128;
  auto ex = plan::Exchange(&ctx, 1, [&](ExecContext* wctx, int, int) {
    return plan::Scan(wctx, *t, {"k", "v"});
  });
  std::unique_ptr<Table> via_exchange = RunPlan(std::move(ex), "ex");
  std::unique_ptr<Table> direct =
      RunPlan(plan::Scan(&ctx, *t, {"k", "v"}), "direct");
  // One producer + FIFO queue preserves batch order; rows must match 1:1.
  ExpectTablesEqual(*direct, *via_exchange, 0.0);
}

class ExchangeWorkersTest : public ::testing::TestWithParam<int> {};

TEST_P(ExchangeWorkersTest, MorselScansCoverTableExactly) {
  const int nw = GetParam();
  std::unique_ptr<Table> t = MakeNumbers(25000);
  ExecContext ctx;
  ctx.vector_size = 256;
  auto aggrs = [] {
    return AG(Sum("sum_k", Col("k")), Sum("sum_v", Col("v")),
              CountAll("n"));
  };
  auto ex = plan::Exchange(&ctx, nw, [&](ExecContext* wctx, int w, int n) {
    auto s = plan::Scan(wctx, *t,
                        {.cols = {"k", "v"}, .morsel = {w, n}});
    return plan::HashAggr(wctx, std::move(s), {}, aggrs());
  });
  auto merged =
      plan::HashAggr(&ctx, std::move(ex), {}, MergeAggrSpecs(aggrs()));
  std::unique_ptr<Table> par = RunPlan(std::move(merged), "par");

  auto ser = plan::HashAggr(&ctx, plan::Scan(&ctx, *t, {"k", "v"}), {},
                            aggrs());
  std::unique_ptr<Table> serial = RunPlan(std::move(ser), "serial");
  ExpectTablesEqual(*serial, *par);
}

INSTANTIATE_TEST_SUITE_P(Workers, ExchangeWorkersTest,
                         ::testing::Values(1, 2, 3, 8));

TEST(ExchangeTest, BackpressureBlocksProducers) {
  std::unique_ptr<Table> t = MakeNumbers(20000);
  ExecContext ctx;
  ctx.vector_size = 64;  // many batches per worker
  Counter* waits =
      MetricsRegistry::Get().GetCounter("exchange.producer_waits");
  uint64_t waits_before = waits->Get();

  ExchangeOp ex(
      &ctx, 2,
      [&](ExecContext* wctx, int w, int n) {
        return plan::Scan(wctx, *t, {.cols = {"k"}, .morsel = {w, n}});
      },
      /*queue_capacity=*/1);
  ex.Open();
  // Give the producers time to fill the 1-slot queue and block on it.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  int64_t rows = 0;
  while (VectorBatch* b = ex.Next()) rows += b->sel_count();
  ex.Close();

  EXPECT_EQ(rows, 20000);  // backpressure must not drop batches
  EXPECT_GT(waits->Get(), waits_before);
}

/// Forwards a child pipeline but throws after `fail_at` Next() calls.
class ThrowAfterOp : public Operator {
 public:
  ThrowAfterOp(std::unique_ptr<Operator> child, int fail_at)
      : child_(std::move(child)), fail_at_(fail_at) {}
  const Schema& schema() const override { return child_->schema(); }
  void Open() override { child_->Open(); }
  VectorBatch* Next() override {
    if (++calls_ >= fail_at_) throw std::runtime_error("worker failure");
    return child_->Next();
  }
  void Close() override { child_->Close(); }

 private:
  std::unique_ptr<Operator> child_;
  int fail_at_;
  int calls_ = 0;
};

TEST(ExchangeTest, WorkerExceptionPropagatesToConsumer) {
  std::unique_ptr<Table> t = MakeNumbers(20000);
  ExecContext ctx;
  ctx.vector_size = 64;
  ExchangeOp ex(&ctx, 4, [&](ExecContext* wctx, int w, int n) {
    auto s = plan::Scan(wctx, *t, {.cols = {"k"}, .morsel = {w, n}});
    // Worker 2 fails mid-stream; the others keep producing until cancelled.
    if (w == 2) return plan::OpPtr(std::make_unique<ThrowAfterOp>(
        std::move(s), 3));
    return s;
  });
  ex.Open();
  EXPECT_THROW(Drain(&ex), std::runtime_error);
  // Close after failure must cancel the healthy workers and not hang.
  ex.Close();
}

/// Produces nothing: sleeps, then throws. Models a worker that fails after
/// the consumer has already stopped looking at the queue.
class SleepThenThrowOp : public Operator {
 public:
  explicit SleepThenThrowOp(std::unique_ptr<Operator> child)
      : child_(std::move(child)) {}
  const Schema& schema() const override { return child_->schema(); }
  void Open() override { child_->Open(); }
  VectorBatch* Next() override {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    throw std::runtime_error("late worker failure");
  }
  void Close() override { child_->Close(); }

 private:
  std::unique_ptr<Operator> child_;
};

TEST(ExchangeTest, CloseSurfacesErrorTheConsumerNeverDrained) {
  // Regression: an error latched after the consumer's last Next() used to
  // vanish in Close() — the query "succeeded" with partial results. Close()
  // must rethrow it.
  // 10000 rows so each worker's morsel (granule-aligned, granule=1000) is
  // non-empty — worker 0 must actually produce a batch.
  std::unique_ptr<Table> t = MakeNumbers(10000);
  ExecContext ctx;
  ctx.vector_size = 256;
  ExchangeOp ex(&ctx, 2, [&](ExecContext* wctx, int w, int n) {
    auto s = plan::Scan(wctx, *t, {.cols = {"k"}, .morsel = {w, n}});
    if (w == 1) {
      return plan::OpPtr(std::make_unique<SleepThenThrowOp>(std::move(s)));
    }
    return s;
  });
  ex.Open();
  // The healthy worker's batch arrives well before worker 1 throws.
  ASSERT_NE(ex.Next(), nullptr);
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  EXPECT_THROW(ex.Close(), std::runtime_error);
}

TEST(ExchangeTest, RepeatedCancelLeaksNoPoolThreads) {
  // A session cancelled mid-query unwinds through ExchangeOp many times in
  // a server's lifetime; every iteration must join its workers and hand
  // their pool slots back.
  std::unique_ptr<Table> t = MakeNumbers(60000);
  ExecContext ctx;
  ctx.vector_size = 64;  // many batches -> workers still running at cancel
  for (int iter = 0; iter < 25; iter++) {
    CancelToken token;
    ctx.cancel = &token;
    ExchangeOp ex(
        &ctx, 4,
        [&](ExecContext* wctx, int w, int n) {
          return plan::Scan(wctx, *t, {.cols = {"k"}, .morsel = {w, n}});
        },
        /*queue_capacity=*/2);
    ex.Open();
    ASSERT_NE(ex.Next(), nullptr);
    token.RequestCancel();
    EXPECT_THROW(
        {
          while (ex.Next() != nullptr) {
          }
        },
        QueryCancelled);
    // Cancellation is expected teardown, not an error: Close() is clean.
    EXPECT_NO_THROW(ex.Close());
    ctx.cancel = nullptr;
  }
  // Liveness probe: the shared pool must still execute new work. The tasks
  // make no concurrency assumptions — each just counts itself. Release
  // increments and acquire loads order each task's last access to the
  // counter before the test frame that owns it unwinds.
  ThreadPool& pool = ThreadPool::Shared();
  const int n = pool.num_threads();
  std::atomic<int> ran{0};
  for (int i = 0; i < n; i++) {
    pool.Submit([&] { ran.fetch_add(1, std::memory_order_release); });
  }
  for (int spins = 0; ran.load(std::memory_order_acquire) < n && spins < 5000;
       spins++) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(ran.load(std::memory_order_acquire), n);
}

// ---- Parallel TPC-H plans --------------------------------------------------

class ParallelTpchTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    DbgenOptions opts;
    opts.scale_factor = 0.02;
    db_ = GenerateTpch(opts).release();
  }
  static Catalog* db_;
};
Catalog* ParallelTpchTest::db_ = nullptr;

TEST_F(ParallelTpchTest, Q1MatchesSerialAtAnyWorkerCount) {
  ExecContext serial_ctx;
  std::unique_ptr<Table> serial = RunX100Query(1, &serial_ctx, *db_);
  for (int threads : {2, 8}) {
    ExecContext ctx;
    ctx.num_threads = threads;
    std::unique_ptr<Table> par = RunX100Query(1, &ctx, *db_);
    // The plan's final Order makes row order deterministic; only FP
    // summation order differs across workers.
    ExpectTablesEqual(*serial, *par);
  }
}

TEST_F(ParallelTpchTest, Q6MatchesSerialAtAnyWorkerCount) {
  ExecContext serial_ctx;
  std::unique_ptr<Table> serial = RunX100Query(6, &serial_ctx, *db_);
  for (int threads : {2, 8}) {
    ExecContext ctx;
    ctx.num_threads = threads;
    std::unique_ptr<Table> par = RunX100Query(6, &ctx, *db_);
    ExpectTablesEqual(*serial, *par);
  }
}

TEST_F(ParallelTpchTest, OneThreadRunsTheSerialPlanBitIdentically) {
  ExecContext a, b;
  b.num_threads = 1;
  std::unique_ptr<Table> ra = RunX100Query(1, &a, *db_);
  std::unique_ptr<Table> rb = RunX100Query(1, &b, *db_);
  ExpectTablesEqual(*ra, *rb, 0.0);
}

TEST_F(ParallelTpchTest, ExplainAnalyzeMergesWorkerSubtrees) {
  QueryTrace trace;
  ExecContext ctx;
  ctx.num_threads = 4;
  ctx.trace = &trace;
  std::unique_ptr<Table> r = RunX100Query(6, &ctx, *db_);
  ASSERT_EQ(r->num_rows(), 1);
  std::string s = trace.ToString();
  EXPECT_NE(s.find("Exchange(workers=4)"), std::string::npos) << s;
  // The per-worker subtree appears once, merged, under the exchange node.
  EXPECT_NE(s.find("morsel"), std::string::npos) << s;
}

// ---- Shared infrastructure -------------------------------------------------

TEST(ThreadPoolTest, RunsAllSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> ran{0};
  for (int i = 0; i < 1000; i++) {
    pool.Submit([&] { ran.fetch_add(1, std::memory_order_relaxed); });
  }
  while (ran.load() < 1000) std::this_thread::yield();
  EXPECT_EQ(ran.load(), 1000);
}

TEST(MetricsThreadingTest, ConcurrentRegistrationAndCounting) {
  // Hammer both the name->metric map (mutex) and a shared counter (atomic)
  // from many threads; the total must be exact.
  const int kThreads = 8, kIters = 20000;
  Counter* c = MetricsRegistry::Get().GetCounter("test.parallel_hammer");
  c->Reset();
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([t] {
      for (int i = 0; i < kIters; i++) {
        MetricsRegistry::Get().GetCounter("test.parallel_hammer")->Inc();
        // Interleave fresh registrations to contend the map lock.
        if (i % 1000 == 0) {
          MetricsRegistry::Get().GetCounter("test.hammer." +
                                            std::to_string(t));
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(c->Get(), static_cast<uint64_t>(kThreads) * kIters);
}

}  // namespace
}  // namespace x100
