// End-to-end tests of the TCP front-end: real sockets against a real
// QueryService. The protocol handshake, streamed bit-identical results,
// cancel/deadline surfacing, connection refusal, and — the regression this
// suite exists for — a client that disappears mid-query must cancel its
// sessions, unblock a driver wedged on the outbox, and release every
// buffer-pool pin.

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/metrics.h"
#include "server/client.h"
#include "server/engine_cache.h"
#include "server/query_service.h"
#include "server/tcp_server.h"
#include "server/wire.h"
#include "storage/buffer_pool.h"
#include "storage/columnbm.h"
#include "tests/test_util.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

namespace x100 {
namespace {

constexpr double kSf = 0.02;

class TcpServerTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    DbgenOptions opts;
    opts.scale_factor = kSf;
    db_ = GenerateTpch(opts).release();
    ExecContext ctx;
    serial_q6_ = RunX100Query(6, &ctx, *db_).release();
  }

  static Catalog* db_;
  static Table* serial_q6_;
};
Catalog* TcpServerTest::db_ = nullptr;
Table* TcpServerTest::serial_q6_ = nullptr;

/// Spins until `c` reads at least `floor` (bounded at ~10 s).
bool AwaitCounter(Counter* c, uint64_t floor) {
  for (int i = 0; i < 10000; i++) {
    if (c->Get() >= floor) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return c->Get() >= floor;
}

/// One request's whole stream: its batches, then its DONE.
struct Stream {
  std::vector<BatchMsg> batches;
  DoneMsg done;
};

/// Reads the next stream off `c` (one request in flight at a time).
bool Collect(Client* c, Stream* out, std::string* error) {
  for (;;) {
    Client::Event ev;
    if (!c->Next(&ev, error)) return false;
    if (ev.kind == Client::Event::Kind::kBatch) {
      out->batches.push_back(std::move(ev.batch));
    } else if (ev.kind == Client::Event::Kind::kDone) {
      out->done = ev.done;
      return true;
    }
  }
}

TEST_F(TcpServerTest, HandshakeSubmitStreamsBitIdenticalResultThenDone) {
  QueryService svc;
  svc.engines()->Seed(kSf, db_);
  TcpServer server(&svc, {/*port=*/0, /*max_connections=*/8,
                          /*outbox_bytes=*/1 << 20});
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  auto client = Client::Connect("127.0.0.1", server.port(), &error);
  ASSERT_NE(client, nullptr) << error;

  QueryRequest req;
  req.query = "q6";
  req.scale_factor = kSf;
  ASSERT_TRUE(client->Submit(42, req, &error)) << error;

  // The whole stream for id 42: batches then DONE.
  std::vector<BatchMsg> batches;
  DoneMsg done;
  for (;;) {
    Client::Event ev;
    ASSERT_TRUE(client->Next(&ev, &error)) << error;
    if (ev.kind == Client::Event::Kind::kBatch) {
      EXPECT_EQ(ev.batch.id, 42u);
      batches.push_back(std::move(ev.batch));
      continue;
    }
    ASSERT_EQ(ev.kind, Client::Event::Kind::kDone);
    done = ev.done;
    break;
  }
  EXPECT_EQ(done.id, 42u);
  EXPECT_EQ(done.outcome.status, QueryStatus::kDone);
  EXPECT_EQ(done.outcome.rows, serial_q6_->num_rows());

  // Bit-identity against the in-process serial reference: the streamed
  // bytes must equal a local encode of the same table at the same
  // vector-size chunking (q6's single row -> exactly one batch).
  ASSERT_EQ(batches.size(), 1u);
  BatchMsg ref;
  ASSERT_TRUE(DecodeBatch(
      EncodeBatch(42, *serial_q6_, 0, serial_q6_->num_rows()), &ref, &error))
      << error;
  ASSERT_EQ(batches[0].cols.size(), ref.cols.size());
  for (size_t c = 0; c < ref.cols.size(); c++) {
    EXPECT_EQ(batches[0].cols[c].type, ref.cols[c].type);
    EXPECT_EQ(batches[0].cols[c].fixed, ref.cols[c].fixed) << "col " << c;
    EXPECT_EQ(batches[0].cols[c].strs, ref.cols[c].strs) << "col " << c;
  }

  server.Stop();
  svc.Drain();
}

TEST_F(TcpServerTest, PipelinedSubmitsEachGetTheirOwnStream) {
  QueryService svc({/*max_concurrent=*/4, /*max_worker_threads=*/0});
  svc.engines()->Seed(kSf, db_);
  TcpServer server(&svc, {0, 8, 1 << 20});
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  auto client = Client::Connect("127.0.0.1", server.port(), &error);
  ASSERT_NE(client, nullptr) << error;

  QueryRequest req;
  req.query = "q6";
  req.scale_factor = kSf;
  for (uint64_t id = 1; id <= 6; id++) {
    ASSERT_TRUE(client->Submit(id, req, &error)) << error;
  }
  int done = 0;
  std::vector<bool> seen(7, false);
  while (done < 6) {
    Client::Event ev;
    ASSERT_TRUE(client->Next(&ev, &error)) << error;
    if (ev.kind != Client::Event::Kind::kDone) continue;
    EXPECT_EQ(ev.done.outcome.status, QueryStatus::kDone)
        << ev.done.outcome.error;
    ASSERT_GE(ev.done.id, 1u);
    ASSERT_LE(ev.done.id, 6u);
    EXPECT_FALSE(seen[ev.done.id]) << "duplicate DONE for " << ev.done.id;
    seen[ev.done.id] = true;
    done++;
  }
  server.Stop();
  svc.Drain();
}

TEST_F(TcpServerTest, CancelFrameCancelsARunningQuery) {
  QueryService svc;
  svc.engines()->Seed(kSf, db_);
  TcpServer server(&svc, {0, 8, 1 << 20});
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  auto client = Client::Connect("127.0.0.1", server.port(), &error);
  ASSERT_NE(client, nullptr) << error;

  QueryRequest slow;
  slow.query = "q1";
  slow.scale_factor = kSf;
  slow.vector_size = 1;  // per-tuple vectors: tens of ms of work, many polls
  uint64_t submitted0 =
      MetricsRegistry::Get().GetCounter("server.submitted")->Get();
  ASSERT_TRUE(client->Submit(7, slow, &error)) << error;
  // Cancel as soon as the server has taken the SUBMIT — the query needs
  // tens of milliseconds, so the cancel lands while it is queued/running.
  AwaitCounter(MetricsRegistry::Get().GetCounter("server.submitted"),
               submitted0 + 1);
  ASSERT_TRUE(client->Cancel(7, &error)) << error;

  Client::Event ev;
  do {
    ASSERT_TRUE(client->Next(&ev, &error)) << error;
  } while (ev.kind != Client::Event::Kind::kDone);
  EXPECT_EQ(ev.done.id, 7u);
  EXPECT_EQ(ev.done.outcome.status, QueryStatus::kCancelled);
  EXPECT_FALSE(ev.done.outcome.deadline_exceeded);
  server.Stop();
  svc.Drain();
}

TEST_F(TcpServerTest, DeadlineSurfacesAsCancelledDone) {
  QueryService svc;
  svc.engines()->Seed(kSf, db_);
  TcpServer server(&svc, {0, 8, 1 << 20});
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  auto client = Client::Connect("127.0.0.1", server.port(), &error);
  ASSERT_NE(client, nullptr) << error;

  QueryRequest req;
  req.query = "q1";
  req.scale_factor = kSf;
  req.vector_size = 1;   // far slower than the deadline
  req.timeout_ms = 1;
  ASSERT_TRUE(client->Submit(9, req, &error)) << error;
  Client::Event ev;
  do {
    ASSERT_TRUE(client->Next(&ev, &error)) << error;
  } while (ev.kind != Client::Event::Kind::kDone);
  EXPECT_EQ(ev.done.outcome.status, QueryStatus::kCancelled);
  EXPECT_TRUE(ev.done.outcome.deadline_exceeded);
  server.Stop();
  svc.Drain();
}

TEST_F(TcpServerTest, InvalidRequestSurfacesAsFailedDone) {
  QueryService svc;
  svc.engines()->Seed(kSf, db_);
  TcpServer server(&svc, {0, 8, 1 << 20});
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  auto client = Client::Connect("127.0.0.1", server.port(), &error);
  ASSERT_NE(client, nullptr) << error;

  QueryRequest req;
  req.query = "q2";
  req.engine = QueryEngine::kDisk;
  req.scale_factor = kSf;
  req.vector_size = 0;  // out of range
  ASSERT_TRUE(client->Submit(3, req, &error)) << error;
  Client::Event ev;
  ASSERT_TRUE(client->Next(&ev, &error)) << error;
  ASSERT_EQ(ev.kind, Client::Event::Kind::kDone);
  EXPECT_EQ(ev.done.outcome.status, QueryStatus::kFailed);
  EXPECT_NE(ev.done.outcome.error.find("vector_size"), std::string::npos)
      << ev.done.outcome.error;

  // The same query with a valid shape is served from disk blocks.
  req.vector_size = kDefaultVectorSize;
  ASSERT_TRUE(client->Submit(4, req, &error)) << error;
  Stream q2;
  ASSERT_TRUE(Collect(client.get(), &q2, &error)) << error;
  EXPECT_EQ(q2.done.outcome.status, QueryStatus::kDone)
      << q2.done.outcome.error;
  ExecContext ctx;
  EXPECT_EQ(q2.done.outcome.rows, RunX100Query(2, &ctx, *db_)->num_rows());
  server.Stop();
  svc.Drain();
}

TEST_F(TcpServerTest, MalformedAlgebraFailsAndTheConnectionKeepsServing) {
  // An expression that does not bind is the client's error, not the
  // server's: each plan ends in a kFailed DONE carrying the bind error, and
  // the same connection goes on serving.
  QueryService svc;
  svc.engines()->Seed(kSf, db_);
  TcpServer server(&svc, {0, 8, 1 << 20});
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  auto client = Client::Connect("127.0.0.1", server.port(), &error);
  ASSERT_NE(client, nullptr) << error;

  const char* plans[] = {
      // unary use of a binary operator
      "Project(Table(lineitem, l_discount), [d = +(l_discount)])",
      // unknown column
      "Project(Table(lineitem, l_discount), [d = *(l_nope, l_discount)])",
      // wrong arity for mahalanobis
      "Project(Table(lineitem, l_discount, l_tax), "
      "[d = mahalanobis(l_discount, l_tax)])",
      // a predicate that is not a comparison
      "Select(Table(lineitem, l_discount), +(l_discount, l_discount))",
      // no str x str arithmetic primitive
      "Project(Table(orders, o_comment), [d = +(o_comment, o_comment)])",
      // unknown sort key
      "Order(Table(region), [r_nope ASC])",
      // unknown group-by column
      "HashAggr(Table(region), [r_nope], [n = count()])",
      // unknown row-id column
      "Fetch1Join(Table(nation), region, n_nope, [r_name AS r])",
      // unknown probe key, unknown probe output column
      "HashJoin(Table(nation), Table(region), [n_nope], [r_regionkey], "
      "[n_name])",
      "HashJoin(Table(nation), Table(region), [n_regionkey], [r_regionkey], "
      "[n_nope])",
      // unknown build key; key lists of different lengths
      "SemiJoin(Table(nation), Table(region), [n_regionkey], [r_nope], "
      "[n_name])",
      "AntiJoin(Table(nation), Table(region), [n_regionkey, n_nationkey], "
      "[r_regionkey], [n_name])",
      // an enum-coded key joined to a plain one
      "HashJoin(Table(nation), Table(region), [n_name], [r_regionkey], "
      "[n_name])",
      // DirectAggr keys wider than 16 bits; more than two keys
      "DirectAggr(Table(nation), [n_nationkey], [c = count()])",
      "DirectAggr(Table(nation), [n_name, n_name, n_name], [c = count()])",
  };
  uint64_t id = 1;
  for (const char* plan : plans) {
    SCOPED_TRACE(plan);
    QueryRequest req;
    req.query = plan;
    req.scale_factor = kSf;
    ASSERT_TRUE(client->Submit(id++, req, &error)) << error;
    Stream s;
    ASSERT_TRUE(Collect(client.get(), &s, &error)) << error;
    EXPECT_TRUE(s.batches.empty());
    EXPECT_EQ(s.done.outcome.status, QueryStatus::kFailed);
    EXPECT_NE(s.done.outcome.error.find("bind error"), std::string::npos)
        << s.done.outcome.error;
  }

  QueryRequest q6;
  q6.query = "q6";
  q6.scale_factor = kSf;
  ASSERT_TRUE(client->Submit(id++, q6, &error)) << error;
  Stream s;
  ASSERT_TRUE(Collect(client.get(), &s, &error)) << error;
  EXPECT_EQ(s.done.outcome.status, QueryStatus::kDone) << s.done.outcome.error;
  EXPECT_EQ(s.done.outcome.rows, serial_q6_->num_rows());
  server.Stop();
  svc.Drain();
}

TEST_F(TcpServerTest, Q3StreamsItsOrderDateAsADateColumn) {
  // Project passes o_orderdate through unchanged, so the column must reach
  // the client typed as a date, not as the binder's physical i32.
  QueryService svc;
  svc.engines()->Seed(kSf, db_);
  TcpServer server(&svc, {0, 8, 1 << 20});
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  auto client = Client::Connect("127.0.0.1", server.port(), &error);
  ASSERT_NE(client, nullptr) << error;

  QueryRequest req;
  req.query = "q3";
  req.scale_factor = kSf;
  ASSERT_TRUE(client->Submit(1, req, &error)) << error;
  Stream s;
  ASSERT_TRUE(Collect(client.get(), &s, &error)) << error;
  ASSERT_EQ(s.done.outcome.status, QueryStatus::kDone) << s.done.outcome.error;
  ASSERT_FALSE(s.batches.empty());

  ExecContext ctx;
  std::unique_ptr<Table> ref = RunX100Query(3, &ctx, *db_);
  int ci = ref->schema().Find("o_orderdate");
  ASSERT_GE(ci, 0);
  ASSERT_LT(ci, static_cast<int>(s.batches[0].cols.size()));
  const BatchMsg::Col& col = s.batches[0].cols[ci];
  EXPECT_EQ(col.type, TypeId::kDate);
  ASSERT_GE(col.fixed.size(), sizeof(int32_t));
  int32_t first = 0;
  std::memcpy(&first, col.fixed.data(), sizeof(first));
  EXPECT_EQ(first, ref->GetValue(0, ci).AsI64());
  server.Stop();
  svc.Drain();
}

TEST_F(TcpServerTest, AlgebraOnDiskStreamsTheSameBytesAsRam) {
  // Algebra text runs on the disk engine like a TPC-H plan: Table(orders)
  // scans o_comment, a non-enum string column served from RAM beside the
  // blocked columns. Both streams must match byte for byte.
  QueryService svc;
  svc.engines()->Seed(kSf, db_);
  TcpServer server(&svc, {0, 8, 1 << 20});
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  auto client = Client::Connect("127.0.0.1", server.port(), &error);
  ASSERT_NE(client, nullptr) << error;

  Stream got[2];
  for (QueryEngine engine : {QueryEngine::kRam, QueryEngine::kDisk}) {
    QueryRequest req;
    req.query = "Table(orders)";
    req.engine = engine;
    req.scale_factor = kSf;
    ASSERT_TRUE(client->Submit(7, req, &error)) << error;
    Stream& s = got[static_cast<int>(engine)];
    ASSERT_TRUE(Collect(client.get(), &s, &error)) << error;
    ASSERT_EQ(s.done.outcome.status, QueryStatus::kDone)
        << s.done.outcome.error;
  }
  EXPECT_EQ(got[1].done.outcome.rows, db_->Get("orders").num_rows());
  ASSERT_EQ(got[0].batches.size(), got[1].batches.size());
  for (size_t b = 0; b < got[0].batches.size(); b++) {
    const BatchMsg& ram = got[0].batches[b];
    const BatchMsg& disk = got[1].batches[b];
    EXPECT_EQ(ram.num_rows, disk.num_rows);
    ASSERT_EQ(ram.cols.size(), disk.cols.size());
    for (size_t c = 0; c < ram.cols.size(); c++) {
      EXPECT_EQ(ram.cols[c].type, disk.cols[c].type);
      EXPECT_EQ(ram.cols[c].fixed, disk.cols[c].fixed) << "col " << c;
      EXPECT_EQ(ram.cols[c].strs, disk.cols[c].strs) << "col " << c;
    }
  }
  server.Stop();
  svc.Drain();
}

TEST_F(TcpServerTest, MetricsFrameReturnsRegistrySnapshot) {
  QueryService svc;
  TcpServer server(&svc, {0, 8, 1 << 20});
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  auto client = Client::Connect("127.0.0.1", server.port(), &error);
  ASSERT_NE(client, nullptr) << error;
  ASSERT_TRUE(client->RequestMetrics(&error)) << error;
  Client::Event ev;
  ASSERT_TRUE(client->Next(&ev, &error)) << error;
  ASSERT_EQ(ev.kind, Client::Event::Kind::kMetrics);
  EXPECT_NE(ev.metrics.json.find("server.net.accepted"), std::string::npos);
  server.Stop();
  svc.Drain();
}

TEST_F(TcpServerTest, MaxConnectionsRefusedWithErrorFrame) {
  QueryService svc;
  TcpServer server(&svc, {0, /*max_connections=*/1, 1 << 20});
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  auto first = Client::Connect("127.0.0.1", server.port(), &error);
  ASSERT_NE(first, nullptr) << error;
  auto second = Client::Connect("127.0.0.1", server.port(), &error);
  EXPECT_EQ(second, nullptr);
  EXPECT_NE(error.find("max connections"), std::string::npos) << error;
  server.Stop();
}

TEST_F(TcpServerTest, GarbageInsteadOfHelloIsRejected) {
  QueryService svc;
  TcpServer server(&svc, {0, 8, 1 << 20});
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  int fd = socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  struct sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(server.port()));
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                    sizeof(addr)),
            0);
  // A frame whose declared length is absurd condemns the stream.
  uint8_t junk[kWireHeaderBytes] = {0xFF, 0xFF, 0xFF, 0xFF, 0x02};
  ASSERT_EQ(send(fd, junk, sizeof(junk), MSG_NOSIGNAL),
            static_cast<ssize_t>(sizeof(junk)));
  // Server answers with a connection-level ERROR frame, then closes.
  std::vector<uint8_t> got(4096);
  size_t total = 0;
  for (;;) {
    ssize_t n = read(fd, got.data() + total, got.size() - total);
    if (n <= 0) break;
    total += static_cast<size_t>(n);
  }
  close(fd);
  Frame f;
  size_t consumed = 0;
  ASSERT_EQ(DecodeFrame(got.data(), total, &f, &consumed, &error),
            DecodeStatus::kFrame)
      << error;
  EXPECT_EQ(f.type, FrameType::kError);
  ErrorMsg msg;
  ASSERT_TRUE(DecodeError(f.payload, &msg, &error)) << error;
  EXPECT_EQ(msg.id, 0u);
  server.Stop();
}

TEST_F(TcpServerTest, KillConnectionMidQueryCancelsAndReleasesPins) {
  // THE disconnect regression: a client that vanishes while its disk query
  // runs must (a) cancel the session, (b) release every buffer-pool pin
  // the scan held, and (c) leave the service able to run new queries.
  testing::ScopedTempDir dir("x100_tcp_test");
  ColumnBm bm(ColumnBm::Options{.disk_dir = dir.path()});
  Counter* cancelled = MetricsRegistry::Get().GetCounter("server.cancelled");
  uint64_t cancelled0 = cancelled->Get();
  {
    QueryService svc;
    svc.engines()->Seed(kSf, db_, &bm);
    TcpServer server(&svc, {0, 8, 1 << 20});
    std::string error;
    ASSERT_TRUE(server.Start(&error)) << error;
    auto client = Client::Connect("127.0.0.1", server.port(), &error);
    ASSERT_NE(client, nullptr) << error;

    QueryRequest req;
    req.query = "q1";
    req.engine = QueryEngine::kDisk;
    req.scale_factor = kSf;
    req.vector_size = 1;  // seconds of work with blocks pinned throughout
    uint64_t submitted0 =
        MetricsRegistry::Get().GetCounter("server.submitted")->Get();
    ASSERT_TRUE(client->Submit(13, req, &error)) << error;
    AwaitCounter(MetricsRegistry::Get().GetCounter("server.submitted"),
                 submitted0 + 1);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));

    client->Abort();  // RST, no goodbye

    // The close must cancel the session without any further client action.
    EXPECT_TRUE(AwaitCounter(cancelled, cancelled0 + 1));
    server.Stop();
    svc.Drain();  // driver joined => the query unwound, not wedged

    // Service still serves: a fresh connection-less request completes.
    auto ok = svc.Submit([&](ExecContext* c) {
      c->blocks = {&bm, db_, /*compress=*/true};
      return RunX100Query(6, c, *db_);
    });
    EXPECT_EQ(ok->Wait(), QuerySession::State::kDone) << ok->error();
    svc.Drain();
  }
  // Every pin is back: with no query live the whole pool is evictable.
  bm.pool()->InvalidatePrefix("");
  EXPECT_EQ(bm.pool()->resident_bytes(), 0u);
}

TEST_F(TcpServerTest, KillConnectionMidStreamUnblocksAWedgedDriver) {
  // Variant of the disconnect regression for the OTHER blocking site: the
  // driver is not executing but streaming a large result into a tiny
  // outbox. The client stops reading and vanishes; the driver must unblock
  // via the closed outbox and unwind as cancelled.
  QueryService svc;
  svc.engines()->Seed(kSf, db_);
  TcpServer server(&svc, {0, 8, /*outbox_bytes=*/1});  // floored to 64 KiB
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  auto client = Client::Connect("127.0.0.1", server.port(), &error);
  ASSERT_NE(client, nullptr) << error;

  Counter* cancelled = MetricsRegistry::Get().GetCounter("server.cancelled");
  uint64_t cancelled0 = cancelled->Get();
  QueryRequest req;
  req.query = "Table(lineitem)";  // the whole table: megabytes of batches
  req.scale_factor = kSf;
  req.vector_size = 64;
  ASSERT_TRUE(client->Submit(21, req, &error)) << error;

  // Read one batch so the stream is known to be flowing, then walk away
  // without draining the rest.
  Client::Event ev;
  do {
    ASSERT_TRUE(client->Next(&ev, &error)) << error;
  } while (ev.kind != Client::Event::Kind::kBatch);
  client->Abort();

  EXPECT_TRUE(AwaitCounter(cancelled, cancelled0 + 1));
  server.Stop();
  svc.Drain();
}

TEST_F(TcpServerTest, ServerStopMidQueryStillDrains) {
  // Stop() with live connections and a running query: close must cancel
  // the inflight session and Drain() must join its driver.
  QueryService svc;
  svc.engines()->Seed(kSf, db_);
  TcpServer server(&svc, {0, 8, 1 << 20});
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  auto client = Client::Connect("127.0.0.1", server.port(), &error);
  ASSERT_NE(client, nullptr) << error;
  QueryRequest slow;
  slow.query = "q1";
  slow.scale_factor = kSf;
  slow.vector_size = 1;
  uint64_t submitted0 =
      MetricsRegistry::Get().GetCounter("server.submitted")->Get();
  ASSERT_TRUE(client->Submit(2, slow, &error)) << error;
  AwaitCounter(MetricsRegistry::Get().GetCounter("server.submitted"),
               submitted0 + 1);
  server.Stop();
  svc.Drain();
}

}  // namespace
}  // namespace x100
