// serve_ingest: a durable QueryService behind a loopback TcpServer, driven
// open loop over the wire protocol by one poll-driven client thread.
//
// The mix (schedule.h): durable lineitem appends and deletes (UPDATE
// frames), short TPC-H reads on tables the writes never touch (Q2, Q11,
// Q16, Q22, so each answer is checked bit for bit against a local run), and
// a large-result algebra scan of orders that stresses batch encode and
// send. The server keeps its default merge threshold and group-commit
// window.
//
// Phases: a light and a heavy fixed offered rate, then a search for the
// highest rate whose p99 stays within kLimitMs and whose backlog drains;
// an untimed warm-up comes first, and the light rate runs in short windows
// spread over the whole run. Before the warm-up, lineitem's delta is
// preloaded so that it crosses the merge threshold halfway through the heavy
// phase: every run merges once, under load, at the same point of its stream.
// Afterwards the WAL directory is reopened (timed as storage.recover_s):
// every acknowledged write must be there, and Q1/Q6 over lineitem must be
// bit for bit those of a serial replay of the acknowledged stream.

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "schedule.h"
#include "server/engine_cache.h"
#include "server/query_service.h"
#include "server/tcp_server.h"
#include "server/wire.h"
#include "storage/table.h"
#include "tpch/dbgen.h"
#include "workloads.h"

namespace xbench {

namespace {

using x100::Table;

// Small enough that reads cost about a millisecond and server overhead
// (framing, admission, driver threads, encode, group commit) dominates.
constexpr double kSf = 0.02;
// Set-up is short here, so it is repeated more often for a steady median.
constexpr int kSetups = 21;
// Offered rates (operations per second) of the two fixed phases: a quarter
// and a half of the capacity this workload's search measured on the
// reference host, a 4-vCPU virtual machine whose server gets two of them,
// before the CPU spinners (max_qps 860-980/s on a quiet host; 640-860/s
// with them). They stay fixed, so a faster server is measured under the
// same offered load; the heavy rate leaves room for the merge's stall and
// for a host slowed by other tenants, whose backlog would otherwise take
// longer than kDrainCapS to drain.
constexpr double kLightRate = 225;
constexpr double kHeavyRate = 450;
// The light rate runs in up to this many windows spread over the run (one
// per two seconds of the run), so that a burst of outside load on a shared
// host spoils a minority of them.
constexpr int kLightWindows = 10;
// The p99 limit the max-rate search holds short reads and commits to.
constexpr double kLimitMs = 100;
// The search: a staircase from three quarters of that capacity, in
// geometric steps of kStepS seconds whose factor shrinks at each change of
// direction down to kSearchFineStep.
constexpr double kSearchStart = 675;
constexpr double kSearchStep = 1.5;
constexpr double kSearchFineStep = 1.05;
constexpr double kSearchCeiling = 20000;
constexpr double kStepS = 0.75;
// No phase may need longer than this to drain its backlog.
constexpr double kDrainCapS = 20;

const char* const kShortReads[] = {"q2", "q11", "q16", "q22"};
constexpr int kNumShortReads = 4;
const char* const kScanQuery = "Table(orders)";
constexpr int kScanSlot = kNumShortReads;  // digest slot of the scan

x100::QueryRequest ReadRequest(OpKind kind, int64_t arg) {
  x100::QueryRequest req;
  req.query = kind == OpKind::kScan ? kScanQuery : kShortReads[arg];
  req.scale_factor = kSf;
  return req;
}

/// Answer digest, independent of how the result is cut into batches: one
/// running hash per column over its values in row order (strings as u32
/// length + bytes), mixed eight bytes at a time.
class Digest {
 public:
  void Add(const x100::BatchMsg& b) {
    if (cols_.empty()) {
      cols_.resize(b.cols.size());
      for (size_t i = 0; i < b.cols.size(); i++) {
        cols_[i].type = static_cast<int>(b.cols[i].type);
      }
    }
    if (b.cols.size() != cols_.size()) {
      shape_ok_ = false;
      return;
    }
    for (size_t i = 0; i < b.cols.size(); i++) {
      const x100::BatchMsg::Col& c = b.cols[i];
      ColHash& h = cols_[i];
      if (static_cast<int>(c.type) != h.type) shape_ok_ = false;
      if (c.type == x100::TypeId::kStr) {
        for (const std::string& s : c.strs) {
          uint32_t len = static_cast<uint32_t>(s.size());
          h.Bytes(&len, sizeof(len));
          h.Bytes(s.data(), s.size());
        }
      } else {
        h.Bytes(c.fixed.data(), c.fixed.size());
      }
    }
    rows_ += b.num_rows;
  }
  bool operator==(const Digest& o) const {
    if (!shape_ok_ || !o.shape_ok_ || rows_ != o.rows_ ||
        cols_.size() != o.cols_.size()) {
      return false;
    }
    for (size_t i = 0; i < cols_.size(); i++) {
      if (cols_[i].type != o.cols_[i].type ||
          cols_[i].Final() != o.cols_[i].Final()) {
        return false;
      }
    }
    return true;
  }

 private:
  struct ColHash {
    int type = 0;
    uint64_t h = 0x9e3779b97f4a7c15ULL;
    uint64_t bytes = 0;
    uint8_t pend[8] = {};  // bytes not yet forming a whole word

    void Word(uint64_t w) {
      h = (h ^ w) * 0xff51afd7ed558ccdULL;
      h ^= h >> 32;
    }
    void Bytes(const void* p, size_t n) {
      const auto* b = static_cast<const uint8_t*>(p);
      size_t fill = bytes % 8;
      bytes += n;
      while (fill != 0 && n > 0) {
        pend[fill++] = *b++;
        n--;
        if (fill == 8) {
          uint64_t w;
          std::memcpy(&w, pend, 8);
          Word(w);
          fill = 0;
        }
      }
      for (; n >= 8; n -= 8, b += 8) {
        uint64_t w;
        std::memcpy(&w, b, 8);
        Word(w);
      }
      std::memcpy(pend, b, n);
    }
    uint64_t Final() const {
      ColHash c = *this;
      uint64_t w = 0;
      std::memcpy(&w, pend, bytes % 8);
      c.Word(w);
      c.Word(bytes);
      return c.h;
    }
  };
  std::vector<ColHash> cols_;
  int64_t rows_ = 0;
  bool shape_ok_ = true;
};

Digest DigestOf(const Table& t) {
  Digest d;
  x100::BatchMsg msg;
  std::string err;
  if (!x100::DecodeBatch(x100::EncodeBatch(0, t, 0, t.num_rows()), &msg,
                         &err)) {
    throw std::runtime_error("serve_ingest: reference decode: " + err);
  }
  d.Add(msg);
  return d;
}

/// The UPDATE an append or delete operation sends.
x100::UpdateRequest MakeUpdate(const Op& op, const Table& li) {
  x100::UpdateRequest req;
  req.table = "lineitem";
  req.scale_factor = kSf;
  req.durable = true;
  if (op.kind == OpKind::kDelete) {
    req.op = x100::UpdateOp::kDelete;
    req.rowid = op.arg;
    return req;
  }
  // A copy of an existing row (so every foreign key resolves) with a
  // seeded quantity and price.
  req.op = x100::UpdateOp::kAppend;
  int cols = static_cast<int>(li.specs().size());
  for (int c = 0; c < cols; c++) req.row.push_back(li.GetValue(op.arg, c));
  req.row[static_cast<size_t>(li.ColumnIndex("l_quantity"))] =
      x100::Value::F64(static_cast<double>(op.value % 50) + 1.0);
  req.row[static_cast<size_t>(li.ColumnIndex("l_extendedprice"))] =
      x100::Value::F64(1000.0 + static_cast<double>((op.value >> 8) % 997));
  return req;
}

/// One acknowledged write, for the recovery check and the serial replay.
struct Acked {
  uint64_t lsn = 0;
  x100::UpdateRequest req;
};

/// Everything one phase measured.
struct PhaseResult {
  Latencies reads, commits;  // short reads; scans are in stream_mb_s
  std::vector<std::vector<double>> read_kind_ms =
      std::vector<std::vector<double>>(kNumShortReads);
  std::vector<double> queue_ms, session_ms, net_ms, stream_mb_s;
  std::vector<std::pair<int, Digest>> digests;  // (slot, received answer)
  std::vector<Acked> acked;
  Tally tally;
  double gen_lag_ms_max = 0;
  double drain_ms = 0;  // last due time -> last completion
  double offered = 0;
};

class LoadClient {
 public:
  LoadClient(int port, int conns) {
    try {
      for (int i = 0; i < conns; i++) conns_.push_back(Connect(port));
    } catch (...) {
      for (Conn& c : conns_) close(c.fd);
      throw;
    }
  }
  ~LoadClient() {
    for (Conn& c : conns_) close(c.fd);
  }
  LoadClient(const LoadClient&) = delete;
  LoadClient& operator=(const LoadClient&) = delete;

  /// Offers `ops` open loop (due times relative to the phase start) and
  /// waits until every one completed. Frames are encoded before the clock
  /// starts, so the generator only copies bytes.
  PhaseResult Run(const std::vector<Op>& ops, const Table& base_li,
                  Tracer* tracer) {
    PhaseResult res;
    std::vector<std::vector<uint8_t>> frames(ops.size());
    std::vector<x100::UpdateRequest> updates(ops.size());
    for (size_t i = 0; i < ops.size(); i++) {
      uint64_t id = next_id_ + i;
      const Op& op = ops[i];
      if (op.kind == OpKind::kAppend || op.kind == OpKind::kDelete) {
        updates[i] = MakeUpdate(op, base_li);
        x100::AppendFrame(&frames[i], x100::FrameType::kUpdate,
                          x100::EncodeUpdate(x100::UpdateMsg{id, updates[i]}));
      } else {
        x100::AppendFrame(
            &frames[i], x100::FrameType::kSubmit,
            x100::EncodeSubmit(x100::SubmitMsg{id, ReadRequest(op.kind, op.arg)}));
      }
    }
    const uint64_t base_id = next_id_;
    next_id_ += ops.size();

    struct Inflight {
      size_t op = 0;
      OpClock clk;
      Digest digest;
      int64_t bytes = 0;
    };
    std::unordered_map<uint64_t, Inflight> inflight;
    const uint64_t t0 = Now() + 1000000;  // first due time 1 ms from now
    const uint64_t last_due = ops.empty() ? t0 : t0 + ops.back().due_ns;
    uint64_t last_done = t0;
    size_t next = 0;
    std::vector<pollfd> pfds(conns_.size());

    auto finish = [&](uint64_t id, uint64_t now) -> Inflight* {
      auto it = inflight.find(id);
      if (it == inflight.end()) {
        throw std::runtime_error("serve_ingest: reply for unknown id " +
                                 std::to_string(id));
      }
      it->second.clk.done = now;
      last_done = std::max(last_done, now);
      return &it->second;
    };
    auto span = [&](const Inflight& f, const char* name, uint64_t id) {
      if (tracer == nullptr) return;
      int64_t root = tracer->Open(name, f.clk.due, -1, id);
      tracer->Add(Span{"bench.gen_lag", f.clk.due, f.clk.sent, root, id});
      tracer->Add(Span{"wire.roundtrip", f.clk.sent, f.clk.done, root, id});
      tracer->Close(root, f.clk.done);
    };

    auto on_frame = [&](const x100::Frame& fr, uint64_t now) {
      std::string err;
      switch (fr.type) {
        case x100::FrameType::kBatch: {
          x100::BatchMsg b;
          if (!x100::DecodeBatch(fr.payload, &b, &err)) {
            throw std::runtime_error("serve_ingest: bad BATCH: " + err);
          }
          auto it = inflight.find(b.id);
          if (it == inflight.end()) {
            throw std::runtime_error("serve_ingest: BATCH for unknown id");
          }
          it->second.digest.Add(b);
          it->second.bytes += static_cast<int64_t>(fr.payload.size());
          return;
        }
        case x100::FrameType::kDone: {
          x100::DoneMsg d;
          if (!x100::DecodeDone(fr.payload, &d, &err)) {
            throw std::runtime_error("serve_ingest: bad DONE: " + err);
          }
          Inflight* f = finish(d.id, now);
          const Op& op = ops[f->op];
          bool scan = op.kind == OpKind::kScan;
          if (d.outcome.status != x100::QueryStatus::kDone) {
            std::fprintf(stderr, "serve_ingest: read failed: %s\n",
                         d.outcome.error.c_str());
            res.tally.failed++;
            if (!scan) res.reads.AddMissed();
          } else {
            double ms = f->clk.latency_ms();
            if (scan) {
              res.stream_mb_s.push_back(f->bytes / 1e6 /
                                        (f->clk.from_send_ms() / 1e3));
            } else {
              res.reads.Add(ms);
              res.read_kind_ms[static_cast<size_t>(op.arg)].push_back(ms);
            }
            double q = d.outcome.queue_nanos / 1e6;
            double s = d.outcome.exec_nanos / 1e6;
            res.queue_ms.push_back(q);
            res.session_ms.push_back(s);
            res.net_ms.push_back(std::max(0.0, f->clk.from_send_ms() - q - s));
            res.digests.emplace_back(scan ? kScanSlot : static_cast<int>(op.arg),
                                     std::move(f->digest));
          }
          span(*f, scan ? "serve.scan" : "serve.read", d.id);
          inflight.erase(d.id);
          return;
        }
        case x100::FrameType::kUpdateDone: {
          x100::UpdateDoneMsg u;
          if (!x100::DecodeUpdateDone(fr.payload, &u, &err)) {
            throw std::runtime_error("serve_ingest: bad UPDATE_DONE: " + err);
          }
          Inflight* f = finish(u.id, now);
          if (!u.outcome.ok) {
            std::fprintf(stderr, "serve_ingest: update failed: %s\n",
                         u.outcome.error.c_str());
            res.tally.failed++;
            res.commits.AddMissed();
          } else {
            res.commits.Add(f->clk.latency_ms());
            res.acked.push_back(Acked{u.outcome.lsn, updates[f->op]});
          }
          span(*f, "serve.commit", u.id);
          inflight.erase(u.id);
          return;
        }
        case x100::FrameType::kError: {
          x100::ErrorMsg e;
          x100::DecodeError(fr.payload, &e, &err);
          if (e.id == 0 || inflight.count(e.id) == 0) {
            throw std::runtime_error("serve_ingest: server error: " + e.message);
          }
          std::fprintf(stderr, "serve_ingest: refused: %s\n", e.message.c_str());
          Inflight* f = finish(e.id, now);
          res.tally.refused++;
          OpKind kind = ops[f->op].kind;
          if (kind == OpKind::kAppend || kind == OpKind::kDelete) {
            res.commits.AddMissed();
          } else if (kind == OpKind::kRead) {
            res.reads.AddMissed();
          }
          inflight.erase(e.id);
          return;
        }
        default:
          throw std::runtime_error("serve_ingest: unexpected frame type");
      }
    };

    while (next < ops.size() || !inflight.empty()) {
      uint64_t now = Now();
      while (next < ops.size() && t0 + ops[next].due_ns <= now) {
        Conn& c = conns_[static_cast<size_t>(ops[next].conn)];
        c.out.insert(c.out.end(), frames[next].begin(), frames[next].end());
        Inflight f;
        f.op = next;
        f.clk.due = t0 + ops[next].due_ns;
        f.clk.sent = now;
        res.gen_lag_ms_max = std::max(res.gen_lag_ms_max, f.clk.lateness_ms());
        inflight.emplace(base_id + next, std::move(f));
        res.tally.attempted++;
        next++;
      }
      for (Conn& c : conns_) Flush(&c);
      if (now > last_due + static_cast<uint64_t>(kDrainCapS * 1e9)) {
        throw std::runtime_error("serve_ingest: backlog did not drain within " +
                                 std::to_string(kDrainCapS) + " s");
      }
      for (size_t i = 0; i < conns_.size(); i++) {
        pfds[i].fd = conns_[i].fd;
        pfds[i].events = POLLIN;
        if (conns_[i].out.size() > conns_[i].out_off) pfds[i].events |= POLLOUT;
        pfds[i].revents = 0;
      }
      uint64_t wait_ns = 5000000;
      if (next < ops.size()) {
        uint64_t due = t0 + ops[next].due_ns;
        now = Now();
        wait_ns = due > now ? due - now : 0;
      }
      timespec ts{static_cast<time_t>(wait_ns / 1000000000ULL),
                  static_cast<long>(wait_ns % 1000000000ULL)};
      int n = ppoll(pfds.data(), pfds.size(), &ts, nullptr);
      if (n < 0 && errno != EINTR) {
        throw std::runtime_error(std::string("serve_ingest: poll: ") +
                                 std::strerror(errno));
      }
      for (size_t i = 0; n > 0 && i < conns_.size(); i++) {
        if (pfds[i].revents & (POLLERR | POLLHUP | POLLNVAL)) {
          throw std::runtime_error("serve_ingest: connection closed by server");
        }
        if (pfds[i].revents & POLLIN) Drain(&conns_[i], on_frame);
      }
    }
    res.drain_ms = last_done > last_due ? (last_done - last_due) / 1e6 : 0;
    return res;
  }

 private:
  struct Conn {
    int fd = -1;
    std::vector<uint8_t> out;
    size_t out_off = 0;
    std::vector<uint8_t> in;
  };

  static Conn Connect(int port) {
    int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) throw std::runtime_error("serve_ingest: socket failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      close(fd);
      throw std::runtime_error("serve_ingest: connect failed");
    }
    int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    Conn c;
    c.fd = fd;
    // Blocking handshake, then non-blocking for the poll loop.
    x100::AppendFrame(&c.out, x100::FrameType::kHello,
                      x100::EncodeHello(x100::HelloMsg{}));
    if (send(fd, c.out.data(), c.out.size(), MSG_NOSIGNAL) !=
        static_cast<ssize_t>(c.out.size())) {
      close(fd);
      throw std::runtime_error("serve_ingest: HELLO write failed");
    }
    c.out.clear();
    x100::Frame f;
    for (;;) {
      size_t consumed = 0;
      std::string err;
      x100::DecodeStatus st =
          x100::DecodeFrame(c.in.data(), c.in.size(), &f, &consumed, &err);
      if (st == x100::DecodeStatus::kFrame) {
        c.in.erase(c.in.begin(), c.in.begin() + static_cast<long>(consumed));
        break;
      }
      uint8_t buf[256];
      ssize_t n = st == x100::DecodeStatus::kBad ? -1 : read(fd, buf, sizeof(buf));
      if (n <= 0) {
        close(fd);
        throw std::runtime_error("serve_ingest: handshake failed");
      }
      c.in.insert(c.in.end(), buf, buf + n);
    }
    if (f.type != x100::FrameType::kHello) {
      close(fd);
      throw std::runtime_error("serve_ingest: connection refused by server");
    }
    fcntl(fd, F_SETFL, fcntl(fd, F_GETFL) | O_NONBLOCK);
    return c;
  }

  static void Flush(Conn* c) {
    while (c->out_off < c->out.size()) {
      ssize_t n = send(c->fd, c->out.data() + c->out_off,
                       c->out.size() - c->out_off, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) return;
        if (errno == EINTR) continue;
        throw std::runtime_error("serve_ingest: write failed");
      }
      c->out_off += static_cast<size_t>(n);
    }
    c->out.clear();
    c->out_off = 0;
  }

  template <typename OnFrame>
  static void Drain(Conn* c, OnFrame&& on_frame) {
    uint8_t buf[1 << 16];
    for (;;) {
      ssize_t n = read(c->fd, buf, sizeof(buf));
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (n <= 0) throw std::runtime_error("serve_ingest: server hung up");
      c->in.insert(c->in.end(), buf, buf + n);
    }
    uint64_t now = Now();
    size_t off = 0;
    for (;;) {
      x100::Frame f;
      size_t consumed = 0;
      std::string err;
      x100::DecodeStatus st = x100::DecodeFrame(c->in.data() + off,
                                                c->in.size() - off, &f,
                                                &consumed, &err);
      if (st == x100::DecodeStatus::kNeedMore) break;
      if (st == x100::DecodeStatus::kBad) {
        throw std::runtime_error("serve_ingest: bad frame: " + err);
      }
      off += consumed;
      on_frame(f, now);
    }
    c->in.erase(c->in.begin(), c->in.begin() + static_cast<long>(off));
  }

  std::vector<Conn> conns_;
  uint64_t next_id_ = 1;
};

/// The serving stack of one set-up: a durable service and its TCP front.
struct Server {
  std::unique_ptr<x100::QueryService> svc;
  std::unique_ptr<x100::TcpServer> tcp;

  void Stop() {
    if (tcp) tcp->Stop();
    if (svc) svc->Drain();
    tcp.reset();
    svc.reset();
  }
};

/// Admission and worker pool as wide as the server's CPUs.
x100::QueryService::Options ServiceOptions(const std::string& wal_dir,
                                           int cpus) {
  x100::QueryService::Options o;
  o.max_concurrent = std::min(o.max_concurrent, cpus);
  o.max_worker_threads = cpus;
  o.wal_dir = wal_dir;  // default group-commit window and merge threshold
  return o;
}

double Pct(std::vector<double> v, double level) {
  std::sort(v.begin(), v.end());
  return NearestRank(v, level);
}

/// The search's pass rule: short reads and commits within the limit at
/// their tail percentile, nothing failed, and the backlog gone within the
/// limit after the last arrival.
bool MeetsLimit(const PhaseResult& p) {
  Latencies all;
  for (double v : p.reads.values()) all.Add(v);
  for (double v : p.commits.values()) all.Add(v);
  return p.tally.bad() == 0 && all.TailP().value <= kLimitMs &&
         p.drain_ms <= kLimitMs;
}

}  // namespace

RunResult RunServeIngest(const RunArgs& args, Tracer* tracer) {
  namespace fs = std::filesystem;
  RunResult r;
  const std::string wal_dir = args.work_dir + "/wal";
  const int conns = std::min(2, args.nproc);
  // The load generator gets a CPU of its own: an open-loop generator
  // starved by the server it drives would turn server load into generator
  // lateness (with one CPU both share it). With three or more CPUs one more
  // is left to the kernel (loopback, WAL fsync completion) and the rest of
  // the machine, and the server gets the others: a server that fills every
  // CPU of a shared virtual machine measures the host's scheduler as much
  // as itself. Threads inherit the creating thread's CPUs, so the server's
  // are created while the main thread holds the server set.
  std::vector<int> cpus = AllowedCpus();
  std::vector<int> client_cpus = cpus, server_cpus = cpus;
  if (cpus.size() >= 2) {
    size_t spare = cpus.size() >= 3 ? 1 : 0;
    client_cpus.assign(cpus.begin(), cpus.begin() + 1);
    server_cpus.assign(cpus.begin() + 1, cpus.end() - static_cast<long>(spare));
  }
  const int server_width = static_cast<int>(server_cpus.size());
  PinThread(server_cpus);

  // Set-up, repeated from an empty WAL directory: dbgen, durable open
  // (WAL + MVCC tables), server start.
  Server server;
  std::vector<double> setup_s;
  for (int i = 0; i < kSetups; i++) {
    server.Stop();
    fs::remove_all(wal_dir);
    uint64_t t0 = Now();
    server.svc = std::make_unique<x100::QueryService>(
        ServiceOptions(wal_dir, server_width));
    server.svc->engines()->Get(kSf, false);
    uint64_t t1 = Now();
    x100::TcpServer::Options to;
    to.port = 0;
    server.tcp = std::make_unique<x100::TcpServer>(server.svc.get(), to);
    std::string err;
    if (!server.tcp->Start(&err)) {
      throw std::runtime_error("serve_ingest: server start: " + err);
    }
    uint64_t t2 = Now();
    setup_s.push_back((t2 - t0) / 1e9);
    if (tracer) {
      int64_t root = tracer->Add(Span{"setup", t0, t2, -1, 0});
      tracer->Add(Span{"storage.durable_open", t0, t1, root, 0});
      tracer->Add(Span{"server.start", t1, t2, root, 0});
    }
  }
  r.setup_s = Median(setup_s);

  // The client's copy of the base data: append rows copy its lineitem.
  uint64_t g0 = Now();
  x100::DbgenOptions dopts;
  dopts.scale_factor = kSf;
  std::unique_ptr<x100::Catalog> local = x100::GenerateTpch(dopts);
  r.layer["tpch.dbgen_s"] = (Now() - g0) / 1e9;
  const Table& base_li = *local->Find("lineitem");
  const int64_t base_rows = base_li.total_rows();

  // Phase lengths: an untimed warm-up at the light rate takes 5% of the
  // run, the light rate 35%, the heavy rate 15%, the search the rest in
  // steps of kStepS (about 700 operations near capacity, so one slow
  // request does not decide a step). The light rate runs in windows: the
  // first before the heavy phase, the others spread over the search, so
  // that a burst of load from outside the benchmark (the reference host is
  // shared) spoils few of them.
  OpMix mix;
  mix.conns = conns;
  OpStream stream(args.seed, mix, base_rows);
  const double warmup_s = 0.05 * args.seconds, light_s = 0.35 * args.seconds,
               heavy_s = 0.15 * args.seconds;
  const int windows = std::clamp(args.seconds / 2, 1, kLightWindows);
  const double window_s = light_s / windows;
  const int steps = std::max(
      4, static_cast<int>((args.seconds - warmup_s - light_s - heavy_s) / kStepS));
  auto take = [&](double rate, double secs) {
    return stream.Take(std::max<int64_t>(1, std::llround(rate * secs)), rate, 0);
  };
  auto appends_in = [](const std::vector<Op>& ops) {
    return std::count_if(ops.begin(), ops.end(),
                         [](const Op& o) { return o.kind == OpKind::kAppend; });
  };
  std::vector<Op> warmup_ops = take(kLightRate, warmup_s);
  std::vector<Op> light_ops = take(kLightRate, window_s);
  stream.StopDeletes();  // the merge comes in the heavy phase
  std::vector<Op> heavy_ops = take(kHeavyRate, heavy_s);

  // Preload: seeded non-durable appends (group-committed at the end), so
  // that the delta reaches the server's merge threshold halfway through the
  // heavy phase. The deletes, all in the warm-up and the first light window,
  // come before it.
  const int64_t merge_rows = x100::QueryService::Options{}.merge_threshold_rows;
  const int64_t preload = std::max<int64_t>(
      0, merge_rows - appends_in(warmup_ops) - appends_in(light_ops) -
             appends_in(heavy_ops) / 2);
  std::vector<Acked> preloaded;
  {
    uint64_t t0 = Now();
    Rng rows(SubSeed(args.seed, 3));
    for (int64_t i = 0; i < preload; i++) {
      Op op;
      op.kind = OpKind::kAppend;
      op.arg = static_cast<int64_t>(rows.Below(static_cast<uint64_t>(base_rows)));
      op.value = rows.Next();
      x100::UpdateRequest req = MakeUpdate(op, base_li);
      req.durable = i + 1 == preload;
      x100::UpdateOutcome out = server.svc->SubmitUpdate(req);
      if (!out.ok) throw std::runtime_error("serve_ingest: preload: " + out.error);
      preloaded.push_back(Acked{out.lsn, std::move(req)});
    }
    Report(&r, "preload_s", (Now() - t0) / 1e9, "s",
           std::to_string(preload) + " lineitem appends before the first phase");
  }

  PinThread(client_cpus);
  auto client = std::make_unique<LoadClient>(server.tcp->port(), conns);
  // Every CPU the run may use stays awake through the timed phases: each
  // request crosses several threads (client, event loop, worker or
  // updater, WAL flusher), and every hand-off would otherwise wait for a
  // halted vCPU (see CpuWaker).
  auto waker = std::make_unique<CpuWaker>(cpus);
  std::vector<PhaseResult> phases;
  std::vector<size_t> light_idx;  // phases at the light rate
  auto run = [&](const std::vector<Op>& ops, double offered) -> const PhaseResult& {
    phases.push_back(client->Run(ops, base_li, tracer));
    phases.back().offered = offered;
    return phases.back();
  };
  // The warm-up's answers and writes are checked like any others; its
  // latencies and server counters count nowhere.
  run(warmup_ops, kLightRate);
  x100::MetricsRegistry::Get().ResetAll();
  light_idx.push_back(phases.size());
  run(light_ops, kLightRate);
  const size_t heavy_idx = phases.size();
  run(heavy_ops, kHeavyRate);
  // Peak memory before the search (warm-up, first light window and heavy
  // phase); the search's overload steps would make it depend on how far the
  // search went.
  r.peak_rss_mb = PeakRssMb();
  // A staircase rather than a bisection: no single step fixes a bound, so
  // a step that a burst of outside load fails does not cap the result.
  // Each change of direction takes the square root of the step factor.
  // Once the search has turned twice it oscillates around the rate at
  // which the limit starts to fail; the estimate is the geometric mean of
  // the rates tried from then on, which averages over many steps instead
  // of trusting the single highest one.
  double best = 0, rate = kSearchStart, factor = kSearchStep;
  int dir = 0;        // +1 after a pass, -1 after a fail
  int reversals = 0;  // changes of direction so far
  std::vector<double> settled;  // rates tried after the second reversal
  std::string search_log;
  for (int s = 0; s < steps; s++) {
    bool pass = MeetsLimit(run(take(rate, kStepS), rate));
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%s%.0f%s", s ? " " : "", rate, pass ? "+" : "-");
    search_log += buf;
    if (dir == (pass ? -1 : 1)) {
      reversals++;
      factor = std::max(std::sqrt(factor), kSearchFineStep);
    }
    if (reversals >= 2) settled.push_back(rate);
    dir = pass ? 1 : -1;
    if (pass) best = std::max(best, rate);
    rate = pass ? std::min(rate * factor, kSearchCeiling) : rate / factor;
    while (static_cast<int>(light_idx.size()) <= (s + 1) * (windows - 1) / steps) {
      light_idx.push_back(phases.size());
      run(take(kLightRate, window_s), kLightRate);
    }
  }
  waker.reset();
  client.reset();
  PinThread(server_cpus);
  x100::MetricsSnapshot ms = x100::MetricsRegistry::Get().Snapshot();
  server.Stop();

  int64_t appends = preload;
  std::vector<Acked> acked = std::move(preloaded);
  for (PhaseResult& p : phases) {
    r.tally.Add(p.tally);
    for (Acked& a : p.acked) {
      if (a.req.op == x100::UpdateOp::kAppend) appends++;
      acked.push_back(std::move(a));
    }
  }

  // Read answers: bit for bit those of the same requests run locally.
  {
    x100::QueryService ref;
    ref.engines()->Seed(kSf, local.get());
    std::vector<Digest> want;
    std::unique_ptr<Table> scan;
    for (int slot = 0; slot <= kNumShortReads; slot++) {
      std::unique_ptr<Table> t =
          ref.Submit(ReadRequest(slot == kScanSlot ? OpKind::kScan : OpKind::kRead,
                                 slot))
              ->TakeResult();
      if (t == nullptr) throw std::runtime_error("serve_ingest: reference failed");
      want.push_back(DigestOf(*t));
      if (slot == kScanSlot) scan = std::move(t);
    }
    for (const PhaseResult& p : phases) {
      for (const auto& [slot, d] : p.digests) {
        if (!(d == want[static_cast<size_t>(slot)])) r.tally.mismatched++;
      }
    }
    // Batch encode speed on the scan's result, in the server's batch size.
    double bytes = 0;
    uint64_t t0 = Now(), spent = 0;
    while (spent < 200000000ULL) {
      for (int64_t b = 0; b < scan->num_rows(); b += x100::kDefaultVectorSize) {
        bytes += static_cast<double>(
            x100::EncodeBatch(1, *scan, b,
                              std::min<int64_t>(b + x100::kDefaultVectorSize,
                                                scan->num_rows()))
                .size());
      }
      spent = Now() - t0;
    }
    r.layer["server.encode_mb_s"] = bytes / 1e6 / (spent / 1e9);
  }

  // Recovery: reopen the WAL directory (dbgen of the base + replay).
  {
    x100::QueryService recovered(ServiceOptions(wal_dir, server_width));
    uint64_t t0 = Now();
    x100::EngineCache::Engine eng = recovered.engines()->Get(kSf, false);
    uint64_t t1 = Now();
    r.layer["storage.recover_s"] = (t1 - t0) / 1e9;
    if (tracer) tracer->Add(Span{"storage.recover", t0, t1, -1, 0});

    // Live rows: a merge folds the deleted rows away.
    int64_t deletes = static_cast<int64_t>(acked.size()) - appends;
    std::shared_ptr<x100::SnapshotSet> snaps = eng.store->PinAll();
    const x100::TableSnapshot* li = snaps->Find("lineitem");
    int64_t live = -1;
    if (li != nullptr) {
      live = li->total_rows -
             (li->deleted ? static_cast<int64_t>(li->deleted->size()) : 0);
    }
    if (live != base_rows + appends - deletes) {
      std::fprintf(stderr,
                   "serve_ingest: recovered lineitem has %lld live rows; "
                   "acknowledged %lld appends and %lld deletes to %lld rows\n",
                   static_cast<long long>(live),
                   static_cast<long long>(appends),
                   static_cast<long long>(deletes),
                   static_cast<long long>(base_rows));
      r.correct = false;
    }
    snaps.reset();

    std::sort(acked.begin(), acked.end(),
              [](const Acked& a, const Acked& b) { return a.lsn < b.lsn; });
    x100::QueryService replay(ServiceOptions(args.work_dir + "/replay", server_width));
    for (const Acked& a : acked) {
      x100::UpdateRequest req = a.req;
      req.durable = false;
      if (!replay.SubmitUpdate(req).ok) {
        throw std::runtime_error("serve_ingest: serial replay failed");
      }
    }
    for (const char* q : {"q1", "q6"}) {
      x100::QueryRequest req;
      req.query = q;
      req.scale_factor = kSf;
      std::unique_ptr<Table> a = recovered.Submit(req)->TakeResult();
      std::unique_ptr<Table> b = replay.Submit(req)->TakeResult();
      if (a == nullptr || b == nullptr || !SameBits(*a, *b)) {
        std::fprintf(stderr, "serve_ingest: recovered %s differs from the "
                             "serial replay\n", q);
        r.correct = false;
      }
    }
  }
  if (r.tally.mismatched > 0) r.correct = false;

  // End to end.
  // The gated latency is the median over the light windows of each
  // window's geomean of per-kind medians; the other light figures pool the
  // windows.
  PhaseResult light;
  light.offered = kLightRate;
  std::vector<double> window_geomeans;
  for (size_t i : light_idx) {
    const PhaseResult& w = phases[i];
    std::vector<double> kind_medians;
    for (size_t k = 0; k < w.read_kind_ms.size(); k++) {
      kind_medians.push_back(Median(w.read_kind_ms[k]));
      light.read_kind_ms[k].insert(light.read_kind_ms[k].end(),
                                   w.read_kind_ms[k].begin(), w.read_kind_ms[k].end());
    }
    window_geomeans.push_back(Geomean(kind_medians));
    for (double v : w.reads.values()) light.reads.Add(v);
    for (double v : w.commits.values()) light.commits.Add(v);
    for (auto [to, from] : {std::pair{&light.queue_ms, &w.queue_ms},
                            {&light.session_ms, &w.session_ms},
                            {&light.net_ms, &w.net_ms},
                            {&light.stream_mb_s, &w.stream_mb_s}}) {
      to->insert(to->end(), from->begin(), from->end());
    }
  }
  const PhaseResult& heavy = phases[heavy_idx];
  r.query_geomean_ms = Median(window_geomeans);
  // Nominal rates (the arrivals a seed realizes in one step scatter by a
  // few percent around them). A search that never turned twice did not
  // bracket the limit; it reports the highest rate that passed, 0 when no
  // step met the limit: the search log shows the rates tried.
  r.max_qps = settled.empty() ? best : Geomean(settled);
  std::string windows_log;
  for (double g : window_geomeans) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), " %.3f", g);
    windows_log += buf;
  }
  Report(&r, "query_geomean_ms", r.query_geomean_ms, "ms",
         "light rate, median over " + std::to_string(window_geomeans.size()) +
             " windows of the geomean of Q2/Q11/Q16/Q22 medians from due time:" +
             windows_log);
  Report(&r, "max_qps", r.max_qps, "1/s",
         "offered rate at which p99 <= " +
             std::to_string(static_cast<int>(kLimitMs)) +
             " ms with a drained backlog starts to fail, geomean of the " +
             std::to_string(settled.size()) + " steps after the second turn; steps " +
             search_log);
  for (const auto& [name, p] : {std::pair<const char*, const PhaseResult*>{"light", &light},
                                {"heavy", &heavy}}) {
    std::string pre = std::string(name) + ".";
    std::string rate = " at " + std::to_string(static_cast<int>(p->offered)) + "/s";
    Tail qt = p->reads.TailP(), ct = p->commits.TailP();
    r.layer[pre + "query_p50_ms"] = p->reads.P50();
    r.layer[pre + "query_p99_ms"] = qt.value;
    r.layer[pre + "commit_p50_ms"] = p->commits.P50();
    r.layer[pre + "commit_p99_ms"] = ct.value;
    Report(&r, pre + "query_p50_ms", p->reads.P50(), "ms", "n=" + std::to_string(qt.n) + rate);
    Report(&r, pre + "query_p99_ms", qt.value, "ms",
           "p" + std::to_string(static_cast<int>(qt.level)) + " of n=" + std::to_string(qt.n) + rate);
    Report(&r, pre + "commit_p50_ms", p->commits.P50(), "ms", "n=" + std::to_string(ct.n) + rate);
    Report(&r, pre + "commit_p99_ms", ct.value, "ms",
           "p" + std::to_string(static_cast<int>(ct.level)) + " of n=" + std::to_string(ct.n) + rate);
  }
  r.layer["stream_mb_s"] = Median(light.stream_mb_s);
  Report(&r, "stream_mb_s", Median(light.stream_mb_s), "MB/s",
         "median over n=" + std::to_string(light.stream_mb_s.size()) + " orders scans, light rate");

  // Layers.
  std::vector<double> queue, session, net;
  double lag = 0;
  for (const PhaseResult* p : {&std::as_const(light), &heavy}) {
    queue.insert(queue.end(), p->queue_ms.begin(), p->queue_ms.end());
    session.insert(session.end(), p->session_ms.begin(), p->session_ms.end());
    net.insert(net.end(), p->net_ms.begin(), p->net_ms.end());
  }
  for (const PhaseResult& p : phases) lag = std::max(lag, p.gen_lag_ms_max);
  for (const auto& [name, v] : {std::pair<const char*, std::vector<double>*>{"queue", &queue},
                                {"session", &session},
                                {"net", &net}}) {
    r.layer[std::string("server.") + name + "_ms_p50"] = Pct(*v, 50);
    r.layer[std::string("server.") + name + "_ms_p99"] = TailPercentile(*v).value;
  }
  r.layer["bench.gen_lag_ms_max"] = lag;
  auto counter = [&ms](const char* name) -> double {
    auto it = ms.counters.find(name);
    return it == ms.counters.end() ? 0 : static_cast<double>(it->second);
  };
  auto hist = ms.histograms.find("server.wal.commit_wait_us");
  if (hist != ms.histograms.end()) {
    r.layer["storage.wal.commit_wait_us_p50"] = hist->second.p50;
    r.layer["storage.wal.commit_wait_us_p99"] = hist->second.p99;
  }
  double wal_records = counter("server.wal.appends");
  double fsyncs = counter("server.wal.fsyncs");
  r.layer["storage.wal.records_per_fsync"] = fsyncs > 0 ? wal_records / fsyncs : 0;
  r.layer["storage.wal.bytes_per_row"] =
      wal_records > 0 ? counter("server.wal.bytes") / wal_records : 0;
  r.layer["storage.mvcc.merges"] = counter("server.wal.merges");
  Report(&r, "gen_lag_ms_max", lag, "ms", "generator lateness, health only");
  fs::remove_all(wal_dir);
  return r;
}

}  // namespace xbench
