#ifndef XBENCH_SCHEDULE_H_
#define XBENCH_SCHEDULE_H_

// The serve_ingest operation stream: which operation comes next, on which
// connection, with which arguments, and when it is due. Everything is drawn
// from the run's seed, so one seed always yields the same stream; only the
// offered rate (chosen per phase, and by the max-rate search) scales the
// arrival gaps.

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "stats.h"

namespace xbench {

enum class OpKind : uint8_t {
  kAppend = 0,  // durable lineitem append (UPDATE frame)
  kDelete = 1,  // durable lineitem delete of a base row (UPDATE frame)
  kRead = 2,    // short TPC-H read on tables the writes never touch
  kScan = 3,    // large-result algebra scan of orders
};

/// Operations of each kind in every block of OpMix::block consecutive
/// operations (in seeded order inside the block), so a short window of the
/// stream carries the same work as any other; short reads take the rest.
///
/// The shape is that of the repository's durable-update experiment
/// (bench/update_mix.cc): one writer against three readers, so a quarter of
/// the operations write, and the write stream holds 15 appends to 1 delete.
struct OpMix {
  int block = 64;
  int append = 15;
  int del = 1;
  int scan = 1;         // one large-result scan among the 48 reads
  int short_kinds = 4;  // kRead argument range
  int conns = 4;        // connections the stream spreads over
};

struct Op {
  uint64_t due_ns = 0;  // relative to the phase start
  OpKind kind = OpKind::kRead;
  int conn = 0;
  /// kAppend: base lineitem row the new row copies; kDelete: base rowid;
  /// kRead: which short read; kScan: unused.
  int64_t arg = 0;
  /// kAppend: random bits that pick the new row's quantity and price.
  uint64_t value = 0;
};

class OpStream {
 public:
  /// `base_rows`: lineitem rows before any write (delete targets).
  OpStream(uint64_t seed, OpMix mix, int64_t base_rows);

  /// The next `n` operations, arriving as a Poisson process at `rate` per
  /// second from time 0 of the phase.
  std::vector<Op> Take(int64_t n, double rate, uint64_t start_ns);

  /// From now on the delete slots of the mix append instead. A merge of
  /// the delta renumbers rowids, so deletes (which name base rowids) are
  /// only offered while no merge can have happened.
  void StopDeletes() { deletes_ = false; }

 private:
  void RefillBlock();

  OpMix mix_;
  int64_t base_rows_;
  Rng kinds_;     // operation kind order, connection and arguments
  Rng arrivals_;  // unit-rate exponential gaps
  std::vector<OpKind> block_;  // kinds left in the current block, popped
                               // from the back
  std::unordered_set<int64_t> deleted_;
  bool deletes_ = true;
};

}  // namespace xbench

#endif  // XBENCH_SCHEDULE_H_
