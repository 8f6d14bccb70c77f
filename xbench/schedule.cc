#include "schedule.h"

#include <cmath>

namespace xbench {

OpStream::OpStream(uint64_t seed, OpMix mix, int64_t base_rows)
    : mix_(mix),
      base_rows_(base_rows),
      kinds_(SubSeed(seed, 1)),
      arrivals_(SubSeed(seed, 2)) {}

void OpStream::RefillBlock() {
  block_.assign(static_cast<size_t>(mix_.block), OpKind::kRead);
  size_t i = 0;
  for (int n = mix_.append; n > 0; n--) block_[i++] = OpKind::kAppend;
  for (int n = mix_.del; n > 0; n--) block_[i++] = OpKind::kDelete;
  for (int n = mix_.scan; n > 0; n--) block_[i++] = OpKind::kScan;
  for (size_t j = block_.size() - 1; j > 0; j--) {
    std::swap(block_[j], block_[kinds_.Below(j + 1)]);
  }
}

std::vector<Op> OpStream::Take(int64_t n, double rate, uint64_t start_ns) {
  std::vector<Op> ops;
  ops.reserve(static_cast<size_t>(n));
  double t_s = 0;
  for (int64_t i = 0; i < n; i++) {
    t_s += -std::log(1.0 - arrivals_.Unit()) / rate;
    Op op;
    op.due_ns = start_ns + static_cast<uint64_t>(t_s * 1e9);
    op.conn = static_cast<int>(kinds_.Below(static_cast<uint64_t>(mix_.conns)));
    if (block_.empty()) RefillBlock();
    op.kind = block_.back();
    block_.pop_back();
    if (op.kind == OpKind::kDelete && !deletes_) op.kind = OpKind::kAppend;
    if (op.kind == OpKind::kAppend) {
      op.arg = static_cast<int64_t>(kinds_.Below(static_cast<uint64_t>(base_rows_)));
      op.value = kinds_.Next();
    } else if (op.kind == OpKind::kDelete) {
      do {
        op.arg = static_cast<int64_t>(kinds_.Below(static_cast<uint64_t>(base_rows_)));
      } while (!deleted_.insert(op.arg).second);
    } else if (op.kind == OpKind::kRead) {
      op.arg = static_cast<int64_t>(kinds_.Below(static_cast<uint64_t>(mix_.short_kinds)));
    }
    ops.push_back(op);
  }
  return ops;
}

}  // namespace xbench
