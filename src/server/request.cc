#include "server/request.h"

#include <cctype>

namespace x100 {

int QueryRequest::TpchQueryNumber() const {
  size_t i = 0;
  if (i < query.size() && (query[i] == 'q' || query[i] == 'Q')) i++;
  if (i == query.size()) return 0;
  int n = 0;
  for (; i < query.size(); i++) {
    if (!std::isdigit(static_cast<unsigned char>(query[i]))) return 0;
    n = n * 10 + (query[i] - '0');
    if (n > 22) return 0;
  }
  return n >= 1 ? n : 0;
}

std::string QueryRequest::Validate() const {
  if (query.empty()) return "empty query";
  if (!(scale_factor > 0.0) || scale_factor > kMaxRequestScaleFactor) {
    return "scale_factor out of range (0, " +
           std::to_string(kMaxRequestScaleFactor) + "]";
  }
  if (num_threads < 1 || num_threads > kMaxRequestThreads) {
    return "num_threads out of range [1, " +
           std::to_string(kMaxRequestThreads) + "]";
  }
  if (vector_size < 1 || vector_size > kMaxRequestVectorSize) {
    return "vector_size out of range [1, " +
           std::to_string(kMaxRequestVectorSize) + "]";
  }
  if (fuse < -1 || fuse > 1) {
    return "fuse out of range [-1, 1]";
  }
  return "";
}

std::string UpdateRequest::Validate() const {
  if (table.empty()) return "empty table name";
  if (!(scale_factor > 0.0) || scale_factor > kMaxRequestScaleFactor) {
    return "scale_factor out of range (0, " +
           std::to_string(kMaxRequestScaleFactor) + "]";
  }
  if (op == UpdateOp::kAppend) {
    if (row.empty()) return "append with no values";
  } else if (op == UpdateOp::kDelete) {
    if (rowid < 0) return "negative rowid";
  } else {
    return "unknown update op";
  }
  return "";
}

}  // namespace x100
