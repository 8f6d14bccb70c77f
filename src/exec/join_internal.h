#ifndef X100_EXEC_JOIN_INTERNAL_H_
#define X100_EXEC_JOIN_INTERNAL_H_

// Internal machinery shared by the join operators. Include only from
// exec/join_*.cc.

#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "exec/operator.h"
#include "storage/buffer.h"

namespace x100::join_internal {

/// Binds a join's columns against its children: every key must exist and
/// the key lists must pair up; the output fields (probe outputs, then build
/// outputs) are appended to `schema`. A mismatch describes the client's
/// plan, not an engine invariant, so it throws std::invalid_argument("bind
/// error in <op>: ...") like BindColumn.
inline void BindJoinColumns(const char* op, const Schema& probe,
                            const Schema& build,
                            const std::vector<std::string>& probe_keys,
                            const std::vector<std::string>& build_keys,
                            const std::vector<std::string>& probe_out,
                            const std::vector<std::string>& build_out,
                            Schema* schema) {
  if (probe_keys.empty() || probe_keys.size() != build_keys.size()) {
    throw std::invalid_argument(
        std::string("bind error in ") + op + ": " +
        std::to_string(probe_keys.size()) + " probe keys vs " +
        std::to_string(build_keys.size()) +
        " build keys (need the same non-zero count)");
  }
  for (const std::string& k : probe_keys) BindColumn(probe, k, op);
  for (const std::string& k : build_keys) BindColumn(build, k, op);
  for (const std::string& name : probe_out) {
    schema->Add(probe.field(BindColumn(probe, name, op)));
  }
  for (const std::string& name : build_out) {
    schema->Add(build.field(BindColumn(build, name, op)));
  }
}

/// Columnar store a build-side Dataflow is drained into (physical values;
/// enum codes keep their dictionaries on the schema).
struct DrainedStore {
  Schema schema;
  std::vector<int> src_cols;
  std::vector<size_t> widths;
  std::vector<Buffer> data;
  size_t rows = 0;

  /// Picks `names` out of `child` (in order).
  void Init(const Schema& child, const std::vector<std::string>& names) {
    for (const std::string& name : names) {
      int ci = child.Find(name);
      X100_CHECK(ci >= 0);
      src_cols.push_back(ci);
      schema.Add(child.field(ci));
      widths.push_back(TypeWidth(child.field(ci).type));
      data.emplace_back();
    }
  }

  /// Appends the live positions of `batch`.
  void Append(VectorBatch* batch) {
    int n = batch->sel_count();
    const int* sel = batch->sel();
    for (size_t c = 0; c < src_cols.size(); c++) {
      const char* src =
          static_cast<const char*>(batch->column(src_cols[c]).data());
      size_t w = widths[c];
      if (sel) {
        for (int j = 0; j < n; j++) {
          data[c].Append(src + static_cast<size_t>(sel[j]) * w, w);
        }
      } else {
        data[c].Append(src, static_cast<size_t>(n) * w);
      }
    }
    rows += static_cast<size_t>(n);
  }

  const char* ColData(size_t c) const {
    return static_cast<const char*>(data[c].data());
  }
};

/// Gather: dst[k] = src[positions[k]] for k in [0, n).
inline void GatherByPos(void* dst, const void* src, size_t width,
                        const int* positions, int n) {
  char* d = static_cast<char*>(dst);
  const char* s = static_cast<const char*>(src);
  switch (width) {
    case 1:
      for (int k = 0; k < n; k++) d[k] = s[positions[k]];
      break;
    case 2:
      for (int k = 0; k < n; k++) {
        reinterpret_cast<uint16_t*>(d)[k] =
            reinterpret_cast<const uint16_t*>(s)[positions[k]];
      }
      break;
    case 4:
      for (int k = 0; k < n; k++) {
        reinterpret_cast<uint32_t*>(d)[k] =
            reinterpret_cast<const uint32_t*>(s)[positions[k]];
      }
      break;
    case 8:
      for (int k = 0; k < n; k++) {
        reinterpret_cast<uint64_t*>(d)[k] =
            reinterpret_cast<const uint64_t*>(s)[positions[k]];
      }
      break;
    default:
      X100_CHECK(false);
  }
}

/// Gather by 64-bit row ids; `row < 0` writes type-default bytes (zeros,
/// except str columns which get `empty_str`).
inline void GatherByRow(void* dst, const void* src, size_t width,
                        const int64_t* rows, int n, bool is_str,
                        const char* empty_str) {
  char* d = static_cast<char*>(dst);
  const char* s = static_cast<const char*>(src);
  for (int k = 0; k < n; k++) {
    if (rows[k] < 0) {
      if (is_str) {
        *reinterpret_cast<const char**>(d + static_cast<size_t>(k) * width) =
            empty_str;
      } else {
        std::memset(d + static_cast<size_t>(k) * width, 0, width);
      }
    } else {
      std::memcpy(d + static_cast<size_t>(k) * width,
                  s + static_cast<size_t>(rows[k]) * width, width);
    }
  }
}

}  // namespace x100::join_internal

#endif  // X100_EXEC_JOIN_INTERNAL_H_
