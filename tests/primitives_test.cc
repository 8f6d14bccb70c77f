// Unit + property tests for the vectorized primitives: every generated kernel
// is checked against a scalar reference, with and without selection vectors,
// and the branch/predicated select variants are checked for equivalence
// across the full selectivity sweep of Figure 2.

#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "primitives/primitive.h"
#include "primitives/string_prims.h"

namespace x100 {
namespace {

std::vector<int> MakeSel(int n, int stride) {
  std::vector<int> sel;
  for (int i = 0; i < n; i += stride) sel.push_back(i);
  return sel;
}

TEST(RegistryTest, HundredsOfPrimitives) {
  // The paper: "X100 contains hundreds of vectorized primitives".
  EXPECT_GT(PrimitiveRegistry::Get().size(), 300u);
}

TEST(RegistryTest, PaperStyleNamesResolve) {
  const PrimitiveRegistry& r = PrimitiveRegistry::Get();
  EXPECT_NE(r.FindMap("map_add_f64_col_f64_col"), nullptr);
  EXPECT_NE(r.FindMap("map_sub_f64_val_f64_col"), nullptr);
  EXPECT_NE(r.FindMap("map_mul_f64_col_f64_col"), nullptr);
  EXPECT_NE(r.FindMap("map_fetch_f64_col_u8_col"), nullptr);
  EXPECT_NE(r.FindSelect("select_lt_i32_col_i32_val"), nullptr);
  EXPECT_NE(r.FindSelect("select_lt_i32_col_i32_val_pred"), nullptr);
  EXPECT_NE(r.FindAggr("aggr_sum_f64_col"), nullptr);
  EXPECT_NE(r.FindAggr("aggr_count"), nullptr);
  EXPECT_EQ(r.FindMap("map_frobnicate_f64_col"), nullptr);
}

// ---- map arithmetic ----------------------------------------------------------

struct MapArithCase {
  const char* name;
  double (*ref)(double, double);
};

class MapArithTest : public ::testing::TestWithParam<MapArithCase> {};

TEST_P(MapArithTest, ColColMatchesReference) {
  const MapArithCase& c = GetParam();
  const MapPrimitive* prim = PrimitiveRegistry::Get().FindMap(
      std::string("map_") + c.name + "_f64_col_f64_col");
  ASSERT_NE(prim, nullptr);
  constexpr int kN = 777;
  std::vector<double> a(kN), b(kN), res(kN, -1);
  Rng rng(1);
  for (int i = 0; i < kN; i++) {
    a[i] = rng.NextDouble() * 100;
    b[i] = rng.NextDouble() * 100 + 1;
  }
  const void* args[2] = {a.data(), b.data()};
  prim->fn(kN, res.data(), args, nullptr);
  for (int i = 0; i < kN; i++) EXPECT_DOUBLE_EQ(res[i], c.ref(a[i], b[i]));

  // With a selection vector, only selected slots are written.
  std::vector<int> sel = MakeSel(kN, 3);
  std::fill(res.begin(), res.end(), -1);
  prim->fn(static_cast<int>(sel.size()), res.data(), args, sel.data());
  for (int i = 0; i < kN; i++) {
    if (i % 3 == 0) {
      EXPECT_DOUBLE_EQ(res[i], c.ref(a[i], b[i]));
    } else {
      EXPECT_EQ(res[i], -1);  // untouched, as §4.1.1 requires
    }
  }
}

TEST_P(MapArithTest, ColValAndValCol) {
  const MapArithCase& c = GetParam();
  const PrimitiveRegistry& r = PrimitiveRegistry::Get();
  const MapPrimitive* cv =
      r.FindMap(std::string("map_") + c.name + "_f64_col_f64_val");
  const MapPrimitive* vc =
      r.FindMap(std::string("map_") + c.name + "_f64_val_f64_col");
  ASSERT_NE(cv, nullptr);
  ASSERT_NE(vc, nullptr);
  constexpr int kN = 100;
  std::vector<double> a(kN), res(kN);
  for (int i = 0; i < kN; i++) a[i] = i + 1;
  double v = 3.5;
  const void* args_cv[2] = {a.data(), &v};
  cv->fn(kN, res.data(), args_cv, nullptr);
  for (int i = 0; i < kN; i++) EXPECT_DOUBLE_EQ(res[i], c.ref(a[i], v));
  const void* args_vc[2] = {&v, a.data()};
  vc->fn(kN, res.data(), args_vc, nullptr);
  for (int i = 0; i < kN; i++) EXPECT_DOUBLE_EQ(res[i], c.ref(v, a[i]));
}

INSTANTIATE_TEST_SUITE_P(
    Ops, MapArithTest,
    ::testing::Values(MapArithCase{"add", [](double a, double b) { return a + b; }},
                      MapArithCase{"sub", [](double a, double b) { return a - b; }},
                      MapArithCase{"mul", [](double a, double b) { return a * b; }},
                      MapArithCase{"div", [](double a, double b) { return a / b; }}),
    [](const ::testing::TestParamInfo<MapArithCase>& info) {
      return info.param.name;
    });

TEST(MapIntArithTest, I32AndI64) {
  const MapPrimitive* p32 =
      PrimitiveRegistry::Get().FindMap("map_mul_i32_col_i32_col");
  const MapPrimitive* p64 =
      PrimitiveRegistry::Get().FindMap("map_add_i64_col_i64_val");
  ASSERT_NE(p32, nullptr);
  ASSERT_NE(p64, nullptr);
  std::vector<int32_t> a{2, 3, 4}, b{10, 20, 30}, r32(3);
  const void* args[2] = {a.data(), b.data()};
  p32->fn(3, r32.data(), args, nullptr);
  EXPECT_EQ(r32[0], 20);
  EXPECT_EQ(r32[2], 120);
  std::vector<int64_t> c{100, 200}, r64(2);
  int64_t v = 5;
  const void* args64[2] = {c.data(), &v};
  p64->fn(2, r64.data(), args64, nullptr);
  EXPECT_EQ(r64[0], 105);
  EXPECT_EQ(r64[1], 205);
}

// ---- select primitives: branch vs predicated, full selectivity sweep ---------

class SelectSweepTest : public ::testing::TestWithParam<int> {};

TEST_P(SelectSweepTest, BranchEqualsPredicatedAndReference) {
  int selectivity = GetParam();  // percent
  const PrimitiveRegistry& r = PrimitiveRegistry::Get();
  const SelectPrimitive* branch = r.FindSelect("select_lt_i32_col_i32_val");
  const SelectPrimitive* pred = r.FindSelect("select_lt_i32_col_i32_val_pred");
  ASSERT_NE(branch, nullptr);
  ASSERT_NE(pred, nullptr);

  constexpr int kN = 4096;
  std::vector<int32_t> data(kN);
  Rng rng(selectivity + 1);
  for (int i = 0; i < kN; i++) data[i] = static_cast<int32_t>(rng.Uniform(0, 99));
  int32_t v = selectivity;
  const void* args[2] = {data.data(), &v};

  std::vector<int> out_a(kN), out_b(kN), ref;
  int ka = branch->fn(kN, out_a.data(), args, nullptr);
  int kb = pred->fn(kN, out_b.data(), args, nullptr);
  for (int i = 0; i < kN; i++) {
    if (data[i] < v) ref.push_back(i);
  }
  ASSERT_EQ(ka, static_cast<int>(ref.size()));
  ASSERT_EQ(kb, ka);
  for (int i = 0; i < ka; i++) {
    EXPECT_EQ(out_a[i], ref[i]);
    EXPECT_EQ(out_b[i], ref[i]);
  }

  // Chained through an input selection vector (conjunction shape).
  std::vector<int> sel = MakeSel(kN, 2);
  int kc = branch->fn(static_cast<int>(sel.size()), out_a.data(), args, sel.data());
  int kd = pred->fn(static_cast<int>(sel.size()), out_b.data(), args, sel.data());
  std::vector<int> ref2;
  for (int i : sel) {
    if (data[i] < v) ref2.push_back(i);
  }
  ASSERT_EQ(kc, static_cast<int>(ref2.size()));
  ASSERT_EQ(kd, kc);
  for (int i = 0; i < kc; i++) EXPECT_EQ(out_a[i], ref2[i]);
}

INSTANTIATE_TEST_SUITE_P(Selectivity, SelectSweepTest,
                         ::testing::Values(0, 5, 25, 50, 75, 95, 100));

TEST(SelectOpsTest, AllComparatorsAllTypes) {
  // Each comparator on each numeric type against a scalar reference.
  const char* ops[6] = {"lt", "le", "gt", "ge", "eq", "ne"};
  std::vector<int64_t> vals{-3, -1, 0, 1, 2, 3, 5, 5, 7};
  for (const char* op : ops) {
    const SelectPrimitive* prim = PrimitiveRegistry::Get().FindSelect(
        std::string("select_") + op + "_i64_col_i64_val");
    ASSERT_NE(prim, nullptr) << op;
    int64_t v = 2;
    const void* args[2] = {vals.data(), &v};
    std::vector<int> out(vals.size());
    int k = prim->fn(static_cast<int>(vals.size()), out.data(), args, nullptr);
    std::vector<int> ref;
    for (size_t i = 0; i < vals.size(); i++) {
      bool keep = false;
      std::string o = op;
      if (o == "lt") keep = vals[i] < v;
      if (o == "le") keep = vals[i] <= v;
      if (o == "gt") keep = vals[i] > v;
      if (o == "ge") keep = vals[i] >= v;
      if (o == "eq") keep = vals[i] == v;
      if (o == "ne") keep = vals[i] != v;
      if (keep) ref.push_back(static_cast<int>(i));
    }
    ASSERT_EQ(k, static_cast<int>(ref.size())) << op;
    for (int i = 0; i < k; i++) EXPECT_EQ(out[i], ref[i]) << op;
  }
}

// ---- aggregates ---------------------------------------------------------------

TEST(AggrTest, GroupedSumMinMaxCount) {
  const PrimitiveRegistry& r = PrimitiveRegistry::Get();
  constexpr int kN = 1000;
  constexpr int kGroups = 7;
  std::vector<double> vals(kN);
  std::vector<uint32_t> groups(kN);
  Rng rng(9);
  for (int i = 0; i < kN; i++) {
    vals[i] = rng.NextDouble() * 10 - 5;
    groups[i] = static_cast<uint32_t>(rng.Uniform(0, kGroups - 1));
  }
  std::vector<double> sum(kGroups, 0), mn(kGroups, 1e300), mx(kGroups, -1e300);
  std::vector<int64_t> cnt(kGroups, 0);
  r.FindAggr("aggr_sum_f64_col")->fn(kN, sum.data(), groups.data(), vals.data(),
                                     nullptr);
  r.FindAggr("aggr_min_f64_col")->fn(kN, mn.data(), groups.data(), vals.data(),
                                     nullptr);
  r.FindAggr("aggr_max_f64_col")->fn(kN, mx.data(), groups.data(), vals.data(),
                                     nullptr);
  r.FindAggr("aggr_count")->fn(kN, cnt.data(), groups.data(), nullptr, nullptr);

  std::vector<double> rsum(kGroups, 0), rmn(kGroups, 1e300), rmx(kGroups, -1e300);
  std::vector<int64_t> rcnt(kGroups, 0);
  for (int i = 0; i < kN; i++) {
    rsum[groups[i]] += vals[i];
    rmn[groups[i]] = std::min(rmn[groups[i]], vals[i]);
    rmx[groups[i]] = std::max(rmx[groups[i]], vals[i]);
    rcnt[groups[i]]++;
  }
  for (int g = 0; g < kGroups; g++) {
    EXPECT_DOUBLE_EQ(sum[g], rsum[g]);
    EXPECT_DOUBLE_EQ(mn[g], rmn[g]);
    EXPECT_DOUBLE_EQ(mx[g], rmx[g]);
    EXPECT_EQ(cnt[g], rcnt[g]);
  }
}

TEST(AggrTest, ScalarAccumulatorWithSelection) {
  std::vector<int32_t> vals{1, 2, 3, 4, 5, 6};
  std::vector<int> sel{0, 2, 4};
  int64_t acc = 0;
  PrimitiveRegistry::Get().FindAggr("aggr_sum_i32_col")->fn(
      3, &acc, nullptr, vals.data(), sel.data());
  EXPECT_EQ(acc, 1 + 3 + 5);
}

// ---- fetch / hash / compound ----------------------------------------------------

TEST(FetchTest, GatherByCodes) {
  const MapPrimitive* prim =
      PrimitiveRegistry::Get().FindMap("map_fetch_f64_col_u8_col");
  ASSERT_NE(prim, nullptr);
  double dict[3] = {0.05, 0.10, 0.00};
  std::vector<uint8_t> codes{0, 1, 2, 1, 0};
  std::vector<double> res(5);
  const void* args[2] = {codes.data(), dict};
  prim->fn(5, res.data(), args, nullptr);
  EXPECT_DOUBLE_EQ(res[0], 0.05);
  EXPECT_DOUBLE_EQ(res[3], 0.10);
  EXPECT_DOUBLE_EQ(res[4], 0.05);
}

TEST(HashTest, RehashDistinguishesKeyOrder) {
  const PrimitiveRegistry& r = PrimitiveRegistry::Get();
  const MapPrimitive* h = r.FindMap("map_hash_i32_col");
  const MapPrimitive* rh = r.FindMap("map_rehash_i32_col");
  ASSERT_NE(h, nullptr);
  ASSERT_NE(rh, nullptr);
  std::vector<int32_t> a{1, 2}, b{2, 1};
  std::vector<uint64_t> ha(2), hb(2), out(2);
  const void* args1[1] = {a.data()};
  h->fn(2, ha.data(), args1, nullptr);
  const void* args2[2] = {b.data(), ha.data()};
  rh->fn(2, out.data(), args2, nullptr);
  // (1,2) vs (2,1) must hash differently.
  EXPECT_NE(out[0], out[1]);
}

// ---- strings -------------------------------------------------------------------

TEST(LikeTest, PatternSemantics) {
  EXPECT_TRUE(LikeMatch("hello world", "hello%"));
  EXPECT_TRUE(LikeMatch("hello world", "%world"));
  EXPECT_TRUE(LikeMatch("hello world", "%lo wo%"));
  EXPECT_TRUE(LikeMatch("hello", "h_llo"));
  EXPECT_TRUE(LikeMatch("special packages requests", "%special%requests%"));
  EXPECT_FALSE(LikeMatch("special requests denied", "%special%requests"));
  EXPECT_TRUE(LikeMatch("", "%"));
  EXPECT_FALSE(LikeMatch("", "_"));
  EXPECT_TRUE(LikeMatch("abc", "abc"));
  EXPECT_FALSE(LikeMatch("abc", "abd"));
  EXPECT_TRUE(LikeMatch("aaab", "%a_b"));      // backtracking
  EXPECT_TRUE(LikeMatch("MEDIUM POLISHED TIN", "MEDIUM POLISHED%"));
  EXPECT_FALSE(LikeMatch("PROMO POLISHED TIN", "MEDIUM POLISHED%"));
}

TEST(StringSelectTest, EqAndLike) {
  const PrimitiveRegistry& r = PrimitiveRegistry::Get();
  const char* vals[4] = {"MAIL", "SHIP", "MAIL", "AIR"};
  const char* target = "MAIL";
  const void* args[2] = {vals, &target};
  std::vector<int> out(4);
  int k = r.FindSelect("select_eq_str_col_str_val")->fn(4, out.data(), args,
                                                        nullptr);
  ASSERT_EQ(k, 2);
  EXPECT_EQ(out[0], 0);
  EXPECT_EQ(out[1], 2);

  const char* pat = "S%";
  const void* args2[2] = {vals, &pat};
  k = r.FindSelect("select_like_str_col_str_val")->fn(4, out.data(), args2,
                                                      nullptr);
  ASSERT_EQ(k, 1);
  EXPECT_EQ(out[0], 1);
}

}  // namespace
}  // namespace x100
