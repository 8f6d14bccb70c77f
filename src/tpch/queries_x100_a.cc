// Hand-translated X100 algebra plans for TPC-H Q1-Q11 (§5). SQL subqueries
// become materialized sub-plans (RunPlan); scalar subquery results are read
// back and embedded as literals, standing in for the optimizer the paper
// lists as future work.

#include "common/date.h"
#include "tpch/queries.h"
#include "tpch/queries_x100_internal.h"

namespace x100::tpch_x100 {

using namespace x100::exprs;
using namespace x100::plan;

namespace {
const std::string kJiOrders = Table::JoinIndexName("orders");
const std::string kJiPart = Table::JoinIndexName("part");
const std::string kJiSupplier = Table::JoinIndexName("supplier");
const std::string kJiCustomer = Table::JoinIndexName("customer");
const std::string kJiNation = Table::JoinIndexName("nation");
const std::string kJiRegion = Table::JoinIndexName("region");
const double kInf = 1e300;
}  // namespace

// ---- Q1: pricing summary report --------------------------------------------
//
// With ctx->num_threads > 1 the scan+select+partial-aggregation pipeline is
// cloned across an Exchange (each worker aggregating its morsel of
// lineitem); one HashAggr above the exchange merges the per-worker partials.
// The group count is tiny (≤ 6), so partial merge is essentially free.
TablePtr Q1(ExecContext* ctx, const Catalog& db) {
  double hi = ParseDate("1998-09-02");
  const std::vector<std::string> cols = {
      "l_returnflag", "l_linestatus",  "l_quantity", "l_extendedprice",
      "l_discount",   "l_tax",         "l_shipdate"};
  const std::vector<std::string> groups = {"l_returnflag", "l_linestatus"};
  auto aggrs = [] {
    return AG(
        Sum("sum_qty", Col("l_quantity")),
        Sum("sum_base_price", Col("l_extendedprice")),
        Sum("sum_disc_price",
            Mul(Sub(LitF64(1.0), Col("l_discount")), Col("l_extendedprice"))),
        Sum("sum_charge",
            Mul(Add(LitF64(1.0), Col("l_tax")),
                Mul(Sub(LitF64(1.0), Col("l_discount")),
                    Col("l_extendedprice")))),
        Sum("sum_disc", Col("l_discount")), CountAll("count_order"));
  };

  OpPtr op;
  if (ctx->num_threads > 1) {
    const Table& li = db.Get("lineitem");
    op = Exchange(ctx, ctx->num_threads,
                  [&](ExecContext* wctx, int w, int n) {
                    auto s = Scan(wctx, li,
                                  {.cols = cols,
                                   .range = ScanSpec::Range{"l_shipdate",
                                                            -kInf, hi},
                                   .morsel = {w, n}});
                    s = Select(wctx, std::move(s),
                               Le(Col("l_shipdate"), LitDate("1998-09-02")));
                    return DirectAggr(wctx, std::move(s), groups, aggrs());
                  });
    op = HashAggr(ctx, std::move(op), groups, MergeAggrSpecs(aggrs()));
  } else {
    op = Scan(ctx, db.Get("lineitem"),
              {.cols = cols,
               .range = ScanSpec::Range{"l_shipdate", -kInf, hi}});
    op = Select(ctx, std::move(op),
                Le(Col("l_shipdate"), LitDate("1998-09-02")));
    op = DirectAggr(ctx, std::move(op), groups, aggrs());
  }
  op = Project(
      ctx, std::move(op),
      NE(Pass("l_returnflag"), Pass("l_linestatus"), Pass("sum_qty"),
         Pass("sum_base_price"), Pass("sum_disc_price"), Pass("sum_charge"),
         As("avg_qty", Div(Col("sum_qty"), Call1("dbl", Col("count_order")))),
         As("avg_price",
            Div(Col("sum_base_price"), Call1("dbl", Col("count_order")))),
         As("avg_disc", Div(Col("sum_disc"), Call1("dbl", Col("count_order")))),
         Pass("count_order")));
  op = Order(ctx, std::move(op), {Asc("l_returnflag"), Asc("l_linestatus")});
  return RunPlan(std::move(op), "q1");
}

// ---- Q2: minimum-cost supplier ----------------------------------------------
TablePtr Q2(ExecContext* ctx, const Catalog& db) {
  // European suppliers with nation attributes.
  auto s = Scan(ctx, db.Get("supplier"),
                {"s_suppkey", "s_name", "s_address", "s_phone", "s_acctbal",
                 "s_comment", kJiNation});
  s = Fetch1Join(ctx, std::move(s), db.Get("nation"), kJiNation,
                 {{"n_name", "n_name"}, {kJiRegion, "ji_r"}});
  s = Fetch1Join(ctx, std::move(s), db.Get("region"), "ji_r",
                 {{"r_name", "r_name"}});
  s = Select(ctx, std::move(s), Eq(Col("r_name"), LitStr("EUROPE")));
  s = Project(ctx, std::move(s),
              NE(Pass("s_suppkey"), Pass("s_name"), Pass("s_address"),
                 Pass("s_phone"), Pass("s_acctbal"), Pass("s_comment"),
                 Pass("n_name")));
  TablePtr euro = RunPlan(std::move(s), "q2_euro");

  // partsupp restricted to European suppliers.
  auto ps = Scan(ctx, db.Get("partsupp"),
                 {"ps_partkey", "ps_suppkey", "ps_supplycost"});
  ps = Join(ctx, std::move(ps), Scan(ctx, *euro, {"s_suppkey"}),
            {.probe_keys = {"ps_suppkey"},
             .build_keys = {"s_suppkey"},
             .probe_out = {"ps_partkey", "ps_suppkey", "ps_supplycost"}});
  // Target parts.
  auto p = Scan(ctx, db.Get("part"),
                {"p_partkey", "p_mfgr", "p_size", "p_type"});
  p = Select(ctx, std::move(p),
             And(Eq(Col("p_size"), LitI32(15)), Like(Col("p_type"), "%BRASS")));
  p = Project(ctx, std::move(p), NE(Pass("p_partkey"), Pass("p_mfgr")));
  ps = Join(ctx, std::move(ps), std::move(p),
            {.probe_keys = {"ps_partkey"},
             .build_keys = {"p_partkey"},
             .probe_out = {"ps_partkey", "ps_suppkey", "ps_supplycost"},
             .build_out = {"p_mfgr"}});
  TablePtr psp = RunPlan(std::move(ps), "q2_psp");

  auto minc = HashAggr(ctx, Scan(ctx, *psp, {"ps_partkey", "ps_supplycost"}),
                       {"ps_partkey"}, AG(Min("min_cost", Col("ps_supplycost"))));
  TablePtr mint = RunPlan(std::move(minc), "q2_min");

  auto win = Join(ctx,
                  Scan(ctx, *psp,
                       {"ps_partkey", "ps_suppkey", "ps_supplycost", "p_mfgr"}),
                  Scan(ctx, *mint, {"ps_partkey", "min_cost"}),
                  {.probe_keys = {"ps_partkey", "ps_supplycost"},
                   .build_keys = {"ps_partkey", "min_cost"},
                   .probe_out = {"ps_partkey", "ps_suppkey", "p_mfgr"}});
  win = Join(ctx, std::move(win),
             Scan(ctx, *euro,
                  {"s_suppkey", "s_name", "s_address", "s_phone", "s_acctbal",
                   "s_comment", "n_name"}),
             {.probe_keys = {"ps_suppkey"},
              .build_keys = {"s_suppkey"},
              .probe_out = {"ps_partkey", "p_mfgr"},
              .build_out = {"s_acctbal", "s_name", "n_name", "s_address",
                            "s_phone", "s_comment"}});
  win = Project(ctx, std::move(win),
                NE(Pass("s_acctbal"), Pass("s_name"), Pass("n_name"),
                   As("p_partkey", Col("ps_partkey")), Pass("p_mfgr"),
                   Pass("s_address"), Pass("s_phone"), Pass("s_comment")));
  win = TopN(ctx, std::move(win),
             {Desc("s_acctbal"), Asc("n_name"), Asc("s_name"), Asc("p_partkey")},
             100);
  return RunPlan(std::move(win), "q2");
}

// ---- Q3: shipping priority ---------------------------------------------------
//
// With ctx->num_threads > 1 the lineitem pipeline below the aggregation runs
// per morsel under an Exchange, each worker pre-aggregating its share; one
// HashAggr above the exchange merges the partials.
TablePtr Q3(ExecContext* ctx, const Catalog& db) {
  const std::vector<std::string> cols = {"l_orderkey", "l_extendedprice",
                                         "l_discount", "l_shipdate",
                                         kJiOrders};
  const std::vector<std::string> groups = {"l_orderkey", "o_orderdate",
                                           "o_shippriority"};
  auto aggrs = [] { return AG(Sum("revenue", Col("rev"))); };
  const Table& t = db.Get("lineitem");
  // Shipdate filter, the two Fetch1Joins, mktsegment filter, revenue.
  auto body = [&](ExecContext* c, OpPtr s) {
    s = Select(c, std::move(s), Gt(Col("l_shipdate"), LitDate("1995-03-15")));
    s = Fetch1Join(c, std::move(s), db.Get("orders"), kJiOrders,
                   {{"o_orderdate", "o_orderdate"},
                    {"o_shippriority", "o_shippriority"},
                    {kJiCustomer, "ji_c"}});
    s = Select(c, std::move(s), Lt(Col("o_orderdate"), LitDate("1995-03-15")));
    s = Fetch1Join(c, std::move(s), db.Get("customer"), "ji_c",
                   {{"c_mktsegment", "c_mktsegment"}});
    s = Select(c, std::move(s), Eq(Col("c_mktsegment"), LitStr("BUILDING")));
    return Project(c, std::move(s),
                   NE(Pass("l_orderkey"), Pass("o_orderdate"),
                      Pass("o_shippriority"), As("rev", Rev())));
  };

  OpPtr li;
  if (ctx->num_threads > 1) {
    li = Exchange(ctx, ctx->num_threads,
                  [&](ExecContext* wctx, int w, int n) {
                    auto s = Scan(wctx, t, {.cols = cols, .morsel = {w, n}});
                    return HashAggr(wctx, body(wctx, std::move(s)), groups,
                                    aggrs());
                  });
    li = HashAggr(ctx, std::move(li), groups, MergeAggrSpecs(aggrs()));
  } else {
    li = HashAggr(ctx, body(ctx, Scan(ctx, t, cols)), groups, aggrs());
  }
  li = Project(ctx, std::move(li),
               NE(Pass("l_orderkey"), Pass("revenue"), Pass("o_orderdate"),
                  Pass("o_shippriority")));
  li = TopN(ctx, std::move(li),
            {Desc("revenue"), Asc("o_orderdate"), Asc("l_orderkey")}, 10);
  return RunPlan(std::move(li), "q3");
}

// ---- Q4: order priority checking ---------------------------------------------
TablePtr Q4(ExecContext* ctx, const Catalog& db) {
  // Build side = the (small) date-filtered orders; probe = late lineitems.
  // EXISTS becomes inner-join + per-order distinct before counting.
  double lo = ParseDate("1993-07-01"), hi = ParseDate("1993-10-01");
  auto ord = Scan(ctx, db.Get("orders"),
                  {.cols = {"o_orderkey", "o_orderdate", "o_orderpriority"},
                   .range = ScanSpec::Range{"o_orderdate", lo, hi}});
  ord = Select(ctx, std::move(ord),
               And(Ge(Col("o_orderdate"), LitDate("1993-07-01")),
                   Lt(Col("o_orderdate"), LitDate("1993-10-01"))));

  auto late = Scan(ctx, db.Get("lineitem"),
                   {"l_orderkey", "l_commitdate", "l_receiptdate"});
  late = Select(ctx, std::move(late),
                Lt(Col("l_commitdate"), Col("l_receiptdate")));
  auto j = Join(ctx, std::move(late), std::move(ord),
                {.probe_keys = {"l_orderkey"},
                 .build_keys = {"o_orderkey"},
                 .build_out = {"o_orderkey", "o_orderpriority"}});
  j = HashAggr(ctx, std::move(j), {"o_orderkey", "o_orderpriority"}, {});
  j = HashAggr(ctx, std::move(j), {"o_orderpriority"},
               AG(CountAll("order_count")));
  j = Order(ctx, std::move(j), {Asc("o_orderpriority")});
  return RunPlan(std::move(j), "q4");
}

// ---- Q5: local supplier volume -------------------------------------------------
TablePtr Q5(ExecContext* ctx, const Catalog& db) {
  auto li = Scan(ctx, db.Get("lineitem"),
                 {"l_extendedprice", "l_discount", kJiOrders, kJiSupplier});
  li = Fetch1Join(ctx, std::move(li), db.Get("orders"), kJiOrders,
                  {{"o_orderdate", "o_orderdate"}, {kJiCustomer, "ji_c"}});
  li = Select(ctx, std::move(li),
              And(Ge(Col("o_orderdate"), LitDate("1994-01-01")),
                  Lt(Col("o_orderdate"), LitDate("1995-01-01"))));
  li = Fetch1Join(ctx, std::move(li), db.Get("customer"), "ji_c",
                  {{"c_nationkey", "c_nationkey"}});
  li = Fetch1Join(ctx, std::move(li), db.Get("supplier"), kJiSupplier,
                  {{"s_nationkey", "s_nationkey"}, {kJiNation, "ji_n"}});
  li = Select(ctx, std::move(li), Eq(Col("c_nationkey"), Col("s_nationkey")));
  li = Fetch1Join(ctx, std::move(li), db.Get("nation"), "ji_n",
                  {{"n_name", "n_name"}, {kJiRegion, "ji_r"}});
  li = Fetch1Join(ctx, std::move(li), db.Get("region"), "ji_r",
                  {{"r_name", "r_name"}});
  li = Select(ctx, std::move(li), Eq(Col("r_name"), LitStr("ASIA")));
  li = Project(ctx, std::move(li), NE(Pass("n_name"), As("rev", Rev())));
  li = HashAggr(ctx, std::move(li), {"n_name"}, AG(Sum("revenue", Col("rev"))));
  li = Order(ctx, std::move(li), {Desc("revenue"), Asc("n_name")});
  return RunPlan(std::move(li), "q5");
}

// ---- Q6: forecasting revenue change --------------------------------------------
//
// Parallel variant mirrors Q1: per-worker scan/select/scalar-aggregate over a
// lineitem morsel, merged by summing the single-row partials above the
// Exchange.
TablePtr Q6(ExecContext* ctx, const Catalog& db) {
  double lo = ParseDate("1994-01-01"), hi = ParseDate("1995-01-01") - 1;
  const std::vector<std::string> cols = {"l_shipdate", "l_discount",
                                         "l_quantity", "l_extendedprice"};
  auto pred = [] {
    return And(Ge(Col("l_shipdate"), LitDate("1994-01-01")),
               And(Lt(Col("l_shipdate"), LitDate("1995-01-01")),
                   And(Ge(Col("l_discount"), LitF64(0.05)),
                       And(Le(Col("l_discount"), LitF64(0.07)),
                           Lt(Col("l_quantity"), LitF64(24.0))))));
  };
  auto aggrs = [] {
    return AG(
        Sum("revenue", Mul(Col("l_extendedprice"), Col("l_discount"))));
  };

  OpPtr li;
  if (ctx->num_threads > 1) {
    const Table& t = db.Get("lineitem");
    li = Exchange(ctx, ctx->num_threads,
                  [&](ExecContext* wctx, int w, int n) {
                    auto s = Scan(wctx, t,
                                  {.cols = cols,
                                   .range = ScanSpec::Range{"l_shipdate", lo,
                                                            hi},
                                   .morsel = {w, n}});
                    s = Select(wctx, std::move(s), pred());
                    return HashAggr(wctx, std::move(s), {}, aggrs());
                  });
    li = HashAggr(ctx, std::move(li), {}, MergeAggrSpecs(aggrs()));
  } else {
    li = Scan(ctx, db.Get("lineitem"),
              {.cols = cols, .range = ScanSpec::Range{"l_shipdate", lo, hi}});
    li = Select(ctx, std::move(li), pred());
    li = HashAggr(ctx, std::move(li), {}, aggrs());
  }
  return RunPlan(std::move(li), "q6");
}

// ---- Q7: volume shipping ---------------------------------------------------------
TablePtr Q7(ExecContext* ctx, const Catalog& db) {
  double lo = ParseDate("1995-01-01"), hi = ParseDate("1996-12-31");
  auto li = Scan(ctx, db.Get("lineitem"),
                 {.cols = {"l_shipdate", "l_extendedprice", "l_discount",
                           kJiOrders, kJiSupplier},
                  .range = ScanSpec::Range{"l_shipdate", lo, hi}});
  li = Select(ctx, std::move(li),
              Between(Col("l_shipdate"), LitDate("1995-01-01"),
                      LitDate("1996-12-31")));
  li = Fetch1Join(ctx, std::move(li), db.Get("supplier"), kJiSupplier,
                  {{kJiNation, "ji_sn"}});
  li = Fetch1Join(ctx, std::move(li), db.Get("nation"), "ji_sn",
                  {{"n_name", "supp_nation"}});
  li = Fetch1Join(ctx, std::move(li), db.Get("orders"), kJiOrders,
                  {{kJiCustomer, "ji_c"}});
  li = Fetch1Join(ctx, std::move(li), db.Get("customer"), "ji_c",
                  {{kJiNation, "ji_cn"}});
  li = Fetch1Join(ctx, std::move(li), db.Get("nation"), "ji_cn",
                  {{"n_name", "cust_nation"}});
  li = Select(ctx, std::move(li),
              Or(And(Eq(Col("supp_nation"), LitStr("FRANCE")),
                     Eq(Col("cust_nation"), LitStr("GERMANY"))),
                 And(Eq(Col("supp_nation"), LitStr("GERMANY")),
                     Eq(Col("cust_nation"), LitStr("FRANCE")))));
  li = Project(ctx, std::move(li),
               NE(Pass("supp_nation"), Pass("cust_nation"),
                  As("l_year", Call1("year", Col("l_shipdate"))),
                  As("volume", Rev())));
  li = HashAggr(ctx, std::move(li), {"supp_nation", "cust_nation", "l_year"},
                AG(Sum("revenue", Col("volume"))));
  li = Order(ctx, std::move(li),
             {Asc("supp_nation"), Asc("cust_nation"), Asc("l_year")});
  return RunPlan(std::move(li), "q7");
}

// ---- Q8: national market share ----------------------------------------------------
TablePtr Q8(ExecContext* ctx, const Catalog& db) {
  auto li = Scan(ctx, db.Get("lineitem"),
                 {"l_extendedprice", "l_discount", kJiPart, kJiOrders,
                  kJiSupplier});
  li = Fetch1Join(ctx, std::move(li), db.Get("part"), kJiPart,
                  {{"p_type", "p_type"}});
  li = Select(ctx, std::move(li),
              Eq(Col("p_type"), LitStr("ECONOMY ANODIZED STEEL")));
  li = Fetch1Join(ctx, std::move(li), db.Get("orders"), kJiOrders,
                  {{"o_orderdate", "o_orderdate"}, {kJiCustomer, "ji_c"}});
  li = Select(ctx, std::move(li),
              Between(Col("o_orderdate"), LitDate("1995-01-01"),
                      LitDate("1996-12-31")));
  li = Fetch1Join(ctx, std::move(li), db.Get("customer"), "ji_c",
                  {{kJiNation, "ji_cn"}});
  li = Fetch1Join(ctx, std::move(li), db.Get("nation"), "ji_cn",
                  {{kJiRegion, "ji_cr"}});
  li = Fetch1Join(ctx, std::move(li), db.Get("region"), "ji_cr",
                  {{"r_name", "r_name"}});
  li = Select(ctx, std::move(li), Eq(Col("r_name"), LitStr("AMERICA")));
  li = Fetch1Join(ctx, std::move(li), db.Get("supplier"), kJiSupplier,
                  {{kJiNation, "ji_sn"}});
  li = Fetch1Join(ctx, std::move(li), db.Get("nation"), "ji_sn",
                  {{"n_name", "s_nation"}});
  li = Project(ctx, std::move(li),
               NE(As("o_year", Call1("year", Col("o_orderdate"))),
                  As("volume", Rev()), Pass("s_nation")));
  TablePtr base = RunPlan(std::move(li), "q8_base");

  auto tot = HashAggr(ctx, Scan(ctx, *base, {"o_year", "volume"}), {"o_year"},
                      AG(Sum("total", Col("volume"))));
  TablePtr tott = RunPlan(std::move(tot), "q8_tot");
  auto bra = Select(ctx, Scan(ctx, *base, {"o_year", "volume", "s_nation"}),
                    Eq(Col("s_nation"), LitStr("BRAZIL")));
  bra = HashAggr(ctx, std::move(bra), {"o_year"},
                 AG(Sum("brazil", Col("volume"))));
  TablePtr brat = RunPlan(std::move(bra), "q8_bra");

  auto fin = Join(ctx, Scan(ctx, *tott, {"o_year", "total"}),
                  Scan(ctx, *brat, {"o_year", "brazil"}),
                  {.probe_keys = {"o_year"},
                   .build_keys = {"o_year"},
                   .probe_out = {"o_year", "total"},
                   .build_out = {"brazil"},
                   .type = JoinType::kLeftOuterDefault});
  fin = Project(ctx, std::move(fin),
                NE(Pass("o_year"),
                   As("mkt_share", Div(Col("brazil"), Col("total")))));
  fin = Order(ctx, std::move(fin), {Asc("o_year")});
  return RunPlan(std::move(fin), "q8");
}

// ---- Q9: product type profit measure ------------------------------------------------
TablePtr Q9(ExecContext* ctx, const Catalog& db) {
  const std::string ji_ps = Table::JoinIndexName("partsupp");
  auto li = Scan(ctx, db.Get("lineitem"),
                 {"l_quantity", "l_extendedprice", "l_discount", kJiPart,
                  kJiSupplier, kJiOrders, ji_ps});
  li = Fetch1Join(ctx, std::move(li), db.Get("part"), kJiPart,
                  {{"p_name", "p_name"}});
  li = Select(ctx, std::move(li), Like(Col("p_name"), "%green%"));
  li = Fetch1Join(ctx, std::move(li), db.Get("supplier"), kJiSupplier,
                  {{kJiNation, "ji_sn"}});
  li = Fetch1Join(ctx, std::move(li), db.Get("nation"), "ji_sn",
                  {{"n_name", "nation"}});
  li = Fetch1Join(ctx, std::move(li), db.Get("orders"), kJiOrders,
                  {{"o_orderdate", "o_orderdate"}});
  // The composite (l_partkey,l_suppkey) -> partsupp join index turns the
  // supply-cost lookup into a positional Fetch1Join.
  li = Fetch1Join(ctx, std::move(li), db.Get("partsupp"), ji_ps,
                  {{"ps_supplycost", "ps_supplycost"}});
  li = Project(
      ctx, std::move(li),
      NE(Pass("nation"), As("o_year", Call1("year", Col("o_orderdate"))),
         As("amount", Sub(Rev(), Mul(Col("ps_supplycost"), Col("l_quantity"))))));
  li = HashAggr(ctx, std::move(li), {"nation", "o_year"},
                AG(Sum("sum_profit", Col("amount"))));
  li = Order(ctx, std::move(li), {Asc("nation"), Desc("o_year")});
  return RunPlan(std::move(li), "q9");
}

// ---- Q10: returned item reporting ----------------------------------------------------
TablePtr Q10(ExecContext* ctx, const Catalog& db) {
  auto li = Scan(ctx, db.Get("lineitem"),
                 {"l_returnflag", "l_extendedprice", "l_discount", kJiOrders});
  li = Select(ctx, std::move(li), Eq(Col("l_returnflag"), LitChar('R')));
  li = Fetch1Join(ctx, std::move(li), db.Get("orders"), kJiOrders,
                  {{"o_orderdate", "o_orderdate"}, {kJiCustomer, "ji_c"}});
  li = Select(ctx, std::move(li),
              And(Ge(Col("o_orderdate"), LitDate("1993-10-01")),
                  Lt(Col("o_orderdate"), LitDate("1994-01-01"))));
  // Aggregate on the customer #rowId alone (it determines every customer
  // attribute) and fetch the attributes per *group* afterwards — far fewer
  // fetches and no string group keys.
  li = Project(ctx, std::move(li), NE(Pass("ji_c"), As("rev", Rev())));
  li = HashAggr(ctx, std::move(li), {"ji_c"}, AG(Sum("revenue", Col("rev"))));
  li = Fetch1Join(ctx, std::move(li), db.Get("customer"), "ji_c",
                  {{"c_custkey", "c_custkey"},
                   {"c_name", "c_name"},
                   {"c_acctbal", "c_acctbal"},
                   {"c_phone", "c_phone"},
                   {"c_address", "c_address"},
                   {"c_comment", "c_comment"},
                   {kJiNation, "ji_n"}});
  li = Fetch1Join(ctx, std::move(li), db.Get("nation"), "ji_n",
                  {{"n_name", "n_name"}});
  li = Project(ctx, std::move(li),
               NE(Pass("c_custkey"), Pass("c_name"), Pass("revenue"),
                  Pass("c_acctbal"), Pass("n_name"), Pass("c_address"),
                  Pass("c_phone"), Pass("c_comment")));
  li = TopN(ctx, std::move(li), {Desc("revenue"), Asc("c_custkey")}, 20);
  return RunPlan(std::move(li), "q10");
}

// ---- Q11: important stock identification ----------------------------------------------
TablePtr Q11(ExecContext* ctx, const Catalog& db) {
  double sf = static_cast<double>(db.Get("orders").num_rows()) / 1500000.0;
  auto mk = [&](const char* name) {
    auto ps = Scan(ctx, db.Get("partsupp"),
                   {"ps_partkey", "ps_availqty", "ps_supplycost", kJiSupplier});
    ps = Fetch1Join(ctx, std::move(ps), db.Get("supplier"), kJiSupplier,
                    {{kJiNation, "ji_n"}});
    ps = Fetch1Join(ctx, std::move(ps), db.Get("nation"), "ji_n",
                    {{"n_name", "n_name"}});
    ps = Select(ctx, std::move(ps), Eq(Col("n_name"), LitStr("GERMANY")));
    ps = Project(ctx, std::move(ps),
                 NE(Pass("ps_partkey"),
                    As("value", Mul(Col("ps_supplycost"), Col("ps_availqty")))));
    return RunPlan(std::move(ps), name);
  };
  TablePtr base = mk("q11_base");

  auto tot = HashAggr(ctx, Scan(ctx, *base, {"value"}), {},
                      AG(Sum("total", Col("value"))));
  TablePtr tott = RunPlan(std::move(tot), "q11_tot");
  double threshold = ScalarF64(*tott, "total") * 0.0001 / std::max(sf, 1e-9);

  auto per = HashAggr(ctx, Scan(ctx, *base, {"ps_partkey", "value"}),
                      {"ps_partkey"}, AG(Sum("value", Col("value"))));
  per = Select(ctx, std::move(per), Gt(Col("value"), LitF64(threshold)));
  per = Order(ctx, std::move(per), {Desc("value"), Asc("ps_partkey")});
  return RunPlan(std::move(per), "q11");
}

}  // namespace x100::tpch_x100
