// Interactive X100 algebra shell over a TPC-H database: type plans in the
// paper's algebra notation (Figures 6/9) and run them — the Figure 5 parser
// path end to end. Plans may span lines; finish with an empty line. Try the
// paper's own example:
//
//   Aggr(
//     Project(
//       Select(
//         Table(lineitem),
//         < (l_shipdate, date('1998-09-03'))),
//       [ l_returnflag,
//         discountprice = *( -( flt('1.0'), l_discount), l_extendedprice) ]),
//     [ l_returnflag ],
//     [ sum_disc_price = sum(discountprice) ])
//
//   $ ./build/examples/algebra_shell [sf=0.01]

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <stdexcept>
#include <string>

#include "common/profiling.h"
#include "exec/algebra_parser.h"
#include "exec/materialize.h"
#include "storage/print.h"
#include "tpch/dbgen.h"

using namespace x100;

int main(int argc, char** argv) {
  double sf = argc > 1 ? std::atof(argv[1]) : 0.01;
  std::printf("generating TPC-H SF=%.4g ...\n", sf);
  DbgenOptions opts;
  opts.scale_factor = sf;
  std::unique_ptr<Catalog> db = GenerateTpch(opts);
  for (const std::string& t : db->TableNames()) {
    std::printf("  %-10s %8lld rows\n", t.c_str(),
                static_cast<long long>(db->Get(t).num_rows()));
  }
  std::printf("\nX100 algebra shell — enter a plan, finish with an empty "
              "line; 'quit' exits.\n\n");

  std::string plan_text;
  std::string line;
  while (true) {
    std::printf(plan_text.empty() ? "x100> " : "....> ");
    std::fflush(stdout);
    if (!std::getline(std::cin, line)) break;
    if (line == "quit" || line == "exit") break;
    if (!line.empty()) {
      plan_text += line;
      plan_text += '\n';
      continue;
    }
    if (plan_text.empty()) continue;

    ExecContext ctx;
    AlgebraParser parser(&ctx, *db);
    std::string error;
    std::string text = std::move(plan_text);
    plan_text.clear();
    // Bind errors (unknown column, wrong arity, no primitive) throw
    // std::invalid_argument from plan construction or execution.
    try {
      std::unique_ptr<Operator> op = parser.Parse(text, &error);
      if (op == nullptr) {
        std::printf("parse error: %s\n\n", error.c_str());
        continue;
      }
      uint64_t t0 = NowNanos();
      std::unique_ptr<Table> result = RunPlan(std::move(op), "result");
      double ms = (NowNanos() - t0) / 1e6;
      std::printf("%s(%lld rows, %.1f ms)\n\n",
                  FormatTable(*result, 40).c_str(),
                  static_cast<long long>(result->num_rows()), ms);
    } catch (const std::exception& e) {
      std::printf("error: %s\n\n", e.what());
    }
  }
  return 0;
}
