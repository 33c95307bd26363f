// Plan explainer: load a database from the plain-text format, give a query,
// and get (1) the Corollary 4.8 join-project plan with its cost envelope,
// (2) the executed result and the measured intermediates. Demonstrates the
// text_io + join_plan public APIs together.
//
//   $ ./plan_explainer db.txt "Q(X,Z) :- R(X,Y), S(Y,Z)."
//
// With no arguments, runs on a built-in triangle-ish demo database.

#include <fstream>
#include <iostream>
#include <sstream>

#include "core/join_plan.h"
#include "cq/parser.h"
#include "relation/text_io.h"

namespace {

const char kDemoDatabase[] =
    "relation R 2\n"
    "R a1 b1\nR a1 b2\nR a2 b1\nR a2 b3\nR a3 b2\n"
    "relation S 2\n"
    "S b1 c1\nS b2 c1\nS b2 c2\nS b3 c3\n"
    "relation T 2\n"
    "T c1 d1\nT c2 d1\nT c3 d2\n";

}  // namespace

int main(int argc, char** argv) {
  using namespace cqbounds;

  Database db;
  std::string query_text = "Q(X,W) :- R(X,Y), S(Y,Z), T(Z,W).";
  if (argc > 2) {
    std::ifstream in(argv[1]);
    if (!in) {
      std::cerr << "cannot open " << argv[1] << "\n";
      return 1;
    }
    Status status = ReadDatabaseText(in, &db);
    if (!status.ok()) {
      std::cerr << status << "\n";
      return 1;
    }
    query_text = argv[2];
  } else {
    Status status = ReadDatabaseTextFromString(kDemoDatabase, &db);
    if (!status.ok()) {
      std::cerr << status << "\n";
      return 1;
    }
    std::cout << "(using built-in demo database; pass <db.txt> <query> to "
                 "override)\n\n";
  }

  auto q = ParseQuery(query_text);
  if (!q.ok()) {
    std::cerr << "parse error: " << q.status() << "\n";
    return 1;
  }
  auto plan = BuildJoinProjectPlan(*q);
  if (!plan.ok()) {
    std::cerr << "planning error: " << plan.status() << "\n";
    return 1;
  }
  std::cout << "query: " << query_text << "\n\n" << plan->ToString(*q);

  EvalStats stats;
  auto result = ExecuteJoinSteps(*q, plan->steps, db, &stats);
  if (!result.ok()) {
    std::cerr << "execution error: " << result.status() << "\n";
    return 1;
  }
  std::cout << "\nexecuted: |Q(D)| = " << result->size()
            << ", peak intermediate = " << stats.max_intermediate
            << ", rmax = " << db.RMax(*q).ValueOrDie() << "\n";
  std::cout << "\nresult tuples:\n";
  std::size_t shown = 0;
  for (const Tuple& t : result->tuples()) {
    std::cout << "  (";
    for (std::size_t i = 0; i < t.size(); ++i) {
      if (i) std::cout << ", ";
      std::cout << db.value_pool()->Spelling(t[i]);
    }
    std::cout << ")\n";
    if (++shown == 12 && result->size() > 12) {
      std::cout << "  ... " << result->size() - 12 << " more\n";
      break;
    }
  }
  return 0;
}
