// A guided tour reproducing every worked example in the paper, printed with
// the paper's numbering. Run it to see the theory in action end to end.

#include <iostream>

#include "core/color_number.h"
#include "core/entropy_bound.h"
#include "core/size_increase.h"
#include "cq/chase.h"
#include "cq/parser.h"
#include "graph/gaifman.h"
#include "graph/treewidth_bb.h"
#include "relation/evaluate.h"

namespace {

void Banner(const char* title) {
  std::cout << "\n=== " << title << " ===\n";
}

}  // namespace

int main() {
  using namespace cqbounds;

  Banner("Example 2.1: R'(X,Y,Z) <- R(X,Y), R(X,Z)");
  {
    Database db;
    Relation* r = db.AddRelation("R", 2);
    const int n = 6;
    for (int i = 1; i <= n; ++i) r->Insert({0, i});
    auto q = ParseQuery("Rp(X,Y,Z) :- R(X,Y), R(X,Z).");
    auto result = EvaluateQuery(*q, db, PlanKind::kNaive);
    GaifmanGraph before = BuildGaifmanGraph(db);
    GaifmanGraph after = BuildGaifmanGraph({&*result});
    std::cout << "|R| = " << r->size() << ", |R'| = " << result->size()
              << " (= n^2)\n"
              << "tw(R) = " << TreewidthExact(before.graph).width
              << ", tw(R') = " << TreewidthExact(after.graph).width
              << " (= n - 1 on the clique K_n... here K_{n+1} incl. hub)\n";
  }

  Banner("Example 2.2 / 3.4: the chase removes implied dependencies");
  {
    auto q = ParseQuery(
        "R0(W,X,Y,Z) :- R1(W,X,Y), R1(W,W,W), R2(Y,Z). key R1: 1.");
    Query chased = Chase(*q);
    std::cout << "Q:        " << q->ToString() << "\n";
    std::cout << "chase(Q): " << chased.ToString() << "\n";
    auto direct = ColorNumberDiagramLp(*q);
    auto after = ColorNumberOfChase(*q);
    std::cout << "C(Q) = " << direct->value
              << "  but  C(chase(Q)) = " << after->value
              << "  -> at most |R2| output tuples\n";
  }

  Banner("Example 3.3: the triangle query");
  {
    auto q = ParseQuery("S(X,Y,Z) :- R(X,Y), R(X,Z), R(Y,Z).");
    auto c = ColorNumberNoFds(*q);
    auto rho = FractionalEdgeCoverNumber(*q);
    auto s = EntropySizeBound(*q);
    std::cout << "C(Q) = " << c->value << " = rho*(Q) = " << rho->ToString()
              << " = s(Q) = " << s->value
              << "  -> |Q(D)| <= rmax^{3/2} (AGM bound)\n";
  }

  Banner("Example 4.6: eliminating simple FDs");
  {
    auto q = ParseQuery(
        "R0(X1) :- R1(X1,X2,X3), R2(X1,X4), R3(X5,X1). "
        "key R1: 1. key R2: 1. key R3: 1.");
    auto eliminated = EliminateSimpleFds(Chase(*q));
    std::cout << "Q:  " << q->ToString() << "\n";
    std::cout << "Q': " << eliminated->ToString() << "\n";
    auto c = ColorNumberSimpleFds(*q);
    std::cout << "C(chase(Q)) = C(Q') = " << c->value << "\n";
  }

  Banner("Theorem 7.2: deciding size increase by dual-Horn SAT");
  {
    for (const char* text :
         {"Q(X,Y,Z) :- R(X,Y), S(Y,Z).",
          "Q(X,Y,Z) :- R(X,Y), S(Y,Z). key S: 1."}) {
      auto q = ParseQuery(text);
      auto inc = SizeIncreasePossible(*q);
      std::cout << text << "  ->  size increase "
                << (*inc ? "POSSIBLE" : "impossible") << "\n";
    }
  }

  std::cout << "\nDone. See EXPERIMENTS.md for the full reproduction "
               "ledger.\n";
  return 0;
}
