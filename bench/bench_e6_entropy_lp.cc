// E6 -- Propositions 6.9 / 6.10 / Figure 2.
//
// The entropy LP s(Q) (Shannon-only) vs the color number C(Q) (I-measure
// LP with all multi-way informations non-negative): equal without FDs and
// with simple keys, s >= C with compound FDs. Also reports the exact-
// arithmetic cost (LP size and pivot counts) -- the ablation for carrying
// rationals instead of floats -- and times the entropy LP of the 4- to
// 7-cycle, where the LP roughly doubles per added variable.

#include "bench/bench_util.h"
#include "core/color_number.h"
#include "core/entropy_bound.h"
#include "cq/chase.h"
#include "cq/parser.h"
#include "entropy/entropy_vector.h"
#include "relation/relation.h"

namespace cqbounds {
namespace {

struct Case {
  const char* name;
  const char* text;
};

const Case kCases[] = {
    {"triangle", "S(X,Y,Z) :- R(X,Y), R(X,Z), R(Y,Z)."},
    {"product", "Q(X,Y) :- R(X), S(Y)."},
    {"2-path proj", "Q(X,Z) :- R(X,Y), S(Y,Z)."},
    {"5-cycle", "Q(A,B,C,D,E) :- R(A,B), S(B,C), T(C,D), U(D,E), V(E,A)."},
    {"keyed join", "Q(X,Y,Z) :- R(X,Y), S(Y,Z). key S: 1."},
    {"compound fd", "Q(A,B,C,D) :- R(A,B,C), S(C,D). fd R: 1,2 -> 3."},
    {"wide fd",
     "Q(A,B,C,D,E) :- R(A,B,C,D), S(D,E). fd R: 1,2,3 -> 4."},
};

void PrintTables() {
  std::cout << "E6: entropy LP s(Q) vs color number C(chase(Q)) "
               "(Prop 6.9 / 6.10)\n\n";
  bench::Table table({"case", "C(chase(Q))", "s(chase(Q))", "relation",
                      "h-vars", "rows", "pivots"});
  for (const Case& c : kCases) {
    auto q = ParseQuery(c.text);
    Query chased = Chase(*q);
    auto color = ColorNumberOfChase(*q);
    auto s = EntropySizeBound(chased);
    if (!color.ok() || !s.ok()) continue;
    const char* relation = s->value == color->value
                               ? "s == C"
                               : (s->value > color->value ? "s > C" : "BUG");
    table.AddRow({c.name, color->value.ToString(), s->value.ToString(),
                  relation, bench::Num(s->num_lp_variables),
                  bench::Num(s->num_lp_constraints),
                  bench::Num(s->lp_pivots)});
  }
  table.Print();
  std::cout
      << "\nShape check: without FDs (and with simple keys) the Shannon LP\n"
         "collapses onto the color number -- the AGM/Thm 4.4 regime where\n"
         "the bound is tight. With compound FDs s(Q) can exceed C(chase(Q)),\n"
         "the Section 6 regime where only the sandwich C <= worst-case <= s\n"
         "is known (non-Shannon inequalities would be needed to close it).\n\n";

  // Figure 2 regenerated numerically: the 3-variable information diagram
  // of a concrete relation, printed as its seven I-measure atoms.
  std::cout << "Figure 2: information diagram atoms of T(X,Y,Z) with\n"
               "Z = X xor Y over uniform bits (the classic negative-core\n"
               "example: I(X;Y;Z) = -1 bit):\n\n";
  Relation xor_rel("T", 3);
  for (Value x = 0; x < 2; ++x) {
    for (Value y = 0; y < 2; ++y) xor_rel.Insert({x, y, x ^ y});
  }
  EntropyVector ev = EntropyVector::FromRelation(xor_rel);
  bench::Table diagram({"atom", "value (bits)"});
  const char* names[] = {"H(X|YZ)", "H(Y|XZ)", "I(X;Y|Z)", "H(Z|XY)",
                         "I(X;Z|Y)", "I(Y;Z|X)", "I(X;Y;Z)"};
  for (SubsetMask s = 1; s <= 7; ++s) {
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), "%+.3f", ev.Atom(s));
    diagram.AddRow({names[s - 1], buffer});
  }
  diagram.Print();
  std::cout << "\n";
}

// Entropy LP of the k-cycle (k variables, no FDs): 2^k - 1 h-variables and
// k + k(k-1)2^(k-3) elemental rows, so each step roughly doubles the LP.
Query CycleQuery(int k) {
  std::string head, body;
  for (int i = 0; i < k; ++i) {
    const std::string var(1, static_cast<char>('A' + i));
    const std::string next(1, static_cast<char>('A' + (i + 1) % k));
    head += (i ? "," : "") + var;
    body += (i ? ", R" : "R") + std::to_string(i) + "(" + var + "," + next +
            ")";
  }
  return *ParseQuery("Q(" + head + ") :- " + body + ".");
}

CQB_BENCH_TIMED("entropy_lp/4-cycle",
                [] { EntropySizeBound(CycleQuery(4)).ValueOrDie(); })
CQB_BENCH_TIMED("entropy_lp/5-cycle",
                [] { EntropySizeBound(CycleQuery(5)).ValueOrDie(); })
CQB_BENCH_TIMED("entropy_lp/6-cycle",
                [] { EntropySizeBound(CycleQuery(6)).ValueOrDie(); })
CQB_BENCH_TIMED("entropy_lp/7-cycle",
                [] { EntropySizeBound(CycleQuery(7)).ValueOrDie(); })

void BM_EntropyLp(benchmark::State& state) {
  auto q = ParseQuery(kCases[state.range(0)].text);
  Query chased = Chase(*q);
  for (auto _ : state) {
    auto s = EntropySizeBound(chased);
    benchmark::DoNotOptimize(s);
  }
}
BENCHMARK(BM_EntropyLp)->DenseRange(0, 3)->Unit(benchmark::kMillisecond);

void BM_DiagramLp(benchmark::State& state) {
  auto q = ParseQuery(kCases[state.range(0)].text);
  Query chased = Chase(*q);
  for (auto _ : state) {
    auto c = ColorNumberDiagramLp(chased);
    benchmark::DoNotOptimize(c);
  }
}
BENCHMARK(BM_DiagramLp)->DenseRange(0, 6);

}  // namespace
}  // namespace cqbounds

CQB_BENCH_MAIN(cqbounds::PrintTables)
