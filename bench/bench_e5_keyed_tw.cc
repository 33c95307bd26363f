// E5 -- Theorem 5.5 / Proposition 5.7.
//
// Keyed joins: the constructive tree decomposition realizing the proof of
// Theorem 5.5 stays within j(omega+1)-1 on random keyed instances, and the
// sequence bound of Proposition 5.7 caps chains of keyed joins.

#include "bench/bench_util.h"
#include "core/treewidth_bounds.h"
#include "graph/gaifman.h"
#include "graph/keyed_join.h"
#include "graph/treewidth.h"
#include "graph/treewidth_bb.h"
#include "relation/evaluate.h"
#include "util/rng.h"

namespace cqbounds {
namespace {

struct Instance {
  Relation r{"R", 2};
  Relation s;
  Instance() : s("S", 2) {}
};

Instance RandomKeyedInstance(int j, int keys, std::uint64_t seed) {
  Instance inst;
  inst.s = Relation("S", j);
  Rng rng(seed);
  for (int key = 0; key < keys; ++key) {
    Tuple t;
    t.push_back(1000 + key);
    for (int c = 1; c < j; ++c) {
      t.push_back(static_cast<Value>(rng.NextBelow(10)));
    }
    inst.s.Insert(t);
  }
  for (int i = 0; i < 15; ++i) {
    inst.r.Insert({static_cast<Value>(rng.NextBelow(10)),
                   1000 + static_cast<Value>(rng.NextBelow(keys))});
  }
  return inst;
}

void PrintTables() {
  std::cout << "E5: keyed-join treewidth bound (Thm 5.5)\n\n";
  bench::Table table({"arity(S)", "omega", "constructed width",
                      "join tw ub", "cap j(w+1)-1", "within"});
  Rng seeds(2026);
  for (int j : {2, 3, 4}) {
    for (int trial = 0; trial < 3; ++trial) {
      Instance inst = RandomKeyedInstance(j, 6 + trial * 3, seeds.Next());
      GaifmanGraph g = BuildGaifmanGraph({&inst.r, &inst.s});
      // Certified path: omega is the true tw(<R, S>), and the witness
      // decomposition seeds the Theorem 5.5 construction.
      int omega = -1;
      auto td = CertifiedKeyedJoinDecomposition(inst.r, 1, inst.s, 0, g,
                                                &omega);
      if (!td.ok()) continue;
      Graph augmented = AugmentedJoinGraph(inst.r, 1, inst.s, 0, g);
      TreewidthEstimate joined = EstimateTreewidth(augmented, 24);
      int cap = KeyedJoinTreewidthBound(j, omega);
      table.AddRow({bench::Num(j), bench::Num(omega),
                    bench::Num(td->Width()), bench::Num(joined.upper),
                    bench::Num(cap),
                    td->Width() <= cap && joined.upper <= cap ? "yes" : "NO"});
    }
  }
  table.Print();

  std::cout << "\nProposition 5.7 sequence caps (l^{n-1}(1+max(tw,2))-1):\n";
  bench::Table seq({"max arity l", "#relations n", "tw(in)", "cap"});
  for (int l : {2, 3}) {
    for (int n : {2, 3, 4}) {
      for (int tw : {1, 3}) {
        seq.AddRow({bench::Num(l), bench::Num(n), bench::Num(tw),
                    std::to_string(static_cast<long>(
                        KeyedJoinSequenceBound(l, n, tw)))});
      }
    }
  }
  seq.Print();
  std::cout << "\nShape check: every constructed decomposition (validated\n"
               "against the join's Gaifman graph) stays within the cap, and\n"
               "the cap grows geometrically with the chain length, as the\n"
               "paper's Prop 5.7 predicts.\n\n";
}

// Certified keyed-join timers on fixed random instances: the full
// TreewidthExact + Theorem 5.5 pipeline per arity (see docs/BENCHMARKS.md).
CQB_BENCH_TIMED("certified_keyed_join/j2", [] {
  Instance inst = RandomKeyedInstance(2, 8, 99);
  GaifmanGraph g = BuildGaifmanGraph({&inst.r, &inst.s});
  CertifiedKeyedJoinDecomposition(inst.r, 1, inst.s, 0, g).status();
})
CQB_BENCH_TIMED("certified_keyed_join/j4", [] {
  Instance inst = RandomKeyedInstance(4, 8, 99);
  GaifmanGraph g = BuildGaifmanGraph({&inst.r, &inst.s});
  CertifiedKeyedJoinDecomposition(inst.r, 1, inst.s, 0, g).status();
})
CQB_BENCH_TIMED("tw_exact/augmented_join_j3", [] {
  Instance inst = RandomKeyedInstance(3, 10, 7);
  GaifmanGraph g = BuildGaifmanGraph({&inst.r, &inst.s});
  TreewidthExact(AugmentedJoinGraph(inst.r, 1, inst.s, 0, g));
})

void BM_KeyedJoinDecomposition(benchmark::State& state) {
  Instance inst =
      RandomKeyedInstance(static_cast<int>(state.range(0)), 8, 99);
  GaifmanGraph g = BuildGaifmanGraph({&inst.r, &inst.s});
  TreewidthEstimate est = EstimateTreewidth(g.graph, 16);
  for (auto _ : state) {
    auto td =
        KeyedJoinDecomposition(inst.r, 1, inst.s, 0, g, est.decomposition);
    benchmark::DoNotOptimize(td);
  }
}
BENCHMARK(BM_KeyedJoinDecomposition)->Arg(2)->Arg(3)->Arg(4);

void BM_TreewidthEstimate(benchmark::State& state) {
  Instance inst =
      RandomKeyedInstance(3, static_cast<int>(state.range(0)), 7);
  GaifmanGraph g = BuildGaifmanGraph({&inst.r, &inst.s});
  for (auto _ : state) {
    TreewidthEstimate est = EstimateTreewidth(g.graph, 14);
    benchmark::DoNotOptimize(est);
  }
}
BENCHMARK(BM_TreewidthEstimate)->Arg(5)->Arg(10)->Arg(20);

}  // namespace
}  // namespace cqbounds

CQB_BENCH_MAIN(cqbounds::PrintTables)
