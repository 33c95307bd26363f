// E10 -- Corollary 4.8 / Fact 4.10, and the executor that meets Prop 4.1.
//
// Three evaluation plans over the same adversarial inputs:
//   naive         left-deep hash joins, no projection discipline;
//   join-project  Corollary 4.8: project to needed vars, rmax^{C+1} budget;
//   generic-join  worst-case-optimal leapfrog over sorted tries: every
//                 per-variable intermediate stays within the AGM envelope
//                 rmax^{rho*(full join)} (Prop 4.1/4.3 as a *runtime*).
//
// The star-triangle table is the paper's size bound turned adversarial: the
// naive plan's two-step-walk intermediate overshoots rmax^{3/2} while the
// generic join cannot, and both agree on the output.
//
// The seek/* timers time TrieIndex::SeekGE alone, as leapfrog walks over
// one wide level of keys an API caller may supply: dense ids, where the
// kernel's interpolation probe lands on the answer, and random, clustered
// and geometric keys, where it does not.

#include <algorithm>
#include <cstddef>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "core/join_plan.h"
#include "core/size_bounds.h"
#include "cq/parser.h"
#include "relation/eval_context.h"
#include "relation/evaluate.h"
#include "relation/generator.h"
#include "relation/trie_index.h"
#include "util/rng.h"

namespace cqbounds {
namespace {

/// Vertices of the bipartite circulant: 4 * 50,000 = 2x10^5 tuples.
constexpr int kCirculantVertices = 50000;

/// The circulant graph on n (even) vertices with odd offsets {1, 3}, both
/// directions stored, under a seeded relabelling of the vertices: odd
/// offsets join the two parity classes, so the graph is bipartite and has
/// no triangle. The shape perfbench's churn workload re-evaluates.
Database BipartiteCirculant(int n) {
  std::vector<Value> label(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) label[static_cast<std::size_t>(i)] = i;
  Rng rng(10);
  for (std::size_t i = label.size() - 1; i > 0; --i) {
    std::swap(label[i], label[rng.NextBelow(i + 1)]);
  }
  Database db;
  Relation* e = db.AddRelation("E", 2);
  std::vector<Value> flat;
  flat.reserve(static_cast<std::size_t>(n) * 8);
  for (int i = 0; i < n; ++i) {
    for (int d : {1, 3}) {
      const Value u = label[static_cast<std::size_t>(i)];
      const Value w = label[static_cast<std::size_t>((i + d) % n)];
      flat.insert(flat.end(), {u, w, w, u});
    }
  }
  e->InsertFlat(flat, flat.size() / 2);
  return db;
}

Database& Bipartite50k() {
  static Database db = BipartiteCirculant(kCirculantVertices);
  return db;
}
const Query& TriangleQuery() {
  static const Query q =
      ParseQuery("T(X,Y,Z) :- E(X,Y), E(Y,Z), E(Z,X).").ValueOrDie();
  return q;
}
EvalContext& Bipartite50kCtx() {
  static EvalContext ctx(Bipartite50k());
  return ctx;
}

/// Keys per seek-timer level: 2^19 values, 4 MB, wider than the L2 cache.
constexpr std::size_t kSeekLevelKeys = std::size_t{1} << 19;
/// Seeks per seek-timer rep.
constexpr std::size_t kSeeksPerRep = 100000;

/// Sorted distinct keys of one shape: "dense" ids, "random" 40-bit keys,
/// two dense runs 2^50 apart ("clustered"), or "geometric" gaps that grow
/// with the value (each 1/65536 of it).
std::vector<Value> SeekKeys(const std::string& shape, Rng* rng) {
  std::vector<Value> keys;
  keys.reserve(kSeekLevelKeys);
  Value x = 1;
  for (std::size_t i = 0; i < kSeekLevelKeys; ++i) {
    const auto iv = static_cast<Value>(i);
    if (shape == "dense") {
      keys.push_back(iv);
    } else if (shape == "random") {
      keys.push_back(static_cast<Value>(rng->Next() >> 24));
    } else if (shape == "clustered") {
      keys.push_back(i < kSeekLevelKeys / 2 ? iv : (Value{1} << 50) + iv);
    } else {
      keys.push_back(x);
      x += 1 + x / 65536;
    }
  }
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  return keys;
}

/// A seeded leapfrog walk over one trie level: each seek starts at the
/// previous answer and targets a key (or the value just below it) a
/// uniform 1..2*skip keys further on, restarting at the front at the end.
struct SeekWalk {
  TrieIndex trie;
  std::vector<TrieIndex::Range> windows;
  std::vector<Value> targets;
  std::size_t answer_sum = 0;  // sum of the std::lower_bound answers
};

SeekWalk MakeSeekWalk(const std::string& shape, std::size_t skip) {
  Rng rng(29);
  const std::vector<Value> keys = SeekKeys(shape, &rng);
  Relation r("K", 1);
  r.InsertFlat(keys, keys.size());
  SeekWalk walk{TrieIndex(r, {{0}}), {}, {}, 0};
  const std::size_t n = keys.size();
  std::size_t cursor = 0;
  while (walk.targets.size() < kSeeksPerRep) {
    const std::size_t k = cursor + 1 + rng.NextBelow(2 * skip);
    if (k >= n) {
      cursor = 0;
      continue;
    }
    const Value target = keys[k] - static_cast<Value>(rng.Next() & 1);
    walk.windows.push_back(TrieIndex::Range{cursor, n});
    walk.targets.push_back(target);
    cursor = static_cast<std::size_t>(
        std::lower_bound(keys.begin() + static_cast<std::ptrdiff_t>(cursor),
                         keys.end(), target) -
        keys.begin());
    walk.answer_sum += cursor;
  }
  return walk;
}

/// The walk of one seek/* timer, built on first use (PrintTables builds
/// them all, so no timer times a build).
const SeekWalk& CachedSeekWalk(const std::string& shape, std::size_t skip) {
  static std::map<std::pair<std::string, std::size_t>, SeekWalk> walks;
  auto it = walks.find({shape, skip});
  if (it == walks.end()) {
    it = walks.emplace(std::make_pair(shape, skip), MakeSeekWalk(shape, skip))
             .first;
  }
  return it->second;
}

/// One rep of a seek/* timer; checks every answer against std::lower_bound
/// through their sum.
void RunSeekWalk(const std::string& shape, std::size_t skip) {
  const SeekWalk& walk = CachedSeekWalk(shape, skip);
  std::size_t sum = 0;
  for (std::size_t i = 0; i < walk.targets.size(); ++i) {
    sum += walk.trie.SeekGE(0, walk.windows[i], walk.targets[i]);
  }
  CQB_CHECK(sum == walk.answer_sum);
}

const char* const kSeekShapes[] = {"dense", "random", "clustered",
                                   "geometric"};
const std::size_t kSeekSkips[] = {32, 4096};

Database ChainAdversary(int fanout) {
  // R: A->X fanout, S: X->B fan-in, T: B->Y fanout, U: Y->C fan-in.
  Database db;
  Relation* r = db.AddRelation("R", 2);
  Relation* s = db.AddRelation("S", 2);
  Relation* t = db.AddRelation("T", 2);
  Relation* u = db.AddRelation("U", 2);
  for (int i = 0; i < fanout; ++i) {
    r->Insert({0, i});
    s->Insert({i, 0});
    t->Insert({0, i});
    u->Insert({i, 0});
  }
  return db;
}

constexpr PlanKind kAllPlans[] = {PlanKind::kNaive, PlanKind::kJoinProject,
                                  PlanKind::kGenericJoin,
                                  PlanKind::kHybridYannakakis};

/// One row per plan, each measured against the exponent the caller picks
/// for it: `binary_exponent` caps the two binary-join plans,
/// `order.envelope_exponent` (the AGM exponent rho*(full join)) caps the
/// generic join -- executed under `order`, the same order the table header
/// prints -- and the hybrid, whose semi-join-reduced enumeration inherits
/// the same envelope.
void AddPlanRows(bench::Table* table, const std::string& instance,
                 const Query& q, const Database& db,
                 const Rational& binary_exponent,
                 const GenericJoinOrder& order) {
  BigInt rmax(static_cast<std::int64_t>(db.RMax(q).ValueOrDie()));
  for (PlanKind kind : kAllPlans) {
    const Rational& exponent = kind == PlanKind::kGenericJoin ||
                                       kind == PlanKind::kHybridYannakakis
                                   ? order.envelope_exponent
                                   : binary_exponent;
    BigInt cap = SizeBoundValue(rmax, exponent);
    EvalStats stats;
    auto result = kind == PlanKind::kGenericJoin
                      ? EvaluateGenericJoin(q, db, order.order, &stats)
                      : EvaluateQuery(q, db, kind, &stats);
    // The semi-join column makes the hybrid's reduction pass visible: an
    // abandoned pass used to read exactly like a clean one.
    const char* pass = "-";
    if (kind == PlanKind::kHybridYannakakis) {
      pass = stats.semijoin_pass_skipped
                 ? "skipped"
                 : (stats.semijoin_pass_ran ? "ran" : "off");
    }
    table->AddRow({instance, PlanKindName(kind),
                   bench::Num(stats.max_intermediate),
                   bench::Num(result->size()), cap.ToString(),
                   SatisfiesSizeBound(
                       BigInt(static_cast<std::int64_t>(
                           stats.max_intermediate)),
                       rmax, exponent)
                       ? "yes"
                       : "NO",
                   pass});
  }
}

void PrintTables() {
  std::cout << "E10: four join plans vs the paper's envelopes "
               "(Cor 4.8 / Prop 4.1 / Yannakakis)\n\n";

  auto chain = ParseQuery("Q(A,C) :- R(A,X), S(X,B), T(B,Y), U(Y,C).");
  auto chain_bound = ComputeSizeBound(*chain);
  auto chain_order = ChooseGenericJoinOrder(*chain);
  std::cout << "chain:    " << chain_order->ToString(*chain) << "\n";

  auto triangle = ParseQuery("S(X,Y,Z) :- R(X,Y), R(X,Z), R(Y,Z).");
  auto tri_bound = ComputeSizeBound(*triangle);
  auto tri_order = ChooseGenericJoinOrder(*triangle);
  std::cout << "triangle: " << tri_order->ToString(*triangle) << "\n";

  const Query& star = TriangleQuery();
  auto star_order = ChooseGenericJoinOrder(star);
  std::cout << "star:     " << star_order->ToString(star) << "\n\n";

  std::cout << "Chain adversary (binary plans capped at rmax^{C+1}, "
               "Cor 4.8; generic join\nat the AGM cap rmax^{rho*full}):\n";
  bench::Table table({"instance", "plan", "max intermediate", "output",
                      "envelope cap", "within", "semijoin"});
  for (int fanout : {10, 40, 100}) {
    AddPlanRows(&table, "chain/" + std::to_string(fanout), *chain,
                ChainAdversary(fanout), chain_bound->exponent + Rational(1),
                *chain_order);
  }
  table.Print();

  std::cout << "\nStar triangle: every plan measured against the AGM "
               "envelope rmax^{3/2}\n(= rmax^C here: all variables are in "
               "the head). Both binary plans overshoot\nit -- projection "
               "cannot help a full-head query -- while the generic join\n"
               "structurally cannot:\n";
  bench::Table star_table({"instance", "plan", "max intermediate", "output",
                           "envelope cap", "within", "semijoin"});
  for (int n : {30, 60, 120}) {
    AddPlanRows(&star_table, "star/" + std::to_string(n), star,
                StarTriangleDatabase(n), star_order->envelope_exponent,
                *star_order);
  }
  star_table.Print();

  std::cout << "\nWorst-case triangle inputs (Prop 4.5 databases; binary "
               "plans at rmax^{C+1},\ngeneric join at the AGM cap):\n";
  bench::Table tri({"instance", "plan", "max intermediate", "output",
                    "envelope cap", "within", "semijoin"});
  for (std::int64_t m : {4, 8, 16}) {
    auto db = BuildWorstCaseDatabase(*triangle, tri_bound->witness, m);
    AddPlanRows(&tri, "triangle-wc/" + std::to_string(m), *triangle, *db,
                tri_bound->exponent + Rational(1), *tri_order);
  }
  tri.Print();

  // Per-variable counters: what the executor actually did, depth by depth.
  std::cout << "\nGeneric-join per-variable counters (star/120, LP+tw "
               "chosen order):\n";
  bench::Table vars({"depth", "variable", "bindings", "seeks share"});
  {
    Database db = StarTriangleDatabase(120);
    EvalStats stats;
    auto result = EvaluateGenericJoin(star, db, star_order->order, &stats);
    (void)result;
    for (std::size_t d = 0; d < stats.intermediate_sizes.size(); ++d) {
      vars.AddRow({bench::Num(static_cast<int>(d)),
                   star.variable_name(star_order->order[d]),
                   bench::Num(stats.intermediate_sizes[d]),
                   d + 1 == stats.intermediate_sizes.size()
                       ? bench::Num(stats.intersection_seeks) + " total"
                       : "-"});
    }
  }
  vars.Print();

  // The triangle over churn's graph: the answer is empty, so the whole
  // evaluation is leapfrog seeks, most of them depth-1 seeks into the
  // 50,000-value first level of E(Y,Z).
  std::cout << "\nGeneric-join per-variable counters (bipartite circulant, "
            << kCirculantVertices << " vertices,\noffsets {1,3}, "
            << Bipartite50k().Find("E")->size()
            << " tuples, triangle-free; LP+tw chosen order):\n";
  bench::Table bipartite({"depth", "variable", "bindings", "seeks"});
  {
    EvalStats stats;
    auto result =
        EvaluateGenericJoin(star, Bipartite50k(), star_order->order, &stats);
    CQB_CHECK(result->empty());
    for (std::size_t d = 0; d < stats.intermediate_sizes.size(); ++d) {
      bipartite.AddRow({bench::Num(static_cast<int>(d)),
                        star.variable_name(star_order->order[d]),
                        bench::Num(stats.intermediate_sizes[d]),
                        d + 1 == stats.intermediate_sizes.size()
                            ? bench::Num(stats.intersection_seeks) + " total"
                            : "-"});
    }
  }
  bipartite.Print();
  // Warm the timer's context here, so its trie builds are not timed.
  CQB_CHECK(EvaluateQuery(TriangleQuery(), Bipartite50k(),
                          PlanKind::kGenericJoin, &Bipartite50kCtx(), nullptr)
                ->empty());
  for (const char* shape : kSeekShapes) {
    for (std::size_t skip : kSeekSkips) CachedSeekWalk(shape, skip);
  }

  std::cout << "\nShape check: naive intermediates scale with fanout^2 on\n"
               "the chain, where the join-project plan stays linear within\n"
               "its rmax^{C+1} budget (Cor 4.8); on the star both binary\n"
               "plans overshoot the AGM cap rmax^{3/2}; the generic join\n"
               "stays within rmax^{rho*(full)} on every instance -- it\n"
               "executes inside the bound the paper proves -- and the\n"
               "hybrid Yannakakis plan (semi-join reduction over the\n"
               "certified decomposition, then generic join) can only\n"
               "shrink those intermediates further.\n\n";
}

CQB_BENCH_TIMED("chain100/naive", [] {
  auto q = ParseQuery("Q(A,C) :- R(A,X), S(X,B), T(B,Y), U(Y,C).");
  Database db = ChainAdversary(100);
  EvaluateQuery(*q, db, PlanKind::kNaive).ValueOrDie();
})

CQB_BENCH_TIMED("chain100/join_project", [] {
  auto q = ParseQuery("Q(A,C) :- R(A,X), S(X,B), T(B,Y), U(Y,C).");
  Database db = ChainAdversary(100);
  EvaluateQuery(*q, db, PlanKind::kJoinProject).ValueOrDie();
})

CQB_BENCH_TIMED("chain100/generic_join", [] {
  auto q = ParseQuery("Q(A,C) :- R(A,X), S(X,B), T(B,Y), U(Y,C).");
  Database db = ChainAdversary(100);
  EvaluateQuery(*q, db, PlanKind::kGenericJoin).ValueOrDie();
})

CQB_BENCH_TIMED("star120/naive", [] {
  auto q = ParseQuery("T(X,Y,Z) :- E(X,Y), E(Y,Z), E(Z,X).");
  Database db = StarTriangleDatabase(120);
  EvaluateQuery(*q, db, PlanKind::kNaive).ValueOrDie();
})

CQB_BENCH_TIMED("star120/generic_join", [] {
  auto q = ParseQuery("T(X,Y,Z) :- E(X,Y), E(Y,Z), E(Z,X).");
  Database db = StarTriangleDatabase(120);
  EvaluateQuery(*q, db, PlanKind::kGenericJoin).ValueOrDie();
})

// Warm context: both tries are cache hits, so this times the leapfrog.
CQB_BENCH_TIMED("bipartite50k/generic_join", [] {
  CQB_CHECK(EvaluateQuery(TriangleQuery(), Bipartite50k(),
                          PlanKind::kGenericJoin, &Bipartite50kCtx(), nullptr)
                ->empty());
})

// 10^5 leapfrog seeks per rep over 2^19 keys of each shape, mean skip
// ~32 and ~4096 keys.
CQB_BENCH_TIMED("seek/dense/skip32", [] { RunSeekWalk("dense", 32); })
CQB_BENCH_TIMED("seek/dense/skip4096", [] { RunSeekWalk("dense", 4096); })
CQB_BENCH_TIMED("seek/random/skip32", [] { RunSeekWalk("random", 32); })
CQB_BENCH_TIMED("seek/random/skip4096", [] { RunSeekWalk("random", 4096); })
CQB_BENCH_TIMED("seek/clustered/skip32", [] { RunSeekWalk("clustered", 32); })
CQB_BENCH_TIMED("seek/clustered/skip4096",
                [] { RunSeekWalk("clustered", 4096); })
CQB_BENCH_TIMED("seek/geometric/skip32", [] { RunSeekWalk("geometric", 32); })
CQB_BENCH_TIMED("seek/geometric/skip4096",
                [] { RunSeekWalk("geometric", 4096); })

CQB_BENCH_TIMED("triangle_wc16/generic_join", [] {
  auto q = ParseQuery("S(X,Y,Z) :- R(X,Y), R(X,Z), R(Y,Z).");
  auto bound = ComputeSizeBound(*q);
  auto db = BuildWorstCaseDatabase(*q, bound->witness, 16);
  EvaluateQuery(*q, *db, PlanKind::kGenericJoin).ValueOrDie();
})

void BM_ChainNaive(benchmark::State& state) {
  auto q = ParseQuery("Q(A,C) :- R(A,X), S(X,B), T(B,Y), U(Y,C).");
  Database db = ChainAdversary(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    auto r = EvaluateQuery(*q, db, PlanKind::kNaive);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_ChainNaive)->Arg(20)->Arg(60)->Arg(120);

void BM_ChainJoinProject(benchmark::State& state) {
  auto q = ParseQuery("Q(A,C) :- R(A,X), S(X,B), T(B,Y), U(Y,C).");
  Database db = ChainAdversary(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    auto r = EvaluateQuery(*q, db, PlanKind::kJoinProject);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_ChainJoinProject)->Arg(20)->Arg(60)->Arg(120);

void BM_ChainGenericJoin(benchmark::State& state) {
  auto q = ParseQuery("Q(A,C) :- R(A,X), S(X,B), T(B,Y), U(Y,C).");
  Database db = ChainAdversary(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    auto r = EvaluateQuery(*q, db, PlanKind::kGenericJoin);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_ChainGenericJoin)->Arg(20)->Arg(60)->Arg(120);

void BM_TriangleJoinProject(benchmark::State& state) {
  auto q = ParseQuery("S(X,Y,Z) :- R(X,Y), R(X,Z), R(Y,Z).");
  auto bound = ComputeSizeBound(*q);
  auto db = BuildWorstCaseDatabase(*q, bound->witness, state.range(0));
  for (auto _ : state) {
    auto r = EvaluateQuery(*q, *db, PlanKind::kJoinProject);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_TriangleJoinProject)->Arg(8)->Arg(16);

void BM_TriangleGenericJoin(benchmark::State& state) {
  auto q = ParseQuery("S(X,Y,Z) :- R(X,Y), R(X,Z), R(Y,Z).");
  auto bound = ComputeSizeBound(*q);
  auto db = BuildWorstCaseDatabase(*q, bound->witness, state.range(0));
  for (auto _ : state) {
    auto r = EvaluateQuery(*q, *db, PlanKind::kGenericJoin);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_TriangleGenericJoin)->Arg(8)->Arg(16);

}  // namespace
}  // namespace cqbounds

CQB_BENCH_MAIN(cqbounds::PrintTables)
