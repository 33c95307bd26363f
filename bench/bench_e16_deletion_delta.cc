// E16 -- tombstone deletion deltas: remove-then-re-evaluate on a warm
// context vs re-reducing and rebuilding from scratch.
//
// E14 measured the append side of incremental evaluation; this experiment
// measures removals. A warm 10^4-tuple instance loses k tuples (k = 1,
// 10, 100) and re-evaluates. The tombstone machinery must serve every
// refresh in O(delta): the store tombstones instead of compacting, the
// journal names the removed rows, the trie tier *unpatches* the cached
// tries (subtracting the removed keys' support counts), and the hybrid's
// counting delta pass kills newly unsupported tuples -- and revives them
// when support returns -- without re-reducing the database. The headline
// invariants are asserted in-bench: after a single-tuple Remove on the
// warm 10^4-tuple instance, trie_rebuilds == 0 (every refresh is an
// unpatch) and the semi-join pass, when it runs, runs as a delta pass
// (zero full re-reduces). Every hybrid step is cross-checked against a
// from-scratch context: identical output and a dangling census equal to
// the cold run's drop count.
//
// A third table fixes the window at 100 appends + 100 removals and grows
// the base from 10^4 to 10^6 rows: the delta pass's rows visited
// (EvalStats::semijoin_rows_visited) and the trie splices' keys compared
// (TrieBuildStats::delta_keys_compared) must not grow with it -- the O(delta)
// claim as a deterministic count, asserted in-bench within 2x.
//
// The tables are deterministic; wall times live in the timed sections,
// pairing each warm removal refresh with its from-scratch contrast.

#include <deque>
#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "cq/parser.h"
#include "relation/eval_context.h"
#include "relation/evaluate.h"
#include "relation/trie_index.h"

namespace cqbounds {
namespace {

Query TriangleQuery() {
  return ParseQuery("T(X,Y,Z) :- E(X,Y), E(Y,Z), E(Z,X).").ValueOrDie();
}

Query ChainQuery() {
  return ParseQuery("Q(X,Z) :- R(X,Y), S(Y,Z).").ValueOrDie();
}

/// The E13/E14 instance: a symmetric circulant graph, every vertex
/// adjacent to its neighbours at offsets 1, 2, 3 in both directions --
/// 6n edge tuples. n = 1667 gives the 10^4-tuple warm instance.
constexpr int kCycleN = 1667;

void FillChordedCycle(Relation* e, int n) {
  for (int i = 0; i < n; ++i) {
    for (int d = 1; d <= 3; ++d) {
      e->Insert({i, (i + d) % n});
      e->Insert({(i + d) % n, i});
    }
  }
}

Database TriangleDb() {
  Database db;
  FillChordedCycle(db.AddRelation("E", 2), kCycleN);
  return db;
}

Database ChainDb() {
  Database db;
  FillChordedCycle(db.AddRelation("R", 2), kCycleN);
  FillChordedCycle(db.AddRelation("S", 2), kCycleN);
  return db;
}

/// Fresh vertex ids far outside the cycle, never repeated.
Value FreshVertex() {
  static Value next = 2000000;
  return next++;
}

// Timed-section fixtures (built before the timers run, E13-style).
Query& TriQ() {
  static Query q = TriangleQuery();
  return q;
}
Database& TriDb() {
  static Database db = TriangleDb();
  return db;
}
EvalContext& TriCtx() {
  static EvalContext ctx(TriDb());
  return ctx;
}
Query& ChainQ() {
  static Query q = ChainQuery();
  return q;
}
Database& ChDb() {
  static Database db = ChainDb();
  return db;
}
EvalContext& ChCtx() {
  static EvalContext ctx(ChDb());
  return ctx;
}

void PrepareTimerFixtures() {
  EvaluateQuery(TriQ(), TriDb(), PlanKind::kGenericJoin, &TriCtx(), nullptr)
      .ValueOrDie();
  EvaluateQuery(ChainQ(), ChDb(), PlanKind::kHybridYannakakis, &ChCtx(),
                nullptr)
      .ValueOrDie();
}

// --- O(delta) at a fixed window across base sizes ---------------------------

/// A selective chain R(X, Y), S(Y, Z) of n rows each: R row i is
/// (i, i / 2), S row i is (n/2 - 100 + i / 2, i), so only the 100 Y values
/// in [n/2 - 100, n/2) join and every other row dangles.
Database SelectiveChainDb(int n) {
  Database db;
  std::vector<Value> r;
  std::vector<Value> s;
  r.reserve(2 * static_cast<std::size_t>(n));
  s.reserve(2 * static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    r.insert(r.end(), {i, i / 2});
    s.insert(s.end(), {n / 2 - 100 + i / 2, i});
  }
  db.AddRelation("R", 2)->InsertFlat(r, static_cast<std::size_t>(n));
  db.AddRelation("S", 2)->InsertFlat(s, static_cast<std::size_t>(n));
  return db;
}

/// Window w on R: 100 removals (the 20 rows behind 10 joining Y values,
/// whose S partners die, plus 80 dangling rows) and 100 appends (20 rows on
/// 10 Y values S holds beyond the join block, whose S rows revive, plus 80
/// dangling rows). Its size does not depend on n.
void ApplyWindow(Relation* r, int n, int w) {
  const Value fresh_x = 4000000 + 1000 * w;
  for (int j = 0; j < 10; ++j) {
    const Value y = n / 2 - 100 + 10 * w + j;
    CQB_CHECK(r->Remove({2 * y, y}));
    CQB_CHECK(r->Remove({2 * y + 1, y}));
  }
  for (int j = 0; j < 80; ++j) {
    const Value x = 200 * w + j;
    CQB_CHECK(r->Remove({x, x / 2}));
  }
  for (int j = 0; j < 20; ++j) {
    CQB_CHECK(r->Insert({fresh_x + j, n / 2 + 10 * w + j / 2}));
  }
  for (int j = 0; j < 80; ++j) CQB_CHECK(r->Insert({fresh_x + 100 + j, j}));
}

/// The two refresh layers' work counters at a fixed window of 100 appends
/// + 100 removals, as the base grows 100x. A warm-up window first builds
/// the delta pass's key indexes; the measured window then reads only its
/// journal rows, the rows on the chains of the keys that vanished or came
/// back, and the appended rows it links in, and the trie splices locate
/// only the delta's keys. Both columns must stay flat.
void PrintScalingTable() {
  std::cout << "Refresh work at a fixed window (100 appends + 100 removals "
               "on R) as the\nbase grows: the hybrid's delta pass and the "
               "generic join's trie unpatch\non the selective chain, one "
               "warm context, measured on the window after\na warm-up "
               "window:\n";
  bench::Table table({"base rows", "window", "killed", "revived",
                      "rows visited", "keys compared"});
  std::size_t first_visited = 0;
  std::uint64_t first_compared = 0;
  for (int n : {10000, 100000, 1000000}) {
    Database db = SelectiveChainDb(n);
    Relation* r = db.FindMutable("R");
    const Query q = ChainQuery();
    EvalContext ctx(db);
    EvalStats hybrid;
    EvalStats generic;
    auto refresh = [&] {
      EvaluateQuery(q, db, PlanKind::kHybridYannakakis, &ctx, &hybrid)
          .ValueOrDie();
      EvaluateQuery(q, db, PlanKind::kGenericJoin, &ctx, &generic)
          .ValueOrDie();
    };
    refresh();
    ApplyWindow(r, n, 0);
    refresh();
    ApplyWindow(r, n, 1);
    const std::uint64_t before = GetTrieBuildStats().delta_keys_compared;
    refresh();
    const std::uint64_t compared =
        GetTrieBuildStats().delta_keys_compared - before;
    CQB_CHECK(hybrid.semijoin_delta_pass && r->compactions() == 0);
    CQB_CHECK(generic.trie_unpatches == 1 && generic.trie_rebuilds == 0);
    if (first_visited == 0) {
      first_visited = hybrid.semijoin_rows_visited;
      first_compared = compared;
    }
    // The claim, asserted where it is measured: flat within 2x.
    CQB_CHECK(hybrid.semijoin_rows_visited <= 2 * first_visited);
    CQB_CHECK(compared <= 2 * first_compared);
    table.AddRow({bench::Num(static_cast<std::size_t>(n)), "100+100",
                  bench::Num(hybrid.semijoin_killed_tuples),
                  bench::Num(hybrid.semijoin_revived_tuples),
                  bench::Num(hybrid.semijoin_rows_visited),
                  bench::Num(static_cast<std::size_t>(compared))});
  }
  table.Print();
  std::cout << "\nShape check: rows visited and keys compared do not grow "
               "with the base --\nthe delta pass finds the rows a key "
               "transition touches through its\nkey index, and the trie "
               "splice copies untouched runs without comparing\nthem.\n\n";
}

void PrintTables() {
  std::cout << "E16: tombstone deletion deltas -- remove-then-re-evaluate "
               "on a warm context\n\n";

  // --- Generic join: the unpatch path on the trie tier -------------------
  std::cout << "Trie-tier refresh after k removed tuples (triangles on the "
               "10^4-edge\nchorded cycle, one warm context throughout; the "
               "removed edges connect\nfresh isolated vertices, so the "
               "output is invariant):\n";
  bench::Table trie_table({"step", "trie unpatches", "trie rebuilds",
                           "delta tuples", "compactions", "output"});
  {
    Query q = TriangleQuery();
    Database db = TriangleDb();
    EvalContext ctx(db);
    Relation* e = db.FindMutable("E");
    // A pool of removable fresh-vertex edges, appended up front in one
    // batch: removing them never changes the triangle count, and 111 dead
    // rows stay far below the store's quarter-dead compaction threshold.
    std::vector<Tuple> pool;
    for (int i = 0; i < 111; ++i) {
      pool.push_back({FreshVertex(), FreshVertex()});
      CQB_CHECK(e->Insert(pool.back()));
    }
    std::size_t next_removable = 0;
    auto row = [&](const char* step, const EvalStats& stats) {
      trie_table.AddRow({step, bench::Num(stats.trie_unpatches),
                         bench::Num(stats.trie_rebuilds),
                         bench::Num(stats.delta_tuples_processed),
                         bench::Num(e->compactions()),
                         bench::Num(stats.output_size)});
    };

    EvalStats stats;
    EvaluateQuery(q, db, PlanKind::kGenericJoin, &ctx, &stats).ValueOrDie();
    CQB_CHECK(stats.trie_rebuilds >= 1 && stats.trie_unpatches == 0);
    const std::size_t base_output = stats.output_size;
    row("cold build", stats);

    for (int k : {1, 10, 100}) {
      for (int i = 0; i < k; ++i) {
        CQB_CHECK(e->Remove(pool[next_removable++]));
      }
      EvaluateQuery(q, db, PlanKind::kGenericJoin, &ctx, &stats).ValueOrDie();
      // The experiment's headline invariant, asserted where it is
      // measured: a small removal from a warm 10^4-tuple instance is a
      // tombstone served by the unpatch path -- it never compacts and
      // never rebuilds.
      CQB_CHECK(e->compactions() == 0);
      CQB_CHECK(stats.trie_rebuilds == 0);
      CQB_CHECK(stats.trie_unpatches >= 1);
      CQB_CHECK(stats.delta_tuples_processed >=
                static_cast<std::size_t>(k));
      CQB_CHECK(stats.output_size == base_output);
      row(k == 1 ? "remove 1" : (k == 10 ? "remove 10" : "remove 100"),
          stats);
    }
  }
  trie_table.Print();

  std::cout << "\nShape check: every remove row refreshes the stale layouts "
               "by unpatching\n(rebuilds AND compactions stay 0) and touches "
               "k delta tuples per layout.\nOutput is constant down the "
               "table -- the removed fresh-vertex edges closed\nno "
               "triangle.\n\n";

  // --- Hybrid: kills and revivals through the counting delta pass --------
  std::cout << "Hybrid counting delta pass (R join S, each the 10^4-edge "
               "cycle; removing\nall 6 S tuples leaving vertex 0 kills the "
               "6 R tuples entering it, and\nre-adding one support tuple "
               "revives all 6):\n";
  bench::Table hybrid_table({"step", "pass", "killed", "revived", "dangling",
                             "trie rebuilds", "output"});
  {
    Query q = ChainQuery();
    Database db = ChainDb();
    EvalContext ctx(db);
    Relation* s = db.FindMutable("S");
    auto row = [&](const char* step, const char* pass,
                   const EvalStats& stats) {
      hybrid_table.AddRow({step, pass, bench::Num(stats.semijoin_killed_tuples),
                           bench::Num(stats.semijoin_revived_tuples),
                           bench::Num(stats.semijoin_dangling_tuples),
                           bench::Num(stats.trie_rebuilds),
                           bench::Num(stats.output_size)});
    };
    // From-scratch cross-check: the warm result and the warm dangling
    // census must match a cold context's full re-reduction exactly.
    auto cross_check = [&](const EvalStats& warm_stats,
                           const Relation& warm_result) {
      EvalContext cold(db);
      EvalStats cold_stats;
      auto want = EvaluateQuery(q, db, PlanKind::kHybridYannakakis, &cold,
                                &cold_stats)
                      .ValueOrDie();
      CQB_CHECK(want.size() == warm_result.size());
      CQB_CHECK(warm_stats.semijoin_dangling_tuples ==
                cold_stats.semijoin_dropped_tuples);
    };

    EvalStats stats;
    auto result = EvaluateQuery(q, db, PlanKind::kHybridYannakakis, &ctx,
                                &stats)
                      .ValueOrDie();
    CQB_CHECK(stats.semijoin_pass_ran && !stats.semijoin_delta_pass);
    CQB_CHECK(stats.semijoin_dropped_tuples == 0);
    const std::size_t base_output = result.size();
    row("cold full pass", "full", stats);

    // Kill: drop every S tuple (0, w) -- the sole supports of the 6 R
    // tuples (x, 0). 6 dead of 10002 physical rows: tombstones, far below
    // the compaction threshold.
    std::vector<Tuple> support;
    for (int d = 1; d <= 3; ++d) {
      support.push_back({0, d});
      support.push_back({0, kCycleN - d});
    }
    for (const Tuple& t : support) CQB_CHECK(s->Remove(t));
    CQB_CHECK(s->compactions() == 0);
    result = EvaluateQuery(q, db, PlanKind::kHybridYannakakis, &ctx, &stats)
                 .ValueOrDie();
    // Zero full re-reduces: the pass ran as a delta pass and killed
    // exactly the 6 R tuples whose semi-join key lost all support.
    CQB_CHECK(stats.semijoin_pass_ran && stats.semijoin_delta_pass);
    CQB_CHECK(stats.semijoin_killed_tuples == 6);
    CQB_CHECK(stats.semijoin_dangling_tuples == 6);
    CQB_CHECK(stats.trie_rebuilds == 0);
    cross_check(stats, result);
    row("remove 6 supports", "delta", stats);

    // Unchanged generation vector: the pass is skipped, the dangling
    // census persists via the cached dirty state.
    result = EvaluateQuery(q, db, PlanKind::kHybridYannakakis, &ctx, &stats)
                 .ValueOrDie();
    CQB_CHECK(stats.semijoin_pass_skipped);
    CQB_CHECK(stats.semijoin_dangling_tuples == 6);
    row("re-evaluate", "skip", stats);

    // Revive: one appended support tuple flips key 0 back to supported;
    // all 6 previously killed R tuples lose their drop steps.
    CQB_CHECK(s->Insert({0, 1}));
    result = EvaluateQuery(q, db, PlanKind::kHybridYannakakis, &ctx, &stats)
                 .ValueOrDie();
    CQB_CHECK(stats.semijoin_pass_ran && stats.semijoin_delta_pass);
    CQB_CHECK(stats.semijoin_revived_tuples == 6);
    CQB_CHECK(stats.semijoin_dangling_tuples == 0);
    CQB_CHECK(stats.trie_rebuilds == 0);
    cross_check(stats, result);
    row("re-add 1 support", "delta", stats);

    // Revival-heavy churn: repeat the kill/revive cycle on distinct
    // vertices in one mixed window each -- remove a vertex's supports AND
    // re-add the previous vertex's in the same generation window.
    for (int v = 1; v <= 3; ++v) {
      for (int d = 1; d <= 3; ++d) {
        CQB_CHECK(s->Remove({v, (v + d) % kCycleN}));
        CQB_CHECK(s->Remove({v, (v - d + kCycleN) % kCycleN}));
      }
      if (v > 1) CQB_CHECK(s->Insert({v - 1, v}));
      result =
          EvaluateQuery(q, db, PlanKind::kHybridYannakakis, &ctx, &stats)
              .ValueOrDie();
      CQB_CHECK(stats.semijoin_pass_ran && stats.semijoin_delta_pass);
      CQB_CHECK(stats.semijoin_killed_tuples == 6);
      CQB_CHECK(stats.semijoin_revived_tuples == (v > 1 ? 6u : 0u));
      CQB_CHECK(stats.trie_rebuilds == 0);
      cross_check(stats, result);
      row(v == 1 ? "churn v=1 (kill)" :
          (v == 2 ? "churn v=2 (kill+revive)" : "churn v=3 (kill+revive)"),
          "delta", stats);
    }
    CQB_CHECK(result.size() < base_output);
  }
  hybrid_table.Print();

  std::cout << "\nShape check: every mutation row runs as a *delta* pass "
               "(zero full\nre-reduces, zero trie rebuilds): kills land "
               "when a key's support count\nreaches zero, revivals when it "
               "returns, and after each step the dangling\ncensus equals "
               "the drop count a from-scratch context computes -- the\n"
               "cross-check evaluated one inline per row.\n\n";

  PrintScalingTable();

  PrepareTimerFixtures();
}

// Warm remove-then-re-evaluate: each rep inserts one fresh isolated edge
// and removes the one inserted two reps earlier (steady-state mixed
// window: 1 append + 1 tombstone per refresh) -- the unpatch path.
CQB_BENCH_TIMED("triangle10k/remove1+unpatch", [] {
  static std::deque<Tuple> live;
  Relation* e = TriDb().FindMutable("E");
  live.push_back({FreshVertex(), FreshVertex()});
  e->Insert(live.back());
  if (live.size() > 2) {
    e->Remove(live.front());
    live.pop_front();
  }
  EvaluateQuery(TriQ(), TriDb(), PlanKind::kGenericJoin, &TriCtx(), nullptr)
      .ValueOrDie();
})

// From-scratch contrast: the same mutation, evaluated through a cold
// context (every trie rebuilt over the full relation).
CQB_BENCH_TIMED("triangle10k/remove1+rebuild", [] {
  static std::deque<Tuple> live;
  Relation* e = TriDb().FindMutable("E");
  live.push_back({FreshVertex(), FreshVertex()});
  e->Insert(live.back());
  if (live.size() > 2) {
    e->Remove(live.front());
    live.pop_front();
  }
  EvalContext cold(TriDb());
  EvaluateQuery(TriQ(), TriDb(), PlanKind::kGenericJoin, &cold, nullptr)
      .ValueOrDie();
})

// Hybrid delta vs full re-reduce: the same steady-state churn (append one
// hub tuple, tombstone an older one) extended through the counting delta
// pass on the warm context ...
CQB_BENCH_TIMED("chain10k/remove1+delta-pass", [] {
  static std::deque<Tuple> live;
  Relation* r = ChDb().FindMutable("R");
  live.push_back({FreshVertex(), 0});
  r->Insert(live.back());
  if (live.size() > 2) {
    r->Remove(live.front());
    live.pop_front();
  }
  EvaluateQuery(ChainQ(), ChDb(), PlanKind::kHybridYannakakis, &ChCtx(),
                nullptr)
      .ValueOrDie();
})

// ... vs re-reduced from nothing by a cold context.
CQB_BENCH_TIMED("chain10k/remove1+full-reduce", [] {
  static std::deque<Tuple> live;
  Relation* r = ChDb().FindMutable("R");
  live.push_back({FreshVertex(), 0});
  r->Insert(live.back());
  if (live.size() > 2) {
    r->Remove(live.front());
    live.pop_front();
  }
  EvalContext cold(ChDb());
  EvaluateQuery(ChainQ(), ChDb(), PlanKind::kHybridYannakakis, &cold,
                nullptr)
      .ValueOrDie();
})

void BM_DeltaRemoveEval(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  std::vector<Tuple> prev;
  for (auto _ : state) {
    Relation* e = TriDb().FindMutable("E");
    std::vector<Tuple> fresh;
    for (int i = 0; i < k; ++i) {
      fresh.push_back({FreshVertex(), FreshVertex()});
      e->Insert(fresh.back());
    }
    for (const Tuple& t : prev) e->Remove(t);
    prev = std::move(fresh);
    auto r = EvaluateQuery(TriQ(), TriDb(), PlanKind::kGenericJoin, &TriCtx(),
                           nullptr);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_DeltaRemoveEval)->Arg(1)->Arg(10)->Arg(100);

}  // namespace
}  // namespace cqbounds

CQB_BENCH_MAIN(cqbounds::PrintTables)
