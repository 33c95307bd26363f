// E15 -- columnar storage at scale: dictionary-encoded ingestion, radix
// trie builds, and a warm 10^6-tuple join.
//
// The storage rewrite (relation/column_store.h) holds relations as
// contiguous uint32_t code columns behind a shared per-store dictionary,
// with an open-addressing row index instead of a shadow tuple set. This
// experiment exercises the three paths that rewrite exists for, at 10^6
// tuples on one deterministic instance (the successor cycle i -> i+1):
//
//   1. bulk ingestion: InsertFlat takes row-major values with one dedup
//      pass and one journal bump -- the tables feed every edge twice and
//      check exactly half the candidates land;
//   2. trie construction: the LSD radix sort reads packed keys straight
//      off the columns. The headline invariant is asserted in-bench where
//      it is measured: across the 10^6-row scratch build and a patch
//      build, TrieBuildStats::tuple_materializations does not move -- no
//      per-tuple Tuple object is ever heap-allocated on the radix or merge
//      paths;
//   3. evaluation: the two-atom chain join over the cycle produces exactly
//      10^6 bindings through a warm context (cache hits, zero rebuilds).
//
// Wall times live in the timed sections: per-tuple insert loop vs one
// InsertFlat call at 10^6, the 10^6-row radix build, the warm join, and
// the text layer -- reading and writing a ~3x10^5-tuple database in the
// plain-text format (relation/text_io.h).

#include <cstddef>
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "cq/parser.h"
#include "relation/eval_context.h"
#include "relation/evaluate.h"
#include "relation/text_io.h"
#include "relation/trie_index.h"
#include "util/rng.h"

namespace cqbounds {
namespace {

constexpr std::size_t kScale = 1000000;

/// Row-major successor-cycle edges (i, (i+1) % n), each edge emitted
/// `copies` times -- the duplicate factor the single dedup pass must absorb.
std::vector<Value> CycleFlat(std::size_t n, int copies) {
  std::vector<Value> flat;
  flat.reserve(n * 2 * static_cast<std::size_t>(copies));
  for (std::size_t i = 0; i < n; ++i) {
    for (int c = 0; c < copies; ++c) {
      flat.push_back(static_cast<Value>(i));
      flat.push_back(static_cast<Value>((i + 1) % n));
    }
  }
  return flat;
}

Query ChainQuery() {
  return ParseQuery("Q(X,Z) :- E(X,Y), E(Y,Z).").ValueOrDie();
}

// Timed-section fixtures (built once, before the timers run).
std::vector<Value>& FlatEdges() {
  static std::vector<Value> flat = CycleFlat(kScale, 1);
  return flat;
}
Database& ChainDb() {
  static Database db = [] {
    Database d;
    d.AddRelation("E", 2)->InsertFlat(FlatEdges(), kScale);
    return d;
  }();
  return db;
}
Query& ChainQ() {
  static Query q = ChainQuery();
  return q;
}
EvalContext& ChainCtx() {
  static EvalContext ctx(ChainDb());
  return ctx;
}

/// A seeded ~3x10^5-tuple database with the spelling mix of a loaded
/// graph file: four binary relations over decimal vertex labels (1-5
/// digits, ~8x10^4 distinct spellings), tuples in seeded order.
Database& Text300kDb() {
  static Database db = [] {
    Database d;
    Rng rng(15);
    const auto fill = [&](const char* name, std::size_t rows,
                          std::uint64_t first_base, std::uint64_t domain) {
      std::vector<Value> flat;
      flat.reserve(2 * rows);
      for (std::size_t i = 0; i < rows; ++i) {
        for (std::uint64_t base : {first_base, std::uint64_t{0}}) {
          flat.push_back(d.value_pool()->Intern(
              std::to_string(base + rng.NextBelow(domain))));
        }
      }
      d.AddRelation(name, 2)->InsertFlat(flat, rows);
    };
    fill("E", 100000, 0, 25000);
    fill("R", 80000, 0, 40000);
    fill("S", 80000, 40000, 40000);
    fill("P", 27000, 0, 30000);
    return d;
  }();
  return db;
}
const std::string& Text300k() {
  static const std::string text =
      WriteDatabaseTextToString(Text300kDb()).ValueOrDie();
  return text;
}

void PrintTables() {
  std::cout << "E15: columnar storage at scale -- bulk ingestion, radix trie "
               "builds, warm join\n\n";

  // --- Bulk ingestion ------------------------------------------------------
  std::cout << "InsertFlat bulk ingestion of the successor cycle, every edge "
               "fed twice\n(one dedup pass, one journal bump of exactly the "
               "rows added):\n";
  bench::Table ingest({"rows fed", "rows added", "generation", "dict values"});
  for (std::size_t n : {kScale / 100, kScale / 10, kScale}) {
    Relation r("E", 2);
    const std::vector<Value> flat = CycleFlat(n, 2);
    const std::size_t added = r.InsertFlat(flat, 2 * n);
    CQB_CHECK(added == n);                   // half the candidates were dupes
    CQB_CHECK(r.generation() == n);          // one bump of `added`
    CQB_CHECK(r.store().dict().size() == n);  // values 0..n-1
    ingest.AddRow({bench::Num(2 * n), bench::Num(added),
                   bench::Num(static_cast<std::size_t>(r.generation())),
                   bench::Num(r.store().dict().size())});
  }
  ingest.Print();

  // --- Radix trie construction --------------------------------------------
  std::cout << "\nTrie builds over the 10^6-row store (radix path from "
               "scratch, merge path\nfor a 1-row patch). 'materialized' is "
               "the per-tuple Tuple-allocation\ntripwire -- zero by design "
               "on both columnar paths:\n";
  bench::Table trie_table({"build", "keys", "radix builds", "merge builds",
                           "materialized"});
  {
    Relation* e = ChainDb().FindMutable("E");
    const TrieBuildStats t0 = GetTrieBuildStats();
    TrieIndex scratch(*e, {{0}, {1}});
    const TrieBuildStats t1 = GetTrieBuildStats();
    CQB_CHECK(scratch.num_tuples() == kScale);
    CQB_CHECK(t1.radix_builds == t0.radix_builds + 1);
    CQB_CHECK(t1.merge_builds == t0.merge_builds);
    // The acceptance invariant: a 10^6-tuple radix build heap-allocates no
    // per-tuple Tuple objects.
    CQB_CHECK(t1.tuple_materializations == t0.tuple_materializations);
    trie_table.AddRow({"scratch 10^6", bench::Num(scratch.num_tuples()),
                       bench::Num(static_cast<std::size_t>(
                           t1.radix_builds - t0.radix_builds)),
                       bench::Num(static_cast<std::size_t>(
                           t1.merge_builds - t0.merge_builds)),
                       bench::Num(static_cast<std::size_t>(
                           t1.tuple_materializations -
                           t0.tuple_materializations))});

    // One appended row (an isolated edge: it extends no cycle path, so the
    // join table below keeps its exact output count), named by the journal
    // and spliced in by the delta constructor (O(k log n) plus one bulk
    // copy) --
    // still zero materializations.
    CQB_CHECK(e->Insert({2000000, 2000001}));
    Relation::DeltaSet delta;
    CQB_CHECK(e->DeltasSince(kScale, &delta));
    CQB_CHECK(delta.appended_rows.size() == 1 && delta.removed_rows.empty());
    RowView appended(&e->store());
    appended.rows = std::move(delta.appended_rows);
    TrieIndex patched(scratch, appended, RowView(&e->store()), {{0}, {1}});
    const TrieBuildStats t2 = GetTrieBuildStats();
    CQB_CHECK(patched.num_tuples() == kScale + 1);
    CQB_CHECK(t2.merge_builds == t1.merge_builds + 1);
    CQB_CHECK(t2.radix_builds == t1.radix_builds);
    CQB_CHECK(t2.tuple_materializations == t1.tuple_materializations);
    trie_table.AddRow({"patch +1", bench::Num(patched.num_tuples()),
                       bench::Num(static_cast<std::size_t>(
                           t2.radix_builds - t1.radix_builds)),
                       bench::Num(static_cast<std::size_t>(
                           t2.merge_builds - t1.merge_builds)),
                       bench::Num(static_cast<std::size_t>(
                           t2.tuple_materializations -
                           t1.tuple_materializations))});
  }
  trie_table.Print();

  // --- Warm join -----------------------------------------------------------
  std::cout << "\nChain join Q(X,Z) :- E(X,Y), E(Y,Z) over the 10^6-edge "
               "cycle (+1 isolated\nedge): cold pass builds both layouts, "
               "warm pass serves them from cache:\n";
  bench::Table join_table({"pass", "indexed", "rebuilds", "cache hits",
                           "output"});
  {
    EvalStats stats;
    EvaluateQuery(ChainQ(), ChainDb(), PlanKind::kGenericJoin, &ChainCtx(),
                  &stats)
        .ValueOrDie();
    CQB_CHECK(stats.output_size == kScale);  // (i, i+2) per cycle vertex
    CQB_CHECK(stats.trie_rebuilds == 2);
    join_table.AddRow({"cold", bench::Num(stats.indexed_tuples),
                       bench::Num(stats.trie_rebuilds),
                       bench::Num(stats.trie_cache_hits),
                       bench::Num(stats.output_size)});

    EvaluateQuery(ChainQ(), ChainDb(), PlanKind::kGenericJoin, &ChainCtx(),
                  &stats)
        .ValueOrDie();
    CQB_CHECK(stats.output_size == kScale);
    CQB_CHECK(stats.trie_rebuilds == 0 && stats.trie_cache_hits == 2);
    join_table.AddRow({"warm", bench::Num(stats.indexed_tuples),
                       bench::Num(stats.trie_rebuilds),
                       bench::Num(stats.trie_cache_hits),
                       bench::Num(stats.output_size)});
  }
  join_table.Print();

  std::cout << "\nShape check: ingestion adds exactly half its fed rows at "
               "every scale\n(the dup pass), both trie builds keep the "
               "materialization tripwire at\nzero, and the warm join serves "
               "both layouts from cache with the exact\n10^6-binding "
               "output.\n\n";

  // Build the text fixtures here, so the text300k timers time only the
  // read and the write.
  (void)Text300k();
}

// Per-tuple insert loop vs one flat batch, both ingesting the same 10^6
// fresh edges into an empty relation.
CQB_BENCH_TIMED("ingest1M/insert-loop", [] {
  Relation r("E", 2);
  const std::vector<Value>& flat = FlatEdges();
  for (std::size_t i = 0; i < kScale; ++i) {
    r.Insert({flat[2 * i], flat[2 * i + 1]});
  }
  CQB_CHECK(r.size() == kScale);
})

CQB_BENCH_TIMED("ingest1M/insert-flat", [] {
  Relation r("E", 2);
  CQB_CHECK(r.InsertFlat(FlatEdges(), kScale) == kScale);
})

// From-scratch radix build over the warm 10^6-row store.
CQB_BENCH_TIMED("trie1M/radix-build", [] {
  TrieIndex trie(*ChainDb().Find("E"), {{0}, {1}});
  CQB_CHECK(trie.num_tuples() >= kScale);
})

// Warm join: both layouts served from the context cache, the leapfrog
// enumeration and output materialization dominate.
CQB_BENCH_TIMED("chain1M/warm-join", [] {
  EvaluateQuery(ChainQ(), ChainDb(), PlanKind::kGenericJoin, &ChainCtx(),
                nullptr)
      .ValueOrDie();
})

// The text layer over the ~3x10^5-tuple instance: parse into a fresh
// database (tokenize, intern every spelling, one InsertFlat per relation),
// and render it back.
CQB_BENCH_TIMED("text300k/read", [] {
  Database db;
  CQB_CHECK(ReadDatabaseTextFromString(Text300k(), &db).ok());
  CQB_CHECK(db.value_pool()->size() == Text300kDb().value_pool()->size());
})

CQB_BENCH_TIMED("text300k/write", [] {
  CQB_CHECK(WriteDatabaseTextToString(Text300kDb()).ValueOrDie().size() ==
            Text300k().size());
})

void BM_ColumnarIngest(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const std::vector<Value> flat = CycleFlat(n, 1);
  for (auto _ : state) {
    Relation r("E", 2);
    benchmark::DoNotOptimize(r.InsertFlat(flat, n));
  }
}
BENCHMARK(BM_ColumnarIngest)->Arg(10000)->Arg(100000);

void BM_RadixTrieBuild(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Relation r("E", 2);
  r.InsertFlat(CycleFlat(n, 1), n);
  for (auto _ : state) {
    TrieIndex trie(r, {{0}, {1}});
    benchmark::DoNotOptimize(trie.num_tuples());
  }
}
BENCHMARK(BM_RadixTrieBuild)->Arg(10000)->Arg(100000);

}  // namespace
}  // namespace cqbounds

CQB_BENCH_MAIN(cqbounds::PrintTables)
