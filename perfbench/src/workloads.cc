#include "workloads.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <map>
#include <set>
#include <sstream>
#include <thread>
#include <unordered_map>
#include <utility>

#include "core/analyze.h"
#include "core/coloring.h"
#include "core/entropy_bound.h"
#include "core/join_plan.h"
#include "core/size_bounds.h"
#include "core/size_increase.h"
#include "core/treewidth_bounds.h"
#include "cq/chase.h"
#include "cq/parser.h"
#include "cq/random_query.h"
#include "relation/database.h"
#include "relation/eval_context.h"
#include "relation/evaluate.h"
#include "relation/text_io.h"
#include "relation/trie_index.h"
#include "util/mutex.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace perfbench {
namespace {

using cqbounds::Atom;
using cqbounds::Database;
using cqbounds::EvalContext;
using cqbounds::EvalStats;
using cqbounds::PlanKind;
using cqbounds::Query;
using cqbounds::Relation;
using cqbounds::Result;
using cqbounds::Rng;
using cqbounds::ThreadPool;
using cqbounds::Tuple;
using cqbounds::Value;

int Scaled(double base, double scale, int floor) {
  return std::max(floor, static_cast<int>(std::lround(base * scale)));
}

template <typename T>
void Shuffle(std::vector<T>* v, Rng* rng) {
  for (std::size_t i = v->size(); i > 1; --i) {
    std::swap((*v)[i - 1], (*v)[rng->NextBelow(i)]);
  }
}

/// A seeded permutation of [0, n), used as vertex labels.
std::vector<std::int64_t> Permutation(int n, Rng* rng) {
  std::vector<std::int64_t> p(n);
  for (int i = 0; i < n; ++i) p[i] = i;
  Shuffle(&p, rng);
  return p;
}

Query MustParse(const std::string& text) {
  return cqbounds::ParseQuery(text).ValueOrDie();
}

/// The same body with a variable-free head: a pure existence check, so the
/// hybrid plan runs its semi-join pass and stops at the first witness.
Query ExistsQuery(const Query& q) {
  Query exists = q;
  exists.SetHead(q.head_relation() + "_exists", {});
  return exists;
}

/// Builds the generation-side database: tuples are interned as decimal
/// spellings so WriteDatabaseTextToString can render them, and inserted in a
/// seeded order so the parsed database's dictionary codes depend on the
/// seed.
class InstanceBuilder {
 public:
  explicit InstanceBuilder(Rng* rng) : rng_(rng) {}

  void Add(const std::string& rel, std::int64_t a, std::int64_t b) {
    pending_[rel].push_back({a, b});
  }

  /// Shuffles every relation's tuples and renders the text format.
  std::string Text() {
    Database gen;
    std::unordered_map<std::int64_t, Value> codes;
    auto code = [&](std::int64_t x) {
      auto it = codes.find(x);
      if (it != codes.end()) return it->second;
      Value v = gen.value_pool()->Intern(std::to_string(x));
      codes.emplace(x, v);
      return v;
    };
    for (auto& [name, tuples] : pending_) {
      Shuffle(&tuples, rng_);
      Relation* r = gen.AddRelation(name, 2);
      for (const auto& [a, b] : tuples) r->Insert({code(a), code(b)});
    }
    return cqbounds::WriteDatabaseTextToString(gen).ValueOrDie();
  }

 private:
  Rng* rng_;
  std::map<std::string, std::vector<std::pair<std::int64_t, std::int64_t>>>
      pending_;
};

/// A circulant graph on n vertices: vertex i adjacent to i +- d for every
/// offset d, both directions stored. Odd offsets on even n give a bipartite,
/// hence triangle-free, graph.
void AddCirculant(InstanceBuilder* b, const std::string& rel, int n,
                  const std::vector<int>& offsets,
                  const std::vector<std::int64_t>& labels) {
  for (int i = 0; i < n; ++i) {
    for (int d : offsets) {
      b->Add(rel, labels[i], labels[(i + d) % n]);
      b->Add(rel, labels[(i + d) % n], labels[i]);
    }
  }
}

/// A selective chain R(x, y), S(y, z) with n rows each: R's y values are
/// [0, n/2), two rows per y; S's are [n/2 - overlap, n - overlap), so only
/// `overlap` y values join and the answer has about 4 * overlap rows.
/// x and z are drawn from [0, n/2).
void AddSelectiveChain(InstanceBuilder* b, int n, int overlap, Rng* rng) {
  const std::vector<std::int64_t> ys = Permutation(n / 2, rng);
  for (int j = 0; j < n; ++j) {
    b->Add("R", static_cast<std::int64_t>(rng->NextBelow(n / 2)), ys[j / 2]);
    b->Add("S", n / 2 - overlap + j / 2,
           static_cast<std::int64_t>(rng->NextBelow(n / 2)));
  }
}

/// The trie layout the evaluator requests for `atom` under `order`: the
/// atom's distinct variables sorted by rank in the order, each with every
/// position it occupies.
std::vector<std::vector<int>> LayoutFor(const Atom& atom,
                                        const std::vector<int>& order) {
  std::map<int, std::vector<int>> by_rank;
  for (std::size_t p = 0; p < atom.vars.size(); ++p) {
    const int rank = static_cast<int>(
        std::find(order.begin(), order.end(), atom.vars[p]) - order.begin());
    by_rank[rank].push_back(static_cast<int>(p));
  }
  std::vector<std::vector<int>> layout;
  for (auto& [rank, positions] : by_rank) layout.push_back(positions);
  return layout;
}

/// Pre-acquisition for the traced run: fetches the plan (hybrid only -- the
/// generic join never consults the plan tier) and every trie the evaluator
/// will request, each under its own span, so EvaluateQuery afterwards finds
/// them all warm and refresh time cannot leak into evaluate.eval. Hybrid
/// atoms served by a cached semi-join survivor view never ask the trie tier,
/// so they are skipped.
void PreAcquire(const Query& q, const std::string& tag, PlanKind kind,
                const Database& db, EvalContext* ctx, Tracer* tr) {
  EvalStats pre;
  std::vector<int> order = cqbounds::DefaultGenericJoinOrder(q);
  std::vector<bool> needed(q.atoms().size(), true);
  if (kind == PlanKind::kHybridYannakakis) {
    EvalContext::CachedPlan* plan;
    {
      ScopedSpan span(tr, "eval_context.plan", tag);
      plan = &ctx->GetPlan(q, &pre);
    }
    if (plan->probe.low_width) {
      order = plan->probe.order;
      cqbounds::MutexLock lock(plan->skip_mu);
      if (plan->semijoin != nullptr) {
        for (std::size_t i = 0; i < needed.size(); ++i) {
          needed[i] = plan->semijoin->all_survive[i];
        }
      }
    }
  }
  const cqbounds::TrieBuildStats builds_before = cqbounds::GetTrieBuildStats();
  for (std::size_t i = 0; i < q.atoms().size(); ++i) {
    if (!needed[i]) continue;
    const Relation* rel = db.Find(q.atoms()[i].relation);
    if (rel == nullptr) {
      tr->Count("eval_context.errors", 1);
      continue;
    }
    std::vector<std::vector<int>> layout = LayoutFor(q.atoms()[i], order);
    ScopedSpan span(tr, "eval_context.trie", tag);
    if (ctx->GetTrie(*rel, layout, &pre) == nullptr) {
      tr->Count("eval_context.errors", 1);
    }
  }
  const cqbounds::TrieBuildStats builds_after = cqbounds::GetTrieBuildStats();
  tr->Count("eval_context.plan_hits", pre.plan_cache_hits);
  tr->Count("eval_context.plan_misses", pre.plan_cache_misses);
  tr->Count("graph.treewidth_probe_runs", pre.treewidth_probe_runs);
  tr->Count("eval_context.trie_hits", pre.trie_cache_hits);
  tr->Count("eval_context.trie_misses", pre.trie_cache_misses);
  tr->Count("eval_context.trie_patches", pre.trie_patches);
  tr->Count("eval_context.trie_unpatches", pre.trie_unpatches);
  tr->Count("eval_context.trie_rebuilds", pre.trie_rebuilds);
  tr->Count("trie_index.radix_builds", static_cast<double>(
                                           builds_after.radix_builds -
                                           builds_before.radix_builds));
  tr->Count("trie_index.merge_builds", static_cast<double>(
                                           builds_after.merge_builds -
                                           builds_before.merge_builds));
}

/// One evaluation through `ctx` (and `pool`, may be null). Traced: plan and
/// tries are pre-acquired first, and the evaluator's counters are recorded.
/// `eval_ns`, when non-null, receives the EvaluateQuery call's own time.
Result<Relation> Evaluate(const Query& q, const std::string& tag,
                          PlanKind kind, const Database& db, EvalContext* ctx,
                          ThreadPool* pool, Tracer* tr,
                          EvalStats* stats = nullptr,
                          std::int64_t* eval_ns = nullptr) {
  if (tr->enabled()) PreAcquire(q, tag, kind, db, ctx, tr);
  EvalStats local;
  ScopedSpan span(tr, "evaluate.eval", tag);
  const std::int64_t t0 = NowNs();
  Result<Relation> out =
      cqbounds::EvaluateQuery(q, db, kind, ctx, pool, &local);
  const std::int64_t t1 = NowNs();
  span.End();
  if (eval_ns != nullptr) *eval_ns = t1 - t0;
  tr->Count("evaluate.calls", 1);
  tr->Count("evaluate.errors", out.ok() ? 0 : 1);
  tr->Count("evaluate.seeks", local.intersection_seeks);
  tr->Count("evaluate.output_rows", local.output_size);
  tr->Count("evaluate.projection_skips", local.projection_subtrees_skipped);
  tr->Count("evaluate.trie_refreshes",
            local.trie_patches + local.trie_unpatches + local.trie_rebuilds);
  if (stats != nullptr) *stats = std::move(local);
  return out;
}

/// The semi-join probe: hybrid evaluation of `exists` (a body with an empty
/// head) on its own context, so its pass sees the same mutation delta as the
/// op's query without sharing that query's cached pass state.
void SemijoinProbe(const Query& exists, const std::string& tag,
                   const Database& db, EvalContext* probe_ctx, Tracer* tr) {
  EvalStats stats;
  ScopedSpan span(tr, "semijoin.pass", tag);
  Result<Relation> out = cqbounds::EvaluateQuery(
      exists, db, PlanKind::kHybridYannakakis, probe_ctx, nullptr, &stats);
  span.End();
  tr->Count("semijoin.probes", 1);
  tr->Count("semijoin.errors", out.ok() ? 0 : 1);
  tr->Count("semijoin.passes_run", stats.semijoin_pass_ran ? 1 : 0);
  tr->Count("semijoin.delta_passes", stats.semijoin_delta_pass ? 1 : 0);
  tr->Count("semijoin.delta_tuples", stats.delta_tuples_processed);
  tr->Count("semijoin.killed", stats.semijoin_killed_tuples);
  tr->Count("semijoin.revived", stats.semijoin_revived_tuples);
  tr->Count("semijoin.dangling", stats.semijoin_dangling_tuples);
}

/// The sink probe: InsertFlat of `answer`'s rows into a fresh relation of the
/// head's arity -- the intern and dedup work the evaluator's result sink
/// does, without the join.
void SinkReplayProbe(const Relation& answer, const std::string& tag,
                     Tracer* tr) {
  std::vector<Value> flat;
  const std::vector<Tuple> rows = answer.tuples();
  flat.reserve(rows.size() * static_cast<std::size_t>(answer.arity()));
  for (const Tuple& t : rows) flat.insert(flat.end(), t.begin(), t.end());
  Relation sink(answer.name(), answer.arity());
  ScopedSpan span(tr, "column_store.sink_replay", tag);
  const std::size_t inserted = sink.InsertFlat(flat, rows.size());
  span.End();
  tr->Count("column_store.probes", 1);
  tr->Count("column_store.rows", static_cast<double>(rows.size()));
  tr->Count("column_store.errors", inserted == rows.size() ? 0 : 1);
}

/// True iff `got` holds exactly the rows of `want`.
bool SameRows(const Relation& got, const std::vector<Tuple>& want) {
  if (got.size() != want.size()) return false;
  for (const Tuple& t : want) {
    if (!got.Contains(t)) return false;
  }
  return true;
}

std::size_t TotalTuples(const Database& db) {
  std::size_t n = 0;
  for (const auto& [name, rel] : db.relations()) n += rel.size();
  return n;
}

bool ParseInto(const std::string& text, Database* db, Tracer* tr) {
  ScopedSpan span(tr, "text_io.read");
  const bool ok = cqbounds::ReadDatabaseTextFromString(text, db).ok();
  span.End();
  if (tr->enabled()) {
    tr->Count("text_io.tuples", static_cast<double>(TotalTuples(*db)));
    tr->Count("text_io.errors", ok ? 0 : 1);
  }
  return ok;
}

/// Pool workers for warm_read: two, plus the calling thread, leaving a core
/// for the rest of the system; fewer on smaller machines, so the total never
/// exceeds nproc.
int PoolWorkers() {
  const int nproc =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  return std::min(2, nproc - 1);
}

// --- warm_read ------------------------------------------------------------

/// Read-only evaluation on a warm context: a seeded round-robin of triangle
/// and 4-clique (generic join) and a 2-atom chain (hybrid) over ~10^4-tuple
/// chorded cycles, fanned out over a fixed-size pool.
class WarmRead : public Workload {
 public:
  explicit WarmRead(double scale) : scale_(scale) {}

  bool Setup(std::uint64_t seed, Tracer* tr) override {
    rng_ = Rng(seed * 0x9e3779b97f4a7c15ull + 1);
    n_ = Scaled(1667, scale_, 12);
    const std::vector<std::int64_t> labels = Permutation(n_, &rng_);
    InstanceBuilder b(&rng_);
    for (const char* rel : {"E", "R", "S"}) {
      AddCirculant(&b, rel, n_, {1, 2, 3}, labels);
    }
    const std::string text = b.Text();
    if (!ParseInto(text, &db_, tr)) return false;

    queries_.push_back(Named("triangle", "T(X,Y,Z) :- E(X,Y), E(Y,Z), E(Z,X).",
                             PlanKind::kGenericJoin));
    queries_.push_back(
        Named("clique4",
              "K(W,X,Y,Z) :- E(W,X), E(W,Y), E(W,Z), E(X,Y), E(X,Z), E(Y,Z).",
              PlanKind::kGenericJoin));
    queries_.push_back(Named("chain", "Q(X,Z) :- R(X,Y), S(Y,Z).",
                             PlanKind::kHybridYannakakis));

    ctx_ = std::make_unique<EvalContext>(db_);
    probe_ctx_ = std::make_unique<EvalContext>(db_);
    pool_ = std::make_unique<ThreadPool>(PoolWorkers());
    for (Named& q : queries_) {
      EvalContext fresh(db_);
      auto want = cqbounds::EvaluateQuery(q.query, db_, q.kind, &fresh,
                                          nullptr, nullptr);
      if (!want.ok()) return false;
      q.expected = want->tuples();
      if (!cqbounds::EvaluateQuery(q.query, db_, q.kind, ctx_.get(),
                                   pool_.get(), nullptr)
               .ok() ||
          !cqbounds::EvaluateQuery(q.exists, db_, PlanKind::kHybridYannakakis,
                                   probe_ctx_.get(), nullptr, nullptr)
               .ok()) {
        return false;
      }
    }
    return true;
  }

  void PrepareOp(std::int64_t index) override {
    if (index % 3 == 0) {
      round_ = {0, 1, 2};
      Shuffle(&round_, &rng_);
    }
    current_ = round_[index % 3];
  }

  bool RunOp(std::int64_t, Tracer* tr) override {
    const Named& q = queries_[current_];
    Result<Relation> out = Evaluate(q.query, q.name, q.kind, db_, ctx_.get(),
                                    pool_.get(), tr, &last_stats_, &eval_ns_);
    if (!out.ok()) return false;
    last_ = std::move(out).ValueOrDie();
    return true;
  }

  bool CheckOp(std::int64_t) override {
    const std::vector<Tuple>& want = queries_[current_].expected;
    if (corrupt_) {
      corrupt_ = false;
      return !want.empty() && SameRows(last_, {want.begin(), want.end() - 1});
    }
    return SameRows(last_, want);
  }

  void Probe(std::int64_t, Tracer* tr) override {
    const Named& q = queries_[current_];
    SinkReplayProbe(last_, q.name, tr);

    ScopedSpan span(tr, "thread_pool.serial_eval", q.name);
    const std::int64_t t0 = NowNs();
    auto serial = cqbounds::EvaluateQuery(q.query, db_, q.kind, ctx_.get(),
                                          nullptr, nullptr);
    const std::int64_t t1 = NowNs();
    span.End();
    tr->Count("thread_pool.errors", serial.ok() ? 0 : 1);
    tr->Count("thread_pool.probes", 1);
    tr->Count("thread_pool.workers", last_stats_.parallel_workers);
    tr->Count("thread_pool.serial_ns", static_cast<double>(t1 - t0));
    tr->Count("thread_pool.pooled_ns", static_cast<double>(eval_ns_));

    if (q.kind == PlanKind::kHybridYannakakis) {
      SemijoinProbe(q.exists, q.name, db_, probe_ctx_.get(), tr);
    }
  }

  bool CorruptExpectationForTest() override {
    corrupt_ = true;
    return true;
  }

  std::string Describe() const override {
    std::ostringstream os;
    os << "E,R,S: chorded cycle n=" << n_ << " (" << db_.Find("E")->size()
       << " tuples each); queries triangle/clique4 (generic join), chain "
          "(hybrid); pool workers="
       << pool_->num_workers();
    return os.str();
  }

 private:
  struct Named {
    Named(std::string n, const std::string& text, PlanKind k)
        : name(std::move(n)), query(MustParse(text)), kind(k),
          exists(ExistsQuery(query)) {}
    std::string name;
    Query query;
    PlanKind kind;
    Query exists;
    std::vector<Tuple> expected;
  };

  double scale_;
  int n_ = 0;
  Rng rng_{0};
  Database db_;
  std::unique_ptr<EvalContext> ctx_;
  std::unique_ptr<EvalContext> probe_ctx_;
  std::unique_ptr<ThreadPool> pool_;
  std::vector<Named> queries_;
  std::vector<int> round_{0, 1, 2};
  int current_ = 0;
  Relation last_;
  EvalStats last_stats_;
  std::int64_t eval_ns_ = 0;
  bool corrupt_ = false;
};

// --- churn ----------------------------------------------------------------

/// Writes on a warm context: each op applies a seeded batch (half appends,
/// half removals) to a triangle-free circulant graph E and the two sides of
/// a selective chain R, S, then re-evaluates the triangle query (generic
/// join) and the chain (hybrid).
class Churn : public Workload {
 public:
  explicit Churn(double scale) : scale_(scale) {}

  bool Setup(std::uint64_t seed, Tracer* tr) override {
    rng_ = Rng(seed * 0x9e3779b97f4a7c15ull + 2);
    n_e_ = 2 * Scaled(25000, scale_, 8);
    n_r_ = 2 * Scaled(100000, scale_, 50);
    overlap_ = Scaled(100, scale_, 2);
    batch_ = Scaled(kBatch, scale_, 2);

    InstanceBuilder b(&rng_);
    const std::vector<std::int64_t> labels = Permutation(n_e_, &rng_);
    AddCirculant(&b, "E", n_e_, {1, 3}, labels);
    AddSelectiveChain(&b, n_r_, overlap_, &rng_);
    const std::string text = b.Text();
    if (!ParseInto(text, &db_, tr)) return false;

    // Client-side knowledge for drawing batches: live tuples and the value
    // codes of each relation's domain.
    cqbounds::ValuePool* pool = db_.value_pool();
    for (std::int64_t label : labels) {
      e_vertices_.push_back(pool->Intern(std::to_string(label)));
    }
    for (int y = 0; y < n_r_ / 2; ++y) {
      r_ys_.push_back(pool->Intern(std::to_string(y)));
      s_ys_.push_back(pool->Intern(std::to_string(n_r_ / 2 - overlap_ + y)));
    }
    rels_ = {db_.FindMutable("E"), db_.FindMutable("R"), db_.FindMutable("S")};
    for (std::size_t r = 0; r < rels_.size(); ++r) {
      live_[r] = rels_[r]->tuples();
    }

    triangle_ = MustParse("T(X,Y,Z) :- E(X,Y), E(Y,Z), E(Z,X).");
    chain_ = MustParse("Q(X,Z) :- R(X,Y), S(Y,Z).");
    chain_exists_ = ExistsQuery(chain_);
    ctx_ = std::make_unique<EvalContext>(db_);
    probe_ctx_ = std::make_unique<EvalContext>(db_);
    Tracer off;
    return EvaluateBoth(&off) &&
           cqbounds::EvaluateQuery(chain_exists_, db_,
                                   PlanKind::kHybridYannakakis,
                                   probe_ctx_.get(), nullptr, nullptr)
               .ok() &&
           CheckAgainstFresh();
  }

  void PrepareOp(std::int64_t) override {
    for (std::size_t r = 0; r < rels_.size(); ++r) {
      removes_[r].clear();
      appends_[r].clear();
      std::vector<Tuple>& live = live_[r];
      for (int k = 0; k < batch_ && !live.empty(); ++k) {
        const std::size_t i = rng_.NextBelow(live.size());
        removes_[r].push_back(std::move(live[i]));
        live[i] = std::move(live.back());
        live.pop_back();
      }
      std::set<Tuple> drawn;
      while (static_cast<int>(appends_[r].size()) < batch_) {
        Tuple t = DrawAppend(r);
        if (rels_[r]->Contains(t) || !drawn.insert(t).second) continue;
        appends_[r].push_back(t);
        live.push_back(std::move(t));
      }
    }
  }

  bool RunOp(std::int64_t, Tracer* tr) override {
    bool ok = true;
    static const char* kNames[] = {"E", "R", "S"};
    for (std::size_t r = 0; r < rels_.size(); ++r) {
      ScopedSpan span(tr, "relation.mutate", kNames[r]);
      std::size_t failures = 0;
      for (const Tuple& t : removes_[r]) failures += !rels_[r]->Remove(t);
      for (const Tuple& t : appends_[r]) failures += !rels_[r]->Insert(t);
      span.End();
      tr->Count("relation.tuples",
                static_cast<double>(removes_[r].size() + appends_[r].size()));
      tr->Count("relation.errors", static_cast<double>(failures));
      ok = ok && failures == 0;
    }
    return EvaluateBoth(tr) && ok;
  }

  bool CheckOp(std::int64_t index) override {
    // The circulant's offsets are odd and every appended edge joins the two
    // parity classes, so E stays bipartite: the triangle query is empty
    // after every op. The full fresh-context comparison runs every
    // kCheckEvery ops and at the end.
    bool ok = triangle_out_.empty();
    if (corrupt_) {
      corrupt_ = false;
      chain_out_.Insert({-1, -1});
      return CheckAgainstFresh() && ok;
    }
    if (index % kCheckEvery == 0) ok = CheckAgainstFresh() && ok;
    return ok;
  }

  bool CheckFinal() override { return CheckAgainstFresh(); }

  void Probe(std::int64_t, Tracer* tr) override {
    SemijoinProbe(chain_exists_, "chain", db_, probe_ctx_.get(), tr);
  }

  bool CorruptExpectationForTest() override {
    corrupt_ = true;
    return true;
  }

  std::uint64_t Compactions() const override {
    std::uint64_t c = 0;
    for (const Relation* r : rels_) c += r->compactions();
    return c;
  }

  std::string Describe() const override {
    std::ostringstream os;
    os << "E: bipartite circulant n=" << n_e_ << " (" << rels_[0]->size()
       << " tuples); R,S: " << rels_[1]->size() << "/" << rels_[2]->size()
       << " tuples, chain answer " << chain_out_.size()
       << " rows; batch per relation " << batch_ << "+" << batch_
       << "; compactions so far " << Compactions();
    return os.str();
  }

 private:
  // Removals (and appends) per relation per op: a relation of 2x10^5 live
  // rows compacts once its dead rows pass a third of the live ones, about
  // every 67 ops, so the three relations compact a few times in a run of
  // ~100 ops, traced or not.
  static constexpr int kBatch = 1000;
  static constexpr int kCheckEvery = 10;

  Tuple DrawAppend(std::size_t r) {
    cqbounds::ValuePool* pool = db_.value_pool();
    switch (r) {
      case 0: {  // an edge between the parity classes of the circulant
        const std::size_t half = e_vertices_.size() / 2;
        const std::size_t u = 2 * rng_.NextBelow(half);
        const std::size_t v = 2 * rng_.NextBelow(half) + 1;
        return {e_vertices_[u], e_vertices_[v]};
      }
      case 1:
        return {pool->Intern("x" + std::to_string(fresh_++)),
                r_ys_[rng_.NextBelow(r_ys_.size())]};
      default:
        return {s_ys_[rng_.NextBelow(s_ys_.size())],
                pool->Intern("z" + std::to_string(fresh_++))};
    }
  }

  bool EvaluateBoth(Tracer* tr) {
    Result<Relation> tri = Evaluate(triangle_, "triangle",
                                    PlanKind::kGenericJoin, db_, ctx_.get(),
                                    nullptr, tr);
    Result<Relation> chain = Evaluate(chain_, "chain",
                                      PlanKind::kHybridYannakakis, db_,
                                      ctx_.get(), nullptr, tr);
    if (!tri.ok() || !chain.ok()) return false;
    triangle_out_ = std::move(tri).ValueOrDie();
    chain_out_ = std::move(chain).ValueOrDie();
    return true;
  }

  bool CheckAgainstFresh() {
    EvalContext fresh(db_);
    auto tri = cqbounds::EvaluateQuery(triangle_, db_, PlanKind::kGenericJoin,
                                       &fresh, nullptr, nullptr);
    auto chain = cqbounds::EvaluateQuery(
        chain_, db_, PlanKind::kHybridYannakakis, &fresh, nullptr, nullptr);
    return tri.ok() && chain.ok() && SameRows(triangle_out_, tri->tuples()) &&
           SameRows(chain_out_, chain->tuples());
  }

  double scale_;
  int n_e_ = 0;
  int n_r_ = 0;
  int overlap_ = 0;
  int batch_ = 0;
  Rng rng_{0};
  Database db_;
  std::vector<Relation*> rels_;
  std::vector<Tuple> live_[3];
  std::vector<Tuple> removes_[3];
  std::vector<Tuple> appends_[3];
  std::vector<Value> e_vertices_;
  std::vector<Value> r_ys_;
  std::vector<Value> s_ys_;
  std::int64_t fresh_ = 0;
  Query triangle_;
  Query chain_;
  Query chain_exists_;
  std::unique_ptr<EvalContext> ctx_;
  std::unique_ptr<EvalContext> probe_ctx_;
  Relation triangle_out_;
  Relation chain_out_;
  bool corrupt_ = false;
};

// --- cold_load ------------------------------------------------------------

/// Nothing cached: each op parses a ~3x10^5-tuple text database into a
/// fresh Database and evaluates a query mix once on a fresh EvalContext.
class ColdLoad : public Workload {
 public:
  explicit ColdLoad(double scale) : scale_(scale) {}

  bool Setup(std::uint64_t seed, Tracer* tr) override {
    rng_ = Rng(seed * 0x9e3779b97f4a7c15ull + 3);
    const int n_e = 2 * Scaled(12500, scale_, 8);
    const int n_r = 2 * Scaled(40000, scale_, 50);
    const int overlap = Scaled(50, scale_, 2);
    const int n_p = Scaled(30000, scale_, 40);

    InstanceBuilder b(&rng_);
    // E: a bipartite circulant plus a few seeded even chords, each of which
    // closes a handful of triangles.
    const std::vector<std::int64_t> labels = Permutation(n_e, &rng_);
    AddCirculant(&b, "E", n_e, {1, 3}, labels);
    const int chords = Scaled(100, scale_, 2);
    for (int c = 0; c < chords; ++c) {
      const int i = static_cast<int>(rng_.NextBelow(n_e));
      b.Add("E", labels[i], labels[(i + 2) % n_e]);
      b.Add("E", labels[(i + 2) % n_e], labels[i]);
    }
    AddSelectiveChain(&b, n_r, overlap, &rng_);
    // P: a random functional graph where one vertex in ten has no
    // successor, so the 12-step path's semi-join pass drops real work.
    for (int v = 0; v < n_p; ++v) {
      if (rng_.NextBelow(10) == 0) continue;
      b.Add("P", v, static_cast<std::int64_t>(rng_.NextBelow(n_p)));
    }
    text_ = b.Text();

    queries_.push_back(Named("triangle", "T(X,Y,Z) :- E(X,Y), E(Y,Z), E(Z,X).",
                             PlanKind::kGenericJoin));
    queries_.push_back(Named("chain", "Q(X,Z) :- R(X,Y), S(Y,Z).",
                             PlanKind::kHybridYannakakis));
    std::ostringstream path;
    path << "L(X0,X12) :- ";
    for (int i = 0; i < 12; ++i) {
      path << (i ? ", " : "") << "P(X" << i << ",X" << i + 1 << ")";
    }
    path << ".";
    queries_.push_back(
        Named("path12", path.str(), PlanKind::kHybridYannakakis));

    // Expected row counts, from one parse and one fresh evaluation.
    Database db;
    if (!ParseInto(text_, &db, tr)) return false;
    tuples_ = TotalTuples(db);
    EvalContext fresh(db);
    for (Named& q : queries_) {
      auto out =
          cqbounds::EvaluateQuery(q.query, db, q.kind, &fresh, nullptr,
                                  nullptr);
      if (!out.ok()) return false;
      q.expected_rows = out->size();
    }
    return true;
  }

  void PrepareOp(std::int64_t) override {
    // Tearing down the previous op's database is not part of the op.
    ctx_.reset();
    db_ = std::make_unique<Database>();
  }

  bool RunOp(std::int64_t, Tracer* tr) override {
    if (!ParseInto(text_, db_.get(), tr)) return false;
    ctx_ = std::make_unique<EvalContext>(*db_);
    bool ok = true;
    for (Named& q : queries_) {
      Result<Relation> out =
          Evaluate(q.query, q.name, q.kind, *db_, ctx_.get(), nullptr, tr);
      ok = ok && out.ok();
      q.last_rows = out.ok() ? out->size() : 0;
    }
    return ok;
  }

  bool CheckOp(std::int64_t) override {
    bool ok = true;
    for (const Named& q : queries_) ok = ok && q.last_rows == q.expected_rows;
    if (corrupt_) {
      corrupt_ = false;
      ok = ok && queries_[0].last_rows == queries_[0].expected_rows + 1;
    }
    return ok;
  }

  void Probe(std::int64_t, Tracer* tr) override {
    EvalContext probe_ctx(*db_);
    for (const Named& q : queries_) {
      if (q.kind == PlanKind::kHybridYannakakis) {
        SemijoinProbe(q.exists, q.name, *db_, &probe_ctx, tr);
      }
    }
  }

  bool CorruptExpectationForTest() override {
    corrupt_ = true;
    return true;
  }

  std::string Describe() const override {
    std::ostringstream os;
    os << "text " << text_.size() << " bytes, " << tuples_
       << " tuples (E,R,S,P); expected rows";
    for (const Named& q : queries_) {
      os << " " << q.name << "=" << q.expected_rows;
    }
    return os.str();
  }

 private:
  struct Named {
    Named(std::string n, const std::string& text, PlanKind k)
        : name(std::move(n)), query(MustParse(text)), kind(k),
          exists(ExistsQuery(query)) {}
    std::string name;
    Query query;
    PlanKind kind;
    Query exists;
    std::size_t expected_rows = 0;
    std::size_t last_rows = 0;
  };

  double scale_;
  Rng rng_{0};
  std::string text_;
  std::size_t tuples_ = 0;
  std::vector<Named> queries_;
  std::unique_ptr<Database> db_;
  std::unique_ptr<EvalContext> ctx_;
  bool corrupt_ = false;
};

// --- analyze_mix ----------------------------------------------------------

/// The paper's own deliverable: AnalyzeQuery over a seeded RandomQuery
/// population with keys and compound FDs, at most 5 variables after the
/// chase.
class AnalyzeMix : public Workload {
 public:
  explicit AnalyzeMix(double scale) : scale_(scale) {}

  bool Setup(std::uint64_t seed, Tracer*) override {
    rng_ = Rng(seed * 0x9e3779b97f4a7c15ull + 4);
    // Stratified by variable count after the chase, so every seed draws
    // the same cost profile: kPerStratum[v] queries with v variables (the
    // analysis cost grows ~10x per variable, dominated by the entropy LP).
    std::vector<std::vector<Query>> strata(kPerStratum.size());
    std::size_t total = 0;
    for (int vars = 2; vars <= 5; ++vars) {
      const int want = Scaled(kPerStratum[vars], scale_, 1);
      total += want;
      while (static_cast<int>(strata[vars].size()) < want) {
        cqbounds::RandomQueryOptions options;
        options.num_variables = vars + static_cast<int>(rng_.NextBelow(2));
        options.num_atoms = 1 + static_cast<int>(rng_.NextBelow(3));
        options.key_percent = 30;
        options.compound_fd_percent = 40;
        options.random_projection = true;
        Query q = cqbounds::RandomQuery(options, &rng_);
        if (static_cast<int>(cqbounds::Chase(q).BodyVarSet().size()) != vars) {
          continue;
        }
        strata[vars].push_back(std::move(q));
      }
      Shuffle(&strata[vars], &rng_);
    }
    // Interleave the strata evenly (each slot goes to the stratum furthest
    // behind its share), so every window of ops has the population's mix.
    population_.clear();
    std::vector<std::size_t> taken(strata.size(), 0);
    for (std::size_t slot = 1; slot <= total; ++slot) {
      std::size_t best = 0;
      double best_lag = -1;
      for (std::size_t v = 0; v < strata.size(); ++v) {
        if (taken[v] == strata[v].size()) continue;
        const double lag =
            static_cast<double>(strata[v].size() * slot) / total - taken[v];
        if (lag > best_lag) {
          best = v;
          best_lag = lag;
        }
      }
      population_.push_back(strata[best][taken[best]++]);
    }
    return true;
  }

  bool RunOp(std::int64_t index, Tracer* tr) override {
    const Query& q = population_[index % population_.size()];
    if (!tr->enabled()) {
      auto out = cqbounds::AnalyzeQuery(q);
      if (!out.ok()) return false;
      last_ = std::move(out).ValueOrDie();
      return true;
    }
    // Traced: the steps AnalyzeQuery runs, called one by one.
    bool ok = q.Validate().ok();
    cqbounds::QueryAnalysis out;
    Query chased;
    {
      ScopedSpan span(tr, "cq.chase");
      chased = cqbounds::Chase(q);
    }
    out.chased = chased.ToString();
    {
      ScopedSpan span(tr, "core.size_bound");
      auto sb = cqbounds::ComputeSizeBound(q);
      span.End();
      ok = Note(tr, sb.ok()) && ok;
      if (sb.ok()) out.size_bound = std::move(sb).ValueOrDie();
    }
    {
      ScopedSpan span(tr, "core.entropy_bound");
      auto entropy = cqbounds::EntropySizeBound(chased);
      span.End();
      if (entropy.ok()) out.entropy_bound = entropy->value;
    }
    {
      ScopedSpan span(tr, "core.size_increase");
      auto inc = cqbounds::SizeIncreasePossible(q);
      span.End();
      ok = Note(tr, inc.ok()) && ok;
      if (inc.ok()) out.size_increase_possible = *inc;
    }
    {
      ScopedSpan span(tr, "core.tw_preserve");
      if (q.fds().empty()) {
        out.treewidth_preserved = cqbounds::TreewidthPreservedNoFds(q);
      } else {
        auto simple = cqbounds::TreewidthPreservedSimpleFds(q);
        if (simple.ok()) {
          out.treewidth_preserved = *simple;
        } else if (chased.BodyVarSet().size() <= 18) {
          out.treewidth_preserved =
              !cqbounds::ExistsTwoColoringNumberTwo(chased);
        }
      }
    }
    {
      ScopedSpan span(tr, "core.join_plan");
      auto plan = cqbounds::BuildJoinProjectPlan(q);
      span.End();
      ok = Note(tr, plan.ok()) && ok;
      if (plan.ok()) out.plan = std::move(plan).ValueOrDie();
    }
    last_ = std::move(out);
    return ok;
  }

  bool CheckOp(std::int64_t) override {
    // The Section 6 sandwich: 1 <= C(chase Q) <= s(chase Q), and the Horn
    // decision agrees with C > 1.
    const cqbounds::Rational& c = last_.size_bound.exponent;
    bool ok = last_.entropy_bound.has_value() && c <= *last_.entropy_bound &&
              c >= cqbounds::Rational(1) &&
              last_.size_increase_possible == (c > cqbounds::Rational(1));
    if (corrupt_) {
      corrupt_ = false;
      ok = ok && last_.size_increase_possible != (c > cqbounds::Rational(1));
    }
    return ok;
  }

  bool CorruptExpectationForTest() override {
    corrupt_ = true;
    return true;
  }

  RefKernelKind ref_kernel() const override { return RefKernelKind::kHeap; }

  std::string Describe() const override {
    std::ostringstream os;
    os << "population " << population_.size()
       << " queries (keys 30%, compound FDs 40%), chase variables 2..5 in "
          "strata";
    for (int v = 2; v <= 5; ++v) os << " " << v << ":" << kPerStratum[v];
    return os.str();
  }

 private:
  // The median op falls in the middle of the 4-variable stratum. One pass
  // over the population takes ~15 s here, so a run covers nearly all of it
  // and per-seed differences in the population average out.
  static constexpr std::array<int, 6> kPerStratum = {0, 0, 40, 40, 480, 80};

  static bool Note(Tracer* tr, bool ok) {
    tr->Count("core.errors", ok ? 0 : 1);
    return ok;
  }

  double scale_;
  Rng rng_{0};
  std::vector<Query> population_;
  cqbounds::QueryAnalysis last_;
  bool corrupt_ = false;
};

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"warm_read", "churn",
                                                  "cold_load", "analyze_mix"};
  return names;
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name, double scale) {
  if (name == "warm_read") return std::make_unique<WarmRead>(scale);
  if (name == "churn") return std::make_unique<Churn>(scale);
  if (name == "cold_load") return std::make_unique<ColdLoad>(scale);
  if (name == "analyze_mix") return std::make_unique<AnalyzeMix>(scale);
  return nullptr;
}

}  // namespace perfbench
