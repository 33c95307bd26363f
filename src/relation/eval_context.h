#ifndef CQBOUNDS_RELATION_EVAL_CONTEXT_H_
#define CQBOUNDS_RELATION_EVAL_CONTEXT_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "cq/query.h"
#include "graph/treewidth_bb.h"
#include "relation/database.h"
#include "relation/key_index.h"
#include "relation/trie_index.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace cqbounds {

struct EvalStats;  // evaluate.h (which includes this header)

/// Result of ProbeLowWidthStructure (relation/evaluate.h): the query's
/// variable-intersection graph numbering plus, when certified, the
/// treewidth witness and the binding order it induces. Depends only on the
/// query's *shape* (atoms and variable layout), never on relation contents,
/// which is what makes it cacheable in the EvalContext plan tier below.
struct LowWidthProbe {
  /// Dense vertex id -> variable id of the variable-intersection graph.
  std::vector<int> body;
  /// Variable id -> dense vertex id (-1 for non-body variables).
  std::vector<int> dense;
  /// Certified exact result (width, elimination order, decomposition);
  /// only meaningful when `low_width`.
  ExactTreewidthResult tw;
  /// True iff the certified width is within kHybridWidthThreshold.
  bool low_width = false;
  /// True iff the exponential TreewidthExact engine actually ran (the graph
  /// passed the size and sparsity gates). The treewidth_probe_runs counter
  /// in EvalStats sums this per evaluation call.
  bool probe_ran = false;
  /// The reverse elimination order mapped back to variable ids -- the
  /// binding order of the tree-decomposition path. Empty unless
  /// `low_width`.
  std::vector<int> order;
};

/// A per-database evaluation context memoizing what repeated evaluations
/// would otherwise recompute from scratch, in two tiers:
///
///  1. a **trie tier**: the sorted-column tries the generic-join executor
///     builds per atom, keyed by (relation name, level-position layout) --
///     the layout is the trie's column permutation induced by the global
///     variable order, so two atoms (in the same query or across queries)
///     that index the same relation the same way share one trie;
///  2. a **plan tier**: the ProbeLowWidthStructure result (certified width,
///     decomposition, binding order) keyed by the *query shape* (atom
///     relation names + variable layout), so a warm hybrid run performs
///     zero TreewidthExact calls. Each plan entry also carries the hybrid
///     plan's last semi-join reduction (SemijoinState), keyed by the atom
///     relations' generation vector and maintained by delta passes.
///
/// Invalidation: trie entries snapshot Relation::generation() at build time
/// and are refreshed (counted as a miss) when the relation mutated since.
/// The refresh is delta-aware: whenever the journal can still name what
/// changed since the snapshot (Relation::DeltasSince), the stale trie is
/// *unpatched* -- the sorted delta keys are spliced into the cached trie's
/// level arrays, the removed keys' support subtracted, O(k log n) work plus
/// one bulk copy instead of a from-scratch O(n log n) sort. A window with
/// no removed rows counts as EvalStats::trie_patches, any other as
/// trie_unpatches. Only a hard structural break -- Clear, or a Remove that
/// crossed the tombstone-compaction threshold -- forces the full rebuild
/// (EvalStats::trie_rebuilds). Plan entries depend only on the query shape
/// and never go stale from data mutations -- only their semi-join state is
/// generation-checked per use. The context holds a
/// pointer to its Database, whose relations live in a std::map, so cached
/// references stay stable across insertions of new relations.
///
/// ## Concurrency
///
/// One context safely serves any number of concurrent evaluation threads
/// (the shared-memo-table shape of a chess engine's transposition table
/// serving N search threads):
///
///  - one mutex guards both tier maps. It is held only for a map lookup or
///    insertion, never across a trie build or a treewidth probe, and
///    GetTrie runs on the evaluating thread before the pool fans out, so
///    the lock is not contended in practice. Trie entries hold the trie
///    behind a shared_ptr -- a thread holding a trie keeps it alive even while
///    another thread concurrently replaces the entry after a mutation, so
///    no reader ever observes a dangling or half-built index. Two threads
///    racing a cold (or stale) entry may both build; the duplicate build is
///    wasted work, never wrong data (both build from the same relation
///    state), and each build is still counted as a miss;
///  - the plan tier fills each entry's probe exactly once per query shape
///    (std::call_once), so concurrent first evaluations of one shape run
///    one TreewidthExact probe total, with late arrivals blocking until it
///    lands; the per-entry semi-join skip state is guarded by its own
///    mutex (see CachedPlan);
///  - lifetime hit and miss counters are atomics.
///
/// What stays on the caller: **relation mutations must not overlap
/// evaluations** through the context (the standard readers-xor-writer
/// contract -- Relation itself is not a concurrent structure), `Clear()`
/// requires the same exclusivity (it invalidates outstanding plan
/// references), and an EvalStats object must not be shared between
/// concurrently evaluating threads. Interleaving is fine: mutate, then run
/// any number of parallel evaluations, then mutate again.
///
/// The intra-context part of this contract is machine-checked: every
/// mutex-guarded member carries a CQB_GUARDED_BY annotation
/// (util/thread_annotations.h), so a Clang build with
/// -DCQBOUNDS_THREAD_SAFETY=ON fails to compile any access to `tries_`,
/// `plans_`, or a plan's `semijoin` state outside its lock. See
/// docs/STATIC_ANALYSIS.md.
class EvalContext {
 public:
  explicit EvalContext(const Database& db) : db_(&db) {}

  /// Cached outcome of one semi-join reduction pass under a plan: the
  /// survivor views (per-atom survivor tries for atoms that lost tuples),
  /// the per-step semi-join key *support counts* plus a per-atom drop-step
  /// array over physical row ids (the counting delta pass's working
  /// state), the filter schedule they are indexed by, the lazily built
  /// per-step target-key indexes, and the generation vector that keys it
  /// all. Maintained by the hybrid plan (relation/evaluate.cc); every field
  /// is guarded by CachedPlan's `skip_mu`.
  struct SemijoinState {
    /// drop_step value of a row that survived every step.
    static constexpr std::uint32_t kNoDrop = 0xFFFFFFFFu;
    /// drop_step value of a row outside the books: tombstoned, or failing
    /// its atom's repeated-variable filter.
    static constexpr std::uint32_t kOffBooks = 0xFFFFFFFEu;

    /// One semi-join of the reduction schedule: filter atom `target`'s
    /// survivors to those whose shared-variable projection occurs among
    /// atom `source`'s survivors.
    struct FilterStep {
      std::size_t source = 0;
      std::size_t target = 0;
      std::vector<int> src_pos;  // source tuple positions of the shared vars
      std::vector<int> tgt_pos;  // target tuple positions of the shared vars
    };

    /// A filter step's target-key -> rows index (key_index.h), load <= 7/8:
    /// lookups are rare (one per key transition), and the table is held
    /// for a whole compaction epoch. Rows are never unlinked: a tombstoned
    /// row keeps its codes until compaction -- which forces the full pass
    /// that drops the index -- so it stays on its chain and readers skip it
    /// by its kOffBooks drop step.
    using TargetKeyRows = KeyRows<7, 8>;

    /// Atom i's relation generation observed when this state was computed
    /// -- the survivor-view cache key. A run whose generation vector
    /// matches reuses the survivor views outright (its delta pass is empty:
    /// the skip); any bump is folded in by a delta pass, or a full re-pass
    /// past a structural break.
    std::vector<std::uint64_t> generations;
    /// Per atom: true iff every live tuple of its relation survived the
    /// pass (dangling[i] == 0).
    std::vector<bool> all_survive;
    /// Per atom with !all_survive[i]: the survivor trie (the zero-copy
    /// filtered view, already keyed by the plan's layout for that atom);
    /// null where all_survive[i]. Immutable once published -- reuse hands
    /// out copies of the shared_ptr; the delta pass replaces the pointer,
    /// never the pointee.
    std::vector<std::shared_ptr<const TrieIndex>> survivor_tries;
    /// The deterministic up+down filter order derived from the certified
    /// decomposition. It depends only on the plan, so the full pass that
    /// creates this state computes it once and every delta pass replays it.
    std::vector<FilterStep> schedule;
    /// Per schedule step: how many of the source atom's surviving
    /// rows project onto each semi-join key (decoded values at the step's
    /// `src_pos`). Counts -- not sets -- are what make removals O(delta): a
    /// source row leaving decrements its key, a key hitting zero kills
    /// dependent target tuples, and a key coming back from zero *revives*
    /// target tuples dropped at exactly that step, all without re-scanning
    /// the database. Populated by every full pass and maintained by every
    /// delta pass, clean or dirty. A key at count 0 reads as absent; the
    /// delta pass leaves it in place until the next full pass.
    std::vector<KeyCounts> step_counts;
    /// Per atom, indexed by physical row id (sized to the store as of
    /// `generations`): the first schedule step whose key set rejected the
    /// row, kNoDrop for a survivor, kOffBooks for a row outside the books.
    /// The recorded step is what lets a key-reappearance revive exactly the
    /// rows it dangled; the delta pass edits only the entries of rows whose
    /// fate moved.
    std::vector<std::vector<std::uint32_t>> drop_step;
    /// Per atom: how many rows carry a drop step (the dangling census).
    std::vector<std::size_t> dangling;
    /// Per schedule step: the index from the step's target key to the
    /// target rows carrying it, through which the delta pass finds the
    /// rows a vanished key kills or a returning key revives. Built on the
    /// first delta pass whose step sees a key vanish or return, extended by
    /// every later delta pass's appended rows, and dropped with the whole
    /// state by the full pass a compaction forces -- so a context that only
    /// ever takes full passes or skips never builds one.
    std::vector<TargetKeyRows> key_rows;
  };

  /// One plan-tier entry. `probe` is filled exactly once (concurrent
  /// GetPlan calls for one shape run one probe, the rest wait) and is
  /// immutable afterwards; the semi-join state is maintained by the hybrid
  /// plan after each reduction pass and must only be touched with
  /// `skip_mu` held.
  struct CachedPlan {
    LowWidthProbe probe;
    /// Last completed reduction pass's outcome, or null before the first
    /// pass. Guarded by `skip_mu` (pointer and pointee -- the analysis
    /// rejects both unlocked reseats and unlocked dereferences); the hybrid
    /// executor holds `skip_mu` across a (delta or full) pass, so
    /// concurrent post-mutation runs of one shape serialize the pass and
    /// late arrivals reuse the fresh state instead of duplicating it.
    std::unique_ptr<SemijoinState> semijoin CQB_GUARDED_BY(skip_mu)
        CQB_PT_GUARDED_BY(skip_mu);
    /// Guards `semijoin` against concurrent hybrid evaluations of the same
    /// shape.
    Mutex skip_mu;
    /// Fills `probe` exactly once (GetPlan); `probe` is immutable
    /// afterwards, which is why it needs no capability of its own.
    std::once_flag probe_once;
  };

  /// The cached trie for `rel` under `level_positions`, building (or
  /// refreshing, if `rel` mutated since -- a support-count unpatch when the
  /// journal can name the delta, a full rebuild only past a structural
  /// break) on demand. `rel` must belong to the attached database --
  /// checked by identity, not by name, and
  /// enforced with CQB_CHECK: a same-named relation from another database
  /// can coincide in generation, and serving it a "hit" would silently
  /// return a trie over different tuples. Hit/miss counters are bumped both
  /// on the context (lifetime totals) and in `stats` (per-call) when
  /// non-null.
  ///
  /// The returned trie is immutable and stays alive for as long as the
  /// caller holds the pointer, even if the entry is concurrently (or
  /// later) rebuilt after a relation mutation -- the rebuild swaps the
  /// entry's shared_ptr, it never touches the old index.
  std::shared_ptr<const TrieIndex> GetTrie(
      const Relation& rel, const std::vector<std::vector<int>>& level_positions,
      EvalStats* stats);

  /// The cached plan for `query`'s shape, running ProbeLowWidthStructure on
  /// first use (a plan miss; the probe's TreewidthExact run, if any, lands
  /// in `stats->treewidth_probe_runs` of whichever caller executed it).
  /// Warm calls are a keyed map lookup under a short lock: zero graph
  /// builds, zero treewidth probes. The returned reference stays valid
  /// until Clear() or context destruction; only its semi-join state (under
  /// skip_mu) may be updated in place by the hybrid executor.
  CachedPlan& GetPlan(const Query& query, EvalStats* stats);

  /// True iff `rel` is the attached database's relation of that name (the
  /// identity GetTrie enforces).
  bool OwnsRelation(const Relation& rel) const {
    return db_->Find(rel.name()) == &rel;
  }

  const Database& database() const { return *db_; }

  /// Lifetime totals across every evaluation run through this context.
  std::size_t hits() const { return hits_.load(std::memory_order_relaxed); }
  std::size_t misses() const {
    return misses_.load(std::memory_order_relaxed);
  }
  std::size_t plan_hits() const {
    return plan_hits_.load(std::memory_order_relaxed);
  }
  std::size_t plan_misses() const {
    return plan_misses_.load(std::memory_order_relaxed);
  }

  /// Number of distinct (relation, layout) tries currently cached.
  std::size_t size() const;
  /// Number of distinct query shapes currently cached in the plan tier.
  std::size_t plan_size() const;

  /// Drops every cached trie and plan (counters are kept). Requires
  /// exclusive access: no concurrent evaluation may be running, and plan
  /// references obtained earlier are invalidated.
  void Clear();

 private:
  using Key = std::pair<std::string, std::vector<std::vector<int>>>;
  struct Entry {
    std::uint64_t generation = 0;
    std::shared_ptr<const TrieIndex> trie;
  };

  const Database* db_;
  /// Guards both tier *maps* (lookups, insertions, Clear), never the
  /// entries behind them: a trie is immutable and handed out by
  /// shared_ptr, and GetPlan hands out stable CachedPlan references whose
  /// mutable state has its own per-plan capability (skip_mu).
  mutable Mutex mu_;
  std::map<Key, Entry> tries_ CQB_GUARDED_BY(mu_);
  std::map<std::string, CachedPlan> plans_ CQB_GUARDED_BY(mu_);
  std::atomic<std::size_t> hits_{0};
  std::atomic<std::size_t> misses_{0};
  std::atomic<std::size_t> plan_hits_{0};
  std::atomic<std::size_t> plan_misses_{0};
};

}  // namespace cqbounds

#endif  // CQBOUNDS_RELATION_EVAL_CONTEXT_H_
