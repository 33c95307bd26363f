#ifndef CQBOUNDS_RELATION_EVALUATE_H_
#define CQBOUNDS_RELATION_EVALUATE_H_

#include <cstddef>
#include <functional>
#include <vector>

#include "cq/query.h"
#include "graph/treewidth_bb.h"
#include "relation/database.h"
#include "relation/eval_context.h"
#include "util/status.h"

namespace cqbounds {

class ThreadPool;  // util/thread_pool.h

/// How intermediate results are managed during conjunctive query evaluation.
enum class PlanKind {
  /// Left-deep hash joins keeping every bound variable until the end: the
  /// textbook baseline, whose intermediates can exceed the final output.
  kNaive,
  /// The join-project plan of Corollary 4.8 / Atserias et al. Theorem 15:
  /// after each join, intermediates are projected onto the variables still
  /// needed (head variables plus variables of unprocessed atoms), keeping
  /// intermediate sizes within the rmax^C envelope.
  kJoinProject,
  /// Worst-case-optimal generic join: one sorted-column trie per atom
  /// (trie_index.h), variables bound one at a time by a leapfrog-style
  /// multiway intersection. The number of bindings enumerated at every
  /// depth is bounded by the AGM envelope rmax^{rho*} of the full join --
  /// the executor *meets* the Prop 4.1/4.3 size bound instead of merely
  /// stating it. See docs/EVALUATION.md.
  kGenericJoin,
  /// Hybrid for low-width queries: when the exact treewidth engine
  /// certifies that the variable-intersection graph has width <=
  /// kHybridWidthThreshold, a Yannakakis-style semi-join reduction pass
  /// runs up and down the certified TreeDecomposition, filtering dangling
  /// tuples out of every atom before a generic-join enumeration over the
  /// reduced relations (whose intermediates are a subset of the plain
  /// generic join's, so the AGM envelope still holds). High-width queries
  /// fall back to plain generic join. The reduction is cached in the
  /// EvalContext plan tier and maintained by delta passes: a run on
  /// unchanged generations reuses the cached survivor views outright
  /// (EvalStats::semijoin_pass_skipped), a run after mutations folds just
  /// the journal delta into the cached books (semijoin_delta_pass). See
  /// docs/EVALUATION.md.
  kHybridYannakakis,
};

/// Short display name for `kind` ("naive", "join-project", "generic-join",
/// "hybrid-yannakakis").
const char* PlanKindName(PlanKind kind);

/// Width gate of the hybrid plan and of ChooseGenericJoinOrder's
/// tree-decomposition path: the certified-decomposition machinery engages
/// only when the variable-intersection graph has treewidth <= this.
inline constexpr int kHybridWidthThreshold = 2;

/// Vertex cap for the exact treewidth probe on variable-intersection
/// graphs (matches the engine's practical range on sparse graphs).
inline constexpr int kHybridExactVertexLimit = 40;

/// Builds the variable-intersection graph (body variables adjacent iff
/// they share an atom) and, when it is small and sparse enough
/// (kHybridExactVertexLimit; width-<=2 graphs are K4-minor-free with at
/// most 2n-3 edges, so denser graphs skip the exponential probe), runs the
/// certified exact treewidth engine. The single implementation shared by
/// ChooseGenericJoinOrder (core/join_plan.cc) and the hybrid executor, so
/// the planner's recommendation and the executor's own gate cannot drift
/// apart. The LowWidthProbe result type lives in relation/eval_context.h,
/// whose plan tier memoizes this probe by query shape -- evaluate through a
/// long-lived EvalContext so warm runs never re-probe.
LowWidthProbe ProbeLowWidthStructure(const Query& query);

/// Counters reported by the evaluators, used by the E10 benchmark and the
/// oracle tests to contrast the three plans against the paper's envelopes.
struct EvalStats {
  /// Largest intermediate binding set encountered.
  std::size_t max_intermediate = 0;
  /// Sum of intermediate sizes after each join step.
  std::size_t total_intermediate = 0;
  /// Number of tuples in the output relation.
  std::size_t output_size = 0;
  /// Intermediate size per step: bindings alive after each join for the
  /// binary-join plans; bindings enumerated per *variable depth* (in the
  /// global variable order) for the generic join. max/total above aggregate
  /// this vector.
  std::vector<std::size_t> intermediate_sizes;
  /// Tuples inserted into per-atom indexes (hash buckets for the binary
  /// plans, trie keys for the generic join). Guards the empty-join
  /// short-circuit: once no binding survives, later atoms are not indexed.
  std::size_t indexed_tuples = 0;
  /// Generic join only: trie SeekGE calls issued by the leapfrog
  /// intersection loops (the executor's unit of work).
  std::size_t intersection_seeks = 0;
  /// Tries served from the EvalContext cache without rebuilding. A
  /// context-free call runs through a throwaway context, so atoms sharing
  /// a (relation, layout) pair hit the trie the first of them built.
  std::size_t trie_cache_hits = 0;
  /// Tries (re)built this call: trie-tier misses plus survivor-view builds
  /// (the rebuild-per-call cost the cache exists to eliminate).
  std::size_t trie_cache_misses = 0;
  /// Plans served from the EvalContext plan tier without re-probing.
  std::size_t plan_cache_hits = 0;
  /// Plans (re)derived this call: plan-tier misses (every context-free
  /// trie-plan call is one -- the re-probe cost the plan tier exists to
  /// eliminate).
  std::size_t plan_cache_misses = 0;
  /// TreewidthExact invocations made by this call (0 on every warm
  /// plan-cache hit; also 0 when the variable graph failed the size or
  /// sparsity gates and the exponential probe never ran).
  std::size_t treewidth_probe_runs = 0;
  /// Hybrid plan only: tuples removed from atom relations by the
  /// Yannakakis semi-join reduction pass (0 when the plan fell back to
  /// plain generic join or nothing dangled).
  std::size_t semijoin_dropped_tuples = 0;
  /// Hybrid plan only: true iff the semi-join reduction pass actually
  /// executed. False when the plan fell back to plain generic join, when
  /// the pass was skipped as provably redundant (see
  /// semijoin_pass_skipped), or when an uncertified bag assignment
  /// abandoned it -- previously that abandonment was silent and the stats
  /// read as if the hybrid had engaged.
  bool semijoin_pass_ran = false;
  /// Hybrid plan only: true iff the pass was skipped because the cached
  /// semi-join state's generation vector matches every atom relation's
  /// current generation -- the previous pass's outcome (clean or not) is
  /// still exact, so its survivor views are reused outright
  /// (survivor_view_hits counts the atoms that reused a cached survivor
  /// trie).
  bool semijoin_pass_skipped = false;
  /// Trie tier: cache misses served by *unpatching* a cached trie over a
  /// window with no removed rows -- the journal (Relation::DeltasSince)
  /// named only appended rows since the cached build, so the new trie was
  /// produced by merging their sorted keys into the cached key stream
  /// instead of sorting the whole relation. Every patch also counts in
  /// trie_cache_misses (a patched trie is still a rebuilt object).
  std::size_t trie_patches = 0;
  /// Trie tier: cache misses served by unpatching a cached trie over a
  /// window with removed rows: the new trie was spliced from the cached
  /// one, subtracting the removed keys' support and adding the appended
  /// ones -- O(delta log base) work plus one bulk copy, no sort of the
  /// base. Every unpatch also counts in trie_cache_misses.
  std::size_t trie_unpatches = 0;
  /// Trie tier: cache misses that ran the full from-scratch relation sort
  /// -- cold entries (every build of a context-free call), or stale entries
  /// whose relation crossed a structural break (Clear, or a Remove that
  /// triggered tombstone compaction) since the cached build. trie_patches +
  /// trie_unpatches + trie_rebuilds <= trie_cache_misses: survivor-view
  /// tries built by the hybrid's reduction pass count as misses only.
  std::size_t trie_rebuilds = 0;
  /// Hybrid plan only: atoms whose enumeration reused the cached semi-join
  /// survivor view (survivor trie) from a previous pass under the same
  /// plan, keyed by the atom relations' generation vector -- no re-filter,
  /// no survivor-trie rebuild.
  std::size_t survivor_view_hits = 0;
  /// Journal rows routed through a delta path this call: appended and
  /// removed rows merged into unpatched tries plus delta candidates
  /// filtered by the incremental semi-join pass (the "k" in the O(k . index
  /// work) cost of a small insert).
  std::size_t delta_tuples_processed = 0;
  /// Hybrid plan only: true iff the semi-join reduction ran as a counting
  /// *delta pass* -- the cached SemijoinState's per-step key support counts
  /// were adjusted by the mutation delta instead of re-reducing the
  /// database. A delta pass sets semijoin_pass_ran too; a full re-reduce
  /// leaves this false.
  bool semijoin_delta_pass = false;
  /// Hybrid delta pass only: previously-dropped tuples revived because a
  /// semi-join key they were waiting on came back from support zero.
  std::size_t semijoin_revived_tuples = 0;
  /// Hybrid delta pass only: previously-surviving tuples killed because a
  /// key supporting them dropped to zero (plus appended tuples that arrived
  /// dangling count under semijoin_dropped_tuples, not here).
  std::size_t semijoin_killed_tuples = 0;
  /// Hybrid plan: total tuples currently dangling (dropped by the semi-join
  /// state in force after this call), whether the pass ran, delta-ran, or
  /// was skipped. The oracle checks this against a from-scratch
  /// re-reduction's semijoin_dropped_tuples.
  std::size_t semijoin_dangling_tuples = 0;
  /// Hybrid plan: rows the semi-join pass read to settle fates. A full pass
  /// counts its scan of every atom's store plus every source and target row
  /// each filter step reads; a delta pass counts its journal rows, the
  /// rows on the key-index chains of the keys that vanished or returned,
  /// the rows a lazy key-index build scans, and the appended rows it links
  /// into built indexes. Deterministic, so at a fixed delta a flat count
  /// across base sizes is the O(delta) proof; a skip reads no row.
  std::size_t semijoin_rows_visited = 0;
  /// Generic join: sibling scans truncated by the projection-aware early
  /// exit -- once the bound prefix covers every head variable, a single
  /// witness of the remaining variables suffices, so the search returns as
  /// soon as one completion is found instead of enumerating (and deduping
  /// away) every other witness.
  std::size_t projection_subtrees_skipped = 0;
  /// Trie plans: number of threads (pool workers plus the calling
  /// thread) that executed the partitioned depth-0 search, or 0 when the
  /// evaluation ran single-threaded (no pool, no workers, too few depth-0
  /// bindings to split, or a plan that never reaches the trie executor).
  std::size_t parallel_workers = 0;
};

/// Evaluates `query` over `db`, producing the head relation Q(D) with set
/// semantics: all tuples theta(u0) for substitutions theta satisfying every
/// body atom (Section 2 of the paper). PlanKind::kGenericJoin runs the
/// generic join over DefaultGenericJoinOrder (use ChooseGenericJoinOrder in
/// core/join_plan.h for the LP/treewidth-derived order).
///
/// Errors: kNotFound if a body relation is missing from `db`;
/// kInvalidArgument if an atom's arity disagrees with the stored relation.
/// `stats` may be null; when non-null it is fully reassigned on *every*
/// exit path, success or error -- a caller reusing one EvalStats across
/// calls never reads the previous run's counters.
Result<Relation> EvaluateQuery(const Query& query, const Database& db,
                               PlanKind kind, EvalStats* stats = nullptr);

/// As above, evaluating through `ctx`: the trie-based plans (kGenericJoin,
/// kHybridYannakakis) reuse cached per-atom tries, plans and semi-join
/// state instead of rebuilding them per call. `ctx` must be attached to
/// `db` (kInvalidArgument otherwise); the binary-join plans accept but
/// ignore it (their transient hash indexes are not cached). A null `ctx`
/// evaluates through a throwaway context that dies with the call -- the
/// same code path, counted exactly as a fresh context would count it.
Result<Relation> EvaluateQuery(const Query& query, const Database& db,
                               PlanKind kind, EvalContext* ctx,
                               EvalStats* stats);

/// As above, additionally fanning the trie-based plans' enumeration out
/// over `pool` (util/thread_pool.h; may be null for serial execution) by
/// partitioning the depth-0 leapfrog intersection: the matches of the first
/// variable in the binding order are enumerated once (cheap -- one trie
/// level), then claimed dynamically by the pool's workers plus the calling
/// thread, each descending its claimed subtrees with private scratch and a
/// private flat row buffer. When every subtree finishes, the rows are
/// ingested in depth-0 match order (set semantics dedups overlapping head
/// tuples, keeping the first), so the result equals the serial result row
/// for row, in the same order. Every worker's per-depth binding counts
/// still sum to the serial run's, so the AGM envelope guarantee is
/// unchanged. The hybrid's semi-join pass itself stays serial.
///
/// Falls back to the serial search when `pool` is null or has no workers,
/// when there are fewer than two depth-0 matches to split, or when the head
/// is variable-free (a pure existence check, where the serial early exit
/// stops at the first witness and parallel fan-out would only waste work).
/// EvalStats::parallel_workers reports the fan-out actually used. The
/// binary-join plans ignore the pool.
Result<Relation> EvaluateQuery(const Query& query, const Database& db,
                               PlanKind kind, EvalContext* ctx,
                               ThreadPool* pool, EvalStats* stats);

/// The worst-case-optimal executor: builds one TrieIndex per atom keyed by
/// `variable_order` (which must enumerate every body variable exactly once)
/// and binds variables in that order with leapfrog intersections. Any order
/// preserves the AGM envelope on intermediates; the order affects constants
/// (seek counts), not the worst-case guarantee. Runs through a throwaway
/// EvalContext, like a context-free EvaluateQuery.
///
/// Errors: as EvaluateQuery, plus kInvalidArgument if `variable_order` is
/// not a permutation of the body variables.
Result<Relation> EvaluateGenericJoin(const Query& query, const Database& db,
                                     const std::vector<int>& variable_order,
                                     EvalStats* stats = nullptr);

/// One step of a binary-join plan: join the given body atom into the
/// current bindings, then project the bindings onto `keep_vars`.
struct JoinPlanStep {
  int atom_index = 0;
  /// Variable ids kept after the join, in binding layout order.
  std::vector<int> keep_vars;
};

/// The binary-join executor behind kNaive and kJoinProject, and the way to
/// run an explicit JoinPlan (core/join_plan.h) as
/// ExecuteJoinSteps(query, plan.steps, db, stats): left-deep hash joins in
/// step order, each followed by a projection onto the step's keep set
/// (deduplicated only when the step drops a variable). kNaive is the
/// body-order step list
/// keeping every bound variable; kJoinProject keeps only the variables the
/// head or a later atom still needs. An empty binding set short-circuits
/// the remaining steps (their relations are still resolved).
///
/// Errors: kInvalidArgument, before any data is read, unless every atom
/// occurs exactly once, every kept variable is bound by the prefix, no step
/// drops a variable a later atom uses, and every head variable survives the
/// last step; then as EvaluateQuery. `stats` follows EvaluateQuery's
/// contract.
Result<Relation> ExecuteJoinSteps(const Query& query,
                                  const std::vector<JoinPlanStep>& steps,
                                  const Database& db, EvalStats* stats);

/// A dependency-light default variable order: greedy by atom-degree
/// (variables constrained by more atoms first), extending connected-first so
/// intersections bind early. Deterministic. core/join_plan.h's
/// ChooseGenericJoinOrder upgrades this with fractional-edge-cover weights
/// and certified tree decompositions.
std::vector<int> DefaultGenericJoinOrder(const Query& query);

/// Shared greedy skeleton of the variable-order heuristics: orders the body
/// variables of `query`, repeatedly picking -- among the unordered variables
/// sharing an atom with the ordered prefix, or all remaining ones when no
/// such neighbour exists -- the candidate that `strictly_better` prefers
/// over the incumbent. Candidates are scanned in increasing variable id, so
/// ties go to the smallest id. Deterministic.
std::vector<int> ConnectedFirstOrder(
    const Query& query,
    const std::function<bool(int incumbent, int candidate)>& strictly_better);

/// Equi-join R x S keeping all columns of both inputs (the treewidth
/// sections of the paper treat the result of R join_{A=B} S as a relation of
/// arity arity(R)+arity(S) whose Gaifman graph merges each matched pair of
/// tuples). `pairs` lists (position in R, position in S) equality conditions.
Relation EquiJoin(const Relation& left, const Relation& right,
                  const std::vector<std::pair<int, int>>& pairs,
                  const std::string& result_name = "join");

}  // namespace cqbounds

#endif  // CQBOUNDS_RELATION_EVALUATE_H_
