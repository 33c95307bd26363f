#include "relation/evaluate.h"

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <optional>
#include <set>

#include "graph/graph.h"
#include "graph/tree_decomposition.h"
#include "graph/treewidth_bb.h"
#include "relation/column_store.h"
#include "relation/key_index.h"
#include "relation/trie_index.h"
#include "relation/tuple.h"
#include "util/mutex.h"
#include "util/thread_pool.h"

namespace cqbounds {

namespace {

/// Suffix variable sets, computed once per query: needed_after[j] holds the
/// head variables plus the variables of atoms j..m-1, so the kJoinProject
/// projection at step `step` reads needed_after[step+1]. One backward pass,
/// O(m * vars) total -- recomputing from scratch at every step made the
/// join-project path O(m^2 * vars) in the number of atoms.
std::vector<std::set<int>> NeededVarsBySuffix(const Query& query) {
  const std::size_t m = query.atoms().size();
  std::vector<std::set<int>> needed_after(m + 1);
  needed_after[m] = query.HeadVarSet();
  for (std::size_t j = m; j-- > 0;) {
    needed_after[j] = needed_after[j + 1];
    const Atom& a = query.atoms()[j];
    needed_after[j].insert(a.vars.begin(), a.vars.end());
  }
  return needed_after;
}

/// Resolves and checks the relation behind every atom, in body order -- the
/// shared precondition of every plan kind. Every executor resolves all
/// atoms up front, so missing relations and arity mismatches error
/// deterministically even when an early atom already empties the result.
Result<std::vector<const Relation*>> ResolveAtoms(const Query& query,
                                                  const Database& db) {
  std::vector<const Relation*> rels;
  rels.reserve(query.atoms().size());
  for (const Atom& atom : query.atoms()) {
    const Relation* rel = db.Find(atom.relation);
    if (rel == nullptr) {
      return Status::NotFound("relation '" + atom.relation +
                              "' missing from database");
    }
    if (rel->arity() != static_cast<int>(atom.vars.size())) {
      return Status::InvalidArgument(
          "atom " + atom.relation + " has arity " +
          std::to_string(atom.vars.size()) + " but relation has arity " +
          std::to_string(rel->arity()));
    }
    rels.push_back(rel);
  }
  return rels;
}

/// Resolves the context an evaluation runs through. A caller's `*ctx` must
/// cache for the same database the evaluation reads -- otherwise it would
/// serve tries of unrelated relations that happen to share a name. A null
/// `*ctx` is pointed at `*scratch`, a throwaway context over `db` that
/// dies with the call: context-free evaluation takes the one context path,
/// so it builds each (relation, layout) trie once per call and probes the
/// plan once, counted exactly as a fresh context would count them.
Status CheckContextDatabase(const Database& db, EvalContext** ctx,
                            std::optional<EvalContext>* scratch) {
  if (*ctx == nullptr) {
    *ctx = &scratch->emplace(db);
  } else if (&(*ctx)->database() != &db) {
    return Status::InvalidArgument(
        "evaluation context is attached to a different database");
  }
  return Status::OK();
}

/// An atom's trie layout under a global variable order: the atom's distinct
/// variables sorted by their rank in the order, with every tuple position
/// each one occupies (repeats become equality filters). This layout -- not
/// the atom identity -- is the EvalContext cache key alongside the relation
/// name, so atoms indexing a relation the same way share one trie.
struct AtomLayout {
  std::vector<std::vector<int>> level_positions;
  /// Global depth (rank in the order) of each trie level.
  std::vector<int> ranks;
};

AtomLayout LayoutForAtom(const Atom& atom, const std::vector<int>& rank) {
  std::map<int, std::vector<int>> positions_by_rank;
  for (std::size_t p = 0; p < atom.vars.size(); ++p) {
    positions_by_rank[rank[atom.vars[p]]].push_back(static_cast<int>(p));
  }
  AtomLayout layout;
  for (auto& [r, positions] : positions_by_rank) {
    layout.ranks.push_back(r);
    layout.level_positions.push_back(std::move(positions));
  }
  return layout;
}

/// The order must enumerate the body variables exactly once each, and every
/// head variable must occur in the body.
Status ValidateGenericJoinInputs(const Query& query,
                                 const std::vector<int>& variable_order) {
  std::set<int> body = query.BodyVarSet();
  std::set<int> seen;
  for (int v : variable_order) {
    if (!body.count(v) || !seen.insert(v).second) {
      return Status::InvalidArgument(
          "variable order is not a permutation of the body variables");
    }
  }
  if (seen.size() != body.size()) {
    return Status::InvalidArgument(
        "variable order misses " +
        std::to_string(body.size() - seen.size()) + " body variable(s)");
  }
  for (int v : query.head_vars()) {
    if (!body.count(v)) {
      return Status::InvalidArgument("head variable '" +
                                     query.variable_name(v) +
                                     "' does not occur in the body");
    }
  }
  return Status::OK();
}

/// The evaluators' result sink. An executor appends each head row's values
/// in place to `block` and calls EndRow -- no Tuple per row, no per-row
/// insert. Rows move on in blocks of kSinkBlockRows: a serial executor
/// flushes each full block into `output` through the row-append door
/// (Relation::InsertRows, one intern-and-dedup pass), so a projecting head
/// emitting many duplicates keeps the sink small; a pooled worker (null
/// `output`) seals full blocks and keeps them for the match-ordered merge.
/// Every block after the first is allocated at full size and no sealed
/// block is ever copied, so a worker holds its rows plus at most one
/// partial block.
struct RowSink {
  /// Rows per block: enough to amortize the door's per-call work, few
  /// enough to stay cache-friendly.
  static constexpr std::size_t kSinkBlockRows = 4096;

  RowSink(Relation* out, std::size_t row_width)
      : output(out), width(row_width) {}

  /// Ends the row whose values were just appended to `block`.
  void EndRow() {
    if (++block_rows < kSinkBlockRows) return;
    if (output != nullptr) {
      Flush();
      return;
    }
    sealed.push_back(std::move(block));
    block.clear();
    block.reserve(kSinkBlockRows * width);
    block_rows = 0;
  }

  /// Serial sinks: lands the pending rows in `output`, emission order kept.
  void Flush() {
    if (block_rows == 0) return;
    const ColumnStore::RowSpan span{block.data(), block_rows};
    output->InsertRows(&span, 1);
    block.clear();
    block_rows = 0;
  }

  /// Rows emitted so far; in a pooled sink, row r sits in block
  /// r / kSinkBlockRows at offset r % kSinkBlockRows.
  std::size_t rows() const {
    return sealed.size() * kSinkBlockRows + block_rows;
  }

  Relation* output;
  std::size_t width;
  std::vector<Value> block;
  std::size_t block_rows = 0;
  std::vector<std::vector<Value>> sealed;
};

/// State of the leapfrog search: one trie per atom plus a stack of sibling
/// ranges tracking each trie's descent along the global variable order.
struct GenericJoinSearch {
  /// Where head rows go: flushed into the output relation (serial search)
  /// or kept for the match-ordered merge (pooled worker, null output).
  RowSink sink;
  EvalStats* stats;

  /// Variable ids in binding order.
  const std::vector<int>& order;
  /// One trie per atom (served by the EvalContext, or the hybrid's
  /// survivor view), keyed by the atom's variables in global order.
  std::vector<const TrieIndex*> tries;
  /// atoms_at[d]: atoms whose trie has a level for variable order[d].
  std::vector<std::vector<int>> atoms_at;
  /// Current candidate range per atom (top of its descent stack).
  std::vector<std::vector<TrieIndex::Range>> range_stack;
  /// assignment[var] = bound value for the already-bound prefix.
  std::vector<Value> assignment;
  /// Output template: head positions into `assignment`.
  std::vector<int> head_vars;
  /// Deepest depth whose variable occurs in the head (-1 when the head is
  /// variable-free). Past it the search only needs *one* witness per bound
  /// prefix -- the head tuple is already determined -- so Run returns as
  /// soon as a completion is found instead of enumerating every witness
  /// for the sink to dedup away.
  int last_head_depth = -1;
  /// Per-depth leapfrog scratch (cursor and trie level per participating
  /// atom), allocated once -- Run visits thousands of nodes and must not
  /// allocate per node.
  std::vector<std::vector<std::size_t>> cursor_scratch;
  std::vector<std::vector<int>> level_scratch;

  GenericJoinSearch(Relation* out, std::size_t head_width, EvalStats* st,
                    const std::vector<int>& var_order)
      : sink(out, head_width), stats(st), order(var_order) {}

  /// The one leapfrog intersection over the atoms at `depth`, within the
  /// tops of their descent stacks: atom k's cursor (`cursor[k]`, on level
  /// `level[k]`: stack height minus the root) seeks up to the running
  /// maximum until all agree or a range runs dry. `on_match(value)` runs at
  /// each match, ascending, and returns whether to go on; it may descend if
  /// it restores the stacks. Each seek adds one to `*seeks`.
  template <typename OnMatch>
  void Leapfrog(std::size_t depth, std::vector<std::size_t>& cursor,
                std::vector<int>& level, std::size_t* seeks,
                OnMatch&& on_match) const {
    const std::vector<int>& atoms = atoms_at[depth];
    for (std::size_t k = 0; k < atoms.size(); ++k) {
      const std::vector<TrieIndex::Range>& stack = range_stack[atoms[k]];
      cursor[k] = stack.back().begin;
      level[k] = static_cast<int>(stack.size()) - 1;
      if (stack.back().empty()) return;
    }
    Value target = tries[atoms[0]]->ValueAt(level[0], cursor[0]);
    while (true) {
      // `target` is the running maximum over all cursors; it only grows, so
      // each non-aligned round strictly advances some cursor.
      bool aligned = true;
      for (std::size_t k = 0; k < atoms.size(); ++k) {
        const TrieIndex* trie = tries[atoms[k]];
        const TrieIndex::Range r{cursor[k], range_stack[atoms[k]].back().end};
        const std::size_t pos = trie->SeekGE(level[k], r, target);
        ++*seeks;
        if (pos >= r.end) return;  // range exhausted: no more matches
        cursor[k] = pos;
        const Value found = trie->ValueAt(level[k], pos);
        if (found != target) {
          target = found;  // overshoot: restart the round at the new max
          aligned = false;
          break;
        }
      }
      if (!aligned) continue;
      if (!on_match(target)) return;
      // Advance past the match; stop when the first atom's range runs dry.
      if (++cursor[0] >= range_stack[atoms[0]].back().end) return;
      target = tries[atoms[0]]->ValueAt(level[0], cursor[0]);
    }
  }

  /// Binds order[depth..] recursively; every match at a depth increments
  /// that depth's intermediate counter (the quantity the AGM envelope
  /// bounds). Returns true iff at least one full binding was reached below
  /// this node -- the signal the projection-aware early exit keys on.
  bool Run(std::size_t depth) {
    if (depth == order.size()) {
      for (int v : head_vars) sink.block.push_back(assignment[v]);
      sink.EndRow();
      return true;
    }
    // Past the last head variable a single witness suffices.
    const bool witness_only = static_cast<int>(depth) > last_head_depth;
    const std::vector<int>& atoms = atoms_at[depth];
    std::vector<std::size_t>& cursor = cursor_scratch[depth];
    std::vector<int>& level = level_scratch[depth];
    bool found = false;
    Leapfrog(depth, cursor, level, &stats->intersection_seeks,
             [&](Value target) {
               // All cursors agree on `target`: bind and descend.
               assignment[order[depth]] = target;
               ++stats->intermediate_sizes[depth];
               for (std::size_t k = 0; k < atoms.size(); ++k) {
                 const int a = atoms[k];
                 range_stack[a].push_back(
                     tries[a]->ChildRange(level[k], cursor[k]));
               }
               if (Run(depth + 1)) found = true;
               for (int a : atoms) range_stack[a].pop_back();
               if (found && witness_only) {
                 // The head tuple was fixed above; any remaining sibling
                 // would only re-derive it.
                 ++stats->projection_subtrees_skipped;
                 return false;
               }
               return true;
             });
    return found;
  }
};

/// Enumerates the depth-0 leapfrog matches of `search` -- the values on
/// which every atom participating at depth 0 agrees within its root range
/// -- without descending: the serial search's first level, reified into a
/// work list the parallel executor partitions. Seeks are counted into
/// `*seeks`, not charged: a caller that falls back to the serial search
/// re-seeks depth 0 there.
std::vector<Value> CollectDepth0Matches(const GenericJoinSearch& search,
                                        std::size_t* seeks) {
  std::vector<Value> matches;
  std::vector<std::size_t> cursor(search.atoms_at[0].size());
  std::vector<int> level(cursor.size());
  search.Leapfrog(0, cursor, level, seeks, [&matches](Value v) {
    matches.push_back(v);
    return true;
  });
  return matches;
}

/// The parallel executor: partitions the depth-0 matches of `proto` across
/// `pool`'s workers plus the calling thread. Each thread claims matches
/// dynamically (skewed subtree costs self-balance), binds the claimed value
/// and descends with a private copy of the search state -- per-depth
/// scratch, range stacks, assignment and row buffer are all thread-local by
/// construction, so the only shared mutable state is the claim counter (and
/// each match's row span, written only by the thread that claimed it).
///
/// Workers record where each match's head rows sit in their buffers; the
/// merge then ingests those spans in *match order* straight from the
/// buffers, in one pre-sized pass through the row-append door. The serial
/// search visits the same matches in the same order and emits the same
/// rows below each, so the output equals the serial output row for row,
/// whichever thread claimed what. Per-depth counters are summed, so the
/// AGM-envelope accounting is unchanged. Returns false, touching neither
/// `output` nor `local`, when there are fewer than two matches to split --
/// the caller then runs the serial search, which seeks depth 0 itself.
bool RunPartitionedDepth0(const GenericJoinSearch& proto, ThreadPool* pool,
                          Relation* output, EvalStats* local) {
  std::size_t depth0_seeks = 0;
  const std::vector<Value> matches = CollectDepth0Matches(proto, &depth0_seeks);
  if (matches.size() < 2) return false;
  local->intersection_seeks += depth0_seeks;
  const std::size_t workers = std::min<std::size_t>(
      static_cast<std::size_t>(pool->num_workers()) + 1, matches.size());
  const std::vector<int>& order = proto.order;

  /// The head rows one match produced: a row range of one worker's sink.
  struct MatchRows {
    std::size_t worker = 0;
    std::size_t first_row = 0;
    std::size_t rows = 0;
  };
  std::vector<MatchRows> match_rows(matches.size());
  const std::size_t width = proto.head_vars.size();
  std::vector<std::vector<std::vector<Value>>> blocks(workers);
  std::atomic<std::size_t> next{0};
  std::vector<EvalStats> worker_stats(workers);
  pool->ParallelFor(workers, [&](std::size_t w) {
    // A private copy of the search; its range stacks hold the root ranges
    // only at this point.
    GenericJoinSearch ws = proto;
    ws.sink = RowSink(/*out=*/nullptr, width);
    ws.stats = &worker_stats[w];
    worker_stats[w].intermediate_sizes.assign(order.size(), 0);
    const std::vector<int>& atoms0 = ws.atoms_at[0];
    for (std::size_t i = next.fetch_add(1); i < matches.size();
         i = next.fetch_add(1)) {
      const Value v = matches[i];
      ws.assignment[order[0]] = v;
      for (int a : atoms0) {
        // Re-locate the match in this atom's root range (one wide-tier
        // SeekGE, O(log) per atom and a few probes on dense ids -- the
        // only duplicated work of the fan-out).
        const std::size_t pos = ws.tries[a]->SeekGE(0, ws.range_stack[a][0], v);
        ++ws.stats->intersection_seeks;
        ws.range_stack[a].push_back(ws.tries[a]->ChildRange(0, pos));
      }
      const std::size_t first_row = ws.sink.rows();
      ws.Run(1);
      match_rows[i] = MatchRows{w, first_row, ws.sink.rows() - first_row};
      for (int a : atoms0) ws.range_stack[a].pop_back();
    }
    ws.sink.sealed.push_back(std::move(ws.sink.block));
    blocks[w] = std::move(ws.sink.sealed);
  });

  local->intermediate_sizes[0] += matches.size();
  for (const EvalStats& s : worker_stats) {
    for (std::size_t d = 1; d < s.intermediate_sizes.size(); ++d) {
      local->intermediate_sizes[d] += s.intermediate_sizes[d];
    }
    local->intersection_seeks += s.intersection_seeks;
    local->projection_subtrees_skipped += s.projection_subtrees_skipped;
  }
  // Set semantics dedups head tuples that distinct depth-0 subtrees both
  // derived (possible whenever the head projects order[0] away), keeping
  // the first in match order -- the one the serial search keeps. A match
  // whose rows straddle a block boundary contributes one span per block.
  constexpr std::size_t kBlockRows = RowSink::kSinkBlockRows;
  std::vector<ColumnStore::RowSpan> spans;
  spans.reserve(matches.size());
  for (const MatchRows& m : match_rows) {
    for (std::size_t row = m.first_row, end = m.first_row + m.rows;
         row < end;) {
      const std::size_t offset = row % kBlockRows;
      const std::size_t take = std::min(end - row, kBlockRows - offset);
      const std::vector<Value>& block = blocks[m.worker][row / kBlockRows];
      spans.push_back(
          ColumnStore::RowSpan{block.data() + offset * width, take});
      row += take;
    }
  }
  output->InsertRows(spans.data(), spans.size());
  local->parallel_workers = workers;
  return true;
}

/// Per-atom trie overrides for the hybrid plan: atom i enumerates over
/// `overrides[i]` (its semi-join survivor view, freshly built or served
/// from the plan's survivor-view cache) instead of its full-relation trie
/// when non-null. The hybrid charges the build/reuse counters itself, so
/// the engine treats an override as ready-made.
using TrieOverrides = std::vector<std::shared_ptr<const TrieIndex>>;

/// The shared generic-join engine behind EvaluateGenericJoin and the hybrid
/// plan. `overrides`, when non-null, replaces atom i's trie with
/// `(*overrides)[i]` if non-null (see TrieOverrides); untouched atoms go
/// through `ctx`, which must be non-null. Fills `local` (assumed zeroed);
/// the caller owns publishing it to the user-facing stats pointer. A
/// non-null `pool` with workers runs the search partitioned over the
/// depth-0 matches (see RunPartitionedDepth0); a null pool, a worker-less
/// pool, a variable-free head (where the serial early exit beats any
/// fan-out) or fewer than two depth-0 matches all fall back to the serial
/// search.
Result<Relation> GenericJoinImpl(const Query& query, const Database& db,
                                 const std::vector<int>& variable_order,
                                 EvalContext* ctx, ThreadPool* pool,
                                 const TrieOverrides* overrides,
                                 EvalStats* local) {
  CQB_RETURN_NOT_OK(ValidateGenericJoinInputs(query, variable_order));

  Relation output(query.head_relation(),
                  static_cast<int>(query.head_vars().size()));
  std::vector<int> rank(query.num_variables(), -1);
  for (std::size_t d = 0; d < variable_order.size(); ++d) {
    rank[variable_order[d]] = static_cast<int>(d);
  }

  GenericJoinSearch search(&output, query.head_vars().size(), local,
                           variable_order);
  search.assignment.assign(query.num_variables(), 0);
  search.head_vars = query.head_vars();
  search.atoms_at.resize(variable_order.size());
  const std::set<int> head_set = query.HeadVarSet();
  for (std::size_t d = 0; d < variable_order.size(); ++d) {
    if (head_set.count(variable_order[d])) {
      search.last_head_depth = static_cast<int>(d);
    }
  }
  local->intermediate_sizes.assign(variable_order.size(), 0);

  std::vector<const Relation*> rels;
  CQB_ASSIGN_OR_RETURN(rels, ResolveAtoms(query, db));

  // Every trie is pinned by shared_ptr for the duration of the search: a
  // concurrent evaluation rebuilding the cache entry (after an interleaved
  // mutation elsewhere) swaps the entry, never the pinned index.
  std::vector<std::shared_ptr<const TrieIndex>> pinned;
  bool empty_atom = false;
  for (std::size_t i = 0; i < query.atoms().size() && !empty_atom; ++i) {
    AtomLayout layout = LayoutForAtom(query.atoms()[i], rank);
    const TrieIndex* trie;
    if (overrides != nullptr && (*overrides)[i] != nullptr) {
      // Reduced atom: the survivor trie the hybrid built (or reused from
      // the plan's survivor-view cache); its counters were charged there.
      pinned.push_back((*overrides)[i]);
      trie = pinned.back().get();
    } else {
      const std::size_t misses_before = local->trie_cache_misses;
      pinned.push_back(ctx->GetTrie(*rels[i], layout.level_positions, local));
      trie = pinned.back().get();
      if (local->trie_cache_misses != misses_before) {
        local->indexed_tuples += trie->num_tuples();
      }
    }
    if (trie->num_tuples() == 0) empty_atom = true;
    for (int r : layout.ranks) {
      search.atoms_at[r].push_back(static_cast<int>(i));
    }
    search.tries.push_back(trie);
    search.range_stack.push_back({trie->RootRange()});
  }

  if (!empty_atom && !query.atoms().empty()) {
    search.cursor_scratch.resize(variable_order.size());
    search.level_scratch.resize(variable_order.size());
    for (std::size_t d = 0; d < variable_order.size(); ++d) {
      search.cursor_scratch[d].resize(search.atoms_at[d].size());
      search.level_scratch[d].resize(search.atoms_at[d].size());
    }
    // Parallel only with workers to hand work to, and only for heads with
    // at least one variable: a boolean (variable-free) head is decided by
    // the first witness, which the serial early exit finds without visiting
    // the rest of the space -- fanning out would do strictly more work.
    const bool parallel = pool != nullptr && pool->num_workers() > 0 &&
                          search.last_head_depth >= 0 &&
                          !search.atoms_at[0].empty();
    if (!parallel || !RunPartitionedDepth0(search, pool, &output, local)) {
      search.Run(0);
      search.sink.Flush();
    }
  } else if (query.atoms().empty()) {
    // Empty body: the single empty substitution.
    const ColumnStore::RowSpan empty_row{nullptr, 1};
    output.InsertRows(&empty_row, 1);
  }

  for (std::size_t s : local->intermediate_sizes) {
    local->max_intermediate = std::max(local->max_intermediate, s);
    local->total_intermediate += s;
  }
  local->output_size = output.size();
  return output;
}

// --- The binary-join executor ---------------------------------------------

/// The step lists of EvaluateQuery's binary-join plans, atoms in body
/// order, each step's keep set in binding layout order (the bound prefix,
/// then the atom's new variables by first occurrence). kNaive (`project`
/// false) keeps every bound variable; kJoinProject keeps only those the
/// head or a later atom still needs.
std::vector<JoinPlanStep> BodyOrderSteps(const Query& query, bool project) {
  const std::size_t m = query.atoms().size();
  const std::vector<std::set<int>> needed_after =
      project ? NeededVarsBySuffix(query) : std::vector<std::set<int>>();
  std::vector<JoinPlanStep> steps(m);
  std::vector<char> bound(query.num_variables(), 0);
  std::vector<int> layout;
  for (std::size_t j = 0; j < m; ++j) {
    for (int v : query.atoms()[j].vars) {
      if (!bound[v]) {
        bound[v] = 1;
        layout.push_back(v);
      }
    }
    if (project) {
      // A dropped variable occurs in no later atom, so it never rebinds.
      const std::set<int>& needed = needed_after[j + 1];
      layout.erase(std::remove_if(layout.begin(), layout.end(),
                                  [&needed](int v) { return !needed.count(v); }),
                   layout.end());
    }
    steps[j].atom_index = static_cast<int>(j);
    steps[j].keep_vars = layout;
  }
  return steps;
}

/// Checks a binary-join step list against `query` before any data is read:
/// every atom occurs exactly once, every kept variable is bound by the
/// prefix, no step drops a variable a later atom still uses (the later atom
/// would bind it afresh and silently lose the join), and every head
/// variable survives the last step.
Status ValidateJoinSteps(const Query& query,
                         const std::vector<JoinPlanStep>& steps) {
  const std::size_t m = query.atoms().size();
  if (steps.size() != m) {
    return Status::InvalidArgument("plan does not cover all atoms");
  }
  enum : char { kUnbound, kBound, kDropped };
  std::vector<char> state(query.num_variables(), kUnbound);
  std::vector<char> joined(m, 0);
  std::vector<char> kept(query.num_variables(), 0);
  for (const JoinPlanStep& step : steps) {
    if (step.atom_index < 0 || step.atom_index >= static_cast<int>(m)) {
      return Status::InvalidArgument("plan step atom index out of range");
    }
    if (joined[step.atom_index]++) {
      return Status::InvalidArgument("plan joins atom " +
                                     std::to_string(step.atom_index) +
                                     " more than once");
    }
    for (int v : query.atoms()[step.atom_index].vars) {
      if (state[v] == kDropped) {
        return Status::InvalidArgument(
            "plan drops variable '" + query.variable_name(v) +
            "' before an atom that still uses it");
      }
      state[v] = kBound;
    }
    std::fill(kept.begin(), kept.end(), 0);
    for (int v : step.keep_vars) {
      if (v < 0 || v >= query.num_variables() || state[v] != kBound) {
        return Status::InvalidArgument(
            "plan keeps a variable that is not bound yet: " +
            (v >= 0 && v < query.num_variables() ? query.variable_name(v)
                                                 : std::to_string(v)));
      }
      kept[v] = 1;
    }
    for (int v = 0; v < query.num_variables(); ++v) {
      if (state[v] == kBound && !kept[v]) state[v] = kDropped;
    }
  }
  for (int v : query.head_vars()) {
    if (state[v] != kBound) {
      return Status::InvalidArgument("plan dropped head variable '" +
                                     query.variable_name(v) + "'");
    }
  }
  return Status::OK();
}

/// The one binary-join executor, behind kNaive, kJoinProject and
/// ExecuteJoinSteps: left-deep hash joins in step order, each followed by a
/// projection onto the step's keep set. Bindings are tuples over
/// `bound_vars` (parallel layout); var_slot maps a variable id to its
/// position there (-1 when unbound), so per-atom binding lookups are O(1).
/// Fills `local` (assumed zeroed).
Result<Relation> BinaryJoinImpl(const Query& query,
                                const std::vector<JoinPlanStep>& steps,
                                const Database& db, EvalStats* local) {
  CQB_RETURN_NOT_OK(ValidateJoinSteps(query, steps));
  std::vector<const Relation*> rels;
  CQB_ASSIGN_OR_RETURN(rels, ResolveAtoms(query, db));

  std::vector<int> bound_vars;
  std::vector<int> var_slot(query.num_variables(), -1);
  std::vector<Tuple> bindings = {Tuple{}};
  for (const JoinPlanStep& step : steps) {
    const Atom& atom = query.atoms()[step.atom_index];
    // Once no binding survives, the result is empty whatever the remaining
    // atoms hold: skip their index construction.
    if (bindings.empty()) {
      local->intermediate_sizes.push_back(0);
      continue;
    }

    // Split the atom's positions into key positions (variable already
    // bound), repeats (a new variable's later occurrence: an equality filter
    // against its first, compared as dictionary codes) and new positions
    // (a new variable's first occurrence).
    std::vector<int> key_positions;
    std::vector<int> key_refs;                  // binding index per key
    std::vector<std::pair<int, int>> repeats;   // (position, first position)
    std::vector<std::pair<int, int>> new_pos;   // (atom position, new var)
    std::vector<int> first_seen(query.num_variables(), -1);
    for (std::size_t p = 0; p < atom.vars.size(); ++p) {
      const int var = atom.vars[p];
      const int pos = static_cast<int>(p);
      if (var_slot[var] >= 0) {
        key_positions.push_back(pos);
        key_refs.push_back(var_slot[var]);
      } else if (first_seen[var] >= 0) {
        repeats.emplace_back(pos, first_seen[var]);
      } else {
        first_seen[var] = pos;
        new_pos.emplace_back(pos, var);
      }
    }

    // Index the relation's self-consistent live rows on the join key: a
    // row-chain view over the store's key columns (row ids -- nothing is
    // materialized), each key's rows in ascending row id.
    const ColumnStore& store = rels[step.atom_index]->store();
    KeyRows<1, 2> index(std::move(key_positions));
    index.LinkRows(store, store.size(), [&](std::size_t row) {
      if (!store.IsLive(row)) return false;
      for (const auto& [pos, first] : repeats) {
        if (store.CodeAt(row, pos) != store.CodeAt(row, first)) return false;
      }
      ++local->indexed_tuples;
      return true;
    });

    // Probe.
    for (const auto& [pos, var] : new_pos) {
      (void)pos;
      var_slot[var] = static_cast<int>(bound_vars.size());
      bound_vars.push_back(var);
    }
    std::vector<Tuple> next;
    std::vector<Value> key(key_refs.size());
    for (const Tuple& binding : bindings) {
      for (std::size_t i = 0; i < key_refs.size(); ++i) {
        key[i] = binding[key_refs[i]];
      }
      index.ForEachRow(store, key.data(), [&](std::uint32_t row) {
        Tuple extended = binding;
        for (const auto& [pos, var] : new_pos) {
          (void)var;
          extended.push_back(store.ValueAt(row, pos));
        }
        next.push_back(std::move(extended));
      });
    }
    bindings = std::move(next);

    // Project onto the keep set, dropping duplicates. Bindings over every
    // bound variable are distinct (each extends a distinct binding by a
    // distinct row), so a step that keeps them all in order skips this.
    if (step.keep_vars != bound_vars) {
      std::vector<int> kept_positions;
      kept_positions.reserve(step.keep_vars.size());
      for (int v : step.keep_vars) kept_positions.push_back(var_slot[v]);
      KeyCounts dedup(kept_positions.size());
      std::vector<Tuple> projected;
      projected.reserve(bindings.size());
      for (const Tuple& binding : bindings) {
        Tuple p;
        p.reserve(kept_positions.size());
        for (int pos : kept_positions) p.push_back(binding[pos]);
        if (++dedup.count(dedup.Insert(p.data())) == 1) {
          projected.push_back(std::move(p));
        }
      }
      for (int v : bound_vars) var_slot[v] = -1;
      for (std::size_t i = 0; i < step.keep_vars.size(); ++i) {
        var_slot[step.keep_vars[i]] = static_cast<int>(i);
      }
      bound_vars = step.keep_vars;
      bindings = std::move(projected);
    }

    local->intermediate_sizes.push_back(bindings.size());
  }

  for (std::size_t s : local->intermediate_sizes) {
    local->max_intermediate = std::max(local->max_intermediate, s);
    local->total_intermediate += s;
  }

  // Project onto the head variable list (which may repeat variables); the
  // validated plan keeps every head variable through its last step.
  Relation output(query.head_relation(),
                  static_cast<int>(query.head_vars().size()));
  std::vector<int> head_positions;
  head_positions.reserve(query.head_vars().size());
  if (!bindings.empty()) {
    for (int var : query.head_vars()) head_positions.push_back(var_slot[var]);
  }
  RowSink sink(&output, head_positions.size());
  for (const Tuple& binding : bindings) {
    for (int pos : head_positions) sink.block.push_back(binding[pos]);
    sink.EndRow();
  }
  sink.Flush();
  local->output_size = output.size();
  return output;
}

// --- Yannakakis semi-join reduction over the certified decomposition ------

/// Per-atom state of the semi-join reduction: the atom's distinct variables
/// (with every tuple position each occupies), the decomposition bag the
/// atom was assigned to, and its surviving rows (ids into the relation's
/// own ColumnStore -- stable for the call, so the common nothing-dropped
/// case copies no tuple at all).
struct ReductionAtom {
  std::vector<int> vars;     // distinct variable ids, sorted
  std::vector<int> var_pos;  // a representative tuple position per var
  /// Every tuple position each var occupies (parallel to `vars`); repeats
  /// are the intra-atom equality filters.
  std::vector<std::vector<int>> var_positions;
  int bag = -1;              // owning bag index, -1 for variable-free atoms
  int depth = 0;             // BFS depth of `bag` in the bag tree
  const ColumnStore* store = nullptr;  // backing store of the rows below
  std::vector<std::uint32_t> rows;     // surviving row ids
};

/// The cheap (tuple-free) part of survivor construction: variable layout
/// only, so the delta pass can filter its journal rows without scanning
/// any relation.
ReductionAtom MakeReductionAtom(const Atom& atom) {
  std::map<int, std::vector<int>> positions;  // var -> tuple positions
  for (std::size_t p = 0; p < atom.vars.size(); ++p) {
    positions[atom.vars[p]].push_back(static_cast<int>(p));
  }
  ReductionAtom a;
  for (auto& [v, ps] : positions) {
    a.vars.push_back(v);
    a.var_pos.push_back(ps.front());
    a.var_positions.push_back(std::move(ps));
  }
  return a;
}

/// Intra-atom repeated variables filter here, exactly as the trie build
/// would -- the reduction must not "drop" tuples the enumeration never
/// sees anyway. Code comparison: one dictionary per store, so code equality
/// is value equality.
bool SelfConsistent(const ReductionAtom& a, const ColumnStore& store,
                    std::size_t row) {
  for (const std::vector<int>& ps : a.var_positions) {
    const std::uint32_t code = store.CodeAt(row, ps[0]);
    for (std::size_t i = 1; i < ps.size(); ++i) {
      if (store.CodeAt(row, ps[i]) != code) return false;
    }
  }
  return true;
}

/// Assigns every atom to a bag of the certified decomposition (its distinct
/// variables form a clique of the variable-intersection graph, so a
/// containing bag exists) and records BFS bag depths. Returns false when
/// there is nothing to reduce or a bag assignment fails against an
/// uncertified decomposition -- the caller must then abandon the pass
/// *visibly* (stats and the plan tier's semi-join state must not mistake
/// the abandonment for a clean reduction).
bool AssignBags(const TreeDecomposition& td, const std::vector<int>& dense,
                std::vector<ReductionAtom>* atoms) {
  if (atoms->empty() || td.bags.empty()) return false;

  // Bag tree BFS from bag 0 (DecompositionFromOrdering chains components,
  // so the tree is connected): depth orders the up/down passes.
  std::vector<std::vector<int>> adj(td.bags.size());
  for (const auto& [a, b] : td.tree_edges) {
    adj[a].push_back(b);
    adj[b].push_back(a);
  }
  std::vector<int> depth(td.bags.size(), -1);
  std::vector<int> bfs{0};
  depth[0] = 0;
  for (std::size_t i = 0; i < bfs.size(); ++i) {
    for (int next : adj[bfs[i]]) {
      if (depth[next] < 0) {
        depth[next] = depth[bfs[i]] + 1;
        bfs.push_back(next);
      }
    }
  }

  for (ReductionAtom& a : *atoms) {
    if (a.vars.empty()) continue;  // nullary guard: nothing to share
    std::vector<int> dense_vars;
    dense_vars.reserve(a.vars.size());
    for (int v : a.vars) dense_vars.push_back(dense[v]);
    std::sort(dense_vars.begin(), dense_vars.end());
    a.bag = td.FindBagContaining(dense_vars);
    if (a.bag < 0) return false;
    a.depth = depth[a.bag];
  }
  return true;
}

using SemijoinState = EvalContext::SemijoinState;
using FilterStep = SemijoinState::FilterStep;

/// The deterministic semi-join schedule of one plan: atoms in deepest bags
/// first, each filtering every variable-sharing atom at the same or smaller
/// depth (the up pass), then the mirrored strictly-downward pass
/// (equal-depth pairs were already filtered in both directions going up, so
/// repeating them would only rebuild the same hash sets for a guaranteed
/// no-op). Semi-joins only remove tuples that cannot extend to a match of
/// the partner atom, so any schedule is sound; this tree-guided one is a
/// full reducer when sharing atoms sit in adjacent bags (chains, trees --
/// the alpha-acyclic shape Yannakakis 1981 targets). Pairs sharing no
/// variable are omitted (provable no-ops). Depends only on the plan (query
/// shape + certified decomposition), never on data, which is what lets the
/// delta pass cache one key set per step and replay the schedule over just
/// the appended tuples.
std::vector<FilterStep> BuildFilterSchedule(
    const std::vector<ReductionAtom>& atoms) {
  std::vector<std::size_t> up_order;
  for (std::size_t i = 0; i < atoms.size(); ++i) {
    if (atoms[i].bag >= 0) up_order.push_back(i);
  }
  std::stable_sort(up_order.begin(), up_order.end(),
                   [&atoms](std::size_t a, std::size_t b) {
                     return atoms[a].depth > atoms[b].depth;
                   });
  std::vector<FilterStep> steps;
  auto add_step = [&atoms, &steps](std::size_t src, std::size_t tgt) {
    FilterStep step;
    step.source = src;
    step.target = tgt;
    const ReductionAtom& s = atoms[src];
    const ReductionAtom& t = atoms[tgt];
    for (std::size_t i = 0, j = 0;
         i < s.vars.size() && j < t.vars.size();) {
      if (s.vars[i] < t.vars[j]) {
        ++i;
      } else if (s.vars[i] > t.vars[j]) {
        ++j;
      } else {
        step.src_pos.push_back(s.var_pos[i++]);
        step.tgt_pos.push_back(t.var_pos[j++]);
      }
    }
    if (!step.src_pos.empty()) steps.push_back(std::move(step));
  };
  for (std::size_t a : up_order) {
    for (std::size_t b : up_order) {
      if (a != b && atoms[b].depth <= atoms[a].depth) add_step(a, b);
    }
  }
  for (auto it = up_order.rbegin(); it != up_order.rend(); ++it) {
    for (std::size_t b : up_order) {
      if (*it != b && atoms[b].depth > atoms[*it].depth) add_step(*it, b);
    }
  }
  return steps;
}

/// Reads `row`'s values at `positions` into `*key`; returns its data.
const Value* ReadKey(const ColumnStore& store, std::uint32_t row,
                     const std::vector<int>& positions,
                     std::vector<Value>* key) {
  key->resize(positions.size());
  for (std::size_t i = 0; i < positions.size(); ++i) {
    (*key)[i] = store.ValueAt(row, positions[i]);
  }
  return key->data();
}

constexpr std::uint32_t kNoDrop = SemijoinState::kNoDrop;
constexpr std::uint32_t kOffBooks = SemijoinState::kOffBooks;
/// drop_step value, inside a delta pass only, of a row the pass tracks.
constexpr std::uint32_t kTracked = 0xFFFFFFFDu;

/// Executes `state`'s filter schedule over `atoms` (whose survivor row
/// lists must hold every live self-consistent row, with `store` set, and
/// whose drop_step arrays mark exactly those rows kNoDrop), recording per
/// step the source atom's semi-join key *support counts* as of that step
/// and, per dropped row, its first dropping step -- exactly the books the
/// counting delta pass adjusts later, so the key maps the pass builds
/// anyway are persisted instead of discarded. Keys are decoded values, not
/// codes: source and target live in different stores, so only values
/// compare across atoms.
void RunFullPass(std::vector<ReductionAtom>* atoms, SemijoinState* state,
                 EvalStats* local) {
  const std::vector<FilterStep>& steps = state->schedule;
  state->step_counts.clear();
  state->step_counts.reserve(steps.size());
  for (std::size_t s = 0; s < steps.size(); ++s) {
    const FilterStep& step = steps[s];
    ReductionAtom& source = (*atoms)[step.source];
    ReductionAtom& target = (*atoms)[step.target];
    KeyCounts& keys = state->step_counts.emplace_back(step.src_pos.size());
    local->semijoin_rows_visited += source.rows.size() + target.rows.size();
    std::vector<Value> key;
    for (const std::uint32_t row : source.rows) {
      ++keys.count(
          keys.Insert(ReadKey(*source.store, row, step.src_pos, &key)));
    }
    if (target.rows.empty()) continue;
    std::vector<std::uint32_t>& drops = state->drop_step[step.target];
    std::vector<std::uint32_t> kept;
    kept.reserve(target.rows.size());
    for (const std::uint32_t row : target.rows) {
      if (keys.CountOf(ReadKey(*target.store, row, step.tgt_pos, &key)) > 0) {
        kept.push_back(row);
      } else {
        drops[row] = static_cast<std::uint32_t>(s);
        ++state->dangling[step.target];
      }
    }
    target.rows = std::move(kept);
  }
}

/// Links the in-books rows of `drops` (one entry per physical row) that
/// `index` does not cover yet. Returns the number of rows scanned.
std::size_t LinkInBooks(SemijoinState::TargetKeyRows* index,
                        const ColumnStore& store,
                        const std::vector<std::uint32_t>& drops) {
  return index->LinkRows(store, drops.size(), [&drops](std::size_t row) {
    return drops[row] != kOffBooks;
  });
}

/// Variable-intersection graph of `query` (the Gaifman graph of the
/// canonical instance): one vertex per body variable (dense numbering via
/// `body`/`dense`), edges between variables sharing an atom.
Graph VariableIntersectionGraph(const Query& query, std::vector<int>* body,
                                std::vector<int>* dense) {
  const std::set<int> body_set = query.BodyVarSet();
  body->assign(body_set.begin(), body_set.end());
  dense->assign(query.num_variables(), -1);
  for (std::size_t i = 0; i < body->size(); ++i) {
    (*dense)[(*body)[i]] = static_cast<int>(i);
  }
  Graph g(static_cast<int>(body->size()));
  for (std::size_t i = 0; i < query.atoms().size(); ++i) {
    const std::set<int> vars = query.AtomVarSet(static_cast<int>(i));
    for (int u : vars) {
      for (int v : vars) {
        if (u < v) g.AddEdge((*dense)[u], (*dense)[v]);
      }
    }
  }
  return g;
}

// --- The hybrid plan: a full pass and a delta pass over SemijoinState ------

/// Builds atom `atom`'s survivor trie over `view`, charged as a trie-tier
/// miss. It must use the layout the enumeration derives from the binding
/// order (`rank`), or the override would not line up with the leapfrog's
/// levels.
std::shared_ptr<const TrieIndex> BuildSurvivorTrie(const Atom& atom,
                                                   const std::vector<int>& rank,
                                                   const RowView& view,
                                                   EvalStats* local) {
  AtomLayout layout = LayoutForAtom(atom, rank);
  ++local->trie_cache_misses;
  auto trie = std::make_shared<const TrieIndex>(view, layout.level_positions);
  local->indexed_tuples += trie->num_tuples();
  return trie;
}

/// The full pass: assigns every atom to a bag of the plan's certified
/// decomposition, computes the filter schedule, collects every atom's
/// survivors, runs the schedule, and publishes a fresh SemijoinState (the
/// schedule, the per-step support counts and the per-atom drop steps) for
/// later delta passes. An uncertified bag assignment abandons
/// the pass visibly (semijoin_pass_ran stays false) and drops any cached
/// state rather than serving views that no schedule can maintain.
void RunHybridFullPass(const Query& query,
                       const std::vector<const Relation*>& rels,
                       const std::vector<int>& rank,
                       std::vector<ReductionAtom>* atoms,
                       EvalContext::CachedPlan& plan, EvalStats* local,
                       TrieOverrides* overrides) CQB_REQUIRES(plan.skip_mu) {
  if (!AssignBags(plan.probe.tw.decomposition, plan.probe.dense, atoms)) {
    plan.semijoin.reset();
    return;
  }
  const std::size_t m = atoms->size();
  auto fresh = std::make_unique<SemijoinState>();
  fresh->schedule = BuildFilterSchedule(*atoms);
  fresh->drop_step.resize(m);
  fresh->dangling.assign(m, 0);
  for (std::size_t i = 0; i < m; ++i) {
    ReductionAtom& a = (*atoms)[i];
    a.store = &rels[i]->store();
    std::vector<std::uint32_t>& drops = fresh->drop_step[i];
    drops.assign(a.store->size(), kOffBooks);
    a.rows.reserve(rels[i]->size());
    for (std::size_t row = 0; row < a.store->size(); ++row) {
      if (a.store->IsLive(row) && SelfConsistent(a, *a.store, row)) {
        a.rows.push_back(static_cast<std::uint32_t>(row));
        drops[row] = kNoDrop;
      }
    }
    local->semijoin_rows_visited += a.store->size();
  }
  RunFullPass(atoms, fresh.get(), local);
  local->semijoin_pass_ran = true;
  fresh->key_rows.reserve(fresh->schedule.size());
  for (const FilterStep& step : fresh->schedule) {
    fresh->key_rows.emplace_back(step.tgt_pos);
  }
  fresh->generations.reserve(m);
  for (const Relation* rel : rels) {
    fresh->generations.push_back(rel->generation());
  }
  fresh->all_survive.assign(m, true);
  fresh->survivor_tries.assign(m, nullptr);
  for (std::size_t i = 0; i < m; ++i) {
    const std::size_t dropped = fresh->dangling[i];
    if (dropped == 0) continue;  // full-relation trie stays usable
    local->semijoin_dropped_tuples += dropped;
    local->semijoin_dangling_tuples += dropped;
    fresh->all_survive[i] = false;
    RowView view((*atoms)[i].store);
    view.rows = std::move((*atoms)[i].rows);
    fresh->survivor_tries[i] =
        BuildSurvivorTrie(query.atoms()[i], rank, view, local);
    (*overrides)[i] = fresh->survivor_tries[i];
  }
  plan.semijoin = std::move(fresh);
}

/// The counting delta pass: folds each atom's mutation window since
/// `state`'s generation vector (Relation::DeltasSince) into the cached
/// books. Per step it adjusts the cached key support counts by the rows
/// entering or leaving the source atom, then propagates only the *net* key
/// transitions: a key newly at support zero kills the target tuples leaning
/// on it, a key back from zero *revives* exactly the tuples this step
/// dropped for lacking it, and appended or revived tuples meet each later
/// step individually. The rows a transition touches are found through the
/// step's target-key index (KeyRows, built on the step's first transition),
/// not by scanning the target. Kills and revivals cascade (a changed row is
/// tracked, so it re-enters phase one wherever its atom is a source), and
/// the resulting survivor sets are identical to a from-scratch pass. The
/// books are edited in place: only the drop steps of tracked rows move, and
/// the dangling census is adjusted by their transitions. Cost is
/// O(delta . index work): the journal rows, the chains of the keys that
/// changed state, and one delta-constructor splice per changed survivor
/// view.
///
/// An unchanged generation vector makes every window empty: that is the
/// skip, reported as semijoin_pass_skipped with survivor_view_hits counting
/// the reused survivor views (any moved generation reports a delta pass,
/// even when the windows net out empty). Returns false, touching nothing,
/// when some window reaches past a structural break -- the caller then
/// runs the full pass.
bool RunHybridDeltaPass(const Query& query,
                        const std::vector<const Relation*>& rels,
                        const std::vector<int>& rank,
                        const std::vector<ReductionAtom>& atoms,
                        SemijoinState* state, EvalStats* local,
                        TrieOverrides* overrides) {
  const std::size_t m = atoms.size();
  const std::vector<FilterStep>& schedule = state->schedule;
  bool gens_match = true;
  std::vector<Relation::DeltaSet> deltas(m);
  for (std::size_t i = 0; i < m; ++i) {
    if (rels[i]->generation() != state->generations[i]) gens_match = false;
    if (!rels[i]->DeltasSince(state->generations[i], &deltas[i])) {
      return false;
    }
  }

  // A tracked row is one whose reduction fate may differ from the cached
  // books: appended, removed, killed, or revived. Everything untracked
  // provably keeps its old fate. A tracked row already on the books is
  // marked kTracked there until the pass writes its settled drop step.
  struct TrackedRow {
    std::uint32_t row;
    bool present_new;        // live in the new relation state
    bool appended;           // arrived in this delta window
    std::uint32_t old_drop;  // old pass's first drop step, kNoDrop
                             // if it survived (or just arrived)
    std::uint32_t new_drop;  // new pass's first drop step so far
  };
  std::vector<std::vector<TrackedRow>> tracked(m);
  auto track = [&tracked, state](std::size_t atom, TrackedRow t) {
    std::vector<std::uint32_t>& drops = state->drop_step[atom];
    if (t.row < drops.size()) drops[t.row] = kTracked;
    tracked[atom].push_back(t);
  };
  for (std::size_t i = 0; i < m; ++i) {
    const ColumnStore& store = rels[i]->store();
    const std::size_t window =
        deltas[i].appended_rows.size() + deltas[i].removed_rows.size();
    local->delta_tuples_processed += window;
    local->semijoin_rows_visited += window;
    for (const std::uint32_t row : deltas[i].appended_rows) {
      if (!SelfConsistent(atoms[i], store, row)) continue;
      track(i, TrackedRow{row, true, true, kNoDrop, kNoDrop});
    }
    for (const std::uint32_t row : deltas[i].removed_rows) {
      // Rows the base pass never saw (the repeated-variable filter) leave
      // no books to balance. Their tombstoned columns stay readable until
      // compaction, which DeltasSince already ruled out.
      if (!SelfConsistent(atoms[i], store, row)) continue;
      const std::uint32_t old_drop = state->drop_step[i][row];
      CQB_CHECK(old_drop != kOffBooks);
      track(i, TrackedRow{row, false, false, old_drop, kNoDrop});
    }
  }

  std::vector<Value> key;
  // (key id, +1 or -1) per count adjustment of the current step.
  std::vector<std::pair<std::uint32_t, int>> touched;
  std::vector<std::uint32_t> new_keys;
  std::vector<std::uint32_t> vanished;
  for (std::size_t s = 0; s < schedule.size(); ++s) {
    const FilterStep& step = schedule[s];
    KeyCounts& counts = state->step_counts[s];
    const ColumnStore& src_store = rels[step.source]->store();
    const ColumnStore& tgt_store = rels[step.target]->store();
    const std::uint32_t s32 = static_cast<std::uint32_t>(s);
    // Phase 1: adjust this step's support counts by every tracked source
    // row whose aliveness-at-this-step changed, noting each adjustment.
    touched.clear();
    for (const TrackedRow& t : tracked[step.source]) {
      const bool c_old = !t.appended && t.old_drop > s32;
      const bool c_new = t.present_new && t.new_drop > s32;
      if (c_old == c_new) continue;
      const std::uint32_t id =
          counts.Insert(ReadKey(src_store, t.row, step.src_pos, &key));
      if (c_new) {
        ++counts.count(id);
      } else {
        CQB_CHECK(counts.count(id) > 0);
        --counts.count(id);
      }
      touched.emplace_back(id, c_new ? 1 : -1);
    }
    // Phase 2: net key transitions -- a key's pre-step count is its count
    // now minus its net adjustment. Only 0 -> + and + -> 0 matter; a key
    // removed and re-added within one window nets out, so no kill/revive
    // cascade fires for it. A vanished key stays in the table at count 0.
    std::sort(touched.begin(), touched.end());
    new_keys.clear();
    vanished.clear();
    for (std::size_t i = 0; i < touched.size();) {
      const std::uint32_t id = touched[i].first;
      std::int64_t net = 0;
      for (; i < touched.size() && touched[i].first == id; ++i) {
        net += touched[i].second;
      }
      const std::int64_t newc = counts.count(id);
      if (newc == net && newc > 0) new_keys.push_back(id);
      if (newc == 0 && net < 0) vanished.push_back(id);
    }
    if (!vanished.empty() || !new_keys.empty()) {
      const std::vector<std::uint32_t>& drops = state->drop_step[step.target];
      SemijoinState::TargetKeyRows& index = state->key_rows[s];
      if (!index.built()) {
        local->semijoin_rows_visited += LinkInBooks(&index, tgt_store, drops);
      }
      // Phase 3: kills. A vanished key strands every target row that was
      // leaning on it (alive at this step in the old pass); rows already
      // tracked settle their fate in the re-check below.
      for (const std::uint32_t id : vanished) {
        index.ForEachRow(tgt_store, counts.key(id), [&](std::uint32_t row) {
          ++local->semijoin_rows_visited;
          const std::uint32_t old_drop = drops[row];
          if (old_drop == kOffBooks || old_drop == kTracked ||
              old_drop <= s32) {
            return;
          }
          track(step.target, TrackedRow{row, true, false, old_drop, s32});
        });
      }
      // Phase 4: revivals. A key back from zero re-admits exactly the rows
      // this step dropped for lacking it; later steps then judge them
      // individually.
      for (const std::uint32_t id : new_keys) {
        index.ForEachRow(tgt_store, counts.key(id), [&](std::uint32_t row) {
          ++local->semijoin_rows_visited;
          if (drops[row] != s32) return;
          track(step.target, TrackedRow{row, true, false, s32, kNoDrop});
        });
      }
    }
    // Phase 5: individual re-checks against the settled counts -- appended
    // rows meet each step for the first time, and tracked rows past their
    // old drop step have no recorded fate to reuse.
    for (TrackedRow& t : tracked[step.target]) {
      if (!t.present_new || t.new_drop != kNoDrop) continue;
      if (!t.appended && t.old_drop > s32) continue;
      if (counts.CountOf(ReadKey(tgt_store, t.row, step.tgt_pos, &key)) == 0) {
        t.new_drop = s32;
      }
    }
  }

  if (gens_match) {
    local->semijoin_pass_skipped = true;
  } else {
    local->semijoin_pass_ran = true;
    local->semijoin_delta_pass = true;
  }
  for (std::size_t i = 0; i < m; ++i) {
    state->generations[i] = rels[i]->generation();
    // Rows appended since the last pass start off the books; the tracked
    // ones among them get their fate below.
    // The books grow by one window at a time for a whole compaction epoch,
    // so an eighth of headroom is reserved instead of the vector's usual
    // doubling, which would hold up to twice the rows in memory.
    std::vector<std::uint32_t>& drops = state->drop_step[i];
    const std::size_t rows = rels[i]->store().size();
    if (rows > drops.capacity()) drops.reserve(rows + rows / 8);
    drops.resize(rows, kOffBooks);
    if (tracked[i].empty()) {
      if (state->survivor_tries[i] != nullptr) {
        (*overrides)[i] = state->survivor_tries[i];
        if (gens_match) ++local->survivor_view_hits;
      }
      local->semijoin_dangling_tuples += state->dangling[i];
      continue;
    }
    // Stats, the books, and the survivor-set delta (rows entering/leaving
    // the view), which feeds the survivor trie unpatch.
    RowView added(&rels[i]->store());
    RowView gone(&rels[i]->store());
    std::size_t& dangling = state->dangling[i];
    for (const TrackedRow& t : tracked[i]) {
      const bool now_in = t.present_new && t.new_drop == kNoDrop;
      const bool was_in = !t.appended && t.old_drop == kNoDrop;
      if (now_in && !was_in) added.rows.push_back(t.row);
      if (was_in && !now_in) gone.rows.push_back(t.row);
      if (!t.appended && t.present_new) {
        if (t.old_drop != kNoDrop && t.new_drop == kNoDrop) {
          ++local->semijoin_revived_tuples;
        }
        if (t.old_drop == kNoDrop && t.new_drop != kNoDrop) {
          ++local->semijoin_killed_tuples;
        }
      }
      const bool was_dangling = !t.appended && t.old_drop != kNoDrop;
      const bool now_dangling = t.present_new && t.new_drop != kNoDrop;
      if (now_dangling && !was_dangling) {
        ++local->semijoin_dropped_tuples;
        ++dangling;
      }
      if (was_dangling && !now_dangling) --dangling;
      drops[t.row] = t.present_new ? t.new_drop : kOffBooks;
    }
    state->all_survive[i] = dangling == 0;
    local->semijoin_dangling_tuples += dangling;
    if (dangling == 0) {
      // Every live tuple survives again: the trie tier's full-relation
      // trie serves enumeration, no view needed.
      state->survivor_tries[i] = nullptr;
    } else if (added.rows.empty() && gone.rows.empty() &&
               state->survivor_tries[i] != nullptr) {
      // Only the books moved (e.g. a dropped row re-dropped at another
      // step); the survivor row set -- and its cached view -- are
      // unchanged. A null cached view does NOT qualify: it stood for
      // "every live row survives", and the base relation may just have
      // grown past the survivors (an appended row that arrived dangling).
      (*overrides)[i] = state->survivor_tries[i];
    } else if (state->survivor_tries[i] != nullptr) {
      // Unpatch the cached survivor view by the row delta instead of
      // rebuilding it over the full survivor set.
      AtomLayout layout = LayoutForAtom(query.atoms()[i], rank);
      ++local->trie_cache_misses;
      auto trie = std::make_shared<const TrieIndex>(
          *state->survivor_tries[i], added, gone, layout.level_positions);
      local->indexed_tuples += trie->num_tuples();
      state->survivor_tries[i] = trie;
      (*overrides)[i] = trie;
    } else {
      // First drops for this atom since the full pass: no cached view to
      // unpatch, build one over the survivor set.
      RowView view(&rels[i]->store());
      for (std::size_t row = 0; row < drops.size(); ++row) {
        if (drops[row] == kNoDrop) {
          view.rows.push_back(static_cast<std::uint32_t>(row));
        }
      }
      state->survivor_tries[i] =
          BuildSurvivorTrie(query.atoms()[i], rank, view, local);
      (*overrides)[i] = state->survivor_tries[i];
    }
  }
  // Built key indexes take in the rows appended this window.
  for (std::size_t s = 0; s < schedule.size() && !gens_match; ++s) {
    SemijoinState::TargetKeyRows& index = state->key_rows[s];
    if (!index.built()) continue;
    const std::size_t target = schedule[s].target;
    local->semijoin_rows_visited += LinkInBooks(
        &index, rels[target]->store(), state->drop_step[target]);
  }
  return true;
}

/// The kHybridYannakakis executor. Probes the query's variable-intersection
/// graph through `ctx`'s plan tier (only the first evaluation of a query
/// shape pays for TreewidthExact); on width <= kHybridWidthThreshold it
/// reduces every atom by semi-joins up and down the certified
/// TreeDecomposition and then enumerates with the generic join over the
/// reduced relations, binding along the reverse elimination order.
/// Otherwise it is exactly the generic join over DefaultGenericJoinOrder.
/// The reduction is zero-copy: atoms that lost tuples hand a borrowed
/// filtered view of their survivors straight to trie construction. It runs
/// as a delta pass over the plan's cached SemijoinState when there is one
/// the journal can still bring up to date, and as a full pass otherwise;
/// the whole decision and either pass run under the plan's mutex, so
/// concurrent post-mutation evaluations of one shape serialize the pass and
/// the late arrivals find matching generations (an empty delta pass)
/// instead of duplicating the work. Mutations themselves never overlap
/// evaluations (the context's readers-xor-writer contract), so the
/// generation vector cannot move underneath the pass. A fully warm run on
/// unchanged generations performs zero TreewidthExact calls, zero
/// semi-joins, zero trie builds and zero tuple copies.
Result<Relation> HybridYannakakisImpl(const Query& query, const Database& db,
                                      EvalContext* ctx, ThreadPool* pool,
                                      EvalStats* local) {
  // Resolve before planning so metadata errors surface identically to the
  // other plans.
  std::vector<const Relation*> rels;
  CQB_ASSIGN_OR_RETURN(rels, ResolveAtoms(query, db));

  EvalContext::CachedPlan& plan = ctx->GetPlan(query, local);
  if (!plan.probe.low_width) {
    return GenericJoinImpl(query, db, DefaultGenericJoinOrder(query), ctx,
                           pool, /*overrides=*/nullptr, local);
  }
  // The certified reverse elimination order (the same order
  // ChooseGenericJoinOrder's tree path picks), with the atoms pre-filtered
  // through the certified decomposition.
  const std::vector<int>& order = plan.probe.order;
  std::vector<int> rank(query.num_variables(), -1);
  for (std::size_t d = 0; d < order.size(); ++d) {
    rank[order[d]] = static_cast<int>(d);
  }
  std::vector<ReductionAtom> atoms;
  atoms.reserve(query.atoms().size());
  for (const Atom& atom : query.atoms()) {
    atoms.push_back(MakeReductionAtom(atom));
  }
  TrieOverrides overrides(query.atoms().size());
  {
    MutexLock lock(plan.skip_mu);
    if (plan.semijoin == nullptr ||
        !RunHybridDeltaPass(query, rels, rank, atoms, plan.semijoin.get(),
                            local, &overrides)) {
      RunHybridFullPass(query, rels, rank, &atoms, plan, local, &overrides);
    }
  }
  return GenericJoinImpl(query, db, order, ctx, pool, &overrides, local);
}

}  // namespace

LowWidthProbe ProbeLowWidthStructure(const Query& query) {
  LowWidthProbe probe;
  Graph g = VariableIntersectionGraph(query, &probe.body, &probe.dense);
  const bool possibly_low_width =
      g.num_edges() <= std::max<std::size_t>(2 * g.num_vertices(), 3) - 3;
  if (probe.body.empty() || !possibly_low_width ||
      g.num_vertices() > kHybridExactVertexLimit) {
    return probe;
  }
  probe.probe_ran = true;
  probe.tw = TreewidthExact(g);
  probe.low_width =
      probe.tw.width >= 0 && probe.tw.width <= kHybridWidthThreshold;
  if (!probe.low_width) return probe;
  // Bind along the certified elimination order, last eliminated first: in
  // a reversed perfect-style elimination order every variable's
  // already-bound neighbours form a clique, so each leapfrog intersection
  // runs over tries narrowed by the same prefix.
  probe.order.reserve(probe.body.size());
  for (auto it = probe.tw.elimination_order.rbegin();
       it != probe.tw.elimination_order.rend(); ++it) {
    probe.order.push_back(probe.body[*it]);
  }
  return probe;
}

Result<Relation> EvaluateGenericJoin(const Query& query, const Database& db,
                                     const std::vector<int>& variable_order,
                                     EvalStats* stats) {
  if (stats != nullptr) *stats = EvalStats{};
  EvalContext scratch(db);
  EvalStats local;
  auto result = GenericJoinImpl(query, db, variable_order, &scratch,
                                /*pool=*/nullptr, /*overrides=*/nullptr,
                                &local);
  if (result.ok() && stats != nullptr) *stats = std::move(local);
  return result;
}

Result<Relation> ExecuteJoinSteps(const Query& query,
                                  const std::vector<JoinPlanStep>& steps,
                                  const Database& db, EvalStats* stats) {
  if (stats != nullptr) *stats = EvalStats{};
  EvalStats local;
  auto result = BinaryJoinImpl(query, steps, db, &local);
  if (result.ok() && stats != nullptr) *stats = std::move(local);
  return result;
}

const char* PlanKindName(PlanKind kind) {
  switch (kind) {
    case PlanKind::kNaive: return "naive";
    case PlanKind::kJoinProject: return "join-project";
    case PlanKind::kGenericJoin: return "generic-join";
    case PlanKind::kHybridYannakakis: return "hybrid-yannakakis";
  }
  return "unknown";
}

std::vector<int> ConnectedFirstOrder(
    const Query& query,
    const std::function<bool(int incumbent, int candidate)>& strictly_better) {
  // Co-occurrence adjacency, for the connected-first extension.
  std::map<int, std::set<int>> adjacent;
  for (std::size_t i = 0; i < query.atoms().size(); ++i) {
    std::set<int> vars = query.AtomVarSet(static_cast<int>(i));
    for (int u : vars) {
      for (int v : vars) {
        if (u != v) adjacent[u].insert(v);
      }
    }
  }
  std::vector<int> order;
  std::set<int> remaining = query.BodyVarSet();
  std::set<int> frontier;  // unordered vars adjacent to the ordered prefix
  while (!remaining.empty()) {
    const std::set<int>& candidates = frontier.empty() ? remaining : frontier;
    int best = -1;
    for (int v : candidates) {
      if (best < 0 || strictly_better(best, v)) best = v;
    }
    order.push_back(best);
    remaining.erase(best);
    frontier.erase(best);
    for (int v : adjacent[best]) {
      if (remaining.count(v)) frontier.insert(v);
    }
  }
  return order;
}

std::vector<int> DefaultGenericJoinOrder(const Query& query) {
  // Atom-degree of every body variable.
  std::map<int, int> degree;
  for (int v : query.BodyVarSet()) degree[v] = 0;
  for (std::size_t i = 0; i < query.atoms().size(); ++i) {
    for (int v : query.AtomVarSet(static_cast<int>(i))) ++degree[v];
  }
  return ConnectedFirstOrder(query, [&degree](int incumbent, int candidate) {
    return degree[candidate] > degree[incumbent];
  });
}

Result<Relation> EvaluateQuery(const Query& query, const Database& db,
                               PlanKind kind, EvalContext* ctx,
                               ThreadPool* pool, EvalStats* stats) {
  if (stats != nullptr) *stats = EvalStats{};
  std::optional<EvalContext> scratch;
  CQB_RETURN_NOT_OK(CheckContextDatabase(db, &ctx, &scratch));
  EvalStats local;
  auto run = [&]() -> Result<Relation> {
    switch (kind) {
      case PlanKind::kNaive:
      case PlanKind::kJoinProject:
        // The per-step hash indexes are query-position-specific and not
        // cached, so the binary-join plans read no context state.
        return BinaryJoinImpl(
            query, BodyOrderSteps(query, kind == PlanKind::kJoinProject), db,
            &local);
      case PlanKind::kGenericJoin:
        return GenericJoinImpl(query, db, DefaultGenericJoinOrder(query), ctx,
                               pool, /*overrides=*/nullptr, &local);
      case PlanKind::kHybridYannakakis:
        return HybridYannakakisImpl(query, db, ctx, pool, &local);
    }
    return Status::InvalidArgument("unknown plan kind");
  };
  auto result = run();
  if (result.ok() && stats != nullptr) *stats = std::move(local);
  return result;
}

Result<Relation> EvaluateQuery(const Query& query, const Database& db,
                               PlanKind kind, EvalContext* ctx,
                               EvalStats* stats) {
  return EvaluateQuery(query, db, kind, ctx, /*pool=*/nullptr, stats);
}

Result<Relation> EvaluateQuery(const Query& query, const Database& db,
                               PlanKind kind, EvalStats* stats) {
  return EvaluateQuery(query, db, kind, /*ctx=*/nullptr, /*pool=*/nullptr,
                       stats);
}

Relation EquiJoin(const Relation& left, const Relation& right,
                  const std::vector<std::pair<int, int>>& pairs,
                  const std::string& result_name) {
  // The position pairs are invariants of the call, not of any tuple:
  // validate them once up front, splitting them into each side's key.
  std::vector<int> left_positions, right_positions;
  for (const auto& [lp, rp] : pairs) {
    CQB_CHECK(lp >= 0 && lp < left.arity());
    CQB_CHECK(rp >= 0 && rp < right.arity());
    left_positions.push_back(lp);
    right_positions.push_back(rp);
  }
  Relation out(result_name, left.arity() + right.arity());
  // Index the right side's rows on its join key, in ascending row id.
  const ColumnStore& ls = left.store();
  const ColumnStore& rs = right.store();
  KeyRows<1, 2> index(std::move(right_positions));
  index.LinkRows(rs, rs.size(),
                 [&rs](std::size_t row) { return rs.IsLive(row); });
  RowSink joined(&out, static_cast<std::size_t>(out.arity()));
  std::vector<Value> key;
  for (std::size_t lrow = 0; lrow < ls.size(); ++lrow) {
    if (!ls.IsLive(lrow)) continue;
    const Value* lkey = ReadKey(ls, lrow, left_positions, &key);
    index.ForEachRow(rs, lkey, [&](std::uint32_t rrow) {
      for (int c = 0; c < left.arity(); ++c) {
        joined.block.push_back(ls.ValueAt(lrow, c));
      }
      for (int c = 0; c < right.arity(); ++c) {
        joined.block.push_back(rs.ValueAt(rrow, c));
      }
      joined.EndRow();
    });
  }
  joined.Flush();
  return out;
}

}  // namespace cqbounds
