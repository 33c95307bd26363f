// Self-test of the benchmark harness: span nesting and self-time
// accounting, pre-acquisition keeping trie refresh out of evaluate, and a
// wrong answer being counted as a failure. Runs every workload at a small
// scale. Exit code 0 iff every check passes.
//
//   perfbench_selftest        (also registered with ctest)

#include <cstdint>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "runner.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr double kScale = 0.05;
constexpr double kSeconds = 0.3;

int failures = 0;

void Expect(bool ok, const std::string& what) {
  std::cout << (ok ? "[ ok ] " : "[FAIL] ") << what << "\n";
  if (!ok) ++failures;
}

/// Runs `ops` traced ops (with probes) of `name` directly against a Tracer.
Tracer TraceOps(const std::string& name, int ops) {
  Tracer tr;
  std::unique_ptr<Workload> w = MakeWorkload(name, kScale);
  tr.set_enabled(true);
  tr.set_op(-1);
  Expect(w->Setup(7, &tr), name + ": set-up succeeds");
  for (int i = 0; i < ops; ++i) {
    w->PrepareOp(i);
    tr.set_op(i);
    const int op = tr.Begin("op");
    Expect(w->RunOp(i, &tr), name + ": op " + std::to_string(i) + " runs");
    tr.End(op);
    Expect(w->CheckOp(i), name + ": op " + std::to_string(i) + " answer");
    w->Probe(i, &tr);
  }
  return tr;
}

void CheckSpans(const std::string& name, const Tracer& tr) {
  const std::vector<Span>& spans = tr.spans();
  const std::vector<std::int64_t> self = tr.SelfTimesNs();
  bool nested = true;
  bool non_negative = true;
  std::map<int, std::int64_t> subtree_self;  // op root -> sum of self times
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    non_negative = non_negative && self[i] >= 0 && s.end_ns >= s.start_ns;
    if (s.parent >= 0) {
      const Span& p = spans[s.parent];
      nested = nested && s.parent < static_cast<int>(i) &&
               p.start_ns <= s.start_ns && s.end_ns <= p.end_ns && p.op == s.op;
    }
    int root = static_cast<int>(i);
    while (spans[root].parent >= 0) root = spans[root].parent;
    if (spans[root].name == "op") subtree_self[root] += self[i];
  }
  bool sums = !subtree_self.empty();
  for (const auto& [root, total] : subtree_self) {
    sums = sums && total == spans[root].end_ns - spans[root].start_ns;
  }
  Expect(nested, name + ": child spans nest inside their parent");
  Expect(non_negative, name + ": self times are non-negative");
  Expect(sums, name + ": self times of an op sum to its op span");
}

void CheckNoRefreshInEvaluate(const std::string& name, const Tracer& tr) {
  Expect(tr.counter("evaluate.calls") > 0, name + ": evaluations traced");
  Expect(tr.counter("evaluate.trie_refreshes") == 0,
         name + ": no trie patch/unpatch/rebuild inside EvaluateQuery after "
                "pre-acquisition");
}

void CheckWrongAnswerCounted(const std::string& name) {
  RunOptions options;
  options.workload = name;
  options.seed = 11;
  options.seconds = kSeconds;
  options.scale = kScale;
  options.setup_reps = 1;
  const RunReport clean = RunWorkload(options);
  Expect(clean.correct && clean.failed == 0 && clean.attempted > 0,
         name + ": clean run is correct");
  options.corrupt_op = 0;
  const RunReport bad = RunWorkload(options);
  double ok_frac = 1;
  for (const Metric& m : bad.metrics) {
    if (m.name == "ok_frac") ok_frac = m.value;
  }
  Expect(!bad.correct && bad.failed == 1 && ok_frac < 1,
         name + ": a wrong answer is counted as a failure");
}

}  // namespace
}  // namespace perfbench

int main() {
  using namespace perfbench;
  for (const std::string& name : WorkloadNames()) {
    // Churn needs a few ops for its delta paths; 12 crosses a fresh check.
    const Tracer tr = TraceOps(name, name == "churn" ? 12 : 6);
    CheckSpans(name, tr);
    if (name != "analyze_mix") CheckNoRefreshInEvaluate(name, tr);
    CheckWrongAnswerCounted(name);
  }
  std::cout << (failures == 0 ? "PASS" : "FAIL") << " (" << failures
            << " failures)\n";
  return failures == 0 ? 0 : 1;
}
