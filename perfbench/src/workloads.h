#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "trace.h"

namespace perfbench {

/// Which reference kernel calibrates a workload's times (runner.cc).
enum class RefKernelKind { kFlat, kHeap };

/// One closed-loop workload: a seeded instance plus an op the runner repeats
/// back to back from a single client thread. The runner times RunOp only;
/// CheckOp, Probe and CheckFinal run outside the timed interval.
class Workload {
 public:
  virtual ~Workload() = default;

  /// Generates the instance from `seed`, loads it through the library and
  /// warms every cache the op reuses; computes the expected answers.
  /// Returns false if a library call failed. Loading is traced when `tr` is
  /// enabled.
  virtual bool Setup(std::uint64_t seed, Tracer* tr) = 0;

  /// Untimed preparation of op `index` (e.g. drawing a mutation batch).
  virtual void PrepareOp(std::int64_t index) { (void)index; }

  /// Op `index`. Returns false iff a library call returned a non-OK status
  /// (or a mutation the client knows must succeed did not). When `tr` is
  /// enabled the op records a span around every public call it makes and
  /// pre-acquires plans and tries before each evaluation.
  virtual bool RunOp(std::int64_t index, Tracer* tr) = 0;

  /// Answer check for the op just run.
  virtual bool CheckOp(std::int64_t index) = 0;

  /// Layer probes run after op `index` in the traced run, outside the op
  /// span (sink replay, serial-vs-pooled, semi-join pass).
  virtual void Probe(std::int64_t index, Tracer* tr) {
    (void)index;
    (void)tr;
  }

  /// End-of-run state check.
  virtual bool CheckFinal() { return true; }

  /// Tombstone compactions the workload's relations have run so far.
  virtual std::uint64_t Compactions() const { return 0; }

  /// Self-test hook: makes the next CheckOp compare against a deliberately
  /// wrong expectation, so a correct answer must be reported as a failure.
  virtual bool CorruptExpectationForTest() { return false; }

  /// The reference kernel shaped like this workload's memory use.
  virtual RefKernelKind ref_kernel() const { return RefKernelKind::kFlat; }

  /// One-line description of the instance, for the run's info output.
  virtual std::string Describe() const = 0;
};

/// The benchmark's workloads, in BENCHMARK.json order.
const std::vector<std::string>& WorkloadNames();

/// Creates workload `name`, or null for an unknown name. `scale` multiplies
/// every instance size (1 for the benchmark; the self-test shrinks it).
std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       double scale = 1.0);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
