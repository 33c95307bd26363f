#ifndef PERFBENCH_RUNNER_H_
#define PERFBENCH_RUNNER_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  /// false: end-to-end metrics, tracing off. true: ops alternate between
  /// untraced and traced blocks, probes run after each op, and the
  /// per-layer metrics are derived from the spans.
  bool trace = false;
  /// Where the traced run writes its spans (empty: not written).
  std::string trace_path;
  /// Instance size multiplier (the self-test shrinks it).
  double scale = 1.0;
  /// Set-ups per run; setup_s is their median.
  int setup_reps = 3;
  /// Self-test hook: the answer check of this op index compares against a
  /// deliberately wrong expectation (-1: none).
  std::int64_t corrupt_op = -1;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RunReport {
  bool correct = false;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<Metric> metrics;
  /// Human-readable lines (sample counts, percentiles, instance, build).
  std::vector<std::string> info;
};

/// Runs one workload in this process: set-up `setup_reps` times, then ops in
/// a closed loop for `seconds`, checking every answer outside the timed
/// interval.
RunReport RunWorkload(const RunOptions& options);

/// The report's result line: one JSON object with exactly the keys
/// correct, attempted, failed and metrics.
std::string ResultJson(const RunReport& report);

}  // namespace perfbench

#endif  // PERFBENCH_RUNNER_H_
