#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic nanoseconds (std::chrono::steady_clock).
inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One recorded interval around a call into a layer.
struct Span {
  std::string name;  // "<layer>.<call>", e.g. "evaluate.eval"
  std::string tag;   // free-form qualifier, e.g. the query's name
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;        // index into Tracer::spans(), -1 for a root
  std::int64_t op = -1;   // op id shared by every span of one op
};

/// In-memory span recorder. Spans nest by call order (a span begun while
/// another is open becomes its child); nothing is written until
/// WriteJson(). When disabled every call is a no-op, so the untraced phase
/// pays one branch per boundary. Single-threaded: spans are only recorded
/// from the benchmark's client thread, around the library's public calls.
class Tracer {
 public:
  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  /// Spans begun from now on belong to op `op` (-1: setup / probes).
  void set_op(std::int64_t op) { op_ = op; }

  /// Opens a span; returns its id, or -1 when disabled.
  int Begin(const std::string& name, const std::string& tag = "");
  /// Closes span `id` (a no-op for -1). Spans close in LIFO order.
  void End(int id);

  /// Adds `delta` to the named counter (no-op when disabled). Counters are
  /// recorded at the same boundaries as the spans, e.g. "evaluate.seeks".
  void Count(const std::string& name, double delta);

  const std::vector<Span>& spans() const { return spans_; }
  const std::map<std::string, double>& counters() const { return counters_; }
  double counter(const std::string& name) const;

  /// Per span: its duration minus the part of it its direct children cover.
  std::vector<std::int64_t> SelfTimesNs() const;

  /// Writes every span and counter as one JSON document; false on I/O
  /// failure.
  bool WriteJson(const std::string& path) const;

  void Clear();

 private:
  bool enabled_ = false;
  std::int64_t op_ = -1;
  std::vector<Span> spans_;
  std::vector<int> open_;
  std::map<std::string, double> counters_;
};

/// RAII span: opens on construction, closes on destruction or End().
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const std::string& name,
             const std::string& tag = "")
      : tracer_(tracer), id_(tracer->Begin(name, tag)) {}
  ~ScopedSpan() { End(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void End() {
    tracer_->End(id_);
    id_ = -1;
  }

 private:
  Tracer* tracer_;
  int id_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
