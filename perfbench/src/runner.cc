#include "runner.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <sstream>
#include <thread>
#include <utility>

#include "trace.h"
#include "util/rng.h"
#include "workloads.h"

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

namespace perfbench {
namespace {

/// Linear-interpolated percentile of `sorted` (q in [0, 1]).
double Percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return Percentile(v, 0.5);
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

/// A percentile is reported only with at least ten samples beyond it.
bool Supported(std::size_t n, double q) {
  return static_cast<double>(n) * (1 - q) >= 10;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string CpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  if (__get_cpuid_max(0x80000000, nullptr) >= 0x80000004) {
    for (unsigned int i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002 + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    std::string model(reinterpret_cast<const char*>(regs), sizeof(regs));
    model = model.c_str();
    const auto first = model.find_first_not_of(' ');
    return first == std::string::npos ? "unknown" : model.substr(first);
  }
#endif
  return "unknown";
}

std::string Fixed(double v, int digits = 3) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", digits, v);
  return buf;
}

/// Latency summary line: sample count and every supported percentile.
std::string LatencyLine(const std::string& label, std::vector<double> ms) {
  std::sort(ms.begin(), ms.end());
  std::ostringstream os;
  os << label << ": n=" << ms.size();
  for (double q : {0.5, 0.9, 0.99}) {
    os << " p" << static_cast<int>(std::lround(q * 100)) << "=";
    if (Supported(ms.size(), q)) {
      os << Fixed(Percentile(ms, q)) << "ms";
    } else {
      os << "n/a";
    }
  }
  return os.str();
}

/// Span totals of the traced run, split by where the span sat.
struct SpanTotals {
  std::map<std::string, double> in_op_self_ns;  // self time inside op spans
  std::map<std::string, double> probe_ns;        // probe spans (outside ops)
  std::map<std::string, double> setup_ns;        // spans of the traced set-up
  double op_ns = 0;                               // sum of op span durations
  double ops = 0;
};

SpanTotals Summarize(const Tracer& tr) {
  SpanTotals t;
  const std::vector<Span>& spans = tr.spans();
  const std::vector<std::int64_t> self = tr.SelfTimesNs();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    int root = static_cast<int>(i);
    while (spans[root].parent >= 0) root = spans[root].parent;
    if (spans[root].name == "op") {
      t.in_op_self_ns[s.name] += static_cast<double>(self[i]);
      if (s.parent < 0) {
        t.op_ns += static_cast<double>(s.end_ns - s.start_ns);
        t.ops += 1;
      }
    } else if (s.op < 0) {
      t.setup_ns[s.name] += static_cast<double>(s.end_ns - s.start_ns);
    } else if (s.parent < 0) {
      t.probe_ns[s.name] += static_cast<double>(s.end_ns - s.start_ns);
    }
  }
  return t;
}

/// Reference kernel: fixed benchmark-owned work. The library never runs in
/// it, so its time tracks only how fast the machine is at the moment; on a
/// shared host that swings by up to 1.6x over seconds to minutes as other
/// tenants load the same cores and caches, while the work per op stays the
/// same. End-to-end times are calibrated: each is scaled by kRefNominalMs
/// over the mean of the kernel samples on either side of it (see README.md,
/// "Calibration"). The kernel is shaped like the workload's memory use:
/// kFlat (sort 16K words, index 2K of them in a std::map) for the relation
/// workloads, kHeap (11K small strings, 1.1K of them in a std::map keyed by
/// string) for the heap-bound analysis pipeline.
class RefKernel {
 public:
  explicit RefKernel(RefKernelKind kind) : kind_(kind) {}

  /// One run of the kernel, in ms.
  double Run() {
    const std::int64_t t0 = NowNs();
    if (kind_ == RefKernelKind::kFlat) {
      cqbounds::Rng rng(0x5eed);
      for (std::uint64_t& w : words_) w = rng.Next();
      std::sort(words_.begin(), words_.end());
      std::map<std::uint64_t, std::uint32_t> index;
      for (std::uint32_t i = 0; i < 2048; ++i) {
        index.emplace(words_[(i * 7919u) % words_.size()], i);
      }
      sink_ += index.size();
    } else {
      std::vector<std::unique_ptr<std::string>> strings;
      for (int i = 0; i < 11000; ++i) {
        strings.push_back(std::make_unique<std::string>(24 + i % 17, 'x'));
      }
      std::map<std::string, int> index;
      for (int i = 0; i < 1100; ++i) {
        index.emplace(*strings[(i * 7919) % strings.size()] +
                          std::to_string(i),
                      i);
      }
      sink_ += index.size();
    }
    return static_cast<double>(NowNs() - t0) / 1e6;
  }

  /// Median of three runs.
  double Sample() {
    std::vector<double> v = {Run(), Run(), Run()};
    std::sort(v.begin(), v.end());
    return v[1];
  }

 private:
  RefKernelKind kind_;
  std::vector<std::uint64_t> words_ = std::vector<std::uint64_t>(16384);
  std::size_t sink_ = 0;
};

/// The reference kernel's nominal time (either kind): about its median on
/// the machine the recorded results come from, so calibrated times read
/// close to raw ones there.
constexpr double kRefNominalMs = 1.7;
/// Between ops the kernel is sampled at most this often.
constexpr std::int64_t kRefEveryNs = 100000000;

using MetricFn = std::function<double()>;

struct MetricDef {
  std::string name;
  std::string unit;
};

const std::vector<MetricDef>& EndToEndDefs() {
  static const std::vector<MetricDef> defs = {
      {"op_ms_p50", "ms"}, {"ops_per_s", "1/s"},   {"ok_frac", "frac"},
      {"setup_s", "s"},    {"peak_rss_mb", "MB"},
  };
  return defs;
}

/// Every layer's metrics, in report order. `*_ms` is raw self time per
/// traced op (per probe for probes), `*.share` its share of the mean traced
/// op time.
std::vector<std::pair<MetricDef, MetricFn>> LayerMetrics(
    const Tracer& tr, const SpanTotals& t, double setup_traced_ns,
    double traced_p50, double untraced_p50, std::uint64_t compactions,
    double ref_ms) {
  auto c = [&tr](const char* name) { return tr.counter(name); };
  auto in_op = [&t](const char* name) {
    auto it = t.in_op_self_ns.find(name);
    return it == t.in_op_self_ns.end() ? 0.0 : it->second;
  };
  auto probe = [&t](const char* name) {
    auto it = t.probe_ns.find(name);
    return it == t.probe_ns.end() ? 0.0 : it->second;
  };
  auto setup = [&t](const char* name) {
    auto it = t.setup_ns.find(name);
    return it == t.setup_ns.end() ? 0.0 : it->second;
  };
  std::vector<std::pair<MetricDef, MetricFn>> m;
  auto op_layer = [&](const char* metric, const char* span) {
    m.push_back({{metric, "ms"},
                 [=] { return Ratio(in_op(span), t.ops) / 1e6; }});
    m.push_back({{std::string(metric) + ".share", "frac"},
                 [=] { return Ratio(in_op(span), t.op_ns); }});
  };
  // Probes run after every op, traced or not, so a probe's share is its
  // mean time over the mean traced op time.
  auto probe_layer = [&](const char* metric, const char* span,
                         const char* probes_counter) {
    m.push_back({{metric, "ms"},
                 [=] { return Ratio(probe(span), c(probes_counter)) / 1e6; }});
    m.push_back({{std::string(metric) + ".share", "frac"}, [=] {
                   return Ratio(Ratio(probe(span), c(probes_counter)),
                                Ratio(t.op_ns, t.ops));
                 }});
  };
  auto count = [&](const std::string& metric, const char* unit, MetricFn fn) {
    m.push_back({{metric, unit}, std::move(fn)});
  };

  count("tracing.traced_op_ms_p50", "ms", [=] { return traced_p50; });
  count("tracing.untraced_op_ms_p50", "ms", [=] { return untraced_p50; });
  count("tracing.overhead_ms", "ms", [=] { return traced_p50 - untraced_p50; });
  count("tracing.overhead_share", "frac",
        [=] { return Ratio(traced_p50 - untraced_p50, untraced_p50); });
  count("tracing.traced_ops", "count", [&t] { return t.ops; });
  count("calibration.ref_ms", "ms", [=] { return ref_ms; });
  op_layer("op.client_ms", "op");

  op_layer("text_io.read_ms", "text_io.read");
  count("text_io.ns_per_tuple", "ns", [=] {
    return Ratio(in_op("text_io.read") + setup("text_io.read"),
                 c("text_io.tuples"));
  });
  count("text_io.setup_share", "frac",
        [=] { return Ratio(setup("text_io.read"), setup_traced_ns); });

  probe_layer("column_store.sink_replay_ms", "column_store.sink_replay",
              "column_store.probes");
  count("column_store.sink_replay_ns_per_row", "ns", [=] {
    return Ratio(probe("column_store.sink_replay"), c("column_store.rows"));
  });

  op_layer("relation.mutate_ms", "relation.mutate");
  count("relation.mutate_us_per_tuple", "us", [=] {
    return Ratio(in_op("relation.mutate"), c("relation.tuples")) / 1e3;
  });
  count("relation.compactions", "count",
        [=] { return static_cast<double>(compactions); });

  op_layer("eval_context.plan_ms", "eval_context.plan");
  count("eval_context.plan_hit_ratio", "frac", [=] {
    return Ratio(c("eval_context.plan_hits"),
                 c("eval_context.plan_hits") + c("eval_context.plan_misses"));
  });
  count("graph.treewidth_probe_runs", "count",
        [=] { return c("graph.treewidth_probe_runs"); });

  op_layer("eval_context.trie_ms", "eval_context.trie");
  count("eval_context.trie_hit_ratio", "frac", [=] {
    return Ratio(c("eval_context.trie_hits"),
                 c("eval_context.trie_hits") + c("eval_context.trie_misses"));
  });
  for (const char* name :
       {"eval_context.trie_patches", "eval_context.trie_unpatches",
        "eval_context.trie_rebuilds", "trie_index.radix_builds",
        "trie_index.merge_builds"}) {
    count(name, "count", [=] { return c(name); });
  }

  op_layer("evaluate.eval_ms", "evaluate.eval");
  count("evaluate.seeks_per_op", "count",
        [=] { return Ratio(c("evaluate.seeks"), t.ops); });
  count("evaluate.output_rows_per_op", "count",
        [=] { return Ratio(c("evaluate.output_rows"), t.ops); });
  count("evaluate.projection_skips_per_op", "count",
        [=] { return Ratio(c("evaluate.projection_skips"), t.ops); });
  count("evaluate.ns_per_seek", "ns",
        [=] { return Ratio(in_op("evaluate.eval"), c("evaluate.seeks")); });
  count("evaluate.trie_refreshes", "count",
        [=] { return c("evaluate.trie_refreshes"); });

  probe_layer("semijoin.pass_ms", "semijoin.pass", "semijoin.probes");
  count("semijoin.delta_pass_ratio", "frac", [=] {
    return Ratio(c("semijoin.delta_passes"), c("semijoin.passes_run"));
  });
  count("semijoin.delta_tuples_per_op", "count",
        [=] {
          return Ratio(c("semijoin.delta_tuples"), c("semijoin.probes"));
        });
  count("semijoin.killed_per_op", "count",
        [=] { return Ratio(c("semijoin.killed"), c("semijoin.probes")); });
  count("semijoin.revived_per_op", "count",
        [=] { return Ratio(c("semijoin.revived"), c("semijoin.probes")); });
  count("semijoin.dangling", "count",
        [=] { return Ratio(c("semijoin.dangling"), c("semijoin.probes")); });

  count("thread_pool.workers_used", "count", [=] {
    return Ratio(c("thread_pool.workers"), c("thread_pool.probes"));
  });
  count("thread_pool.speedup", "x", [=] {
    return Ratio(c("thread_pool.serial_ns"), c("thread_pool.pooled_ns"));
  });

  op_layer("cq.chase_ms", "cq.chase");
  op_layer("core.size_bound_ms", "core.size_bound");
  op_layer("core.entropy_bound_ms", "core.entropy_bound");
  op_layer("core.size_increase_ms", "core.size_increase");
  op_layer("core.tw_preserve_ms", "core.tw_preserve");
  op_layer("core.join_plan_ms", "core.join_plan");

  for (const char* layer :
       {"text_io", "column_store", "relation", "eval_context", "evaluate",
        "semijoin", "thread_pool", "core"}) {
    const std::string name = std::string(layer) + ".errors";
    count(name, "count", [=] { return c(name.c_str()); });
  }
  return m;
}

}  // namespace

RunReport RunWorkload(const RunOptions& options) {
  RunReport report;
  Tracer tracer;
  std::unique_ptr<Workload> w = MakeWorkload(options.workload, options.scale);
  if (w == nullptr) {
    report.info.push_back("unknown workload " + options.workload);
    return report;
  }
  RefKernel ref(w->ref_kernel());
  std::vector<double> ref_ms;  // every kernel sample, for the info line
  std::vector<double> setup_s;      // raw
  std::vector<double> setup_cal_s;  // calibrated
  double setup_traced_ns = 0;
  bool setup_ok = true;
  double ref_before = ref.Sample();
  ref_ms.push_back(ref_before);
  for (int rep = 0; rep < std::max(1, options.setup_reps); ++rep) {
    if (rep > 0) {
      w.reset();
      w = MakeWorkload(options.workload, options.scale);
    }
    // The last set-up of a traced run records its spans.
    const bool traced = options.trace && rep + 1 == options.setup_reps;
    tracer.set_enabled(traced);
    tracer.set_op(-1);
    const std::int64_t t0 = NowNs();
    setup_ok = w->Setup(options.seed, &tracer) && setup_ok;
    const std::int64_t t1 = NowNs();
    tracer.set_enabled(false);
    setup_s.push_back(static_cast<double>(t1 - t0) / 1e9);
    if (traced) setup_traced_ns = static_cast<double>(t1 - t0);
    // Each set-up is calibrated by the kernel samples on either side.
    const double ref_after = ref.Sample();
    ref_ms.push_back(ref_after);
    setup_cal_s.push_back(setup_s.back() * 2 * kRefNominalMs /
                          (ref_before + ref_after));
    ref_before = ref_after;
  }

  // Closed loop, one client: the next op starts when the previous op, its
  // check and (traced run) its probes are done.
  std::vector<double> untraced_ms;
  std::vector<double> traced_ms;
  // Untraced ops are calibrated by the mean of the kernel samples taken
  // just before and just after them: ops wait in `pending` until the next
  // sample.
  std::vector<double> calibrated_ms;
  std::vector<double> pending;
  double ref_prev = ref_before;
  auto sample_kernel = [&] {
    const double ref_next = ref.Sample();
    ref_ms.push_back(ref_next);
    for (double op_ms : pending) {
      calibrated_ms.push_back(op_ms * 2 * kRefNominalMs /
                              (ref_prev + ref_next));
    }
    pending.clear();
    ref_prev = ref_next;
  };
  std::int64_t last_ref = NowNs();
  cqbounds::Rng coin(options.seed ^ 0x5eedc0ffeeull);
  const std::int64_t deadline =
      NowNs() + static_cast<std::int64_t>(options.seconds * 1e9);
  for (std::int64_t i = 0; setup_ok && NowNs() < deadline; ++i) {
    // A seeded coin picks the traced ops, so traced and untraced ops see
    // the same mix whatever a workload's rotation period.
    const bool traced = options.trace && coin.NextBool(1, 2);
    w->PrepareOp(i);
    tracer.set_enabled(traced);
    tracer.set_op(i);
    const int op_span = tracer.Begin("op");
    const std::int64_t t0 = NowNs();
    bool ok = w->RunOp(i, &tracer);
    const std::int64_t t1 = NowNs();
    tracer.End(op_span);
    tracer.set_enabled(false);
    if (i == options.corrupt_op) w->CorruptExpectationForTest();
    ok = w->CheckOp(i) && ok;
    ++report.attempted;
    if (!ok) ++report.failed;
    const double op_ms = static_cast<double>(t1 - t0) / 1e6;
    (traced ? traced_ms : untraced_ms).push_back(op_ms);
    if (!traced) pending.push_back(op_ms);
    if (options.trace) {
      tracer.set_enabled(true);
      w->Probe(i, &tracer);
      tracer.set_enabled(false);
    }
    if (NowNs() - last_ref >= kRefEveryNs) {
      sample_kernel();
      last_ref = NowNs();
    }
  }
  sample_kernel();
  const bool final_ok = setup_ok && w->CheckFinal();
  report.correct = setup_ok && final_ok && report.failed == 0 &&
                   report.attempted > 0;

  std::sort(untraced_ms.begin(), untraced_ms.end());
  std::sort(traced_ms.begin(), traced_ms.end());
  std::sort(calibrated_ms.begin(), calibrated_ms.end());
  if (!options.trace) {
    double total_ms = 0;
    for (double v : calibrated_ms) total_ms += v;
    const std::map<std::string, double> values = {
        {"op_ms_p50", Percentile(calibrated_ms, 0.5)},
        {"ops_per_s", Ratio(static_cast<double>(calibrated_ms.size()),
                            total_ms / 1e3)},
        {"ok_frac", 1.0 - Ratio(static_cast<double>(report.failed),
                                static_cast<double>(report.attempted))},
        {"setup_s", Median(setup_cal_s)},
        {"peak_rss_mb", PeakRssMb()},
    };
    for (const MetricDef& d : EndToEndDefs()) {
      report.metrics.push_back({d.name, values.at(d.name), d.unit});
    }
  } else {
    const SpanTotals totals = Summarize(tracer);
    const double traced_p50 = Percentile(traced_ms, 0.5);
    const double untraced_p50 = Percentile(untraced_ms, 0.5);
    for (const auto& [def, fn] :
         LayerMetrics(tracer, totals, setup_traced_ns, traced_p50,
                      untraced_p50, w->Compactions(), Median(ref_ms))) {
      report.metrics.push_back({def.name, fn(), def.unit});
    }
    if (!options.trace_path.empty() && !tracer.WriteJson(options.trace_path)) {
      report.info.push_back("could not write trace to " + options.trace_path);
      report.correct = false;
    }
  }

  report.info.push_back("workload " + options.workload + ": " + w->Describe());
  report.info.push_back(
      LatencyLine(options.trace ? "untraced ops" : "ops", untraced_ms));
  if (options.trace) {
    report.info.push_back(LatencyLine("traced ops", traced_ms));
  }
  std::ostringstream setup_line;
  setup_line << "setup: reps=" << setup_s.size() << " s=";
  for (std::size_t i = 0; i < setup_s.size(); ++i) {
    setup_line << (i ? "," : "") << Fixed(setup_s[i]);
  }
  report.info.push_back(setup_line.str());
  std::sort(ref_ms.begin(), ref_ms.end());
  report.info.push_back(
      "reference kernel: n=" + std::to_string(ref_ms.size()) + " min=" +
      Fixed(ref_ms.front(), 4) + "ms median=" + Fixed(Median(ref_ms), 4) +
      "ms max=" + Fixed(ref_ms.back(), 4) + "ms; calibrated op p50=" +
      Fixed(Percentile(calibrated_ms, 0.5)) + "ms (latencies above are raw)");
  std::ostringstream env;
  env << "env: nproc=" << std::thread::hardware_concurrency() << " cpu=\""
      << CpuModel() << "\" compiler=\"" << PERFBENCH_COMPILER
      << "\" build_type=" << PERFBENCH_BUILD_TYPE;
  report.info.push_back(env.str());
  report.info.push_back(std::string("final check: ") +
                        (final_ok ? "ok" : "FAILED"));
  return report;
}

std::string ResultJson(const RunReport& report) {
  std::ostringstream os;
  os.precision(17);
  os << "{\"correct\": " << (report.correct ? "true" : "false")
     << ", \"attempted\": " << report.attempted
     << ", \"failed\": " << report.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const Metric& m = report.metrics[i];
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    os << (i ? ", " : "") << "\"" << m.name << "\": {\"value\": " << v
       << ", \"unit\": \"" << m.unit << "\"}";
  }
  os << "}}";
  return os.str();
}

}  // namespace perfbench
