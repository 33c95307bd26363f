#include "trace.h"

#include <fstream>

namespace perfbench {

int Tracer::Begin(const std::string& name, const std::string& tag) {
  if (!enabled_) return -1;
  Span span;
  span.name = name;
  span.tag = tag;
  span.parent = open_.empty() ? -1 : open_.back();
  span.op = op_;
  spans_.push_back(std::move(span));
  const int id = static_cast<int>(spans_.size()) - 1;
  open_.push_back(id);
  // Read the clock last, so the bookkeeping above lands in the parent.
  spans_[id].start_ns = NowNs();
  return id;
}

void Tracer::End(int id) {
  if (id < 0) return;
  const std::int64_t now = NowNs();
  spans_[id].end_ns = now;
  // LIFO: closing a span also closes any child left open by an early exit.
  while (!open_.empty()) {
    const int top = open_.back();
    open_.pop_back();
    if (top == id) break;
    spans_[top].end_ns = now;
  }
}

void Tracer::Count(const std::string& name, double delta) {
  if (enabled_) counters_[name] += delta;
}

double Tracer::counter(const std::string& name) const {
  auto it = counters_.find(name);
  return it == counters_.end() ? 0.0 : it->second;
}

std::vector<std::int64_t> Tracer::SelfTimesNs() const {
  std::vector<std::int64_t> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] = spans_[i].end_ns - spans_[i].start_ns;
  }
  for (const Span& span : spans_) {
    if (span.parent >= 0) self[span.parent] -= span.end_ns - span.start_ns;
  }
  return self;
}

namespace {

void WriteJsonString(std::ostream& out, const std::string& s) {
  out << '"';
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out << '\\' << c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out << ' ';
    } else {
      out << c;
    }
  }
  out << '"';
}

}  // namespace

bool Tracer::WriteJson(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"spans\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\": " << i << ", \"name\": ";
    WriteJsonString(out, s.name);
    out << ", \"tag\": ";
    WriteJsonString(out, s.tag);
    out << ", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
        << ", \"parent\": " << s.parent << ", \"op\": " << s.op << "}"
        << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "], \"counters\": {";
  bool first = true;
  for (const auto& [name, value] : counters_) {
    out << (first ? "\n" : ",\n");
    first = false;
    WriteJsonString(out, name);
    out << ": " << value;
  }
  out << "}}\n";
  out.close();
  return static_cast<bool>(out);
}

void Tracer::Clear() {
  spans_.clear();
  open_.clear();
  counters_.clear();
}

}  // namespace perfbench
