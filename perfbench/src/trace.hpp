// In-memory span recorder for traced benchmark runs.
//
// A span is one call into a layer, recorded by the benchmark's own code
// around the call: name ("<layer>.<what>"), start, end, explicit parent
// span, the workload, and an operation id shared by every span of one
// operation (a pass, a compile, a request). Spans stay in memory and
// are written once, at exit, as Chrome trace-event JSON (Perfetto and
// chrome://tracing read it). Self time of a span is its duration minus
// the part its children cover; a layer's self time is the sum over its
// spans. With tracing off, begin() returns kNone without reading the
// clock, so the untraced runs pay one branch per call site.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;    // "<layer>.<what>"
  std::string detail;  // e.g. the benchmark and variant
  double start_us = 0;
  double end_us = 0;
  int parent = -1;
  std::uint64_t op = 0;
  int thread = 0;
};

class Tracer {
 public:
  static constexpr int kNone = -1;
  static constexpr std::uint64_t kSideOps = 1'000'000;

  Tracer(bool on, std::string workload);

  [[nodiscard]] bool on() const { return on_; }
  /// Opens a span; returns its id (kNone when tracing is off).
  int begin(const std::string& name, std::uint64_t op, int parent = kNone,
            const std::string& detail = {});
  void end(int id);

  /// Layer ("frontend", "sim", ...) -> summed self time in ms over the
  /// spans of operations below `op_limit` (side measurements use ids
  /// from kSideOps up and stay out of the breakdown).
  [[nodiscard]] std::map<std::string, double> layer_self_ms(
      std::uint64_t op_limit = kSideOps) const;
  /// Summed duration (ms) of spans named `name`, optionally restricted
  /// to one detail string.
  [[nodiscard]] double total_ms(const std::string& name,
                                const std::string& detail = {}) const;
  [[nodiscard]] std::size_t size() const;

  /// Writes every span as Chrome trace-event JSON; `meta` lands in the
  /// document's "metadata" object. Returns false on I/O failure.
  bool write_chrome(const std::string& path,
                    const std::map<std::string, std::string>& meta) const;

 private:
  [[nodiscard]] double now_us() const;

  bool on_;
  std::string workload_;
  std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span: opens in the constructor, closes in the destructor.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* t, const std::string& name, std::uint64_t op,
             int parent = Tracer::kNone, const std::string& detail = {})
      : t_(t), id_(t ? t->begin(name, op, parent, detail) : Tracer::kNone) {}
  ~ScopedSpan() {
    if (t_) t_->end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  [[nodiscard]] int id() const { return id_; }

 private:
  Tracer* t_;
  int id_;
};

}  // namespace perfbench
