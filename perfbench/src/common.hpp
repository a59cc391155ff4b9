// Shared scaffolding of perfbench: run options, the metric
// sink every workload fills, timing and statistics helpers, and host
// facts. See perfbench/README.md for the workloads and metrics.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "trace.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}
[[nodiscard]] inline double ms_since(Clock::time_point t0) {
  return 1e3 * seconds_since(t0);
}

/// Set-ups per run; setup_s is their median.
constexpr int kSetupReps = 5;

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Tiny sizes for the smoke test: same code paths and gates, seconds
  /// instead of minutes.
  bool smoke = false;
  /// Chrome trace-event output of a traced run.
  std::string trace_out;
  /// cudanp-cc binary serve-mix spawns as its daemon and workers.
  std::string cudanp_cc;
  /// Directory for run-scoped scratch files (daemon socket, journals).
  std::string work_dir;
  /// Expected verdicts and exact fingerprints (fingerprints.json).
  std::string fingerprints;
  int nproc = 1;
};

/// What one run produced: gate counts plus named metrics with units.
struct RunResult {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  /// False when something other than an operation failed (setup,
  /// fingerprints that do not repeat within the run).
  bool sound = true;
  /// Operations the traced run recorded spans for; per-layer self times
  /// are reported per traced operation.
  double traced_ops = 1;
  std::map<std::string, std::pair<double, std::string>> metrics;
  std::vector<std::string> notes;

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  /// Records one gated operation; `ok` false counts it as failed and
  /// prints why.
  void gate(bool ok, const std::string& what);
  void note(const std::string& line) { notes.push_back(line); }
};

/// Median (linear interpolation between the middle pair).
[[nodiscard]] double median(std::vector<double> v);
/// Quantile q in [0,1], linear interpolation (numpy's default).
[[nodiscard]] double quantile(std::vector<double> v, double q);
/// The highest percentile in {99.9, 99, 95, 90} that leaves at least ten
/// samples beyond it; with fewer than 100 samples, the upper quartile
/// (the maximum of a handful of passes is one outlier, not a tail).
/// Returns the value and writes the percentile used.
[[nodiscard]] double tail_latency(const std::vector<double>& v, double* pct);
[[nodiscard]] double geomean(const std::vector<double>& v);

/// Peak resident set of this process (MiB).
[[nodiscard]] double self_peak_rss_mb();
/// Peak resident set of the largest waited-for descendant (MiB).
[[nodiscard]] double children_peak_rss_mb();

/// Exact values that must repeat run over run: simulated issue slots,
/// modelled seconds, chosen configs, verdicts, symbolic counts. Values
/// are strings so that doubles compare bit for bit.
using Fingerprint = std::map<std::string, std::string>;
/// A double rendered with every digit (round-trips exactly).
[[nodiscard]] std::string exact(double v);
/// Reads one section (a flat object of strings) of fingerprints.json;
/// empty when the file or section is missing.
[[nodiscard]] Fingerprint load_section(const std::string& path,
                                       const std::string& section);
/// Compares `seen` with the recorded section and prints one
/// "workload changed" line per differing key. A difference is a change
/// of the workload, not noise and not a failure. Also prints the
/// observed section so it can be re-recorded. Returns the count.
int report_fingerprint(const std::string& path, const std::string& section,
                       const Fingerprint& seen);

/// Everything the workloads need at hand.
struct Context {
  RunOptions opt;
  Tracer* tracer = nullptr;
};

RunResult run_paper_sim(const Context& ctx);
RunResult run_certify_suite(const Context& ctx);
RunResult run_serve_mix(const Context& ctx);

}  // namespace perfbench
