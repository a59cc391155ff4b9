// perfbench: the repo benchmark program.
//
//   perfbench --workload paper-sim|certify-suite|serve-mix --seed <n>
//             --seconds <s> --trace 0|1 [--smoke] [--work-dir <dir>]
//             [--source-id <text>]
//
// Human-readable lines (host facts, every metric with its unit,
// fingerprints, failures) go to stdout first; the last line is one JSON
// object {"correct", "attempted", "failed", "metrics"}. With --trace 0
// the metrics are the end-to-end set, with --trace 1 the per-layer set
// (a traced run also writes its spans as Chrome trace-event JSON to
// <work-dir>/../traces/<workload>-seed<n>.trace.json).
// Exit status: 0 with a result, 1 on usage errors, 2 when the run
// could not produce a result.
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "kernels/benchmark.hpp"

namespace perfbench {
namespace {

struct MetricDef {
  std::string name;
  std::string unit;
};

/// The end-to-end metrics every workload reports (BENCHMARK.json
/// "end_to_end" lists the same names).
std::vector<MetricDef> end_to_end_metrics() {
  return {{"setup_s", "s"},      {"ok_share", "share"},
          {"peak_rss_mb", "MB"}, {"op_p50_ms", "ms"},
          {"op_tail_ms", "ms"},  {"rate_per_s", "1/s"},
          {"modeled_np_speedup_gm", "x"}};
}

/// The per-layer metrics of a traced run (BENCHMARK.json "per_layer").
/// A workload that does not exercise a layer reports 0 for it.
std::vector<MetricDef> per_layer_metrics() {
  std::vector<MetricDef> m;
  const auto& names = cudanp::kernels::benchmark_names();
  for (const auto& b : names) {
    m.push_back({"sim.execute_ms." + b + ".base", "ms"});
    m.push_back({"sim.execute_ms." + b + ".np", "ms"});
  }
  m.push_back({"sim.bind_ms", "ms"});
  m.push_back({"sim.lower_ms", "ms"});
  for (const auto& b : names) m.push_back({"sim.issue_slots." + b, "count"});
  for (const auto& b : names) m.push_back({"sim.modeled_speedup." + b, "x"});
  for (const auto& b : names) m.push_back({"sim.pool_scaling." + b, "x"});
  for (const auto& b : names) m.push_back({"certify.cert_ms." + b, "ms"});
  for (const auto& b : names) m.push_back({"certify.symexec_ms." + b, "ms"});
  for (const auto& b : names) m.push_back({"certify.sym_nodes." + b, "count"});
  for (const auto& b : names) m.push_back({"certify.sym_steps." + b, "count"});
  m.push_back({"certify.empirical_ms", "ms"});
  m.push_back({"frontend.parse_ms", "ms"});
  m.push_back({"transform.transform_ms", "ms"});
  for (const char* s : {"serve.batch_ms", "serve.isolation_ms",
                        "serve.journal_ms", "serve.daemon_ms"})
    m.push_back({s, "ms"});
  m.push_back({"serve.cache_lookup_us", "us"});
  m.push_back({"serve.cache_store_us", "us"});
  m.push_back({"serve.cache_hit_ratio", "share"});
  m.push_back({"serve.workers_spawned", "count"});
  for (const char* l : {"frontend", "transform", "sim", "certify", "serve",
                        "bench"})
    m.push_back({std::string("layer.") + l + ".self_ms", "ms"});
  m.push_back({"trace.overhead_ms", "ms"});
  return m;
}

void usage() {
  std::cerr << "usage: perfbench --workload paper-sim|certify-suite|serve-mix"
               " --seed <n> --seconds <s> --trace 0|1\n"
               "                 [--smoke] [--work-dir <dir>]"
               " [--source-id <text>]\n";
}

bool parse_number(const char* text, double* out) {
  char* end = nullptr;
  errno = 0;
  double v = std::strtod(text, &end);
  if (end == text || *end != '\0' || errno != 0) return false;
  *out = v;
  return true;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunOptions opt;
  opt.cudanp_cc = PERFBENCH_CUDANP_CC;
  opt.fingerprints = PERFBENCH_SOURCE_DIR "/fingerprints.json";
  opt.work_dir = ".bench_build/work";
  std::string source_id = "unknown";
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    const char* v = i + 1 < argc ? argv[i + 1] : nullptr;
    double num = 0;
    if (a == "--smoke") {
      opt.smoke = true;
      continue;
    }
    if (!v) {
      usage();
      return 1;
    }
    ++i;
    if (a == "--workload") {
      opt.workload = v;
    } else if (a == "--seed" && parse_number(v, &num) && num >= 0) {
      opt.seed = static_cast<std::uint64_t>(num);
      have_seed = true;
    } else if (a == "--seconds" && parse_number(v, &num) && num > 0) {
      opt.seconds = num;
      have_seconds = true;
    } else if (a == "--trace" && (std::strcmp(v, "0") == 0 ||
                                  std::strcmp(v, "1") == 0)) {
      opt.trace = v[0] == '1';
      have_trace = true;
    } else if (a == "--work-dir") {
      opt.work_dir = v;
    } else if (a == "--source-id") {
      source_id = v;
    } else {
      std::cerr << "perfbench: bad argument " << a << " " << v << "\n";
      usage();
      return 1;
    }
  }
  RunResult (*run)(const Context&) = nullptr;
  if (opt.workload == "paper-sim") run = run_paper_sim;
  else if (opt.workload == "certify-suite") run = run_certify_suite;
  else if (opt.workload == "serve-mix") run = run_serve_mix;
  if (!run || !have_seed || !have_seconds || !have_trace) {
    usage();
    return 1;
  }
  opt.nproc = static_cast<int>(
      std::max(1u, std::thread::hardware_concurrency()));

  // A traced run's spans land next to the work directory; the
  // run-scoped scratch directory inside it is removed at exit.
  if (opt.trace)
    opt.trace_out = (std::filesystem::path(opt.work_dir).parent_path() /
                     "traces" /
                     (opt.workload + "-seed" + std::to_string(opt.seed) +
                      ".trace.json"))
                        .string();
  opt.work_dir += "/" + opt.workload + "-" + std::to_string(::getpid());
  std::error_code ec;
  std::filesystem::remove_all(opt.work_dir, ec);
  std::filesystem::create_directories(opt.work_dir, ec);
  if (ec) {
    std::cerr << "perfbench: cannot create " << opt.work_dir << ": "
              << ec.message() << "\n";
    return 2;
  }

  std::cout << "host: nproc=" << opt.nproc
            << " build=" << PERFBENCH_BUILD_TYPE
            << " compiler=\"" << PERFBENCH_COMPILER << "\" source="
            << source_id << "\n";
  std::cout << "run: workload=" << opt.workload << " seed=" << opt.seed
            << " seconds=" << opt.seconds << " trace=" << opt.trace
            << (opt.smoke ? " smoke" : "") << "\n";

  Tracer tracer(opt.trace, opt.workload);
  Context ctx{opt, &tracer};
  RunResult res;
  try {
    res = run(ctx);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << opt.workload << " failed: " << e.what()
              << "\n";
    std::filesystem::remove_all(opt.work_dir, ec);
    return 2;
  }
  std::filesystem::remove_all(opt.work_dir, ec);
  if (res.attempted < 1) {
    std::cerr << "perfbench: no operation was attempted\n";
    return 2;
  }

  for (const auto& n : res.notes) std::cout << "note: " << n << "\n";
  const auto defs = opt.trace ? per_layer_metrics() : end_to_end_metrics();
  if (opt.trace) {
    const auto self = tracer.layer_self_ms();
    for (const auto& [layer, ms] : self)
      res.metric("layer." + layer + ".self_ms",
                 ms / std::max(1.0, res.traced_ops), "ms");
    std::filesystem::create_directories(
        std::filesystem::path(opt.trace_out).parent_path(), ec);
    std::map<std::string, std::string> meta = {
        {"workload", opt.workload},
        {"seed", std::to_string(opt.seed)},
        {"nproc", std::to_string(opt.nproc)},
        {"build_type", PERFBENCH_BUILD_TYPE},
        {"compiler", PERFBENCH_COMPILER},
        {"source", source_id}};
    if (tracer.write_chrome(opt.trace_out, meta))
      std::cout << "trace: " << tracer.size() << " spans written to "
                << opt.trace_out << "\n";
    else
      std::cout << "trace: cannot write " << opt.trace_out << "\n";
  } else {
    res.metric("ok_share",
               static_cast<double>(res.attempted - res.failed) /
                   static_cast<double>(res.attempted),
               "share");
  }

  std::string json = "{";
  bool complete = true;
  for (std::size_t i = 0; i < defs.size(); ++i) {
    const MetricDef& d = defs[i];
    double value = 0;
    auto it = res.metrics.find(d.name);
    if (it != res.metrics.end() && std::isfinite(it->second.first)) {
      value = it->second.first;
    } else if (!opt.trace || it != res.metrics.end()) {
      std::cout << "FAIL metric " << d.name << " has no finite value\n";
      complete = false;
    }
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    std::cout << "metric " << d.name << " = " << buf << " " << d.unit << "\n";
    json += (i ? ", \"" : "\"") + d.name + "\": {\"value\": " + buf +
            ", \"unit\": \"" + d.unit + "\"}";
  }
  json += "}";
  const bool correct = res.failed == 0 && res.sound && complete;
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << res.attempted
            << ", \"failed\": " << res.failed << ", \"metrics\": " << json
            << "}" << std::endl;
  return 0;
}
