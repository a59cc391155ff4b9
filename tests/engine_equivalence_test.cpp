// Pinned-execution contract for the bytecode VM: every launch below must
// reproduce, bit for bit, a golden record (tests/golden/engine_records.txt,
// format in tests/golden_record.hpp) of its cost-model stats, modelled
// seconds, output-buffer hash, sanitizer hazard stream and watchdog trip
// point. The records were produced while the simulator still had a
// second, recursive-AST engine, with both engines and both job counts
// asserted identical, so they keep that reference role now that the VM is
// the only engine. The suite names are kept from that two-engine
// comparison.
//
// Inputs: the paper suite (baseline, sanitized baseline and every NP
// variant) at jobs 1 and 8, a spinning kernel under the watchdog, a racy
// kernel under the sanitizer and 25 seeded divergent-control-flow
// kernels. Output *values* are checked against independent oracles
// elsewhere: the all-concrete symbolic run (symexec_concrete_test, which
// also runs the divergent-fuzz corpus) and the CPU references
// (integration_test).
//
// On a mismatch the test prints the actual record; replace the golden
// entry only for a deliberate semantic change.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "divergent_fuzz_kernels.hpp"
#include "golden_record.hpp"
#include "kernels/benchmark.hpp"
#include "np/compiler.hpp"
#include "np/runner.hpp"
#include "sim/interpreter.hpp"

namespace cudanp {
namespace {

constexpr double kTestScale = 0.05;

const std::map<std::string, std::string>& golden_records() {
  static const auto records = golden::load(CUDANP_ENGINE_RECORDS);
  return records;
}

/// Checks `actual` against the golden record `key`, printing the whole
/// actual entry on a mismatch.
void expect_record(const std::string& key, const std::string& actual) {
  const auto& records = golden_records();
  ASSERT_FALSE(records.empty()) << "cannot read " << CUDANP_ENGINE_RECORDS;
  auto it = records.find(key);
  if (it == records.end()) {
    ADD_FAILURE() << "no golden record for this launch; actual:\n"
                  << golden::entry(key, actual);
    return;
  }
  EXPECT_EQ(it->second, actual) << "actual:\n" << golden::entry(key, actual);
}

/// Runs the request on a fresh workload and renders its record: the
/// launch record, or the trip record when an unsanitized run trips the
/// watchdog.
template <typename MakeWorkload, typename MakeRequest>
std::string run_record(const MakeWorkload& make_workload,
                       const MakeRequest& make_request, int jobs,
                       bool sanitize) {
  np::Runner runner{sim::DeviceSpec::gtx680()};
  np::Workload w = make_workload();
  np::ExecutionRequest req = make_request(w);
  req.with_jobs(jobs);
  if (sanitize) req.sanitized();
  try {
    auto out = runner.execute(req);
    return golden::launch_record(out.run, out.ran, out.hazards(), *w.mem);
  } catch (const sim::WatchdogError& e) {
    return golden::trip_record(e);
  }
}

template <typename MakeWorkload, typename MakeRequest>
void expect_pinned(const std::string& key, const MakeWorkload& make_workload,
                   const MakeRequest& make_request, int jobs, bool sanitize) {
  SCOPED_TRACE(key + " jobs=" + std::to_string(jobs));
  expect_record(key, run_record(make_workload, make_request, jobs, sanitize));
}

class EngineEquivalence
    : public ::testing::TestWithParam<std::tuple<std::string, int>> {};

TEST_P(EngineEquivalence, BaselineBitIdentical) {
  auto [name, jobs] = GetParam();
  auto bench = kernels::make_benchmark(name, kTestScale);
  expect_pinned(
      "baseline/" + name, [&] { return bench->make_workload(); },
      [&](np::Workload& w) {
        return np::ExecutionRequest::baseline(bench->kernel(), w);
      },
      jobs, /*sanitize=*/false);
}

TEST_P(EngineEquivalence, BaselineSanitizedHazardStreamIdentical) {
  auto [name, jobs] = GetParam();
  auto bench = kernels::make_benchmark(name, kTestScale);
  expect_pinned(
      "baseline-sanitized/" + name, [&] { return bench->make_workload(); },
      [&](np::Workload& w) {
        return np::ExecutionRequest::baseline(bench->kernel(), w);
      },
      jobs, /*sanitize=*/true);
}

TEST_P(EngineEquivalence, EveryNpVariantBitIdentical) {
  auto [name, jobs] = GetParam();
  auto bench = kernels::make_benchmark(name, kTestScale);
  auto probe = bench->make_workload();
  auto configs = np::NpCompiler::enumerate_configs(
      bench->kernel(), static_cast<int>(probe.launch.block.count()),
      sim::DeviceSpec::gtx680());
  ASSERT_FALSE(configs.empty());
  const std::string prefix = "variant/" + name + "/";
  std::set<std::string> executed;
  for (const auto& cfg : configs) {
    transform::TransformResult variant;
    try {
      variant = np::NpCompiler::transform(bench->kernel(), cfg);
    } catch (const CompileError&) {
      continue;  // configuration legitimately inapplicable
    }
    const std::string key = prefix + cfg.describe();
    expect_pinned(
        key, [&] { return bench->make_workload(); },
        [&](np::Workload& w) {
          return np::ExecutionRequest::transformed(variant, w);
        },
        jobs, /*sanitize=*/false);
    executed.insert(key);
  }
  EXPECT_FALSE(executed.empty());
  // Every pinned variant of this benchmark still exists.
  for (const auto& [key, record] : golden_records())
    if (key.rfind(prefix, 0) == 0)
      EXPECT_TRUE(executed.count(key)) << "variant no longer generated: "
                                       << key;
}

std::vector<std::tuple<std::string, int>> suite_params() {
  std::vector<std::tuple<std::string, int>> out;
  for (const auto& name : kernels::benchmark_names())
    for (int jobs : {1, 8}) out.emplace_back(name, jobs);
  return out;
}

INSTANTIATE_TEST_SUITE_P(
    AllBenchmarks, EngineEquivalence, ::testing::ValuesIn(suite_params()),
    [](const ::testing::TestParamInfo<std::tuple<std::string, int>>& info) {
      return std::get<0>(info.param) + "_jobs" +
             std::to_string(std::get<1>(info.param));
    });

/// One float buffer of 4096 elements and n = 64, in blocks of 32 lanes.
np::Workload small_workload(int grid) {
  np::Workload w;
  w.launch.args.push_back(w.mem->alloc(ir::ScalarType::kFloat, 4096));
  w.launch.args.push_back(sim::LaunchConfig::scalar_int(64));
  w.launch.block = {32, 1, 1};
  w.launch.grid = {grid, 1, 1};
  return w;
}

/// Pins a single-kernel program's baseline launch at jobs 1 and 8.
void expect_source_pinned(const std::string& key, const std::string& src,
                          int grid, bool sanitize,
                          const sim::ExecutionLimits* limits = nullptr) {
  auto program = np::NpCompiler::parse(src);
  const ir::Kernel& kernel = *program->kernels.front();
  for (int jobs : {1, 8})
    expect_pinned(
        key, [&] { return small_workload(grid); },
        [&](np::Workload& w) {
          auto req = np::ExecutionRequest::baseline(kernel, w);
          if (limits) req.with_limits(*limits);
          return req;
        },
        jobs, sanitize);
}

// ---------------- watchdog trip points ----------------

constexpr const char* kSpinSource = R"(
__global__ void spin(float* out, int n) {
  int tid = threadIdx.x;
  float acc = 0.0f;
  while (n > 0) {
    acc = acc + 1.0f;
  }
  out[tid] = acc;
}
)";

TEST(EngineEquivalenceWatchdog, UnsanitizedTripsAtTheSamePoint) {
  sim::ExecutionLimits limits;
  limits.max_steps_per_block = 10000;
  expect_source_pinned("watchdog/unsanitized", kSpinSource, 1,
                       /*sanitize=*/false, &limits);
}

TEST(EngineEquivalenceWatchdog, SanitizedTripReportsIdentical) {
  sim::ExecutionLimits limits;
  limits.max_steps_per_block = 10000;
  expect_source_pinned("watchdog/sanitized", kSpinSource, 1,
                       /*sanitize=*/true, &limits);
}

// ---------------- hazard streams on a racy kernel ----------------

constexpr const char* kRacySource = R"(
__global__ void racy(float* out, int n) {
  __shared__ float buf[32];
  int tid = threadIdx.x;
  buf[tid % 16] = out[tid];
  __syncthreads();
  out[tid] = buf[(tid * 3) % 32];
}
)";

TEST(EngineEquivalenceHazards, RacyKernelStreamsIdentical) {
  expect_source_pinned("racy", kRacySource, 2, /*sanitize=*/true);
}

// ---------------- divergent-control-flow fuzzing ----------------

TEST(EngineEquivalenceFuzz, DivergentControlFlowBitIdentical) {
  for (std::uint64_t seed = 1; seed <= divergent_fuzz::kSeeds; ++seed) {
    std::string src = divergent_fuzz::fuzz_source(seed);
    SCOPED_TRACE(src);
    std::unique_ptr<ir::Program> program;
    try {
      program = np::NpCompiler::parse(src);
    } catch (const CompileError& e) {
      FAIL() << "generator produced unparseable source: " << e.what();
    }
    const ir::Kernel& kernel = *program->kernels.front();
    expect_pinned(
        "fuzz/" + std::to_string(seed), [] { return small_workload(2); },
        [&](np::Workload& w) {
          return np::ExecutionRequest::baseline(kernel, w);
        },
        /*jobs=*/1, /*sanitize=*/false);
  }
}

// ---------------- request plumbing ----------------

// Sanitized and unsanitized requests over the same workload agree on
// stats, timing and memory: the sanitizer observes, it never perturbs.
TEST(ExecutionRequests, SanitizeIsObservationOnly) {
  auto bench = kernels::make_benchmark("MV", kTestScale);
  np::Runner runner{sim::DeviceSpec::gtx680()};

  auto w1 = bench->make_workload();
  auto plain =
      runner.execute(np::ExecutionRequest::baseline(bench->kernel(), w1));
  auto w2 = bench->make_workload();
  auto sanitized = runner.execute(
      np::ExecutionRequest::baseline(bench->kernel(), w2).sanitized());
  EXPECT_TRUE(sanitized.ran);
  EXPECT_TRUE(sanitized.clean()) << sanitized.engine.summary();
  EXPECT_EQ(golden::stats_line(plain.run.stats),
            golden::stats_line(sanitized.run.stats));
  EXPECT_EQ(plain.run.timing.seconds, sanitized.run.timing.seconds);
  EXPECT_EQ(golden::hash_buffers(*w1.mem), golden::hash_buffers(*w2.mem));
}

}  // namespace
}  // namespace cudanp
