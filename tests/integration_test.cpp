// End-to-end integration: every paper benchmark, transformed under every
// enumerated NP configuration, must reproduce the CPU reference exactly
// (within float-reassociation tolerance). This is the correctness
// guarantee behind every figure the bench harness regenerates.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "kernels/benchmark.hpp"
#include "np/autotuner.hpp"

namespace cudanp {
namespace {

constexpr double kTestScale = 0.08;

class BenchmarkIntegration : public ::testing::TestWithParam<std::string> {};

TEST_P(BenchmarkIntegration, BaselineMatchesReference) {
  auto bench = kernels::make_benchmark(GetParam(), kTestScale);
  np::Runner runner{sim::DeviceSpec::gtx680()};
  auto w = bench->make_workload();
  auto run =
      runner.execute(np::ExecutionRequest::baseline(bench->kernel(), w)).run;
  EXPECT_GT(run.timing.seconds, 0.0);
  EXPECT_GT(run.occupancy.blocks_per_smx, 0);
  std::string msg;
  ASSERT_TRUE(w.validate(*w.mem, &msg)) << msg;
}

TEST_P(BenchmarkIntegration, EveryNpVariantMatchesReference) {
  auto bench = kernels::make_benchmark(GetParam(), kTestScale);
  np::Runner runner{sim::DeviceSpec::gtx680()};
  auto probe = bench->make_workload();
  auto configs = np::NpCompiler::enumerate_configs(
      bench->kernel(), static_cast<int>(probe.launch.block.count()),
      runner.spec());
  ASSERT_FALSE(configs.empty());
  int executed = 0;
  for (const auto& cfg : configs) {
    SCOPED_TRACE(cfg.describe());
    transform::TransformResult variant;
    try {
      variant = np::NpCompiler::transform(bench->kernel(), cfg);
    } catch (const CompileError&) {
      continue;  // configuration legitimately inapplicable
    }
    auto w = bench->make_workload();
    auto run =
        runner.execute(np::ExecutionRequest::transformed(variant, w)).run;
    EXPECT_GT(run.timing.seconds, 0.0);
    std::string msg;
    EXPECT_TRUE(w.validate(*w.mem, &msg)) << msg;
    ++executed;
  }
  EXPECT_GT(executed, 0);
}

TEST_P(BenchmarkIntegration, AutotunerNeverLosesToBaseline) {
  // The tuner tests versions exhaustively and can always fall back to the
  // baseline, so its pick must never be a slowdown.
  auto bench = kernels::make_benchmark(GetParam(), kTestScale);
  np::Autotuner tuner{np::Runner{sim::DeviceSpec::gtx680()}};
  auto result =
      tuner.tune(bench->kernel(), [&] { return bench->make_workload(); });
  EXPECT_GE(result.best_speedup(), 1.0);
}

TEST_P(BenchmarkIntegration, NpRaisesThreadLevelParallelism) {
  // The mechanism of the paper (Sec. 2.2): for benchmarks whose baseline
  // TLP is capped by tiny thread blocks, the winning NP variant keeps
  // strictly more warps resident per SMX. Benchmarks with large baseline
  // blocks can already saturate the SMX; there NP wins through shorter
  // per-warp critical paths instead, so the claim does not apply to them
  // and the test pins only that they are not block-size limited.
  static const std::set<std::string> kNotBlockLimited = {"SS", "LIB", "CFD",
                                                         "BK"};
  auto bench = kernels::make_benchmark(GetParam(), kTestScale);
  auto probe = bench->make_workload();
  if (kNotBlockLimited.count(GetParam())) {
    EXPECT_GT(probe.launch.block.count(), 32);
    return;
  }
  ASSERT_LE(probe.launch.block.count(), 32);
  np::Autotuner tuner{np::Runner{sim::DeviceSpec::gtx680()}};
  auto result =
      tuner.tune(bench->kernel(), [&] { return bench->make_workload(); });
  ASSERT_GE(result.best, 0);
  const auto& best = result.entries[static_cast<std::size_t>(result.best)];
  EXPECT_GT(best.occupancy.active_warps,
            result.baseline_occupancy.active_warps);
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, BenchmarkIntegration,
                         ::testing::ValuesIn(kernels::benchmark_names()));

TEST(Integration, Table1MetadataMatchesKernels) {
  for (auto& bench : kernels::make_benchmark_suite(kTestScale)) {
    auto row = bench->table1();
    EXPECT_EQ(bench->kernel().parallel_loop_count(),
              static_cast<std::size_t>(row.parallel_loops))
        << bench->name();
  }
}

TEST(Integration, FreshWorkloadsAreIndependent) {
  auto bench = kernels::make_benchmark("TMV", kTestScale);
  auto w1 = bench->make_workload();
  auto w2 = bench->make_workload();
  EXPECT_NE(w1.mem.get(), w2.mem.get());
  // Same deterministic inputs in both.
  auto b1 = std::get<sim::BufferId>(w1.launch.args[0]);
  auto b2 = std::get<sim::BufferId>(w2.launch.args[0]);
  EXPECT_EQ(w1.mem->buffer(b1).f32()[17], w2.mem->buffer(b2).f32()[17]);
}

}  // namespace
}  // namespace cudanp
