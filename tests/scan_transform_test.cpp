// Focused tests of the scan-loop transformation (paper Sec. 3.2): the
// two-pass chunk scheme must reproduce sequential prefix semantics for
// every fabric, group size and trip-count shape.
#include <gtest/gtest.h>

#include "frontend/parser.hpp"
#include "ir/printer.hpp"
#include "sim/interpreter.hpp"
#include "transform/transformer.hpp"

namespace cudanp::transform {
namespace {

using namespace cudanp::ir;
using namespace cudanp::sim;

struct ScanCase {
  NpType np_type;
  int slave_size;
  int trip;  // loop count; deliberately including non-divisible ones
};

std::string case_name(const ::testing::TestParamInfo<ScanCase>& info) {
  return std::string(info.param.np_type == NpType::kIntraWarp ? "Intra"
                                                              : "Inter") +
         "S" + std::to_string(info.param.slave_size) + "N" +
         std::to_string(info.param.trip);
}

class ScanTransform : public ::testing::TestWithParam<ScanCase> {};

TEST_P(ScanTransform, PrefixSumsMatchSequentialSemantics) {
  const auto& param = GetParam();
  const int masters = 32;
  const int n = param.trip;
  std::string src =
      "__global__ void k(float* a, float* out, float* fin) {\n"
      "  int tid = threadIdx.x + blockIdx.x * blockDim.x;\n"
      "  float acc = 0.0f;\n"
      "  #pragma np parallel for scan(+:acc)\n"
      "  for (int i = 0; i < " + std::to_string(n) + "; i++) {\n"
      "    acc += a[tid * " + std::to_string(n) + " + i];\n"
      "    out[tid * " + std::to_string(n) + " + i] = acc;\n"
      "  }\n"
      "  fin[tid] = acc;\n"
      "}\n";
  auto prog = cudanp::frontend::parse_program_or_throw(src);

  NpConfig cfg;
  cfg.np_type = param.np_type;
  cfg.slave_size = param.slave_size;
  cfg.master_count = masters;
  DiagnosticEngine diags;
  auto variant = apply_np_transform(*prog->find_kernel("k"), cfg, diags);

  DeviceMemory mem;
  std::size_t total = static_cast<std::size_t>(masters) * static_cast<std::size_t>(n);
  auto A = mem.alloc(ScalarType::kFloat, total);
  auto Out = mem.alloc(ScalarType::kFloat, total);
  auto Fin = mem.alloc(ScalarType::kFloat, masters);
  for (std::size_t i = 0; i < total; ++i)
    mem.buffer(A).store(i, Value::of_float(0.25 * ((i * 7) % 11) - 1.0));

  LaunchConfig launch;
  launch.grid = {1, 1, 1};
  launch.block = variant.block_dims;
  launch.args = {A, Out, Fin};
  const DeviceSpec spec = DeviceSpec::gtx680();
  Interpreter interp(spec, mem);
  (void)interp.run(*variant.kernel, launch);

  auto a = mem.buffer(A).f32();
  auto out = mem.buffer(Out).f32();
  auto fin = mem.buffer(Fin).f32();
  for (int t = 0; t < masters; ++t) {
    float acc = 0.0f;
    for (int i = 0; i < n; ++i) {
      acc += a[static_cast<std::size_t>(t) * static_cast<std::size_t>(n) + static_cast<std::size_t>(i)];
      EXPECT_NEAR(out[static_cast<std::size_t>(t) * static_cast<std::size_t>(n) + static_cast<std::size_t>(i)],
                  acc, 1e-3)
          << "t=" << t << " i=" << i;
    }
    EXPECT_NEAR(fin[static_cast<std::size_t>(t)], acc, 1e-3) << "t=" << t;
  }
}

std::vector<ScanCase> scan_cases() {
  std::vector<ScanCase> out;
  for (int s : {2, 4, 8}) {
    for (int n : {16, 30, 7}) {  // divisible, non-divisible, tiny
      out.push_back({NpType::kInterWarp, s, n});
      out.push_back({NpType::kIntraWarp, s, n});
    }
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(Shapes, ScanTransform,
                         ::testing::ValuesIn(scan_cases()), case_name);

TEST(ScanTransform, StructureHasTwoPassesAndFinalBroadcast) {
  const char* src = R"(
__global__ void k(float* a, float* out, int n) {
  int tid = threadIdx.x;
  float acc = 0.0f;
  #pragma np parallel for scan(+:acc)
  for (int i = 0; i < 64; i++) {
    acc += a[i];
    out[tid * 64 + i] = acc;
  }
  a[tid] = acc;
}
)";
  auto prog = cudanp::frontend::parse_program_or_throw(src);
  NpConfig cfg;
  cfg.np_type = NpType::kIntraWarp;
  cfg.slave_size = 4;
  cfg.master_count = 32;
  DiagnosticEngine diags;
  auto variant = apply_np_transform(*prog->find_kernel("k"), cfg, diags);
  std::string s = print_kernel(*variant.kernel);
  // Pass-1 accumulator and exclusive prefix, chunk bounds, and the
  // final read from the last slave.
  EXPECT_NE(s.find("__np_local0"), std::string::npos);
  EXPECT_NE(s.find("__np_prefix0"), std::string::npos);
  EXPECT_NE(s.find("__np_lo0"), std::string::npos);
  EXPECT_NE(s.find("__shfl(acc, 3, 4)"), std::string::npos);
  // Pass 1 must not contain the store to `out`.
  auto first_loop = s.find("for (int i = __np_lo0");
  auto second_loop = s.find("for (int i = __np_lo0", first_loop + 1);
  ASSERT_NE(second_loop, std::string::npos);
  std::string pass1 = s.substr(first_loop, second_loop - first_loop);
  EXPECT_EQ(pass1.find("out["), std::string::npos);
}

TEST(ScanTransform, MultiplicativeScan) {
  const char* src = R"(
__global__ void k(float* a, float* out) {
  int tid = threadIdx.x;
  float p = 1.0f;
  #pragma np parallel for scan(*:p)
  for (int i = 0; i < 12; i++) {
    p *= a[tid * 12 + i];
    out[tid * 12 + i] = p;
  }
}
)";
  auto prog = cudanp::frontend::parse_program_or_throw(src);
  NpConfig cfg;
  cfg.np_type = NpType::kInterWarp;
  cfg.slave_size = 4;
  cfg.master_count = 16;
  DiagnosticEngine diags;
  auto variant = apply_np_transform(*prog->find_kernel("k"), cfg, diags);

  DeviceMemory mem;
  auto A = mem.alloc(ScalarType::kFloat, 16 * 12);
  auto Out = mem.alloc(ScalarType::kFloat, 16 * 12);
  for (std::size_t i = 0; i < 16 * 12; ++i)
    mem.buffer(A).store(i, Value::of_float(1.0 + 0.01 * (i % 9)));
  LaunchConfig launch;
  launch.grid = {1, 1, 1};
  launch.block = variant.block_dims;
  launch.args = {A, Out};
  const DeviceSpec spec = DeviceSpec::gtx680();
  Interpreter interp(spec, mem);
  (void)interp.run(*variant.kernel, launch);
  auto a = mem.buffer(A).f32();
  auto out = mem.buffer(Out).f32();
  for (int t = 0; t < 16; ++t) {
    float p = 1.0f;
    for (int i = 0; i < 12; ++i) {
      p *= a[static_cast<std::size_t>(t) * 12 + static_cast<std::size_t>(i)];
      EXPECT_NEAR(out[static_cast<std::size_t>(t) * 12 + static_cast<std::size_t>(i)], p, 1e-3);
    }
  }
}

TEST(ScanTransform, TwoScanVarsRejected) {
  const char* src = R"(
__global__ void k(float* a, float* o1, float* o2, int n) {
  float x = 0.0f;
  float y = 0.0f;
  #pragma np parallel for scan(+:x) scan(+:y)
  for (int i = 0; i < n; i++) {
    x += a[i];
    y += a[i];
    o1[i] = x;
    o2[i] = y;
  }
}
)";
  auto prog = cudanp::frontend::parse_program_or_throw(src);
  NpConfig cfg;
  cfg.slave_size = 4;
  cfg.master_count = 32;
  DiagnosticEngine diags;
  EXPECT_THROW(
      (void)apply_np_transform(*prog->find_kernel("k"), cfg, diags),
      CompileError);
}

TEST(ScanTransform, ScanMixedWithReductionRejected) {
  const char* src = R"(
__global__ void k(float* a, float* o, int n) {
  float x = 0.0f;
  float s = 0.0f;
  #pragma np parallel for scan(+:x) reduction(+:s)
  for (int i = 0; i < n; i++) {
    x += a[i];
    s += x;
    o[i] = x;
  }
  o[0] = s;
}
)";
  auto prog = cudanp::frontend::parse_program_or_throw(src);
  NpConfig cfg;
  cfg.slave_size = 4;
  cfg.master_count = 32;
  DiagnosticEngine diags;
  EXPECT_THROW(
      (void)apply_np_transform(*prog->find_kernel("k"), cfg, diags),
      CompileError);
}

TEST(ScanTransform, KernelWithScanUsesChunkDistributionEverywhere) {
  // The element->slave mapping must be prefix-compatible, so *all* loops
  // in a scan kernel use contiguous chunks rather than cyclic striding.
  const char* src = R"(
__global__ void k(float* a, float* out) {
  int tid = threadIdx.x;
  float acc = 0.0f;
  float s = 0.0f;
  #pragma np parallel for reduction(+:s)
  for (int i = 0; i < 64; i++) s += a[tid * 64 + i];
  #pragma np parallel for scan(+:acc)
  for (int i = 0; i < 64; i++) {
    acc += a[tid * 64 + i];
    out[tid * 64 + i] = acc;
  }
  a[tid] = s + acc;
}
)";
  auto prog = cudanp::frontend::parse_program_or_throw(src);
  NpConfig cfg;
  cfg.np_type = NpType::kInterWarp;
  cfg.slave_size = 8;
  cfg.master_count = 32;
  DiagnosticEngine diags;
  auto variant = apply_np_transform(*prog->find_kernel("k"), cfg, diags);
  std::string s = print_kernel(*variant.kernel);
  // No cyclic "i += 8" loops; chunk bounds for both loops instead.
  EXPECT_EQ(s.find("i += 8"), std::string::npos);
  EXPECT_NE(s.find("__np_lo0"), std::string::npos);
  EXPECT_NE(s.find("__np_lo1"), std::string::npos);
}

}  // namespace
}  // namespace cudanp::transform
