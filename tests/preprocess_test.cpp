#include <gtest/gtest.h>

#include "frontend/parser.hpp"
#include "ir/printer.hpp"
#include "sim/interpreter.hpp"
#include "transform/preprocess.hpp"

namespace cudanp::transform {
namespace {

using namespace cudanp::ir;
using namespace cudanp::sim;

std::unique_ptr<Program> parse(const std::string& src) {
  return cudanp::frontend::parse_program_or_throw(src);
}

/// Runs a kernel and returns the contents of its first (output) buffer.
std::vector<std::int32_t> run_i32(const Kernel& k, Dim3 grid, Dim3 block,
                                  std::size_t out_elems) {
  DeviceMemory mem;
  auto out = mem.alloc(ScalarType::kInt, out_elems);
  LaunchConfig cfg;
  cfg.grid = grid;
  cfg.block = block;
  cfg.args = {out};
  const DeviceSpec spec = DeviceSpec::gtx680();
  Interpreter interp(spec, mem);
  (void)interp.run(k, cfg);
  auto s = mem.buffer(out).i32();
  return {s.begin(), s.end()};
}

TEST(FlattenThreadDims, EquivalentResults) {
  // A kernel written for 4x8 blocks, flattened to 32x1: every thread must
  // compute the same value (Fig. 8 mapping).
  const char* src =
      "__global__ void k(int* o) {"
      "  int id = threadIdx.y * blockDim.x + threadIdx.x;"
      "  o[blockIdx.x * 32 + id] = threadIdx.y * 1000 + threadIdx.x;"
      "}";
  auto p2d = parse(src);
  auto want = run_i32(*p2d->kernels[0], {2, 1, 1}, {4, 8, 1}, 64);

  auto pflat = parse(src);
  int flat = flatten_thread_dims(*pflat->kernels[0], {4, 8, 1});
  EXPECT_EQ(flat, 32);
  auto got = run_i32(*pflat->kernels[0], {2, 1, 1}, {32, 1, 1}, 64);
  EXPECT_EQ(got, want);
}

TEST(FlattenThreadDims, ThreeDimensional) {
  const char* src =
      "__global__ void k(int* o) {"
      "  int id = (threadIdx.z * blockDim.y + threadIdx.y) * blockDim.x"
      "           + threadIdx.x;"
      "  o[id] = threadIdx.z * 100 + threadIdx.y * 10 + threadIdx.x;"
      "}";
  auto p3d = parse(src);
  auto want = run_i32(*p3d->kernels[0], {1, 1, 1}, {2, 3, 4}, 24);
  auto pflat = parse(src);
  int flat = flatten_thread_dims(*pflat->kernels[0], {2, 3, 4});
  EXPECT_EQ(flat, 24);
  auto got = run_i32(*pflat->kernels[0], {1, 1, 1}, {24, 1, 1}, 24);
  EXPECT_EQ(got, want);
}

TEST(FlattenThreadDims, OneDimensionalIsIdentity) {
  auto p = parse("__global__ void k(int* o) { o[threadIdx.x] = 1; }");
  std::string before = print_kernel(*p->kernels[0]);
  int flat = flatten_thread_dims(*p->kernels[0], {64, 1, 1});
  EXPECT_EQ(flat, 64);
  EXPECT_EQ(print_kernel(*p->kernels[0]), before);
}

TEST(Reroll, CombinesUnrolledStatements) {
  // Fig. 9: manually unrolled statements with non-linear indices become a
  // loop over constant index tables.
  auto p = parse(
      "__global__ void k(float* a, float* b) {"
      "  a[3] += b[0];"
      "  a[1] += b[1];"
      "  a[4] += b[2];"
      "  a[1] += b[3];"
      "  a[5] += b[4];"
      "}");
  auto r = reroll_unrolled_statements(*p->kernels[0]);
  EXPECT_EQ(r.loops_created, 1);
  EXPECT_EQ(r.statements_absorbed, 5);
  std::string s = print_kernel(*p->kernels[0]);
  EXPECT_NE(s.find("__rr_tab0"), std::string::npos);
  EXPECT_NE(s.find("for (int __rr_u = 0; __rr_u < 5;"), std::string::npos);
}

TEST(Reroll, RerolledKernelComputesSameValues) {
  const char* src =
      "__global__ void k(int* o) {"
      "  int t = threadIdx.x;"
      "  o[t * 4 + 0] = t + 3;"
      "  o[t * 4 + 1] = t + 1;"
      "  o[t * 4 + 2] = t + 4;"
      "  o[t * 4 + 3] = t + 1;"
      "}";
  auto pref = parse(src);
  auto want = run_i32(*pref->kernels[0], {1, 1, 1}, {8, 1, 1}, 32);
  auto p = parse(src);
  auto r = reroll_unrolled_statements(*p->kernels[0]);
  EXPECT_EQ(r.loops_created, 1);
  auto got = run_i32(*p->kernels[0], {1, 1, 1}, {8, 1, 1}, 32);
  EXPECT_EQ(got, want);
}

TEST(Reroll, ConstantColumnsStayLiteral) {
  auto p = parse(
      "__global__ void k(int* o) {"
      "  o[0] = 7;"
      "  o[1] = 7;"
      "  o[2] = 7;"
      "}");
  (void)reroll_unrolled_statements(*p->kernels[0]);
  std::string s = print_kernel(*p->kernels[0]);
  // The stored value 7 is constant across the run: no table for it.
  EXPECT_NE(s.find("= 7;"), std::string::npos);
  EXPECT_NE(s.find("__rr_tab0"), std::string::npos);  // the index varies
}

TEST(Reroll, ShortRunsLeftAlone) {
  auto p = parse(
      "__global__ void k(int* o) {"
      "  o[0] = 1;"
      "  o[1] = 2;"
      "}");
  auto r = reroll_unrolled_statements(*p->kernels[0]);
  EXPECT_EQ(r.loops_created, 0);
}

TEST(Reroll, DifferentShapesNotMerged) {
  auto p = parse(
      "__global__ void k(int* o, float* f) {"
      "  o[0] = 1;"
      "  f[1] = 2.0f;"
      "  o[2] = 3;"
      "}");
  auto r = reroll_unrolled_statements(*p->kernels[0]);
  EXPECT_EQ(r.loops_created, 0);
}

TEST(Reroll, MarkParallelAttachesPragma) {
  auto p = parse(
      "__global__ void k(int* o) {"
      "  o[0] = 1;"
      "  o[1] = 2;"
      "  o[2] = 3;"
      "}");
  (void)reroll_unrolled_statements(*p->kernels[0], /*mark_parallel=*/true);
  EXPECT_EQ(p->kernels[0]->parallel_loop_count(), 1u);
}

TEST(Reroll, RecursesIntoControlFlow) {
  auto p = parse(
      "__global__ void k(int* o, int n) {"
      "  if (n > 0) {"
      "    o[0] = 1;"
      "    o[1] = 2;"
      "    o[2] = 3;"
      "    o[3] = 4;"
      "  }"
      "}");
  auto r = reroll_unrolled_statements(*p->kernels[0]);
  EXPECT_EQ(r.loops_created, 1);
  EXPECT_EQ(r.statements_absorbed, 4);
}

}  // namespace
}  // namespace cudanp::transform
