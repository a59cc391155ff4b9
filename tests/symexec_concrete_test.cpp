// A fully concrete symbolic run equals the VM bit for bit.
//
// Symbolic execution (sim/symexec.hpp) folds constants and SymEvaluator
// evaluates leaves through the same scalar semantics (sim/ops.hpp) and
// the same binder slots (sim/binder.hpp) as the simulator's engines.
// These tests pin that invariant: every raw, un-normalised output DAG of
// a symbolic run, evaluated with SymEvaluator(seed), must equal the
// output of a VM run whose float inputs come from sym_float_input(seed)
// — the exact encoding the certifier's counterexample replays rely on.
// Runs that fault must fault on both sides, with the same text where
// the fault is an operator's.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <variant>
#include <vector>

#include "frontend/parser.hpp"
#include "kernels/benchmark.hpp"
#include "np/certifier.hpp"
#include "np/compiler.hpp"
#include "np/heuristic.hpp"
#include "np/runner.hpp"
#include "sim/fault.hpp"
#include "sim/ops.hpp"
#include "sim/symexec.hpp"
#include "cert_fuzz_kernels.hpp"
#include "divergent_fuzz_kernels.hpp"

namespace cudanp {
namespace {

constexpr std::uint64_t kSeed = 7;

bool same_bits(double x, double y) {
  return std::memcmp(&x, &y, sizeof x) == 0;
}

/// Runs the baseline `kernel` (or `variant` when non-null) symbolically
/// and on the VM. A clean symbolic run must reproduce every output
/// element of the VM bit for bit; a faulting one must make the VM throw
/// (with the same message prefix for operator faults). Returns false
/// when the symbolic run bailed out on an unsupported construct.
bool expect_concrete_equal(const ir::Kernel& kernel,
                           const transform::TransformResult* variant,
                           const np::WorkloadFactory& make) {
  const ir::Kernel& run_kernel = variant ? *variant->kernel : kernel;
  np::Workload probe = make();
  const std::vector<sim::SymArg> args = np::sym_args_for(probe, variant);
  sim::SymArena arena;
  const sim::SymExecResult sym = sim::sym_execute(
      run_kernel, probe.launch.grid,
      variant ? variant->block_dims : probe.launch.block, args, arena);

  np::Runner runner(sim::DeviceSpec::gtx680());
  np::Workload w = make();
  np::seed_certify_floats(w, kSeed);
  auto request = variant ? np::ExecutionRequest::transformed(*variant, w)
                         : np::ExecutionRequest::baseline(kernel, w);
  std::string vm_error;
  try {
    (void)runner.execute(request);
  } catch (const SimError& e) {
    vm_error = e.what();
  }

  if (!sym.ok) {
    if (!sym.fault) return false;
    EXPECT_FALSE(vm_error.empty())
        << "symbolic run faults (" << sym.reason << ") but the VM ran";
    return true;
  }
  EXPECT_EQ(vm_error, "") << "VM faults but the symbolic run is clean";
  if (!vm_error.empty()) return true;

  sim::SymEvaluator eval(arena, kSeed);
  for (std::size_t i = 0; i < w.launch.args.size(); ++i) {
    const auto* id = std::get_if<sim::BufferId>(&w.launch.args[i]);
    if (!id) continue;
    const sim::DeviceBuffer& buf = w.mem->buffer(*id);
    const auto& cells = sym.buffers[i];
    EXPECT_EQ(cells.size(), buf.size());
    for (std::size_t e = 0; e < cells.size() && e < buf.size(); ++e) {
      sim::Value s;
      if (!eval.eval(cells[e], &s)) {
        ADD_FAILURE() << "arg " << i << "[" << e << "] does not evaluate: "
                      << arena.str(cells[e]);
        return true;
      }
      const sim::Value got = buf.load(e);
      const bool equal =
          buf.type() == ir::ScalarType::kFloat
              ? s.is_float() && same_bits(s.f, got.f)
              : static_cast<std::int32_t>(s.as_i()) == got.i;
      if (!equal) {
        ADD_FAILURE() << "arg " << i << "[" << e << "]: symbolic "
                      << s.as_f() << " vs VM " << got.as_f() << " for "
                      << arena.str(cells[e]);
        return true;
      }
    }
  }
  return true;
}

/// Runs a parsed single-kernel program through expect_concrete_equal on
/// a synthetic workload of `n` elements in blocks of `tb` threads.
void expect_source_concrete_equal(const std::string& src, int n = 8,
                                  int tb = 8) {
  SCOPED_TRACE(src);
  auto prog = frontend::parse_program_or_throw(src);
  const ir::Kernel& kernel = *prog->find_kernel("k");
  auto make = [&] { return np::make_synthetic_workload(kernel, n, tb); };
  EXPECT_TRUE(expect_concrete_equal(kernel, nullptr, make))
      << "symbolic run bailed out";
}

// ---------------------------------------------------------------------
// The paper suite: every baseline and its heuristic NP variant.

/// Probe shape: the benchmark suite at 1% of its test scale — small
/// enough for the whole suite to run symbolically in seconds, large
/// enough for multi-block grids and full NP slave groups.
constexpr double kProbeScale = 0.01;

class SuiteConcrete : public ::testing::TestWithParam<std::string> {};

TEST_P(SuiteConcrete, BaselineAndHeuristicVariantMatchVm) {
  auto bench = kernels::make_benchmark(GetParam(), kProbeScale);
  auto make = [&] { return bench->make_workload(); };
  EXPECT_TRUE(expect_concrete_equal(bench->kernel(), nullptr, make))
      << "baseline bailed out";
  auto probe = bench->make_workload();
  auto choice = np::suggest_config(
      bench->kernel(), static_cast<int>(probe.launch.block.count()),
      sim::DeviceSpec::gtx680());
  SCOPED_TRACE(choice.config.describe());
  auto variant = np::NpCompiler::transform(bench->kernel(), choice.config);
  EXPECT_TRUE(expect_concrete_equal(bench->kernel(), &variant, make))
      << "variant bailed out";
}

INSTANTIATE_TEST_SUITE_P(
    AllBenchmarks, SuiteConcrete,
    ::testing::ValuesIn(kernels::benchmark_names()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      return info.param;
    });

// ---------------------------------------------------------------------
// The certifier fuzz corpus: every NP configuration, clean and with a
// fault-injected store skew applied after the first (binding) run.

TEST(FuzzConcrete, CertFuzzCorpusMatchesVm) {
  constexpr std::uint64_t kCorpus = 15;
  const auto spec = sim::DeviceSpec::gtx680();
  for (std::uint64_t fuzz = 0; fuzz < kCorpus; ++fuzz) {
    std::string src = cert_fuzz::gen_kernel_source(fuzz);
    SCOPED_TRACE("fuzz seed " + std::to_string(fuzz) + "\n" + src);
    auto prog = frontend::parse_program_or_throw(src);
    ir::Kernel& kernel = *prog->find_kernel("k");
    auto make = [&] { return np::make_synthetic_workload(kernel, 8, 8); };
    EXPECT_TRUE(expect_concrete_equal(kernel, nullptr, make));
    for (const auto& cfg : np::NpCompiler::enumerate_configs(kernel, 8, spec)) {
      transform::TransformResult variant;
      try {
        variant = np::NpCompiler::transform(kernel, cfg);
      } catch (const CompileError&) {
        continue;  // configuration legitimately inapplicable
      }
      SCOPED_TRACE(cfg.describe());
      EXPECT_TRUE(expect_concrete_equal(kernel, &variant, make));
      // The AST edit drops the cached binding; both engines must rebind.
      sim::FaultPlan plan;
      plan.skew_index = true;
      if (sim::FaultInjector(plan).corrupt_kernel(*variant.kernel)) {
        SCOPED_TRACE("skewed store");
        EXPECT_TRUE(expect_concrete_equal(kernel, &variant, make));
      }
    }
  }
}

// ---------------------------------------------------------------------
// The divergent-control-flow corpus: per-lane ifs, lane-dependent loop
// trip counts and a shared-memory stage behind a barrier.

TEST(FuzzConcrete, DivergentControlFlowMatchesVm) {
  for (std::uint64_t seed = 1; seed <= divergent_fuzz::kSeeds; ++seed) {
    std::string src = divergent_fuzz::fuzz_source(seed);
    SCOPED_TRACE("seed " + std::to_string(seed) + "\n" + src);
    auto prog = frontend::parse_program_or_throw(src);
    const ir::Kernel& kernel = *prog->kernels.front();
    auto make = [] {
      np::Workload w;
      w.launch.args.push_back(w.mem->alloc(ir::ScalarType::kFloat, 4096));
      w.launch.args.push_back(sim::LaunchConfig::scalar_int(64));
      w.launch.block = {32, 1, 1};
      w.launch.grid = {2, 1, 1};
      return w;
    };
    EXPECT_TRUE(expect_concrete_equal(kernel, nullptr, make))
        << "symbolic run bailed out";
  }
}

// ---------------------------------------------------------------------
// Name-binding corner cases.

TEST(BinderConcrete, DeclarationShadowingAParameter) {
  expect_source_concrete_equal(R"(
__global__ void k(float* a, float* c, int n) {
  int tx = threadIdx.x + blockIdx.x * blockDim.x;
  int n = tx * 3 + 1;
  c[tx] = a[tx] * n;
}
)");
}

/// A name re-declared with another type is a new variable: the float
/// `t` must not inherit the int slot of the earlier `t`.
TEST(BinderConcrete, RedeclarationWithADifferentType) {
  const std::string src = R"(
__global__ void k(float* a, float* c, int n) {
  int tx = threadIdx.x + blockIdx.x * blockDim.x;
  { int t = 1; c[tx + n] = t + a[tx]; }
  { float t = 0.5f; t = t * 3.0f; c[tx] = t + 1.0f; }
}
)";
  expect_source_concrete_equal(src);
  auto prog = frontend::parse_program_or_throw(src);
  const ir::Kernel& kernel = *prog->find_kernel("k");
  np::Workload w = np::make_synthetic_workload(kernel, 8, 8);
  np::Runner runner(sim::DeviceSpec::gtx680());
  (void)runner.execute(np::ExecutionRequest::baseline(kernel, w));
  const auto c = w.mem->buffer(std::get<sim::BufferId>(w.launch.args[1])).f32();
  for (int tx = 0; tx < 8; ++tx) EXPECT_EQ(c[tx], 2.5f) << "tx " << tx;
}

/// `__shared__` scalars are rejected the same way by the VM (a SimError
/// where the declaration executes, a kSimFault when sanitized) and by
/// symbolic execution (a deterministic fault with the VM's text).
TEST(BinderConcrete, SharedScalarFaultsAlike) {
  const std::string src = R"(
__global__ void k(float* a, float* c, int n) {
  __shared__ float s;
  int tx = threadIdx.x + blockIdx.x * blockDim.x;
  s = a[tx];
  c[tx] = a[tx] + s;
}
)";
  const std::string reason = sim::ops::shared_scalar_error("s");
  auto prog = frontend::parse_program_or_throw(src);
  const ir::Kernel& kernel = *prog->find_kernel("k");
  auto make = [&] { return np::make_synthetic_workload(kernel, 8, 8); };

  np::Workload probe = make();
  sim::SymArena arena;
  const sim::SymExecResult sym =
      sim::sym_execute(kernel, probe.launch.grid, probe.launch.block,
                       np::sym_args_for(probe), arena);
  EXPECT_FALSE(sym.ok);
  EXPECT_TRUE(sym.fault);

  np::Runner runner(sim::DeviceSpec::gtx680());
  np::Workload w = make();
  try {
    (void)runner.execute(np::ExecutionRequest::baseline(kernel, w));
    ADD_FAILURE() << "VM did not fault";
  } catch (const SimError& e) {
    EXPECT_EQ(std::string(e.what()).rfind(reason + " at 3:", 0), 0u)
        << e.what();
    EXPECT_EQ(sym.reason, e.what());
  }

  np::Workload ws = make();
  auto run =
      runner.execute(np::ExecutionRequest::baseline(kernel, ws).sanitized());
  ASSERT_EQ(run.hazards().size(), 1u) << run.engine.summary();
  EXPECT_EQ(run.hazards()[0].kind, sim::HazardKind::kSimFault);
  EXPECT_EQ(run.hazards()[0].message.rfind(reason + " at 3:", 0), 0u)
      << run.hazards()[0].message;
}

TEST(BinderConcrete, NameRedeclaredInALoopBody) {
  expect_source_concrete_equal(R"(
__global__ void k(float* a, float* c, int n) {
  int tx = threadIdx.x + blockIdx.x * blockDim.x;
  float acc = 0.0f;
  for (int i = 0; i < n; i++) {
    float t = a[i * n + tx] * 0.5f;
    int j = i + tx;
    acc += t * j;
  }
  c[tx] = acc;
}
)");
}

TEST(BinderConcrete, GeometryNameUsedAsAVariable) {
  expect_source_concrete_equal(R"(
__global__ void k(float* a, float* c, int n) {
  int blockDim = 3;
  int threadIdx = threadIdx.x + blockIdx.x * blockDim.x;
  c[threadIdx] = a[threadIdx] * blockDim + gridDim.x;
}
)",
                               16, 8);
}

TEST(BinderConcrete, UnknownCalleeFailsOnBothSides) {
  const std::string src = R"(
__global__ void k(float* a, float* c, int n) {
  int tx = threadIdx.x + blockIdx.x * blockDim.x;
  c[tx] = mystery(a[tx]);
}
)";
  auto prog = frontend::parse_program_or_throw(src);
  const ir::Kernel& kernel = *prog->find_kernel("k");
  auto make = [&] { return np::make_synthetic_workload(kernel, 8, 8); };
  np::Workload probe = make();
  sim::SymArena arena;
  const sim::SymExecResult sym =
      sim::sym_execute(kernel, probe.launch.grid, probe.launch.block,
                       np::sym_args_for(probe), arena);
  EXPECT_FALSE(sym.ok);
  EXPECT_TRUE(sym.fault);
  np::Workload w = make();
  np::Runner runner(sim::DeviceSpec::gtx680());
  try {
    (void)runner.execute(np::ExecutionRequest::baseline(kernel, w));
    ADD_FAILURE() << "VM did not fault";
  } catch (const SimError& e) {
    EXPECT_EQ(sym.reason, e.what());
  }
}

/// Every math builtin (every spelling the binder accepts), once with
/// float and once with int arguments. abs/min/max keep int arguments
/// int, so their int results also land in an int buffer, where an
/// int-vs-float result rule mismatch cannot hide behind the conversion.
TEST(BinderConcrete, EveryMathBuiltinWithIntAndFloatArguments) {
  struct Case {
    const char* name;
    int arity;
    bool int_result;
  };
  const Case cases[] = {
      {"sqrtf", 1, false},  {"sqrt", 1, false},   {"fabsf", 1, false},
      {"fabs", 1, false},   {"expf", 1, false},   {"exp", 1, false},
      {"__expf", 1, false}, {"logf", 1, false},   {"log", 1, false},
      {"__logf", 1, false}, {"sinf", 1, false},   {"__sinf", 1, false},
      {"cosf", 1, false},   {"__cosf", 1, false}, {"floorf", 1, false},
      {"rsqrtf", 1, false}, {"abs", 1, true},     {"min", 2, true},
      {"max", 2, true},     {"fminf", 2, false},  {"fmaxf", 2, false},
      {"powf", 2, false},
  };
  for (const Case& c : cases) {
    const std::string f = c.name;
    const std::string fargs = c.arity == 1 ? "(x)" : "(x, y)";
    const std::string iargs = c.arity == 1 ? "(i)" : "(i, j)";
    expect_source_concrete_equal(
        "__global__ void k(float* a, float* c, float* e, int* d, int n) {\n"
        "  int tx = threadIdx.x + blockIdx.x * blockDim.x;\n"
        "  float x = a[tx] * 4.0f;\n"
        "  float y = a[tx + n] + 1.5f;\n"
        "  int i = tx - 3;\n"
        "  int j = 2 - tx;\n"
        "  c[tx] = " + f + fargs + ";\n"
        "  e[tx] = " + f + iargs + ";\n" +
        (c.int_result ? "  d[tx] = " + f + iargs + ";\n" : "") + "}\n");
  }
}

TEST(BinderConcrete, IntegerDivisionAndModuloByZeroFaultAlike) {
  for (const char* op : {"/", "%"}) {
    const std::string src =
        std::string("__global__ void k(float* a, float* c, int n) {\n"
                    "  int tx = threadIdx.x + blockIdx.x * blockDim.x;\n"
                    "  int z = n - n;\n"
                    "  c[tx] = a[tx] + (tx ") +
        op + " z);\n}\n";
    SCOPED_TRACE(src);
    auto prog = frontend::parse_program_or_throw(src);
    const ir::Kernel& kernel = *prog->find_kernel("k");
    auto make = [&] { return np::make_synthetic_workload(kernel, 8, 8); };
    np::Workload probe = make();
    sim::SymArena arena;
    const sim::SymExecResult sym =
        sim::sym_execute(kernel, probe.launch.grid, probe.launch.block,
                         np::sym_args_for(probe), arena);
    ASSERT_FALSE(sym.ok);
    EXPECT_TRUE(sym.fault);
    EXPECT_EQ(sym.reason, std::string(op) == "/" ? "integer division by zero"
                                                 : "modulo by zero");
    np::Workload w = make();
    np::Runner runner(sim::DeviceSpec::gtx680());
    try {
      (void)runner.execute(np::ExecutionRequest::baseline(kernel, w));
      ADD_FAILURE() << "VM did not fault";
    } catch (const SimError& e) {
      EXPECT_EQ(std::string(e.what()).rfind(sym.reason + " at ", 0), 0u)
          << e.what();
    }
  }
}

// ---------------------------------------------------------------------
// The symbolic envelope: every construct outside the model aborts the run
// with a reason (fault = true only where the VM faults on any input).

sim::SymExecResult sym_run(const std::string& src,
                           const sim::SymExecOptions& opt = {}, int n = 8,
                           int tb = 8) {
  auto prog = frontend::parse_program_or_throw(src);
  const ir::Kernel& kernel = *prog->find_kernel("k");
  np::Workload probe = np::make_synthetic_workload(kernel, n, tb);
  sim::SymArena arena;
  return sim::sym_execute(kernel, probe.launch.grid, probe.launch.block,
                          np::sym_args_for(probe), arena, opt);
}

void expect_abort(const sim::SymExecResult& r, bool fault,
                  const std::string& phrase) {
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.fault, fault) << r.reason;
  EXPECT_NE(r.reason.find(phrase), std::string::npos) << r.reason;
}

std::string kernel_body(const std::string& body) {
  return "__global__ void k(float* a, float* c, int n) {\n"
         "  int tx = threadIdx.x + blockIdx.x * blockDim.x;\n" +
         body + "}\n";
}

TEST(SymEnvelope, DataDependentLoopBound) {
  expect_abort(sym_run(kernel_body(
                   "  float s = 0.0f;\n"
                   "  for (int i = 0; i < (int)(a[tx] * 4.0f); i++)\n"
                   "    s += 1.0f;\n"
                   "  c[tx] = s;\n")),
               false, "symbolic loop bound (data-dependent trip count)");
  expect_abort(sym_run(kernel_body(
                   "  int i = 0;\n"
                   "  while ((float)i < a[tx] * 4.0f) { i = i + 1; }\n"
                   "  c[tx] = (float)i;\n")),
               false, "symbolic while condition (data-dependent trip count)");
}

TEST(SymEnvelope, StoreAtASymbolicIndex) {
  expect_abort(
      sym_run(kernel_body("  c[(int)(a[tx] * 4.0f) + 4] = 1.0f;\n")), false,
      "store to 'c' at a symbolic index");
}

TEST(SymEnvelope, SharedStoreUnderADataDependentBranch) {
  expect_abort(sym_run(kernel_body("  __shared__ float s[8];\n"
                                   "  if (a[tx] > 0.0f) s[threadIdx.x] = 1.0f;\n"
                                   "  c[tx] = a[tx];\n")),
               false,
               "store to shared 's' under a symbolically divergent branch");
}

TEST(SymEnvelope, BarrierUnderADataDependentBranch) {
  expect_abort(sym_run(kernel_body("  if (a[tx] > 0.0f) { __syncthreads(); }\n"
                                   "  c[tx] = a[tx];\n")),
               false, "__syncthreads under a symbolically divergent branch");
}

TEST(SymEnvelope, ShuffleUnderADataDependentBranch) {
  expect_abort(sym_run(kernel_body("  float v = a[tx];\n"
                                   "  if (a[tx] > 0.0f) v = __shfl(v, 0, 8);\n"
                                   "  c[tx] = v;\n")),
               false, "__shfl under a symbolically divergent branch");
}

TEST(SymEnvelope, ReturnUnderADataDependentBranch) {
  expect_abort(sym_run(kernel_body("  if (a[tx] > 0.0f) return;\n"
                                   "  c[tx] = a[tx];\n")),
               false, "return under a symbolically divergent branch");
}

TEST(SymEnvelope, GatherOverTheCellLimit) {
  const std::string src =
      kernel_body("  c[tx] = a[(int)(a[tx] * 4.0f) + 4];\n");
  EXPECT_TRUE(sym_run(src).ok);
  sim::SymExecOptions opt;
  opt.max_gather_cells = 16;
  expect_abort(sym_run(src, opt), false,
               "load from 'a' at a symbolic index over 64 cells exceeds the "
               "gather limit");
}

TEST(SymEnvelope, StepAndNodeBudgets) {
  const std::string src = kernel_body("  c[tx] = a[tx] * 2.0f;\n");
  EXPECT_TRUE(sym_run(src).ok);
  sim::SymExecOptions steps;
  steps.max_steps = 1;
  expect_abort(sym_run(src, steps), false, "step budget of 1 exhausted");
  sim::SymExecOptions nodes;
  nodes.max_nodes = 10;
  expect_abort(sym_run(src, nodes), false,
               "expression budget of 10 nodes exhausted");
}

TEST(SymEnvelope, CrossBlockReadOfAnotherBlocksWrite) {
  expect_abort(
      sym_run(kernel_body("  c[tx] = a[tx];\n"
                          "  if (blockIdx.x == 1) c[tx] = c[tx - 8] * 2.0f;\n"),
              {}, 16, 8),
      false, "cross-block read of 'c[0]'");
}

TEST(SymEnvelope, ReadOfAnUninitializedVariable) {
  expect_abort(sym_run(kernel_body("  float v;\n"
                                   "  c[tx] = v * 2.0f;\n")),
               false, "read of uninitialized variable 'v'");
}

TEST(SymEnvelope, OutOfBoundsConstantIndexFaults) {
  expect_abort(sym_run(kernel_body("  c[tx + 1000] = a[tx];\n")), true,
               "out-of-bounds access to 'c[1000]' (size 64)");
  expect_abort(sym_run(kernel_body("  float r[4];\n"
                                   "  r[tx] = a[tx];\n"
                                   "  c[tx] = r[0];\n")),
               true, "index 4 out of bounds");
}

}  // namespace
}  // namespace cudanp
